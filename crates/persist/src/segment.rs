//! Segmented snapshots: per-shard HACCSNAP segment files plus a manifest.
//!
//! The monolithic coordinator snapshot rewrites every client's state each
//! tick, so its write cost grows linearly with federation size even when
//! only a handful of clients changed. This module splits one snapshot into
//!
//! * one **core segment** carrying the payload bytes *before* the
//!   per-client entries (seed, RNG, global params, ...) and *after* them
//!   (selector state),
//! * one **shard segment** per registry shard carrying that shard's
//!   per-client entry bytes, and
//! * one **manifest** naming every segment with its length and checksum.
//!
//! Segment files are epoch-suffixed and immutable once written; a later
//! tick rewrites only the core segment plus the shards dirtied since the
//! previous tick, and its manifest references the surviving older files
//! for the clean shards. The manifest is written **last** via
//! [`write_atomic`](crate::write_atomic), so a crash mid-tick leaves the
//! previous manifest (and every file it names) intact.
//!
//! [`reassemble`] validates each segment (manifest checksum over the whole
//! file, then the HACCSNAP envelope checksum over its payload) and splices
//! core-pre + entries (in global id order) + core-post back into one
//! payload that is **byte-identical** to the monolithic
//! `Coordinator::snapshot` output — restore code is shared, and the
//! bit-identity guarantee of DESIGN.md §10 carries over unchanged.

use std::path::{Path, PathBuf};

use crate::{
    fnv1a64, read_snapshot, write_atomic, PersistError, SnapshotReader, SnapshotWriter, MAX_LEN,
};

/// Payload tag of a core segment.
const TAG_CORE: u8 = 0;
/// Payload tag of a shard segment.
const TAG_SHARD: u8 = 1;
/// Payload tag of a manifest.
const TAG_MANIFEST: u8 = 2;

/// A segment file as recorded by the manifest: name (relative to the
/// manifest's directory), total file length and FNV-1a checksum over the
/// whole file bytes (envelope included — detects header corruption that
/// the payload checksum cannot see).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File name relative to the manifest's directory.
    pub file: String,
    /// Whole-file length in bytes.
    pub len: u64,
    /// FNV-1a 64 over the whole file bytes.
    pub checksum: u64,
}

impl SegmentEntry {
    fn of(file: String, bytes: &[u8]) -> Self {
        SegmentEntry { file, len: bytes.len() as u64, checksum: fnv1a64(bytes) }
    }

    fn write(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.file);
        w.put_u64(self.len);
        w.put_u64(self.checksum);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(SegmentEntry { file: r.get_str()?, len: r.get_u64()?, checksum: r.get_u64()? })
    }
}

/// The per-epoch manifest: which segment files constitute this snapshot.
/// Shard entries are ordered by shard index; clean shards point at files
/// written by earlier epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Epoch this manifest snapshots.
    pub epoch: usize,
    /// The core segment (pre/post payload fragments).
    pub core: SegmentEntry,
    /// One entry per registry shard, in shard-index order.
    pub shards: Vec<SegmentEntry>,
}

impl SegmentManifest {
    /// Total bytes across every referenced segment file — the on-disk
    /// footprint of restoring from this manifest (not of writing it:
    /// clean shards referenced from older epochs cost nothing per tick).
    pub fn total_bytes(&self) -> u64 {
        self.core.len + self.shards.iter().map(|s| s.len).sum::<u64>()
    }
}

/// Canonical file name of the core segment for `epoch`.
pub fn core_segment_name(epoch: usize) -> String {
    format!("core-{epoch:06}.seg")
}

/// Canonical file name of shard `shard`'s segment for `epoch`.
pub fn shard_segment_name(shard: usize, epoch: usize) -> String {
    format!("shard-{shard:04}-{epoch:06}.seg")
}

/// Canonical file name of the manifest for `epoch`.
pub fn manifest_name(epoch: usize) -> String {
    format!("manifest-{epoch:06}.snap")
}

fn write_segment_obs(
    dir: &Path,
    name: String,
    bytes: &[u8],
    obs: &haccs_obs::Recorder,
) -> Result<SegmentEntry, PersistError> {
    write_atomic(&dir.join(&name), bytes)?;
    obs.inc("persist_segment_writes_total", 1);
    obs.observe_with("persist_segment_bytes", haccs_obs::metrics::SIZE_BYTES, bytes.len() as f64);
    Ok(SegmentEntry::of(name, bytes))
}

/// Writes the core segment for `epoch` into `dir`: the payload bytes
/// preceding the per-client entries (`pre`) and following them (`post`).
/// Returns the manifest entry describing the file.
pub fn write_core_segment(
    dir: &Path,
    epoch: usize,
    pre: &[u8],
    post: &[u8],
    obs: &haccs_obs::Recorder,
) -> Result<SegmentEntry, PersistError> {
    let mut w = SnapshotWriter::new();
    w.put_u8(TAG_CORE);
    w.put_bytes(pre);
    w.put_bytes(post);
    write_segment_obs(dir, core_segment_name(epoch), &w.finish(), obs)
}

/// Writes shard `shard`'s segment for `epoch` into `dir`. `entries` are
/// `(global client id, entry payload bytes)` pairs in ascending id order.
/// Returns the manifest entry describing the file.
pub fn write_shard_segment(
    dir: &Path,
    shard: usize,
    epoch: usize,
    entries: &[(usize, Vec<u8>)],
    obs: &haccs_obs::Recorder,
) -> Result<SegmentEntry, PersistError> {
    let mut w = SnapshotWriter::new();
    w.put_u8(TAG_SHARD);
    w.put_usize(shard);
    w.put_usize(entries.len());
    for (id, bytes) in entries {
        w.put_usize(*id);
        w.put_bytes(bytes);
    }
    write_segment_obs(dir, shard_segment_name(shard, epoch), &w.finish(), obs)
}

/// Writes the manifest into `dir`. Call this **after** every segment it
/// references exists on disk — the manifest is the commit point of a
/// segmented snapshot. Returns the manifest's path.
pub fn write_manifest(
    dir: &Path,
    manifest: &SegmentManifest,
    obs: &haccs_obs::Recorder,
) -> Result<PathBuf, PersistError> {
    let mut w = SnapshotWriter::new();
    w.put_u8(TAG_MANIFEST);
    w.put_usize(manifest.epoch);
    manifest.core.write(&mut w);
    w.put_usize(manifest.shards.len());
    for s in &manifest.shards {
        s.write(&mut w);
    }
    let bytes = w.finish();
    let path = dir.join(manifest_name(manifest.epoch));
    crate::write_atomic_obs(&path, &bytes, obs)?;
    Ok(path)
}

/// Reads and parses a manifest written by [`write_manifest`].
pub fn read_manifest(path: &Path) -> Result<SegmentManifest, PersistError> {
    let bytes = read_snapshot(path)?;
    let mut r = SnapshotReader::open(&bytes)?;
    let tag = r.get_u8()?;
    if tag != TAG_MANIFEST {
        return Err(PersistError::Malformed(format!("expected manifest tag, found {tag}")));
    }
    let epoch = r.get_usize()?;
    let core = SegmentEntry::read(&mut r)?;
    let n = r.get_usize()?;
    let shards = (0..n).map(|_| SegmentEntry::read(&mut r)).collect::<Result<Vec<_>, _>>()?;
    r.expect_end()?;
    Ok(SegmentManifest { epoch, core, shards })
}

/// Reads one segment file named by manifest `entry` (relative to `dir`),
/// validating the whole-file length and checksum the manifest recorded
/// before the envelope's own payload checksum.
fn read_segment(dir: &Path, entry: &SegmentEntry) -> Result<Vec<u8>, PersistError> {
    let bytes = read_snapshot(&dir.join(&entry.file))?;
    if bytes.len() as u64 != entry.len {
        return Err(PersistError::Malformed(format!(
            "segment {} is {} bytes, manifest recorded {}",
            entry.file,
            bytes.len(),
            entry.len
        )));
    }
    if fnv1a64(&bytes) != entry.checksum {
        return Err(PersistError::Malformed(format!(
            "segment {} does not match its manifest checksum",
            entry.file
        )));
    }
    Ok(bytes)
}

/// Reassembles the monolithic framed snapshot from a manifest written by
/// [`write_manifest`]: validates every segment, orders per-client entries
/// by global id (which must be dense `0..n`), and splices core-pre +
/// entries + core-post into one payload. The result is byte-identical to
/// the monolithic snapshot of the same state, so the ordinary restore
/// path consumes it unchanged.
pub fn reassemble(
    manifest_path: &Path,
    obs: &haccs_obs::Recorder,
) -> Result<Vec<u8>, PersistError> {
    let mut span = obs.span("persist.reassemble");
    span.push_s("path", || manifest_path.display().to_string());
    let out = reassemble_inner(manifest_path);
    span.push_u("bytes", out.as_ref().map(|b| b.len()).unwrap_or(0) as u64);
    span.push_u("ok", out.is_ok() as u64);
    span.finish();
    out
}

fn reassemble_inner(manifest_path: &Path) -> Result<Vec<u8>, PersistError> {
    let dir =
        manifest_path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let manifest = read_manifest(manifest_path)?;

    let core_bytes = read_segment(dir, &manifest.core)?;
    let mut r = SnapshotReader::open(&core_bytes)?;
    let tag = r.get_u8()?;
    if tag != TAG_CORE {
        return Err(PersistError::Malformed(format!("expected core segment tag, found {tag}")));
    }
    let pre = r.get_bytes()?.to_vec();
    let post = r.get_bytes()?.to_vec();
    r.expect_end()?;

    let mut entries: Vec<(usize, Vec<u8>)> = Vec::new();
    for (shard_idx, entry) in manifest.shards.iter().enumerate() {
        let bytes = read_segment(dir, entry)?;
        let mut r = SnapshotReader::open(&bytes)?;
        let tag = r.get_u8()?;
        if tag != TAG_SHARD {
            return Err(PersistError::Malformed(format!(
                "expected shard segment tag, found {tag}"
            )));
        }
        let recorded = r.get_usize()?;
        if recorded != shard_idx {
            return Err(PersistError::Malformed(format!(
                "segment {} claims shard {recorded}, manifest placed it at {shard_idx}",
                entry.file
            )));
        }
        let n = r.get_usize()?;
        if n as u64 > MAX_LEN {
            return Err(PersistError::LengthOutOfBounds(n as u64));
        }
        for _ in 0..n {
            let id = r.get_usize()?;
            let bytes = r.get_bytes()?.to_vec();
            entries.push((id, bytes));
        }
        r.expect_end()?;
    }

    entries.sort_by_key(|(id, _)| *id);
    for (expect, (id, _)) in entries.iter().enumerate() {
        if *id != expect {
            return Err(PersistError::Malformed(format!(
                "client ids across shard segments are not dense: expected {expect}, found {id}"
            )));
        }
    }

    let mut w = SnapshotWriter::new();
    w.append_raw(&pre);
    for (_, bytes) in &entries {
        w.append_raw(bytes);
    }
    w.append_raw(&post);
    Ok(w.finish())
}

/// What [`gc_segments`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Manifest files deleted.
    pub manifests_removed: usize,
    /// Core/shard segment files deleted.
    pub segments_removed: usize,
    /// Bytes reclaimed across all deleted files.
    pub bytes_reclaimed: u64,
}

/// Retention pass over a segmented-snapshot directory: keeps the newest
/// `keep` committed manifests plus **every segment file any kept manifest
/// references** (clean shards legitimately point at files from much older
/// epochs), and deletes the rest. Without this, a long run's directory
/// grows one core segment and one manifest per snapshot tick, unbounded.
///
/// Deletion order is manifest-last in reverse: old manifests go first, so
/// a crash mid-GC can orphan segment files (harmless, the next pass
/// sweeps them) but can never leave a manifest whose segments are gone.
/// Files not matching the canonical segment/manifest names are untouched.
pub fn gc_segments(
    dir: &Path,
    keep: usize,
    obs: &haccs_obs::Recorder,
) -> Result<GcStats, PersistError> {
    assert!(keep >= 1, "retention must keep at least the latest manifest");
    let mut manifest_epochs: Vec<usize> = Vec::new();
    let mut candidates: Vec<String> = Vec::new();
    let io = |e: std::io::Error| PersistError::Io(format!("{}: {e}", dir.display()));
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let name = match entry.map_err(io)?.file_name().into_string() {
            Ok(n) => n,
            Err(_) => continue,
        };
        if let Some(epoch) = parse_numbered(&name, "manifest-", ".snap") {
            manifest_epochs.push(epoch);
            candidates.push(name);
        } else if parse_numbered(&name, "core-", ".seg").is_some()
            || name.starts_with("shard-") && name.ends_with(".seg")
        {
            candidates.push(name);
        }
    }
    manifest_epochs.sort_unstable();
    let kept_epochs: Vec<usize> = manifest_epochs.iter().rev().take(keep).copied().collect();

    // the retained set: kept manifests + everything they reference
    let mut retained: std::collections::HashSet<String> = std::collections::HashSet::new();
    for &epoch in &kept_epochs {
        let manifest = read_manifest(&dir.join(manifest_name(epoch)))?;
        retained.insert(manifest_name(epoch));
        retained.insert(manifest.core.file.clone());
        for s in &manifest.shards {
            retained.insert(s.file.clone());
        }
    }

    // segments first, manifests last (and oldest manifests before newer)
    candidates.sort_by_key(|name| (name.starts_with("manifest-"), name.clone()));
    let mut stats = GcStats::default();
    for name in candidates {
        if retained.contains(&name) {
            continue;
        }
        let path = dir.join(&name);
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(&path)
            .map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))?;
        stats.bytes_reclaimed += len;
        if name.starts_with("manifest-") {
            stats.manifests_removed += 1;
        } else {
            stats.segments_removed += 1;
        }
    }
    obs.inc("persist_gc_passes_total", 1);
    obs.inc(
        "persist_gc_files_removed_total",
        (stats.manifests_removed + stats.segments_removed) as u64,
    );
    Ok(stats)
}

/// Parses `{prefix}{number}{suffix}` file names, e.g.
/// `manifest-000042.snap` → `Some(42)`.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> haccs_obs::Recorder {
        haccs_obs::Recorder::disabled()
    }

    /// Per snapshot shard, its `(id, entry bytes)` pairs.
    type ShardEntries = Vec<Vec<(usize, Vec<u8>)>>;

    /// A synthetic snapshot: `pre` + n per-client entries + `post`, with
    /// clients striped across shards by `id % n_shards`.
    fn synthetic(n: usize, n_shards: usize) -> (Vec<u8>, ShardEntries, Vec<u8>) {
        let mut w = SnapshotWriter::new();
        w.put_u64(0xFEED);
        w.put_usize(n);
        let pre = w.into_payload();
        let mut shards: ShardEntries = vec![Vec::new(); n_shards];
        for id in 0..n {
            let mut w = SnapshotWriter::new();
            w.put_usize(id);
            w.put_f32s(&[id as f32, f32::NAN]);
            shards[id % n_shards].push((id, w.into_payload()));
        }
        let mut w = SnapshotWriter::new();
        w.put_str("selector");
        (pre, shards, w.into_payload())
    }

    fn monolithic(pre: &[u8], shards: &[Vec<(usize, Vec<u8>)>], post: &[u8]) -> Vec<u8> {
        let mut all: Vec<(usize, Vec<u8>)> = shards.iter().flatten().cloned().collect();
        all.sort_by_key(|(id, _)| *id);
        let mut w = SnapshotWriter::new();
        w.append_raw(pre);
        for (_, bytes) in &all {
            w.append_raw(bytes);
        }
        w.append_raw(post);
        w.finish()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("haccs-segment-{tag}-{}", std::process::id()))
    }

    fn write_all(dir: &Path, epoch: usize, n: usize, n_shards: usize) -> (PathBuf, Vec<u8>) {
        let (pre, shards, post) = synthetic(n, n_shards);
        let core = write_core_segment(dir, epoch, &pre, &post, &obs()).unwrap();
        let shard_entries: Vec<SegmentEntry> = shards
            .iter()
            .enumerate()
            .map(|(s, e)| write_shard_segment(dir, s, epoch, e, &obs()).unwrap())
            .collect();
        let manifest = SegmentManifest { epoch, core, shards: shard_entries };
        let path = write_manifest(dir, &manifest, &obs()).unwrap();
        (path, monolithic(&pre, &shards, &post))
    }

    #[test]
    fn reassembly_is_byte_identical_to_monolithic() {
        let dir = temp_dir("roundtrip");
        let (manifest_path, expected) = write_all(&dir, 3, 17, 4);
        assert_eq!(reassemble(&manifest_path, &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shards_can_reference_older_epoch_files() {
        // epoch 1 writes everything; epoch 2 rewrites core + shard 1 only
        // and its manifest references epoch 1's files for shards 0 and 2
        let dir = temp_dir("incremental");
        let (pre, shards, post) = synthetic(9, 3);
        let core1 = write_core_segment(&dir, 1, &pre, &post, &obs()).unwrap();
        let old: Vec<SegmentEntry> = shards
            .iter()
            .enumerate()
            .map(|(s, e)| write_shard_segment(&dir, s, 1, e, &obs()).unwrap())
            .collect();
        write_manifest(
            &dir,
            &SegmentManifest { epoch: 1, core: core1, shards: old.clone() },
            &obs(),
        )
        .unwrap();

        // shard 1 dirtied: client 4's entry bytes change
        let mut shards2 = shards.clone();
        shards2[1][1].1 = {
            let mut w = SnapshotWriter::new();
            w.put_usize(4);
            w.put_f32s(&[-1.0, 2.0]);
            w.into_payload()
        };
        let core2 = write_core_segment(&dir, 2, &pre, &post, &obs()).unwrap();
        let dirty = write_shard_segment(&dir, 1, 2, &shards2[1], &obs()).unwrap();
        let manifest2 = SegmentManifest {
            epoch: 2,
            core: core2,
            shards: vec![old[0].clone(), dirty, old[2].clone()],
        };
        let path2 = write_manifest(&dir, &manifest2, &obs()).unwrap();

        assert_eq!(reassemble(&path2, &obs()).unwrap(), monolithic(&pre, &shards2, &post));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_a_single_segment_is_rejected() {
        let dir = temp_dir("corrupt");
        let (manifest_path, _) = write_all(&dir, 5, 12, 3);
        let victim = dir.join(shard_segment_name(1, 5));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("checksum")),
            "expected manifest-checksum rejection, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_is_io_error() {
        let dir = temp_dir("missing");
        let (manifest_path, _) = write_all(&dir, 7, 6, 2);
        std::fs::remove_file(dir.join(shard_segment_name(0, 7))).unwrap();
        assert!(matches!(reassemble(&manifest_path, &obs()).unwrap_err(), PersistError::Io(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_index_mismatch_is_rejected() {
        // swap two shard entries in the manifest: the segments' recorded
        // indices no longer match their manifest positions
        let dir = temp_dir("swap");
        let (manifest_path, _) = write_all(&dir, 9, 8, 2);
        let mut manifest = read_manifest(&manifest_path).unwrap();
        manifest.shards.swap(0, 1);
        let path = write_manifest(&dir, &manifest, &obs()).unwrap();
        let err = reassemble(&path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("shard")),
            "expected shard-index rejection, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_or_missing_ids_are_rejected() {
        // drop one shard from the manifest: ids are no longer dense
        let dir = temp_dir("sparse");
        let (manifest_path, _) = write_all(&dir, 11, 10, 5);
        let mut manifest = read_manifest(&manifest_path).unwrap();
        manifest.shards.truncate(4);
        let path = write_manifest(&dir, &manifest, &obs()).unwrap();
        let err = reassemble(&path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("dense")),
            "expected density rejection, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let manifest = SegmentManifest {
            epoch: 42,
            core: SegmentEntry { file: "core-000042.seg".into(), len: 10, checksum: 7 },
            shards: vec![
                SegmentEntry { file: "shard-0000-000042.seg".into(), len: 20, checksum: 8 },
                SegmentEntry { file: "shard-0001-000040.seg".into(), len: 30, checksum: 9 },
            ],
        };
        let path = write_manifest(&dir, &manifest, &obs()).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), manifest);
        assert_eq!(manifest.total_bytes(), 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shards_are_valid() {
        let dir = temp_dir("empty");
        let (manifest_path, expected) = write_all(&dir, 1, 2, 5); // shards 2..5 empty
        assert_eq!(reassemble(&manifest_path, &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn dir_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn gc_keeps_last_k_epochs_and_their_segments() {
        let dir = temp_dir("gc-basic");
        let mut expects = Vec::new();
        for epoch in 1..=5 {
            expects.push(write_all(&dir, epoch, 4, 2));
        }
        let stats = gc_segments(&dir, 2, &obs()).unwrap();
        // epochs 1..=3 dropped: 3 manifests + 3 × (core + 2 shards)
        assert_eq!(stats.manifests_removed, 3);
        assert_eq!(stats.segments_removed, 9);
        assert!(stats.bytes_reclaimed > 0);
        let names = dir_names(&dir);
        assert_eq!(
            names,
            vec![
                "core-000004.seg",
                "core-000005.seg",
                "manifest-000004.snap",
                "manifest-000005.snap",
                "shard-0000-000004.seg",
                "shard-0000-000005.seg",
                "shard-0001-000004.seg",
                "shard-0001-000005.seg",
            ]
        );
        // surviving snapshots still restore bit-identically
        for (manifest_path, expected) in &expects[3..] {
            assert_eq!(&reassemble(manifest_path, &obs()).unwrap(), expected);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_retains_old_segment_files_referenced_by_clean_shards() {
        let dir = temp_dir("gc-dirty");
        let (pre, shards, post) = synthetic(4, 2);
        // epoch 1: everything fresh
        let core1 = write_core_segment(&dir, 1, &pre, &post, &obs()).unwrap();
        let s0_e1 = write_shard_segment(&dir, 0, 1, &shards[0], &obs()).unwrap();
        let s1_e1 = write_shard_segment(&dir, 1, 1, &shards[1], &obs()).unwrap();
        let m1 = SegmentManifest { epoch: 1, core: core1, shards: vec![s0_e1, s1_e1.clone()] };
        write_manifest(&dir, &m1, &obs()).unwrap();
        // epoch 2: only shard 0 dirty — shard 1 re-references epoch 1's file
        let core2 = write_core_segment(&dir, 2, &pre, &post, &obs()).unwrap();
        let s0_e2 = write_shard_segment(&dir, 0, 2, &shards[0], &obs()).unwrap();
        let m2 = SegmentManifest { epoch: 2, core: core2, shards: vec![s0_e2, s1_e1] };
        let m2_path = write_manifest(&dir, &m2, &obs()).unwrap();

        let stats = gc_segments(&dir, 1, &obs()).unwrap();
        assert_eq!(stats.manifests_removed, 1);
        // core-000001 and shard-0000-000001 go; shard-0001-000001 survives
        // because the kept manifest still references it
        assert_eq!(stats.segments_removed, 2);
        assert_eq!(
            dir_names(&dir),
            vec![
                "core-000002.seg",
                "manifest-000002.snap",
                "shard-0000-000002.seg",
                "shard-0001-000001.seg",
            ]
        );
        assert_eq!(
            reassemble(&m2_path, &obs()).unwrap(),
            monolithic(&pre, &shards, &post),
            "retained snapshot must still reassemble after GC"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_is_a_noop_when_everything_is_retained() {
        let dir = temp_dir("gc-noop");
        write_all(&dir, 1, 3, 2);
        write_all(&dir, 2, 3, 2);
        let before = dir_names(&dir);
        let stats = gc_segments(&dir, 5, &obs()).unwrap();
        assert_eq!(stats, GcStats::default());
        assert_eq!(dir_names(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_foreign_files() {
        let dir = temp_dir("gc-foreign");
        write_all(&dir, 1, 3, 2);
        write_all(&dir, 2, 3, 2);
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        gc_segments(&dir, 1, &obs()).unwrap();
        assert!(dir.join("notes.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "retention must keep")]
    fn gc_rejects_zero_retention() {
        let dir = temp_dir("gc-zero");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = gc_segments(&dir, 0, &obs());
    }
}
