//! Segmented snapshots: per tick, one data file of shard blocks plus a
//! manifest.
//!
//! The monolithic coordinator snapshot rewrites every client's state each
//! tick, so its write cost grows linearly with federation size even when
//! only a handful of clients changed. This module stores one snapshot as
//!
//! * **shard blocks**: the per-client entries of one snapshot shard, in
//!   ascending id order. A tick writes the blocks of the shards dirtied
//!   since the previous tick into one **data file**,
//!   `shards-{epoch:06}.seg`;
//! * one **manifest**, `manifest-{epoch:06}.snap`. It carries the payload
//!   bytes *before* the per-client entries (`pre`: seed, RNG, global
//!   params, ...) and *after* them (`post`: selector state) inline, and
//!   records for every shard the data file, block index, block length
//!   and block FNV-1a checksum that hold its entries.
//!
//! Data files are epoch-suffixed and immutable once written; a clean
//! shard's manifest entry points at the block an earlier tick wrote. So a
//! tick writes at most two files however many shards are dirty, and only
//! the manifest when none is. The manifest is written **last** via
//! [`write_atomic`](crate::write_atomic): it is the commit point, and a
//! crash mid-tick leaves the previous manifest (and every block it names)
//! intact.
//!
//! ```text
//! data file: tag 3 | block*
//!   block    = bytes( shard | count | count × (id | bytes(entry)) )
//! manifest:  tag 4 | epoch | bytes(pre) | bytes(post) | n_shards
//!            | n_shards × (str(file) | block index | len u64 | fnv1a64 u64)
//! ```
//!
//! [`reassemble`] reads each referenced data file once and validates its
//! envelope, checks each block's length, checksum and recorded shard
//! index against the manifest and the ids for density, and splices
//! pre + entries (in global id order) + post back into one payload that is
//! **byte-identical** to the monolithic `Coordinator::snapshot` output —
//! restore code is shared, and the bit-identity guarantee of DESIGN.md
//! §10 carries over unchanged.
//!
//! Both files carry the envelope [`VERSION`](crate::VERSION), which
//! describes the monolithic payload they reassemble to; the payload tag
//! tells a data file from a manifest. A manifest of the earlier per-shard
//! layout (one core segment plus one file per shard) is refused with a
//! typed [`PersistError::Malformed`] rather than misparsed.
//!
//! [`SegmentWriter`] drives the ticks: it tracks dirty shards, compacts
//! sparse data files and, under retention, garbage-collects what no kept
//! manifest references.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::{
    fnv1a64, fnv1a64_extend, fnv1a64_pair, io_error, read_snapshot, PersistError, SnapshotReader,
    SnapshotWriter, StreamedSnapshot, HEADER_LEN,
};

/// Payload tag of a manifest in the per-shard layout data files replaced.
const OLD_LAYOUT_MANIFEST_TAG: u8 = 2;
/// Payload tag of a data file.
const TAG_DATA: u8 = 3;
/// Payload tag of a manifest.
const TAG_MANIFEST: u8 = 4;

/// Where one shard's entries live: a block of a data file, with the
/// block's length and FNV-1a checksum as the manifest recorded them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRef {
    /// Data file name, relative to the manifest's directory.
    pub file: String,
    /// Index of the block within the data file.
    pub block: usize,
    /// Block length in bytes.
    pub len: u64,
    /// FNV-1a 64 over the block bytes.
    pub checksum: u64,
}

impl BlockRef {
    fn write(&self, w: &mut SnapshotWriter) {
        w.put_str(&self.file);
        w.put_usize(self.block);
        w.put_u64(self.len);
        w.put_u64(self.checksum);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(BlockRef {
            file: r.get_str()?,
            block: r.get_usize()?,
            len: r.get_u64()?,
            checksum: r.get_u64()?,
        })
    }
}

/// The per-epoch manifest: the core payload fragments plus the block that
/// holds each shard's entries. Clean shards point at blocks of data files
/// written by earlier epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Epoch this manifest snapshots.
    pub epoch: usize,
    /// Payload bytes before the per-client entries.
    pub pre: Vec<u8>,
    /// Payload bytes after the per-client entries.
    pub post: Vec<u8>,
    /// One block per snapshot shard, in shard-index order.
    pub shards: Vec<BlockRef>,
}

/// Canonical file name of the data file written at `epoch`.
pub fn data_file_name(epoch: usize) -> String {
    format!("shards-{epoch:06}.seg")
}

/// Canonical file name of the manifest for `epoch`.
pub fn manifest_name(epoch: usize) -> String {
    format!("manifest-{epoch:06}.snap")
}

/// Appends one shard block's entries, each encoded in place by the
/// caller; [`SegmentWriter::tick`] hands it to the caller's encoder
/// between the block's header and its end.
#[derive(Debug)]
pub struct BlockWriter<'a> {
    w: &'a mut SnapshotWriter,
    entries: u64,
}

impl BlockWriter<'_> {
    /// Appends client `id`'s entry to the block; `write` encodes the entry
    /// bytes, which are framed with their length.
    pub fn put_entry(&mut self, id: usize, write: impl FnOnce(&mut SnapshotWriter)) {
        self.w.put_usize(id);
        self.w.put_bytes_with(write);
        self.entries += 1;
    }
}

/// Encoded block bytes a data file holds in memory before writing them
/// out: a tick that rewrites every shard of a large federation streams
/// its data file instead of building it whole.
const FLUSH_BYTES: usize = 1 << 20;

/// Writes the data file `path`: a block for every shard `rewrite` marks,
/// which `encode` fills, encoded into `w`, which is written out whenever
/// it holds [`FLUSH_BYTES`] and at the end. Returns the file's length and
/// each block's length and FNV-1a, in file order; a block's checksum and
/// the envelope's come from one pass over its bytes.
fn write_data_file(
    path: &Path,
    w: &mut SnapshotWriter,
    rewrite: &[bool],
    mut encode: impl FnMut(usize, &mut BlockWriter<'_>),
    obs: &haccs_obs::Recorder,
) -> Result<(u64, Vec<(u64, u64)>), PersistError> {
    let mut file = StreamedSnapshot::create(path)?;
    let mut span = obs.span("persist.encode");
    w.put_u8(TAG_DATA);
    let (mut payload_sum, mut hashed, mut flushed) = (fnv1a64(&[]), 0, 0);
    let mut blocks = Vec::new();
    for shard in (0..rewrite.len()).filter(|&s| rewrite[s]) {
        let start = w.len() + 8;
        w.put_bytes_with(|w| {
            w.put_usize(shard);
            let count_at = w.reserve_u64();
            let mut block = BlockWriter { w, entries: 0 };
            encode(shard, &mut block);
            block.w.patch_u64(count_at, block.entries);
        });
        let payload = w.payload();
        let prefix = fnv1a64_extend(payload_sum, &payload[hashed..start]);
        let (sum, checksum) = fnv1a64_pair(prefix, &payload[start..]);
        blocks.push(((payload.len() - start) as u64, checksum));
        (payload_sum, hashed) = (sum, payload.len());
        if w.len() >= FLUSH_BYTES {
            file.append(w.payload())?;
            flushed += w.len();
            w.clear();
            hashed = 0;
        }
    }
    payload_sum = fnv1a64_extend(payload_sum, &w.payload()[hashed..]);
    span.push_u("blocks", blocks.len() as u64);
    span.push_u("bytes", (flushed + w.len()) as u64);
    span.finish();
    Ok((file.commit(w.payload(), payload_sum, obs)?, blocks))
}

/// Encodes a manifest's payload into `w`; `pre` and `post` write the core
/// fragments in place.
fn encode_manifest(
    w: &mut SnapshotWriter,
    epoch: usize,
    pre: impl FnOnce(&mut SnapshotWriter),
    post: impl FnOnce(&mut SnapshotWriter),
    shards: &[BlockRef],
) {
    w.put_u8(TAG_MANIFEST);
    w.put_usize(epoch);
    w.put_bytes_with(pre);
    w.put_bytes_with(post);
    w.put_usize(shards.len());
    for b in shards {
        b.write(w);
    }
}

/// Writes the manifest into `dir` and returns the bytes written. Call this
/// **after** every data file it references exists on disk — the manifest
/// is the commit point of a segmented snapshot.
pub fn write_manifest(
    dir: &Path,
    manifest: &SegmentManifest,
    obs: &haccs_obs::Recorder,
) -> Result<u64, PersistError> {
    let mut w = SnapshotWriter::new();
    encode_manifest(
        &mut w,
        manifest.epoch,
        |w| w.append_raw(&manifest.pre),
        |w| w.append_raw(&manifest.post),
        &manifest.shards,
    );
    w.write_framed(&dir.join(manifest_name(manifest.epoch)), obs)
}

/// Reads and parses a manifest written by [`write_manifest`]. A manifest
/// of the earlier per-shard layout is refused as [`PersistError::Malformed`].
pub fn read_manifest(path: &Path) -> Result<SegmentManifest, PersistError> {
    let bytes = read_snapshot(path)?;
    let mut r = SnapshotReader::open(&bytes)?;
    match r.get_u8()? {
        TAG_MANIFEST => {}
        OLD_LAYOUT_MANIFEST_TAG => {
            return Err(PersistError::Malformed(format!(
                "{} is a manifest of the old per-shard segment layout (core-*.seg plus one \
                 shard-*.seg per shard), which this build no longer reads; resume it once \
                 under an older build and write a fresh snapshot, or restart the run from \
                 its seed",
                path.display()
            )))
        }
        tag => {
            return Err(PersistError::Malformed(format!(
                "{}: expected manifest tag {TAG_MANIFEST}, found {tag}",
                path.display()
            )))
        }
    }
    let epoch = r.get_usize()?;
    let pre = r.get_bytes()?.to_vec();
    let post = r.get_bytes()?.to_vec();
    let n = r.get_usize()?;
    let shards = (0..n).map(|_| BlockRef::read(&mut r)).collect::<Result<Vec<_>, _>>()?;
    r.expect_end()?;
    Ok(SegmentManifest { epoch, pre, post, shards })
}

/// A data file read back with its envelope validated: the file bytes and
/// the byte range of every block, in file order.
#[derive(Debug)]
pub struct DataFile {
    bytes: Vec<u8>,
    blocks: Vec<Range<usize>>,
}

impl DataFile {
    /// Number of blocks the file holds.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block `i`'s bytes, `None` past the last block.
    pub fn block(&self, i: usize) -> Option<&[u8]> {
        self.blocks.get(i).map(|r| &self.bytes[r.clone()])
    }
}

/// Reads a data file and validates its envelope and block framing. Every
/// failure past reading the file is a [`PersistError::Malformed`] that
/// names the file.
pub fn read_data_file(path: &Path) -> Result<DataFile, PersistError> {
    let bytes = read_snapshot(path)?;
    let bad =
        |e: PersistError| PersistError::Malformed(format!("data file {}: {e}", path.display()));
    let mut r = SnapshotReader::open(&bytes).map_err(bad)?;
    let tag = r.get_u8().map_err(bad)?;
    if tag != TAG_DATA {
        return Err(bad(PersistError::Malformed(format!(
            "expected data-file tag {TAG_DATA}, found {tag}"
        ))));
    }
    let mut blocks = Vec::new();
    while r.remaining() > 0 {
        let len = r.get_bytes().map_err(bad)?.len();
        let end = HEADER_LEN + r.consumed();
        blocks.push(end - len..end);
    }
    Ok(DataFile { bytes, blocks })
}

/// Reassembles the monolithic framed snapshot from a manifest written by
/// [`write_manifest`]: validates every referenced block, orders per-client
/// entries by global id (which must be dense `0..n`), and splices
/// pre + entries + post into one payload. The result is byte-identical to
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

    let mut files: HashMap<&str, DataFile> = HashMap::new();
    for b in &manifest.shards {
        if !files.contains_key(b.file.as_str()) {
            files.insert(&b.file, read_data_file(&dir.join(&b.file))?);
        }
    }

    let mut entries: Vec<(usize, &[u8])> = Vec::new();
    for (shard, b) in manifest.shards.iter().enumerate() {
        let file = &files[b.file.as_str()];
        let block = file.block(b.block).ok_or_else(|| {
            PersistError::Malformed(format!(
                "manifest places shard {shard} in block {} of {}, which holds {} blocks",
                b.block,
                b.file,
                file.block_count()
            ))
        })?;
        if block.len() as u64 != b.len {
            return Err(PersistError::Malformed(format!(
                "block {} of {} is {} bytes, manifest recorded {}",
                b.block,
                b.file,
                block.len(),
                b.len
            )));
        }
        if fnv1a64(block) != b.checksum {
            return Err(PersistError::Malformed(format!(
                "block {} of {} does not match its manifest checksum",
                b.block, b.file
            )));
        }
        let mut r = SnapshotReader::fragment(block);
        let recorded = r.get_usize()?;
        if recorded != shard {
            return Err(PersistError::Malformed(format!(
                "block {} of {} holds shard {recorded}, manifest placed it at {shard}",
                b.block, b.file
            )));
        }
        let n = r.get_usize()?;
        for _ in 0..n {
            let id = r.get_usize()?;
            entries.push((id, r.get_bytes()?));
        }
        r.expect_end()?;
    }

    // n entries fill the n slots 0..n exactly once iff the ids are dense
    let mut by_id: Vec<Option<&[u8]>> = vec![None; entries.len()];
    for (id, bytes) in entries {
        match by_id.get_mut(id) {
            Some(slot @ None) => *slot = Some(bytes),
            _ => {
                return Err(PersistError::Malformed(format!(
                    "client ids across shard blocks are not dense: id {id} is repeated or \
                     beyond the {} entries",
                    by_id.len()
                )))
            }
        }
    }

    let mut w = SnapshotWriter::new();
    w.append_raw(&manifest.pre);
    for bytes in by_id.into_iter().flatten() {
        w.append_raw(bytes);
    }
    w.append_raw(&manifest.post);
    Ok(w.finish())
}

/// What one [`SegmentWriter::tick`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Bytes written: the data file, if any, plus the manifest.
    pub bytes: u64,
    /// Files written: the manifest, plus the data file when a block was
    /// rewritten.
    pub files: usize,
    /// Blocks rewritten because their shard was dirty (every shard on the
    /// first tick).
    pub dirty: usize,
    /// Clean blocks rewritten to empty a sparse data file (retention only).
    pub compacted: usize,
    /// What the retention sweep removed (nothing without retention).
    pub gc: GcStats,
}

/// The writing side of a segmented-snapshot directory: which shards are
/// dirty, which block holds each shard's entries, and, under retention,
/// which data files each manifest this writer committed references.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    /// `dirty[s]`: shard `s`'s entries may differ from its newest block.
    dirty: Vec<bool>,
    /// The newest committed manifest's block per shard; empty before the
    /// first commit, whose tick therefore writes every shard.
    blocks: Vec<BlockRef>,
    /// How many blocks each data file that `blocks` references holds.
    file_blocks: HashMap<String, usize>,
    retention: Option<Retention>,
    /// The buffer every tick encodes its data file and manifest into.
    scratch: Vec<u8>,
}

impl SegmentWriter {
    /// A writer for `n_shards` snapshot shards into `dir`, every shard
    /// dirty.
    pub fn new(dir: impl Into<PathBuf>, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "segmented snapshots need at least one shard");
        SegmentWriter {
            dir: dir.into(),
            dirty: vec![true; n_shards],
            blocks: Vec::new(),
            file_blocks: HashMap::new(),
            retention: None,
            scratch: Vec::new(),
        }
    }

    /// Bounds the directory (builder style): after each committed tick,
    /// only the newest `keep` manifests and the data files they reference
    /// stay on disk (see [`gc_segments`]). Retention also turns on
    /// compaction: a tick rewrites the live blocks of any data file the
    /// new manifest references once fewer than a quarter of that file's
    /// blocks are still live, so the kept files stay mostly live.
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retention = Some(Retention::new(keep));
        self
    }

    /// Number of snapshot shards.
    pub fn n_shards(&self) -> usize {
        self.dirty.len()
    }

    /// Marks `shard` dirty: the next tick rewrites its block.
    pub fn mark_dirty(&mut self, shard: usize) {
        self.dirty[shard] = true;
    }

    /// Writes one tick for `epoch`: a data file holding a block for every
    /// shard to rewrite (skipped when there is none), then the manifest,
    /// then, under retention, the GC sweep. `encode(shard, block)` puts
    /// shard `shard`'s entries, ascending by id, into its block; `pre` and
    /// `post` write the payload fragments before and after the entries
    /// into the manifest. Everything is encoded in place into one buffer
    /// that the writer keeps from tick to tick.
    ///
    /// On an error before the manifest is committed the writer keeps its
    /// previous blocks and every dirty flag, so the next tick that
    /// succeeds rewrites whatever this one missed.
    pub fn tick(
        &mut self,
        epoch: usize,
        pre: impl FnOnce(&mut SnapshotWriter),
        post: impl FnOnce(&mut SnapshotWriter),
        encode: impl FnMut(usize, &mut BlockWriter<'_>),
        obs: &haccs_obs::Recorder,
    ) -> Result<TickStats, PersistError> {
        let (rewrite, compacted) = self.plan();
        let dirty = self.dirty.iter().filter(|&&d| d).count();
        let rewritten = dirty + compacted;
        let mut stats = TickStats { dirty, compacted, ..TickStats::default() };
        let mut w = SnapshotWriter::reuse(std::mem::take(&mut self.scratch));

        let data_file = data_file_name(epoch);
        let mut fresh = Vec::new();
        if rewritten > 0 {
            let path = self.dir.join(&data_file);
            let (bytes, blocks) = write_data_file(&path, &mut w, &rewrite, encode, obs)?;
            stats.bytes += bytes;
            stats.files += 1;
            fresh = blocks;
            w.clear();
        }
        let mut fresh = fresh.into_iter().enumerate().map(|(block, (len, checksum))| BlockRef {
            file: data_file.clone(),
            block,
            len,
            checksum,
        });
        let shards = rewrite
            .iter()
            .enumerate()
            .map(|(s, &r)| if r { fresh.next() } else { self.blocks.get(s).cloned() })
            .collect::<Option<Vec<_>>>()
            .expect("every shard has a block");

        let mut span = obs.span("persist.encode").u("blocks", 0);
        encode_manifest(&mut w, epoch, pre, post, &shards);
        span.push_u("bytes", w.len() as u64);
        span.finish();
        stats.bytes += w.write_framed(&self.dir.join(manifest_name(epoch)), obs)?;
        stats.files += 1;
        self.scratch = w.into_payload();

        // committed: adopt the new blocks and forget unreferenced files
        if rewritten > 0 {
            self.file_blocks.insert(data_file, rewritten);
        }
        self.blocks = shards;
        self.dirty.fill(false);
        let live: HashSet<&str> = self.blocks.iter().map(|b| b.file.as_str()).collect();
        self.file_blocks.retain(|f, _| live.contains(f.as_str()));
        if let Some(retention) = &mut self.retention {
            retention.written.insert(epoch, self.file_blocks.keys().cloned().collect());
            stats.gc = retention.sweep(&self.dir, obs)?;
        }
        Ok(stats)
    }

    /// The shards the next tick rewrites, and how many of them only
    /// compaction moves: every dirty shard, plus (under retention) every
    /// clean shard whose data file would keep fewer than a quarter of its
    /// blocks live once the dirty shards move out.
    fn plan(&self) -> (Vec<bool>, usize) {
        let mut rewrite = self.dirty.clone();
        if self.retention.is_none() {
            return (rewrite, 0);
        }
        let mut live: HashMap<&str, usize> = HashMap::new();
        for (b, _) in self.blocks.iter().zip(&rewrite).filter(|(_, &r)| !r) {
            *live.entry(b.file.as_str()).or_default() += 1;
        }
        let mut compacted = 0;
        for (b, r) in self.blocks.iter().zip(rewrite.iter_mut()) {
            if !*r && live[b.file.as_str()] * 4 < self.file_blocks[&b.file] {
                *r = true;
                compacted += 1;
            }
        }
        (rewrite, compacted)
    }
}

/// What a retention sweep removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Manifest files deleted.
    pub manifests_removed: usize,
    /// Data files deleted.
    pub segments_removed: usize,
    /// Bytes reclaimed across all deleted files.
    pub bytes_reclaimed: u64,
}

/// Retention state: how many manifests to keep, and the data files each
/// manifest this writer committed references, so a sweep reads a
/// manifest from disk only when another writer wrote it (for example the
/// run a restore resumed).
#[derive(Debug)]
struct Retention {
    keep: usize,
    written: BTreeMap<usize, Vec<String>>,
}

impl Retention {
    fn new(keep: usize) -> Self {
        assert!(keep >= 1, "retention must keep at least the latest manifest");
        Retention { keep, written: BTreeMap::new() }
    }

    fn sweep(&mut self, dir: &Path, obs: &haccs_obs::Recorder) -> Result<GcStats, PersistError> {
        let mut span = obs.span("persist.gc");
        let out = self.sweep_inner(dir);
        let removed = out.as_ref().map_or(0, |s| s.manifests_removed + s.segments_removed);
        span.push_u("files_removed", removed as u64);
        span.finish();
        obs.inc("persist_gc_passes_total", 1);
        obs.inc("persist_gc_files_removed_total", removed as u64);
        out
    }

    fn sweep_inner(&mut self, dir: &Path) -> Result<GcStats, PersistError> {
        let io = |e| io_error(dir, e);
        let mut manifests: Vec<(usize, String)> = Vec::new();
        let mut data: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let name = match entry.map_err(io)?.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if let Some(epoch) = parse_numbered(&name, "manifest-", ".snap") {
                manifests.push((epoch, name));
            } else if parse_numbered(&name, "shards-", ".seg").is_some() {
                data.push(name);
            }
        }
        manifests.sort_unstable();
        let (stale, kept) = manifests.split_at(manifests.len().saturating_sub(self.keep));

        // the retained set: everything a kept manifest references
        let mut retained: HashSet<String> = HashSet::new();
        for (epoch, name) in kept {
            match self.written.get(epoch) {
                Some(files) => retained.extend(files.iter().cloned()),
                None => {
                    let manifest = read_manifest(&dir.join(name))?;
                    retained.extend(manifest.shards.into_iter().map(|b| b.file));
                }
            }
        }
        self.written.retain(|epoch, _| kept.iter().any(|(k, _)| k == epoch));

        // manifests first, oldest first: a crash mid-sweep can orphan data
        // files (the next sweep removes them) but never leaves a manifest
        // whose blocks are gone
        let mut stats = GcStats::default();
        let remove = |name: &str, stats: &mut GcStats| -> Result<(), PersistError> {
            let path = dir.join(name);
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            std::fs::remove_file(&path).map_err(|e| io_error(&path, e))?;
            stats.bytes_reclaimed += len;
            Ok(())
        };
        for (_, name) in stale {
            remove(name, &mut stats)?;
            stats.manifests_removed += 1;
        }
        data.sort_unstable();
        for name in data.iter().filter(|name| !retained.contains(*name)) {
            remove(name, &mut stats)?;
            stats.segments_removed += 1;
        }
        Ok(stats)
    }
}

/// Retention pass over a segmented-snapshot directory: keeps the newest
/// `keep` manifests plus **every data file a kept manifest references**
/// (clean shards legitimately point at files from much older epochs), and
/// deletes the other manifests and data files. Files not matching the
/// canonical data-file/manifest names are untouched. A crash mid-tick can
/// leave a data file no manifest references; the next pass removes it.
/// [`SegmentWriter::with_retention`] runs the same sweep after every tick,
/// without re-reading the manifests it wrote itself.
pub fn gc_segments(
    dir: &Path,
    keep: usize,
    obs: &haccs_obs::Recorder,
) -> Result<GcStats, PersistError> {
    Retention::new(keep).sweep(dir, obs)
}

/// Parses `{prefix}{number}{suffix}` file names, e.g.
/// `manifest-000042.snap` → `Some(42)`.
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            shards[id % n_shards].push((id, entry(id, id as f32)));
        }
        let mut w = SnapshotWriter::new();
        w.put_str("selector");
        (pre, shards, w.into_payload())
    }

    fn entry(id: usize, x: f32) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(id);
        w.put_f32s(&[x, f32::NAN]);
        w.into_payload()
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
        let dir = std::env::temp_dir().join(format!("haccs-segment-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One tick of `writer` over `shards`' entries.
    fn tick(
        writer: &mut SegmentWriter,
        epoch: usize,
        (pre, shards, post): &(Vec<u8>, ShardEntries, Vec<u8>),
    ) -> Result<TickStats, PersistError> {
        writer.tick(
            epoch,
            |w| w.append_raw(pre),
            |w| w.append_raw(post),
            |s, blocks| {
                for (id, bytes) in &shards[s] {
                    blocks.put_entry(*id, |w| w.append_raw(bytes));
                }
            },
            &obs(),
        )
    }

    /// A fresh writer's first tick: every shard, one data file.
    fn write_all(dir: &Path, epoch: usize, n: usize, n_shards: usize) -> (PathBuf, Vec<u8>) {
        let state = synthetic(n, n_shards);
        tick(&mut SegmentWriter::new(dir, n_shards), epoch, &state).unwrap();
        (dir.join(manifest_name(epoch)), monolithic(&state.0, &state.1, &state.2))
    }

    fn rewrite_manifest(path: &Path, edit: impl FnOnce(&mut SegmentManifest)) {
        let mut manifest = read_manifest(path).unwrap();
        edit(&mut manifest);
        write_manifest(path.parent().unwrap(), &manifest, &obs()).unwrap();
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
        // epoch 1 writes everything; epoch 2 rewrites shard 1 only and its
        // manifest references epoch 1's data file for shards 0 and 2
        let dir = temp_dir("incremental");
        let mut state = synthetic(9, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        let first = tick(&mut writer, 1, &state).unwrap();
        assert_eq!((first.files, first.dirty), (2, 3));

        // shard 1 dirtied: client 4's entry bytes change
        state.1[1][1].1 = entry(4, -1.0);
        writer.mark_dirty(1);
        let second = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((second.files, second.dirty, second.compacted), (2, 1, 0));

        let path2 = dir.join(manifest_name(2));
        let files: Vec<String> =
            read_manifest(&path2).unwrap().shards.into_iter().map(|b| b.file).collect();
        assert_eq!(files, [data_file_name(1), data_file_name(2), data_file_name(1)]);
        assert_eq!(reassemble(&path2, &obs()).unwrap(), monolithic(&state.0, &state.1, &state.2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tick_with_no_dirty_shard_writes_only_the_manifest() {
        let dir = temp_dir("clean-tick");
        let state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();
        let stats = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((stats.files, stats.dirty), (1, 0));
        assert!(!dir.join(data_file_name(2)).exists());
        let expected = monolithic(&state.0, &state.1, &state.2);
        assert_eq!(reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupting_a_single_segment_is_rejected() {
        let dir = temp_dir("corrupt");
        let (manifest_path, _) = write_all(&dir, 5, 12, 3);
        let victim = dir.join(data_file_name(5));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m)
                if m.contains("checksum") && m.contains(&data_file_name(5))),
            "expected a checksum rejection naming the data file, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_is_io_error() {
        let dir = temp_dir("missing");
        let (manifest_path, _) = write_all(&dir, 7, 6, 2);
        std::fs::remove_file(dir.join(data_file_name(7))).unwrap();
        assert!(matches!(reassemble(&manifest_path, &obs()).unwrap_err(), PersistError::Io(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_index_mismatch_is_rejected() {
        // swap two shard entries in the manifest: the blocks' recorded
        // indices no longer match their manifest positions
        let dir = temp_dir("swap");
        let (manifest_path, _) = write_all(&dir, 9, 8, 2);
        rewrite_manifest(&manifest_path, |m| m.shards.swap(0, 1));
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("shard")),
            "expected shard-index rejection, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_entry_naming_a_missing_block_or_another_shard_is_rejected() {
        let dir = temp_dir("bad-ref");
        let (manifest_path, _) = write_all(&dir, 4, 8, 4);
        rewrite_manifest(&manifest_path, |m| m.shards[2].block = 4);
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("holds 4 blocks")),
            "expected a missing-block rejection, got {err:?}"
        );

        let (manifest_path, _) = write_all(&dir, 4, 8, 4);
        rewrite_manifest(&manifest_path, |m| m.shards[2] = m.shards[3].clone());
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("holds shard 3")),
            "expected a wrong-shard rejection, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_or_missing_ids_are_rejected() {
        // drop one shard from the manifest: ids are no longer dense
        let dir = temp_dir("sparse");
        let (manifest_path, _) = write_all(&dir, 11, 10, 5);
        rewrite_manifest(&manifest_path, |m| m.shards.truncate(4));
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("dense")),
            "expected density rejection, got {err:?}"
        );

        // a block that repeats another shard's id: not dense either
        let (pre, shards, post) = synthetic(4, 2);
        let mut writer = SegmentWriter::new(&dir, 2);
        writer
            .tick(
                12,
                |w| w.append_raw(&pre),
                |w| w.append_raw(&post),
                |s, blocks| {
                    for (id, bytes) in &shards[s] {
                        blocks.put_entry(*id % 3, |w| w.append_raw(bytes));
                    }
                },
                &obs(),
            )
            .unwrap();
        let err = reassemble(&dir.join(manifest_name(12)), &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("dense")),
            "expected density rejection of a repeated id, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = temp_dir("manifest");
        let manifest = SegmentManifest {
            epoch: 42,
            pre: vec![1, 2, 3],
            post: b"selector".to_vec(),
            shards: vec![
                BlockRef { file: data_file_name(42), block: 0, len: 20, checksum: 8 },
                BlockRef { file: data_file_name(40), block: 3, len: 30, checksum: 9 },
            ],
        };
        let written = write_manifest(&dir, &manifest, &obs()).unwrap();
        let path = dir.join(manifest_name(42));
        assert_eq!(read_manifest(&path).unwrap(), manifest);
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_layout_manifest_is_refused_by_name() {
        // the per-shard layout's manifest: tag 2, epoch, a core segment
        // entry and one entry per shard file
        let dir = temp_dir("old-layout");
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SnapshotWriter::new();
        w.put_u8(OLD_LAYOUT_MANIFEST_TAG);
        w.put_usize(1);
        for file in ["core-000001.seg", "shard-0000-000001.seg"] {
            w.put_str(file);
            w.put_u64(10);
            w.put_u64(7);
        }
        let path = dir.join(manifest_name(1));
        std::fs::write(&path, w.finish()).unwrap();
        for err in [read_manifest(&path).unwrap_err(), reassemble(&path, &obs()).unwrap_err()] {
            assert!(
                matches!(&err, PersistError::Malformed(m) if m.contains("old per-shard")),
                "expected the old layout to be named, got {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_data_file_past_the_flush_threshold_streams_byte_identically() {
        // 3 MB of entries: the data file goes out in several flushes
        let dir = temp_dir("streamed");
        let (pre, mut shards, post) = synthetic(6, 4);
        for (id, bytes) in shards.iter_mut().flatten() {
            let mut w = SnapshotWriter::new();
            w.put_f32s(&vec![*id as f32; 128 * 1024]);
            *bytes = w.into_payload();
        }
        let state = (pre, shards, post);
        let stats = tick(&mut SegmentWriter::new(&dir, 4), 1, &state).unwrap();
        assert!(stats.bytes > 3 * FLUSH_BYTES as u64);
        let expected = monolithic(&state.0, &state.1, &state.2);
        assert_eq!(reassemble(&dir.join(manifest_name(1)), &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shards_are_valid() {
        let dir = temp_dir("empty");
        let (manifest_path, expected) = write_all(&dir, 1, 2, 5); // shards 2..5 empty
        assert_eq!(reassemble(&manifest_path, &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_tick_keeps_its_dirty_shards_for_the_next() {
        let dir = temp_dir("failed-tick");
        let mut state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();

        // a regular file where the directory should be fails the tick
        let aside = dir.with_extension("aside");
        std::fs::rename(&dir, &aside).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        state.1[2][0].1 = entry(2, 9.0);
        writer.mark_dirty(2);
        assert!(matches!(tick(&mut writer, 2, &state), Err(PersistError::Io(_))));
        std::fs::remove_file(&dir).unwrap();
        std::fs::rename(&aside, &dir).unwrap();

        let stats = tick(&mut writer, 3, &state).unwrap();
        assert_eq!(stats.dirty, 1, "the failed tick's dirty shard must be rewritten");
        let expected = monolithic(&state.0, &state.1, &state.2);
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_compacts_a_data_file_under_a_quarter_live() {
        // 8 shards; tick 2 dirties 7 of them, leaving shard 7 the only
        // live block of the first data file: 1 of 8 is under a quarter,
        // so shard 7 moves along and the first file can go
        let dir = temp_dir("compact");
        let state = synthetic(16, 8);
        let mut writer = SegmentWriter::new(&dir, 8).with_retention(1);
        tick(&mut writer, 1, &state).unwrap();
        (0..7).for_each(|s| writer.mark_dirty(s));
        let stats = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((stats.dirty, stats.compacted, stats.files), (7, 1, 2));
        assert_eq!(stats.gc.segments_removed, 1);
        assert_eq!(dir_names(&dir), [manifest_name(2), data_file_name(2)]);

        // 2 of 8 live is exactly a quarter: no compaction
        (0..6).for_each(|s| writer.mark_dirty(s));
        let stats = tick(&mut writer, 3, &state).unwrap();
        assert_eq!((stats.dirty, stats.compacted), (6, 0));
        let expected = monolithic(&state.0, &state.1, &state.2);
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), expected);

        // without retention nothing is deleted, so nothing is compacted
        let dir2 = temp_dir("no-compact");
        let mut writer = SegmentWriter::new(&dir2, 8);
        tick(&mut writer, 1, &state).unwrap();
        (0..7).for_each(|s| writer.mark_dirty(s));
        assert_eq!(tick(&mut writer, 2, &state).unwrap().compacted, 0);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn an_orphan_data_file_keeps_the_previous_manifest_and_is_collected() {
        // a crash between the data file and the manifest: here a directory
        // squatting on the manifest's name makes the commit fail
        let dir = temp_dir("orphan");
        let mut state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();
        writer.mark_dirty(0);
        tick(&mut writer, 2, &state).unwrap();
        let expected = monolithic(&state.0, &state.1, &state.2);

        std::fs::create_dir_all(dir.join(manifest_name(3)).join("squatter")).unwrap();
        state.1[0][0].1 = entry(0, 5.0);
        writer.mark_dirty(0);
        assert!(tick(&mut writer, 3, &state).is_err());
        std::fs::remove_dir_all(dir.join(manifest_name(3))).unwrap();
        assert!(dir.join(data_file_name(3)).exists(), "the orphan data file stays behind");
        assert_eq!(reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(), expected);

        let stats = gc_segments(&dir, 2, &obs()).unwrap();
        assert_eq!((stats.manifests_removed, stats.segments_removed), (0, 1));
        assert!(!dir.join(data_file_name(3)).exists(), "the sweep removes the orphan");
        assert_eq!(reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(), expected);
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
        // epochs 1..=3 dropped: 3 manifests + 3 data files
        assert_eq!(stats.manifests_removed, 3);
        assert_eq!(stats.segments_removed, 3);
        assert!(stats.bytes_reclaimed > 0);
        assert_eq!(
            dir_names(&dir),
            [
                "manifest-000004.snap",
                "manifest-000005.snap",
                "shards-000004.seg",
                "shards-000005.seg",
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
        let state = synthetic(4, 2);
        // epoch 1: everything fresh; epoch 2: only shard 0 dirty, so
        // shard 1 still references epoch 1's data file
        let mut writer = SegmentWriter::new(&dir, 2);
        tick(&mut writer, 1, &state).unwrap();
        writer.mark_dirty(0);
        tick(&mut writer, 2, &state).unwrap();

        let stats = gc_segments(&dir, 1, &obs()).unwrap();
        assert_eq!(stats.manifests_removed, 1);
        // shards-000001 survives: the kept manifest still references it
        assert_eq!(stats.segments_removed, 0);
        assert_eq!(
            dir_names(&dir),
            ["manifest-000002.snap", "shards-000001.seg", "shards-000002.seg"]
        );
        assert_eq!(
            reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(),
            monolithic(&state.0, &state.1, &state.2),
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

    /// A real three-tick directory whose newest manifest references a
    /// data file from every tick: 6 shards, tick 2 rewrites shards 1 and
    /// 2, tick 3 shard 2.
    fn three_ticks(dir: &Path) -> Vec<u8> {
        let mut state = synthetic(20, 6);
        let mut writer = SegmentWriter::new(dir, 6);
        tick(&mut writer, 1, &state).unwrap();
        for (epoch, dirty) in [(2, &[1, 2][..]), (3, &[2][..])] {
            for &s in dirty {
                for (id, bytes) in &mut state.1[s] {
                    *bytes = entry(*id, epoch as f32);
                }
                writer.mark_dirty(s);
            }
            tick(&mut writer, epoch, &state).unwrap();
        }
        monolithic(&state.0, &state.1, &state.2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn no_corruption_of_a_referenced_file_reassembles(
            file in 0usize..4,
            at in 0.0f64..1.0,
            bit in 0u32..8,
            truncate in any::<bool>(),
        ) {
            let dir = temp_dir("prop");
            let expected = three_ticks(&dir);
            let manifest = dir.join(manifest_name(3));
            prop_assert_eq!(&reassemble(&manifest, &obs()).unwrap(), &expected);

            // the newest manifest, or one of the three data files it uses
            let victim =
                if file == 0 { manifest.clone() } else { dir.join(data_file_name(file)) };
            let mut bytes = std::fs::read(&victim).unwrap();
            let pos = ((bytes.len() as f64) * at) as usize;
            if truncate {
                bytes.truncate(pos);
            } else {
                bytes[pos] ^= 1 << bit;
            }
            std::fs::write(&victim, &bytes).unwrap();
            let out = reassemble(&manifest, &obs());
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(
                out.is_err(),
                "{} at {pos} (truncate: {truncate}) reassembled",
                victim.display()
            );
        }
    }
}
