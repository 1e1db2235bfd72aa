//! `haccs-persist`: a versioned, checksummed snapshot codec for
//! bit-identical training resume.
//!
//! The paper's evaluation is long time-to-accuracy sweeps; the ROADMAP
//! north-star is a coordinator that survives crashes mid-run. This crate
//! provides the byte format both runtimes serialize their full training
//! state through: global model parameters, per-client state, RNG stream
//! position, clock, round history, registry liveness and the incremental
//! clustering caches.
//!
//! The format follows the `wire` codec conventions — little-endian
//! fixed-width integers, IEEE-754 bit patterns for floats,
//! length-prefixed sequences with a sanity bound — wrapped in a framed
//! envelope:
//!
//! ```text
//! magic "HACCSNAP" | version u32 | payload_len u64 | payload | fnv1a64(payload)
//! ```
//!
//! Floats are stored as their exact bit patterns ([`f32::to_bits`] /
//! [`f64::to_bits`]), so a decode→encode round trip is the identity even
//! for NaN payloads — the foundation of the resume subsystem's
//! bit-identity guarantee (see DESIGN.md §10).

use std::fmt;
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};

pub mod segment;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HACCSNAP";

/// Current snapshot format version: the layout of the **monolithic
/// payload**. Bump on any change to that payload; readers reject versions
/// they do not understand rather than misparse. The [`segment`] tick
/// files reassemble to that payload, so they carry the same version, and
/// are told apart from earlier segment layouts by their payload's leading
/// tag.
///
/// History:
/// * v1 — flat registries: coordinator snapshots carried per-client state
///   with no shard layout field.
/// * v2 — sharded registries: the coordinator payload records the shard
///   count its registry was partitioned into (informational — restore
///   accepts any layout, entries stay serialized in global id order).
/// * v3 — segmented snapshots ([`segment`]), reassembling
///   byte-identically to the monolithic payload; the cluster-cache
///   payload gained a mode byte for the two-level clustering state
///   (DESIGN.md §15). The segment layout has since moved from one file
///   per shard to one data file per tick beside a manifest carrying the
///   core inline, and then to one file per tick holding only the core
///   chunks and shard blocks that changed, each time without a version
///   bump: the monolithic payload is unchanged.
pub const VERSION: u32 = 3;

/// Envelope bytes before the payload: magic, version and payload length.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

/// Sanity bound on length-prefixed sequence sizes, mirroring the wire
/// codec's `MAX_LEN`: a corrupt length cannot trigger a huge allocation.
pub const MAX_LEN: u64 = 1 << 28;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

/// FNV-1a 64-bit hash — the payload checksum. Deterministic, dependency
/// free and byte-order independent.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a 64 state `h` over `bytes`.
pub(crate) fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `(fnv1a64_extend(h, bytes), fnv1a64(bytes))` in one pass. FNV-1a is a
/// serial chain of multiplies, so one pass costs the multiply latency per
/// byte; two independent chains in the same loop overlap and cost about
/// as much as one.
pub(crate) fn fnv1a64_pair(mut h: u64, bytes: &[u8]) -> (u64, u64) {
    let mut g = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        g ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
        g = g.wrapping_mul(FNV_PRIME);
    }
    (h, g)
}

/// Everything that can go wrong reading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Fewer bytes than the envelope or a field requires.
    Truncated,
    /// The leading magic bytes are not `HACCSNAP`.
    BadMagic,
    /// The snapshot was written by an unknown (newer) format version.
    UnsupportedVersion(u32),
    /// The snapshot predates the current format (pre-shard v1, or
    /// pre-segment v2): readable by older builds but not this one.
    /// Carries the found version; the `Display` impl includes the
    /// migration note.
    LegacySnapshot(u32),
    /// The payload does not match its recorded checksum.
    ChecksumMismatch,
    /// A length prefix exceeds [`MAX_LEN`] or the remaining payload.
    LengthOutOfBounds(u64),
    /// Structurally valid bytes that contradict the expected state shape
    /// (wrong client count, mismatched config guard, bad tag, ...).
    Malformed(String),
    /// Filesystem failure while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "snapshot truncated"),
            PersistError::BadMagic => write!(f, "not a HACCS snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            PersistError::LegacySnapshot(v) => {
                write!(
                    f,
                    "legacy HACCSNAP snapshot (v{v}; this build reads v{VERSION}): v1 is the \
                     pre-shard layout and v2 the pre-segment layout, and neither can be \
                     restored here. To migrate, resume the run once under a matching older \
                     build and write a fresh snapshot, or restart the run from its seed \
                     (runs are bit-reproducible from construction inputs)"
                )
            }
            PersistError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            PersistError::LengthOutOfBounds(n) => {
                write!(f, "snapshot length prefix {n} out of bounds")
            }
            PersistError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            PersistError::Io(why) => write!(f, "snapshot io error: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Builds a snapshot payload field by field; [`SnapshotWriter::finish`]
/// frames it with magic, version, length and checksum.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty payload builder.
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// An empty payload builder that writes into `buf`'s allocation:
    /// [`SnapshotWriter::into_payload`] hands the buffer back for reuse.
    pub(crate) fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapshotWriter { buf }
    }

    /// Bytes of payload written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its exact bit pattern (NaN-preserving).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its exact bit pattern (NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as a 0/1 byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `Option<f32>` as a presence tag plus the bit pattern.
    pub fn put_opt_f32(&mut self, v: Option<f32>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_f32(x);
            }
        }
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `f32` sequence (bit patterns).
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f32(x);
        }
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn put_u64s(&mut self, v: &[u64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u64(x);
        }
    }

    /// Appends a length-prefixed `usize` sequence (as `u64`s).
    pub fn put_usizes(&mut self, v: &[usize]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_usize(x);
        }
    }

    /// Appends raw payload bytes verbatim — **no** length prefix. The
    /// segmented-snapshot reassembly path uses this to splice
    /// pre-serialized payload fragments back into one monolithic payload
    /// byte-identically; the fragments must be self-delimiting for the
    /// reader to make sense of them.
    pub fn append_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the writer, returning the raw unframed payload — the
    /// fragment form [`SnapshotWriter::append_raw`] splices. Most callers
    /// want [`SnapshotWriter::finish`] instead.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// The payload written so far.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buf
    }

    /// Reserves a `u64` slot to fill in later with
    /// [`SnapshotWriter::patch_u64`]; returns its offset.
    pub(crate) fn reserve_u64(&mut self) -> usize {
        let at = self.buf.len();
        self.put_u64(0);
        at
    }

    /// Overwrites the `u64` slot [`SnapshotWriter::reserve_u64`] returned.
    pub(crate) fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed blob that `write` encodes in place — the
    /// same bytes as [`SnapshotWriter::put_bytes`] of the blob, without
    /// building it first.
    pub(crate) fn put_bytes_with(&mut self, write: impl FnOnce(&mut Self)) {
        let at = self.reserve_u64();
        write(self);
        self.patch_u64(at, (self.buf.len() - at - 8) as u64);
    }

    /// The envelope header of a payload of `len` bytes.
    fn header(len: usize) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[12..].copy_from_slice(&(len as u64).to_le_bytes());
        h
    }

    /// Frames the payload: magic, version, payload length, payload,
    /// FNV-1a checksum. The result is what [`SnapshotReader::open`]
    /// expects and what [`write_atomic`] persists.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + HEADER_LEN + 8);
        out.extend_from_slice(&Self::header(self.buf.len()));
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&fnv1a64(&self.buf).to_le_bytes());
        out
    }

    /// Shortens the payload to its first `len` bytes, keeping the
    /// allocation.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }
}

/// A framed snapshot written while its payload is produced: payload bytes
/// stream into a temp file beside the target, and
/// [`StreamedSnapshot::commit`] appends the last of them and the
/// checksum, fills in the header and renames the file over the target —
/// the bytes and the atomicity of [`SnapshotWriter::finish`] plus
/// [`write_atomic`], in bounded memory.
pub(crate) struct StreamedSnapshot {
    file: AtomicFile,
    payload_len: usize,
}

impl StreamedSnapshot {
    /// Opens the temp file for `path`, with room for the header.
    pub(crate) fn create(path: &Path) -> Result<Self, PersistError> {
        let mut file = AtomicFile::create(path)?;
        file.write(&[0; HEADER_LEN])?;
        Ok(StreamedSnapshot { file, payload_len: 0 })
    }

    /// Appends payload bytes.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.payload_len += bytes.len();
        self.file.write(bytes)
    }

    /// Appends `last`, the end of the payload whose FNV-1a 64 is
    /// `checksum`, completes the envelope and renames the file into place,
    /// inside a `persist.write` span as [`write_atomic_obs`] does. Returns
    /// the bytes written.
    pub(crate) fn commit(
        mut self,
        last: &[u8],
        checksum: u64,
        obs: &haccs_obs::Recorder,
    ) -> Result<u64, PersistError> {
        self.payload_len += last.len();
        let len = (HEADER_LEN + self.payload_len + 8) as u64;
        let path = self.file.path.clone();
        write_obs(&path, len, obs, || {
            self.file.write(last)?;
            self.file.write(&checksum.to_le_bytes())?;
            self.file.rewind()?;
            self.file.write(&SnapshotWriter::header(self.payload_len))?;
            self.file.commit()
        })
    }
}

/// A validating cursor over a framed snapshot's payload.
#[derive(Debug, PartialEq, Eq)]
pub struct SnapshotReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope (magic, version, length, checksum) and
    /// positions a cursor at the start of the payload.
    pub fn open(bytes: &'a [u8]) -> Result<Self, PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version < VERSION {
            return Err(PersistError::LegacySnapshot(version));
        }
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        if payload_len > MAX_LEN {
            return Err(PersistError::LengthOutOfBounds(payload_len));
        }
        let payload_len = payload_len as usize;
        let body_end = HEADER_LEN.checked_add(payload_len).ok_or(PersistError::Truncated)?;
        if bytes.len() < body_end + 8 {
            return Err(PersistError::Truncated);
        }
        let payload = &bytes[HEADER_LEN..body_end];
        let recorded = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
        if fnv1a64(payload) != recorded {
            return Err(PersistError::ChecksumMismatch);
        }
        Ok(SnapshotReader { payload, pos: 0 })
    }

    /// A cursor over an unframed payload fragment whose integrity the
    /// caller has already checked (a segment block against its manifest
    /// checksum).
    pub(crate) fn fragment(payload: &'a [u8]) -> Self {
        SnapshotReader { payload, pos: 0 }
    }

    /// Bytes of payload consumed so far.
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes of payload not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// A capacity for `n` items of type `T` about to be decoded from the
    /// rest of the payload: `n`, capped so the allocation is no larger
    /// than the payload bytes left. A length prefix is bounded only by
    /// [`MAX_LEN`], so a crafted count must not size an allocation on its
    /// own; a count the payload cannot back fails with `Truncated` as the
    /// items run out.
    pub fn capacity_for<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a raw byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`, rejecting values over [`MAX_LEN`].
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        let v = self.get_u64()?;
        if v > MAX_LEN {
            return Err(PersistError::LengthOutOfBounds(v));
        }
        Ok(v as usize)
    }

    /// Reads an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a 0/1 bool byte.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(PersistError::Malformed(format!("bool tag {t}"))),
        }
    }

    /// Reads an `Option<f32>` (presence tag + bit pattern).
    pub fn get_opt_f32(&mut self) -> Result<Option<f32>, PersistError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_f32()?)),
            t => Err(PersistError::Malformed(format!("option tag {t}"))),
        }
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| PersistError::Malformed("string is not UTF-8".into()))
    }

    /// Reads a length-prefixed `f32` sequence.
    pub fn get_f32s(&mut self) -> Result<Vec<f32>, PersistError> {
        let n = self.get_usize()?;
        if self.remaining() < n.saturating_mul(4) {
            return Err(PersistError::Truncated);
        }
        (0..n).map(|_| self.get_f32()).collect()
    }

    /// Reads a length-prefixed `u64` sequence.
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.get_usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(PersistError::Truncated);
        }
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `usize` sequence.
    pub fn get_usizes(&mut self) -> Result<Vec<usize>, PersistError> {
        let n = self.get_usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(PersistError::Truncated);
        }
        (0..n).map(|_| self.get_usize()).collect()
    }

    /// Asserts the whole payload was consumed — catches layout drift
    /// between writer and reader.
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Malformed(format!("{} trailing payload bytes", self.remaining())))
        }
    }
}

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, then a rename over the target — a crash mid-write never
/// leaves a torn snapshot behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let mut file = AtomicFile::create(path)?;
    file.write(bytes)?;
    file.commit()
}

/// A file written under a unique temp name in its target's directory and
/// renamed over the target by [`AtomicFile::commit`]. Dropped before
/// that, it removes the temp file.
struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: std::fs::File,
    committed: bool,
}

impl AtomicFile {
    fn create(path: &Path) -> Result<Self, PersistError> {
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir).map_err(|e| io_error(path, e))?;
        let stem = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
        let file = std::fs::File::create(&tmp).map_err(|e| io_error(path, e))?;
        Ok(AtomicFile { path: path.to_path_buf(), tmp, file, committed: false })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.file.write_all(bytes).map_err(|e| io_error(&self.path, e))
    }

    /// Moves the write position back to the start of the file.
    fn rewind(&mut self) -> Result<(), PersistError> {
        self.file.rewind().map_err(|e| io_error(&self.path, e))
    }

    fn commit(&mut self) -> Result<(), PersistError> {
        std::fs::rename(&self.tmp, &self.path).map_err(|e| io_error(&self.path, e))?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

pub(crate) fn io_error(path: &Path, e: std::io::Error) -> PersistError {
    PersistError::Io(format!("{}: {e}", path.display()))
}

/// Reads a snapshot file written by [`write_atomic`].
pub fn read_snapshot(path: &Path) -> Result<Vec<u8>, PersistError> {
    std::fs::read(path).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))
}

/// [`write_atomic`], wrapped in an obs `persist.write` span recording the
/// snapshot size and write latency (no-op overhead when `obs` is disabled).
pub fn write_atomic_obs(
    path: &Path,
    bytes: &[u8],
    obs: &haccs_obs::Recorder,
) -> Result<(), PersistError> {
    write_obs(path, bytes.len() as u64, obs, || write_atomic(path, bytes)).map(|_| ())
}

/// Runs `write`, which writes `len` bytes to `path`, inside a
/// `persist.write` span and counts it in the write metrics; returns `len`.
fn write_obs(
    path: &Path,
    len: u64,
    obs: &haccs_obs::Recorder,
    write: impl FnOnce() -> Result<(), PersistError>,
) -> Result<u64, PersistError> {
    let mut span = obs.span("persist.write").u("bytes", len);
    span.push_s("path", || path.display().to_string());
    let out = write();
    span.push_u("ok", out.is_ok() as u64);
    span.finish();
    obs.inc("persist_writes_total", 1);
    obs.observe_with("persist_snapshot_bytes", haccs_obs::metrics::SIZE_BYTES, len as f64);
    out.map(|()| len)
}

/// [`read_snapshot`], wrapped in an obs `persist.read` span recording the
/// snapshot size and read latency.
pub fn read_snapshot_obs(path: &Path, obs: &haccs_obs::Recorder) -> Result<Vec<u8>, PersistError> {
    let mut span = obs.span("persist.read");
    span.push_s("path", || path.display().to_string());
    let out = read_snapshot(path);
    span.push_u("bytes", out.as_ref().map(|b| b.len()).unwrap_or(0) as u64);
    span.push_u("ok", out.is_ok() as u64);
    span.finish();
    obs.inc("persist_reads_total", 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(12345);
        w.put_f32(f32::NAN);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_opt_f32(None);
        w.put_opt_f32(Some(2.5));
        w.put_str("haccs");
        w.put_f32s(&[1.0, f32::INFINITY, -3.5]);
        w.put_u64s(&[1, 2, 3]);
        w.put_usizes(&[9, 8]);
        w.put_bytes(b"blob");
        w.finish()
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let bytes = sample();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_opt_f32().unwrap(), None);
        assert_eq!(r.get_opt_f32().unwrap(), Some(2.5));
        assert_eq!(r.get_str().unwrap(), "haccs");
        let f = r.get_f32s().unwrap();
        assert_eq!(
            f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            vec![1.0f32.to_bits(), f32::INFINITY.to_bits(), (-3.5f32).to_bits()]
        );
        assert_eq!(r.get_u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_usizes().unwrap(), vec![9, 8]);
        assert_eq!(r.get_bytes().unwrap(), b"blob");
        r.expect_end().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(SnapshotReader::open(&bytes), Err(PersistError::ChecksumMismatch));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(SnapshotReader::open(&bytes), Err(PersistError::BadMagic));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(SnapshotReader::open(&bytes), Err(PersistError::UnsupportedVersion(99)));
    }

    #[test]
    fn pre_shard_snapshot_is_rejected_with_migration_note() {
        // a v1 (pre-shard) envelope must surface the typed legacy error,
        // not a panic and not the generic unsupported-version error
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(SnapshotReader::open(&bytes), Err(PersistError::LegacySnapshot(1)));
        let msg = PersistError::LegacySnapshot(1).to_string();
        assert!(msg.contains("pre-shard"), "missing context: {msg}");
        assert!(msg.contains("migrate"), "missing migration note: {msg}");
    }

    #[test]
    fn pre_segment_snapshot_is_rejected_with_migration_note() {
        // a v2 (pre-segment) envelope is legacy too, with the same note
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(SnapshotReader::open(&bytes), Err(PersistError::LegacySnapshot(2)));
        let msg = PersistError::LegacySnapshot(2).to_string();
        assert!(msg.contains("pre-segment"), "missing context: {msg}");
        assert!(msg.contains("migrate"), "missing migration note: {msg}");
    }

    #[test]
    fn raw_fragments_splice_byte_identically() {
        // building a payload whole vs from append_raw fragments must
        // yield identical framed snapshots — the segmented-reassembly
        // invariant
        let whole = sample();
        let (pre, entries, post) = {
            let mut w = SnapshotWriter::new();
            w.put_u8(7);
            w.put_u32(0xDEAD_BEEF);
            let pre = w.into_payload();
            let mut w = SnapshotWriter::new();
            w.put_u64(u64::MAX);
            w.put_usize(12345);
            w.put_f32(f32::NAN);
            w.put_f64(-0.0);
            w.put_bool(true);
            w.put_opt_f32(None);
            w.put_opt_f32(Some(2.5));
            let entries = w.into_payload();
            let mut w = SnapshotWriter::new();
            w.put_str("haccs");
            w.put_f32s(&[1.0, f32::INFINITY, -3.5]);
            w.put_u64s(&[1, 2, 3]);
            w.put_usizes(&[9, 8]);
            w.put_bytes(b"blob");
            (pre, entries, w.into_payload())
        };
        let mut w = SnapshotWriter::new();
        w.append_raw(&pre);
        w.append_raw(&entries);
        w.append_raw(&post);
        assert_eq!(w.finish(), whole);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample();
        assert_eq!(SnapshotReader::open(&bytes[..bytes.len() - 3]), Err(PersistError::Truncated));
        assert_eq!(SnapshotReader::open(&bytes[..10]), Err(PersistError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(MAX_LEN + 1); // masquerading as a sequence length
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.get_usize(), Err(PersistError::LengthOutOfBounds(MAX_LEN + 1)));
    }

    #[test]
    fn capacity_never_outgrows_the_payload_left() {
        let mut w = SnapshotWriter::new();
        w.put_usize(MAX_LEN as usize); // a count with 24 bytes behind it
        w.put_u64s(&[1, 2]);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let n = r.get_usize().unwrap();
        assert_eq!(r.capacity_for::<u64>(n), 3);
        assert_eq!(r.capacity_for::<[u64; 4]>(n), 0);
        assert_eq!(r.capacity_for::<u64>(2), 2, "a count the payload backs is kept");
    }

    #[test]
    fn trailing_bytes_are_flagged() {
        let mut w = SnapshotWriter::new();
        w.put_u32(5);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let _ = r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn atomic_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("haccs-persist-test-{}", std::process::id()));
        let path = dir.join("snap.bin");
        let bytes = sample();
        write_atomic(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), bytes);
        // overwrite is atomic too
        write_atomic(&path, b"HACCSNAP").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_snapshot(Path::new("/nonexistent/haccs/snap.bin")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
