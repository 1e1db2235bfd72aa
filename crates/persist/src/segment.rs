//! Segmented snapshots: per tick, one file holding only the bytes that
//! changed.
//!
//! The monolithic coordinator snapshot rewrites every client's state each
//! tick, so its write cost grows linearly with federation size even when
//! only a handful of clients changed. This module stores one snapshot as
//! **blocks**:
//!
//! * **shard blocks**: the per-client entries of one snapshot shard, in
//!   ascending id order. A tick rewrites the shards dirtied since the
//!   previous tick;
//! * **core chunks**: the payload bytes before the per-client entries
//!   (`pre`: seed, RNG, global params, round history, ...) and after them
//!   (`post`: selector state), each cut into 16 KiB chunks. A tick
//!   encodes both fragments whole and rewrites a chunk only when it
//!   differs from the previous tick's chunk at the same index of the same
//!   fragment, so `post`'s chunks keep their indices when `pre` grows.
//!
//! Each tick writes **one file**, `manifest-{epoch:06}.snap`: the blocks
//! it rewrote, then the manifest, which records for every core chunk and
//! every shard the file, block index, block length and block FNV-1a
//! checksum that hold it. A block that did not change keeps the
//! reference an earlier tick wrote, so the newest file can reference
//! blocks of any older one. Files are immutable once written; each is
//! streamed to a temp file and renamed into place once, as
//! [`write_atomic`](crate::write_atomic) does. The rename is the commit
//! point: a crash mid-tick leaves the previous file, and every block it
//! names, intact.
//!
//! ```text
//! tick file: tag 5 | epoch | count | count × bytes(block)
//!            | pre chunk count | chunks | shards
//!   block  = a core chunk, or shard | count | count × (id | bytes(entry))
//!   chunks = count × ref  (pre's chunks, then post's)
//!   shards = count × ref  (one per snapshot shard, in shard order)
//!   ref    = epoch of the file | block index | len u64 | fnv1a64 u64
//! ```
//!
//! [`reassemble`] reads each referenced file once and validates its
//! envelope, checks every referenced block's length and checksum (and a
//! shard block's recorded shard index, and the ids for density), and
//! splices pre chunks + entries (in global id order) + post chunks back
//! into one payload that is **byte-identical** to the monolithic
//! `Coordinator::snapshot` output — restore code is shared, and the
//! bit-identity guarantee of DESIGN.md §10 carries over unchanged.
//!
//! Tick files carry the envelope [`VERSION`](crate::VERSION), which
//! describes the monolithic payload they reassemble to; the payload tag
//! tells this layout from earlier ones. A manifest of the per-shard
//! layout (tag 2) or of the two-file layout whose manifest carried the
//! core inline (tag 4) is refused with a typed [`PersistError::Malformed`]
//! that names the layout rather than misparsed.
//!
//! [`SegmentWriter`] drives the ticks: it tracks dirty shards and the last
//! committed core, compacts sparse files and, under retention,
//! garbage-collects what no kept manifest references.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::{
    fnv1a64, fnv1a64_extend, fnv1a64_pair, io_error, read_snapshot, PersistError, SnapshotReader,
    SnapshotWriter, StreamedSnapshot, HEADER_LEN,
};

/// Payload tag of a manifest of the per-shard layout: a core segment plus
/// one file per shard.
const TAG_PER_SHARD: u8 = 2;
/// Payload tag of a manifest of the two-file layout: a data file of shard
/// blocks beside a manifest that carried the core inline.
const TAG_INLINE_CORE: u8 = 4;
/// Payload tag of a tick file.
const TAG_TICK: u8 = 5;

/// Bytes per core chunk, the granularity at which a tick compares and
/// rewrites the core; a fragment's last chunk may be shorter.
const CHUNK: usize = 16 * 1024;

/// Where one block lives: the tick file that holds it, its index there,
/// and its length and FNV-1a checksum as the manifest recorded them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// Epoch of the tick file that holds the block,
    /// [`manifest_name`]`(epoch)` in the manifest's directory.
    pub epoch: usize,
    /// Index of the block within that file.
    pub block: usize,
    /// Block length in bytes.
    pub len: u64,
    /// FNV-1a 64 over the block bytes.
    pub checksum: u64,
}

impl BlockRef {
    fn write(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.epoch);
        w.put_usize(self.block);
        w.put_u64(self.len);
        w.put_u64(self.checksum);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(BlockRef {
            epoch: r.get_usize()?,
            block: r.get_usize()?,
            len: r.get_u64()?,
            checksum: r.get_u64()?,
        })
    }
}

/// The manifest of one tick file: the block that holds each core chunk
/// and each shard's entries. Parts a tick did not rewrite point at blocks
/// of files written by earlier epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Epoch this manifest snapshots.
    pub epoch: usize,
    /// Blocks the tick file itself holds.
    pub blocks: usize,
    /// How many of `chunks` hold the payload before the per-client
    /// entries; the rest hold the payload after them.
    pub pre_chunks: usize,
    /// The core's chunks, in payload order.
    pub chunks: Vec<BlockRef>,
    /// One block per snapshot shard, in shard-index order.
    pub shards: Vec<BlockRef>,
}

impl SegmentManifest {
    /// Every block the manifest references: the core chunks, then the
    /// shards.
    pub fn refs(&self) -> impl Iterator<Item = &BlockRef> {
        self.chunks.iter().chain(&self.shards)
    }
}

/// Canonical file name of the tick file, manifest and blocks, written at
/// `epoch`.
pub fn manifest_name(epoch: usize) -> String {
    format!("manifest-{epoch:06}.snap")
}

/// Encodes a manifest's references, the tail of its tick file.
fn put_refs(w: &mut SnapshotWriter, pre_chunks: usize, chunks: &[BlockRef], shards: &[BlockRef]) {
    w.put_usize(pre_chunks);
    for refs in [chunks, shards] {
        w.put_usize(refs.len());
        refs.iter().for_each(|b| b.write(w));
    }
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

/// Encoded shard-block bytes a tick file holds in memory before writing
/// them out: a tick that rewrites every shard of a large federation
/// streams its file instead of building it whole, and the buffer the
/// writer keeps holds little more than the core.
const FLUSH_BYTES: usize = 64 * 1024;

/// A tick file being written. `w` holds the tick's core, from which
/// changed chunks go to the file as they are, followed by the file bytes
/// not yet written out: shard blocks are encoded there and written out
/// whenever they reach [`FLUSH_BYTES`]. A block's checksum and the
/// envelope's come from one pass over its bytes.
struct TickFileWriter {
    file: StreamedSnapshot,
    w: SnapshotWriter,
    /// Where the file bytes start in `w`: the core's length.
    base: usize,
    epoch: usize,
    /// Blocks the header declared, and blocks appended so far.
    declared: usize,
    blocks: usize,
    /// FNV-1a state over the payload written out and `w[base..hashed]`.
    sum: u64,
    hashed: usize,
    /// Payload bytes already written out.
    flushed: usize,
}

impl TickFileWriter {
    /// Opens the temp file for `epoch`'s tick file in `dir` and encodes,
    /// after the core `w` holds, the header of a file that will hold
    /// `blocks` blocks.
    fn create(
        dir: &Path,
        epoch: usize,
        blocks: usize,
        mut w: SnapshotWriter,
    ) -> Result<Self, PersistError> {
        let file = StreamedSnapshot::create(&dir.join(manifest_name(epoch)))?;
        let base = w.len();
        w.put_u8(TAG_TICK);
        w.put_usize(epoch);
        w.put_usize(blocks);
        Ok(TickFileWriter {
            file,
            w,
            base,
            epoch,
            declared: blocks,
            blocks: 0,
            sum: fnv1a64(&[]),
            hashed: base,
            flushed: 0,
        })
    }

    fn next_block(&mut self, len: usize, checksum: u64) -> BlockRef {
        self.blocks += 1;
        BlockRef { epoch: self.epoch, block: self.blocks - 1, len: len as u64, checksum }
    }

    /// Hashes and writes out the file bytes held in `w`.
    fn flush(&mut self) -> Result<(), PersistError> {
        let pending = &self.w.payload()[self.base..];
        self.sum = fnv1a64_extend(self.sum, &self.w.payload()[self.hashed..]);
        self.file.append(pending)?;
        self.flushed += pending.len();
        self.w.truncate(self.base);
        self.hashed = self.base;
        Ok(())
    }

    /// Appends the core bytes `range` as the next block, written out
    /// straight from the core, and returns its reference.
    fn chunk(&mut self, range: Range<usize>) -> Result<BlockRef, PersistError> {
        self.w.put_usize(range.len());
        self.flush()?;
        let chunk = &self.w.payload()[range];
        let (sum, checksum) = fnv1a64_pair(self.sum, chunk);
        self.file.append(chunk)?;
        let len = chunk.len();
        (self.sum, self.flushed) = (sum, self.flushed + len);
        Ok(self.next_block(len, checksum))
    }

    /// Appends the next block, which `write` encodes, and returns its
    /// reference.
    fn block(&mut self, write: impl FnOnce(&mut SnapshotWriter)) -> Result<BlockRef, PersistError> {
        let start = self.w.len() + 8;
        self.w.put_bytes_with(write);
        let payload = self.w.payload();
        let prefix = fnv1a64_extend(self.sum, &payload[self.hashed..start]);
        let (sum, checksum) = fnv1a64_pair(prefix, &payload[start..]);
        let len = payload.len() - start;
        (self.sum, self.hashed) = (sum, payload.len());
        if self.w.len() - self.base >= FLUSH_BYTES {
            self.flush()?;
        }
        Ok(self.next_block(len, checksum))
    }

    /// Payload bytes encoded so far.
    fn len(&self) -> usize {
        self.flushed + self.w.len() - self.base
    }

    /// Completes the envelope and renames the file into place; returns
    /// the bytes written and the buffer, which still holds the core.
    fn commit(self, obs: &haccs_obs::Recorder) -> Result<(u64, SnapshotWriter), PersistError> {
        assert_eq!(self.blocks, self.declared, "a tick file holds the blocks its header declares");
        let TickFileWriter { file, mut w, base, sum, hashed, .. } = self;
        let sum = fnv1a64_extend(sum, &w.payload()[hashed..]);
        let bytes = file.commit(&w.payload()[base..], sum, obs)?;
        w.truncate(base);
        Ok((bytes, w))
    }
}

/// A tick file read back with its envelope validated: the file bytes, the
/// byte range of every block it holds, and its manifest.
#[derive(Debug)]
struct TickFile {
    bytes: Vec<u8>,
    blocks: Vec<Range<usize>>,
    manifest: SegmentManifest,
}

impl TickFile {
    /// Reads a tick file. Every failure past reading the file is a
    /// [`PersistError::Malformed`] that names the file.
    fn read(path: &Path) -> Result<Self, PersistError> {
        let bytes = read_snapshot(path)?;
        let named = |e| match e {
            PersistError::Malformed(why) => {
                PersistError::Malformed(format!("{}: {why}", path.display()))
            }
            e => PersistError::Malformed(format!("{}: {e}", path.display())),
        };
        let (blocks, manifest) = Self::parse(&bytes).map_err(named)?;
        Ok(TickFile { bytes, blocks, manifest })
    }

    fn parse(bytes: &[u8]) -> Result<(Vec<Range<usize>>, SegmentManifest), PersistError> {
        let mut r = SnapshotReader::open(bytes)?;
        let refused = |layout: &str| {
            Err(PersistError::Malformed(format!(
                "a manifest of the {layout}, which this build no longer reads; resume it once \
                 under an older build and write a fresh snapshot, or restart the run from its \
                 seed"
            )))
        };
        match r.get_u8()? {
            TAG_TICK => {}
            TAG_PER_SHARD => {
                return refused(
                    "per-shard segment layout (core-*.seg plus one shard-*.seg per shard)",
                )
            }
            TAG_INLINE_CORE => {
                return refused(
                    "two-file segment layout (a shards-*.seg data file beside a manifest \
                     carrying the core inline)",
                )
            }
            tag => {
                return Err(PersistError::Malformed(format!(
                    "expected tick-file tag {TAG_TICK}, found {tag}"
                )))
            }
        }
        let epoch = r.get_usize()?;
        let count = r.get_usize()?;
        let mut blocks = Vec::new();
        for _ in 0..count {
            let len = r.get_bytes()?.len();
            let end = HEADER_LEN + r.consumed();
            blocks.push(end - len..end);
        }
        let pre_chunks = r.get_usize()?;
        let mut refs = || -> Result<Vec<BlockRef>, PersistError> {
            let n = r.get_usize()?;
            (0..n).map(|_| BlockRef::read(&mut r)).collect()
        };
        let chunks = refs()?;
        let shards = refs()?;
        r.expect_end()?;
        if pre_chunks > chunks.len() {
            return Err(PersistError::Malformed(format!(
                "{pre_chunks} of the core's {} chunks are recorded as pre-entry chunks",
                chunks.len()
            )));
        }
        Ok((blocks, SegmentManifest { epoch, blocks: count, pre_chunks, chunks, shards }))
    }

    /// Block `b.block`'s bytes, checked against the length and checksum
    /// `b` recorded.
    fn block(&self, b: &BlockRef) -> Result<&[u8], PersistError> {
        let bad = |why: String| {
            let name = manifest_name(b.epoch);
            Err(PersistError::Malformed(format!("block {} of {name} {why}", b.block)))
        };
        let Some(range) = self.blocks.get(b.block) else {
            return bad(format!("is referenced, but the file holds {} blocks", self.blocks.len()));
        };
        let block = &self.bytes[range.clone()];
        if block.len() as u64 != b.len {
            return bad(format!("is {} bytes, manifest recorded {}", block.len(), b.len));
        }
        if fnv1a64(block) != b.checksum {
            return bad("does not match its manifest checksum".into());
        }
        Ok(block)
    }
}

/// Reads the manifest of a tick file, validating the file's envelope and
/// block framing. A manifest of an earlier segment layout is refused as
/// [`PersistError::Malformed`].
pub fn read_manifest(path: &Path) -> Result<SegmentManifest, PersistError> {
    TickFile::read(path).map(|file| file.manifest)
}

/// Reassembles the monolithic framed snapshot from a tick file: validates
/// every referenced block, orders per-client entries by global id (which
/// must be dense `0..n`), and splices pre chunks + entries + post chunks
/// into one payload. The result is byte-identical to the monolithic
/// snapshot of the same state, so the ordinary restore path consumes it
/// unchanged.
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
    let tip = TickFile::read(manifest_path)?;
    let manifest = &tip.manifest;

    // every older file the manifest references, read once
    let epochs: BTreeSet<usize> =
        manifest.refs().map(|b| b.epoch).filter(|&e| e != manifest.epoch).collect();
    let older = epochs
        .into_iter()
        .map(|e| Ok((e, TickFile::read(&dir.join(manifest_name(e)))?)))
        .collect::<Result<BTreeMap<_, _>, PersistError>>()?;
    let block = |b: &BlockRef| match older.get(&b.epoch) {
        Some(file) => file.block(b),
        None => tip.block(b),
    };

    let chunks = manifest.chunks.iter().map(block).collect::<Result<Vec<_>, _>>()?;
    let mut entries: Vec<(usize, &[u8])> = Vec::new();
    for (shard, b) in manifest.shards.iter().enumerate() {
        let mut r = SnapshotReader::fragment(block(b)?);
        let recorded = r.get_usize()?;
        if recorded != shard {
            return Err(PersistError::Malformed(format!(
                "block {} of {} holds shard {recorded}, manifest placed it at {shard}",
                b.block,
                manifest_name(b.epoch)
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

    let (pre, post) = chunks.split_at(manifest.pre_chunks);
    let mut w = SnapshotWriter::new();
    for bytes in pre.iter().chain(by_id.iter().flatten()).chain(post) {
        w.append_raw(bytes);
    }
    Ok(w.finish())
}

/// What one [`SegmentWriter::tick`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Bytes of the tick's file.
    pub bytes: u64,
    /// Core chunks written: those that differ from the previous tick's
    /// chunk at the same index (every chunk on the first tick), plus,
    /// under retention, unchanged chunks compaction moved.
    pub chunks: usize,
    /// Shard blocks rewritten because their shard was dirty (every shard
    /// on the first tick).
    pub dirty: usize,
    /// Clean shard blocks rewritten to empty a sparse file (retention
    /// only).
    pub compacted: usize,
    /// What the retention sweep removed (nothing without retention).
    pub gc: GcStats,
}

impl TickStats {
    /// Blocks the tick's file holds: core chunks and shard blocks.
    pub fn blocks(&self) -> usize {
        self.chunks + self.dirty + self.compacted
    }
}

/// The writing side of a segmented-snapshot directory: which shards are
/// dirty, the last committed core, which block holds each core chunk and
/// each shard's entries, and, under retention, which files each manifest
/// this writer committed references. A writer built for a restored run
/// starts empty, so its first tick writes every chunk and every shard.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    /// `dirty[s]`: shard `s`'s entries may differ from its newest block.
    dirty: Vec<bool>,
    /// A copy of the newest committed tick's core, `pre` then `post`, at
    /// its exact length, that the next tick compares its chunks against;
    /// empty before the first commit.
    core: Vec<u8>,
    /// Where `post` starts in `core`.
    pre_len: usize,
    /// The newest committed manifest's block per core chunk, `pre`'s
    /// chunks then `post`'s.
    chunks: Vec<BlockRef>,
    /// The newest committed manifest's block per shard; empty before the
    /// first commit, whose tick therefore writes every shard.
    shards: Vec<BlockRef>,
    /// How many blocks each file that `chunks` or `shards` references
    /// holds, by epoch.
    file_blocks: BTreeMap<usize, usize>,
    retention: Option<Retention>,
    /// The buffer every tick encodes its core and its file into.
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
            core: Vec::new(),
            pre_len: 0,
            chunks: Vec::new(),
            shards: Vec::new(),
            file_blocks: BTreeMap::new(),
            retention: None,
            scratch: Vec::new(),
        }
    }

    /// Bounds the directory (builder style): after each committed tick,
    /// only the newest `keep` manifests and the files they reference stay
    /// on disk (see [`gc_segments`]). Retention also turns on compaction:
    /// a tick rewrites the live blocks, core chunks and shard blocks alike,
    /// of any file the new manifest references once fewer than a quarter
    /// of that file's blocks are still live, so the kept files stay
    /// mostly live.
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

    /// Writes one tick for `epoch`: one file holding every core chunk that
    /// changed since the last committed tick and a block for every shard
    /// to rewrite, followed by the manifest; then, under retention, the GC
    /// sweep. `pre` and `post` write the payload fragments before and
    /// after the entries, which the tick encodes whole and compares with
    /// the last committed core chunk by chunk; `encode(shard, block)` puts
    /// shard `shard`'s entries, ascending by id, into its block.
    /// Everything is encoded in place into one buffer the writer keeps
    /// from tick to tick; changed core chunks go from there to the file.
    ///
    /// On an error before the file is committed the writer keeps its last
    /// committed core, its block references and every dirty flag, so the
    /// next tick that succeeds rewrites whatever this one missed.
    pub fn tick(
        &mut self,
        epoch: usize,
        pre: impl FnOnce(&mut SnapshotWriter),
        post: impl FnOnce(&mut SnapshotWriter),
        mut encode: impl FnMut(usize, &mut BlockWriter<'_>),
        obs: &haccs_obs::Recorder,
    ) -> Result<TickStats, PersistError> {
        let mut span = obs.span("persist.encode");
        let mut w = SnapshotWriter::reuse(std::mem::take(&mut self.scratch));
        pre(&mut w);
        let pre_len = w.len();
        post(&mut w);
        let core_len = w.len();

        // which chunks and shards keep their blocks
        let (new_pre, new_post) = w.payload().split_at(pre_len);
        let (old_pre, old_post) = self.core.split_at(self.pre_len);
        let (pre_refs, post_refs) = self.chunks.split_at(self.pre_len.div_ceil(CHUNK));
        let mut kept: Vec<Option<BlockRef>> = unchanged(new_pre, old_pre, pre_refs)
            .chain(unchanged(new_post, old_post, post_refs))
            .collect();
        let mut rewrite = self.dirty.clone();
        let dirty = rewrite.iter().filter(|&&r| r).count();
        let compacted = self.compact(&mut kept, &mut rewrite);
        let chunks = kept.iter().filter(|c| c.is_none()).count();
        let mut stats = TickStats { chunks, dirty, compacted, ..TickStats::default() };

        let mut file = TickFileWriter::create(&self.dir, epoch, stats.blocks(), w)?;
        let pieces = chunk_ranges(0..pre_len).chain(chunk_ranges(pre_len..core_len));
        let chunks = kept
            .into_iter()
            .zip(pieces)
            .map(|(kept, range)| match kept {
                Some(b) => Ok(b),
                None => file.chunk(range),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shards = rewrite
            .iter()
            .enumerate()
            .map(|(s, &r)| {
                if !r {
                    return Ok(self.shards[s]);
                }
                file.block(|w| {
                    w.put_usize(s);
                    let count_at = w.reserve_u64();
                    let mut block = BlockWriter { w, entries: 0 };
                    encode(s, &mut block);
                    block.w.patch_u64(count_at, block.entries);
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        put_refs(&mut file.w, pre_len.div_ceil(CHUNK), &chunks, &shards);
        span.push_u("blocks", stats.blocks() as u64);
        span.push_u("chunks", stats.chunks as u64);
        span.push_u("bytes", file.len() as u64);
        span.finish();
        let (bytes, w) = file.commit(obs)?;
        stats.bytes = bytes;

        // committed: adopt the new core and blocks, and forget files
        // nothing references any more
        self.core.clear();
        self.core.extend_from_slice(w.payload());
        self.scratch = w.into_payload();
        self.pre_len = pre_len;
        if stats.blocks() > 0 {
            self.file_blocks.insert(epoch, stats.blocks());
        }
        self.chunks = chunks;
        self.shards = shards;
        self.dirty.fill(false);
        let live: BTreeSet<usize> =
            self.chunks.iter().chain(&self.shards).map(|b| b.epoch).collect();
        self.file_blocks.retain(|f, _| live.contains(f));
        if let Some(retention) = &mut self.retention {
            retention.written.insert(epoch, live);
            stats.gc = retention.sweep(&self.dir, obs)?;
        }
        Ok(stats)
    }

    /// Under retention, marks for rewriting every kept chunk and clean
    /// shard whose file would keep fewer than a quarter of its blocks live
    /// once the rest move out; returns how many clean shards it marked.
    fn compact(&self, kept: &mut [Option<BlockRef>], rewrite: &mut [bool]) -> usize {
        if self.retention.is_none() {
            return 0;
        }
        let mut live: BTreeMap<usize, usize> = BTreeMap::new();
        let clean = self.shards.iter().zip(&*rewrite).filter(|(_, &r)| !r).map(|(b, _)| b);
        for b in kept.iter().flatten().chain(clean) {
            *live.entry(b.epoch).or_default() += 1;
        }
        let sparse = |b: &BlockRef| live[&b.epoch] * 4 < self.file_blocks[&b.epoch];
        for chunk in kept.iter_mut() {
            if chunk.is_some_and(|b| sparse(&b)) {
                *chunk = None;
            }
        }
        let mut compacted = 0;
        for (b, r) in self.shards.iter().zip(rewrite.iter_mut()) {
            if !*r && sparse(b) {
                *r = true;
                compacted += 1;
            }
        }
        compacted
    }
}

/// The [`CHUNK`]-byte pieces of `range`; the last may be shorter.
fn chunk_ranges(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    range.clone().step_by(CHUNK).map(move |start| start..(start + CHUNK).min(range.end))
}

/// For each chunk of `new`, the block of `old`'s chunk at the same index
/// when the two are byte-equal; `refs` holds the blocks of `old`'s chunks.
fn unchanged<'a>(
    new: &'a [u8],
    old: &'a [u8],
    refs: &'a [BlockRef],
) -> impl Iterator<Item = Option<BlockRef>> + 'a {
    let mut old = old.chunks(CHUNK).zip(refs);
    new.chunks(CHUNK).map(move |chunk| old.next().filter(|(o, _)| *o == chunk).map(|(_, b)| *b))
}

/// What a retention sweep removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Tick files deleted.
    pub files_removed: usize,
    /// Bytes reclaimed across all deleted files.
    pub bytes_reclaimed: u64,
}

/// Retention state: how many manifests to keep, and the files each
/// manifest this writer committed references, so a sweep reads a manifest
/// from disk only when another writer wrote it (for example the run a
/// restore resumed).
#[derive(Debug)]
struct Retention {
    keep: usize,
    written: BTreeMap<usize, BTreeSet<usize>>,
}

impl Retention {
    fn new(keep: usize) -> Self {
        assert!(keep >= 1, "retention must keep at least the latest manifest");
        Retention { keep, written: BTreeMap::new() }
    }

    fn sweep(&mut self, dir: &Path, obs: &haccs_obs::Recorder) -> Result<GcStats, PersistError> {
        let mut span = obs.span("persist.gc");
        let out = self.sweep_inner(dir);
        let removed = out.as_ref().map_or(0, |s| s.files_removed);
        span.push_u("files_removed", removed as u64);
        span.finish();
        obs.inc("persist_gc_passes_total", 1);
        obs.inc("persist_gc_files_removed_total", removed as u64);
        out
    }

    fn sweep_inner(&mut self, dir: &Path) -> Result<GcStats, PersistError> {
        let io = |e| io_error(dir, e);
        let mut files: Vec<(usize, String)> = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let name = match entry.map_err(io)?.file_name().into_string() {
                Ok(n) => n,
                Err(_) => continue,
            };
            if let Some(epoch) = parse_numbered(&name, "manifest-", ".snap") {
                files.push((epoch, name));
            }
        }
        files.sort_unstable();
        let kept = &files[files.len().saturating_sub(self.keep)..];

        // the retained set: the kept manifests and every file they
        // reference
        let mut retained: BTreeSet<usize> = BTreeSet::new();
        for (epoch, name) in kept {
            retained.insert(*epoch);
            match self.written.get(epoch) {
                Some(refs) => retained.extend(refs),
                None => retained.extend(read_manifest(&dir.join(name))?.refs().map(|b| b.epoch)),
            }
        }
        self.written.retain(|epoch, _| kept.iter().any(|(k, _)| k == epoch));

        // nothing removed is a block a kept manifest needs, so a crash
        // mid-sweep leaves every kept manifest restorable
        let mut stats = GcStats::default();
        for (_, name) in files.iter().filter(|(epoch, _)| !retained.contains(epoch)) {
            let path = dir.join(name);
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            std::fs::remove_file(&path).map_err(|e| io_error(&path, e))?;
            stats.files_removed += 1;
            stats.bytes_reclaimed += len;
        }
        Ok(stats)
    }
}

/// Retention pass over a segmented-snapshot directory: keeps the newest
/// `keep` manifests plus **every file a kept manifest references** (core
/// chunks and clean shards legitimately point at blocks of much older
/// epochs), and deletes the other tick files. A file kept only for its
/// blocks is not guaranteed to restore by itself: the files its own
/// manifest references may be gone. Files not matching the canonical
/// tick-file name are untouched. [`SegmentWriter::with_retention`] runs
/// the same sweep after every tick, without re-reading the manifests it
/// wrote itself.
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
    use crate::MAX_LEN;
    use proptest::prelude::*;

    fn obs() -> haccs_obs::Recorder {
        haccs_obs::Recorder::disabled()
    }

    /// Per snapshot shard, its `(id, entry bytes)` pairs.
    type ShardEntries = Vec<Vec<(usize, Vec<u8>)>>;

    /// A synthetic snapshot: `pre` + per-client entries + `post`.
    type State = (Vec<u8>, ShardEntries, Vec<u8>);

    /// A synthetic snapshot of n clients, striped across shards by
    /// `id % n_shards`.
    fn synthetic(n: usize, n_shards: usize) -> State {
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

    fn monolithic((pre, shards, post): &State) -> Vec<u8> {
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

    /// One tick of `writer` over `state`.
    fn tick(
        writer: &mut SegmentWriter,
        epoch: usize,
        (pre, shards, post): &State,
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

    /// A fresh writer's first tick: every chunk and every shard.
    fn write_all(dir: &Path, epoch: usize, n: usize, n_shards: usize) -> (PathBuf, Vec<u8>) {
        let state = synthetic(n, n_shards);
        tick(&mut SegmentWriter::new(dir, n_shards), epoch, &state).unwrap();
        (dir.join(manifest_name(epoch)), monolithic(&state))
    }

    /// Rewrites the manifest of the tick file at `path` after `edit`,
    /// keeping the file's blocks.
    fn rewrite_manifest(path: &Path, edit: impl FnOnce(&mut SegmentManifest)) {
        let file = TickFile::read(path).unwrap();
        let mut manifest = file.manifest.clone();
        edit(&mut manifest);
        let mut w = SnapshotWriter::new();
        w.put_u8(TAG_TICK);
        w.put_usize(manifest.epoch);
        w.put_usize(file.blocks.len());
        for range in &file.blocks {
            w.put_bytes(&file.bytes[range.clone()]);
        }
        put_refs(&mut w, manifest.pre_chunks, &manifest.chunks, &manifest.shards);
        std::fs::write(path, w.finish()).unwrap();
    }

    fn epochs(refs: &[BlockRef]) -> Vec<usize> {
        refs.iter().map(|b| b.epoch).collect()
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
    fn reassembly_is_byte_identical_to_monolithic() {
        let dir = temp_dir("roundtrip");
        let (manifest_path, expected) = write_all(&dir, 3, 17, 4);
        assert_eq!(reassemble(&manifest_path, &obs()).unwrap(), expected);
        assert_eq!(dir_names(&dir), [manifest_name(3)], "a tick writes one file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shards_and_unchanged_chunks_reference_older_files() {
        // epoch 1 writes everything; epoch 2 rewrites shard 1 only, and its
        // manifest references epoch 1's file for shards 0 and 2 and for
        // both core chunks, which did not change
        let dir = temp_dir("incremental");
        let mut state = synthetic(9, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        let first = tick(&mut writer, 1, &state).unwrap();
        assert_eq!((first.chunks, first.dirty), (2, 3));

        // shard 1 dirtied: client 4's entry bytes change
        state.1[1][1].1 = entry(4, -1.0);
        writer.mark_dirty(1);
        let second = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((second.chunks, second.dirty, second.compacted), (0, 1, 0));

        let path2 = dir.join(manifest_name(2));
        let manifest = read_manifest(&path2).unwrap();
        assert_eq!((manifest.blocks, manifest.pre_chunks), (1, 1));
        assert_eq!(epochs(&manifest.shards), [1, 2, 1]);
        assert_eq!(epochs(&manifest.chunks), [1, 1]);
        assert_eq!(reassemble(&path2, &obs()).unwrap(), monolithic(&state));
        assert_eq!(dir_names(&dir), [manifest_name(1), manifest_name(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn core_chunks_are_reused_by_index_within_each_fragment() {
        // pre spans 2.5 chunks and post 3; the second tick grows pre by a
        // chunk and changes one byte of post's middle chunk, so pre's
        // third chunk (now full) and fourth (new) and post's middle one
        // are written, and post's outer chunks keep their blocks although
        // they moved a chunk further into the core
        let dir = temp_dir("chunks");
        let fill = |len: usize, seed: u8| -> Vec<u8> {
            (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
        };
        let mut state = (fill(CHUNK * 5 / 2, 1), synthetic(4, 2).1, fill(CHUNK * 3, 2));
        let mut writer = SegmentWriter::new(&dir, 2);
        let first = tick(&mut writer, 1, &state).unwrap();
        assert_eq!((first.chunks, first.dirty), (6, 2));

        state.0.extend(fill(CHUNK, 3));
        state.2[CHUNK + 7] ^= 1;
        let second = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((second.chunks, second.dirty), (3, 0));
        let path = dir.join(manifest_name(2));
        let manifest = read_manifest(&path).unwrap();
        assert_eq!((manifest.blocks, manifest.pre_chunks), (3, 4));
        assert_eq!(epochs(&manifest.chunks), [1, 1, 2, 2, 1, 2, 1]);
        assert_eq!(reassemble(&path, &obs()).unwrap(), monolithic(&state));

        // the same core again: every chunk keeps its block
        let third = tick(&mut writer, 3, &state).unwrap();
        assert_eq!(third.blocks(), 0);
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), monolithic(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tick_with_nothing_changed_writes_a_manifest_of_references() {
        let dir = temp_dir("clean-tick");
        let state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();
        let stats = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((stats.chunks, stats.dirty), (0, 0));
        let path = dir.join(manifest_name(2));
        assert_eq!(read_manifest(&path).unwrap().blocks, 0);
        assert_eq!(stats.bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(reassemble(&path, &obs()).unwrap(), monolithic(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ticks 1 and 2 over 12 clients in 3 shards, tick 2 rewriting only
    /// shard 0: its manifest references tick 1's file for the core
    /// chunks and shards 1 and 2.
    fn two_ticks(dir: &Path) -> PathBuf {
        let state = synthetic(12, 3);
        let mut writer = SegmentWriter::new(dir, 3);
        tick(&mut writer, 1, &state).unwrap();
        writer.mark_dirty(0);
        tick(&mut writer, 2, &state).unwrap();
        dir.join(manifest_name(2))
    }

    #[test]
    fn corrupting_a_referenced_file_is_rejected() {
        let dir = temp_dir("corrupt");
        let manifest_path = two_ticks(&dir);
        let victim = dir.join(manifest_name(1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m)
                if m.contains("checksum") && m.contains(&manifest_name(1))),
            "expected a checksum rejection naming the referenced file, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_referenced_file_is_io_error() {
        let dir = temp_dir("missing");
        let manifest_path = two_ticks(&dir);
        std::fs::remove_file(dir.join(manifest_name(1))).unwrap();
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
        rewrite_manifest(&manifest_path, |m| m.shards[2].block = m.blocks);
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("file holds 6 blocks")),
            "expected a missing-block rejection, got {err:?}"
        );

        let (manifest_path, _) = write_all(&dir, 4, 8, 4);
        rewrite_manifest(&manifest_path, |m| m.shards[2] = m.shards[3]);
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("holds shard 3")),
            "expected a wrong-shard rejection, got {err:?}"
        );

        let (manifest_path, _) = write_all(&dir, 4, 8, 4);
        rewrite_manifest(&manifest_path, |m| m.pre_chunks = 3);
        let err = reassemble(&manifest_path, &obs()).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("pre-entry chunks")),
            "expected a pre chunk count rejection, got {err:?}"
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
    fn earlier_layout_manifests_are_refused_by_name() {
        // the per-shard layout's manifest (tag 2: epoch, a core segment
        // entry and one entry per shard file) and the two-file layout's
        // (tag 4: epoch, the core inline, then a data-file entry per shard)
        let dir = temp_dir("old-layout");
        std::fs::create_dir_all(&dir).unwrap();
        let mut per_shard = SnapshotWriter::new();
        per_shard.put_u8(TAG_PER_SHARD);
        per_shard.put_usize(1);
        for file in ["core-000001.seg", "shard-0000-000001.seg"] {
            per_shard.put_str(file);
            per_shard.put_u64(10);
            per_shard.put_u64(7);
        }
        let mut inline_core = SnapshotWriter::new();
        inline_core.put_u8(TAG_INLINE_CORE);
        inline_core.put_usize(1);
        inline_core.put_bytes(b"pre");
        inline_core.put_bytes(b"post");
        inline_core.put_usize(1);
        inline_core.put_str("shards-000001.seg");
        inline_core.put_usize(0);
        inline_core.put_u64(10);
        inline_core.put_u64(7);
        for (w, layout) in [(per_shard, "per-shard"), (inline_core, "two-file")] {
            let path = dir.join(manifest_name(1));
            std::fs::write(&path, w.finish()).unwrap();
            for err in [read_manifest(&path).unwrap_err(), reassemble(&path, &obs()).unwrap_err()] {
                assert!(
                    matches!(&err, PersistError::Malformed(m) if m.contains(layout)),
                    "expected the {layout} layout to be named, got {err:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tick_file_past_the_flush_threshold_streams_byte_identically() {
        // 3 MB of entries: the file goes out in several flushes
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
        assert_eq!(reassemble(&dir.join(manifest_name(1)), &obs()).unwrap(), monolithic(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_shards_and_fragments_are_valid() {
        let dir = temp_dir("empty");
        let (manifest_path, expected) = write_all(&dir, 1, 2, 5); // shards 2..5 empty
        assert_eq!(reassemble(&manifest_path, &obs()).unwrap(), expected);

        // no pre, no post: a manifest of shards only
        let state = (Vec::new(), synthetic(3, 2).1, Vec::new());
        let stats = tick(&mut SegmentWriter::new(&dir, 2), 2, &state).unwrap();
        assert_eq!((stats.chunks, stats.dirty), (0, 2));
        assert_eq!(reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(), monolithic(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_tick_keeps_its_core_and_dirty_shards_for_the_next() {
        let dir = temp_dir("failed-tick");
        let mut state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();

        // a regular file where the directory should be fails the tick,
        // which changed shard 2 and the post chunk
        let aside = dir.with_extension("aside");
        std::fs::rename(&dir, &aside).unwrap();
        std::fs::write(&dir, b"in the way").unwrap();
        state.1[2][0].1 = entry(2, 9.0);
        state.2.push(7);
        writer.mark_dirty(2);
        assert!(matches!(tick(&mut writer, 2, &state), Err(PersistError::Io(_))));
        std::fs::remove_file(&dir).unwrap();
        std::fs::rename(&aside, &dir).unwrap();

        let stats = tick(&mut writer, 3, &state).unwrap();
        assert_eq!(
            (stats.chunks, stats.dirty),
            (1, 1),
            "the failed tick's changed chunk and dirty shard must be rewritten"
        );
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), monolithic(&state));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tick_that_fails_to_commit_leaves_no_file_behind() {
        // a directory squatting on the tick file's name makes the rename
        // fail: the temp file goes, and the previous manifest still
        // restores
        let dir = temp_dir("squat");
        let mut state = synthetic(6, 3);
        let mut writer = SegmentWriter::new(&dir, 3);
        tick(&mut writer, 1, &state).unwrap();
        let expected = monolithic(&state);

        std::fs::create_dir_all(dir.join(manifest_name(2)).join("squatter")).unwrap();
        state.1[0][0].1 = entry(0, 5.0);
        writer.mark_dirty(0);
        assert!(tick(&mut writer, 2, &state).is_err());
        assert_eq!(dir_names(&dir), [manifest_name(1), manifest_name(2)]);
        std::fs::remove_dir_all(dir.join(manifest_name(2))).unwrap();
        assert_eq!(reassemble(&dir.join(manifest_name(1)), &obs()).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_compacts_a_file_under_a_quarter_live() {
        // 8 shards and one pre and one post chunk: the first file holds
        // 10 blocks. Tick 2 changes pre and dirties 7 shards, which leaves
        // post's chunk and shard 7 live there: 2 of 10 is under a quarter,
        // so both move along and the first file can go
        let dir = temp_dir("compact");
        let mut state = synthetic(16, 8);
        let mut writer = SegmentWriter::new(&dir, 8).with_retention(1);
        tick(&mut writer, 1, &state).unwrap();
        state.0.push(2);
        (0..7).for_each(|s| writer.mark_dirty(s));
        let stats = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((stats.chunks, stats.dirty, stats.compacted), (2, 7, 1));
        assert_eq!(stats.gc.files_removed, 1);
        assert_eq!(dir_names(&dir), [manifest_name(2)]);

        // tick 3 changes pre and dirties 6 shards: post's chunk and shards
        // 6 and 7 keep 3 of the second file's 10 blocks live, at least a
        // quarter, so nothing moves
        state.0.push(3);
        (0..6).for_each(|s| writer.mark_dirty(s));
        let stats = tick(&mut writer, 3, &state).unwrap();
        assert_eq!((stats.chunks, stats.dirty, stats.compacted), (1, 6, 0));
        assert_eq!(dir_names(&dir), [manifest_name(2), manifest_name(3)]);
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), monolithic(&state));

        // without retention nothing is deleted, so nothing is compacted
        let dir2 = temp_dir("no-compact");
        let mut state = synthetic(16, 8);
        let mut writer = SegmentWriter::new(&dir2, 8);
        tick(&mut writer, 1, &state).unwrap();
        state.0.push(2);
        (0..7).for_each(|s| writer.mark_dirty(s));
        let stats = tick(&mut writer, 2, &state).unwrap();
        assert_eq!((stats.chunks, stats.compacted), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn gc_keeps_last_k_epochs() {
        let dir = temp_dir("gc-basic");
        let mut expects = Vec::new();
        for epoch in 1..=5 {
            expects.push(write_all(&dir, epoch, 4, 2));
        }
        let stats = gc_segments(&dir, 2, &obs()).unwrap();
        // epochs 1..=3 dropped
        assert_eq!(stats.files_removed, 3);
        assert!(stats.bytes_reclaimed > 0);
        assert_eq!(dir_names(&dir), [manifest_name(4), manifest_name(5)]);
        // surviving snapshots still restore bit-identically
        for (manifest_path, expected) in &expects[3..] {
            assert_eq!(&reassemble(manifest_path, &obs()).unwrap(), expected);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_every_file_a_kept_manifest_references() {
        let dir = temp_dir("gc-refs");
        let mut state = synthetic(4, 2);
        let mut writer = SegmentWriter::new(&dir, 2);
        tick(&mut writer, 1, &state).unwrap();
        // tick 2 changes pre and shard 0, so its manifest references tick
        // 1's file for post's chunk and shard 1
        state.0.push(2);
        state.1[0][0].1 = entry(0, 2.0);
        writer.mark_dirty(0);
        tick(&mut writer, 2, &state).unwrap();
        let stats = gc_segments(&dir, 1, &obs()).unwrap();
        assert_eq!(stats.files_removed, 0);
        assert_eq!(dir_names(&dir), [manifest_name(1), manifest_name(2)]);
        assert_eq!(reassemble(&dir.join(manifest_name(2)), &obs()).unwrap(), monolithic(&state));

        // tick 3 changes post and shard 1: its manifest references tick
        // 2's file (pre's chunk, shard 0) and nothing of tick 1's
        state.2.push(3);
        state.1[1][0].1 = entry(1, 3.0);
        writer.mark_dirty(1);
        tick(&mut writer, 3, &state).unwrap();
        let stats = gc_segments(&dir, 1, &obs()).unwrap();
        assert_eq!(stats.files_removed, 1);
        assert_eq!(dir_names(&dir), [manifest_name(2), manifest_name(3)]);
        assert_eq!(reassemble(&dir.join(manifest_name(3)), &obs()).unwrap(), monolithic(&state));
        // tick 2's file stays for its blocks; its own manifest needs tick
        // 1's file, so it no longer restores by itself
        assert!(matches!(
            reassemble(&dir.join(manifest_name(2)), &obs()).unwrap_err(),
            PersistError::Io(_)
        ));
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

    /// A real three-tick directory whose newest manifest references core
    /// chunks and shard blocks in every older file: 6 shards, pre changes
    /// every tick and post never, tick 2 rewrites shards 1 and 2, tick 3
    /// shard 2.
    fn three_ticks(dir: &Path) -> Vec<u8> {
        let mut state = synthetic(20, 6);
        let mut writer = SegmentWriter::new(dir, 6);
        tick(&mut writer, 1, &state).unwrap();
        for (epoch, dirty) in [(2, &[1, 2][..]), (3, &[2][..])] {
            state.0.push(epoch as u8);
            for &s in dirty {
                for (id, bytes) in &mut state.1[s] {
                    *bytes = entry(*id, epoch as f32);
                }
                writer.mark_dirty(s);
            }
            tick(&mut writer, epoch, &state).unwrap();
        }
        let manifest = read_manifest(&dir.join(manifest_name(3))).unwrap();
        assert_eq!(epochs(&manifest.chunks), [3, 1]);
        assert_eq!(epochs(&manifest.shards), [1, 2, 3, 1, 1, 1]);
        monolithic(&state)
    }

    /// The process's peak virtual memory size in bytes (`VmPeak`), where
    /// the platform reports it.
    fn vm_peak() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
        line.split_whitespace().nth(1)?.parse::<u64>().ok().map(|kb| kb * 1024)
    }

    #[test]
    fn a_tampered_tick_file_never_panics_the_reader() {
        // every edit is framed with a valid envelope, so it reaches the
        // parser: byte edits, the largest and a few over-large counts at
        // every 8-byte window, and truncation at every payload length, on
        // the newest file and on the oldest one it references
        let dir = temp_dir("tamper");
        let expected = three_ticks(&dir);
        let tip = dir.join(manifest_name(3));
        let peak = vm_peak();
        for victim in [3, 1] {
            let path = dir.join(manifest_name(victim));
            let original = std::fs::read(&path).unwrap();
            let payload = &original[HEADER_LEN..original.len() - 8];
            let read = |edited: &[u8]| {
                let mut w = SnapshotWriter::new();
                w.append_raw(edited);
                std::fs::write(&path, w.finish()).unwrap();
                let _ = read_manifest(&path);
                let _ = reassemble(&tip, &obs());
            };
            for at in 0..payload.len() {
                for flip in [0x01, 0xFF] {
                    let mut edited = payload.to_vec();
                    edited[at] ^= flip;
                    read(&edited);
                }
            }
            for at in 0..=payload.len() - 8 {
                for v in [u64::MAX, 1 << 40, MAX_LEN] {
                    let mut edited = payload.to_vec();
                    edited[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    read(&edited);
                }
            }
            for len in 0..payload.len() {
                read(&payload[..len]);
            }
            std::fs::write(&path, &original).unwrap();
        }
        assert_eq!(reassemble(&tip, &obs()).unwrap(), expected);
        // a count-sized allocation would reserve gigabytes for a count of
        // MAX_LEN; the reader must size nothing by a count it has not read
        if let (Some(before), Some(after)) = (peak, vm_peak()) {
            assert!(
                after < before + (1 << 30),
                "reading tampered files reserved {} MB of address space",
                (after - before) >> 20
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn no_corruption_of_a_referenced_file_reassembles(
            file in 1usize..=3,
            at in 0.0f64..1.0,
            bit in 0u32..8,
            truncate in any::<bool>(),
        ) {
            let dir = temp_dir("prop");
            let expected = three_ticks(&dir);
            let manifest = dir.join(manifest_name(3));
            prop_assert_eq!(&reassemble(&manifest, &obs()).unwrap(), &expected);

            // the newest file, or one of the two older files it uses
            let victim = dir.join(manifest_name(file));
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
