//! Streaming (out-of-core) construction core — DESIGN.md §11.
//!
//! A fresh build ([`HdIndex::build_with`](crate::HdIndex::build_with))
//! funnels through [`run`]: a two-pass pipeline over a [`VectorSource`]
//! whose working memory is capped by a [`BuildBudget`]. It writes
//! generation 0 through uncached pools, syncs it, and returns only its
//! [`BuildStats`]; the caller commits the generation and brings it up with
//! serving pools. A compaction builds nothing: it copies the live leaf
//! entries of the serving trees
//! ([`HdIndex::prepare_compaction`](crate::HdIndex::prepare_compaction)).
//!
//! ```text
//! pass 1 (once)      source ─chunks─► ref-dist rows ─► refdists.f32  (scratch, sequential)
//!                            │                └──────► per-reference [min, max] ─► RefGrid
//!                            └──────► vectors ───────► vector heap   (final file)
//!
//! pass 2 (per tree)  source ─chunks─► hilbert keys ─┐
//!                    refdists.f32 ─rows─► cell codes ┴─► records ─► ExternalSorter
//!                                             budget full? spill sorted runs
//!                    MergeReader ─sorted records─► BTree::bulk_load_stream
//! ```
//!
//! Pass 1 sees every reference distance, so the leaf grid
//! ([`RefGrid::fit`]) is known before pass 2 encodes the first record.
//!
//! Working memory never exceeds one chunk of vectors plus the sort buffer,
//! both sized from the [`BuildBudget`]; everything per-object lives in
//! sequential scratch files under `dir/build.tmp/`, charged to the IO
//! ledger page by page like every other block transfer. With an unbounded
//! budget the sorter never spills and the pipeline *is* the in-memory
//! build — one implementation, byte-identical output either way (the
//! external-sort proptests pin this down).
//!
//! Crash story: scratch files live only under `build.tmp/`;
//! [`sweep_tmp`] removes the whole directory on every open and after every
//! completed build, so debris of an interrupted build can never be
//! mistaken for index data (generation files are separately swept by
//! `remove_stale_generations`).

use crate::rdb::{self, RefGrid};
use crate::reference::ReferenceSet;
use crate::BuildStats;
use hd_btree::{BTree, EntrySource};
use hd_core::dataset::VectorSource;
use hd_core::partition::Partitioning;
use hd_hilbert::HilbertCurve;
use hd_storage::{
    BufferPool, BuildBudget, ExternalSorter, IoStats, MergeReader, Pager, VectorHeap,
    DEFAULT_PAGE_SIZE,
};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Scratch directory for spill runs and the ref-distance file, inside the
/// index directory. Never contains index data.
pub(crate) const BUILD_TMP: &str = "build.tmp";

/// Chunk-buffer reservation never exceeds this, however large the budget —
/// past a few hundred thousand points per chunk there is nothing to win.
const CHUNK_WANT_CAP: usize = 64 << 20;

/// Floor on points per chunk: below this, per-chunk overheads (pool
/// dispatch, syscalls) dominate. The chunk reservation's floor follows it.
const MIN_CHUNK_POINTS: usize = 256;

/// Buffered-IO size for the sequential ref-distance scratch file.
const RD_BUF: usize = 256 << 10;

/// Removes the scratch directory — crash debris at open, leftovers after a
/// completed build. Best-effort: the directory usually does not exist.
pub(crate) fn sweep_tmp(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir.join(BUILD_TMP));
}

/// Everything [`run`] needs besides the vector stream itself. The index's
/// generation module fills in the file paths of generation 0; the core
/// only streams.
pub(crate) struct BuildCtx<'a> {
    /// Per-axis Hilbert-grid domain, already adjusted for the metric.
    pub domain: (f32, f32),
    pub refs: &'a ReferenceSet,
    pub partitioning: &'a Partitioning,
    pub curves: &'a [HilbertCurve],
    /// Index directory (scratch goes to `dir/build.tmp/`).
    pub dir: &'a Path,
    /// Final path of the vector heap for this generation.
    pub heap_path: PathBuf,
    /// Final path of each RDB-tree file for this generation.
    pub tree_paths: Vec<PathBuf>,
    /// The working-memory cap. [`BuildBudget::unbounded`] reproduces the
    /// in-memory build.
    pub budget: BuildBudget,
}

/// Charges `bytes` of sequential scratch IO to the ledger in page units,
/// mirroring how the external sorter counts its runs.
fn charge(io: &IoStats, bytes: u64, write: bool) {
    for _ in 0..bytes.div_ceil(DEFAULT_PAGE_SIZE as u64) {
        if write {
            io.record_physical_write();
        } else {
            io.record_physical_read();
        }
    }
}

/// Computes ref-distance rows for one chunk, split across the global worker
/// pool: `rows[i*m..][..m]` = distances from chunk point `i` to every
/// reference. Each point's row is computed independently, so the result is
/// bit-identical to the sequential loop regardless of task count.
fn ref_dist_chunk(refs: &ReferenceSet, chunk: &[f32], dim: usize, rows: &mut [f32]) {
    let n = chunk.len() / dim;
    if n == 0 {
        return;
    }
    let m = rows.len() / n;
    let pool = hd_core::pool::global();
    let tasks = pool.threads().clamp(1, n);
    let base = n / tasks;
    let extra = n % tasks;
    let mut jobs: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = Vec::with_capacity(tasks);
    let mut tail = rows;
    let mut start = 0usize;
    for t in 0..tasks {
        let count = base + usize::from(t < extra);
        if count == 0 {
            continue;
        }
        let (mine, rest) = tail.split_at_mut(count * m);
        tail = rest;
        let s = start;
        jobs.push((
            t,
            Box::new(move || {
                let mut row = Vec::with_capacity(m);
                for (i, out) in mine.chunks_exact_mut(m).enumerate() {
                    refs.distances_to(&chunk[(s + i) * dim..(s + i + 1) * dim], &mut row);
                    out.copy_from_slice(&row);
                }
            }),
        ));
        start += count;
    }
    pool.run_scoped(jobs);
}

/// Per-chunk key/record encoding parameters (fixed across chunks of one
/// tree).
struct EncodeJob<'a> {
    partitioning: &'a Partitioning,
    curve: &'a HilbertCurve,
    group: usize,
    domain: (f32, f32),
    grid: &'a RefGrid,
    dim: usize,
    m: usize,
    key_len: usize,
    rec_len: usize,
}

/// Encodes sorter records — `hilbert_key ++ id_be ++ cell codes` per
/// point — in place into the record slots of `records`, for the points at
/// the front of `chunk` and `rowbytes`, split across the global worker
/// pool. `first_id` is the object id of the first point. The codes are the
/// scratch file's little-endian `f32` distances on the leaf grid.
fn encode_chunk(
    job: &EncodeJob<'_>,
    first_id: usize,
    chunk: &[f32],
    rowbytes: &[u8],
    records: &mut [u8],
) {
    let n = records.len() / job.rec_len;
    if n == 0 {
        return;
    }
    let pool = hd_core::pool::global();
    let tasks = pool.threads().clamp(1, n);
    let base = n / tasks;
    let extra = n % tasks;
    let mut jobs: Vec<(usize, Box<dyn FnOnce() + Send + '_>)> = Vec::with_capacity(tasks);
    let mut tail = records;
    let mut start = 0usize;
    for t in 0..tasks {
        let count = base + usize::from(t < extra);
        if count == 0 {
            continue;
        }
        let (mine, rest) = tail.split_at_mut(count * job.rec_len);
        tail = rest;
        let s = start;
        jobs.push((
            t,
            Box::new(move || {
                let (dim, m) = (job.dim, job.m);
                let mut sub = Vec::new();
                for (i, rec) in mine.chunks_exact_mut(job.rec_len).enumerate() {
                    let p = s + i;
                    job.partitioning.project_into(
                        &chunk[p * dim..(p + 1) * dim],
                        job.group,
                        &mut sub,
                    );
                    let (key, codes) = rec.split_at_mut(job.key_len);
                    let id = (first_id + p) as u64;
                    rdb::encode_key_into(job.curve, &sub, job.domain, id, key);
                    let row = &rowbytes[p * 4 * m..(p + 1) * 4 * m];
                    for (r, (code, d)) in codes.iter_mut().zip(row.chunks_exact(4)).enumerate() {
                        *code = job
                            .grid
                            .encode(r, f32::from_le_bytes([d[0], d[1], d[2], d[3]]));
                    }
                }
            }),
        ));
        start += count;
    }
    pool.run_scoped(jobs);
}

/// Adapts a [`MergeReader`] of `key ++ value` records into the borrowed
/// entry stream [`BTree::bulk_load_stream`] consumes.
struct RecordSource {
    reader: MergeReader,
    key_len: usize,
}

impl EntrySource for RecordSource {
    fn next_entry(&mut self) -> io::Result<Option<(&[u8], &[u8])>> {
        let key_len = self.key_len;
        Ok(self.reader.next()?.map(|rec| rec.split_at(key_len)))
    }
}

/// The streaming build pipeline (module docs): pass 1 streams vectors into
/// the heap and ref-dist rows into scratch and fits the leaf grid; pass 2
/// streams each tree's records through an external sort into a bulk load.
/// The `j`-th source vector becomes object `j`. Returns the build's stats
/// and the grid its leaves are encoded on.
///
/// Every file is written through an uncached pool — caching what a build
/// writes would only hold a copy of the index it is about to hand over —
/// and synced before `run` returns, so the caller's meta rename can commit
/// the generation at once.
pub(crate) fn run(
    ctx: &BuildCtx<'_>,
    src: &mut dyn VectorSource,
) -> io::Result<(BuildStats, RefGrid)> {
    let dim = src.dim();
    let m = ctx.refs.m();
    let n = src.len();
    let tmp = ctx.dir.join(BUILD_TMP);
    std::fs::create_dir_all(&tmp)?;
    let io = Arc::new(IoStats::new());

    // One reservation covers the chunk-resident state of both passes:
    // vectors (4·dim) and ref-dist rows in float and byte form (8·m),
    // per-point. Records are encoded in place in the sorter's buffer,
    // which the sorter charges. The grant shapes throughput only;
    // correctness is identical at any chunk size.
    let per_point = 4 * dim + 8 * m;
    let want = (ctx.budget.capacity() / 4)
        .min(CHUNK_WANT_CAP)
        .max(per_point * MIN_CHUNK_POINTS);
    let chunk_grant = ctx.budget.reserve(per_point * MIN_CHUNK_POINTS, want);
    let chunk_points = (chunk_grant.bytes() / per_point).max(MIN_CHUNK_POINTS);

    // Pass 1: one sequential sweep — vectors into the heap, ref-dist rows
    // into the scratch file, chunk-parallel on the worker pool.
    let rd_path = tmp.join("refdists.f32");
    let mut heap = VectorHeap::create(&ctx.heap_path, dim, 0)?;
    let mut chunk: Vec<f32> = Vec::new();
    let mut rowbytes: Vec<u8> = Vec::new();
    let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); m];
    {
        let _s = hd_telemetry::span!("build_refdist_nanos");
        let mut writer = BufWriter::with_capacity(RD_BUF, File::create(&rd_path)?);
        let mut rows: Vec<f32> = Vec::new();
        let mut written = 0u64;
        loop {
            let got = src.next_chunk(chunk_points, &mut chunk)?;
            if got == 0 {
                break;
            }
            rows.resize(got * m, 0.0);
            ref_dist_chunk(ctx.refs, &chunk, dim, &mut rows);
            for row in rows.chunks_exact(m) {
                for (range, &d) in ranges.iter_mut().zip(row) {
                    *range = (range.0.min(d), range.1.max(d));
                }
            }
            rowbytes.clear();
            rowbytes.extend(rows.iter().flat_map(|d| d.to_le_bytes()));
            writer.write_all(&rowbytes)?;
            written += rowbytes.len() as u64;
            heap.append_all(chunk.chunks_exact(dim))?;
        }
        writer.flush()?;
        charge(&io, written, true);
    }
    let grid = RefGrid::fit(&ranges);

    // Pass 2: per tree, replay source + scratch rows chunk by chunk,
    // encode records in parallel, external-sort them under the budget, and
    // stream the merge straight into the bottom-up bulk load.
    let mut spilled_runs = 0u64;
    let mut spilled_bytes = 0u64;
    for (g, curve) in ctx.curves.iter().enumerate() {
        let key_len = rdb::key_len(curve.key_len());
        let val_len = rdb::val_len(m);
        let rec_len = key_len + val_len;
        // Ask for enough to sort in memory; a bounded budget grants less
        // and the sorter spills runs instead.
        let sort_want = n.saturating_mul(rec_len + 4).saturating_add(64);
        let mut sorter = ExternalSorter::new(
            &tmp,
            format!("tree{g}"),
            rec_len,
            &ctx.budget,
            sort_want,
            Arc::clone(&io),
        )?;
        src.reset()?;
        let mut rd = BufReader::with_capacity(RD_BUF, File::open(&rd_path)?);
        let mut read_bytes = 0u64;
        let mut base = 0usize;
        let job = EncodeJob {
            partitioning: ctx.partitioning,
            curve,
            group: g,
            domain: ctx.domain,
            grid: &grid,
            dim,
            m,
            key_len,
            rec_len,
        };
        loop {
            // Replaying a chunk and encoding its records in place in the
            // sorter's buffer is the encode stage; the sorter's spills are
            // the sort stage.
            let got = {
                let _s = hd_telemetry::span!("build_encode_nanos");
                let got = src.next_chunk(chunk_points, &mut chunk)?;
                rowbytes.resize(got * m * 4, 0);
                rd.read_exact(&mut rowbytes)?;
                read_bytes += rowbytes.len() as u64;
                got
            };
            if got == 0 {
                break;
            }
            let mut done = 0;
            while done < got {
                let slots = {
                    let _s = hd_telemetry::span!("build_sort_nanos");
                    sorter.push_slots(got - done)?
                };
                let _s = hd_telemetry::span!("build_encode_nanos");
                let take = slots.len() / rec_len;
                encode_chunk(
                    &job,
                    base + done,
                    &chunk[done * dim..],
                    &rowbytes[done * m * 4..],
                    slots,
                );
                done += take;
            }
            base += got;
        }
        charge(&io, read_bytes, false);
        let reader = {
            let _s = hd_telemetry::span!("build_sort_nanos");
            sorter.finish()?
        };
        spilled_runs += reader.spilled_runs() as u64;
        spilled_bytes += reader.spilled_bytes();

        let pool = Arc::new(BufferPool::new(Pager::create(&ctx.tree_paths[g])?, 0));
        let mut tree = BTree::create(pool, key_len, val_len)?;
        let mut records = RecordSource { reader, key_len };
        {
            let _s = hd_telemetry::span!("build_bulkload_nanos");
            tree.bulk_load_stream(&mut records, 1.0)?;
        }
        if hd_telemetry::enabled() {
            // The merge happens inside the bulk load's next_entry calls;
            // the reader times it, we only report it. (Nested inside
            // build_bulkload_nanos, so the four stages are not additive.)
            hd_telemetry::global()
                .histogram(
                    "build_merge_nanos",
                    "nanoseconds spent in the k-way spill-run merge during bulk load",
                )
                .record(records.reader.merge_nanos());
        }
        tree.pool().sync()?;
    }
    heap.pool().sync()?;
    std::fs::remove_file(&rd_path)?;
    // Empty now unless a concurrent build shares the directory (it never
    // does) — and a populated directory is swept at next open anyway.
    let _ = std::fs::remove_dir(&tmp);

    let stats = BuildStats {
        spilled_runs,
        spilled_bytes,
        scratch_io: io.snapshot(),
    };
    Ok((stats, grid))
}
