//! External merge sort of fixed-width records under a [`BuildBudget`].
//!
//! The streaming index build produces, per RDB-tree, n records of
//! `key ++ value` bytes (Hilbert key + id, then the reference-distance
//! block) that must arrive at `bulk_load` in key order. At billion scale
//! those records cannot sit in one `Vec`; this module is the classic
//! external-memory answer (DESIGN.md §11):
//!
//! * [`ExternalSorter`] accumulates records in a flat buffer sized from a
//!   budget reservation. When the buffer fills it **spills a sorted run** —
//!   records written in key order to a numbered `.run` file — and starts
//!   over. Sorting permutes an index array over the flat buffer (no
//!   per-record allocation); the permutation is applied while writing the
//!   run, so no second buffer is needed.
//! * [`MergeReader`] replays the runs as one sorted stream. With no spills
//!   it iterates the final in-memory run directly (this *is* the in-memory
//!   sort path, as a degenerate case); with spills it runs a **loser-tree
//!   k-way merge** over buffered run readers — one comparison per tree
//!   level per record, the textbook tournament structure.
//!
//! All file traffic is charged to an [`IoStats`] ledger in
//! [`DEFAULT_PAGE_SIZE`] units, so spill/merge block transfers land in the
//! same `IoSnapshot` accounting the query path reports. Run files live in a
//! caller-provided temp directory; the sorter/reader unlink their own runs
//! on drop, and the index build removes the whole directory on open (crash
//! cleanup) and after a successful build.
//!
//! The in-memory sort and the merge order records by one comparator: the
//! first 16 bytes as a big-endian integer, then the rest of the record,
//! then input position — exactly the order of a stable byte-wise sort, so
//! the output does not depend on how records were split into runs. That is
//! what makes spill-path and in-memory-path tree files byte-identical.
//! (Build records embed a unique id inside the key, so input position never
//! decides there.) The in-memory sort first sorts one `u32` per record
//! holding the top bits of its prefix above its index, so most of the order
//! comes from an integer sort over a contiguous array, and a record costs
//! its bytes plus 4.

use crate::budget::{BuildBudget, BuildReservation};
use crate::page::DEFAULT_PAGE_SIZE;
use crate::stats::IoStats;
use std::cmp::Ordering;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Smallest record count a sort buffer holds regardless of budget pressure
/// (the reservation floor); keeps degenerate budgets making progress while
/// staying small enough that tests can force many spills.
const MIN_BUFFER_RECORDS: usize = 16;

/// Per-run merge read-ahead ceiling. The actual buffer is
/// `clamp(granted/runs, one page, this)` rounded to whole records.
const MAX_RUN_READ_BUF: usize = 256 * 1024;

/// The first 16 bytes of a record as a big-endian integer (zero-padded when
/// the record is shorter), so comparing prefixes compares those bytes.
#[inline]
fn prefix(rec: &[u8]) -> u128 {
    match rec.first_chunk::<16>() {
        Some(head) => u128::from_be_bytes(*head),
        None => {
            let mut head = [0u8; 16];
            head[..rec.len()].copy_from_slice(rec);
            u128::from_be_bytes(head)
        }
    }
}

/// The one record order of both sort paths: the 16-byte big-endian prefix,
/// then the rest of the record, then input position (`pos_a`, `pos_b`) —
/// the order a stable byte-wise sort gives. The in-memory sort passes
/// buffer indices; the merge passes run numbers, since an earlier run holds
/// earlier input.
#[inline]
fn record_order(a: &[u8], pos_a: usize, b: &[u8], pos_b: usize) -> Ordering {
    prefix(a)
        .cmp(&prefix(b))
        .then_with(|| a.get(16..).cmp(&b.get(16..)))
        .then(pos_a.cmp(&pos_b))
}

/// Sorts fixed-width records under a byte budget, spilling sorted runs to
/// disk as the buffer fills. See the module docs.
pub struct ExternalSorter {
    dir: PathBuf,
    tag: String,
    rec_len: usize,
    /// Flat record buffer; capacity = `cap_recs * rec_len`.
    buf: Vec<u8>,
    /// Records the buffer may hold before spilling.
    cap_recs: usize,
    runs: Vec<PathBuf>,
    spilled_bytes: u64,
    count: u64,
    io: Arc<IoStats>,
    reservation: BuildReservation,
}

impl ExternalSorter {
    /// Creates a sorter for `rec_len`-byte records, spilling into
    /// `dir/tag.N.run`. The sort buffer is sized from `budget` (charged
    /// `rec_len + 4` bytes per record: the record plus its sort-index
    /// entry); `want_bytes` caps how much of the budget one sorter grabs.
    pub fn new(
        dir: impl AsRef<Path>,
        tag: impl Into<String>,
        rec_len: usize,
        budget: &BuildBudget,
        want_bytes: usize,
        io: Arc<IoStats>,
    ) -> io::Result<Self> {
        assert!(rec_len > 0, "record length must be positive");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let per_rec = rec_len + std::mem::size_of::<u32>();
        let reservation = budget.reserve(MIN_BUFFER_RECORDS * per_rec, want_bytes.max(per_rec));
        let cap_recs = (reservation.bytes() / per_rec).max(MIN_BUFFER_RECORDS);
        Ok(Self {
            dir,
            tag: tag.into(),
            rec_len,
            buf: Vec::with_capacity(cap_recs.min(1 << 20) * rec_len),
            cap_recs,
            runs: Vec::new(),
            spilled_bytes: 0,
            count: 0,
            io,
            reservation,
        })
    }

    /// Appends one record (`rec.len()` must equal the sorter's `rec_len`).
    pub fn push(&mut self, rec: &[u8]) -> io::Result<()> {
        assert_eq!(rec.len(), self.rec_len, "record size mismatch");
        self.push_slots(1)?.copy_from_slice(rec);
        Ok(())
    }

    /// Appends up to `max` records for the caller to write in place, and
    /// returns them: a whole number (at least one when `max > 0`) of
    /// zeroed `rec_len`-byte slots, as many as fit in the buffer, after a
    /// spill if it was full. Each returned slot counts as pushed, so the
    /// caller must fill every one before the next call.
    pub fn push_slots(&mut self, max: usize) -> io::Result<&mut [u8]> {
        let mut held = self.buf.len() / self.rec_len;
        if held >= self.cap_recs && max > 0 {
            self.spill()?;
            held = 0;
        }
        let take = max.min(self.cap_recs - held);
        let start = self.buf.len();
        self.buf.resize(start + take * self.rec_len, 0);
        self.count += take as u64;
        Ok(&mut self.buf[start..])
    }

    /// Records pushed so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sort order of the records currently buffered, as indices into the
    /// flat buffer, by [`record_order`] with the index as input position.
    ///
    /// Each `u32` first carries the top bits of its record's prefix above
    /// the index bits, so one integer sort over a contiguous array does most
    /// of the work; only records whose top bits tie are then compared in
    /// full, group by group. The order is total, so unstable sorts give the
    /// stable result, and the array is the `4` bytes per record the sorter
    /// is charged for.
    fn sorted_order(&self) -> Vec<u32> {
        let rl = self.rec_len;
        let n = self.buf.len() / rl;
        let rec = |i: u32| &self.buf[i as usize * rl..(i as usize + 1) * rl];
        // The index takes the low `idx_bits`, the prefix's top bits the rest.
        let idx_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        let top = |r: &[u8]| prefix(r).checked_shr(96 + idx_bits).unwrap_or(0) as u64;
        let mut keys: Vec<u32> = self
            .buf
            .chunks_exact(rl)
            .enumerate()
            .map(|(i, r)| ((top(r) << idx_bits) | i as u64) as u32)
            .collect();
        keys.sort_unstable();
        let idx_mask = ((1u64 << idx_bits) - 1) as u32;
        for group in
            keys.chunk_by_mut(|a, b| u64::from(*a) >> idx_bits == u64::from(*b) >> idx_bits)
        {
            for k in group.iter_mut() {
                *k &= idx_mask;
            }
            group.sort_unstable_by(|&a, &b| record_order(rec(a), a as usize, rec(b), b as usize));
        }
        keys
    }

    /// Writes the buffered records to a fresh run file in sorted order and
    /// clears the buffer.
    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let order = self.sorted_order();
        let path = self
            .dir
            .join(format!("{}.{}.run", self.tag, self.runs.len()));
        let mut file = io::BufWriter::with_capacity(64 * 1024, File::create(&path)?);
        let rl = self.rec_len;
        for &i in &order {
            file.write_all(&self.buf[i as usize * rl..(i as usize + 1) * rl])?;
        }
        file.flush()?;
        let bytes = (order.len() * rl) as u64;
        self.spilled_bytes += bytes;
        for _ in 0..(bytes as usize).div_ceil(DEFAULT_PAGE_SIZE) {
            self.io.record_physical_write();
        }
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Finishes the sort and returns a reader over all records in key
    /// order. With no spilled runs the buffered records are sorted and
    /// served from memory; otherwise the tail is spilled too and a
    /// loser-tree merge over the run files takes over (the buffer is freed
    /// and its budget re-used for merge read-ahead). Run files are
    /// unlinked as the reader drops; a sorter abandoned on an error path
    /// leaves its runs for the caller's temp-directory sweep.
    pub fn finish(mut self) -> io::Result<MergeReader> {
        if self.runs.is_empty() {
            let order = self.sorted_order();
            return Ok(MergeReader {
                rec_len: self.rec_len,
                remaining: self.count,
                total: self.count,
                spilled_runs: 0,
                spilled_bytes: 0,
                cur: Vec::new(),
                merge_nanos: 0,
                io: self.io,
                _reservation: self.reservation,
                source: Source::Memory {
                    buf: self.buf,
                    order,
                    pos: 0,
                },
            });
        }
        self.spill()?;
        self.buf = Vec::new();
        let runs = std::mem::take(&mut self.runs);
        // Merge read-ahead: split the freed sort grant across the runs,
        // whole records, at least one page, at most MAX_RUN_READ_BUF each.
        let per_run_bytes = ((self.reservation.bytes() / runs.len())
            .clamp(DEFAULT_PAGE_SIZE, MAX_RUN_READ_BUF)
            / self.rec_len)
            .max(1)
            * self.rec_len;
        let mut cursors = Vec::with_capacity(runs.len());
        for path in runs {
            cursors.push(RunCursor::open(path, self.rec_len, per_run_bytes)?);
        }
        let excess = self
            .reservation
            .bytes()
            .saturating_sub(cursors.len() * per_run_bytes);
        self.reservation.shrink(excess);
        let tree = LoserTree::build(&mut cursors, self.rec_len, &self.io)?;
        Ok(MergeReader {
            rec_len: self.rec_len,
            remaining: self.count,
            total: self.count,
            spilled_runs: cursors.len(),
            spilled_bytes: self.spilled_bytes,
            cur: vec![0u8; self.rec_len],
            merge_nanos: 0,
            io: self.io,
            _reservation: self.reservation,
            source: Source::Runs { cursors, tree },
        })
    }
}

/// One spilled run being replayed: a file read block-at-a-time into a
/// record-aligned buffer, unlinked on drop.
struct RunCursor {
    path: PathBuf,
    file: File,
    buf: Vec<u8>,
    buf_cap: usize,
    /// Byte offset of the current record within `buf`.
    pos: usize,
    exhausted: bool,
    rec_len: usize,
}

impl RunCursor {
    fn open(path: PathBuf, rec_len: usize, buf_bytes: usize) -> io::Result<Self> {
        let file = File::open(&path)?;
        Ok(Self {
            path,
            file,
            buf: Vec::new(),
            buf_cap: buf_bytes,
            pos: 0,
            exhausted: false,
            rec_len,
        })
    }

    /// Refills the block buffer; returns whether any records are available.
    fn refill(&mut self, io: &IoStats) -> io::Result<bool> {
        if self.exhausted {
            return Ok(false);
        }
        self.buf.resize(self.buf_cap, 0);
        let mut filled = 0usize;
        while filled < self.buf_cap {
            let got = self.file.read(&mut self.buf[filled..])?;
            if got == 0 {
                break;
            }
            filled += got;
        }
        self.buf.truncate(filled);
        self.pos = 0;
        if filled == 0 {
            self.exhausted = true;
            return Ok(false);
        }
        debug_assert_eq!(filled % self.rec_len, 0, "run file truncated mid-record");
        for _ in 0..filled.div_ceil(DEFAULT_PAGE_SIZE) {
            io.record_physical_read();
        }
        Ok(true)
    }

    /// The record under the cursor, if any (refilling as needed).
    fn head(&mut self, io: &IoStats) -> io::Result<Option<&[u8]>> {
        if self.pos >= self.buf.len() && !self.refill(io)? {
            return Ok(None);
        }
        Ok(Some(&self.buf[self.pos..self.pos + self.rec_len]))
    }

    fn advance(&mut self) {
        self.pos += self.rec_len;
    }
}

impl Drop for RunCursor {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Tournament (loser) tree over `k` run cursors: internal node `i` holds
/// the *loser* of its sub-tournament, slot 0 the overall winner. Popping
/// the winner replays one leaf-to-root path — ⌈log₂ k⌉ comparisons per
/// record instead of k − 1. Leaves are padded to a power of two with
/// virtual exhausted runs so parent arithmetic stays trivial.
struct LoserTree {
    /// Slot 0: overall winner. Slots 1..cap: loser of internal node `i`
    /// (leaf `r` sits at conceptual position `cap + r`, parent `(cap+r)/2`).
    node: Vec<usize>,
    /// Padded leaf count (`k.next_power_of_two()`).
    cap: usize,
}

/// A run index meaning "exhausted" — loses to every live run.
const RUN_DONE: usize = usize::MAX;

impl LoserTree {
    fn build(cursors: &mut [RunCursor], rec_len: usize, io: &IoStats) -> io::Result<Self> {
        let k = cursors.len();
        debug_assert!(k >= 1);
        // Prime every cursor so all comparisons see real heads.
        for c in cursors.iter_mut() {
            c.head(io)?;
        }
        let cap = k.next_power_of_two();
        let mut node = vec![RUN_DONE; cap.max(1)];
        // Play the full tournament bottom-up: `winners[i]` is the winner of
        // internal node `i` (scratch; only the losers persist).
        let mut winners = vec![RUN_DONE; 2 * cap];
        for (r, w) in winners[cap..cap + k].iter_mut().enumerate() {
            *w = r;
        }
        for i in (1..cap).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            if Self::beats(cursors, a, b, rec_len) {
                winners[i] = a;
                node[i] = b;
            } else {
                winners[i] = b;
                node[i] = a;
            }
        }
        node[0] = winners[1];
        Ok(Self { node, cap })
    }

    /// Current overall winner.
    fn winner(&self) -> usize {
        self.node[0]
    }

    /// Re-plays leaf `r`'s path after its head changed (advanced or
    /// exhausted): carry the candidate up, swapping with any stored loser
    /// that beats it. O(log k).
    fn replay(&mut self, cursors: &[RunCursor], r: usize, rec_len: usize) {
        let mut winner = r;
        let mut i = (self.cap + r) / 2;
        while i >= 1 {
            if Self::beats(cursors, self.node[i], winner, rec_len) {
                std::mem::swap(&mut self.node[i], &mut winner);
            }
            i /= 2;
        }
        self.node[0] = winner;
    }

    /// Whether run `a`'s head sorts strictly before run `b`'s by
    /// [`record_order`]. Exhausted (or virtual) runs lose to everything;
    /// equal records break toward the lower run index (earlier input).
    fn beats(cursors: &[RunCursor], a: usize, b: usize, rec_len: usize) -> bool {
        match (
            Self::peek(cursors, a, rec_len),
            Self::peek(cursors, b, rec_len),
        ) {
            (None, _) => false,
            (_, None) => true,
            (Some(ra), Some(rb)) => record_order(ra, a, rb, b).is_lt(),
        }
    }

    /// The buffered head of run `r` (no refill — cursors are kept primed).
    fn peek(cursors: &[RunCursor], r: usize, rec_len: usize) -> Option<&[u8]> {
        if r == RUN_DONE || r >= cursors.len() {
            return None;
        }
        let c = &cursors[r];
        if c.pos >= c.buf.len() {
            return None;
        }
        Some(&c.buf[c.pos..c.pos + rec_len])
    }
}

/// Where a [`MergeReader`] pulls records from.
enum Source {
    /// No spill happened: records are served from the sorted in-memory
    /// buffer via the permutation `order`.
    Memory {
        buf: Vec<u8>,
        order: Vec<u32>,
        pos: usize,
    },
    /// Spilled runs merged through the loser tree.
    Runs {
        cursors: Vec<RunCursor>,
        tree: LoserTree,
    },
}

/// Sorted record stream out of an [`ExternalSorter`] (lending iterator:
/// each `next` borrow is valid until the next call).
pub struct MergeReader {
    rec_len: usize,
    remaining: u64,
    total: u64,
    spilled_runs: usize,
    spilled_bytes: u64,
    /// Copy of the record being lent out on the merge path — the winner's
    /// cursor advances (and may refill its block buffer) before `next`
    /// returns, so the caller cannot borrow the cursor's buffer directly.
    cur: Vec<u8>,
    /// Nanoseconds spent inside the k-way merge machinery (block refills +
    /// tournament replays); build telemetry reads this at end of stream.
    merge_nanos: u64,
    io: Arc<IoStats>,
    _reservation: BuildReservation,
    source: Source,
}

impl MergeReader {
    /// Total records the stream will yield.
    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Record width in bytes.
    pub fn rec_len(&self) -> usize {
        self.rec_len
    }

    /// Runs that were spilled to disk (0 = pure in-memory sort).
    pub fn spilled_runs(&self) -> usize {
        self.spilled_runs
    }

    /// Bytes written to spill files.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Nanoseconds spent in merge machinery so far (0 on the in-memory
    /// path, where there is nothing to merge).
    pub fn merge_nanos(&self) -> u64 {
        self.merge_nanos
    }

    /// The next record in sort order, or `None` at end of stream.
    #[allow(clippy::should_implement_trait)] // lending iterator: borrows self
    pub fn next(&mut self) -> io::Result<Option<&[u8]>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        match &mut self.source {
            Source::Memory { buf, order, pos } => {
                let i = order[*pos] as usize;
                *pos += 1;
                Ok(Some(&buf[i * self.rec_len..(i + 1) * self.rec_len]))
            }
            Source::Runs { cursors, tree } => {
                let t = std::time::Instant::now();
                let r = tree.winner();
                debug_assert_ne!(r, RUN_DONE, "winner exhausted before count ran out");
                {
                    let c = &cursors[r];
                    self.cur.clear();
                    self.cur
                        .extend_from_slice(&c.buf[c.pos..c.pos + self.rec_len]);
                }
                cursors[r].advance();
                // Refill eagerly so the replay compares real heads.
                cursors[r].head(&self.io)?;
                tree.replay(cursors, r, self.rec_len);
                self.merge_nanos += t.elapsed().as_nanos() as u64;
                Ok(Some(&self.cur))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoSnapshot;
    use proptest::prelude::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_extsort_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Deterministic pseudo-random fixed-width records with unique key
    /// prefixes (a counter scrambled into the first bytes).
    fn records(n: usize, rec_len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                let mut rec = vec![0u8; rec_len];
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rec[..8].copy_from_slice(&state.to_be_bytes());
                rec[8..16].copy_from_slice(&(i as u64).to_be_bytes());
                for (j, b) in rec[16..].iter_mut().enumerate() {
                    *b = (state >> (j % 8)) as u8;
                }
                rec
            })
            .collect()
    }

    fn drain(mut reader: MergeReader) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(rec) = reader.next().unwrap() {
            out.push(rec.to_vec());
        }
        out
    }

    fn sort_under_budget(
        dir: &Path,
        recs: &[Vec<u8>],
        budget_bytes: usize,
    ) -> (Vec<Vec<u8>>, usize, IoSnapshot) {
        let rec_len = recs[0].len();
        let budget = if budget_bytes == usize::MAX {
            BuildBudget::unbounded()
        } else {
            BuildBudget::new(budget_bytes)
        };
        let io = Arc::new(IoStats::new());
        let mut sorter =
            ExternalSorter::new(dir, "t", rec_len, &budget, budget_bytes, Arc::clone(&io)).unwrap();
        for r in recs {
            sorter.push(r).unwrap();
        }
        let reader = sorter.finish().unwrap();
        let runs = reader.spilled_runs();
        (drain(reader), runs, io.snapshot())
    }

    #[test]
    fn in_memory_path_sorts_without_spilling() {
        let dir = test_dir("mem");
        let recs = records(500, 24, 7);
        let (sorted, runs, io) = sort_under_budget(&dir, &recs, usize::MAX);
        assert_eq!(runs, 0, "unbounded budget must not spill");
        assert_eq!(io.physical_writes, 0);
        let mut expect = recs.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn spill_path_matches_in_memory_path_exactly() {
        let dir = test_dir("spill");
        let recs = records(1000, 32, 11);
        let (reference, _, _) = sort_under_budget(&dir.join("a"), &recs, usize::MAX);
        // Budget small enough for many runs: 1000 recs × 36 charged bytes.
        for budget in [600usize, 1200, 2500, 9000] {
            let (sorted, runs, io) = sort_under_budget(&dir.join("b"), &recs, budget);
            assert!(
                runs >= 2,
                "budget {budget} must force spills, got {runs} runs"
            );
            assert_eq!(sorted, reference, "budget {budget}");
            assert!(io.physical_writes > 0 && io.physical_reads > 0);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_files_are_unlinked_when_the_reader_drops() {
        let dir = test_dir("cleanup");
        let recs = records(400, 16, 3);
        let budget = BuildBudget::new(800);
        let io = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(&dir, "c", 16, &budget, 800, io).unwrap();
        for r in &recs {
            sorter.push(r).unwrap();
        }
        let mut reader = sorter.finish().unwrap();
        assert!(reader.spilled_runs() >= 1);
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        while reader.next().unwrap().is_some() {}
        drop(reader);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "runs must be unlinked with the reader"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn budget_is_released_after_the_reader_drops() {
        let dir = test_dir("budget");
        let recs = records(300, 16, 5);
        let budget = BuildBudget::new(4096);
        let io = Arc::new(IoStats::new());
        let mut sorter = ExternalSorter::new(&dir, "b", 16, &budget, 4096, io).unwrap();
        assert!(budget.used() > 0, "sorter reserves working memory up front");
        for r in &recs {
            sorter.push(r).unwrap();
        }
        let reader = sorter.finish().unwrap();
        assert!(budget.used() > 0, "merge read-ahead still charged");
        drop(reader);
        assert_eq!(budget.used(), 0, "all working memory returned");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn single_record_and_empty_streams() {
        let dir = test_dir("edge");
        let budget = BuildBudget::unbounded();
        let io = Arc::new(IoStats::new());
        let sorter = ExternalSorter::new(&dir, "e", 8, &budget, 1 << 20, Arc::clone(&io)).unwrap();
        assert!(sorter.is_empty());
        let mut reader = sorter.finish().unwrap();
        assert!(reader.next().unwrap().is_none());

        let mut sorter = ExternalSorter::new(&dir, "e1", 8, &budget, 1 << 20, io).unwrap();
        sorter.push(&[9, 8, 7, 6, 5, 4, 3, 2]).unwrap();
        let mut reader = sorter.finish().unwrap();
        assert_eq!(reader.next().unwrap().unwrap(), &[9, 8, 7, 6, 5, 4, 3, 2]);
        assert!(reader.next().unwrap().is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The external path equals a plain in-memory sort for any record
        /// population and any budget small enough to force 1..≈16 runs.
        #[test]
        fn external_equals_in_memory_sort(
            n in 50usize..400,
            rec_words in 2usize..6,
            seed in 0u64..1000,
            runs_target in 1usize..16,
        ) {
            let rec_len = rec_words * 8;
            let dir = test_dir(&format!("prop_{seed}_{n}_{rec_words}_{runs_target}"));
            let recs = records(n, rec_len, seed.wrapping_mul(2) + 1);
            let total = n * (rec_len + 4);
            let budget = (total / runs_target).max(MIN_BUFFER_RECORDS * (rec_len + 4));
            let (sorted, runs, _) = sort_under_budget(&dir, &recs, budget);
            let mut expect = recs.clone();
            expect.sort_unstable();
            prop_assert_eq!(sorted, expect);
            prop_assert!(runs <= runs_target + 1, "runs {} vs target {}", runs, runs_target);
            std::fs::remove_dir_all(dir).ok();
        }

        /// Records that tie on the 16-byte prefix the comparator reads
        /// first, and differ only after it or not at all (exact
        /// duplicates), come out as a stable byte sort puts them, in
        /// memory and spilled. Records shorter than the prefix compare
        /// zero-padded.
        #[test]
        fn prefix_ties_and_duplicates_sort_as_a_stable_byte_sort(
            n in 20usize..300,
            rec_len in 4usize..40,
            prefixes in 1u64..4,
            tail_values in 1u64..5,
            seed in 0u64..1000,
            runs_target in 2usize..12,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let heads: Vec<u64> = (0..prefixes).map(|_| next(u64::MAX)).collect();
            let recs: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let head = heads[next(prefixes) as usize];
                    (0..rec_len)
                        .map(|j| match j {
                            0..=15 => (head >> (8 * (j % 8))) as u8,
                            _ => next(tail_values) as u8,
                        })
                        .collect()
                })
                .collect();
            let mut expect = recs.clone();
            expect.sort();
            let dir = test_dir(&format!("ties_{seed}_{n}_{rec_len}_{runs_target}"));
            let (in_memory, runs, _) = sort_under_budget(&dir.join("a"), &recs, usize::MAX);
            prop_assert_eq!(runs, 0);
            prop_assert_eq!(&in_memory, &expect);
            let budget = (n * (rec_len + 4) / runs_target).max(MIN_BUFFER_RECORDS * (rec_len + 4));
            let (spilled, runs, _) = sort_under_budget(&dir.join("b"), &recs, budget);
            prop_assert!(runs >= 2, "budget {} must force spills, got {} runs", budget, runs);
            prop_assert_eq!(&spilled, &expect);
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
