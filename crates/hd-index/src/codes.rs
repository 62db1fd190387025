//! Refine codes: one byte per dimension per stored vector, kept in memory
//! and never written to disk (DESIGN.md §3, "Two-phase refine").
//!
//! The codes sit on a uniform 256-cell grid ([`hd_core::grid`]) over the
//! index's `params.domain`, the same per-axis domain the Hilbert keys
//! quantise. Refinement bounds every candidate from its codes and fetches
//! only those whose bound does not exceed the running k-th key.
//!
//! Row `s` holds the codes of heap slot `s`. An index coming up — after a
//! build as after a reopen — derives them from its heap in one sequential
//! pass, an insert appends one row, and a compaction keeps the survivors'
//! rows in place.

use hd_core::grid::UniformGrid;
use hd_storage::VectorHeap;
use std::io;

/// Cells per axis: the most one byte names.
const CELLS: u32 = UniformGrid::MAX_CELLS;

pub(crate) struct RefineCodes {
    grid: UniformGrid,
    dim: usize,
    /// Row-major, `dim` bytes per heap slot.
    bytes: Vec<u8>,
}

impl RefineCodes {
    /// Encodes every vector of `heap`, reading its pages in order without
    /// caching them, into exactly `n·d` bytes.
    pub(crate) fn derive(heap: &VectorHeap, domain: (f32, f32)) -> io::Result<Self> {
        let dim = heap.dim();
        let mut codes = Self {
            grid: UniformGrid::new(domain, CELLS),
            dim,
            bytes: Vec::with_capacity(heap.len() as usize * dim),
        };
        heap.scan(|rows| codes.extend(rows))?;
        Ok(codes)
    }

    pub(crate) fn grid(&self) -> &UniformGrid {
        &self.grid
    }

    /// Appends the codes of the row-major vectors in `rows`.
    pub(crate) fn extend(&mut self, rows: &[f32]) {
        self.grid.encode_into(rows, &mut self.bytes);
    }

    /// Appends one vector's codes (an insert). Grows by a sixteenth at a
    /// time rather than doubling, so an insert after an exact-capacity
    /// derive does not leave most of a second copy's worth of slack.
    pub(crate) fn push(&mut self, v: &[f32]) {
        if self.bytes.len() + v.len() > self.bytes.capacity() {
            self.bytes
                .reserve_exact((self.bytes.len() / 16).max(64 * self.dim));
        }
        self.extend(v);
    }

    /// Keeps the rows whose `keep` flag is set, in order, and drops every
    /// row from `keep.len()` on: a compaction's survivors, moved down in
    /// place rather than copied into a second `n·d` buffer.
    pub(crate) fn retain_rows(&mut self, keep: &[bool]) {
        let dim = self.dim;
        let mut kept = 0;
        for (row, _) in keep.iter().enumerate().filter(|&(_, &k)| k) {
            self.bytes
                .copy_within(row * dim..(row + 1) * dim, kept * dim);
            kept += 1;
        }
        self.bytes.truncate(kept * dim);
    }

    /// The codes of heap slot `slot`.
    #[inline]
    pub(crate) fn row(&self, slot: u64) -> &[u8] {
        let start = slot as usize * self.dim;
        &self.bytes[start..start + self.dim]
    }

    /// Resident bytes (`n·d` plus growth room).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}
