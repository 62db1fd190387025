//! Page primitives.

/// Identifier of a page within a single paged file (0-based).
pub type PageId = u64;

/// The paper's disk page size `B` (§5, "Parameters": 4096 bytes). All leaf
///-order arithmetic (Eq. 4) and index-size accounting uses this default;
/// [`crate::pager::Pager`] accepts other sizes for tests.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes per CPU cache line on the hardware this targets (x86-64, most
/// AArch64 cores).
const CACHE_LINE: usize = 64;

/// Reads one byte of every 64-byte (cache-line-sized) stretch of `bytes`.
///
/// The loads are independent of each other, so when the lines are not in
/// cache the CPU overlaps their misses instead of taking them one at a time
/// when a later loop first needs each line. The B+-tree cursor calls this
/// when a leaf walk lands on a page, then reads the entries from warm
/// lines.
#[inline]
pub fn touch_lines(bytes: &[u8]) {
    let folded = bytes
        .iter()
        .step_by(CACHE_LINE)
        .fold(0u8, |acc, &b| acc ^ b);
    std::hint::black_box(folded);
}

/// An owned, heap-allocated page buffer.
///
/// Thin wrapper over `Box<[u8]>` so call sites can't confuse page buffers
/// with arbitrary byte slices and so the buffer is always exactly one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBuf {
    data: Box<[u8]>,
}

impl PageBuf {
    /// A zeroed page of `size` bytes.
    pub fn zeroed(size: usize) -> Self {
        Self {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::Deref for PageBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PageBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_requested_size() {
        let p = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        assert_eq!(p.len(), 4096);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn deref_allows_slice_ops() {
        let mut p = PageBuf::zeroed(16);
        p[0] = 0xAB;
        assert_eq!(p.as_slice()[0], 0xAB);
    }
}
