//! File-backed page allocator and raw page IO.

use crate::page::{PageId, DEFAULT_PAGE_SIZE};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// A paged file: fixed-size pages addressed by [`PageId`], allocated
/// append-only. All IO goes through [`Pager::read_page`]/[`Pager::write_page`]
/// so the buffer pool above can count every physical access.
///
/// Thread-safe: page IO is positional (`pread`/`pwrite`, one syscall per
/// call, no shared file offset), so readers and writers never serialise on
/// the file; only allocation takes the page-count lock.
#[derive(Debug)]
pub struct Pager {
    file: File,
    path: PathBuf,
    page_size: usize,
    num_pages: Mutex<u64>,
}

impl Pager {
    /// Creates (truncating) a paged file with the default 4096-byte pages.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with_page_size(path, DEFAULT_PAGE_SIZE)
    }

    /// Creates (truncating) a paged file with a custom page size.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn create_with_page_size(path: impl AsRef<Path>, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(Self {
            file,
            path: path.as_ref().to_path_buf(),
            page_size,
            num_pages: Mutex::new(0),
        })
    }

    /// Opens an existing paged file. The page count is derived from the file
    /// length (which must be a multiple of `page_size`).
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> io::Result<Self> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} not a multiple of page size {page_size}"),
            ));
        }
        Ok(Self {
            file,
            path: path.as_ref().to_path_buf(),
            page_size,
            num_pages: Mutex::new(len / page_size as u64),
        })
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        *self.num_pages.lock()
    }

    /// Total on-disk size in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.num_pages() * self.page_size as u64
    }

    /// Allocates a fresh zeroed page at the end of the file and returns its id.
    pub fn allocate_page(&self) -> io::Result<PageId> {
        let mut n = self.num_pages.lock();
        let id = *n;
        let zeros = vec![0u8; self.page_size];
        self.file.write_all_at(&zeros, id * self.page_size as u64)?;
        *n += 1;
        Ok(id)
    }

    /// Allocates `count` consecutive pages, returning the first id. Bulk
    /// loaders use this to lay out leaf chains contiguously.
    pub fn allocate_pages(&self, count: u64) -> io::Result<PageId> {
        let mut n = self.num_pages.lock();
        let first = *n;
        let zeros = vec![0u8; self.page_size * count.min(256) as usize];
        let mut page = first;
        while page < first + count {
            let batch = (first + count - page).min(256);
            self.file.write_all_at(
                &zeros[..batch as usize * self.page_size],
                page * self.page_size as u64,
            )?;
            page += batch;
        }
        *n += count;
        Ok(first)
    }

    /// Reads page `id` into `buf` (which must be exactly one page long).
    ///
    /// # Panics
    /// Panics if `buf.len() != page_size`.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        self.read_pages(id, buf)
    }

    /// Reads the consecutive pages starting at `first` into `buf` (a whole
    /// number of pages) in one call.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not a multiple of `page_size`.
    pub fn read_pages(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        assert_eq!(buf.len() % self.page_size, 0, "buffer must be whole pages");
        let end = first + (buf.len() / self.page_size) as u64;
        if end > self.num_pages() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "page {} out of bounds ({} allocated)",
                    end - 1,
                    self.num_pages()
                ),
            ));
        }
        self.file.read_exact_at(buf, first * self.page_size as u64)
    }

    /// Writes `buf` (exactly one page) to page `id`.
    ///
    /// # Panics
    /// Panics if `buf.len() != page_size`.
    pub fn write_page(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        assert_eq!(buf.len(), self.page_size, "buffer must be one page");
        if id >= self.num_pages() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("page {id} out of bounds ({} allocated)", self.num_pages()),
            ));
        }
        self.file.write_all_at(buf, id * self.page_size as u64)
    }

    /// Flushes OS buffers to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hd_storage_pager_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn allocate_read_write_roundtrip() {
        let path = temp_path("rw");
        let pager = Pager::create_with_page_size(&path, 64).unwrap();
        let p0 = pager.allocate_page().unwrap();
        let p1 = pager.allocate_page().unwrap();
        assert_eq!((p0, p1), (0, 1));

        let mut buf = vec![0xAAu8; 64];
        pager.write_page(p1, &buf).unwrap();
        buf.fill(0);
        pager.read_page(p1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAA));
        pager.read_page(p0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let path = temp_path("oob");
        let pager = Pager::create_with_page_size(&path, 32).unwrap();
        let mut buf = vec![0u8; 32];
        assert!(pager.read_page(0, &mut buf).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = temp_path("reopen");
        {
            let pager = Pager::create_with_page_size(&path, 32).unwrap();
            pager.allocate_page().unwrap();
            pager.write_page(0, &[7u8; 32]).unwrap();
            pager.sync().unwrap();
        }
        let pager = Pager::open(&path, 32).unwrap();
        assert_eq!(pager.num_pages(), 1);
        let mut buf = vec![0u8; 32];
        pager.read_page(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bulk_allocation_is_contiguous() {
        let path = temp_path("bulk");
        let pager = Pager::create_with_page_size(&path, 16).unwrap();
        let first = pager.allocate_pages(1000).unwrap();
        assert_eq!(first, 0);
        assert_eq!(pager.num_pages(), 1000);
        assert_eq!(pager.disk_bytes(), 16_000);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_misaligned_file() {
        let path = temp_path("misaligned");
        std::fs::write(&path, [0u8; 33]).unwrap();
        assert!(Pager::open(&path, 32).is_err());
        std::fs::remove_file(path).ok();
    }
}
