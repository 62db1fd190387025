//! Per-shard write-ahead log.
//!
//! HD-Index's write path (DESIGN.md §9) follows the classic log-then-mutate
//! discipline: every `insert`/`delete` is appended to an append-only log and
//! fsynced *before* the in-memory/on-disk structures are touched. A crash at
//! any point then loses at most the uncommitted tail; reopening the index
//! replays the log past the last checkpoint and lands on exactly the
//! committed prefix.
//!
//! ## Record wire format
//!
//! ```text
//! [u32 len (LE)] [u8 tag] [payload ...] [u32 crc32 (LE)]
//! ```
//!
//! * `len` counts `tag + payload` (not the length word, not the checksum).
//! * `crc32` (IEEE, reflected — same polynomial as zlib) covers `tag +
//!   payload`.
//! * Tags: `1 = Insert{id: u64 LE, dim: u32 LE, vec: [f32 LE]}`,
//!   `2 = Delete{id: u64 LE}`, `3 = Checkpoint{snapshot_version: u64 LE}`.
//!
//! ## Torn-tail tolerance
//!
//! [`Wal::open`] reads the log once and stops cleanly at the first record
//! whose length word, body, or checksum is short or invalid — that is the
//! torn tail a crash mid-append leaves behind. Everything before it is
//! returned; nothing after it is trusted. The file is truncated back to the
//! end of the valid prefix so later appends never interleave with garbage.
//!
//! ## Commits
//!
//! [`Wal::append`] buffers in memory; [`Wal::commit`] flushes the buffer
//! and issues one `fsync` for everything buffered. The index commits after
//! every insert and delete, so a write is durable before it is acknowledged
//! and costs exactly one `fsync`.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default filename for a shard's write-ahead log.
pub const WAL_FILE: &str = "wal.log";

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;

/// One logical record recovered from (or destined for) the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A vector insert. The vector is logged raw (pre-normalization) so
    /// replay re-runs the exact same ingest transform as the original call.
    Insert { id: u64, vector: Vec<f32> },
    /// A tombstone for object `id`.
    Delete { id: u64 },
    /// A snapshot barrier: everything before this record is captured by the
    /// snapshot with the given version, so replay may skip to here.
    Checkpoint { snapshot_version: u64 },
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::Insert { .. } => TAG_INSERT,
            WalRecord::Delete { .. } => TAG_DELETE,
            WalRecord::Checkpoint { .. } => TAG_CHECKPOINT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert { id, vector } => {
                let mut p = Vec::with_capacity(12 + vector.len() * 4);
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&(vector.len() as u32).to_le_bytes());
                for v in vector {
                    p.extend_from_slice(&v.to_le_bytes());
                }
                p
            }
            WalRecord::Delete { id } => id.to_le_bytes().to_vec(),
            WalRecord::Checkpoint { snapshot_version } => snapshot_version.to_le_bytes().to_vec(),
        }
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<WalRecord> {
        match tag {
            TAG_INSERT => {
                if payload.len() < 12 {
                    return None;
                }
                let id = u64::from_le_bytes(payload[0..8].try_into().ok()?);
                let dim = u32::from_le_bytes(payload[8..12].try_into().ok()?) as usize;
                if payload.len() != 12 + dim * 4 {
                    return None;
                }
                let mut vector = Vec::with_capacity(dim);
                for c in payload[12..].chunks_exact(4) {
                    vector.push(f32::from_le_bytes(c.try_into().ok()?));
                }
                Some(WalRecord::Insert { id, vector })
            }
            TAG_DELETE => {
                let id = u64::from_le_bytes(payload.try_into().ok()?);
                Some(WalRecord::Delete { id })
            }
            TAG_CHECKPOINT => {
                let snapshot_version = u64::from_le_bytes(payload.try_into().ok()?);
                Some(WalRecord::Checkpoint { snapshot_version })
            }
            _ => None,
        }
    }

    /// Encoded on-disk size of this record, framing included.
    pub fn encoded_len(&self) -> u64 {
        (4 + 1 + self.payload().len() + 4) as u64
    }
}

/// CRC-32 (IEEE 802.3, reflected) — the zlib polynomial. Hand-rolled with a
/// lazily built table so the storage crate stays dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Cumulative write-path counters of one log, surfaced as
/// `IndexStats::write` (`WriteStats`) so benches can report fsync
/// amortization (`records_appended / commits`).
#[derive(Debug, Default, Clone, Copy)]
pub struct WalCounters {
    /// Records appended since open.
    pub records_appended: u64,
    /// `commit()` calls that actually reached the disk (fsync count).
    pub commits: u64,
    /// Records recovered by the torn-tail-tolerant scan at open.
    pub records_replayed: u64,
}

struct WalInner {
    writer: BufWriter<File>,
    /// Byte offset of the end of the last *committed* (fsynced) record.
    committed_pos: u64,
    /// Byte offset of the end of the last buffered record.
    append_pos: u64,
    dirty: bool,
}

/// Append-only, checksummed, per-shard write-ahead log.
///
/// Appends and commits take `&self` (the file handle is behind a mutex), so
/// the engine can log under a shard *read* lock and reserve the write lock
/// for the actual structure mutation.
pub struct Wal {
    inner: Mutex<WalInner>,
    path: PathBuf,
    records_appended: AtomicU64,
    commits: AtomicU64,
    records_replayed: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("path", &self.path).finish()
    }
}

impl Wal {
    /// Creates a fresh (truncated) log at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        Ok(Self::from_file(file, path.as_ref().to_path_buf(), 0))
    }

    /// Opens an existing log (creating an empty one if absent) and returns
    /// it with the records of its valid prefix, read in one scan. Any torn
    /// tail is truncated so subsequent appends start from a clean boundary.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, Vec<WalRecord>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = decode_prefix(&bytes);
        if bytes.len() as u64 > valid {
            file.set_len(valid)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid))?;
        Ok((Self::from_file(file, path, valid), records))
    }

    fn from_file(file: File, path: PathBuf, pos: u64) -> Self {
        Self {
            inner: Mutex::new(WalInner {
                writer: BufWriter::new(file),
                committed_pos: pos,
                append_pos: pos,
                dirty: false,
            }),
            path,
            records_appended: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            records_replayed: AtomicU64::new(0),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffers one record. Not durable until [`Wal::commit`] returns.
    /// Returns the byte offset of the end of the record.
    pub fn append(&self, record: &WalRecord) -> io::Result<u64> {
        let payload = record.payload();
        let mut frame = Vec::with_capacity(9 + payload.len());
        frame.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
        frame.push(record.tag());
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_le_bytes());

        let span = hd_telemetry::span!("wal_append_nanos");
        let mut inner = self.inner.lock();
        inner.writer.write_all(&frame)?;
        inner.append_pos += frame.len() as u64;
        inner.dirty = true;
        let end = inner.append_pos;
        drop(inner);
        drop(span);
        self.records_appended.fetch_add(1, Ordering::Relaxed);
        Ok(end)
    }

    /// Flushes buffered records and fsyncs — the batch is durable when this
    /// returns. A no-op (no fsync) if nothing was appended since the last
    /// commit.
    pub fn commit(&self) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        if inner.dirty {
            {
                let _s = hd_telemetry::span!("wal_fsync_nanos");
                inner.writer.flush()?;
                inner.writer.get_ref().sync_all()?;
            }
            inner.committed_pos = inner.append_pos;
            inner.dirty = false;
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(inner.committed_pos)
    }

    /// Byte offset of the end of the last committed record.
    pub fn position(&self) -> u64 {
        self.inner.lock().committed_pos
    }

    /// Truncates the log to empty and fsyncs. Used after a snapshot or
    /// compaction has captured everything the log held.
    pub fn reset(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.writer.flush()?;
        let file = inner.writer.get_ref();
        file.set_len(0)?;
        file.sync_all()?;
        inner.writer.get_mut().seek(SeekFrom::Start(0))?;
        inner.committed_pos = 0;
        inner.append_pos = 0;
        inner.dirty = false;
        Ok(())
    }

    /// Records recovered / appended / fsynced since open.
    pub fn counters(&self) -> WalCounters {
        WalCounters {
            records_appended: self.records_appended.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            records_replayed: self.records_replayed.load(Ordering::Relaxed),
        }
    }

    /// Adds `n` to the replayed-records counter (called by the index layer
    /// after recovery applies the log).
    pub fn note_replayed(&self, n: u64) {
        self.records_replayed.fetch_add(n, Ordering::Relaxed);
        if hd_telemetry::enabled() && n > 0 {
            hd_telemetry::event!(
                hd_telemetry::Level::Info,
                "wal",
                "replayed records after reopen",
                applied = n,
                path = self.path.display().to_string(),
            );
        }
    }
}

/// Decodes the valid record prefix of a raw log image: its records and its
/// byte length. Stops at the first torn or corrupt frame — exactly the
/// crash-recovery contract.
fn decode_prefix(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(len_bytes) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
        if len == 0 {
            break;
        }
        let Some(body) = bytes.get(pos + 4..pos + 4 + len) else {
            break;
        };
        let Some(crc_bytes) = bytes.get(pos + 4 + len..pos + 8 + len) else {
            break;
        };
        if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            break;
        }
        let Some(record) = WalRecord::decode(body[0], &body[1..]) else {
            break;
        };
        records.push(record);
        pos += 8 + len;
    }
    (records, pos as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hd_storage_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard zlib test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let path = temp_path("roundtrip");
        let wal = Wal::create(&path).unwrap();
        let records = vec![
            WalRecord::Insert {
                id: 0,
                vector: vec![1.0, -2.5, 3.25],
            },
            WalRecord::Delete { id: 0 },
            WalRecord::Checkpoint {
                snapshot_version: 7,
            },
            WalRecord::Insert {
                id: 1,
                vector: vec![],
            },
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        wal.commit().unwrap();

        // Reopen sees the same prefix, and nothing past it.
        drop(wal);
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, records);
        assert_eq!(wal.position(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn commit_batches_fsyncs() {
        let path = temp_path("batch");
        let wal = Wal::create(&path).unwrap();
        for i in 0..100 {
            wal.append(&WalRecord::Delete { id: i }).unwrap();
        }
        wal.commit().unwrap();
        wal.commit().unwrap(); // clean: no extra fsync
        let c = wal.counters();
        assert_eq!(c.records_appended, 100);
        assert_eq!(c.commits, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let path = temp_path("torn");
        let full_len;
        let first_len;
        {
            let wal = Wal::create(&path).unwrap();
            first_len = wal
                .append(&WalRecord::Insert {
                    id: 3,
                    vector: vec![0.5; 8],
                })
                .unwrap();
            wal.append(&WalRecord::Delete { id: 3 }).unwrap();
            full_len = wal.commit().unwrap();
        }
        // Truncate mid-way through the second record: replay must stop after
        // the first, and open must shrink the file back to that boundary.
        for cut in first_len + 1..full_len {
            let bytes = std::fs::read(&path).unwrap();
            let img = bytes.clone();
            std::fs::write(&path, &img[..cut as usize]).unwrap();
            let (wal, records) = Wal::open(&path).unwrap();
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(wal.position(), first_len);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), first_len);
            // The log accepts appends again after tail truncation.
            wal.append(&WalRecord::Delete { id: 9 }).unwrap();
            wal.commit().unwrap();
            drop(wal);
            assert_eq!(Wal::open(&path).unwrap().1.len(), 2);
            std::fs::write(&path, &img).unwrap(); // restore for the next cut
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let path = temp_path("crc");
        {
            let wal = Wal::create(&path).unwrap();
            wal.append(&WalRecord::Delete { id: 1 }).unwrap();
            wal.append(&WalRecord::Delete { id: 2 }).unwrap();
            wal.commit().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip a checksum bit in the last record
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Delete { id: 1 }]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reset_empties_log() {
        let path = temp_path("reset");
        let wal = Wal::create(&path).unwrap();
        wal.append(&WalRecord::Delete { id: 1 }).unwrap();
        wal.commit().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.position(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        wal.append(&WalRecord::Delete { id: 2 }).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let (_, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![WalRecord::Delete { id: 2 }]);
        std::fs::remove_file(path).ok();
    }
}
