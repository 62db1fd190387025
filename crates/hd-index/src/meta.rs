//! Index metadata persistence.
//!
//! Everything the query path needs besides the RDB-tree/heap files is tiny
//! (partitioning, reference vectors, curve parameters, tombstones), so it is
//! stored in a human-readable `meta.txt` in the index directory. Floats are
//! serialized as IEEE-754 bit patterns in hex, making the round trip
//! bit-exact without a serialization dependency.
//!
//! Only the current version is read. Versions 1 to 3 describe RDB-tree
//! leaves that store four-byte reference distances; version 4's leaves
//! store one-byte cell codes on the grid its `refgrid` lines persist. An
//! older directory is refused with `InvalidData` naming its version, and
//! must be rebuilt.

use hd_core::metric::Metric;
use std::io::{self, BufRead, Write};
use std::path::Path;

pub const META_FILE: &str = "meta.txt";
/// The first line of every meta file, before its version.
const MAGIC: &str = "hdindex-meta";
/// The version this build writes and reads: one-byte reference-distance
/// codes in the leaves, and one `refgrid` line per reference.
const VERSION: &str = "v4";

/// The persisted state of an [`crate::HdIndex`]. The default is the
/// empty state every optional line falls back to.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IndexMeta {
    pub dim: usize,
    pub n: u64,
    pub tau: usize,
    pub omega: u32,
    pub m: usize,
    pub domain: (f32, f32),
    pub groups: Vec<Vec<usize>>,
    pub ref_ids: Vec<u64>,
    pub ref_vectors: Vec<Vec<f32>>,
    pub tombstones: Vec<u64>,
    /// Per reference, the `(floor, step)` of the grid its leaf codes sit on
    /// ([`crate::rdb::RefGrid`]).
    pub ref_grid: Vec<(f32, f32)>,
    /// The metric the index was built under.
    pub metric: Metric,
    /// Monotone counter bumped by every snapshot/compaction; WAL
    /// `Checkpoint` records carry it so replay can skip what the snapshot
    /// already captured.
    pub snapshot_version: u64,
    /// Byte offset of the WAL's committed end when this snapshot was taken
    /// (diagnostic; replay trusts checkpoint records and the id watermark).
    pub wal_pos: u64,
    /// The next object id to assign. Ids are never reused, so after a
    /// compaction this exceeds `n`.
    pub next_id: u64,
    /// Generation counter naming the tree/heap files: generation 0 uses the
    /// legacy `tree_{g}.rdb` / `vectors.heap` names, generation k > 0 uses
    /// `tree_{g}.g{k}.rdb` / `vectors.g{k}.heap`. Compaction builds the
    /// next generation and this meta write is its atomic commit point.
    pub generation: u64,
    /// `heap slot → original object id`, strictly ascending; `None` means
    /// identity (slot == id). Becomes `Some` after a compaction drops
    /// tombstoned slots, so surviving objects keep their ids.
    pub id_map: Option<Vec<u64>>,
    /// Whether the index keeps in-memory refine codes
    /// (`BuildOpts::refine_codes`). The codes themselves are never stored:
    /// an open derives them from the heap. Absent (every older meta) means
    /// off.
    pub refine_codes: bool,
}

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn parse_f32_hex(s: &str) -> io::Result<f32> {
    u32::from_str_radix(s, 16)
        .map(f32::from_bits)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad f32 hex {s}: {e}")))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> io::Result<T> {
    s.parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, format!("bad {what}: {s}")))
}

impl IndexMeta {
    /// Writes the metadata file into `dir` (atomically via rename).
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(format!("{META_FILE}.tmp"));
        {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(f, "{MAGIC} {VERSION}")?;
            writeln!(f, "metric {}", self.metric)?;
            writeln!(f, "dim {}", self.dim)?;
            writeln!(f, "n {}", self.n)?;
            writeln!(f, "tau {}", self.tau)?;
            writeln!(f, "omega {}", self.omega)?;
            writeln!(f, "m {}", self.m)?;
            writeln!(
                f,
                "domain {} {}",
                f32_hex(self.domain.0),
                f32_hex(self.domain.1)
            )?;
            writeln!(f, "snapshot_version {}", self.snapshot_version)?;
            writeln!(f, "wal_pos {}", self.wal_pos)?;
            writeln!(f, "next_id {}", self.next_id)?;
            writeln!(f, "generation {}", self.generation)?;
            if self.refine_codes {
                writeln!(f, "refine_codes 1")?;
            }
            if let Some(map) = &self.id_map {
                let ids: Vec<String> = map.iter().map(|i| i.to_string()).collect();
                writeln!(f, "idmap {}", ids.join(" "))?;
            }
            for g in &self.groups {
                let dims: Vec<String> = g.iter().map(|d| d.to_string()).collect();
                writeln!(f, "group {}", dims.join(" "))?;
            }
            for (id, v) in self.ref_ids.iter().zip(&self.ref_vectors) {
                let vals: Vec<String> = v.iter().map(|&x| f32_hex(x)).collect();
                writeln!(f, "ref {id} {}", vals.join(" "))?;
            }
            for &(floor, step) in &self.ref_grid {
                writeln!(f, "refgrid {} {}", f32_hex(floor), f32_hex(step))?;
            }
            let ts: Vec<String> = self.tombstones.iter().map(|t| t.to_string()).collect();
            writeln!(f, "tombstones {}", ts.join(" "))?;
            f.flush()?;
            // The meta rename is the commit point of snapshots and
            // compactions — the content must be on stable storage before
            // the rename makes it visible.
            f.get_ref().sync_all()?;
        }
        std::fs::rename(tmp, dir.join(META_FILE))
    }

    /// Reads the metadata file from `dir`.
    pub fn read(dir: &Path) -> io::Result<IndexMeta> {
        let f = io::BufReader::new(std::fs::File::open(dir.join(META_FILE))?);
        let mut lines = f.lines();
        let first = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty metadata file"))??;
        match first.strip_prefix(MAGIC).and_then(|v| v.strip_prefix(' ')) {
            Some(VERSION) => {}
            Some(version) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} holds index metadata {version}; this build reads only \
                         {VERSION}, whose RDB-tree leaves store one-byte reference \
                         distances: rebuild the index",
                        dir.display()
                    ),
                ))
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad metadata magic: {first}"),
                ))
            }
        }
        let mut meta = IndexMeta::default();
        let mut saw_next_id = false;
        for line in lines {
            let line = line?;
            let mut it = line.split_whitespace();
            match it.next() {
                Some("metric") => {
                    let name = it.next().unwrap_or("");
                    meta.metric = Metric::parse(name).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unknown metric in metadata: {name}"),
                        )
                    })?;
                }
                Some("dim") => meta.dim = parse(it.next().unwrap_or(""), "dim")?,
                Some("n") => meta.n = parse(it.next().unwrap_or(""), "n")?,
                Some("tau") => meta.tau = parse(it.next().unwrap_or(""), "tau")?,
                Some("omega") => meta.omega = parse(it.next().unwrap_or(""), "omega")?,
                Some("m") => meta.m = parse(it.next().unwrap_or(""), "m")?,
                Some("domain") => {
                    meta.domain = (
                        parse_f32_hex(it.next().unwrap_or(""))?,
                        parse_f32_hex(it.next().unwrap_or(""))?,
                    );
                }
                Some("group") => {
                    let g: io::Result<Vec<usize>> = it.map(|s| parse(s, "group dim")).collect();
                    meta.groups.push(g?);
                }
                Some("ref") => {
                    meta.ref_ids.push(parse(it.next().unwrap_or(""), "ref id")?);
                    let v: io::Result<Vec<f32>> = it.map(parse_f32_hex).collect();
                    meta.ref_vectors.push(v?);
                }
                Some("refgrid") => meta.ref_grid.push((
                    parse_f32_hex(it.next().unwrap_or(""))?,
                    parse_f32_hex(it.next().unwrap_or(""))?,
                )),
                Some("tombstones") => {
                    let t: io::Result<Vec<u64>> = it.map(|s| parse(s, "tombstone")).collect();
                    meta.tombstones = t?;
                }
                Some("snapshot_version") => {
                    meta.snapshot_version = parse(it.next().unwrap_or(""), "snapshot_version")?;
                }
                Some("wal_pos") => meta.wal_pos = parse(it.next().unwrap_or(""), "wal_pos")?,
                Some("next_id") => {
                    meta.next_id = parse(it.next().unwrap_or(""), "next_id")?;
                    saw_next_id = true;
                }
                Some("generation") => {
                    meta.generation = parse(it.next().unwrap_or(""), "generation")?;
                }
                Some("refine_codes") => {
                    meta.refine_codes = parse::<u8>(it.next().unwrap_or(""), "refine_codes")? != 0;
                }
                Some("idmap") => {
                    let ids: io::Result<Vec<u64>> = it.map(|s| parse(s, "idmap entry")).collect();
                    meta.id_map = Some(ids?);
                }
                Some(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown metadata key: {other}"),
                    ));
                }
                None => {}
            }
        }
        if meta.dim == 0
            || meta.tau == 0
            || meta.groups.len() != meta.tau
            || meta.ref_grid.len() != meta.m
            || !saw_next_id
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "incomplete metadata",
            ));
        }
        Ok(meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IndexMeta {
        IndexMeta {
            dim: 4,
            n: 100,
            tau: 2,
            omega: 8,
            m: 2,
            domain: (-1.5, 255.25),
            groups: vec![vec![0, 1], vec![2, 3]],
            ref_ids: vec![7, 42],
            ref_vectors: vec![vec![0.1, -0.2, 3.5e8, 0.0], vec![1.0, 2.0, 3.0, 4.0]],
            ref_grid: vec![(0.5, 0.0078125), (12.25, 0.0)],
            tombstones: vec![5, 99],
            metric: Metric::L2,
            snapshot_version: 3,
            wal_pos: 4096,
            next_id: 120,
            generation: 1,
            id_map: None,
            refine_codes: false,
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let dir = std::env::temp_dir().join(format!("hd_meta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = sample();
        meta.write(&dir).unwrap();
        let back = IndexMeta::read(&dir).unwrap();
        assert_eq!(meta, back);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("hd_meta_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(META_FILE), "not a meta file\n").unwrap();
        assert!(IndexMeta::read(&dir).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_tombstones_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hd_meta_ts_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = sample();
        meta.tombstones.clear();
        meta.write(&dir).unwrap();
        assert_eq!(IndexMeta::read(&dir).unwrap().tombstones, Vec::<u64>::new());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn every_metric_round_trips() {
        let dir = std::env::temp_dir().join(format!("hd_meta_metric_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for m in Metric::ALL {
            let mut meta = sample();
            meta.metric = m;
            meta.write(&dir).unwrap();
            assert_eq!(IndexMeta::read(&dir).unwrap().metric, m);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// A meta of an earlier version (leaves with four-byte distances) is
    /// refused by name, whatever it holds; so is one that lacks the grid.
    #[test]
    fn previous_meta_versions_are_refused() {
        let dir = std::env::temp_dir().join(format!("hd_meta_old_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sample().write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        assert!(written.starts_with("hdindex-meta v4\n"), "{written}");
        let gridless: String = written
            .lines()
            .filter(|l| !l.starts_with("refgrid "))
            .map(|l| format!("{l}\n"))
            .collect();
        for version in ["v1", "v2", "v3"] {
            let old = gridless.replace("hdindex-meta v4", &format!("hdindex-meta {version}"));
            std::fs::write(dir.join(META_FILE), old).unwrap();
            let err = IndexMeta::read(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(version), "{err}");
            assert!(err.to_string().contains("rebuild"), "{err}");
        }
        std::fs::write(dir.join(META_FILE), gridless).unwrap();
        let err = IndexMeta::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("incomplete"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    /// Drops every line of `text` whose key is in `keys`.
    fn without_keys(text: &str, keys: &[&str]) -> String {
        text.lines()
            .filter(|l| !keys.contains(&l.split_whitespace().next().unwrap_or("")))
            .map(|l| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn v1_meta_without_metric_line_defaults_to_l2() {
        // A pre-metric-layer meta: v1 magic, no `metric`, WAL or grid lines.
        // Its leaves store four-byte distances, so it is refused and kept;
        // a current meta that lacks the `metric` line still reads as L2.
        let dir = std::env::temp_dir().join(format!("hd_meta_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sample().write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        let v1 = without_keys(
            &written.replace("hdindex-meta v4", "hdindex-meta v1"),
            &[
                "metric",
                "snapshot_version",
                "wal_pos",
                "next_id",
                "generation",
                "refgrid",
            ],
        );
        std::fs::write(dir.join(META_FILE), &v1).unwrap();
        let err = IndexMeta::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("v1"), "{err}");
        assert_eq!(std::fs::read_to_string(dir.join(META_FILE)).unwrap(), v1);

        let mut meta = sample();
        meta.metric = Metric::L1;
        meta.write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        std::fs::write(dir.join(META_FILE), without_keys(&written, &["metric"])).unwrap();
        let back = IndexMeta::read(&dir).unwrap();
        assert_eq!(back.metric, Metric::L2);
        assert_eq!(back.dim, meta.dim);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn v2_meta_defaults_durability_fields() {
        // A metric-layer-era meta: v2 magic, metric line, no WAL or grid
        // lines. It is refused and kept; a current meta that lacks the
        // snapshot and WAL lines reads them as 0, but `next_id` is required.
        let dir = std::env::temp_dir().join(format!("hd_meta_v2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let meta = sample();
        meta.write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        let v2 = without_keys(
            &written.replace("hdindex-meta v4", "hdindex-meta v2"),
            &[
                "snapshot_version",
                "wal_pos",
                "next_id",
                "generation",
                "refgrid",
            ],
        );
        std::fs::write(dir.join(META_FILE), &v2).unwrap();
        let err = IndexMeta::read(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("v2"), "{err}");
        assert_eq!(std::fs::read_to_string(dir.join(META_FILE)).unwrap(), v2);

        let current = without_keys(&written, &["snapshot_version", "wal_pos", "generation"]);
        std::fs::write(dir.join(META_FILE), &current).unwrap();
        let back = IndexMeta::read(&dir).unwrap();
        assert_eq!(back.next_id, meta.next_id);
        assert_eq!(back.snapshot_version, 0);
        assert_eq!(back.wal_pos, 0);
        assert_eq!(back.generation, 0);
        assert_eq!(back.id_map, None);
        std::fs::write(dir.join(META_FILE), without_keys(&current, &["next_id"])).unwrap();
        let err = IndexMeta::read(&dir).unwrap_err();
        assert!(err.to_string().contains("incomplete"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn id_map_round_trips() {
        let dir = std::env::temp_dir().join(format!("hd_meta_idmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = sample();
        meta.id_map = Some(vec![0, 2, 5, 117]);
        meta.write(&dir).unwrap();
        assert_eq!(IndexMeta::read(&dir).unwrap(), meta);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn refine_codes_flag_round_trips_and_defaults_off() {
        let dir = std::env::temp_dir().join(format!("hd_meta_codes_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = sample();
        meta.write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        assert!(!written.contains("refine_codes"), "off writes no line");
        assert!(!IndexMeta::read(&dir).unwrap().refine_codes);
        meta.refine_codes = true;
        meta.write(&dir).unwrap();
        assert_eq!(IndexMeta::read(&dir).unwrap(), meta);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn unknown_metric_name_is_rejected() {
        let dir = std::env::temp_dir().join(format!("hd_meta_badm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        sample().write(&dir).unwrap();
        let written = std::fs::read_to_string(dir.join(META_FILE)).unwrap();
        std::fs::write(
            dir.join(META_FILE),
            written.replace("metric l2", "metric chebyshev"),
        )
        .unwrap();
        let err = IndexMeta::read(&dir).unwrap_err();
        assert!(err.to_string().contains("unknown metric"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }
}
