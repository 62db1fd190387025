//! Model-based property tests: the disk B+-tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary interleavings of bulk load,
//! inserts, point lookups, seeks, and bidirectional scans.

use hd_btree::BTree;
use hd_storage::{BufferPool, Pager};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn key(v: u16) -> Vec<u8> {
    v.to_be_bytes().to_vec()
}

fn val(v: u16) -> Vec<u8> {
    (v as u32).to_le_bytes().to_vec()
}

fn fresh_tree(name: &str, page_size: usize) -> (BTree, std::path::PathBuf) {
    let dir = std::env::temp_dir().join("hd_btree_model");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{name}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let pager = Pager::create_with_page_size(&path, page_size).unwrap();
    let pool = Arc::new(BufferPool::new(pager, 64));
    (BTree::create(pool, 2, 4).unwrap(), path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk load + random inserts == BTreeMap, under full scans and seeks.
    #[test]
    fn matches_btreemap(
        bulk in proptest::collection::btree_set(0u16..2000, 0..300),
        inserts in proptest::collection::vec(0u16..2000, 0..150),
        probes in proptest::collection::vec(0u16..2100, 1..30),
        page_size in prop_oneof![Just(128usize), Just(256), Just(512)],
    ) {
        let (mut tree, path) = fresh_tree("model", page_size);
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();

        // Bulk load the initial sorted set.
        let bulk_vec: Vec<u16> = bulk.into_iter().collect();
        tree.bulk_load(bulk_vec.iter().map(|&v| (key(v), val(v))), 1.0).unwrap();
        for &v in &bulk_vec {
            model.insert(v, v);
        }

        // Interleaved inserts (skip duplicates to keep the model a map).
        for &v in &inserts {
            model.entry(v).or_insert_with(|| {
                tree.insert(&key(v), &val(v)).unwrap();
                v
            });
        }

        prop_assert_eq!(tree.len(), model.len() as u64);

        // Point lookups.
        for &p in &probes {
            let got = tree.get(&key(p)).unwrap();
            let want = model.get(&p).map(|&v| val(v));
            prop_assert_eq!(got, want, "lookup {}", p);
        }

        // Full forward scan equals sorted model iteration.
        let mut cur = tree.first().unwrap();
        let mut model_iter = model.keys();
        while cur.valid() {
            let mk = model_iter.next().expect("model shorter than tree");
            let expect = key(*mk);
            prop_assert_eq!(cur.key(), expect.as_slice());
            cur.advance().unwrap();
        }
        prop_assert!(model_iter.next().is_none(), "tree shorter than model");

        // Seek = lower_bound.
        for &p in &probes {
            let cur = tree.seek(&key(p)).unwrap();
            let expect = model.range(p..).next().map(|(&k, _)| k);
            match expect {
                Some(k) => {
                    prop_assert!(cur.valid());
                    let expect = key(k);
                    prop_assert_eq!(cur.key(), expect.as_slice(), "seek {}", p);
                }
                None => prop_assert!(!cur.valid(), "seek {} should be end", p),
            }
        }

        // Backward scan from the last entry equals reverse model order.
        let mut cur = tree.last().unwrap();
        let mut model_rev = model.keys().rev();
        while cur.valid() {
            let mk = model_rev.next().expect("model shorter in reverse");
            let expect = key(*mk);
            prop_assert_eq!(cur.key(), expect.as_slice());
            cur.retreat().unwrap();
        }
        prop_assert!(model_rev.next().is_none());

        std::fs::remove_file(path).ok();
    }

    /// Reopening from disk preserves every entry.
    #[test]
    fn persistence_roundtrip(values in proptest::collection::btree_set(0u16..5000, 1..200)) {
        let (mut tree, path) = fresh_tree("persist", 256);
        let vals: Vec<u16> = values.into_iter().collect();
        tree.bulk_load(vals.iter().map(|&v| (key(v), val(v))), 1.0).unwrap();
        tree.pool().sync().unwrap();
        drop(tree);

        let pager = Pager::open(&path, 256).unwrap();
        let pool = Arc::new(BufferPool::new(pager, 64));
        let tree = BTree::open(pool).unwrap();
        prop_assert_eq!(tree.len(), vals.len() as u64);
        for &v in &vals {
            prop_assert_eq!(tree.get(&key(v)).unwrap(), Some(val(v)));
        }
        std::fs::remove_file(path).ok();
    }

    /// Random `seek` / `first` / `last` starts followed by random runs of
    /// `advance` and `retreat`, against a sorted `Vec` whose position is an
    /// index in -1..=n (one move past either end waits there). Small pages
    /// make most steps cross leaves; trees of 0 and 1 entries and runs long
    /// enough to walk off both ends and back pin the cursor's cached entry
    /// count and its in-page fast paths.
    #[test]
    fn cursor_walks_match_sorted_vec(
        bulk in prop_oneof![
            proptest::collection::btree_set(0u16..3000, 0..2),
            proptest::collection::btree_set(0u16..3000, 0..400),
        ],
        inserts in proptest::collection::vec(0u16..3000, 0..60),
        starts in proptest::collection::vec((0u8..3, 0u16..3100), 1..6),
        runs in proptest::collection::vec((any::<bool>(), 1usize..80), 1..12),
        page_size in prop_oneof![Just(128usize), Just(256)],
    ) {
        let (mut tree, path) = fresh_tree("cursor", page_size);
        let mut keys: Vec<u16> = bulk.into_iter().collect();
        tree.bulk_load(keys.iter().map(|&v| (key(v), val(v))), 1.0).unwrap();
        for &v in &inserts {
            if let Err(at) = keys.binary_search(&v) {
                keys.insert(at, v);
                tree.insert(&key(v), &val(v)).unwrap();
            }
        }
        let n = keys.len() as isize;
        for &(how, probe) in &starts {
            let (mut cur, mut pos) = match how {
                0 => (tree.seek(&key(probe)).unwrap(), keys.partition_point(|&k| k < probe) as isize),
                1 => (tree.first().unwrap(), 0),
                _ => (tree.last().unwrap(), n - 1),
            };
            for &(forward, len) in &runs {
                for _ in 0..len {
                    let moved = if forward {
                        pos = (pos + 1).min(n);
                        cur.advance().unwrap()
                    } else {
                        pos = (pos - 1).max(-1);
                        cur.retreat().unwrap()
                    };
                    let valid = (0..n).contains(&pos);
                    prop_assert_eq!(moved, valid, "move result at model position {}", pos);
                    prop_assert_eq!(cur.valid(), valid, "validity at model position {}", pos);
                    if valid {
                        let want = keys[pos as usize];
                        prop_assert_eq!(cur.key(), key(want).as_slice());
                        prop_assert_eq!(cur.value(), val(want).as_slice());
                    }
                }
            }
        }
        std::fs::remove_file(path).ok();
    }
}
