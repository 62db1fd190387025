//! Model-based property tests for the buffer pool: under any interleaving of
//! writes and reads, the pool must return exactly what a plain in-memory map
//! of pages would, regardless of cache capacity, and its physical-read count
//! must never exceed the logical-read count. Pools sharing a `CacheBudget`
//! must keep its charges equal to the pages they cache.

use hd_storage::{BufferPool, CacheBudget, Pager};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write { page: u64, fill: u8 },
    Read { page: u64 },
    ClearCache,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..16, any::<u8>()).prop_map(|(page, fill)| Op::Write { page, fill }),
            (0u64..16).prop_map(|page| Op::Read { page }),
            Just(Op::ClearCache),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pool_matches_model(operations in ops(), capacity in 0usize..8) {
        let dir = std::env::temp_dir().join("hd_pool_model");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "m_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let page_size = 64;
        let pager = Pager::create_with_page_size(&path, page_size).unwrap();
        pager.allocate_pages(16).unwrap();
        let pool = BufferPool::new(pager, capacity);
        let mut model: HashMap<u64, u8> = HashMap::new();

        for op in &operations {
            match op {
                Op::Write { page, fill } => {
                    pool.write(*page, &vec![*fill; page_size]).unwrap();
                    model.insert(*page, *fill);
                }
                Op::Read { page } => {
                    let got = pool.read(*page).unwrap();
                    let want = model.get(page).copied().unwrap_or(0);
                    prop_assert!(
                        got.iter().all(|&b| b == want),
                        "page {} expected fill {:#x}",
                        page,
                        want
                    );
                }
                Op::ClearCache => pool.clear_cache(),
            }
        }

        let stats = pool.stats();
        prop_assert!(stats.physical_reads <= stats.logical_reads);
        if capacity == 0 {
            prop_assert_eq!(stats.physical_reads, stats.logical_reads,
                "zero capacity must make every read physical");
        }
        // Cache never exceeds its capacity.
        prop_assert!(pool.memory_bytes() <= capacity * page_size);
        std::fs::remove_file(path).ok();
    }
}

#[derive(Debug, Clone)]
enum SharedOp {
    Write {
        pool: usize,
        page: u64,
        fill: u8,
    },
    Read {
        pool: usize,
        page: u64,
    },
    ClearCache {
        pool: usize,
    },
    /// Drops the pool (refunding its charges) and reopens it on its file.
    DropReopen {
        pool: usize,
    },
}

fn shared_ops() -> impl Strategy<Value = Vec<SharedOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..2, 0u64..12, any::<u8>()).prop_map(|(pool, page, fill)| SharedOp::Write {
                pool,
                page,
                fill
            }),
            // Listed twice: reads are drawn twice as often as the others.
            (0usize..2, 0u64..12).prop_map(|(pool, page)| SharedOp::Read { pool, page }),
            (0usize..2, 0u64..12).prop_map(|(pool, page)| SharedOp::Read { pool, page }),
            (0usize..2).prop_map(|pool| SharedOp::ClearCache { pool }),
            (0usize..2).prop_map(|pool| SharedOp::DropReopen { pool }),
        ],
        1..120,
    )
}

const CAPACITIES: [usize; 4] = [0, 1, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two pools charging one `CacheBudget` smaller than their combined
    /// capacity: reads return the last write, capacity 0 reads physically,
    /// and the budget's charges equal the pages cached across both pools,
    /// through clears, drops and reopens.
    #[test]
    fn shared_budget_pools_match_model(
        operations in shared_ops(),
        caps in (0usize..4, 0usize..4),
        budget_share in 0usize..100,
    ) {
        let page_size = 64;
        let capacity = [CAPACITIES[caps.0], CAPACITIES[caps.1]];
        let budget = CacheBudget::new((capacity[0] + capacity[1]) * budget_share / 100);
        let dir = std::env::temp_dir().join("hd_pool_model");
        std::fs::create_dir_all(&dir).unwrap();
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let paths = [0, 1].map(|p| dir.join(format!("s{p}_{}_{nonce}", std::process::id())));
        let open = |p: usize, pager: Pager| {
            BufferPool::with_budget(pager, capacity[p], Some(budget.clone()))
        };
        let mut pools = [0, 1].map(|p| {
            let pager = Pager::create_with_page_size(&paths[p], page_size).unwrap();
            pager.allocate_pages(12).unwrap();
            Some(open(p, pager))
        });
        let mut models: [HashMap<u64, u8>; 2] = Default::default();
        let cached = |pool: &Option<BufferPool>| {
            pool.as_ref().map_or(0, |pool| pool.memory_bytes() / page_size)
        };

        for op in &operations {
            match *op {
                SharedOp::Write { pool, page, fill } => {
                    let bytes = vec![fill; page_size];
                    pools[pool].as_ref().unwrap().write(page, &bytes).unwrap();
                    models[pool].insert(page, fill);
                }
                SharedOp::Read { pool, page } => {
                    let got = pools[pool].as_ref().unwrap().read(page).unwrap();
                    let want = models[pool].get(&page).copied().unwrap_or(0);
                    prop_assert!(
                        got.iter().all(|&b| b == want),
                        "pool {} page {} expected fill {:#x}",
                        pool,
                        page,
                        want
                    );
                }
                SharedOp::ClearCache { pool } => pools[pool].as_ref().unwrap().clear_cache(),
                SharedOp::DropReopen { pool } => {
                    drop(pools[pool].take());
                    prop_assert_eq!(budget.used(), cached(&pools[1 - pool]),
                        "drop must refund every charge of the dropped pool");
                    let pager = Pager::open(&paths[pool], page_size).unwrap();
                    pools[pool] = Some(open(pool, pager));
                }
            }
            for (p, pool) in pools.iter().enumerate() {
                let stats = pool.as_ref().unwrap().stats();
                prop_assert!(stats.physical_reads <= stats.logical_reads);
                if capacity[p] == 0 {
                    prop_assert_eq!(stats.physical_reads, stats.logical_reads,
                        "zero capacity must make every read physical");
                }
                prop_assert!(cached(pool) <= capacity[p], "pool {} over capacity", p);
            }
            let total = cached(&pools[0]) + cached(&pools[1]);
            prop_assert_eq!(total, budget.used(), "charges must equal cached pages");
            prop_assert!(budget.used() <= budget.capacity(), "budget over-committed");
        }

        drop(pools);
        prop_assert_eq!(budget.used(), 0, "dropping every pool must refund the budget");
        for path in paths {
            std::fs::remove_file(path).ok();
        }
    }
}
