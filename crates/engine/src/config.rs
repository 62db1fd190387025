//! Serving-engine configuration.

use hd_index::HdIndexParams;

/// Parameters for building or opening an [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Number of independent HD-Index shards the dataset is split across
    /// (round-robin by object id). Each shard is a full HD-Index over its
    /// slice; queries fan out to all shards and merge exactly.
    pub shards: usize,
    /// Worker threads in the engine's persistent pool. `0` sizes the pool
    /// to the hardware (`available_parallelism`).
    pub threads: usize,
    /// Total page-cache quota shared by *every* buffer pool of *every*
    /// shard (S·(τ+1) pools under one ceiling). `0` leaves pools unbudgeted
    /// (each still respects `index.query_cache_pages` locally).
    pub cache_budget_pages: usize,
    /// Total build working-memory quota in **bytes**, shared by all S
    /// parallel shard builds the way `cache_budget_pages` is shared at
    /// query time (DESIGN.md §11): each shard's chunk buffers and
    /// external-sort buffers charge one `hd_storage::BuildBudget`, spilling
    /// sorted runs when it fills. `0` builds unbounded (no spilling). It
    /// caps the initial build only: a compaction copies the live leaf
    /// entries of a shard's trees and needs no build memory.
    pub build_budget_bytes: usize,
    /// Per-shard HD-Index construction parameters. The reference set is
    /// selected once over the full corpus with these settings and shared by
    /// all shards (see `hd_index::BuildOpts::references`).
    pub index: HdIndexParams,
    /// Tombstone-density threshold (fraction of stored slots tombstoned,
    /// in `(0, 1]`) past which a delete schedules a background compaction
    /// of the worst shard on the engine's worker pool. `None` (the
    /// default) never compacts in the background — benches keep
    /// deterministic file layouts, and callers can still force one with
    /// [`crate::Engine::compact_now`].
    pub compaction_threshold: Option<f64>,
}

impl EngineParams {
    /// Single-shard, hardware-sized pool, no cache budget: the direct
    /// serving wrapper around one `HdIndex`.
    pub fn new(index: HdIndexParams) -> Self {
        Self {
            shards: 1,
            threads: 0,
            cache_budget_pages: 0,
            build_budget_bytes: 0,
            index,
            compaction_threshold: None,
        }
    }

    /// Resolved pool size.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::DatasetProfile;

    #[test]
    fn defaults_are_single_shard_hardware_pool() {
        let p = EngineParams::new(HdIndexParams::for_profile(&DatasetProfile::SIFT));
        assert_eq!(p.shards, 1);
        assert_eq!(p.cache_budget_pages, 0);
        assert!(p.resolved_threads() >= 1);
    }
}
