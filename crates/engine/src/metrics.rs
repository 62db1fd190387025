//! Engine-level serving metrics: throughput, latency percentiles, and the
//! aggregated IO ledger of every shard's buffer pools.
//!
//! These counters live on the engine and nowhere else: the process-global
//! telemetry registry has no labels, so it could not tell two engines in
//! one process apart. Callers read them through
//! [`crate::Engine::serving_stats`].

use hd_storage::IoSnapshot;
use hd_telemetry::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters owned by an [`crate::Engine`].
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    queries: AtomicU64,
    batches: AtomicU64,
    /// Summed batch latencies — the engine's *busy* serving time. QPS is
    /// computed against this, not wall-clock since construction, so idle
    /// gaps (between benchmark phases, overnight, …) do not decay the
    /// reported throughput toward zero.
    busy_nanos: AtomicU64,
    latency: LatencyHistogram,
}

impl EngineMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed batch of `queries` requests that all finished
    /// after `elapsed_nanos`. Every request in the batch observed the full
    /// batch latency (they arrived together and were answered together), so
    /// each contributes one sample at that value.
    pub fn record_batch(&self, queries: u64, elapsed_nanos: u64) {
        self.queries.fetch_add(queries, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos.fetch_add(elapsed_nanos, Ordering::Relaxed);
        self.latency.record_n(elapsed_nanos, queries);
    }

    /// Zeroes the query/batch/busy counters and the latency histogram —
    /// the serving-side counterpart of the shards' IO-ledger reset, so a
    /// bench phase can measure from a clean slate.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
        self.latency.reset();
    }

    /// Snapshot with the IO ledger supplied by the engine (it owns the
    /// shards).
    pub fn snapshot(&self, io: IoSnapshot) -> EngineStats {
        let queries = self.queries.load(Ordering::Relaxed);
        let busy_secs = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let nanos = self.latency.percentiles(&[0.50, 0.95, 0.99]);
        EngineStats {
            queries,
            batches: self.batches.load(Ordering::Relaxed),
            qps: if busy_secs > 0.0 {
                queries as f64 / busy_secs
            } else {
                0.0
            },
            busy_secs,
            p50_ms: nanos[0] as f64 / 1e6,
            p95_ms: nanos[1] as f64 / 1e6,
            p99_ms: nanos[2] as f64 / 1e6,
            io,
        }
    }
}

/// Point-in-time serving statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Queries answered since the engine started.
    pub queries: u64,
    /// Batches submitted.
    pub batches: u64,
    /// Steady-state queries per second: lifetime queries divided by *busy*
    /// time (summed batch latencies), so idle wall-clock gaps do not bleed
    /// the number toward zero. When batches overlap on many caller threads
    /// the busy denominators overlap too, making this a conservative
    /// (lower-bound) estimate; callers wanting windowed throughput can diff
    /// [`Self::queries`] / [`Self::busy_secs`] between two snapshots.
    pub qps: f64,
    /// Cumulative busy serving time in seconds (the QPS denominator).
    pub busy_secs: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Aggregated IO counters across every shard's pools (τ+1 each).
    pub io: IoSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_batches() {
        let m = EngineMetrics::new();
        m.record_batch(8, 2_000_000); // 8 queries at 2 ms
        m.record_batch(2, 50_000_000); // 2 stragglers at 50 ms
        let s = m.snapshot(IoSnapshot::default());
        assert_eq!(s.queries, 10);
        assert_eq!(s.batches, 2);
        assert!(s.qps > 0.0);
        // p50 in the fast mode, p99 in the slow one; histogram error ≤ ~3%.
        assert!((s.p50_ms - 2.0).abs() / 2.0 < 0.05, "p50 {}", s.p50_ms);
        assert!((s.p99_ms - 50.0).abs() / 50.0 < 0.05, "p99 {}", s.p99_ms);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
    }

    #[test]
    fn fresh_metrics_are_zero() {
        let s = EngineMetrics::new().snapshot(IoSnapshot::default());
        assert_eq!(s.queries, 0);
        assert_eq!(s.p99_ms, 0.0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.busy_secs, 0.0);
    }

    #[test]
    fn reset_zeroes_counters_and_histogram() {
        let m = EngineMetrics::new();
        m.record_batch(8, 2_000_000);
        m.record_batch(2, 50_000_000);
        m.reset();
        let s = m.snapshot(IoSnapshot::default());
        assert_eq!(s.queries, 0);
        assert_eq!(s.batches, 0);
        assert_eq!(s.busy_secs, 0.0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.p99_ms, 0.0);
        // Recording after a reset starts a fresh epoch.
        m.record_batch(4, 1_000_000);
        let s = m.snapshot(IoSnapshot::default());
        assert_eq!(s.queries, 4);
        assert_eq!(s.batches, 1);
    }

    #[test]
    fn qps_is_busy_time_based_and_immune_to_idle_gaps() {
        let m = EngineMetrics::new();
        // 100 queries served in exactly 1 s of busy time. However long the
        // process then idles before the snapshot, QPS must stay 100.
        m.record_batch(100, 1_000_000_000);
        let s = m.snapshot(IoSnapshot::default());
        assert!((s.qps - 100.0).abs() < 1e-9, "qps {}", s.qps);
        assert!((s.busy_secs - 1.0).abs() < 1e-12);
        // A second phase at a different rate averages over busy time only.
        m.record_batch(300, 1_000_000_000);
        let s = m.snapshot(IoSnapshot::default());
        assert!((s.qps - 200.0).abs() < 1e-9, "qps {}", s.qps);
    }
}
