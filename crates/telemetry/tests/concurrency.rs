//! Concurrent recording through `hd_core::pool::WorkerPool`: every value
//! recorded from N pool threads must be visible, and percentiles must stay
//! monotone while readers race the writers.

use std::sync::Arc;

use hd_core::pool::WorkerPool;
use hd_telemetry::{validate_prometheus, LatencyHistogram, MetricsRegistry};

#[test]
fn worker_pool_recording_loses_nothing() {
    let pool = WorkerPool::new(4);
    let hist = Arc::new(LatencyHistogram::new());
    const TASKS: u64 = 64;
    const PER_TASK: u64 = 1_000;

    pool.run_scoped((0..TASKS).map(|t| {
        let hist = Arc::clone(&hist);
        (
            t as usize,
            Box::new(move || {
                for i in 0..PER_TASK {
                    hist.record(t * PER_TASK + i + 1);
                }
            }) as Box<dyn FnOnce() + Send>,
        )
    }));

    assert_eq!(hist.count(), TASKS * PER_TASK);
    // Sum of 1..=64000.
    let n = TASKS * PER_TASK;
    assert_eq!(hist.sum(), n * (n + 1) / 2);
    assert!(hist.percentile(1.0) >= n);
}

#[test]
fn percentiles_stay_monotone_while_writers_race() {
    let pool = WorkerPool::new(4);
    let hist = Arc::new(LatencyHistogram::new());

    // Writers hammer the histogram on pool threads while this thread reads
    // percentile ladders; each ladder must be monotone even mid-write.
    pool.run_scoped(
        (0..4u64)
            .map(|t| {
                let hist = Arc::clone(&hist);
                (
                    t as usize,
                    Box::new(move || {
                        for i in 1..=50_000u64 {
                            hist.record(t * 10_000 + i);
                        }
                    }) as Box<dyn FnOnce() + Send>,
                )
            })
            .chain(std::iter::once((
                4usize,
                Box::new(|| {
                    for _ in 0..200 {
                        let ladder = hist.percentiles(&[0.5, 0.9, 0.99]);
                        let (p50, p90, p99) = (ladder[0], ladder[1], ladder[2]);
                        assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
                        assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
                    }
                }) as Box<dyn FnOnce() + Send>,
            ))),
    );

    assert_eq!(hist.count(), 200_000);
}

#[test]
fn registry_counters_from_pool_threads_aggregate_exactly() {
    let pool = WorkerPool::new(4);
    let reg = Arc::new(MetricsRegistry::new());

    pool.run_scoped((0..32usize).map(|t| {
        let reg = Arc::clone(&reg);
        (
            t,
            Box::new(move || {
                // Every task resolves its own handle — get-or-create must
                // hand all threads the same underlying atomic.
                let c = reg.counter("pool_ops_total", "ops across pool threads");
                for _ in 0..500 {
                    c.inc();
                }
                reg.histogram("pool_op_nanos", "per-op latency")
                    .record(t as u64 + 1);
            }) as Box<dyn FnOnce() + Send>,
        )
    }));

    assert_eq!(reg.counter("pool_ops_total", "").get(), 32 * 500);
    assert_eq!(reg.histogram("pool_op_nanos", "").count(), 32);
    let text = reg.render_prometheus();
    let samples = validate_prometheus(&text).expect("exposition valid after concurrent writes");
    assert_eq!(samples, 1 + 5); // counter + summary(3 quantiles + sum + count)
}
