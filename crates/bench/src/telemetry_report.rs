//! `--telemetry` support for `paper` and `build_bench`: flips the global
//! telemetry gate on, and at exit prints a per-stage latency breakdown, the
//! Prometheus exposition (self-validated), and a JSON snapshot.
//!
//! Two numbers double as CI gates (the process exits non-zero when either
//! fails):
//!
//! * **coverage** — on runs with traced HD-Index queries, the three
//!   instrumented stages (reference distances, candidate walk, refinement)
//!   must account for ≥ 90% of measured end-to-end query time, i.e. the
//!   breakdown explains where queries spend their time rather than leaving
//!   it in an unattributed remainder;
//! * **exposition validity** — `render_prometheus()` output must pass
//!   [`hd_telemetry::validate_prometheus`] (name charset, HELP/TYPE lines,
//!   no duplicate series).

use crate::config::BenchConfig;
use crate::table;
use std::time::Instant;

/// Coverage the instrumented stages must reach vs end-to-end query time.
const COVERAGE_GATE: f64 = 0.90;

/// Enables telemetry when `--telemetry` was passed; call first thing in
/// `main`. Measures the disabled-path `span!` overhead *before* flipping
/// the gate, so the printed number is exactly what every non-telemetry run
/// pays.
pub fn init(cfg: &BenchConfig) {
    if !cfg.telemetry {
        return;
    }
    let overhead = disabled_span_overhead_ns();
    println!(
        "[telemetry] enabled; disabled-path span! overhead ≈ {overhead:.2} ns/call \
         (what runs without --telemetry pay per instrumented call site)"
    );
    hd_telemetry::install_events(Box::new(std::io::stderr()), hd_telemetry::Level::Info, 20);
    hd_telemetry::set_enabled(true);
}

/// Average cost of one `span!` call while telemetry is disabled: a relaxed
/// atomic load and an immediate `None`. Measured over a million calls.
fn disabled_span_overhead_ns() -> f64 {
    assert!(
        !hd_telemetry::enabled(),
        "overhead probe must run before telemetry is enabled"
    );
    const CALLS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        let s = hd_telemetry::span!("bench_overhead_probe_nanos");
        std::hint::black_box(&s);
    }
    t.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// Prints the stage breakdown + exposition and enforces the CI gates; call
/// last thing in `main`. No-op without `--telemetry`.
pub fn report(cfg: &BenchConfig) {
    if !cfg.telemetry {
        return;
    }
    hd_telemetry::set_enabled(false);
    let dropped = hd_telemetry::uninstall_events();
    let reg = hd_telemetry::global();

    // ---- Stage breakdown table -------------------------------------------
    // The per-query pipeline stages attribute against end-to-end query time;
    // everything else (shard/engine/WAL/compaction histograms) rides in the
    // same table with an unattributed share column.
    let total = reg.histogram("hd_query_nanos", "end-to-end traced HD-Index query latency");
    let stages = [
        "hd_query_ref_dists_nanos",
        "hd_query_candidates_nanos",
        "hd_query_refine_nanos",
    ];
    let widths = [28usize, 10, 12, 12, 12, 12, 8];
    table::header(
        "telemetry: stage breakdown",
        &["stage", "count", "total", "mean", "p50", "p99", "share"],
        &widths,
    );
    let total_sum = total.sum();
    let mut attributed = 0u64;
    let mut rows: Vec<String> = reg
        .names()
        .into_iter()
        .filter(|n| n.ends_with("_nanos") && !n.starts_with("bench_overhead"))
        .collect();
    // Pipeline stages first, in execution order; the rest alphabetically.
    rows.sort_by_key(|n| match stages.iter().position(|s| s == n) {
        Some(i) => (0, i, n.clone()),
        None => (1, usize::MAX, n.clone()),
    });
    for name in rows {
        let h = reg.histogram(&name, "");
        if h.count() == 0 {
            continue;
        }
        let is_stage = stages.contains(&name.as_str());
        if is_stage {
            attributed += h.sum();
        }
        let share = if is_stage && total_sum > 0 {
            table::pct(h.sum() as f64 / total_sum as f64)
        } else if name == "hd_query_nanos" {
            "100%".into()
        } else {
            "—".into()
        };
        table::row(
            &[
                name.clone(),
                h.count().to_string(),
                table::ms(h.sum() as f64 / 1e6),
                table::ms(h.mean() / 1e6),
                table::ms(h.percentile(0.5) as f64 / 1e6),
                table::ms(h.percentile(0.99) as f64 / 1e6),
                share,
            ],
            &widths,
        );
    }
    if dropped > 0 {
        println!("[telemetry] {dropped} events rate-limited");
    }

    // ---- Coverage gate ---------------------------------------------------
    if total.count() > 0 {
        let coverage = attributed as f64 / total_sum as f64;
        println!(
            "[telemetry] stage coverage: {} of end-to-end query time attributed \
             (gate ≥ {})",
            table::pct(coverage),
            table::pct(COVERAGE_GATE),
        );
        if coverage < COVERAGE_GATE {
            eprintln!("[telemetry] FAIL: stage breakdown below the coverage gate");
            std::process::exit(1);
        }
        // The disabled path is the per-site probe cost times a handful of
        // sites per query — make the "< 2% regression" claim concrete.
        let per_query_ns = disabled_span_overhead_ns() * stages.len() as f64;
        println!(
            "[telemetry] implied overhead without --telemetry: ~{per_query_ns:.0} ns/query \
             vs mean query {} ({})",
            table::ms(total.mean() / 1e6),
            table::pct(per_query_ns / total.mean()),
        );
    }

    // ---- Exposition ------------------------------------------------------
    let text = reg.render_prometheus();
    match hd_telemetry::validate_prometheus(&text) {
        Ok(samples) => println!(
            "\n=== telemetry: prometheus exposition ({samples} samples, validated) ===\n{text}"
        ),
        Err(err) => {
            eprintln!("[telemetry] FAIL: invalid prometheus exposition: {err}");
            std::process::exit(1);
        }
    }
    println!("=== telemetry: json snapshot ===\n{}", reg.render_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_overhead_is_near_zero() {
        // The whole point of the gate: one relaxed load per disabled call.
        // 50 ns is over an order of magnitude above what it measures in
        // release mode; the bound only catches accidental allocation or
        // clock reads sneaking into the disabled path (debug builds stay
        // comfortably under it too).
        let ns = disabled_span_overhead_ns();
        assert!(ns < 50.0, "disabled span! costs {ns:.1} ns/call");
    }

    #[test]
    fn report_without_flag_is_a_no_op() {
        let cfg = BenchConfig::default();
        assert!(!cfg.telemetry);
        init(&cfg);
        report(&cfg); // must not enable telemetry, print, or exit
        assert!(!hd_telemetry::enabled());
    }
}
