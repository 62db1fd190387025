//! Process-global metrics registry: named counters, gauges, and latency
//! histograms with Prometheus text and JSON exposition.
//!
//! Handles returned by [`MetricsRegistry::counter`] / [`gauge`] /
//! [`histogram`] are cheap clones of `Arc`-backed atomics: look a metric up
//! once (e.g. in a `OnceLock` at the call site), then update it with pure
//! atomic ops on the hot path — the registry lock is only taken at
//! lookup/render time.
//!
//! [`gauge`]: MetricsRegistry::gauge
//! [`histogram`]: MetricsRegistry::histogram

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::LatencyHistogram;

/// Monotonically increasing event count.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time value (f64 stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    help: String,
    metric: Metric,
}

/// A named collection of metrics. Most code uses the process-global
/// instance via [`crate::global`]; tests can construct private registries
/// with [`MetricsRegistry::new`].
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

/// Quantiles reported for each histogram in both exposition formats.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(
            valid_name(name),
            "metric name {name:?} violates [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(name.to_string()).or_insert_with(|| Entry {
            help: help.to_string(),
            metric: make(),
        });
        match &entry.metric {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
        }
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let m = self.get_or_insert(name, help, || {
            Metric::Counter(Counter(Arc::new(AtomicU64::new(0))))
        });
        match m {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let m = self.get_or_insert(name, help, || {
            Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
        });
        match m {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use. Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<LatencyHistogram> {
        let m = self.get_or_insert(name, help, || {
            Metric::Histogram(Arc::new(LatencyHistogram::new()))
        });
        match m {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as {}", other.kind()),
        }
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.lock().unwrap().keys().cloned().collect()
    }

    /// Zeroes every counter and histogram and clears every gauge. Handles
    /// held by callers stay valid and keep pointing at the same metrics.
    pub fn reset(&self) {
        for entry in self.entries.lock().unwrap().values() {
            match &entry.metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.set(0.0),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` header per metric, histograms rendered as summaries with
    /// `quantile` labels plus `_sum` / `_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries.lock().unwrap().iter() {
            let help = entry.help.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(out, "# HELP {name} {help}");
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} summary");
                    let values = h.percentiles(&QUANTILES.map(|(q, _)| q));
                    for ((_, label), v) in QUANTILES.iter().zip(values) {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// JSON snapshot: one object per metric keyed by name, with `type` and
    /// the current value(s). Histograms include count/sum/mean/quantiles.
    /// Built on the shared [`crate::json`] writer, so the output is always
    /// reparseable by the shared strict parser (tested below).
    pub fn render_json(&self) -> String {
        use crate::json::Json;
        let entries = self.entries.lock().unwrap();
        let mut metrics: Vec<(String, Json)> = Vec::with_capacity(entries.len());
        for (name, entry) in entries.iter() {
            let fields = match &entry.metric {
                Metric::Counter(c) => vec![
                    ("type".to_string(), Json::Str("counter".to_string())),
                    ("value".to_string(), Json::Num(c.get() as f64)),
                ],
                Metric::Gauge(g) => {
                    let v = g.get();
                    vec![
                        ("type".to_string(), Json::Str("gauge".to_string())),
                        ("value".to_string(), Json::Num(if v.is_finite() { v } else { 0.0 })),
                    ]
                }
                Metric::Histogram(h) => {
                    let mut fields = vec![
                        ("type".to_string(), Json::Str("histogram".to_string())),
                        ("count".to_string(), Json::Num(h.count() as f64)),
                        ("sum".to_string(), Json::Num(h.sum() as f64)),
                        ("mean".to_string(), Json::Num((h.mean() * 10.0).round() / 10.0)),
                    ];
                    let values = h.percentiles(&QUANTILES.map(|(q, _)| q));
                    for ((q, _), v) in QUANTILES.iter().zip(values) {
                        fields.push((format!("p{}", (q * 100.0) as u64), Json::Num(v as f64)));
                    }
                    fields
                }
            };
            metrics.push((name.clone(), Json::Obj(fields)));
        }
        Json::Obj(metrics).render()
    }
}

/// The process-global registry used by `span!`, the engine, and the write
/// path. Bench binaries render this one.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Validates Prometheus text exposition output: metric-name charset, every
/// sample preceded by `# HELP` and `# TYPE` for its family, no duplicate
/// series, parseable sample values. Returns the number of samples on
/// success; the first violation otherwise.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new(); // family -> type
    let mut helped: std::collections::BTreeSet<String> = Default::default();
    let mut seen_series: std::collections::BTreeSet<String> = Default::default();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name {name:?} in HELP"));
            }
            if !helped.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad metric name {name:?} in TYPE"));
            }
            if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                return Err(format!("line {lineno}: unknown type {kind:?} for {name}"));
            }
            if typed.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {lineno}: no value in sample {line:?}")),
        };
        let name = series.split('{').next().unwrap_or("");
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?} in sample"));
        }
        // A summary's quantile/_sum/_count samples belong to the base family.
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                typed.contains_key(base).then(|| base.to_string())
            })
            .unwrap_or_else(|| name.to_string());
        if !typed.contains_key(&family) {
            return Err(format!("line {lineno}: sample {name} has no TYPE line"));
        }
        if !helped.contains(&family) {
            return Err(format!("line {lineno}: sample {name} has no HELP line"));
        }
        if !seen_series.insert(series.to_string()) {
            return Err(format!("line {lineno}: duplicate series {series:?}"));
        }
        if value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparseable value {value:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_is_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", "total requests");
        let b = reg.counter("requests_total", "ignored on reuse");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth", "current depth");
        g.set(12.5);
        assert_eq!(g.get(), 12.5);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn cross_kind_collision_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", "");
        reg.gauge("x_total", "");
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn invalid_name_rejected() {
        MetricsRegistry::new().counter("bad.name", "");
    }

    #[test]
    fn prometheus_output_is_valid() {
        let reg = MetricsRegistry::new();
        reg.counter("wal_records_total", "records appended").add(7);
        reg.gauge("shard_count", "live shards").set(4.0);
        let h = reg.histogram("query_nanos", "per-query latency");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        let samples = validate_prometheus(&text).expect("exposition must validate");
        // counter + gauge + 3 quantiles + _sum + _count
        assert_eq!(samples, 7);
        assert!(text.contains("# TYPE query_nanos summary"));
        assert!(text.contains("query_nanos_count 3"));
        assert!(text.contains("query_nanos_sum 600"));
        assert!(text.contains("wal_records_total 7"));
    }

    #[test]
    fn validator_catches_violations() {
        assert!(validate_prometheus("bad.name 1").is_err());
        assert!(
            validate_prometheus("# HELP x h\n# TYPE x counter\nx 1\nx 1").is_err(),
            "duplicate series must fail"
        );
        assert!(
            validate_prometheus("x 1").is_err(),
            "sample without TYPE must fail"
        );
        assert!(
            validate_prometheus("# HELP x h\n# TYPE x counter\nx notanumber").is_err(),
            "unparseable value must fail"
        );
        let ok = "# HELP x h\n# TYPE x counter\nx 1\n";
        assert_eq!(validate_prometheus(ok), Ok(1));
    }

    #[test]
    fn json_snapshot_contains_values() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "").add(5);
        reg.gauge("b", "").set(1.5);
        reg.histogram("c_nanos", "").record(1000);
        let json = reg.render_json();
        assert!(json.contains("\"a_total\":{\"type\":\"counter\",\"value\":5}"));
        assert!(json.contains("\"b\":{\"type\":\"gauge\",\"value\":1.5}"));
        assert!(json.contains("\"c_nanos\":{\"type\":\"histogram\",\"count\":1"));
    }

    #[test]
    fn json_snapshot_reparses_under_the_strict_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "").add(5);
        reg.gauge("b", "").set(f64::NAN); // rendered as 0.0, still valid JSON
        let h = reg.histogram("c_nanos", "");
        for v in [100u64, 900, 12345] {
            h.record(v);
        }
        let snapshot = crate::json::parse(&reg.render_json()).expect("snapshot must reparse");
        assert_eq!(
            snapshot
                .get("a_total")
                .and_then(|m| m.get("value"))
                .and_then(crate::json::Json::as_u64),
            Some(5)
        );
        assert_eq!(
            snapshot
                .get("c_nanos")
                .and_then(|m| m.get("count"))
                .and_then(crate::json::Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a_total", "");
        let g = reg.gauge("b", "");
        let h = reg.histogram("c_nanos", "");
        c.add(3);
        g.set(2.0);
        h.record(500);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        c.inc(); // handle still live
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn render_order_is_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", "");
        reg.counter("a_total", "");
        let text = reg.render_prometheus();
        let a = text.find("a_total").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < z, "metrics must render in sorted order");
    }
}
