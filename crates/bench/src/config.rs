//! Command-line configuration shared by all experiment binaries.

use hd_core::metric::Metric;

/// Scaling knobs parsed from `argv`: `--scale F` multiplies every dataset
/// size, `--queries N` overrides the query-set size, `--seed S` reseeds the
/// generators, `--methods a,b,c` restricts registry-driven binaries to the
/// named methods, `--metric l2|l1|cosine|dot` selects the distance function
/// on every workload-driven binary (methods — or filter variants — that
/// cannot serve it render as NP rows with the reason), `--telemetry`
/// enables the global telemetry layer and prints a per-stage breakdown plus
/// the Prometheus exposition at exit. Unknown flags are ignored so binaries
/// can add their own.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub scale: f64,
    pub queries: Option<usize>,
    pub seed: u64,
    /// Registry names selected with `--methods` (comma-separated), if any.
    pub methods: Option<Vec<String>>,
    /// Distance function selected with `--metric` (default L2).
    pub metric: Metric,
    /// Whether `--telemetry` was passed (spans + stage-breakdown report).
    pub telemetry: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: 1.0,
            queries: None,
            seed: 42,
            methods: None,
            metric: Metric::L2,
            telemetry: false,
        }
    }
}

impl BenchConfig {
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_slice(&args)
    }

    pub fn from_slice(args: &[String]) -> Self {
        let mut cfg = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.scale = v;
                        i += 1;
                    }
                }
                "--queries" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.queries = Some(v);
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        cfg.seed = v;
                        i += 1;
                    }
                }
                "--methods" => {
                    if let Some(v) = args.get(i + 1) {
                        cfg.methods = Some(
                            v.split(',')
                                .map(|m| m.trim().to_string())
                                .filter(|m| !m.is_empty())
                                .collect(),
                        );
                        i += 1;
                    }
                }
                "--metric" => {
                    if let Some(v) = args.get(i + 1) {
                        match Metric::parse(v) {
                            Some(m) => cfg.metric = m,
                            None => eprintln!(
                                "warning: unknown metric {v:?} (known: l2, l1, cosine, dot); \
                                 keeping {}",
                                cfg.metric
                            ),
                        }
                        i += 1;
                    }
                }
                "--telemetry" => cfg.telemetry = true,
                _ => {}
            }
            i += 1;
        }
        cfg
    }

    /// Applies the scale factor with a floor so indexes stay non-degenerate.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(200)
    }

    /// Query-set size: explicit override, else scaled with a floor of 20.
    pub fn nq(&self, base: usize) -> usize {
        self.queries
            .unwrap_or(((base as f64 * self.scale) as usize).max(20))
    }

    /// A scratch directory for this experiment's index files.
    pub fn scratch(&self, experiment: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_bench")
            .join(format!("{experiment}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}

/// The argument after `name` on the command line, for a binary's own
/// flags (`--json PATH`, `--budget-mb N`); `None` when the flag is absent
/// or is the last argument.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let cfg = BenchConfig::from_slice(&s(&["prog", "--scale", "0.5", "--seed", "7"]));
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.queries, None);
        assert_eq!(cfg.metric, Metric::L2, "L2 is the default metric");
    }

    #[test]
    fn parses_metric_flag() {
        let cfg = BenchConfig::from_slice(&s(&["prog", "--metric", "cosine"]));
        assert_eq!(cfg.metric, Metric::Cosine);
        let cfg = BenchConfig::from_slice(&s(&["prog", "--metric", "no-such"]));
        assert_eq!(cfg.metric, Metric::L2, "unknown metric falls back with a warning");
    }

    #[test]
    fn scaling_with_floor() {
        let cfg = BenchConfig {
            scale: 0.001,
            ..Default::default()
        };
        assert_eq!(cfg.n(10_000), 200);
        let cfg = BenchConfig::default();
        assert_eq!(cfg.n(10_000), 10_000);
    }

    #[test]
    fn ignores_unknown_flags() {
        let cfg = BenchConfig::from_slice(&s(&["prog", "--wat", "--scale", "2"]));
        assert_eq!(cfg.scale, 2.0);
    }

    #[test]
    fn parses_telemetry_flag() {
        assert!(!BenchConfig::from_slice(&s(&["prog"])).telemetry);
        // Takes no argument, so following flags still parse.
        let cfg = BenchConfig::from_slice(&s(&["prog", "--telemetry", "--scale", "0.5"]));
        assert!(cfg.telemetry);
        assert_eq!(cfg.scale, 0.5);
    }
}
