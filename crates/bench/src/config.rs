//! Command-line configuration shared by the `paper` and `build_bench`
//! binaries. Parsing is strict: a malformed value, an unknown flag, an
//! unknown experiment id or an unknown `--methods` name is an error, which
//! the binaries report with their usage line and exit code 2 before any
//! dataset is generated.

use crate::methods::{self, MethodSpec};
use crate::paper::{self, Experiment};
use hd_core::metric::Metric;
use std::str::FromStr;

/// The flags every binary accepts.
const FLAGS: &str =
    "[--scale F] [--queries N] [--seed S] [--methods a,b] [--metric l2|l1|cosine|dot] [--telemetry]";

/// Scaling knobs parsed from `argv`: `--scale F` multiplies every dataset
/// size, `--queries N` overrides the query-set size, `--seed S` reseeds the
/// generators, `--methods a,b,c` restricts the comparative experiments to
/// the named registry methods, `--metric l2|l1|cosine|dot` selects the
/// distance function on every workload-driven experiment (methods — or
/// filter variants — that cannot serve it render as NP rows with the
/// reason), `--telemetry` enables the global telemetry layer and prints a
/// per-stage breakdown plus the Prometheus exposition at exit.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub scale: f64,
    pub queries: Option<usize>,
    pub seed: u64,
    /// Registry methods selected with `--methods` (comma-separated), if any.
    pub methods: Option<Vec<&'static MethodSpec>>,
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
    /// Parses the shared flags from `args` (program name and experiment id
    /// already removed). `own` names the value flags the calling binary
    /// adds; their values come back in the same order.
    pub fn parse(args: &[String], own: &[&str]) -> Result<(Self, Vec<Option<String>>), String> {
        let mut cfg = Self::default();
        let mut own_values = vec![None; own.len()];
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--telemetry" {
                cfg.telemetry = true;
                continue;
            }
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => cfg.scale = parse_value(flag, value()?)?,
                "--queries" => cfg.queries = Some(parse_value(flag, value()?)?),
                "--seed" => cfg.seed = parse_value(flag, value()?)?,
                "--methods" => {
                    let names = value()?.split(',').map(str::trim).filter(|m| !m.is_empty());
                    cfg.methods = Some(
                        names
                            .map(|m| {
                                methods::spec(m).ok_or_else(|| format!("unknown method {m:?}"))
                            })
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--metric" => {
                    let v = value()?;
                    cfg.metric = Metric::parse(v).ok_or_else(|| format!("unknown metric {v:?}"))?;
                }
                _ => match own.iter().position(|o| o == flag) {
                    Some(i) => own_values[i] = Some(value()?.clone()),
                    None => return Err(format!("unknown argument {flag:?}")),
                },
            }
        }
        Ok((cfg, own_values))
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

/// Parses one flag value, naming the flag and the value on failure.
pub fn parse_value<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// `paper`'s command line: one experiment id, then the shared flags.
pub fn paper_args(args: &[String]) -> Result<(&'static Experiment, BenchConfig), String> {
    let (id, flags) = args.split_first().ok_or("missing experiment")?;
    let experiment = paper::experiment(id).ok_or_else(|| format!("unknown experiment {id:?}"))?;
    let (cfg, _) = BenchConfig::parse(flags, &[])?;
    Ok((experiment, cfg))
}

/// `paper`'s usage line, listing the experiment ids and registry names.
pub fn paper_usage() -> String {
    let ids: Vec<&str> = paper::EXPERIMENTS.iter().map(|e| e.id).collect();
    let names: Vec<&str> = methods::registry().iter().map(|s| s.name).collect();
    format!(
        "usage: paper <experiment> {FLAGS}\n  experiments: {}\n  methods: {}",
        ids.join(", "),
        names.join(", ")
    )
}

/// `build_bench`'s usage line.
pub fn build_bench_usage() -> String {
    format!("usage: build_bench {FLAGS} [--budget-mb N] [--json PATH]")
}

/// Reports a command-line error with the usage line and exits with code 2.
pub fn exit_usage(err: &str, usage: &str) -> ! {
    eprintln!("error: {err}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    fn parse(v: &[&str]) -> Result<BenchConfig, String> {
        BenchConfig::parse(&s(v), &[]).map(|(cfg, _)| cfg)
    }

    #[test]
    fn parses_flags() {
        let cfg = parse(&["--scale", "0.5", "--seed", "7"]).unwrap();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.queries, None);
        assert_eq!(cfg.metric, Metric::L2, "L2 is the default metric");
        let cfg = parse(&["--methods", "hd-index, pq", "--queries", "5"]).unwrap();
        let names: Vec<&str> = cfg.methods.unwrap().iter().map(|s| s.name).collect();
        assert_eq!(names, ["hd-index", "pq"]);
        assert_eq!(cfg.queries, Some(5));
        // A binary's own value flags come back in the order it names them.
        let own = ["--budget-mb", "--json"];
        let (cfg, v) = BenchConfig::parse(&s(&["--json", "x.json", "--scale", "2"]), &own).unwrap();
        assert_eq!(cfg.scale, 2.0);
        assert_eq!(v, [None, Some("x.json".to_string())]);
    }

    #[test]
    fn parses_metric_flag() {
        assert_eq!(
            parse(&["--metric", "cosine"]).unwrap().metric,
            Metric::Cosine
        );
        assert_eq!(
            parse(&["--metric", "no-such"]).unwrap_err(),
            "unknown metric \"no-such\""
        );
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
    fn rejects_bad_arguments() {
        let err = |v: &[&str]| parse(v).unwrap_err();
        assert_eq!(
            err(&["--scale", "abc"]),
            "invalid value \"abc\" for --scale"
        );
        assert_eq!(err(&["--scale"]), "--scale needs a value");
        assert_eq!(
            err(&["--wat", "--scale", "2"]),
            "unknown argument \"--wat\""
        );
        assert_eq!(err(&["0.5"]), "unknown argument \"0.5\"");
        assert_eq!(
            err(&["--methods", "hd-index,no-such"]),
            "unknown method \"no-such\""
        );
        // A binary's own flags are unknown to every other binary.
        assert_eq!(
            err(&["--budget-mb", "8"]),
            "unknown argument \"--budget-mb\""
        );
    }

    #[test]
    fn paper_takes_one_known_experiment_first() {
        let (e, cfg) = paper_args(&s(&["fig8", "--scale", "0.01"])).unwrap();
        assert_eq!((e.id, cfg.scale), ("fig8", 0.01));
        let err = |v: &[&str]| paper_args(&s(v)).err().unwrap();
        assert_eq!(err(&[]), "missing experiment");
        assert_eq!(err(&["fig99"]), "unknown experiment \"fig99\"");
        assert_eq!(
            err(&["--scale", "0.01", "fig8"]),
            "unknown experiment \"--scale\""
        );
        assert_eq!(err(&["fig8", "fig5"]), "unknown argument \"fig5\"");
        let usage = paper_usage();
        assert!(usage.contains("fig8") && usage.contains("table3") && usage.contains("hd-index"));
    }

    #[test]
    fn parses_telemetry_flag() {
        assert!(!parse(&[]).unwrap().telemetry);
        // Takes no argument, so following flags still parse.
        let cfg = parse(&["--telemetry", "--scale", "0.5"]).unwrap();
        assert!(cfg.telemetry);
        assert_eq!(cfg.scale, 0.5);
    }
}
