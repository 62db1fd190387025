//! perfbench — the repository benchmark.
//!
//! Runs one workload against the public APIs of `hd_engine::Engine` and
//! `hd_server::Server`, checks every answer, prints every metric by name
//! with its unit, and ends its standard output with one JSON result line:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_cached --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with telemetry off.
//! `--trace 1` runs the workload untraced and then traced, and reports the
//! per-layer metrics, the attribution of client latency to layers, and the
//! tracing overhead. README.md lists the workloads and metrics.

mod corpus;
mod env;
mod http;
mod layers;
mod report;
mod workloads;

use std::process::ExitCode;

use workloads::{Workload, SHARDS};

const USAGE: &str =
    "usage: perfbench --workload <query_cached|query_small_cache|serve_http|write_mix> \
                     --seed <u64> --seconds <s> [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match env::Scratch::create(args.workload.name()) {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fingerprint: workload={} seed={} seconds={} trace={} nproc={} git={} n={} dim={} \
         queries={} shards={SHARDS} scratch_fs={} fsync=every write fsynced before it is acknowledged",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        env::git_sha(),
        corpus::N,
        hd_core::dataset::DatasetProfile::SIFT.dim,
        corpus::QUERIES,
        env::filesystem_of(scratch.path()),
    );
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, scratch.path())
    } else {
        workloads::run_untraced(args.workload, args.seed, args.seconds, scratch.path())
    };
    match result {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
