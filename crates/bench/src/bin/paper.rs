//! `paper <experiment> [--scale F --queries N --seed S --methods a,b --metric m --telemetry]`:
//! runs one experiment of the paper's evaluation (§5). The experiments are
//! the entries of `hd_bench::paper`'s table; DESIGN.md §4 lists them.

use hd_bench::{config, paper};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, cfg) = config::paper_args(&args)
        .unwrap_or_else(|err| config::exit_usage(&err, &config::paper_usage()));
    paper::run(experiment, &cfg);
}
