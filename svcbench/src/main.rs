#![forbid(unsafe_code)]
//! Command-line entry of the service-level TLC benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path svcbench/Cargo.toml -- \
//!     --workload tlc_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a metadata line and, last, one JSON result line; exits non-zero
//! when any operation failed or an answer was wrong.

use std::path::PathBuf;
use std::process::ExitCode;
use svcbench::workload::Workload;
use svcbench::Options;

const USAGE: &str = "usage: svcbench --workload <tlc_hot|tlc_adhoc|tlc_rw> --seed <n> \
--seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut opts = Options::new(Workload::Hot, 0);
    opts.out_dir = Some(PathBuf::from("svcbench/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: not {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => opts.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match svcbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("svcbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.failures {
        eprintln!("svcbench: FAILED: {failure}");
    }
    for m in &report.metrics {
        eprintln!("{:<32} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.meta_line());
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
