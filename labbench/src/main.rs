//! `labbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]`
//!
//! Prints a host line, a diagnostics line and, last, the result
//! object. Exits 0 when every output check passed, 1 when one failed
//! (the result says which), and 2 without a result on a usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use ichannels_labbench::runner::{self, Options};

const USAGE: &str = "usage: labbench --workload catalog_cold|fuzz_recurring|analyze_merge \
                     --seed N --seconds S --trace 0|1 [--out-dir DIR]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("labbench/out"),
    };
    let mut seen_workload = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                seen_workload = true;
            }
            "--seed" => {
                opts.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !seen_workload {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("labbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match runner::run(&opts) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("labbench: {e}");
            ExitCode::from(2)
        }
    }
}
