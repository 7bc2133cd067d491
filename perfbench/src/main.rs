//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-dir <dir>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or the per-layer ones with `--trace 1`).  Exits
//! non-zero when any check failed.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::plan::{Plan, WORKLOADS};
use perfbench::run::run;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        traced: false,
        trace_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(plan) = Plan::new(&args.workload, args.seconds) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let report = match run(&plan, args.seed, args.traced, &args.trace_dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for (name, value, unit) in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!("{name:<32} {value:>14.6} {unit}");
    }
    eprintln!(
        "failed_frac {} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!("{}", report.json(args.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
