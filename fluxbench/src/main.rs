//! `fluxbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//!
//! Prints a human-readable report, a diagnostics JSON line, and as the
//! last line the result JSON. Exits 0 only when every operation
//! succeeded and matched the in-process replay; 1 on a failed run, 2 on
//! bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use fluxbench::spec::Workload;
use fluxbench::{diagnostics_json, result_json, run, Options};

const USAGE: &str = "usage: fluxbench --workload <track-crossing|serve-small|fleet-duty> \
--seed <u64> --seconds <s> --trace <0|1> [--quick]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        quick,
        plant_mismatch: false,
        span_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fluxbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("fluxbench: {} failed: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "fluxbench {} seed {} ({}): {} operations, {} failed",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.ungated) {
        println!("  {name:<36} {value:>14.6} {unit}");
    }
    println!("{}", diagnostics_json(&outcome));
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("fluxbench: served results differ from the in-process replay");
        ExitCode::from(1)
    }
}
