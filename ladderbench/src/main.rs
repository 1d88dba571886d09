//! The repository benchmark. It drives the shipped serving stack from
//! outside: SSB data generated in-process, a `Router` behind a `Gate` on
//! loopback, and closed-loop `GateClient` sessions, one tenant and one TCP
//! connection per client, checking every answer as it goes.
//!
//! ```text
//! cargo run --release --manifest-path ladderbench/Cargo.toml -- \
//!     --workload point-small --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics ([`endtoend`]); `--trace 1`
//! runs the traced ladder and reports the per-layer metrics ([`ladder`]).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check makes `correct`
//! false and the exit code 1. Journals go under `.ladderbench/` in the
//! working directory and are removed at exit; the traced run leaves its
//! spans there as `spans-<workload>.jsonl`.

mod endtoend;
mod ladder;
mod spans;
mod stack;
mod stats;
mod wire;
mod workload;

use stats::Tally;
use std::path::PathBuf;
use std::process::ExitCode;

/// What a run measured and every check it failed.
pub struct Outcome {
    pub tally: Tally,
    pub errors: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("ladderbench: unknown workload {} (one of {names:?})", args.workload);
        return ExitCode::from(2);
    };
    let out = PathBuf::from(".ladderbench");
    let work = out.join(format!("run-{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ladderbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        ladder::run(w, args.seed, args.seconds, &work, &out)
    } else {
        endtoend::run(w, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ladderbench: {} failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("CHECK FAILED: {e}");
    }
    let mut correct = outcome.errors.is_empty();
    let mut metrics = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            eprintln!("CHECK FAILED: {name} is {value}");
            correct = false;
        }
        let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.not_ok(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
