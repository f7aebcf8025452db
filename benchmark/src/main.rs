//! The repo benchmark: six workloads, end-to-end and per-layer metrics,
//! one command. See `README.md` in this directory.
//!
//! ```text
//! antmoc-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! antmoc-benchmark suite [--seed N] [--seconds S] [--smoke] [--calibrate]
//! ```
//!
//! `run` measures one workload in this process and prints, as the last
//! line of its standard output, one JSON object with `correct`,
//! `attempted`, `failed` and every declared metric. `suite` runs every
//! workload in a fresh child process, cross-checks their outputs, and
//! prints every metric by name; `--calibrate` runs the set twice and
//! compares the two against the declared bounds.

mod check;
mod env;
mod inputs;
mod layers;
mod metrics;
mod run;
mod serve;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::Workload;

/// The `run_seconds` BENCHMARK.json declares; the layer probes'
/// repetition counts are sized for it and stretch with `--seconds`.
const RUN_SECONDS: f64 = 16.0;

pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    calibrate: bool,
    /// Where results, traces and generated inputs go.
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        calibrate: false,
        out: Path::new(&target).join("benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workload = Some(w);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            "--calibrate" => parsed.calibrate = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // Thread and tracing policy, fixed before any pool or sink exists:
    // one sweep worker per solve (decomposed runs add one thread per
    // rank, the campaign runs its jobs on one service worker; never more
    // than two busy threads), and in-program event tracing off.
    std::env::set_var("ANTMOC_NUM_THREADS", "1");
    std::env::set_var("ANTMOC_TRACE", "0");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: antmoc-benchmark run|suite [options]");
        return ExitCode::FAILURE;
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => run::run(&args),
        "suite" => suite::suite(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: error: {e}");
            ExitCode::FAILURE
        }
    }
}
