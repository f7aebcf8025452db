//! `suite`: every workload in a fresh child process, the cross-workload
//! output checks no single run can make, and `--calibrate`.

use antmoc::telemetry::{json, Json};

use crate::metrics::END_TO_END;
use crate::run::result_path;
use crate::workloads::{SolveOutput, Workload};
use crate::{check, env, Args};

/// A child run's result file, parsed.
struct ChildResult {
    trace: bool,
    correct: bool,
    failed: u64,
    /// `(name, value, unit)` in declaration order.
    metrics: Vec<(String, f64, String)>,
    /// Signatures are the result file's FNV hashes of the real ones.
    solves: Vec<SolveOutput>,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// One workload's results in a set.
type SetResults = Vec<(Workload, ChildResult)>;

fn parse_result(doc: &Json) -> Option<ChildResult> {
    let Json::Obj(rows) = doc.get("metrics")? else { return None };
    let metrics = rows
        .iter()
        .map(|(name, row)| {
            Some((name.clone(), row.get("value")?.as_f64()?, row.get("unit")?.as_str()?.to_owned()))
        })
        .collect::<Option<_>>()?;
    let solves = doc
        .get("solves")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some(SolveOutput {
                label: s.get("label")?.as_str()?.to_owned(),
                keff: s.get("keff")?.as_f64()?,
                iterations: s.get("iterations")?.as_u64()?,
                converged: matches!(s.get("converged")?, Json::Bool(true)),
                signature: s.get("signature_fnv1a")?.as_str()?.to_owned(),
                flux_ratio: s.get("flux_ratio")?.as_f64(),
            })
        })
        .collect::<Option<_>>()?;
    Some(ChildResult {
        trace: matches!(doc.get("trace")?, Json::Bool(true)),
        correct: matches!(doc.get("correct")?, Json::Bool(true)),
        failed: doc.get("failed")?.as_u64()?,
        metrics,
        solves,
    })
}

/// Runs one workload in a fresh child process and reads its result file.
fn run_child(w: Workload, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", w.name(), "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let path = result_path(&args.out, w, trace);
    // A stale file must not pass for this child's result.
    let _ = std::fs::remove_file(&path);
    // The child's own table goes to our stderr; the suite prints its own.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&output.stdout));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("{}: no result ({e}); child exited with {}", w.name(), output.status)
    })?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    parse_result(&doc).ok_or_else(|| format!("{}: malformed result file", path.display()))
}

/// One full set: every workload untraced (then traced, when asked), with
/// the cross-workload output checks.
fn run_set(args: &Args, traced: bool) -> Result<(SetResults, Vec<String>), String> {
    let mut results = SetResults::new();
    let mut errors = Vec::new();
    for w in Workload::ALL {
        let r = run_child(w, args, false)?;
        if !r.correct {
            errors.push(format!("{}: {} operations failed (see above)", w.name(), r.failed));
        }
        results.push((w, r));
    }
    let first = |w: Workload| {
        &results.iter().find(|(x, _)| *x == w).expect("every workload ran").1.solves[0]
    };
    // Same laydown, three segment-access strategies: one answer.
    for w in [Workload::Explicit, Workload::DeviceManager] {
        errors.extend(check::agree(first(Workload::Otf), first(w), 1e-9).err());
    }
    // Same arithmetic, different exchange schedule: bitwise one answer.
    let (sync, pipelined) = (first(Workload::DecompSync), first(Workload::DecompPipelined));
    if sync.signature != pipelined.signature {
        errors.push(format!("{} is not bitwise equal to {}", pipelined.label, sync.label));
    }
    if traced {
        for w in Workload::ALL {
            let r = run_child(w, args, true)?;
            if !r.correct {
                errors.push(format!("{} (traced): {} operations failed", w.name(), r.failed));
            }
            results.push((w, r));
        }
    }
    Ok((results, errors))
}

/// Compares two sets of the same code and inputs against the declared
/// bounds; returns the breaches.
fn calibrate(first: &SetResults, second: &SetResults) -> Vec<String> {
    let mut breaches = Vec::new();
    println!("\n## calibrate: second set vs first, relative change beside the bound");
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for decl in END_TO_END {
            let (Some(x), Some(y)) = (a.metric(decl.name), b.metric(decl.name)) else { continue };
            let change = (y - x) / x;
            let worse = if decl.better == "lower" { change } else { -change };
            // Same seed, same inputs: a count must repeat exactly.
            let bound = decl.bound.expect("end-to-end metrics carry a bound");
            let breach = if decl.unit == "count" { x != y } else { worse > bound };
            println!(
                "{} {} {x} -> {y} ({:+.2}%, bound {:.0}%){}",
                w.name(),
                decl.name,
                change * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{} {}: {x} -> {y} breaches its bound", w.name(), decl.name));
            }
        }
    }
    breaches
}

/// Runs the whole benchmark; returns whether every check passed.
pub fn suite(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    println!("# env\n{}", env::block(args.seed).to_pretty_string());
    let (first, mut errors) = run_set(args, !args.smoke && !args.calibrate)?;
    for (w, r) in &first {
        println!("\n## {}{}", w.name(), if r.trace { " (per-layer)" } else { "" });
        for (name, value, unit) in &r.metrics {
            println!("{name} = {value} {unit}");
        }
    }
    if args.calibrate {
        let (second, more) = run_set(args, false)?;
        errors.extend(more);
        errors.extend(calibrate(&first, &second));
    }

    // The two findings the sizing runs saw, as numbers.
    let of = |w: Workload, name: &str| {
        first.iter().find(|(x, _)| *x == w).and_then(|(_, r)| r.metric(name))
    };
    if let (Some(cpu), Some(device), Some(sync), Some(pipelined)) = (
        of(Workload::Otf, "ns_per_segment"),
        of(Workload::DeviceManager, "ns_per_segment"),
        of(Workload::DecompSync, "solve_s"),
        of(Workload::DecompPipelined, "solve_s"),
    ) {
        println!("\n## findings");
        println!("device_manager / otf ns_per_segment = {device} / {cpu} = {:.3}", device / cpu);
        println!(
            "decomp_pipelined / decomp_sync solve_s = {pipelined} / {sync} = {:.3}",
            pipelined / sync
        );
    }
    for e in &errors {
        eprintln!("benchmark: FAIL — {e}");
    }
    println!("\nbenchmark: {}", if errors.is_empty() { "PASS" } else { "FAIL" });
    Ok(errors.is_empty())
}
