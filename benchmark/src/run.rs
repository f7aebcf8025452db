//! `run`: one workload measured in this process — the end-to-end run
//! (`--trace 0`) or the traced run (`--trace 1`) — and the result file
//! and result line it leaves behind.

use std::path::{Path, PathBuf};
use std::time::Instant;

use antmoc::input::CaseSpec;
use antmoc::telemetry::Json;
use antmoc::RunConfig;

use crate::check::{self, Expected};
use crate::inputs::{self, Inputs};
use crate::metrics::{self, Metrics};
use crate::spans::{self, Recorder};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{self, PassOutput, SolveOutput, Workload};
use crate::{env, layers, serve, Args, RUN_SECONDS};

/// Timed passes a run takes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 5;
/// Cold set-ups taken before every timed pass. Spreading them over the
/// whole run, rather than taking them all up front, keeps one noisy
/// moment of the host from moving the `setup_s` median.
const SETUP_REPS_PER_PASS: usize = 5;

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// One workload's passes with their output checks and operation counts.
struct Session<'a> {
    w: Workload,
    inputs: &'a Inputs,
    expected: Expected,
    /// The campaign's parsed cases; empty for solver workloads.
    serve_cases: Vec<(CaseSpec, RunConfig)>,
    report_path: PathBuf,
    /// The first solver pass's output; later passes must equal it bitwise.
    first: Option<SolveOutput>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl<'a> Session<'a> {
    fn new(w: Workload, args: &Args, inputs: &'a Inputs) -> Result<Self, String> {
        Ok(Self {
            w,
            inputs,
            expected: Expected::load(args.smoke)?,
            serve_cases: if w == Workload::ServeCampaign {
                serve::parse_cases()?
            } else {
                Vec::new()
            },
            report_path: args.out.join(format!("report_{}.json", w.name())),
            first: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        })
    }

    /// The staged-path guard; it also warms caches and allocators, so the
    /// first timed pass is not the process's first solve.
    fn guard(&mut self) {
        let guard = if self.w == Workload::ServeCampaign {
            serve::guard(&self.serve_cases)
        } else {
            workloads::guard(self.w, self.inputs, &self.report_path)
        };
        self.errors.extend(guard.err());
    }

    /// One pass (one campaign, for `serve_campaign`), checked and counted.
    /// A pass that errors outright counts all its operations as failed.
    fn pass(&mut self, rec: &Recorder) -> Option<PassOutput> {
        if self.w == Workload::ServeCampaign {
            let jobs: usize = self.inputs.serve_order.iter().map(Vec::len).sum();
            self.attempted += jobs as u64;
            match serve::run_campaign(self.inputs, &self.serve_cases, rec, &self.report_path) {
                Ok(campaign) => {
                    let (bad, errors) =
                        check::campaign(&self.expected, &self.serve_cases, &campaign.jobs);
                    self.failed += bad;
                    self.errors.extend(errors);
                    Some(campaign.pass)
                }
                Err(e) => {
                    self.failed += jobs as u64;
                    self.errors.push(e);
                    None
                }
            }
        } else {
            self.attempted += 1;
            let pass = match workloads::solver_pass(self.w, self.inputs, rec, &self.report_path) {
                Ok(pass) => pass,
                Err(e) => {
                    self.failed += 1;
                    self.errors.push(e);
                    return None;
                }
            };
            let solve = &pass.solves[0];
            let first = self.first.get_or_insert_with(|| solve.clone());
            let nominal = self.inputs.seed == 0;
            if let Err(e) = check::solver_pass(self.w, nominal, &self.expected, first, solve) {
                self.failed += 1;
                self.errors.push(e);
            }
            Some(pass)
        }
    }
}

/// What one `run` produced, for the result file and the result line.
pub struct RunResult {
    pub metrics: Metrics,
    /// Quartiles, sample counts and raw samples of the metrics that have
    /// several samples in a run.
    summaries: Vec<(&'static str, Summary, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The first pass's solves, for the suite's cross-workload checks.
    solves: Vec<SolveOutput>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// `setup_s` samples: cold set-ups, input text to ready-to-solve state.
/// For the campaign, the four cases' cold set-ups summed.
fn cold_setups(w: Workload, inputs: &Inputs, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            if w == Workload::ServeCampaign {
                let t = Instant::now();
                for (_, text) in inputs::SERVE_CASES {
                    std::hint::black_box(workloads::cold_single_setup(text)?);
                }
                Ok(t.elapsed().as_secs_f64())
            } else {
                workloads::cold_setup(w, inputs)
            }
        })
        .collect()
}

/// The end-to-end run (`--trace 0`): the guard, then timed passes, each
/// preceded by a few cold set-ups, until `--seconds` have been measured —
/// never fewer than [`MIN_PASSES`], and stopping rather than starting a
/// pass that would overrun by more than half its length.
///
/// The pass metrics are those of the run's fastest pass, not the median
/// over passes: every pass does the same work bit for bit, so whatever
/// makes one slower is the host, and on the reference host that lasts
/// long enough to move a run's median by 15-25% (README, "Steadiness").
/// `setup_s` has 25 and more samples spread over the run and stays their
/// median. The medians and quartiles of everything are still printed.
fn end_to_end(w: Workload, args: &Args, inputs: &Inputs) -> Result<RunResult, String> {
    // A smoke run is one pass, whatever `--seconds` says.
    let (min_passes, seconds) = if args.smoke { (1, 0.0) } else { (MIN_PASSES, args.seconds) };
    let mut session = Session::new(w, args, inputs)?;
    session.guard();

    let off = Recorder::disabled();
    let mut setup_samples = Vec::new();
    let mut passes = Vec::new();
    let t0 = Instant::now();
    for attempt in 1.. {
        setup_samples.extend(cold_setups(w, inputs, SETUP_REPS_PER_PASS)?);
        let t = Instant::now();
        passes.extend(session.pass(&off));
        let last = t.elapsed().as_secs_f64();
        if attempt >= min_passes && t0.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    let Some(fastest) = passes.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)) else {
        return Err(format!("{}: every pass failed: {}", w.name(), session.errors.join("; ")));
    };

    let columns: [(&'static str, &dyn Fn(&PassOutput) -> f64); 5] = [
        ("wall_s", &|p| p.wall_s),
        ("solve_s", &|p| p.solve_s),
        ("ns_per_segment", &|p| p.solve_s * 1e9 / p.segment_visits as f64),
        ("iterations", &|p| p.iterations as f64),
        ("jobs_per_s", &|p| p.jobs as f64 / p.wall_s),
    ];
    let mut metrics = Metrics::default();
    let mut summaries = Vec::new();
    for (name, of) in columns {
        let samples: Vec<f64> = passes.iter().map(of).collect();
        metrics.set(name, of(fastest));
        summaries.push((name, summarize(&samples), samples));
    }
    metrics.set("setup_s", median(&setup_samples));
    summaries.push(("setup_s", summarize(&setup_samples), setup_samples));
    metrics.set("peak_rss_mb", peak_rss_mb()?);
    let Session { attempted, failed, errors, .. } = session;
    Ok(RunResult {
        metrics,
        summaries,
        attempted,
        failed,
        errors,
        solves: passes.swap_remove(0).solves,
    })
}

/// The traced pass's stages and the span-name prefixes whose self time
/// each one sums. The campaign's two clients run in parallel, so its
/// `pass.solve_s` is thread-seconds: about twice the wall.
const STAGES: [(&str, &[&str]); 4] = [
    ("pass.input_s", &["input.", "serve.submit"]),
    ("pass.setup_s", &["setup.", "geom.", "decomp.", "serve.new"]),
    ("pass.solve_s", &["solve", "serve.wait", "serve.client"]),
    ("pass.report_s", &["report.", "output.", "serve.snapshot", "serve.shutdown"]),
];

/// The traced run (`--trace 1`): the guard, one untraced and one traced
/// pass of the workload for the `harness.*` / `pass.*` metrics, then the
/// layer probes for everything else.
fn traced(w: Workload, args: &Args, inputs: &Inputs) -> Result<RunResult, String> {
    let mut session = Session::new(w, args, inputs)?;
    session.guard();
    let rec = Recorder::enabled(inputs.seed);
    let (Some(untraced), Some(traced)) = (session.pass(&Recorder::disabled()), session.pass(&rec))
    else {
        return Err(format!("{}: a pass failed: {}", w.name(), session.errors.join("; ")));
    };

    let spans = rec.spans();
    let self_ns = spans::self_times_ns(&spans);
    let root =
        spans.iter().position(|s| s.parent.is_none()).ok_or("the traced pass has no root")?;
    let root_ns = spans[root].end_ns - spans[root].start_ns;
    let mut metrics = Metrics::default();
    metrics.set("harness.unattributed_share", self_ns[root] as f64 / root_ns as f64);
    metrics.set("harness.trace_overhead_ratio", traced.wall_s / untraced.wall_s);
    for (name, prefixes) in STAGES {
        let seconds = prefixes.iter().map(|p| spans::self_seconds(&spans, &self_ns, p)).sum();
        metrics.set(name, seconds);
    }
    let trace_path = args.out.join(format!("trace_{}.json", w.name()));
    std::fs::write(&trace_path, spans::trace_json(&spans).to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    layers::measure(inputs, args.seconds / RUN_SECONDS, &args.out, &mut metrics)?;
    let Session { attempted, failed, errors, .. } = session;
    Ok(RunResult {
        metrics,
        summaries: Vec::new(),
        attempted,
        failed,
        errors,
        solves: traced.solves,
    })
}

pub fn result_path(out: &Path, w: Workload, trace: bool) -> PathBuf {
    out.join(format!("result_{}_trace{}.json", w.name(), trace as u8))
}

/// The result file the suite reads back: metrics with quartiles and raw
/// samples, the first pass's outputs, and the `env` block.
fn result_json(w: Workload, args: &Args, r: &RunResult) -> Json {
    let metric_rows = metrics::declared(args.trace)
        .iter()
        .map(|d| {
            let mut row = vec![
                ("value".to_owned(), Json::Num(r.metrics.0[d.name])),
                ("unit".to_owned(), Json::Str(d.unit.to_owned())),
                ("better".to_owned(), Json::Str(d.better.to_owned())),
            ];
            if let Some((_, s, samples)) = r.summaries.iter().find(|(n, ..)| *n == d.name) {
                row.push(("n".into(), Json::Uint(s.n as u64)));
                row.push(("median".into(), Json::Num(s.median)));
                row.push(("q1".into(), Json::Num(s.q1)));
                row.push(("q3".into(), Json::Num(s.q3)));
                let samples = samples.iter().map(|&x| Json::Num(x)).collect();
                row.push(("samples".into(), Json::Arr(samples)));
            }
            (d.name.to_owned(), Json::Obj(row))
        })
        .collect();
    let solves = r
        .solves
        .iter()
        .map(|s| {
            let signature = antmoc_serve::cache::fnv1a_64(s.signature.as_bytes());
            Json::Obj(vec![
                ("label".into(), Json::Str(s.label.clone())),
                ("keff".into(), Json::Num(s.keff)),
                ("iterations".into(), Json::Uint(s.iterations)),
                ("converged".into(), Json::Bool(s.converged)),
                ("flux_ratio".into(), s.flux_ratio.map_or(Json::Null, Json::Num)),
                ("signature_fnv1a".into(), Json::Str(format!("{signature:016x}"))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(w.name().into())),
        ("trace".into(), Json::Bool(args.trace)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("env".into(), env::block(args.seed)),
        ("correct".into(), Json::Bool(r.correct())),
        ("attempted".into(), Json::Uint(r.attempted)),
        ("failed".into(), Json::Uint(r.failed)),
        ("errors".into(), Json::Arr(r.errors.iter().map(|e| Json::Str(e.clone())).collect())),
        ("metrics".into(), Json::Obj(metric_rows)),
        ("solves".into(), Json::Arr(solves)),
    ])
}

/// Measures `--workload`, writes its result file, prints every metric by
/// name with its unit and, last, the result line. Returns whether every
/// output check passed.
pub fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload.ok_or("run needs --workload")?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let inputs = inputs::generate(args.seed, args.smoke);
    inputs
        .write(&args.out.join("inputs").join(args.seed.to_string()))
        .map_err(|e| format!("cannot write the generated inputs: {e}"))?;

    let result = if args.trace { traced(w, args, &inputs)? } else { end_to_end(w, args, &inputs)? };
    metrics::check_complete(&result.metrics, args.trace)?;

    let path = result_path(&args.out, w, args.trace);
    std::fs::write(&path, result_json(w, args, &result).to_pretty_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    println!("# {} seed {} trace {}", w.name(), args.seed, args.trace as u8);
    for d in metrics::declared(args.trace) {
        let (name, unit, value) = (d.name, d.unit, result.metrics.0[d.name]);
        match result.summaries.iter().find(|(n, ..)| *n == name) {
            Some((_, s, _)) => println!(
                "{name} = {value} {unit} ({} samples: median {}, quartiles {} .. {})",
                s.n, s.median, s.q1, s.q3
            ),
            None => println!("{name} = {value} {unit}"),
        }
    }
    println!("ops_attempted = {} count", result.attempted);
    println!("ops_failed = {} count", result.failed);
    for e in &result.errors {
        eprintln!("benchmark: FAIL — {e}");
    }
    let line = metrics::result_line(
        result.correct(),
        result.attempted,
        result.failed,
        &result.metrics,
        args.trace,
    );
    println!("{line}");
    Ok(result.correct())
}
