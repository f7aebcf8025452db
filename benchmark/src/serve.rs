//! The `serve_campaign` workload: a closed loop of two clients, one job
//! in flight each, over a fresh one-worker `SolveService`. Each client
//! submits its own seed-shuffled round over the same four cases, so four
//! jobs are cold (cache misses) and four warm, and while one client's job
//! runs the other's waits in the queue.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use antmoc::input::CaseSpec;
use antmoc::telemetry::{Json, Telemetry};
use antmoc::RunConfig;
use antmoc_serve::{report_signature, JobStats, ServeConfig, SolveRequest, SolveService};

use crate::inputs::{Inputs, SERVE_CASES};
use crate::spans::Recorder;
use crate::workloads::{parse_single, solve_output, PassOutput, SolveOutput, GUARD_ITERATIONS};

/// One worker, so the campaign keeps one thread busy like the
/// single-domain solver workloads: with two, both vCPUs of the reference
/// host were busy and a neighbour taking one of them stretched the
/// campaign's wall by half (README, "Steadiness").
fn service_config() -> ServeConfig {
    ServeConfig { workers: 1, solve_threads: Some(1), ..Default::default() }
}

/// One finished campaign job, as its client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The submitting client and the job's position in its list.
    pub client: usize,
    pub index: usize,
    /// Index into [`SERVE_CASES`].
    pub case: usize,
    pub submit_s: f64,
    /// Submit call to result in hand.
    pub latency_s: f64,
    pub stats: JobStats,
    pub segment_visits: u64,
    pub solve: SolveOutput,
}

/// What one campaign measured beyond the [`PassOutput`] totals.
pub struct Campaign {
    pub pass: PassOutput,
    /// Jobs by client, each client's in submit order.
    pub jobs: Vec<JobRecord>,
    pub peak_inflight_bytes: u64,
    pub snapshot_s: f64,
}

/// Runs one campaign on a fresh service and writes its report (one row
/// per job plus the service's metrics exposition) to `report_path`.
pub fn run_campaign(
    inputs: &Inputs,
    cases: &[(CaseSpec, RunConfig)],
    rec: &Recorder,
    report_path: &Path,
) -> Result<Campaign, String> {
    let t0 = Instant::now();
    rec.scoped("pass", None, |root| {
        let service = rec.scoped("serve.new", root, |_| SolveService::new(service_config()));
        let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (client, jobs) in inputs.serve_order.iter().enumerate() {
                let (service, records, failures) = (&service, &records, &failures);
                scope.spawn(move || {
                    rec.scoped(&format!("serve.client{client}"), root, |me| {
                        for (index, &case) in jobs.iter().enumerate() {
                            let (name, text) = SERVE_CASES[case];
                            let t_submit = Instant::now();
                            let handle = rec.scoped("serve.submit", me, |_| {
                                service.submit(SolveRequest::CaseToml(text.to_owned()))
                            });
                            let submit_s = t_submit.elapsed().as_secs_f64();
                            let handle = match handle {
                                Ok(h) => h,
                                Err(e) => {
                                    failures
                                        .lock()
                                        .unwrap()
                                        .push(format!("{name}: refused: {}", e.0));
                                    continue;
                                }
                            };
                            let result = rec.scoped("serve.wait", me, |_| handle.wait());
                            let latency_s = t_submit.elapsed().as_secs_f64();
                            match result.outcome {
                                Ok(report) => records.lock().unwrap().push(JobRecord {
                                    client,
                                    index,
                                    case,
                                    submit_s,
                                    latency_s,
                                    stats: result.stats,
                                    segment_visits: report.iterations as u64
                                        * report.num_3d_segments
                                        * 2,
                                    solve: solve_output(name, Some(&cases[case].0), &report),
                                }),
                                Err(e) => failures.lock().unwrap().push(format!("{name}: {e:?}")),
                            }
                        }
                    })
                });
            }
        });
        let peak_inflight_bytes = service.peak_inflight_bytes();
        let t_snap = Instant::now();
        let snapshot = rec.scoped("serve.snapshot", root, |_| service.snapshot());
        let snapshot_s = t_snap.elapsed().as_secs_f64();
        rec.scoped("serve.shutdown", root, |_| service.shutdown());

        let mut jobs = records.into_inner().unwrap();
        jobs.sort_by_key(|j| (j.client, j.index));
        let failures = failures.into_inner().unwrap();
        if !failures.is_empty() {
            return Err(format!("serve campaign: {}", failures.join("; ")));
        }

        let json = rec.scoped("report.build", root, |_| {
            campaign_json(&jobs, snapshot.render_text()).to_pretty_string()
        });
        rec.scoped("report.write", root, |_| std::fs::write(report_path, &json))
            .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;

        let pass = PassOutput {
            wall_s: t0.elapsed().as_secs_f64(),
            solve_s: jobs.iter().map(|j| j.stats.solve_s).sum(),
            iterations: jobs.iter().map(|j| j.solve.iterations).sum(),
            segment_visits: jobs.iter().map(|j| j.segment_visits).sum(),
            jobs: jobs.len() as u64,
            solves: jobs.iter().map(|j| j.solve.clone()).collect(),
        };
        Ok(Campaign { pass, jobs, peak_inflight_bytes, snapshot_s })
    })
}

fn campaign_json(jobs: &[JobRecord], metrics_text: &str) -> Json {
    let rows = jobs
        .iter()
        .map(|j| {
            Json::Obj(vec![
                ("case".into(), Json::Str(j.solve.label.clone())),
                ("cache_hit".into(), Json::Bool(j.stats.cache_hit)),
                ("latency_s".into(), Json::Num(j.latency_s)),
                ("queue_wait_s".into(), Json::Num(j.stats.queue_wait_s)),
                ("setup_s".into(), Json::Num(j.stats.setup_s)),
                ("solve_s".into(), Json::Num(j.stats.solve_s)),
                ("keff".into(), Json::Num(j.solve.keff)),
                ("iterations".into(), Json::Uint(j.solve.iterations)),
                ("converged".into(), Json::Bool(j.solve.converged)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("jobs".into(), Json::Arr(rows)),
        ("metrics".into(), Json::Str(metrics_text.to_owned())),
    ])
}

/// The four campaign cases, parsed (for their gates and configurations).
pub fn parse_cases() -> Result<Vec<(CaseSpec, RunConfig)>, String> {
    SERVE_CASES
        .iter()
        .map(|(name, text)| parse_single(text).map_err(|e| format!("serve case {name}: {e}")))
        .collect()
}

/// Staged-path guard for the campaign: a job's report must be bitwise
/// the one a plain `antmoc::run` of the same configuration produces.
/// Both sides stop at [`GUARD_ITERATIONS`].
pub fn guard(cases: &[(CaseSpec, RunConfig)]) -> Result<(), String> {
    let service = SolveService::new(service_config());
    for (spec, config) in cases {
        let mut config = config.clone();
        config.eigen.max_iterations = GUARD_ITERATIONS;
        let served = service
            .submit(SolveRequest::Config(Box::new(config.clone())))
            .map_err(|e| format!("{}: refused: {}", spec.name, e.0))?
            .wait()
            .outcome
            .map_err(|e| format!("{}: {e:?}", spec.name))?;
        let sink = Telemetry::new();
        let _scope = sink.install();
        let plain = antmoc::run(&config);
        if report_signature(&served) != report_signature(&plain) {
            return Err(format!("{}: service report diverges from antmoc::run", spec.name));
        }
    }
    service.shutdown();
    Ok(())
}
