//! Output checks: every pass must converge inside its band, repeat
//! bitwise, and — where the inputs are the nominal ones — reproduce the
//! committed `expected.json`.

use antmoc::input::CaseSpec;
use antmoc::telemetry::{json, Json};
use antmoc::RunConfig;

use crate::inputs::SERVE_CASES;
use crate::serve::JobRecord;
use crate::workloads::{SolveOutput, Workload};

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Reference physics of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub keff: f64,
    pub iterations: u64,
    pub flux_ratio: Option<f64>,
}

/// The committed references for one laydown (nominal or smoke).
#[derive(Debug, Clone)]
pub struct Expected {
    pub single: Reference,
    pub decomp: Reference,
    /// Band every solver workload's keff must land in at any seed.
    pub keff_band: (f64, f64),
    /// In [`SERVE_CASES`] order; the campaign's cases never change.
    pub serve: Vec<Reference>,
    pub tolerance: f64,
}

fn reference(node: &Json) -> Option<Reference> {
    Some(Reference {
        keff: node.get("keff")?.as_f64()?,
        iterations: node.get("iterations")?.as_u64()?,
        flux_ratio: node.get("flux_ratio").and_then(Json::as_f64),
    })
}

impl Expected {
    pub fn load(smoke: bool) -> Result<Self, String> {
        let doc = json::parse(EXPECTED_JSON).map_err(|e| format!("expected.json: {e:?}"))?;
        let parsed = (|| {
            let laydown = doc.get(if smoke { "smoke" } else { "nominal" })?;
            let band = laydown.get("keff_band")?.as_arr()?;
            let serve = doc.get("serve")?;
            Some(Expected {
                single: reference(laydown.get("single")?)?,
                decomp: reference(laydown.get("decomp")?)?,
                keff_band: (band.first()?.as_f64()?, band.get(1)?.as_f64()?),
                serve: SERVE_CASES
                    .iter()
                    .map(|(name, _)| reference(serve.get(name)?))
                    .collect::<Option<_>>()?,
                tolerance: doc.get("tolerance")?.as_f64()?,
            })
        })();
        parsed.ok_or_else(|| "expected.json lacks a required field".to_owned())
    }

    fn matches(&self, reference: &Reference, solve: &SolveOutput) -> Result<(), String> {
        if (solve.keff - reference.keff).abs() > self.tolerance {
            return Err(format!(
                "{}: keff {} != expected {}",
                solve.label, solve.keff, reference.keff
            ));
        }
        if solve.iterations != reference.iterations {
            return Err(format!(
                "{}: {} iterations != expected {}",
                solve.label, solve.iterations, reference.iterations
            ));
        }
        match (reference.flux_ratio, solve.flux_ratio) {
            (Some(want), Some(got)) if (got - want).abs() > 1e-4 * want => {
                Err(format!("{}: flux ratio {got} != expected {want}", solve.label))
            }
            (Some(_), None) => Err(format!("{}: flux ratio was not tallied", solve.label)),
            _ => Ok(()),
        }
    }
}

/// Checks one pass of a solver workload. `nominal` is true at seed 0,
/// where the committed references apply.
pub fn solver_pass(
    w: Workload,
    nominal: bool,
    expected: &Expected,
    first: &SolveOutput,
    solve: &SolveOutput,
) -> Result<(), String> {
    if !solve.converged {
        return Err(format!(
            "{}: did not converge in {} iterations",
            solve.label, solve.iterations
        ));
    }
    let (lo, hi) = expected.keff_band;
    if !(lo..=hi).contains(&solve.keff) {
        return Err(format!("{}: keff {} outside [{lo}, {hi}]", solve.label, solve.keff));
    }
    if solve.signature != first.signature {
        return Err(format!("{}: pass is not bitwise equal to the first pass", solve.label));
    }
    if nominal {
        expected
            .matches(if w.is_decomposed() { &expected.decomp } else { &expected.single }, solve)?;
    }
    Ok(())
}

/// Checks one job of a serve campaign against its case's own gates, the
/// committed reference, and its twin: the campaign's first job of that case.
pub fn serve_job(
    expected: &Expected,
    spec: &CaseSpec,
    twin: &JobRecord,
    job: &JobRecord,
) -> Result<(), String> {
    let solve = &job.solve;
    if !solve.converged {
        return Err(format!("{}: did not converge", solve.label));
    }
    if let Some((lo, hi)) = spec.gates.keff {
        if !(lo..=hi).contains(&solve.keff) {
            return Err(format!(
                "{}: keff {} outside its gate [{lo}, {hi}]",
                solve.label, solve.keff
            ));
        }
    }
    if let Some(gate) = &spec.gates.flux_ratio {
        match solve.flux_ratio {
            Some(r) if (gate.min..=gate.max).contains(&r) => {}
            other => {
                return Err(format!(
                    "{}: flux ratio {other:?} outside its gate [{}, {}]",
                    solve.label, gate.min, gate.max
                ))
            }
        }
    }
    if solve.signature != twin.solve.signature {
        return Err(format!("{}: report differs from its twin", solve.label));
    }
    expected.matches(&expected.serve[job.case], solve)
}

/// Checks a whole campaign; returns the number of failed jobs.
pub fn campaign(
    expected: &Expected,
    cases: &[(CaseSpec, RunConfig)],
    jobs: &[JobRecord],
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let mut failed = 0;
    for job in jobs {
        let twin =
            jobs.iter().find(|j| j.case == job.case).expect("a job is its own twin at least");
        if let Err(e) = serve_job(expected, &cases[job.case].0, twin, job) {
            failed += 1;
            errors.push(e);
        }
    }
    let misses = jobs.iter().filter(|j| !j.stats.cache_hit).count();
    if misses != SERVE_CASES.len() {
        errors.push(format!("campaign saw {misses} cache misses, expected {}", SERVE_CASES.len()));
    }
    (failed, errors)
}

/// Cross-workload agreement on one laydown: `iterations` exactly and
/// keff to `tol`.
pub fn agree(a: &SolveOutput, b: &SolveOutput, tol: f64) -> Result<(), String> {
    if a.iterations != b.iterations || (a.keff - b.keff).abs() > tol {
        return Err(format!(
            "{} (keff {}, {} iterations) disagrees with {} (keff {}, {} iterations)",
            a.label, a.keff, a.iterations, b.label, b.keff, b.iterations
        ));
    }
    Ok(())
}
