//! Fault-tolerant cluster solve: checkpoint/restart plus
//! degradation-aware rebalancing.
//!
//! [`solve_cluster_recovering`] is a supervisor over the cluster solver's
//! executor generations (`cluster::Generation`): each
//! generation spawns one executor per surviving rank, every executor
//! hosts the subdomains the current assignment gives it and runs the
//! shared power-iteration driver over them, exchanging boundary fluxes at
//! subdomain granularity and checkpointing every N iterations into a
//! shared store (the in-memory stand-in for a burst buffer / parallel
//! file system). All communication goes through a
//! [`antmoc_cluster::fault::FaultyComm`], so sends can drop, flip, and
//! exhaust their retry budget per the seeded [`FaultPlan`].
//!
//! When a rank dies — a scheduled death from the plan, or a send whose
//! retries are exhausted — every executor unwinds cleanly, the
//! supervisor re-runs the L1 mapping over the survivors
//! ([`antmoc_balance::rebalance_on_loss`]), redistributes the
//! sub-geometries, and restarts the iteration from the newest checkpoint
//! common to all subdomains.
//!
//! The driver reduces per subdomain, in subdomain order, so a recovered
//! serial run is bit-identical to a fault-free one however the subdomains
//! were repacked — what the tests below and `integration_fault_recovery`'s
//! 1e-8 k_eff check rely on.

use std::sync::Arc;

use antmoc_balance::rebalance_on_loss;
use antmoc_cluster::fault::{CommError, FaultConfig, FaultPlan};
use antmoc_telemetry::{Json, Telemetry};

use crate::checkpoint::CheckpointStore;
use crate::cluster::{Backend, ClusterOptions, Generation};
use crate::decomp::Decomposition;
use crate::driver::Stop;
use crate::eigen::EigenOptions;

/// Controls for the fault-tolerant solve.
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// The fault schedule (a zero config injects nothing).
    pub fault: FaultConfig,
    /// Checkpoint every this many iterations (0 disables checkpointing;
    /// recovery then restarts from scratch).
    pub checkpoint_interval: usize,
    /// How many rank losses to absorb before giving up.
    pub max_restarts: usize,
    /// Exchange, link, schedule, workers and kernel, as for the plain
    /// cluster solve. Pipelined receives still route every blocking wait
    /// through the fault layer's `recv` deadline, so a dead peer surfaces
    /// a `CommError::Timeout` exactly as on the sync path.
    pub cluster: ClusterOptions,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self {
            fault: FaultConfig::default(),
            checkpoint_interval: 10,
            max_restarts: 4,
            cluster: ClusterOptions::default(),
        }
    }
}

/// One degradation event: a rank died and the survivors rebalanced.
#[derive(Debug, Clone)]
pub struct RebalanceEvent {
    /// Original rank id (the initial one-rank-per-subdomain numbering).
    pub died_rank: usize,
    /// Iteration at which the loss was detected.
    pub at_iteration: usize,
    /// Iteration the restarted generation began at.
    pub restart_iteration: usize,
    /// Executors remaining after the loss.
    pub survivors: usize,
    /// Subdomains whose owner changed in the new L1 mapping.
    pub migrated: usize,
    /// Cut weight of the new mapping.
    pub cut: f64,
    /// Per-survivor summed load of the new mapping.
    pub node_loads: Vec<f64>,
}

/// Outcome of a fault-tolerant solve.
#[derive(Debug)]
pub struct RecoveryResult {
    pub keff: f64,
    /// Iteration number the solve finished at.
    pub iterations: usize,
    /// Iterations actually executed, including work replayed after
    /// restarts (the cost metric for the ≤ 2x inflation gate).
    pub total_iterations: usize,
    pub converged: bool,
    /// Final scalar flux per *subdomain* (decomposition rank order).
    pub phi: Vec<Vec<f64>>,
    /// Residual history of the final generation.
    pub residuals: Vec<f64>,
    /// Rank losses absorbed.
    pub restarts: usize,
    /// One event per loss.
    pub rebalances: Vec<RebalanceEvent>,
    /// Bytes sent across all generations.
    pub comm_bytes: u64,
}

/// Runs the decomposed eigenvalue problem with fault injection,
/// checkpoint/restart, and degradation-aware rebalancing.
pub fn solve_cluster_recovering(
    decomp: &Decomposition,
    backend: &Backend,
    opts: &EigenOptions,
    rec: &RecoveryOptions,
) -> RecoveryResult {
    let tel = Telemetry::current();
    let s = decomp.problems.len();
    let plan = Arc::new(FaultPlan::new(rec.fault.clone()));
    let store = CheckpointStore::new();

    let loads: Vec<f64> = decomp.problems.iter().map(|p| p.num_3d_segments() as f64).collect();
    let dims = (decomp.spec.nx, decomp.spec.ny, decomp.spec.nz);

    // `alive[slot]` is the original rank id an executor slot stands for.
    let mut alive: Vec<usize> = (0..s).collect();
    let mut assignment: Vec<u32> = (0..s as u32).collect();
    let mut death_fired = vec![false; s];
    let mut start_iteration = 1usize;
    let mut restarts = 0usize;
    let mut rebalances: Vec<RebalanceEvent> = Vec::new();
    let mut total_iterations = 0usize;
    let mut comm_bytes = 0u64;

    let result = loop {
        // The earliest unfired scheduled death among the survivors.
        // Deaths scheduled before this generation's start (possible when
        // a restart lands past them) fire at the first iteration.
        let mut death: Option<(usize, usize)> = None;
        for (slot, &orig) in alive.iter().enumerate() {
            if death_fired[orig] {
                continue;
            }
            if let Some(it) = plan.death_iteration(orig) {
                let it = it.max(start_iteration);
                if death.is_none_or(|(_, d)| it < d) {
                    death = Some((slot, it));
                }
            }
        }
        let outcome = Generation {
            decomp,
            backend,
            opts,
            copts: &rec.cluster,
            plan: plan.clone(),
            checkpoint: Some((&store, rec.checkpoint_interval)),
            assignment: assignment.clone(),
            start: start_iteration,
            death: death.map(|(_, it)| it),
        }
        .run(alive.len());
        comm_bytes += outcome.traffic.iter().map(|t| t.sent_bytes).sum::<u64>();

        let stops: Vec<Option<&Stop>> =
            outcome.results.iter().map(|r| r.outcome.as_ref().err()).collect();
        total_iterations += outcome
            .results
            .iter()
            .map(|r| r.outcome.as_ref().map_or_else(|stop| stop.executed, |s| s.executed))
            .max()
            .unwrap_or(0);

        if stops.iter().all(Option::is_none) {
            let mut phi: Vec<Vec<f64>> = vec![Vec::new(); s];
            let mut finished = None;
            for r in outcome.results {
                for (sub, p) in r.phi {
                    phi[sub] = p;
                }
                finished = r.outcome.ok();
            }
            let f = finished.expect("a generation has at least one executor").result;
            break RecoveryResult {
                keff: f.keff,
                iterations: f.iterations,
                total_iterations,
                converged: f.converged,
                phi,
                residuals: f.residuals,
                restarts,
                rebalances,
                comm_bytes,
            };
        }

        // A rank was lost. Prefer the scheduled death; otherwise blame
        // the executor whose send budget was exhausted (peers report
        // matching timeouts but are healthy).
        let find_failed = |want_exhausted: bool| {
            stops.iter().enumerate().find_map(|(slot, stop)| match stop {
                Some(Stop { at, error: Some(e), .. })
                    if !want_exhausted || matches!(e, CommError::SendExhausted { .. }) =>
                {
                    Some((slot, *at))
                }
                _ => None,
            })
        };
        let scheduled = death.and_then(|(slot, _)| {
            stops.iter().find_map(|stop| match stop {
                Some(Stop { at, error: None, .. }) => Some((slot, *at)),
                _ => None,
            })
        });
        let (died_slot, at_iteration) = scheduled
            .or_else(|| find_failed(true))
            .or_else(|| find_failed(false))
            .expect("a non-finished generation has a failed slot");
        let died_rank = alive[died_slot];
        death_fired[died_rank] = true;
        tel.counter_add("comm.rank_failures", 1);

        if alive.len() == 1 || restarts >= rec.max_restarts {
            // Nothing left to recover with: report what we have.
            break RecoveryResult {
                keff: f64::NAN,
                iterations: at_iteration,
                total_iterations,
                converged: false,
                phi: Vec::new(),
                residuals: Vec::new(),
                restarts,
                rebalances,
                comm_bytes,
            };
        }
        restarts += 1;

        // Previous owners in the compacted survivor space; the dead
        // slot's subdomains become orphans.
        let died = died_slot as u32;
        let prev: Vec<u32> = assignment
            .iter()
            .map(|&slot| match slot.cmp(&died) {
                std::cmp::Ordering::Equal => u32::MAX,
                std::cmp::Ordering::Greater => slot - 1,
                std::cmp::Ordering::Less => slot,
            })
            .collect();
        alive.remove(died_slot);
        let rb = rebalance_on_loss(dims, &loads, (1.0, 1.0, 1.0), &prev, alive.len());
        assignment = rb.mapping.node_of.clone();

        start_iteration = store.common_iteration().map_or(1, |c| c + 1);
        if start_iteration == 1 {
            store.clear();
        }
        if tel.trace_enabled() {
            tel.trace_instant(
                "recovery.rebalance",
                &[
                    ("died_rank", Json::Uint(died_rank as u64)),
                    ("at_iteration", Json::Uint(at_iteration as u64)),
                    ("restart_iteration", Json::Uint(start_iteration as u64)),
                    ("survivors", Json::Uint(alive.len() as u64)),
                    ("migrated", Json::Uint(rb.migrated as u64)),
                ],
            );
        }
        rebalances.push(RebalanceEvent {
            died_rank,
            at_iteration,
            restart_iteration: start_iteration,
            survivors: alive.len(),
            migrated: rb.migrated,
            cut: rb.mapping.cut,
            node_loads: rb.mapping.node_loads.clone(),
        });
    };

    tel.set_section("fault", fault_section(&plan, restarts));
    if !result.rebalances.is_empty() {
        tel.set_section("rebalance", rebalance_section(&result.rebalances));
    }
    result
}

fn fault_section(plan: &FaultPlan, restarts: usize) -> Json {
    let cfg = plan.config();
    Json::obj(vec![
        ("seed".into(), Json::Uint(cfg.seed)),
        ("drop_p".into(), Json::Num(cfg.drop_p)),
        ("flip_p".into(), Json::Num(cfg.flip_p)),
        ("max_retries".into(), Json::Uint(cfg.max_retries as u64)),
        (
            "deaths".into(),
            Json::Arr(
                cfg.deaths
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("rank".into(), Json::Uint(d.rank as u64)),
                            ("iteration".into(), Json::Uint(d.iteration as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("restarts".into(), Json::Uint(restarts as u64)),
    ])
}

fn rebalance_section(events: &[RebalanceEvent]) -> Json {
    Json::obj(vec![(
        "events".into(),
        Json::Arr(
            events
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("died_rank".into(), Json::Uint(e.died_rank as u64)),
                        ("at_iteration".into(), Json::Uint(e.at_iteration as u64)),
                        ("restart_iteration".into(), Json::Uint(e.restart_iteration as u64)),
                        ("survivors".into(), Json::Uint(e.survivors as u64)),
                        ("migrated".into(), Json::Uint(e.migrated as u64)),
                        ("cut".into(), Json::Num(e.cut)),
                        (
                            "node_loads".into(),
                            Json::Arr(e.node_loads.iter().map(|&l| Json::Num(l)).collect()),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::solve_cluster;
    use crate::decomp::{DecompSpec, Decomposition};
    use antmoc_cluster::fault::RankDeath;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    fn decomp_2x1() -> Decomposition {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let mut bcs = BoundaryConds::reflective();
        bcs.z_max = Bc::Vacuum;
        let g = homogeneous_box(uo2, 4.0, 4.0, (0.0, 8.0), bcs);
        let axial = AxialModel::uniform(0.0, 8.0, 1.0);
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: 0.4,
            num_polar: 2,
            axial_spacing: 0.2,
            ..Default::default()
        };
        Decomposition::build(&g, &axial, &lib, params, DecompSpec { nx: 2, ny: 1, nz: 1 })
    }

    #[test]
    fn zero_fault_recovery_is_bitwise_identical_to_plain_cluster() {
        let d = decomp_2x1();
        let opts = EigenOptions { tolerance: 1e-30, max_iterations: 12, ..Default::default() };
        let plain = solve_cluster(&d, &Backend::CpuSerial, &opts);
        let rec =
            solve_cluster_recovering(&d, &Backend::CpuSerial, &opts, &RecoveryOptions::default());
        // One subdomain per executor, serial sweeps, canonical sums that
        // reproduce the plain solver's rank-order reductions: bit-equal.
        assert_eq!(plain.keff.to_bits(), rec.keff.to_bits());
        assert_eq!(plain.iterations, rec.iterations);
        for (a, b) in plain.phi.iter().zip(&rec.phi) {
            assert_eq!(a, b);
        }
        assert_eq!(rec.restarts, 0);
        assert!(rec.rebalances.is_empty());
    }

    #[test]
    fn rank_death_recovers_from_checkpoint_to_identical_answer() {
        let d = decomp_2x1();
        let opts = EigenOptions { tolerance: 1e-30, max_iterations: 12, ..Default::default() };
        let clean =
            solve_cluster_recovering(&d, &Backend::CpuSerial, &opts, &RecoveryOptions::default());
        let rec = RecoveryOptions {
            fault: FaultConfig {
                deaths: vec![RankDeath { rank: 1, iteration: 8 }],
                ..FaultConfig::default()
            },
            checkpoint_interval: 3,
            ..RecoveryOptions::default()
        };
        let faulty = solve_cluster_recovering(&d, &Backend::CpuSerial, &opts, &rec);
        // Restarted from the iteration-6 checkpoint on one executor; the
        // replayed arithmetic is identical, so so is the answer.
        assert_eq!(clean.keff.to_bits(), faulty.keff.to_bits());
        assert_eq!(faulty.restarts, 1);
        assert_eq!(faulty.rebalances.len(), 1);
        assert_eq!(faulty.rebalances[0].died_rank, 1);
        assert_eq!(faulty.rebalances[0].survivors, 1);
        assert_eq!(faulty.rebalances[0].restart_iteration, 7);
        // 7 iterations before the death survived via checkpoints at 3 and
        // 6; iterations 7..12 replay once: executed = 7 + 6.
        assert_eq!(faulty.total_iterations, clean.total_iterations + 1);
        for (a, b) in clean.phi.iter().zip(&faulty.phi) {
            assert_eq!(a, b);
        }
    }
}
