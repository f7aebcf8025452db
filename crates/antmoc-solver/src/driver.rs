//! The one power-iteration driver (the outer loop of the paper's Alg. 1
//! with the §2.1 Point-Jacobi boundary update). The single-domain
//! eigenvalue and fixed-source solves and every rank of the decomposed
//! cluster run [`drive`] over the one subdomain they own. Every
//! iteration: sweep; pass A (scalar flux and fission density); production
//! and residual terms in FSR order, reduced canonically as `[production,
//! ss, cnt]`; `k`; pass B (normalisation, residual reference, next
//! source); one swap-and-scale pass over the banks with the boundary
//! exchange; iteration row, convergence test. No per-FSR buffer is
//! allocated inside the loop. Two hooks set a solve up: the [`Source`]
//! and the exchange (none, or a [`Link`] over the rank's [`Comm`], sync
//! or pipelined).

use std::time::Instant;

use antmoc_cluster::Comm;
use antmoc_telemetry::{Json, Telemetry};

use crate::decomp::Decomposition;
use crate::eigen::{EigenOptions, EigenResult};
use crate::problem::Problem;
use crate::source::{close_flux, compute_source, fission_production, next_source};
use crate::source::{residual_terms, Source};
use crate::sweep::{FluxBanks, MAX_GROUPS};
use crate::sweeper::Sweeper;

/// The boundary-flux exchange tag. A (sender, receiver) pair carries one
/// grouped payload per iteration, and point-to-point order is
/// non-overtaking, so the pair alone addresses it.
const EXCHANGE_TAG: u32 = 200;

/// Iteration controls plus the source hook.
pub(crate) struct Controls<'a> {
    pub opts: &'a EigenOptions,
    pub source: Source<'a>,
}

/// One subdomain's iteration state on the executor that owns it.
pub(crate) struct Hosted<'a> {
    pub problem: &'a Problem,
    pub sweeper: &'a mut dyn Sweeper,
    phi: Vec<f64>,
    q: Vec<f64>,
    banks: FluxBanks,
    /// Residual reference: the previous fission density (eigenvalue) or
    /// flux (fixed source).
    old: Vec<f64>,
    /// This iteration's fission production per FSR (eigenvalue only),
    /// written by pass A and reused across iterations.
    density: Vec<f64>,
}

impl<'a> Hosted<'a> {
    pub fn new(problem: &'a Problem, sweeper: &'a mut dyn Sweeper) -> Self {
        let (n, g) = (problem.num_fsrs() * problem.num_groups(), problem.num_groups());
        let banks = FluxBanks::new(problem.num_tracks(), g);
        let (phi, q) = (vec![0.0; n], vec![0.0; n]);
        Self { problem, sweeper, phi, q, banks, old: Vec::new(), density: Vec::new() }
    }
}

/// A finished (converged or capped) iteration, with the subdomain's
/// final flux in `result.phi`.
pub(crate) struct Solved {
    pub result: EigenResult,
    /// Seconds spent inside the subdomain's sweeps.
    pub sweep_s: f64,
}

/// One grouped flux transfer to a neighbour rank.
struct PairSend {
    dest: usize,
    items: Vec<(u32, u8)>,
    /// The distinct tracks of `items`, ascending. A sweep that reports
    /// them in this order (the serial boundary-first and the natural
    /// orders do) makes every exit final at the last one; a sweep in any
    /// other order ships the payload after it returns.
    tracks: Vec<u32>,
    /// How many of `tracks`, in order, this iteration's sweep has reported.
    swept: usize,
    shipped: bool,
}

/// One grouped delivery from a neighbour rank.
struct PairRecv {
    src: usize,
    /// Traversal slots with their delivery weights.
    items: Vec<((u32, u8), f32)>,
}

/// The cluster exchange hook: one rank's boundary-flux routes over its
/// [`Comm`].
pub(crate) struct Link<'a> {
    comm: &'a mut Comm,
    pipelined: bool,
    sends: Vec<PairSend>,
    recvs: Vec<PairRecv>,
    recv_ready: u64,
    recv_blocked: u64,
}

impl<'a> Link<'a> {
    /// Routes for the subdomain of `comm`'s rank. Sends keep the plan
    /// order grouped by destination (the plan is sorted by neighbour, so
    /// groups are contiguous); receives mirror the senders' grouping.
    pub fn new(comm: &'a mut Comm, decomp: &Decomposition, pipelined: bool) -> Self {
        let rank = comm.rank();
        let mut recvs = Vec::new();
        for (src, ex) in decomp.exchanges.iter().enumerate() {
            let items: Vec<_> = ex
                .sends
                .iter()
                .filter(|item| item.neighbor_rank as usize == rank)
                .map(|item| (item.neighbor_traversal, item.weight))
                .collect();
            if !items.is_empty() {
                recvs.push(PairRecv { src, items });
            }
        }
        let mut sends: Vec<PairSend> = Vec::new();
        for item in &decomp.exchanges[rank].sends {
            let (dest, (track, _)) = (item.neighbor_rank as usize, item.local_traversal);
            debug_assert_ne!(dest, rank, "an exchange item targets its own subdomain");
            match sends.last_mut() {
                Some(ps) if ps.dest == dest => {
                    ps.items.push(item.local_traversal);
                    ps.tracks.push(track);
                }
                _ => sends.push(PairSend {
                    dest,
                    items: vec![item.local_traversal],
                    tracks: vec![track],
                    swept: 0,
                    shipped: false,
                }),
            }
        }
        for ps in &mut sends {
            ps.tracks.sort_unstable();
            ps.tracks.dedup();
        }
        Self { comm, pipelined, sends, recvs, recv_ready: 0, recv_blocked: 0 }
    }

    /// Gathers send `i`'s payload from the boundary bank and ships it.
    fn ship(&mut self, i: usize, banks: &FluxBanks) {
        let ps = &mut self.sends[i];
        ps.shipped = true;
        let t_send = Instant::now();
        let mut payload = vec![0.0f32; ps.items.len() * banks.groups];
        for (&(t, dir), out) in ps.items.iter().zip(payload.chunks_exact_mut(banks.groups)) {
            banks.get_boundary(t, dir as usize, out);
        }
        self.comm.send_vec(ps.dest, EXCHANGE_TAG, payload);
        Telemetry::current().trace_complete_since(
            "comm.exchange_send",
            t_send,
            &[("to", Json::Uint(ps.dest as u64))],
        );
    }

    /// Notes that the sweep finished track `t` and ships every payload of
    /// it whose tracks it has now reported in order (`u32::MAX`: the sweep
    /// is done).
    fn ship_ready(&mut self, t: u32, banks: &FluxBanks) {
        for i in 0..self.sends.len() {
            let ps = &mut self.sends[i];
            if ps.shipped {
                continue;
            }
            ps.swept += usize::from(ps.tracks.get(ps.swept) == Some(&t));
            if t == u32::MAX || ps.swept == ps.tracks.len() {
                self.ship(i, banks);
            }
        }
    }

    /// Advances the banks to the next iteration scaled by `inv`
    /// ([`FluxBanks::swap_scaled`]), ships whatever is still unshipped
    /// (everything, in sync mode) from the now scaled boundary bank and
    /// delivers. Pipelined payloads left unnormalised during the sweep, so
    /// their receiver applies `inv` at delivery: `(x as f64 * inv) as f32`
    /// is exactly the per-slot op `swap_scaled` performs on the boundary
    /// bank before a sync gather, so both modes land the same bits.
    /// Receives poll first when pipelined and only block on payloads
    /// still in flight.
    fn exchange(&mut self, banks: &mut FluxBanks, inv: f64, it: usize) {
        banks.swap_scaled(inv);
        for i in 0..self.sends.len() {
            if !self.sends[i].shipped {
                self.ship(i, banks);
            }
            (self.sends[i].shipped, self.sends[i].swept) = (false, 0);
        }
        let scale = self.pipelined.then_some(inv);
        let t_recv = Instant::now();
        for pr in &self.recvs {
            let mut polled = None;
            if self.pipelined {
                polled = self.comm.try_recv::<Vec<f32>>(pr.src, EXCHANGE_TAG);
                if polled.is_some() {
                    self.recv_ready += 1;
                } else {
                    self.recv_blocked += 1;
                }
            }
            let payload = polled.unwrap_or_else(|| self.comm.recv_vec(pr.src, EXCHANGE_TAG));
            deliver(banks, &pr.items, &payload, scale);
        }
        if !self.recvs.is_empty() {
            Telemetry::current().trace_complete_since(
                "comm.exchange_recv",
                t_recv,
                &[("rank", Json::Uint(self.comm.rank() as u64)), ("it", Json::Uint(it as u64))],
            );
        }
    }
}

/// Writes one pair payload into the receiver's incoming slots as `x *
/// weight`, applying the deferred normalisation `scale` to raw
/// (pipelined) values first.
fn deliver(banks: &FluxBanks, items: &[((u32, u8), f32)], payload: &[f32], scale: Option<f64>) {
    let g = banks.groups;
    assert_eq!(payload.len(), items.len() * g);
    let mut buf = [0.0f32; MAX_GROUPS];
    for (&((t, dir), weight), xs) in items.iter().zip(payload.chunks_exact(g)) {
        for (b, &x) in buf.iter_mut().zip(xs) {
            *b = scale.map_or(x, |inv| (x as f64 * inv) as f32) * weight;
        }
        banks.set_incoming(t, dir as usize, &buf[..g]);
    }
}

/// Sums every rank's `values` from 0.0 in rank (= subdomain) order: the
/// canonical reduction that makes a one-subdomain solve reduce exactly
/// like a single-domain one.
fn canonical_sums<const N: usize>(link: Option<&mut Link<'_>>, mine: [f64; N]) -> [f64; N] {
    let mut out = [0.0f64; N];
    let mut add = |vals: &[f64]| {
        for (o, v) in out.iter_mut().zip(vals) {
            *o += v;
        }
    };
    match link {
        // `Comm::allgather` accounts the wire volume, N f64s up from
        // each rank and every rank's N down to each; the decomposed
        // fingerprint pins it.
        Some(l) => l.comm.allgather(mine.to_vec()).iter().for_each(|v| add(v)),
        None => add(&mine),
    }
    out
}

/// Runs the power iteration over `h`. `link` is the exchange hook; a
/// single-domain solve has none.
pub(crate) fn drive(
    mut h: Hosted<'_>,
    c: &Controls<'_>,
    mut link: Option<&mut Link<'_>>,
) -> Solved {
    let tel = Telemetry::current();
    let fission = matches!(c.source, Source::Fission);
    let _span = tel.span(if fission { "eigen" } else { "fixed_source" });
    // Rows and counters come from one rank only: every rank walks the
    // same loop, and duplicates would misreport the series.
    let rank = link.as_ref().map_or(0, |l| l.comm.rank());
    let narrate = rank == 0;
    let mut k = c.opts.k_guess;
    if fission {
        // A flat flux, normalised to unit global production.
        h.phi.fill(1.0);
        let [f] = canonical_sums(link.as_deref_mut(), [fission_production(h.problem, &h.phi).1]);
        if f > 0.0 {
            h.phi.iter_mut().for_each(|p| *p /= f);
        }
        h.old = fission_production(h.problem, &h.phi).0;
        h.density = vec![0.0; h.problem.num_fsrs()];
    } else {
        h.old.clone_from(&h.phi);
    }
    // The first source comes from the initial state; from then on pass B
    // of each iteration leaves the next one's ready.
    compute_source(h.problem, &c.source, &h.phi, k, &mut h.q);
    if narrate && fission {
        tel.gauge_set("solver.flux_bank_bytes", h.banks.bytes() as f64);
    }

    let (mut residuals, mut k_history) = (Vec::new(), Vec::new());
    let (mut total_segments, mut sweep_total) = (0u64, 0.0f64);
    let (mut iterations, mut converged) = (0, false);
    for it in 1..=c.opts.max_iterations {
        iterations = it;
        let cas_before = tel.counter_value("sweep.cas_retries");
        let t0 = Instant::now();
        let out = match link.as_deref_mut() {
            Some(l) if l.pipelined => {
                let out = h
                    .sweeper
                    .sweep_observed(h.problem, &h.q, &h.banks, &mut |t| l.ship_ready(t, &h.banks));
                // Backends that report no tracks ship after the sweep.
                l.ship_ready(u32::MAX, &h.banks);
                out
            }
            _ => h.sweeper.sweep(h.problem, &h.q, &h.banks),
        };
        let sweep_s = t0.elapsed().as_secs_f64();
        if link.is_some() {
            let args = [("rank", Json::Uint(rank as u64)), ("it", Json::Uint(it as u64))];
            tel.trace_complete_since("cluster.sweep", t0, &args);
        }
        let it_segments = out.segments;
        // Pass A: close the scalar flux (and the fission density).
        let density = fission.then_some(&mut h.density[..]);
        close_flux(h.problem, &h.q, &out.phi_acc, &mut h.phi, density);
        h.sweeper.recycle(out);
        sweep_total += sweep_s;
        total_segments += it_segments;

        // Production and residual terms in FSR order, reduced canonically.
        let terms = if fission {
            let (ss, cnt) = residual_terms(&h.old, &h.density, 1e-14);
            [h.density.iter().sum(), ss, cnt]
        } else {
            let (ss, cnt) = residual_terms(&h.old, &h.phi, 1e-20);
            [0.0, ss, cnt]
        };
        let [f, ss, cnt] = canonical_sums(link.as_deref_mut(), terms);
        let res = if cnt > 0.0 { (ss / cnt).sqrt() } else { 0.0 };
        residuals.push(res);

        // Production was normalised to 1 last iteration, so the ratio is
        // simply `f`; normalise flux, banks and density to unit production.
        let inv = if fission && f > 0.0 { 1.0 / f } else { 1.0 };
        if fission {
            k *= f;
            k_history.push(k);
        }
        // Pass B: normalise, and the next iteration's source.
        next_source(h.problem, &c.source, k, inv, &h.density, &mut h.phi, &mut h.old, &mut h.q);

        match link.as_deref_mut() {
            Some(l) => l.exchange(&mut h.banks, inv, it),
            None if fission => h.banks.swap_scaled(inv),
            None => h.banks.swap(),
        }

        if narrate {
            let mut row = vec![("it".into(), Json::Uint(it as u64))];
            if fission {
                row.push(("k".into(), Json::Num(k)));
            }
            row.push(("residual".into(), Json::Num(res)));
            row.push(("sweep_s".into(), Json::Num(sweep_s)));
            if fission {
                let cas = tel.counter_value("sweep.cas_retries").wrapping_sub(cas_before);
                row.push(("segments".into(), Json::Uint(it_segments)));
                row.push(("cas_retries".into(), Json::Uint(cas)));
                let args = [
                    ("it", Json::Uint(it as u64)),
                    ("k", Json::Num(k)),
                    ("residual", Json::Num(res)),
                ];
                tel.trace_instant("eigen.iteration", &args);
            }
            tel.append_iteration(Json::Obj(row));
        }

        // Require a couple of iterations before trusting the residual.
        if it >= if fission { 3 } else { 2 } && res < c.opts.tolerance {
            converged = true;
            break;
        }
    }

    if narrate {
        tel.counter_add(
            if fission { "eigen.iterations" } else { "fixed.iterations" },
            iterations as u64,
        );
    }
    if let Some(l) = link.filter(|l| l.pipelined) {
        // How much of the exchange the overlap hid: the share of receives
        // whose payload had already landed when polled.
        let total = l.recv_ready + l.recv_blocked;
        if total > 0 {
            tel.gauge_set("comm.overlap_ratio", l.recv_ready as f64 / total as f64);
        }
        tel.counter_add("comm.recv_ready", l.recv_ready);
        tel.counter_add("comm.recv_blocked", l.recv_blocked);
    }
    let result = EigenResult {
        keff: k,
        iterations,
        converged,
        phi: h.phi,
        residuals,
        k_history,
        total_segments,
    };
    Solved { result, sweep_s: sweep_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{solve_fixed_source, FixedSourceOptions};
    use crate::sweep::SegmentSource;
    use crate::sweeper::CpuSweeper;
    use crate::{solve_eigenvalue, EigenOptions};
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, Bc, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::{Material, MaterialLibrary};

    const FOUR_PI: f64 = 4.0 * std::f64::consts::PI;

    /// Per-group total cross sections over the kernel's extremes that keep
    /// a derived source finite: tau > 700 (1e4), near-void (3.5e-3) and
    /// near-underflow (1e-30) groups beside ordinary ones.
    const SIGMA_T: [f64; 8] = [0.5, 2.0, 1e4, 1.0, 3.5e-3, 1e-30, 0.8, 1.5];

    /// A `g`-group fissile material with self- and down-scatter.
    fn problem(g: usize) -> Problem {
        let total = SIGMA_T[..g].to_vec();
        let mut scatter = vec![vec![0.0; g]; g];
        for h in 0..g {
            scatter[h][h] = 0.4 * total[h];
            if h + 1 < g {
                scatter[h][h + 1] = 0.2 * total[h];
            }
        }
        let chi: Vec<f64> = match g {
            1 => vec![1.0],
            _ => (0..g).map(|h| [0.7, 0.3].get(h).copied().unwrap_or(0.0)).collect(),
        };
        let mut lib = MaterialLibrary::new();
        lib.add(Material {
            name: "FUEL".into(),
            absorption: total.iter().map(|t| 0.3 * t).collect(),
            fission: total.iter().map(|t| 0.1 * t).collect(),
            nu: vec![2.4; g],
            chi,
            scatter,
            total,
        });
        // Reflective on the low faces, so the banks carry flux from one
        // iteration to the next; vacuum on the high ones, so it varies.
        let bcs = BoundaryConds {
            x_max: Bc::Vacuum,
            y_max: Bc::Vacuum,
            z_max: Bc::Vacuum,
            ..BoundaryConds::reflective()
        };
        let geom = homogeneous_box(lib.by_name("FUEL").unwrap().0, 2.0, 2.0, (0.0, 2.0), bcs);
        let params =
            TrackParams { num_azim: 4, radial_spacing: 0.5, num_polar: 2, axial_spacing: 0.5 };
        Problem::build(geom, AxialModel::uniform(0.0, 2.0, 0.5), &lib, params)
    }

    /// The reduced source as the per-FSR loop with a run-time group count
    /// computed it before the fused passes.
    fn reference_source(p: &Problem, source: &Source<'_>, phi: &[f64], k: f64, q: &mut [f64]) {
        let (g, xs) = (p.num_groups(), &p.xs);
        let with_fission = !matches!(source, Source::External { with_fission: false, .. });
        for (f, qf) in q.chunks_mut(g).enumerate() {
            let mat = xs.fsr_mat[f] as usize;
            let phif = &phi[f * g..(f + 1) * g];
            let mut fission = 0.0;
            if with_fission {
                for h in 0..g {
                    fission += xs.nusf[mat * g + h] * phif[h];
                }
            }
            for gi in 0..g {
                let mut inscatter = 0.0;
                for h in 0..g {
                    inscatter += xs.scatter[(mat * g + h) * g + gi] * phif[h];
                }
                let chi = xs.chi[mat * g + gi];
                let total = match *source {
                    Source::Fission => (chi * fission / k + inscatter) / FOUR_PI,
                    Source::External { external, .. } => {
                        (external[f * g + gi] + chi * fission + inscatter) / FOUR_PI
                    }
                };
                qf[gi] = total / xs.sigma_t[mat * g + gi];
            }
        }
    }

    fn reference_flux(p: &Problem, q: &[f64], phi_acc: &[f64], phi: &mut [f64]) {
        let (g, xs) = (p.num_groups(), &p.xs);
        for (f, pf) in phi.chunks_mut(g).enumerate() {
            let (mat, v) = (xs.fsr_mat[f] as usize, p.volumes[f]);
            for gi in 0..g {
                let base = FOUR_PI * q[f * g + gi];
                pf[gi] = if v > 0.0 {
                    base + phi_acc[f * g + gi] / (xs.sigma_t[mat * g + gi] * v)
                } else {
                    base
                };
            }
        }
    }

    fn reference_production(p: &Problem, phi: &[f64]) -> (Vec<f64>, f64) {
        let (g, xs) = (p.num_groups(), &p.xs);
        let per: Vec<f64> = (0..p.num_fsrs())
            .map(|f| {
                let mat = xs.fsr_mat[f] as usize;
                let mut s = 0.0;
                for gi in 0..g {
                    s += xs.nusf[mat * g + gi] * phi[f * g + gi];
                }
                s * p.volumes[f]
            })
            .collect();
        let total = per.iter().sum();
        (per, total)
    }

    /// The driver before the fused passes, on one domain: source, sweep,
    /// flux update, production, residual as separate passes; then flux,
    /// all three banks and the density scaled, and the banks swapped.
    fn reference(
        p: &Problem,
        sweeper: &mut dyn Sweeper,
        source: &Source<'_>,
        opts: &EigenOptions,
    ) -> EigenResult {
        let fission = matches!(source, Source::Fission);
        let n = p.num_fsrs() * p.num_groups();
        let (mut phi, mut q, mut old) = (vec![0.0; n], vec![0.0; n], Vec::new());
        let mut banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let mut k = opts.k_guess;
        if fission {
            phi.fill(1.0);
            let [f] = canonical_sums(None, [reference_production(p, &phi).1]);
            if f > 0.0 {
                phi.iter_mut().for_each(|x| *x /= f);
            }
            old = reference_production(p, &phi).0;
        }
        let (mut residuals, mut k_history) = (Vec::new(), Vec::new());
        let (mut iterations, mut converged) = (0, false);
        for it in 1..=opts.max_iterations {
            iterations = it;
            reference_source(p, source, &phi, k, &mut q);
            if !fission {
                old.clone_from(&phi);
            }
            let out = sweeper.sweep(p, &q, &banks);
            reference_flux(p, &q, &out.phi_acc, &mut phi);
            sweeper.recycle(out);
            let (density, terms) = if fission {
                let (density, f) = reference_production(p, &phi);
                let (ss, cnt) = residual_terms(&old, &density, 1e-14);
                (density, [f, ss, cnt])
            } else {
                let (ss, cnt) = residual_terms(&old, &phi, 1e-20);
                (Vec::new(), [0.0, ss, cnt])
            };
            let [f, ss, cnt] = canonical_sums(None, terms);
            let res = if cnt > 0.0 { (ss / cnt).sqrt() } else { 0.0 };
            residuals.push(res);
            if fission {
                let inv = if f > 0.0 { 1.0 / f } else { 1.0 };
                k *= f;
                k_history.push(k);
                phi.iter_mut().for_each(|x| *x *= inv);
                let scale = |bank: Vec<f32>| -> Vec<f32> {
                    bank.iter().map(|&x| (x as f64 * inv) as f32).collect()
                };
                let (i, o, b) = banks.export_state();
                banks.import_state(&scale(i), &scale(o), &scale(b));
                old = density.iter().map(|d| d * inv).collect();
            }
            banks.swap();
            if it >= if fission { 3 } else { 2 } && res < opts.tolerance {
                converged = true;
                break;
            }
        }
        EigenResult { keff: k, iterations, converged, phi, residuals, k_history, total_segments: 0 }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_passes_repeat_the_five_pass_driver_bit_for_bit() {
        let opts = EigenOptions { tolerance: 1e-7, max_iterations: 12, ..Default::default() };
        for g in 1..=MAX_GROUPS {
            let p = problem(g);
            let segsrc = SegmentSource::otf();
            let n = p.num_fsrs() * g;
            let external: Vec<f64> = (0..n).map(|i| 0.1 + (i % 13) as f64 * 0.045).collect();
            for workers in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
                pool.install(|| {
                    let at = format!("{g} groups, {workers} workers");
                    let want =
                        reference(&p, &mut CpuSweeper::new(&segsrc), &Source::Fission, &opts);
                    let got = solve_eigenvalue(&p, &mut CpuSweeper::new(&segsrc), &opts);
                    assert!(want.keff.is_finite() && want.keff > 0.0, "{at}: k {}", want.keff);
                    assert_eq!(got.keff.to_bits(), want.keff.to_bits(), "{at}: keff");
                    assert_eq!(got.iterations, want.iterations, "{at}: iterations");
                    assert_eq!(bits(&got.phi), bits(&want.phi), "{at}: phi");
                    assert_eq!(bits(&got.residuals), bits(&want.residuals), "{at}: residuals");
                    assert_eq!(bits(&got.k_history), bits(&want.k_history), "{at}: k history");
                    for with_fission in [false, true] {
                        let at = format!("{at}, fixed source, fission {with_fission}");
                        let source = Source::External { external: &external, with_fission };
                        let want = reference(&p, &mut CpuSweeper::new(&segsrc), &source, &opts);
                        let fixed = FixedSourceOptions {
                            tolerance: opts.tolerance,
                            max_iterations: opts.max_iterations,
                            with_fission,
                        };
                        let got = solve_fixed_source(
                            &p,
                            &mut CpuSweeper::new(&segsrc),
                            &external,
                            &fixed,
                        );
                        assert_eq!(got.iterations, want.iterations, "{at}: iterations");
                        assert_eq!(bits(&got.phi), bits(&want.phi), "{at}: phi");
                        assert_eq!(bits(&got.residuals), bits(&want.residuals), "{at}: residuals");
                    }
                });
            }
        }
    }
}
