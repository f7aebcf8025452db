//! The one power-iteration driver (the outer loop of the paper's Alg. 1
//! with the §2.1 Point-Jacobi boundary update). The single-domain
//! eigenvalue and fixed-source solves, the decomposed cluster and its
//! fault-tolerant supervisor all run [`drive`] over the subdomains one
//! executor hosts. Every iteration: source update, sweep, scalar-flux
//! update, canonical reduction of `[production, ss, cnt]`, `k` and
//! normalisation, boundary exchange, checkpoint, iteration row,
//! convergence test. Three hooks set a solve up: the [`Source`], the
//! exchange (none, or a [`Link`] over a `FaultyComm`, sync or pipelined)
//! and the checkpoint store (none, or a store with resume).

use std::time::Instant;

use antmoc_cluster::fault::{CommError, FaultyComm};
use antmoc_telemetry::{Json, Telemetry};

use crate::checkpoint::{CheckpointStore, SolverCheckpoint};
use crate::decomp::Decomposition;
use crate::eigen::{EigenOptions, EigenResult};
use crate::problem::Problem;
use crate::source::{compute_fixed_source, compute_reduced_source};
use crate::source::{fission_production, residual_terms, update_scalar_flux};
use crate::sweep::{FluxBanks, MAX_GROUPS};
use crate::sweeper::Sweeper;

/// Exchange tags encode the (from, to) subdomain pair, so one executor
/// can route several subdomains' flux streams over one channel.
const TAG_PAIR_BASE: u32 = 200;

/// What drives the iteration.
pub(crate) enum Source<'a> {
    /// The k-eigenvalue problem: fission over `k`, renormalised to unit
    /// production every iteration.
    Fission,
    /// An isotropic external source per `(fsr, group)` of the one hosted
    /// subdomain (neutrons / cm^3 / s), plus fission when `with_fission`.
    External { external: &'a [f64], with_fission: bool },
}

impl Source<'_> {
    /// The reduced source `q = Q / sigma_t` from the current flux.
    fn update(&self, problem: &Problem, phi: &[f64], k: f64, q: &mut [f64]) {
        match *self {
            Source::Fission => compute_reduced_source(problem, phi, k, q),
            Source::External { external, with_fission } => {
                compute_fixed_source(problem, phi, external, with_fission, q)
            }
        }
    }
}

/// Iteration controls plus the source and checkpoint hooks.
pub(crate) struct Controls<'a> {
    pub opts: &'a EigenOptions,
    pub source: Source<'a>,
    /// Save every hosted subdomain (keyed by id) every this many
    /// iterations; an interval of 0 never saves.
    pub checkpoint: Option<(&'a CheckpointStore, usize)>,
    /// Restores a hosted subdomain by id; the loop resumes after the
    /// checkpoint's iteration.
    pub resume: Option<&'a dyn Fn(usize) -> SolverCheckpoint>,
}

/// One subdomain's iteration state on the executor hosting it.
pub(crate) struct Hosted<'a> {
    /// Subdomain index: reduction order, checkpoint key, exchange address.
    pub id: usize,
    pub problem: &'a Problem,
    pub sweeper: &'a mut dyn Sweeper,
    pub phi: Vec<f64>,
    q: Vec<f64>,
    banks: FluxBanks,
    /// Residual reference: the previous fission density (eigenvalue) or
    /// flux (fixed source).
    old: Vec<f64>,
}

impl<'a> Hosted<'a> {
    pub fn new(id: usize, problem: &'a Problem, sweeper: &'a mut dyn Sweeper) -> Self {
        let (n, g) = (problem.num_fsrs() * problem.num_groups(), problem.num_groups());
        let banks = FluxBanks::new(problem.num_tracks(), g);
        Self { id, problem, sweeper, phi: vec![0.0; n], q: vec![0.0; n], banks, old: Vec::new() }
    }
}

/// A finished (converged or capped) iteration. `result.phi` stays empty:
/// every hosted subdomain keeps its own flux.
pub(crate) struct Solved {
    pub result: EigenResult,
    /// Seconds spent inside the hosted subdomains' sweeps.
    pub sweep_s: f64,
    /// Iterations this call executed (resumed ones excluded).
    pub executed: usize,
}

/// Why a cluster executor stopped before finishing.
#[derive(Debug)]
pub(crate) struct Stop {
    pub at: usize,
    pub executed: usize,
    /// The communication failure; `None` for a scheduled rank death.
    pub error: Option<CommError>,
}

/// One grouped flux transfer out of a hosted subdomain.
struct PairSend {
    /// Position of the sender in the hosted list.
    from: usize,
    /// Destination executor slot.
    dest: usize,
    tag: u32,
    items: Vec<(u32, u8)>,
    /// The distinct tracks of `items`, ascending. A sweep that reports
    /// them in this order (the serial boundary-first and the natural
    /// orders do) makes every exit final at the last one; a sweep in any
    /// other order ships the payload after it returns.
    tracks: Vec<u32>,
    /// How many of `tracks`, in order, this iteration's sweep has reported.
    swept: usize,
    /// The matching `recvs` entry when the receiver is hosted here too.
    local: Option<usize>,
    shipped: bool,
}

/// One grouped delivery into a hosted subdomain.
struct PairRecv {
    /// Position of the receiver in the hosted list.
    to: usize,
    /// Sending executor slot.
    src: usize,
    tag: u32,
    /// Traversal slots with their delivery weights.
    items: Vec<((u32, u8), f32)>,
}

/// The cluster exchange hook: one executor's boundary-flux routes over a
/// [`FaultyComm`] (a zero fault plan delegates to the plain comm bit for
/// bit).
pub(crate) struct Link<'a> {
    fc: &'a mut FaultyComm,
    pipelined: bool,
    /// Iteration at whose start a scheduled rank death stops every
    /// executor (the failure detector is exact and instantaneous).
    death: Option<usize>,
    sends: Vec<PairSend>,
    recvs: Vec<PairRecv>,
    /// Shipped payloads for hosted receivers, by `recvs` index.
    local: Vec<(usize, Vec<f32>)>,
    /// A send that failed inside a sweep callback, raised after the sweep.
    error: Option<CommError>,
    recv_ready: u64,
    recv_blocked: u64,
}

impl<'a> Link<'a> {
    /// Routes for the subdomains `subs` hosted by this executor, given
    /// `assignment[subdomain] = executor slot`. Sends keep each
    /// subdomain's plan order grouped by destination (the plan is sorted
    /// by neighbour, so groups are contiguous); receives mirror the
    /// senders' grouping.
    pub fn new(
        fc: &'a mut FaultyComm,
        decomp: &Decomposition,
        assignment: &[u32],
        subs: &[usize],
        pipelined: bool,
        death: Option<usize>,
    ) -> Self {
        let s = decomp.problems.len();
        let tag = |from: usize, to: usize| TAG_PAIR_BASE + (from * s + to) as u32;
        let mut recvs = Vec::new();
        for (to, &t) in subs.iter().enumerate() {
            for (f, ex) in decomp.exchanges.iter().enumerate() {
                let items: Vec<_> = ex
                    .sends
                    .iter()
                    .filter(|item| item.neighbor_rank as usize == t)
                    .map(|item| (item.neighbor_traversal, item.weight))
                    .collect();
                if !items.is_empty() {
                    recvs.push(PairRecv { to, src: assignment[f] as usize, tag: tag(f, t), items });
                }
            }
        }
        let mut sends: Vec<PairSend> = Vec::new();
        for (from, &f) in subs.iter().enumerate() {
            for item in &decomp.exchanges[f].sends {
                let (t, (track, _)) = (item.neighbor_rank as usize, item.local_traversal);
                match sends.last_mut() {
                    Some(ps) if ps.from == from && ps.tag == tag(f, t) => {
                        ps.items.push(item.local_traversal);
                        ps.tracks.push(track);
                    }
                    _ => sends.push(PairSend {
                        from,
                        dest: assignment[t] as usize,
                        tag: tag(f, t),
                        items: vec![item.local_traversal],
                        tracks: vec![track],
                        swept: 0,
                        local: recvs.iter().position(|r| r.tag == tag(f, t)),
                        shipped: false,
                    }),
                }
            }
        }
        for ps in &mut sends {
            ps.tracks.sort_unstable();
            ps.tracks.dedup();
        }
        Self {
            fc,
            pipelined,
            death,
            sends,
            recvs,
            local: Vec::new(),
            error: None,
            recv_ready: 0,
            recv_blocked: 0,
        }
    }

    /// Gathers send `i`'s payload from the sender's boundary bank and
    /// ships it, or keeps it when the receiver is hosted here.
    fn ship(&mut self, i: usize, banks: &FluxBanks) -> Result<(), CommError> {
        let ps = &mut self.sends[i];
        ps.shipped = true;
        let t_send = Instant::now();
        let mut payload = vec![0.0f32; ps.items.len() * banks.groups];
        for (&(t, dir), out) in ps.items.iter().zip(payload.chunks_exact_mut(banks.groups)) {
            banks.get_boundary(t, dir as usize, out);
        }
        match ps.local {
            Some(r) => self.local.push((r, payload)),
            None => {
                self.fc.send_vec(ps.dest, ps.tag, payload)?;
                Telemetry::current().trace_complete_since(
                    "comm.exchange_send",
                    t_send,
                    &[("to", Json::Uint(ps.dest as u64))],
                );
            }
        }
        Ok(())
    }

    /// Notes that hosted subdomain `from` finished track `t` and ships
    /// every payload of it whose tracks it has now reported in order
    /// (`u32::MAX`: the sweep is done). A failure is kept for the driver
    /// to raise once the sweep returns.
    fn ship_ready(&mut self, from: usize, t: u32, banks: &FluxBanks) {
        for i in 0..self.sends.len() {
            let ps = &mut self.sends[i];
            if ps.from != from || ps.shipped {
                continue;
            }
            ps.swept += usize::from(ps.tracks.get(ps.swept) == Some(&t));
            if self.error.is_none() && (t == u32::MAX || ps.swept == ps.tracks.len()) {
                self.error = self.ship(i, banks).err();
            }
        }
    }

    /// Ships whatever is still unshipped (everything, in sync mode),
    /// swaps every hosted bank and delivers. Pipelined payloads left
    /// unnormalised, so their receiver applies `inv` at delivery: `(x as
    /// f64 * inv) as f32` is exactly the per-slot op `banks.scale(inv)`
    /// performs before a sync gather, so both modes land the same bits.
    /// Remote receives poll first when pipelined and only block (through
    /// the fault layer's deadline) on payloads still in flight.
    fn exchange(
        &mut self,
        hosted: &mut [Hosted<'_>],
        inv: f64,
        it: usize,
    ) -> Result<(), CommError> {
        for i in 0..self.sends.len() {
            if !self.sends[i].shipped {
                self.ship(i, &hosted[self.sends[i].from].banks)?;
            }
            (self.sends[i].shipped, self.sends[i].swept) = (false, 0);
        }
        for h in hosted.iter_mut() {
            h.banks.swap();
        }
        let scale = self.pipelined.then_some(inv);
        for (r, payload) in std::mem::take(&mut self.local) {
            let pr = &self.recvs[r];
            deliver(&hosted[pr.to].banks, &pr.items, &payload, scale);
        }
        let (slot, t_recv) = (self.fc.rank(), Instant::now());
        for pr in self.recvs.iter().filter(|pr| pr.src != slot) {
            let mut polled = None;
            if self.pipelined {
                polled = self.fc.try_recv_vec(pr.src, pr.tag);
                if polled.is_some() {
                    self.recv_ready += 1;
                } else {
                    self.recv_blocked += 1;
                }
            }
            let payload = match polled {
                Some(p) => p,
                None => self.fc.recv_vec(pr.src, pr.tag)?,
            };
            deliver(&hosted[pr.to].banks, &pr.items, &payload, scale);
        }
        if !self.recvs.is_empty() {
            Telemetry::current().trace_complete_since(
                "comm.exchange_recv",
                t_recv,
                &[("rank", Json::Uint(slot as u64)), ("it", Json::Uint(it as u64))],
            );
        }
        Ok(())
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

/// Sums `(subdomain, values)` contributions from every executor in
/// subdomain order: the canonical reduction that keeps the arithmetic
/// independent of how subdomains are packed onto executors, and makes a
/// one-subdomain solve reduce exactly like a single-domain one.
fn canonical_sums<const N: usize>(
    link: Option<&mut Link<'_>>,
    mine: Vec<(usize, [f64; N])>,
) -> Result<[f64; N], CommError> {
    let mut all = match link {
        Some(l) => l.fc.allgather(mine)?.concat(),
        None => mine,
    };
    all.sort_by_key(|&(sub, _)| sub);
    let mut out = [0.0f64; N];
    for (_, vals) in all {
        for (o, v) in out.iter_mut().zip(vals) {
            *o += v;
        }
    }
    Ok(out)
}

/// Runs the power iteration over `hosted`. `link` is the exchange hook;
/// without one (a single-domain solve) nothing can fail.
pub(crate) fn drive(
    hosted: &mut [Hosted<'_>],
    c: &Controls<'_>,
    mut link: Option<&mut Link<'_>>,
) -> Result<Solved, Stop> {
    let tel = Telemetry::current();
    let fission = matches!(c.source, Source::Fission);
    let _span = tel.span(if fission { "eigen" } else { "fixed_source" });
    // Rows and counters come from one executor only: every executor walks
    // the same loop, and duplicates would misreport the series.
    let slot = link.as_ref().map_or(0, |l| l.fc.rank());
    let narrate = slot == 0;
    let mut k = c.opts.k_guess;
    let mut start = 1;
    if let Some(load) = c.resume {
        for h in hosted.iter_mut() {
            let ck = load(h.id);
            assert_eq!(ck.phi.len(), h.phi.len(), "checkpoint flux length mismatch");
            ck.apply_banks(&h.banks);
            (k, start) = (ck.keff, ck.iteration + 1);
            (h.phi, h.old) = (ck.phi, ck.fission_source);
        }
    } else if fission {
        // A flat flux, normalised to unit global production.
        let mine = hosted
            .iter_mut()
            .map(|h| {
                h.phi.fill(1.0);
                (h.id, [fission_production(h.problem, &h.phi).1])
            })
            .collect();
        let [f] = canonical_sums(link.as_deref_mut(), mine).map_err(|e| Stop {
            at: 1,
            executed: 0,
            error: Some(e),
        })?;
        for h in hosted.iter_mut() {
            if f > 0.0 {
                h.phi.iter_mut().for_each(|p| *p /= f);
            }
            h.old = fission_production(h.problem, &h.phi).0;
        }
    }
    if narrate && fission {
        let bytes: u64 = hosted.iter().map(|h| h.banks.bytes()).sum();
        tel.gauge_set("solver.flux_bank_bytes", bytes as f64);
    }

    let (mut residuals, mut k_history) = (Vec::new(), Vec::new());
    let (mut total_segments, mut sweep_total, mut executed) = (0u64, 0.0f64, 0usize);
    let (mut iterations, mut converged) = (0, false);
    for it in start..=c.opts.max_iterations {
        if link.as_ref().is_some_and(|l| l.death == Some(it)) {
            if narrate {
                tel.trace_instant("recovery.death", &[("it", Json::Uint(it as u64))]);
            }
            return Err(Stop { at: it, executed, error: None });
        }
        iterations = it;
        let fail = move |e| Stop { at: it, executed, error: Some(e) };

        let cas_before = tel.counter_value("sweep.cas_retries");
        let (mut sweep_s, mut it_segments) = (0.0, 0u64);
        for (pos, h) in hosted.iter_mut().enumerate() {
            c.source.update(h.problem, &h.phi, k, &mut h.q);
            if !fission {
                h.old.clone_from(&h.phi);
            }
            let t0 = Instant::now();
            let out = match link.as_deref_mut() {
                Some(l) if l.pipelined => {
                    let out = h.sweeper.sweep_observed(h.problem, &h.q, &h.banks, &mut |t| {
                        l.ship_ready(pos, t, &h.banks)
                    });
                    // Backends that report no tracks ship after the sweep.
                    l.ship_ready(pos, u32::MAX, &h.banks);
                    out
                }
                _ => h.sweeper.sweep(h.problem, &h.q, &h.banks),
            };
            sweep_s += t0.elapsed().as_secs_f64();
            if let Some(l) = link.as_deref_mut() {
                if let Some(e) = l.error.take() {
                    return Err(fail(e));
                }
                let args = [("rank", Json::Uint(slot as u64)), ("it", Json::Uint(it as u64))];
                tel.trace_complete_since("cluster.sweep", t0, &args);
            }
            it_segments += out.segments;
            update_scalar_flux(h.problem, &h.q, &out.phi_acc, &mut h.phi);
            h.sweeper.recycle(out);
        }
        sweep_total += sweep_s;
        total_segments += it_segments;

        // Production and residual terms, reduced canonically.
        let mut densities = Vec::with_capacity(hosted.len());
        let mine = hosted
            .iter()
            .map(|h| {
                if !fission {
                    let (ss, cnt) = residual_terms(&h.old, &h.phi, 1e-20);
                    return (h.id, [0.0, ss, cnt]);
                }
                let (density, f) = fission_production(h.problem, &h.phi);
                let (ss, cnt) = residual_terms(&h.old, &density, 1e-14);
                densities.push(density);
                (h.id, [f, ss, cnt])
            })
            .collect();
        let [f, ss, cnt] = canonical_sums(link.as_deref_mut(), mine).map_err(fail)?;
        let res = if cnt > 0.0 { (ss / cnt).sqrt() } else { 0.0 };
        residuals.push(res);

        // Production was normalised to 1 last iteration, so the ratio is
        // simply `f`; normalise flux, banks and density to unit production.
        let inv = if fission && f > 0.0 { 1.0 / f } else { 1.0 };
        if fission {
            k *= f;
            k_history.push(k);
            for (h, density) in hosted.iter_mut().zip(densities) {
                h.phi.iter_mut().for_each(|p| *p *= inv);
                h.banks.scale(inv);
                h.old = density.iter().map(|d| d * inv).collect();
            }
        }

        match link.as_deref_mut() {
            Some(l) => l.exchange(hosted, inv, it).map_err(fail)?,
            None => hosted.iter_mut().for_each(|h| h.banks.swap()),
        }
        executed += 1;

        // Checkpoint after the exchange: the stored state is exactly
        // "ready to begin iteration it + 1".
        let store = c.checkpoint.filter(|&(_, every)| every > 0 && it % every == 0);
        if let Some((store, _)) = store {
            for h in hosted.iter() {
                store.save(h.id, &SolverCheckpoint::capture(it, k, &h.phi, &h.old, &h.banks));
            }
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
                row.push(("checkpoint".into(), Json::Bool(store.is_some())));
                let args = [
                    ("it", Json::Uint(it as u64)),
                    ("k", Json::Num(k)),
                    ("residual", Json::Num(res)),
                ];
                tel.trace_instant("eigen.iteration", &args);
            }
            tel.append_iteration(Json::Obj(row));
            if store.is_some() {
                tel.trace_instant("recovery.checkpoint", &[("it", Json::Uint(it as u64))]);
            }
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
        phi: Vec::new(),
        residuals,
        k_history,
        total_segments,
    };
    Ok(Solved { result, sweep_s: sweep_total, executed })
}
