//! The transport sweep: boundary flux banks, the one per-track segment
//! kernel every backend runs ([`sweep_track`]), and the region driver
//! that delivers its tallies ([`sweep_region`], behind
//! [`transport_sweep_with`] and the device solver).
//!
//! The sweep integrates Equation (1) of the paper along every 3D track in
//! both directions: `delta psi = (psi - q) * (1 - exp(-sigma_t * l))` per
//! segment, accumulating `weight * delta psi` into the segment's flat
//! source region and carrying the attenuated `psi` forward. Outgoing
//! boundary fluxes are deposited into the *next* iteration's incoming bank
//! (the Point-Jacobi update of §2.1), which is also exactly the value the
//! domain-decomposed solver ships between ranks.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use rayon::prelude::*;

use antmoc_telemetry::{Histogram, Json, Telemetry};
use antmoc_track::{
    trace_3d, Link3d, Segment3dCompact, SegmentStore3d, Track3dId, Track3dInfo, TrackId,
};

use crate::exp::one_minus_exp_slab;
use crate::exptable::ExpEval;
use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::simd::{padded_groups, F64x4, LANES};
use crate::tally::{KernelConfig, SweepArena, SweepKernel, SweepTallies};

/// CAS retries taken by [`atomic_add_f64`] since process start. The retry
/// branch only runs under contention, so the extra relaxed increment is
/// off the fast path; `sweep_region` samples the difference per sweep
/// into the `sweep.cas_retries` counter.
static CAS_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Maximum supported energy groups: the per-traversal state is stack
/// arrays of this size, and [`sweep_track`] has one monomorphized body per
/// group count up to it.
pub const MAX_GROUPS: usize = 8;

/// Panics, naming the limit, unless `1 <= groups <= MAX_GROUPS`. Called
/// where cross sections are flattened ([`crate::XsData::build`], the 2D
/// solver's equivalent), so an unsupported library fails once, while the
/// problem is assembled, instead of deep inside a sweep.
pub(crate) fn assert_supported_groups(groups: usize) {
    assert!(
        (1..=MAX_GROUPS).contains(&groups),
        "the material library has {groups} energy groups; this solver supports 1..={MAX_GROUPS} \
         (antmoc_solver::sweep::MAX_GROUPS)"
    );
}

/// How 3D segments are obtained during the sweep (the paper's §5.3
/// comparison axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageMode {
    /// All 3D segments precomputed and stored (fast, memory-hungry).
    Explicit,
    /// Nothing stored; every traversal regenerates segments on the fly.
    Otf,
    /// Resident/temporary split under a byte budget (§4.1).
    Manager { budget_bytes: u64 },
}

/// Prepared segment access for a problem: an optional explicit store
/// covering some or all tracks; uncovered tracks fall back to OTF.
#[derive(Debug)]
pub struct SegmentSource {
    store: Option<SegmentStore3d>,
}

impl SegmentSource {
    /// Pure OTF.
    pub fn otf() -> Self {
        Self { store: None }
    }

    /// Explicit storage for the given tracks (all tracks = EXP mode).
    pub fn stored(problem: &Problem, tracks: &[Track3dId]) -> Self {
        let l = &problem.layout;
        let store = SegmentStore3d::trace(
            tracks,
            &l.tracks3d,
            &l.tracks2d,
            &l.chains,
            &l.segments2d,
            &problem.axial,
            &l.fsr3d,
        );
        Self { store: Some(store) }
    }

    /// Bytes held by the explicit store.
    pub fn stored_bytes(&self) -> u64 {
        self.store.as_ref().map(|s| s.bytes()).unwrap_or(0)
    }

    /// Number of tracks with stored segments.
    pub fn num_resident(&self) -> usize {
        self.store.as_ref().map(|s| s.num_tracks()).unwrap_or(0)
    }

    /// Whether this track's segments are stored.
    pub fn is_resident(&self, id: Track3dId) -> bool {
        self.store.as_ref().is_some_and(|s| s.of(id).is_some())
    }

    /// The explicit store, when one exists — identity tests compare
    /// cached stores segment-by-segment against freshly traced ones.
    pub fn store(&self) -> Option<&SegmentStore3d> {
        self.store.as_ref()
    }
}

/// Double-buffered boundary angular flux (single precision, as in the
/// paper). Slot layout: `(track * 2 + dir) * G + g`, dir 0 = forward.
pub struct FluxBanks {
    pub groups: usize,
    incoming: Vec<AtomicU32>,
    outgoing: Vec<AtomicU32>,
    /// Captured boundary-exiting flux, indexed like the other banks by the
    /// *exiting* traversal. Kept separate from `outgoing` because a
    /// traversal's own slot there belongs to its upstream neighbour's
    /// deposit; mixing the two re-injects exiting flux at chain tails.
    boundary: Vec<AtomicU32>,
}

impl FluxBanks {
    pub fn new(num_tracks: usize, groups: usize) -> Self {
        assert!(groups <= MAX_GROUPS);
        let n = num_tracks * 2 * groups;
        Self {
            groups,
            incoming: (0..n).map(|_| AtomicU32::new(0)).collect(),
            outgoing: (0..n).map(|_| AtomicU32::new(0)).collect(),
            boundary: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Resident bytes across all three banks.
    pub fn bytes(&self) -> u64 {
        ((self.incoming.len() + self.outgoing.len() + self.boundary.len())
            * std::mem::size_of::<AtomicU32>()) as u64
    }

    #[inline]
    fn base(&self, track: u32, dir: usize) -> usize {
        (track as usize * 2 + dir) * self.groups
    }

    /// Reads the incoming flux of a traversal into `psi`.
    #[inline]
    pub fn load_incoming(&self, track: u32, dir: usize, psi: &mut [f64]) {
        let b = self.base(track, dir);
        for (g, p) in psi.iter_mut().enumerate().take(self.groups) {
            *p = f32::from_bits(self.incoming[b + g].load(Ordering::Relaxed)) as f64;
        }
    }

    /// Deposits an outgoing flux into the next iteration's incoming slot.
    #[inline]
    pub fn store_outgoing(&self, track: u32, dir: usize, psi: &[f64]) {
        let b = self.base(track, dir);
        for g in 0..self.groups {
            self.outgoing[b + g].store((psi[g] as f32).to_bits(), Ordering::Relaxed);
        }
    }

    /// Overwrites an incoming slot directly (used by the rank-exchange
    /// scatter).
    #[inline]
    pub fn set_incoming(&self, track: u32, dir: usize, psi: &[f32]) {
        let b = self.base(track, dir);
        for g in 0..self.groups {
            self.incoming[b + g].store(psi[g].to_bits(), Ordering::Relaxed);
        }
    }

    /// Reads an outgoing slot (used by the rank-exchange gather).
    #[inline]
    pub fn get_outgoing(&self, track: u32, dir: usize, psi: &mut [f32]) {
        let b = self.base(track, dir);
        for (g, p) in psi.iter_mut().enumerate().take(self.groups) {
            *p = f32::from_bits(self.outgoing[b + g].load(Ordering::Relaxed));
        }
    }

    /// Zeroes an incoming slot (true-vacuum entries after a bank swap).
    #[inline]
    pub fn zero_incoming(&self, track: u32, dir: usize) {
        let b = self.base(track, dir);
        for g in 0..self.groups {
            self.incoming[b + g].store(0, Ordering::Relaxed);
        }
    }

    /// Records the boundary-exiting flux of a traversal (read back by the
    /// rank exchange).
    #[inline]
    pub fn store_boundary(&self, track: u32, dir: usize, psi: &[f64]) {
        let b = self.base(track, dir);
        for g in 0..self.groups {
            self.boundary[b + g].store((psi[g] as f32).to_bits(), Ordering::Relaxed);
        }
    }

    /// Reads a captured boundary exit.
    #[inline]
    pub fn get_boundary(&self, track: u32, dir: usize, psi: &mut [f32]) {
        let b = self.base(track, dir);
        for (g, p) in psi.iter_mut().enumerate().take(self.groups) {
            *p = f32::from_bits(self.boundary[b + g].load(Ordering::Relaxed));
        }
    }

    /// Makes the outgoing bank the next incoming bank and clears the new
    /// outgoing bank.
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.incoming, &mut self.outgoing);
        for v in &self.outgoing {
            v.store(0, Ordering::Relaxed);
        }
    }

    /// Scales all banks (per-iteration source normalisation).
    pub fn scale(&self, factor: f64) {
        for bank in [&self.incoming, &self.outgoing, &self.boundary] {
            for v in bank {
                let x = f32::from_bits(v.load(Ordering::Relaxed));
                v.store(((x as f64 * factor) as f32).to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Snapshots all three banks in their current orientation as raw f32
    /// values: `(incoming, outgoing, boundary)`. Used by checkpointing;
    /// the f32 values survive a JSON round trip bit-for-bit.
    pub fn export_state(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let dump = |bank: &[AtomicU32]| -> Vec<f32> {
            bank.iter().map(|v| f32::from_bits(v.load(Ordering::Relaxed))).collect()
        };
        (dump(&self.incoming), dump(&self.outgoing), dump(&self.boundary))
    }

    /// Restores a snapshot taken by [`FluxBanks::export_state`]. Lengths
    /// must match the bank layout this instance was built with.
    pub fn import_state(&self, incoming: &[f32], outgoing: &[f32], boundary: &[f32]) {
        let fill = |bank: &[AtomicU32], values: &[f32]| {
            assert_eq!(bank.len(), values.len(), "bank snapshot length mismatch");
            for (slot, &v) in bank.iter().zip(values) {
                slot.store(v.to_bits(), Ordering::Relaxed);
            }
        };
        fill(&self.incoming, incoming);
        fill(&self.outgoing, outgoing);
        fill(&self.boundary, boundary);
    }
}

/// Relaxed-order atomic `f64 +=` by compare-exchange (the software
/// equivalent of the GPU `atomicAdd` the paper uses for FSR flux tallies).
#[inline]
pub fn atomic_add_f64(slot: &AtomicU64, value: f64) {
    atomic_add_f64_counted(slot, value);
}

/// [`atomic_add_f64`] that also reports the CAS retries this one call
/// burned, letting the arena sweep histogram per-track retry *bursts*
/// (a mean hides the pathological hot-FSR track the paper's contention
/// analysis cares about). Arithmetic is identical to the uncounted form.
#[inline]
pub(crate) fn atomic_add_f64_counted(slot: &AtomicU64, value: f64) -> u32 {
    let mut cur = slot.load(Ordering::Relaxed);
    let mut retries = 0u32;
    loop {
        let next = (f64::from_bits(cur) + value).to_bits();
        match slot.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return retries,
            Err(c) => {
                CAS_RETRIES.fetch_add(1, Ordering::Relaxed);
                retries += 1;
                cur = c;
            }
        }
    }
}

/// Result of one full transport sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Accumulated `sum(w * delta psi)` per `(fsr, group)`.
    pub phi_acc: Vec<f64>,
    /// Weighted flux leaked through vacuum boundaries.
    pub leakage: f64,
    /// 3D segments processed (both directions).
    pub segments: u64,
}

/// Per-worker working storage of [`sweep_track`]: the regenerated segment
/// list of a track that is not resident in the store, and the vector
/// kernel's staged attenuation spans. Both allocations are reused across
/// tracks and sweeps.
#[derive(Debug, Default)]
pub(crate) struct TrackBufs {
    /// OTF-regenerated segments in forward traversal order.
    segs: Vec<Segment3dCompact>,
    /// `e[seg * gp + gi] = 1 - exp(-sigma_t[gi] * len)`, group-major and
    /// lane-padded (`gp = padded_groups(G)`); padding lanes (`gi >= G`)
    /// are 0, the neutral attenuation of the masked tail.
    e: Vec<f64>,
}

/// The track's segments in forward order: its stored slice when resident,
/// otherwise regenerated on the fly into `scratch`.
fn track_segments<'a>(
    problem: &Problem,
    segsrc: &'a SegmentSource,
    track: u32,
    scratch: &'a mut Vec<Segment3dCompact>,
) -> &'a [Segment3dCompact] {
    if let Some(stored) = segsrc.store.as_ref().and_then(|s| s.of(Track3dId(track))) {
        return stored;
    }
    let st = &problem.sweep_tracks[track as usize];
    let info = Track3dInfo {
        track2d: TrackId(st.track2d),
        forward2d: st.forward2d,
        azim: 0, // unused by trace_3d
        polar: 0,
        ascending: st.ascending,
        u_lo: st.u_lo,
        u_hi: st.u_hi,
        z_lo: st.z_lo,
        cot: st.cot,
        sin_theta: 1.0 / st.inv_sin,
        length: (st.u_hi - st.u_lo) * st.inv_sin,
    };
    let base = problem.layout.segments2d.of(TrackId(st.track2d));
    let fsr3d = &problem.layout.fsr3d;
    scratch.clear();
    trace_3d(&info, base, &problem.axial, |fsr, cell, len| {
        scratch
            .push(Segment3dCompact { fsr3d: fsr3d.id(fsr, cell as usize).0, length: len as f32 });
    });
    scratch
}

/// Adds one segment's group span into a plain `f64` tally buffer in
/// ascending group order (the privatized and serial tally delivery).
#[inline]
fn add_span(buf: &mut [f64], qb: usize, vals: &[f64]) {
    for (b, &v) in buf[qb..qb + vals.len()].iter_mut().zip(vals) {
        *b += v;
    }
}

/// The per-track kernel every backend runs: sweeps one track in both
/// directions and returns `(segments, leakage)`.
///
/// Every segment's `w * delta psi` contributions are delivered as one
/// contiguous group span, `sink(qb, &values[..G])` for flux slots
/// `qb..qb + G`; the caller decides whether that is a plain add into a
/// private buffer ([`add_span`]), a CAS add into a shared array, or
/// nothing at all. Consumers add the span elementwise in ascending group
/// order, so each slot sees the same op sequence under either kernel.
///
/// * [`SweepKernel::Scalar`] — the conformance reference: per segment, the
///   `fsr->material` and `q` base indices are hoisted out of the group
///   loop, `tau = sigma_t * len` is precomputed per group into a stack
///   buffer, and `exp` evaluates `1 - exp(-tau)` once per group per
///   traversal.
/// * [`SweepKernel::Vector`] — two structural changes, neither of which
///   touches the per-group arithmetic:
///   1. **Per-track staging.** The attenuation factors depend only on the
///      segment, not the direction, so they are staged into a contiguous
///      group-major span once and read back by both direction passes —
///      half the transcendental work. `exp` is a pure function of the
///      identical `sigma_t * len` input bits, so the staged values are the
///      exact bits the scalar kernel computes.
///   2. **Lane-wide group loop.** The attenuation/tally math runs on
///      [`F64x4`] lanes. Every lane performs the same IEEE 754 op sequence
///      as one scalar group iteration (`d = (psi - q) * e`; `w * d`;
///      `psi - d`), so each group's result is bitwise identical to the
///      scalar loop's. Remainder groups (G % 4 != 0) take a masked tail:
///      `psi`/`vals` are `MAX_GROUPS`-padded stack arrays (full-lane loads
///      and stores stay in bounds), the staged span is zero-padded, and
///      only the `q` load is masked — its neighbours belong to the *next*
///      FSR and may sit past the end of the array. Tail lanes thus compute
///      `(psi_pad - 0) * 0 = 0` and are truncated from the tally span.
///
/// The loop is shaped for straight-line code (DESIGN.md, "Why the sweep
/// loop is shaped this way"): the one run-time group count is turned into
/// a compile-time `G` here, once per track, so every group loop below —
/// lane blocks, remainder, staging, the sink's span add — has a fixed trip
/// count, and segments are visited by a plain indexed loop whose body
/// inlines with `psi`/`vals` in registers. `scripts/check_simd_asm.sh`
/// fails if an instantiation ever calls `memcpy` or an outlined closure.
#[allow(clippy::too_many_arguments)]
fn sweep_track<S: FnMut(usize, &[f64])>(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    track: u32,
    kernel: SweepKernel,
    exp: &ExpEval<'_>,
    bufs: &mut TrackBufs,
    sink: S,
) -> (u64, f64) {
    // One arm per supported group count: keep the list in step with the limit.
    const { assert!(MAX_GROUPS == 8) };
    macro_rules! dispatch {
        ($($g:literal)*) => {
            match problem.num_groups() {
                $($g => sweep_track_g::<$g, S>(
                    problem, segsrc, q, banks, track, kernel, exp, bufs, sink,
                ),)*
                g => unreachable!("{g} groups: `XsData::build` admits 1..={MAX_GROUPS}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8)
}

/// [`sweep_track`] for a compile-time group count. Never inlined (the
/// call is per track, not per segment), so every instantiation stays a
/// `sweep_track_g` symbol the assembly check can find and scan.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn sweep_track_g<const G: usize, S: FnMut(usize, &[f64])>(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    track: u32,
    kernel: SweepKernel,
    exp: &ExpEval<'_>,
    bufs: &mut TrackBufs,
    mut sink: S,
) -> (u64, f64) {
    let gp = padded_groups(G);
    let st = &problem.sweep_tracks[track as usize];
    let xs = &problem.xs;
    let segs = track_segments(problem, segsrc, track, &mut bufs.segs);
    let nseg = segs.len();

    let staged = &mut bufs.e;
    if kernel == SweepKernel::Vector {
        // One exp evaluation per (segment, group), reused by both
        // direction passes below. The span buffer is sized once up front
        // (zero-filling the padding lanes in the same pass).
        staged.clear();
        staged.resize(nseg * gp, 0.0);
        for (s, span) in segs.iter().zip(staged.chunks_exact_mut(gp)) {
            let mat = xs.fsr_mat[s.fsr3d as usize] as usize * G;
            let lenf = s.length as f64;
            for (e, sig) in span[..G].iter_mut().zip(&xs.sigma_t[mat..mat + G]) {
                // The same `sig * lenf` input bits the scalar kernel's tau
                // buffer carries, through the same evaluator below.
                *e = sig * lenf;
            }
        }
        match exp {
            // One lane-wide pass over the contiguous slab: per element the
            // bits `one_minus_exp` gives the scalar kernel, and a padding
            // lane's tau of 0 maps to the 0 it has to stay.
            ExpEval::Intrinsic => one_minus_exp_slab(staged),
            ExpEval::Table(table) => {
                for span in staged.chunks_exact_mut(gp) {
                    for e in &mut span[..G] {
                        *e = table.eval(*e);
                    }
                }
            }
        }
    }

    let mut psi = [0.0f64; MAX_GROUPS];
    let mut vals = [0.0f64; MAX_GROUPS];
    let mut leak = 0.0f64;
    let w = F64x4::splat(st.weight);
    for dir in 0..2usize {
        banks.load_incoming(track, dir, &mut psi[..G]);
        match kernel {
            SweepKernel::Scalar => {
                for k in 0..nseg {
                    let si = if dir == 0 { k } else { nseg - 1 - k };
                    let f = segs[si].fsr3d as usize;
                    let mat = xs.fsr_mat[f] as usize * G;
                    let qb = f * G;
                    let qs = &q[qb..qb + G];
                    let lenf = segs[si].length as f64;
                    // tau = sigma_t * len per group, batched so the attenuation
                    // loop below is pure FMA + exp.
                    let mut tau = [0.0f64; G];
                    for (t, sig) in tau.iter_mut().zip(&xs.sigma_t[mat..mat + G]) {
                        *t = sig * lenf;
                    }
                    for gi in 0..G {
                        let e = exp.one_minus_exp(tau[gi]); // 1 - exp(-tau)
                        let dpsi = (psi[gi] - qs[gi]) * e;
                        vals[gi] = st.weight * dpsi;
                        psi[gi] -= dpsi;
                    }
                    sink(qb, &vals[..G]);
                }
            }
            SweepKernel::Vector => {
                for k in 0..nseg {
                    let si = if dir == 0 { k } else { nseg - 1 - k };
                    let qb = segs[si].fsr3d as usize * G;
                    let qs = &q[qb..qb + G];
                    // One bounds check for the whole staged span, then
                    // fixed-offset lane loads inside it.
                    let es = &staged[si * gp..si * gp + gp];
                    let mut lane = 0usize;
                    // Full lane blocks: unmasked loads throughout.
                    while lane + LANES <= G {
                        let pv = F64x4::load(&psi[lane..]);
                        let qv = F64x4::load(&qs[lane..]);
                        let ev = F64x4::load(&es[lane..]);
                        let d = (pv - qv) * ev;
                        (w * d).store(&mut vals[lane..]);
                        (pv - d).store(&mut psi[lane..]);
                        lane += LANES;
                    }
                    // Remainder block (G % 4 != 0): only the `q` load is masked.
                    if lane < G {
                        let pv = F64x4::load(&psi[lane..]);
                        let qv = F64x4::load_partial(&qs[lane..]);
                        let ev = F64x4::load(&es[lane..]);
                        let d = (pv - qv) * ev;
                        (w * d).store(&mut vals[lane..]);
                        (pv - d).store(&mut psi[lane..]);
                    }
                    sink(qb, &vals[..G]);
                }
            }
        }
        match st.links[dir] {
            Link3d::Vacuum => {
                for p in psi.iter().take(G) {
                    leak += st.weight * *p;
                }
                // Capture the boundary exit for the rank exchange.
                banks.store_boundary(track, dir, &psi[..G]);
            }
            Link3d::Next { track: t2, forward } => {
                let dir2 = if forward { 0 } else { 1 };
                banks.store_outgoing(t2.0, dir2, &psi[..G]);
            }
        }
    }
    (2 * nseg as u64, leak)
}

/// Per-worker running totals of one sweep region.
#[derive(Default)]
struct WorkerTotals {
    segments: u64,
    leakage: f64,
    track_ns: Histogram,
    /// Per-track CAS-retry bursts (atomic tallies only): the
    /// `sweep.cas_retries` counter totals them, but contention is bursty
    /// (a few hot-FSR tracks), so the distribution is the signal.
    cas_burst: Histogram,
}

/// One full sweep through a [`SweepArena`], minus the order in which
/// tracks reach the pool: resolves the tally strategy, prepares the
/// arena, hands `dispatch` the per-track body (`track -> segments`, to be
/// called exactly once per track from inside a rayon region of at most
/// `workers` workers), then reduces and records telemetry. The CPU sweep
/// dispatches by [`SweepSchedule`]; the device solver launches the same
/// body through its simulated CUs.
///
/// * **Atomic** strategy: CAS adds into the arena's shared array.
/// * **Privatized** strategy: plain adds into the executing worker's
///   private buffer, reduced in ascending worker order afterwards — zero
///   `sweep.cas_retries`, and bitwise-deterministic results whenever the
///   dispatch maps tracks to workers deterministically.
pub(crate) fn sweep_region(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    arena: &mut SweepArena,
    workers: usize,
    dispatch: impl FnOnce(SweepTallies, &(dyn Fn(u32) -> u64 + Sync)),
) -> SweepOutcome {
    let tel = Telemetry::current();
    let _sweep_span = tel.span("transport_sweep");
    let retries_before = CAS_RETRIES.load(Ordering::Relaxed);

    let g = problem.num_groups();
    let nf = problem.num_fsrs() * g;
    let strategy = arena.resolve(workers, problem.num_fsrs(), g);
    arena.prepare(workers, nf, strategy);
    let mut phi = arena.take_phi(nf);

    let mut totals = rayon::WorkerLocal::new(workers, |_| WorkerTotals::default());
    let tracing = tel.trace_enabled();
    {
        let kernel = arena.kernel.kernel;
        let exp = arena.exp_eval();
        let track_bufs = arena.track_bufs();
        let worker_phi = arena.worker_bufs();
        let shared = matches!(strategy, SweepTallies::Atomic).then(|| arena.atomic_slots());
        let totals = &totals;
        let body = |t: u32| -> u64 {
            let t0 = Instant::now();
            let mut burst = 0u32;
            let (s, l) = track_bufs.with(|bufs| match shared {
                Some(slots) => {
                    sweep_track(problem, segsrc, q, banks, t, kernel, &exp, bufs, |qb, vals| {
                        for (slot, &v) in slots[qb..].iter().zip(vals) {
                            burst += atomic_add_f64_counted(slot, v);
                        }
                    })
                }
                None => worker_phi.with(|buf| {
                    sweep_track(problem, segsrc, q, banks, t, kernel, &exp, bufs, |qb, vals| {
                        add_span(buf, qb, vals)
                    })
                }),
            });
            totals.with(|tot| {
                tot.segments += s;
                tot.leakage += l;
                tot.track_ns.record(t0.elapsed().as_nanos() as u64);
                if shared.is_some() {
                    tot.cas_burst.record(burst as u64);
                }
            });
            if tracing {
                tel.trace_complete_since(
                    "track",
                    t0,
                    &[("track", Json::Uint(t as u64)), ("segments", Json::Uint(s))],
                );
            }
            s
        };
        dispatch(strategy, &body);
    }

    // Fixed worker-order reductions: the per-worker (segments, leakage)
    // totals, then the tallies.
    let mut segments = 0u64;
    let mut leakage = 0.0f64;
    for tot in totals.iter_mut() {
        segments += tot.segments;
        leakage += tot.leakage;
        tel.histogram_merge("sweep.track_ns", &tot.track_ns);
        tel.histogram_merge("sweep.cas_burst", &tot.cas_burst);
    }
    match strategy {
        SweepTallies::Atomic => {
            for (acc, slot) in phi.iter_mut().zip(arena.atomic_slots()) {
                *acc = f64::from_bits(slot.load(Ordering::Relaxed));
            }
        }
        SweepTallies::Privatized { workers: w } => arena.reduce_privatized(&mut phi, w),
    }

    if let Some(stats) = rayon::take_last_region_stats() {
        record_scheduler_stats(&tel, &stats);
    }
    let retries = CAS_RETRIES.load(Ordering::Relaxed).wrapping_sub(retries_before);
    record_sweep(
        &tel,
        problem,
        &arena.kernel,
        strategy,
        workers,
        arena.block_bytes(),
        segments,
        retries,
    );

    SweepOutcome { phi_acc: phi, leakage, segments }
}

/// A full transport sweep on the rayon pool, dispatching tracks in the
/// order given by `schedule`. The tally strategy, kernel and exp
/// evaluator come from the arena's [`crate::tally::KernelConfig`], and
/// every large allocation (flux accumulator, per-worker tally buffers,
/// track scratch, exp table) is reused across calls.
///
/// Atomic tallies dispatch through the work-stealing scheduler;
/// privatized tallies take a static partition of the dispatch order (one
/// contiguous slice per worker, no stealing), which makes them run-to-run
/// bitwise deterministic for a fixed worker count and schedule.
pub fn transport_sweep_with(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    schedule: &SweepSchedule,
    arena: &mut SweepArena,
) -> SweepOutcome {
    let n = problem.num_tracks();
    if let Some(len) = schedule.explicit_len() {
        assert_eq!(len, n, "schedule built for a different problem");
    }
    let workers = rayon::current_num_threads().clamp(1, n.max(1));
    sweep_region(problem, segsrc, q, banks, arena, workers, |strategy, track| match strategy {
        SweepTallies::Atomic => (0..n).into_par_iter().for_each(|i| {
            track(schedule.track_at(i));
        }),
        SweepTallies::Privatized { .. } => {
            rayon::static_partition_fold(
                n,
                |_w| (),
                |(), i| {
                    track(schedule.track_at(i));
                },
            );
        }
    })
}

/// A one-thread sweep over a plain `f64` tally buffer with the default
/// kernel configuration (the `cpu-serial` backend takes no `[solver]`
/// kernel keys), tracks in `order`, calling `swept(t)` as each track `t`
/// finishes. In natural order it is bitwise equal to a one-worker
/// [`transport_sweep_with`] — a single private buffer receives the same
/// adds in the same order, and reducing it into a zeroed accumulator
/// changes no bits. `phi` is the accumulator to reuse — a recycled
/// `SweepOutcome::phi_acc` of any length and content, or an empty vector.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_serial(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    order: &SweepSchedule,
    bufs: &mut TrackBufs,
    mut phi: Vec<f64>,
    swept: &mut dyn FnMut(u32),
) -> SweepOutcome {
    let tel = Telemetry::current();
    let _sweep_span = tel.span("transport_sweep");
    phi.clear();
    phi.resize(problem.num_fsrs() * problem.num_groups(), 0.0);
    let mut segments = 0u64;
    let mut leakage = 0.0f64;
    let kernel = SweepKernel::default();
    for i in 0..problem.num_tracks() {
        let t = order.track_at(i);
        let (s, l) = sweep_track(
            problem,
            segsrc,
            q,
            banks,
            t,
            kernel,
            &ExpEval::Intrinsic,
            bufs,
            |qb, v| add_span(&mut phi, qb, v),
        );
        segments += s;
        leakage += l;
        swept(t);
    }
    let strategy = SweepTallies::Privatized { workers: 1 };
    record_sweep(&tel, problem, &KernelConfig::default(), strategy, 1, 0, segments, 0);
    SweepOutcome { phi_acc: phi, leakage, segments }
}

/// Records what every backend's sweep reports: segment/track/retry
/// counters, the tally footprint and roofline gauges, and the
/// `sweep_kernel` section. `block_bytes` is 0 where no blocked reduction
/// runs (the serial backend tallies straight into the accumulator).
#[allow(clippy::too_many_arguments)]
fn record_sweep(
    tel: &Telemetry,
    problem: &Problem,
    config: &KernelConfig,
    strategy: SweepTallies,
    workers: usize,
    block_bytes: u64,
    segments: u64,
    cas_retries: u64,
) {
    let n = problem.num_tracks() as u64;
    let g = problem.num_groups();
    tel.counter_add("sweep.segments", segments);
    tel.counter_add("sweep.tracks", n);
    // A zero delta still creates the key: the quiet counter is the point.
    tel.counter_add("sweep.cas_retries", cas_retries);
    if tel.trace_enabled() {
        tel.trace_instant(
            "sweep.summary",
            &[
                ("tracks", Json::Uint(n)),
                ("segments", Json::Uint(segments)),
                ("cas_retries", Json::Uint(cas_retries)),
            ],
        );
    }
    tel.gauge_set("sweep.tally_bytes", strategy.bytes(problem.num_fsrs() * g) as f64);
    // Roofline numerator: modelled memory traffic per segment traversal
    // (the staged vector kernel trades extra span bytes for half the
    // transcendental work — see `antmoc_perfmodel::sweep_bytes_per_segment`).
    let vector = config.kernel == SweepKernel::Vector;
    tel.gauge_set("sweep.bytes_per_segment", antmoc_perfmodel::sweep_bytes_per_segment(g, vector));
    tel.set_section(
        "sweep_kernel",
        Json::Obj(vec![
            ("tally_mode".into(), Json::Str(strategy.name().into())),
            ("exp_mode".into(), Json::Str(config.exp.name().into())),
            ("workers".into(), Json::Uint(workers as u64)),
            ("kernel".into(), Json::Str(config.kernel.name().into())),
            ("lanes".into(), Json::Uint(config.kernel.lanes() as u64)),
            ("block_kb".into(), Json::Uint(block_bytes >> 10)),
        ]),
    );
}

/// Records one sweep's scheduler stats: steal counters, the max/mean
/// worker load ratio (gauge, high-water retained across sweeps), and a
/// `sweep_workers` section with the last sweep's per-worker busy time and
/// item counts. Single-worker regions record **nothing** — a serial pool
/// neither steals nor balances, and zeroed keys would read as a perfectly
/// level schedule instead of an unmeasured one.
pub fn record_scheduler_stats(tel: &Telemetry, stats: &rayon::RegionStats) {
    if stats.workers <= 1 {
        return;
    }
    tel.counter_add("sweep.steal_attempts", stats.steal_attempts);
    tel.counter_add("sweep.steals", stats.steals);
    let mean = stats.busy_s.iter().sum::<f64>() / stats.workers as f64;
    let max = stats.busy_s.iter().cloned().fold(0.0f64, f64::max);
    tel.gauge_set("sweep.load_ratio", stats.load_ratio());
    tel.gauge_set("sweep.worker_busy_max_s", max);
    tel.gauge_set("sweep.worker_busy_mean_s", mean);
    for &w in &stats.wait_s {
        tel.histogram_record("sweep.steal_wait_ns", (w * 1e9) as u64);
    }
    tel.set_section(
        "sweep_workers",
        Json::Obj(vec![
            ("workers".into(), Json::Uint(stats.workers as u64)),
            ("busy_s".into(), Json::Arr(stats.busy_s.iter().map(|&b| Json::Num(b)).collect())),
            ("wait_s".into(), Json::Arr(stats.wait_s.iter().map(|&w| Json::Num(w)).collect())),
            ("items".into(), Json::Arr(stats.items.iter().map(|&i| Json::Uint(i)).collect())),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use antmoc_geom::geometry::homogeneous_box;
    use antmoc_geom::{AxialModel, BoundaryConds};
    use antmoc_track::TrackParams;
    use antmoc_xs::c5g7;

    /// A natural-order sweep with the default kernel configuration.
    fn natural_sweep(
        p: &Problem,
        segsrc: &SegmentSource,
        q: &[f64],
        banks: &FluxBanks,
    ) -> SweepOutcome {
        let mut arena = SweepArena::new(KernelConfig::default());
        transport_sweep_with(p, segsrc, q, banks, &SweepSchedule::natural(), &mut arena)
    }

    /// One track through the unified kernel entry into a plain buffer;
    /// returns the tallies and the segments the track swept.
    fn sweep_single_track(
        p: &Problem,
        q: &[f64],
        banks: &FluxBanks,
        track: u32,
        kernel: SweepKernel,
    ) -> (Vec<f64>, Vec<Segment3dCompact>) {
        let mut phi = vec![0.0f64; q.len()];
        let mut bufs = TrackBufs::default();
        let segsrc = SegmentSource::otf();
        let _ = sweep_track(
            p,
            &segsrc,
            q,
            banks,
            track,
            kernel,
            &ExpEval::Intrinsic,
            &mut bufs,
            |qb, vals| add_span(&mut phi, qb, vals),
        );
        (phi, bufs.segs)
    }

    fn vac_problem() -> Problem {
        let lib = c5g7::library();
        let (uo2, _) = lib.by_name("UO2").unwrap();
        let g = homogeneous_box(uo2, 2.0, 2.0, (0.0, 2.0), BoundaryConds::vacuum());
        let axial = AxialModel::uniform(0.0, 2.0, 1.0);
        let params = TrackParams {
            num_azim: 4,
            radial_spacing: 0.5,
            num_polar: 2,
            axial_spacing: 0.5,
            ..Default::default()
        };
        Problem::build(g, axial, &lib, params)
    }

    #[test]
    fn atomic_f64_add_is_correct_under_contention() {
        let slot = AtomicU64::new(0f64.to_bits());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        atomic_add_f64(&slot, 0.5);
                    }
                });
            }
        });
        assert_eq!(f64::from_bits(slot.load(Ordering::Relaxed)), 40_000.0);
    }

    #[test]
    fn flux_banks_round_trip_and_swap() {
        let mut banks = FluxBanks::new(3, 7);
        let psi = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        banks.store_outgoing(2, 1, &psi);
        let mut got32 = [0.0f32; 7];
        banks.get_outgoing(2, 1, &mut got32);
        assert_eq!(got32[6], 7.0);
        banks.swap();
        let mut got = [0.0f64; 7];
        banks.load_incoming(2, 1, &mut got);
        assert_eq!(got, psi);
        // Outgoing cleared after swap.
        banks.get_outgoing(2, 1, &mut got32);
        assert!(got32.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn flux_banks_scale_both_banks() {
        let banks = FluxBanks::new(1, 2);
        banks.set_incoming(0, 0, &[2.0, 4.0]);
        banks.store_outgoing(0, 0, &[8.0, 16.0]);
        banks.scale(0.5);
        let mut inc = [0.0f64; 2];
        banks.load_incoming(0, 0, &mut inc);
        assert_eq!(inc, [1.0, 2.0]);
        let mut out = [0.0f32; 2];
        banks.get_outgoing(0, 0, &mut out);
        assert_eq!(out, [4.0, 8.0]);
    }

    #[test]
    fn zero_source_zero_inflow_sweep_is_zero() {
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let q = vec![0.0f64; p.num_fsrs() * p.num_groups()];
        let out = natural_sweep(&p, &segsrc, &q, &banks);
        assert!(out.phi_acc.iter().all(|&x| x == 0.0));
        assert_eq!(out.leakage, 0.0);
        assert_eq!(out.segments, p.num_3d_segments() * 2);
    }

    #[test]
    fn stored_and_otf_sweeps_agree() {
        let p = vac_problem();
        let all: Vec<Track3dId> = p.layout.tracks3d.ids().collect();
        let exp = SegmentSource::stored(&p, &all);
        let otf = SegmentSource::otf();
        // Uniform source, no inflow.
        let q = vec![0.25f64; p.num_fsrs() * p.num_groups()];
        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let a = natural_sweep(&p, &exp, &q, &banks);
        let banks2 = FluxBanks::new(p.num_tracks(), p.num_groups());
        let b = natural_sweep(&p, &otf, &q, &banks2);
        assert_eq!(a.segments, b.segments);
        for (x, y) in a.phi_acc.iter().zip(&b.phi_acc) {
            // f32 segment lengths in the store vs f64 OTF: tiny drift.
            assert!((x - y).abs() < 1e-5 * x.abs().max(1.0), "{x} vs {y}");
        }
        assert!((a.leakage - b.leakage).abs() < 1e-5 * a.leakage.abs().max(1.0));
    }

    #[test]
    fn positive_source_leaks_from_vacuum_box() {
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let q = vec![1.0f64; p.num_fsrs() * p.num_groups()];
        let out = natural_sweep(&p, &segsrc, &q, &banks);
        assert!(out.leakage > 0.0, "vacuum box must leak");
        // With psi_in = 0 < q, delta psi is negative (flux builds up along
        // the track), so phi_acc is negative; the scalar-flux update adds
        // 4*pi*q back. Just check finiteness and sign sanity here.
        assert!(out.phi_acc.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn beam_attenuates_exponentially() {
        // Direct check of the segment sweep math: zero source, a unit
        // incoming angular flux on one traversal, one sweep. The flux
        // arriving at the linked outlet must be exp(-sigma_t * L) with L
        // the 3D path length of the track.
        let p = vac_problem();
        let g = p.num_groups();
        let track = 0u32;
        let q = vec![0.0f64; p.num_fsrs() * g];
        for kernel in [SweepKernel::Scalar, SweepKernel::Vector] {
            let banks = FluxBanks::new(p.num_tracks(), g);
            banks.set_incoming(track, 0, &[1.0f32; 7]);
            let (_, segs) = sweep_single_track(&p, &q, &banks, track, kernel);

            // Reconstruct the expected attenuation from the OTF segments.
            let mut tau = [0.0f64; MAX_GROUPS];
            for s in &segs {
                let mat = p.xs.fsr_mat[s.fsr3d as usize] as usize * g;
                for gi in 0..g {
                    tau[gi] += p.xs.sigma_t[mat + gi] * s.length as f64;
                }
            }
            // The outgoing flux was captured in the boundary bank (vacuum).
            let mut out = [0.0f32; 7];
            banks.get_boundary(track, 0, &mut out);
            for gi in 0..g {
                let expect = (-tau[gi]).exp();
                assert!(
                    (out[gi] as f64 - expect).abs() < 1e-6 + 1e-4 * expect,
                    "{kernel:?} group {gi}: {} vs {expect}",
                    out[gi],
                );
            }
        }
    }

    #[test]
    fn scalar_flux_accumulation_conserves_track_loss() {
        // For one track with zero source: sum of w * delta psi over the
        // segments equals w * (psi_in - psi_out) per group.
        let p = vac_problem();
        let g = p.num_groups();
        let track = 3u32;
        let q = vec![0.0f64; p.num_fsrs() * g];
        for kernel in [SweepKernel::Scalar, SweepKernel::Vector] {
            let banks = FluxBanks::new(p.num_tracks(), g);
            banks.set_incoming(track, 0, &[2.0f32; 7]);
            let (phi, _) = sweep_single_track(&p, &q, &banks, track, kernel);
            let mut out = [0.0f32; 7];
            banks.get_boundary(track, 0, &mut out);
            let st = &p.sweep_tracks[track as usize];
            for gi in 0..g {
                let acc: f64 = (0..p.num_fsrs()).map(|f| phi[f * g + gi]).sum();
                let expect = st.weight * (2.0 - out[gi] as f64);
                assert!(
                    (acc - expect).abs() < 1e-6 * expect.abs().max(1.0),
                    "{kernel:?} group {gi}: acc {acc} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn manager_source_mixes_resident_and_otf() {
        let p = vac_problem();
        let half: Vec<Track3dId> = p.layout.tracks3d.ids().step_by(2).collect();
        let src = SegmentSource::stored(&p, &half);
        assert_eq!(src.num_resident(), half.len());
        assert!(src.stored_bytes() > 0);
        let q = vec![0.5f64; p.num_fsrs() * p.num_groups()];
        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let mixed = natural_sweep(&p, &src, &q, &banks);
        let banks2 = FluxBanks::new(p.num_tracks(), p.num_groups());
        let pure = natural_sweep(&p, &SegmentSource::otf(), &q, &banks2);
        for (x, y) in mixed.phi_acc.iter().zip(&pure.phi_acc) {
            assert!((x - y).abs() < 1e-5 * x.abs().max(1.0));
        }
    }

    #[test]
    fn l3_schedule_matches_natural_sweep() {
        use crate::schedule::ScheduleKind;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.75f64; p.num_fsrs() * p.num_groups()];
        let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
        let nat = natural_sweep(&p, &segsrc, &q, &banks);
        for workers in [1, 2, 8] {
            let sched = SweepSchedule::with_workers(ScheduleKind::L3Sorted, &p, workers);
            let banks2 = FluxBanks::new(p.num_tracks(), p.num_groups());
            let mut arena = SweepArena::new(KernelConfig::default());
            let l3 = transport_sweep_with(&p, &segsrc, &q, &banks2, &sched, &mut arena);
            assert_eq!(l3.segments, nat.segments);
            assert!(
                (l3.leakage - nat.leakage).abs() <= 1e-10 * nat.leakage.abs().max(1.0),
                "leakage {} vs {} (workers={workers})",
                l3.leakage,
                nat.leakage
            );
            for (x, y) in l3.phi_acc.iter().zip(&nat.phi_acc) {
                assert!((x - y).abs() <= 1e-10 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn single_worker_region_records_no_scheduler_keys() {
        // A serial pool neither steals nor balances; recording zeros would
        // fake a perfectly level schedule. The keys must be absent.
        let tel = Telemetry::new();
        let stats = rayon::RegionStats {
            workers: 1,
            busy_s: vec![0.5],
            wait_s: vec![0.0],
            items: vec![100],
            steal_attempts: 0,
            steals: 0,
        };
        record_scheduler_stats(&tel, &stats);
        let r = tel.report();
        assert!(!r.counters.contains_key("sweep.steal_attempts"));
        assert!(!r.counters.contains_key("sweep.steals"));
        assert!(!r.gauges.contains_key("sweep.load_ratio"));
        assert!(!r.gauges.contains_key("sweep.worker_busy_max_s"));
        assert!(!r.gauges.contains_key("sweep.worker_busy_mean_s"));
        assert!(!r.sections.contains_key("sweep_workers"));
    }

    #[test]
    fn multi_worker_region_records_scheduler_keys() {
        let tel = Telemetry::new();
        let stats = rayon::RegionStats {
            workers: 2,
            busy_s: vec![0.3, 0.1],
            wait_s: vec![0.0, 0.05],
            items: vec![60, 40],
            steal_attempts: 5,
            steals: 3,
        };
        record_scheduler_stats(&tel, &stats);
        let r = tel.report();
        assert_eq!(r.counter("sweep.steal_attempts"), 5);
        assert_eq!(r.counter("sweep.steals"), 3);
        assert!((r.gauges["sweep.load_ratio"].last - 1.5).abs() < 1e-12);
        assert!((r.gauges["sweep.worker_busy_max_s"].last - 0.3).abs() < 1e-12);
        assert!((r.gauges["sweep.worker_busy_mean_s"].last - 0.2).abs() < 1e-12);
        assert!(r.sections.contains_key("sweep_workers"));
        let waits = &r.histograms["sweep.steal_wait_ns"];
        assert_eq!(waits.count, 2);
        assert_eq!(waits.max, 50_000_000);
    }

    #[test]
    fn scheduled_sweep_records_stats_only_when_parallel() {
        // Driven end-to-end through the pool: an explicit 4-worker pool
        // leaves a multi-worker region behind; the serial path leaves none.
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.5f64; p.num_fsrs() * p.num_groups()];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ = natural_sweep(&p, &segsrc, &q, &banks);
        });
        // The sweep consumed (took) the region stats itself; the
        // thread-local must now be clear.
        assert!(rayon::take_last_region_stats().is_none());
        let pool1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool1.install(|| {
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ = natural_sweep(&p, &segsrc, &q, &banks);
        });
        assert!(rayon::take_last_region_stats().is_none());
    }

    #[test]
    fn one_worker_privatized_sweep_is_bit_identical_to_atomic() {
        // What let every backend leave the atomic kernel without moving a
        // bit: on one worker a private buffer receives the same adds in
        // the same order the shared atomic array would, and reducing it
        // into a zeroed accumulator is `0.0 + x` (DESIGN.md).
        use crate::tally::TallyMode;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.6f64; p.num_fsrs() * p.num_groups()];
        let sched = SweepSchedule::natural();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let run = |tallies: TallyMode| {
            let mut arena = SweepArena::new(KernelConfig { tallies, ..Default::default() });
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            banks.set_incoming(2, 1, &[0.4f32; 7]);
            pool.install(|| transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut arena))
        };
        let atomic = run(TallyMode::Atomic);
        let private = run(TallyMode::Privatized);
        assert_eq!(atomic.segments, private.segments);
        assert_eq!(atomic.leakage.to_bits(), private.leakage.to_bits());
        for (i, (x, y)) in atomic.phi_acc.iter().zip(&private.phi_acc).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "slot {i}: {x} vs {y}");
        }
    }

    #[test]
    fn vector_kernel_is_bitwise_identical_to_scalar_on_the_serial_backend() {
        // The tentpole's conformance claim, at its sharpest: with one
        // worker and privatized tallies the vector kernel must reproduce
        // the scalar kernel bit for bit — C5G7's 7 groups exercise the
        // masked remainder lanes (7 % 4 = 3). The full worker x schedule
        // x group-count matrix lives in tests/prop_kernel_equivalence.rs.
        use crate::tally::TallyMode;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q: Vec<f64> =
            (0..p.num_fsrs() * p.num_groups()).map(|i| 0.3 + (i % 11) as f64 * 0.07).collect();
        let sched = SweepSchedule::natural();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let run = |kernel: SweepKernel| {
            let mut arena = SweepArena::new(KernelConfig {
                tallies: TallyMode::Privatized,
                kernel,
                ..Default::default()
            });
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            banks.set_incoming(1, 0, &[0.9f32; 7]);
            pool.install(|| transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut arena))
        };
        let scalar = run(SweepKernel::Scalar);
        let vector = run(SweepKernel::Vector);
        assert_eq!(scalar.segments, vector.segments);
        assert_eq!(scalar.leakage.to_bits(), vector.leakage.to_bits());
        for (i, (a, b)) in scalar.phi_acc.iter().zip(&vector.phi_acc).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}: {a} vs {b}");
        }
    }

    #[test]
    fn arena_sweep_reports_bytes_per_segment_and_kernel_keys() {
        use crate::tally::TallyMode;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.5f64; p.num_fsrs() * p.num_groups()];
        // No global-telemetry reset here: sibling tests share the global
        // registry, and the report is taken immediately after the sweep so
        // the last-set gauge/section belong to this run.
        let tel_run = |kernel: SweepKernel| {
            let mut arena = SweepArena::new(KernelConfig {
                tallies: TallyMode::Privatized,
                kernel,
                block_bytes: Some(8 << 10),
                ..Default::default()
            });
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ = transport_sweep_with(
                &p,
                &segsrc,
                &q,
                &banks,
                &SweepSchedule::natural(),
                &mut arena,
            );
            Telemetry::global().report()
        };
        let r = tel_run(SweepKernel::Vector);
        let bps = r.gauges["sweep.bytes_per_segment"].last;
        assert_eq!(bps, antmoc_perfmodel::sweep_bytes_per_segment(p.num_groups(), true));
        let sec = format!("{:?}", r.sections["sweep_kernel"]);
        assert!(sec.contains("vector") && sec.contains("lanes"), "section {sec}");
        assert!(sec.contains("block_kb"), "section {sec}");
        let r = tel_run(SweepKernel::Scalar);
        assert_eq!(
            r.gauges["sweep.bytes_per_segment"].last,
            antmoc_perfmodel::sweep_bytes_per_segment(p.num_groups(), false)
        );
    }

    #[test]
    fn arena_sweep_records_kernel_telemetry() {
        use crate::tally::TallyMode;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.5f64; p.num_fsrs() * p.num_groups()];
        let mut arena =
            SweepArena::new(KernelConfig { tallies: TallyMode::Privatized, ..Default::default() });
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ = transport_sweep_with(
                &p,
                &segsrc,
                &q,
                &banks,
                &SweepSchedule::natural(),
                &mut arena,
            );
        });
        let r = Telemetry::global().report();
        // The retry counter key exists even at zero — "no retries" is an
        // observation, not an absence.
        assert!(r.counters.contains_key("sweep.cas_retries"));
        assert!(r.gauges.contains_key("sweep.tally_bytes"));
        let sec = &r.sections["sweep_kernel"];
        let rendered = format!("{sec:?}");
        assert!(rendered.contains("privatized"), "section {rendered}");
        assert!(rendered.contains("intrinsic"), "section {rendered}");
    }

    #[test]
    fn table_exp_sweep_tracks_intrinsic_within_tolerance() {
        use crate::tally::ExpMode;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.8f64; p.num_fsrs() * p.num_groups()];
        let sched = SweepSchedule::natural();
        let run = |exp: ExpMode| {
            let mut arena = SweepArena::new(KernelConfig { exp, ..Default::default() });
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut arena)
        };
        let intr = run(ExpMode::Intrinsic);
        let tab = run(ExpMode::Table);
        assert_eq!(intr.segments, tab.segments);
        // Per-segment table error is <= 1e-7 absolute on 1-exp(-tau);
        // phi sums |q - psi| * err over segments, so allow a generous
        // multiple without letting the comparison go slack.
        for (i, (x, y)) in intr.phi_acc.iter().zip(&tab.phi_acc).enumerate() {
            assert!((x - y).abs() < 1e-4 * x.abs().max(1.0), "slot {i}: {x} vs {y}");
        }
        assert!((intr.leakage - tab.leakage).abs() < 1e-4 * intr.leakage.abs().max(1.0));
    }
}
