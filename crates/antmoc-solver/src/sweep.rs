//! The transport sweep: boundary flux banks, the one per-track segment
//! kernel every backend runs ([`sweep_track`]), and the region driver
//! that delivers its tallies ([`sweep_region`], behind
//! [`transport_sweep_with`], the CPU sweeper and the device solver).
//! Tracks reach threads one way only: a [`SweepSchedule`]'s bins, dealt
//! to the pool's workers in contiguous runs, so which worker sweeps which
//! track is fixed for a given worker count.
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
    trace_3d, Link3d, Segment3dCompact, SegmentKey, SegmentStore3d, Track3dId, Track3dInfo, TrackId,
};

use crate::exp::one_minus_exp_slab;
use crate::exptable::ExpEval;
use crate::manager::{select_and_store, RankPolicy, ResidencyPlan};
use crate::problem::Problem;
use crate::schedule::SweepSchedule;
use crate::simd::{padded_groups, F64x4, LANES};
use crate::tally::{ExpMode, SweepArena, SweepKernel, SweepTallies};

/// Maximum supported energy groups: the per-traversal state is stack
/// arrays of this size, and [`sweep_track`] has one monomorphized body per
/// group count up to it.
pub const MAX_GROUPS: usize = 8;

/// Evaluates `$body` with the constant `$G` set to the group count `$g`:
/// one copy of the body per supported count, so its group loops have fixed
/// trip counts.
macro_rules! with_groups {
    ($g:expr, $G:ident => $body:expr) => {
        // One arm per supported group count: keep the list in step with the limit.
        with_groups!(@arms $g, $G, $body, 1 2 3 4 5 6 7 8)
    };
    (@arms $g:expr, $G:ident, $body:expr, $($n:literal)*) => {{
        const { assert!($crate::sweep::MAX_GROUPS == 8) };
        match $g {
            $($n => {
                const $G: usize = $n;
                $body
            })*
            g => unreachable!("{g} groups: `XsData::build` admits 1..=8"),
        }
    }};
}
pub(crate) use with_groups;

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
/// covering some or all tracks, with one attenuation span per distinct
/// (material, length) pair of the store; uncovered tracks fall back to
/// OTF.
#[derive(Debug)]
pub struct SegmentSource {
    store: Option<SegmentStore3d>,
    /// `table[key * gp + gi] = 1 - exp(-sigma_t[material * G + gi] *
    /// length)` for each of the store's keys, lane-padded like the staged
    /// slab of [`TrackBufs`] (`gp = padded_groups(G)`, zero padding lanes).
    table: Vec<f64>,
}

impl SegmentSource {
    /// Pure OTF.
    pub fn otf() -> Self {
        Self { store: None, table: Vec::new() }
    }

    /// The segment source a storage mode asks for, with the residency plan
    /// in manager mode (tracks ranked by segment count, the paper's
    /// choice).
    pub fn new(problem: &Problem, mode: StorageMode) -> (Self, Option<ResidencyPlan>) {
        match mode {
            StorageMode::Otf => (Self::otf(), None),
            StorageMode::Explicit => {
                let all: Vec<Track3dId> = problem.layout.tracks3d.ids().collect();
                (Self::stored(problem, &all), None)
            }
            StorageMode::Manager { budget_bytes } => {
                let (src, plan) = Self::managed(problem, budget_bytes, RankPolicy::BySegments);
                (src, Some(plan))
            }
        }
    }

    /// Explicit storage for the tracks `policy` ranks first, as many as
    /// fit `budget_bytes` together with their attenuation table
    /// ([`crate::manager::select_resident`]).
    pub fn managed(
        problem: &Problem,
        budget_bytes: u64,
        policy: RankPolicy,
    ) -> (Self, ResidencyPlan) {
        select_and_store(problem, budget_bytes, policy)
    }

    /// Explicit storage for the given tracks (all tracks = EXP mode) and
    /// its attenuation table: each key's span is the `sig * (len as f64)`
    /// products the staged kernel would form for a segment of that key,
    /// through the same slab evaluator, so a span read from the table
    /// carries the bits staging would compute.
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
        let g = problem.num_groups();
        let gp = padded_groups(g);
        let mut table = vec![0.0f64; store.keys().len() * gp];
        for (key, span) in store.keys().iter().zip(table.chunks_exact_mut(gp)) {
            let mat = key.material as usize * g;
            let lenf = key.length as f64;
            for (e, sig) in span[..g].iter_mut().zip(&problem.xs.sigma_t[mat..mat + g]) {
                *e = sig * lenf;
            }
        }
        one_minus_exp_slab(&mut table);
        Self { store: Some(store), table }
    }

    /// Bytes held by the explicit store and its attenuation table.
    pub fn stored_bytes(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.bytes()) + self.table_bytes()
    }

    /// Bytes of the attenuation table alone.
    pub(crate) fn table_bytes(&self) -> u64 {
        (self.table.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Number of tracks with stored segments.
    pub fn num_resident(&self) -> usize {
        self.store.as_ref().map(|s| s.num_tracks()).unwrap_or(0)
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
    fn load_incoming(&self, track: u32, dir: usize, psi: &mut [f64]) {
        let b = self.base(track, dir);
        for (g, p) in psi.iter_mut().enumerate().take(self.groups) {
            *p = f32::from_bits(self.incoming[b + g].load(Ordering::Relaxed)) as f64;
        }
    }

    /// Deposits an outgoing flux into the next iteration's incoming slot.
    #[inline]
    fn store_outgoing(&self, track: u32, dir: usize, psi: &[f64]) {
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

    /// Records the boundary-exiting flux of a traversal (read back by the
    /// rank exchange).
    #[inline]
    fn store_boundary(&self, track: u32, dir: usize, psi: &[f64]) {
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

    /// [`FluxBanks::swap`] and the per-iteration source normalisation in
    /// one pass over the banks: the new incoming bank is the old outgoing
    /// one scaled by `factor`, the new outgoing bank is cleared, and the
    /// boundary bank is scaled in place, each slot as `(x as f64 *
    /// factor) as f32`.
    pub fn swap_scaled(&mut self, factor: f64) {
        std::mem::swap(&mut self.incoming, &mut self.outgoing);
        let scale = |v: &mut AtomicU32| {
            let x = v.get_mut();
            *x = ((f32::from_bits(*x) as f64 * factor) as f32).to_bits();
        };
        let banks = self.incoming.iter_mut().zip(&mut self.outgoing).zip(&mut self.boundary);
        for ((inc, out), bnd) in banks {
            scale(inc);
            *out.get_mut() = 0;
            scale(bnd);
        }
    }

    /// Snapshots all three banks in their current orientation as raw f32
    /// values: `(incoming, outgoing, boundary)`.
    #[cfg(test)]
    pub fn export_state(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let dump = |bank: &[AtomicU32]| -> Vec<f32> {
            bank.iter().map(|v| f32::from_bits(v.load(Ordering::Relaxed))).collect()
        };
        (dump(&self.incoming), dump(&self.outgoing), dump(&self.boundary))
    }

    /// Restores a snapshot taken by [`FluxBanks::export_state`]. Lengths
    /// must match the bank layout this instance was built with.
    #[cfg(test)]
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
/// burned. The arena sweep sums them per track, into its own
/// `sweep.cas_retries` total and a histogram of per-track retry *bursts*
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

/// Per-worker working storage of [`sweep_track`] for a track that does
/// not read its attenuation spans from the store's table: its segments
/// (regenerated on the fly, or rebuilt from the store's keys for the
/// reference kernels), their lengths, and the vector kernel's staged
/// spans. The allocations are reused across tracks and sweeps.
#[derive(Debug, Default)]
pub(crate) struct TrackBufs {
    /// Segments in forward traversal order; each `key` is the segment's
    /// own position, i.e. its span in `e`.
    segs: Vec<Segment3dCompact>,
    /// The f32 length of each segment of `segs`.
    lens: Vec<f32>,
    /// `e[seg * gp + gi] = 1 - exp(-sigma_t[gi] * len)`, group-major and
    /// lane-padded (`gp = padded_groups(G)`); padding lanes (`gi >= G`)
    /// are 0, the neutral attenuation of the masked tail.
    e: Vec<f64>,
}

/// Fills `bufs.segs` and `bufs.lens` with a track's segments in forward
/// order: rebuilt from the store's keys when `stored` is the track's
/// resident slice, otherwise regenerated on the fly.
fn load_segments(
    problem: &Problem,
    stored: Option<(&[Segment3dCompact], &[SegmentKey])>,
    track: u32,
    bufs: &mut TrackBufs,
) {
    let (segs, lens) = (&mut bufs.segs, &mut bufs.lens);
    segs.clear();
    lens.clear();
    if let Some((stored, keys)) = stored {
        let own = stored.iter().enumerate();
        segs.extend(own.map(|(k, s)| Segment3dCompact { fsr3d: s.fsr3d, key: k as u32 }));
        lens.extend(stored.iter().map(|s| keys[s.key as usize].length));
        return;
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
    trace_3d(&info, base, &problem.axial, |fsr, cell, len| {
        segs.push(Segment3dCompact {
            fsr3d: fsr3d.id(fsr, cell as usize).0,
            key: segs.len() as u32,
        });
        lens.push(len as f32);
    });
}

/// Stages the attenuation spans of the segments in `bufs` into `bufs.e`:
/// one exp evaluation per (segment, group), reused by both direction
/// passes. The span buffer is sized once up front (zero-filling the
/// padding lanes in the same pass).
#[inline(always)]
fn stage_spans<const G: usize>(problem: &Problem, exp: &ExpEval<'_>, bufs: &mut TrackBufs) {
    let gp = padded_groups(G);
    let xs = &problem.xs;
    let staged = &mut bufs.e;
    staged.clear();
    staged.resize(bufs.segs.len() * gp, 0.0);
    let segs = bufs.segs.iter().zip(&bufs.lens);
    for ((s, &len), span) in segs.zip(staged.chunks_exact_mut(gp)) {
        let mat = xs.fsr_mat[s.fsr3d as usize] as usize * G;
        let lenf = len as f64;
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

/// Adds one segment's group span into a plain `f64` tally buffer in
/// ascending group order (the privatized tally delivery).
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
///   1. **Attenuation spans evaluated once.** The attenuation factors
///      depend only on the segment's material and f32 length, not the
///      direction. A resident track reads each segment's group-major span
///      from the store's attenuation table (one span per distinct pair,
///      evaluated when the store was built); any other track stages its
///      spans contiguously once and both direction passes read them back
///      — half the transcendental work. `exp` is a pure function of the
///      identical `sigma_t * len` input bits, so either span carries the
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
    with_groups!(problem.num_groups(), G => {
        sweep_track_g::<G, S>(problem, segsrc, q, banks, track, kernel, exp, bufs, sink)
    })
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
    let store = segsrc.store.as_ref();
    let resident = store.and_then(|s| s.of(Track3dId(track)));

    // `es` of a segment is `table[seg.key * gp..]`: the store's own
    // table for a resident track on the default kernel, otherwise the
    // track's staged slab, whose spans follow segment order.
    let (segs, table) = match resident {
        Some(stored) if kernel == SweepKernel::Vector && matches!(exp, ExpEval::Intrinsic) => {
            (stored, segsrc.table.as_slice())
        }
        _ => {
            load_segments(problem, resident.zip(store.map(|s| s.keys())), track, bufs);
            if kernel == SweepKernel::Vector {
                stage_spans::<G>(problem, exp, bufs);
            }
            (bufs.segs.as_slice(), bufs.e.as_slice())
        }
    };
    let lens = &bufs.lens;
    let nseg = segs.len();

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
                    let lenf = lens[si] as f64;
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
                    // One bounds check for the whole span, then
                    // fixed-offset lane loads inside it.
                    let ei = segs[si].key as usize * gp;
                    let es = &table[ei..ei + gp];
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
    tracks: u64,
    segments: u64,
    leakage: f64,
    /// Per-track wall time, recorded only when tracing is on.
    track_ns: Histogram,
    /// CAS retries this sweep's own atomic adds took.
    cas_retries: u64,
    /// Per-track CAS-retry bursts (atomic tallies only): contention is
    /// bursty (a few hot-FSR tracks), so the distribution is the signal.
    cas_burst: Histogram,
}

/// One full sweep through a [`SweepArena`] — the one dispatch every
/// backend runs: resolves the tally strategy, prepares the arena, deals
/// `schedule`'s bins to the calling thread's pool in contiguous runs and
/// sweeps each bin's tracks in order, then reduces and records telemetry.
/// Returns the outcome and the segments each bin swept (the device
/// solver's per-CU work; the CPU sweep ignores them).
///
/// * **Atomic** strategy: CAS adds into the arena's shared array.
/// * **Privatized** strategy: plain adds into the executing worker's
///   private buffer, reduced in ascending worker order afterwards — zero
///   `sweep.cas_retries`, and bitwise-deterministic results for a fixed
///   worker count and schedule, since the pool's static partition fixes
///   which worker sweeps which bin.
///
/// When the region has one worker, `swept(t)` is called as each track `t`
/// finishes: that worker sweeps every bin in order on the calling thread,
/// so every track is final the moment its body returns. Multi-worker
/// sweeps report nothing.
///
/// `sweep.cas_retries` counts the retries of this sweep's own adds, never
/// another sweep's. The clock is read per track only when tracing is on:
/// the trace slice needs those reads, and they also feed the
/// `sweep.track_ns` histogram. Untraced multi-worker sweeps still report
/// per-worker busy time from the pool's region stats.
pub(crate) fn sweep_region(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    schedule: &SweepSchedule,
    arena: &mut SweepArena,
    swept: Option<&mut dyn FnMut(u32)>,
) -> (SweepOutcome, Vec<u64>) {
    let n = problem.num_tracks();
    let num_bins = schedule.num_bins(n, rayon::current_num_threads());
    let workers = rayon::current_num_threads().clamp(1, num_bins.max(1));
    let tel = Telemetry::current();
    let _sweep_span = tel.span("transport_sweep");

    let g = problem.num_groups();
    let nf = problem.num_fsrs() * g;
    let strategy = arena.resolve(workers, problem.num_fsrs(), g);
    arena.prepare(workers, nf, strategy);

    let mut totals = rayon::WorkerLocal::new(workers, |_| WorkerTotals::default());
    let tracing = tel.trace_enabled();
    let per_bin: Vec<u64> = {
        let kernel = arena.kernel.kernel;
        let exp = arena.exp_eval();
        let track_bufs = arena.track_bufs();
        let worker_phi = arena.worker_bufs();
        let shared = matches!(strategy, SweepTallies::Atomic).then(|| arena.atomic_slots());
        let totals = &totals;
        let body: &(dyn Fn(u32) -> u64 + Sync) = &|t: u32| -> u64 {
            let t0 = tracing.then(Instant::now);
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
                    // The sink owns the slice itself, so the segment loop
                    // holds its base and length rather than a path to them.
                    let buf = buf.as_mut_slice();
                    sweep_track(
                        problem,
                        segsrc,
                        q,
                        banks,
                        t,
                        kernel,
                        &exp,
                        bufs,
                        move |qb, vals| add_span(buf, qb, vals),
                    )
                }),
            });
            totals.with(|tot| {
                tot.tracks += 1;
                tot.segments += s;
                tot.leakage += l;
                if shared.is_some() {
                    tot.cas_retries += burst as u64;
                    tot.cas_burst.record(burst as u64);
                }
                if let Some(t0) = t0 {
                    tot.track_ns.record(t0.elapsed().as_nanos() as u64);
                    tel.trace_complete_since(
                        "track",
                        t0,
                        &[("track", Json::Uint(t as u64)), ("segments", Json::Uint(s))],
                    );
                }
            });
            s
        };
        let bin = |b| schedule.bin(b, n, num_bins);
        match swept {
            Some(swept) if workers == 1 => (0..num_bins)
                .map(|b| {
                    bin(b)
                        .map(|t| {
                            let s = body(t);
                            swept(t);
                            s
                        })
                        .sum()
                })
                .collect(),
            _ => (0..num_bins).into_par_iter().map(|b| bin(b).map(body).sum()).collect(),
        }
    };

    // Fixed worker-order reductions: the per-worker (segments, leakage,
    // retries) totals, then the tallies.
    let (mut segments, mut leakage, mut retries) = (0u64, 0.0f64, 0u64);
    for tot in totals.iter_mut() {
        segments += tot.segments;
        leakage += tot.leakage;
        retries += tot.cas_retries;
        tel.histogram_merge("sweep.track_ns", &tot.track_ns);
        tel.histogram_merge("sweep.cas_burst", &tot.cas_burst);
    }
    let phi = match strategy {
        SweepTallies::Atomic => {
            let mut phi = arena.take_phi(nf);
            for (acc, slot) in phi.iter_mut().zip(arena.atomic_slots()) {
                *acc = f64::from_bits(slot.load(Ordering::Relaxed));
            }
            phi
        }
        SweepTallies::Privatized { workers: w } => arena.take_privatized(nf, w),
    };

    // Taken unconditionally so no earlier region's stats outlive it; a
    // one-worker dispatch leaves none of its own.
    if let Some(mut stats) = rayon::take_last_region_stats().filter(|_| workers > 1) {
        // The pool counted bins; report each worker's tracks.
        stats.items = totals.iter_mut().map(|tot| tot.tracks).collect();
        record_scheduler_stats(&tel, &stats);
    }

    // What every backend's sweep reports: segment/track/retry counters,
    // the tally footprint and roofline gauges, and the `sweep_kernel`
    // section.
    let (config, n) = (&arena.kernel, problem.num_tracks() as u64);
    tel.counter_add("sweep.segments", segments);
    tel.counter_add("sweep.tracks", n);
    // A zero delta still creates the key: the quiet counter is the point.
    tel.counter_add("sweep.cas_retries", retries);
    if tracing {
        tel.trace_instant(
            "sweep.summary",
            &[
                ("tracks", Json::Uint(n)),
                ("segments", Json::Uint(segments)),
                ("cas_retries", Json::Uint(retries)),
            ],
        );
    }
    tel.gauge_set("sweep.tally_bytes", strategy.bytes(nf) as f64);
    // Roofline numerator: modelled memory traffic per segment traversal
    // (the staged vector kernel trades extra span bytes for half the
    // transcendental work — see `antmoc_perfmodel::sweep_bytes_per_segment`),
    // mixed by the share of segments that read the store's table instead.
    let vector = config.kernel == SweepKernel::Vector;
    let direct = vector && matches!(config.exp, ExpMode::Intrinsic);
    let resident = segsrc.store.as_ref().filter(|_| direct).map_or(0, |s| s.num_segments());
    let share = resident as f64 / problem.num_3d_segments().max(1) as f64;
    let bytes = share * antmoc_perfmodel::sweep_bytes_per_resident_segment(g)
        + (1.0 - share) * antmoc_perfmodel::sweep_bytes_per_segment(g, vector);
    tel.gauge_set("sweep.bytes_per_segment", bytes);
    tel.set_section(
        "sweep_kernel",
        Json::Obj(vec![
            ("tally_mode".into(), Json::Str(strategy.name().into())),
            ("exp_mode".into(), Json::Str(config.exp.name().into())),
            ("workers".into(), Json::Uint(workers as u64)),
            ("kernel".into(), Json::Str(config.kernel.name().into())),
            ("lanes".into(), Json::Uint(config.kernel.lanes() as u64)),
            ("block_kb".into(), Json::Uint(crate::tally::block_bytes() >> 10)),
        ]),
    );

    (SweepOutcome { phi_acc: phi, leakage, segments }, per_bin)
}

/// A full transport sweep on the rayon pool, dealing `schedule`'s bins
/// to the workers ([`sweep_region`]). The tally strategy, kernel and exp
/// evaluator come from the arena's [`crate::tally::KernelConfig`], and
/// every large allocation (flux accumulator, per-worker tally buffers,
/// track scratch, exp table) is reused across calls. Privatized tallies
/// repeat bit for bit for a fixed worker count and schedule.
pub fn transport_sweep_with(
    problem: &Problem,
    segsrc: &SegmentSource,
    q: &[f64],
    banks: &FluxBanks,
    schedule: &SweepSchedule,
    arena: &mut SweepArena,
) -> SweepOutcome {
    sweep_region(problem, segsrc, q, banks, schedule, arena, None).0
}

/// Records one sweep's scheduler stats: the max/mean worker load ratio
/// (gauge, high-water retained across sweeps), the busy-time gauges, and
/// a `sweep_workers` section with the last sweep's per-worker busy time
/// and item counts. Single-worker regions record **nothing** — a serial
/// pool has nothing to balance, and zeroed keys would read as a perfectly
/// level schedule instead of an unmeasured one.
fn record_scheduler_stats(tel: &Telemetry, stats: &rayon::RegionStats) {
    if stats.workers <= 1 {
        return;
    }
    let mean = stats.busy_s.iter().sum::<f64>() / stats.workers as f64;
    let max = stats.busy_s.iter().cloned().fold(0.0f64, f64::max);
    tel.gauge_set("sweep.load_ratio", stats.load_ratio());
    tel.gauge_set("sweep.worker_busy_max_s", max);
    tel.gauge_set("sweep.worker_busy_mean_s", mean);
    tel.set_section(
        "sweep_workers",
        Json::Obj(vec![
            ("workers".into(), Json::Uint(stats.workers as u64)),
            ("busy_s".into(), Json::Arr(stats.busy_s.iter().map(|&b| Json::Num(b)).collect())),
            ("items".into(), Json::Arr(stats.items.iter().map(|&i| Json::Uint(i)).collect())),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use crate::tally::KernelConfig;
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
    ) -> (Vec<f64>, Vec<(Segment3dCompact, f32)>) {
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
        (phi, bufs.segs.into_iter().zip(bufs.lens).collect())
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
        // Slot (track 2, dir 1) starts at (2 * 2 + 1) * 7.
        assert_eq!(banks.export_state().1[35 + 6], 7.0);
        banks.swap();
        let mut got = [0.0f64; 7];
        banks.load_incoming(2, 1, &mut got);
        assert_eq!(got, psi);
        // Outgoing cleared after swap.
        assert!(banks.export_state().1.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn flux_banks_swap_scaled_scales_three_banks() {
        let mut banks = FluxBanks::new(1, 2);
        banks.set_incoming(0, 0, &[2.0, 4.0]);
        banks.store_outgoing(0, 0, &[8.0, 16.0]);
        banks.store_boundary(0, 1, &[32.0, 64.0]);
        banks.swap_scaled(0.5);
        // The scaled outgoing bank is the new incoming one; the old
        // incoming values are gone with the cleared outgoing bank.
        let (inc, out, bnd) = banks.export_state();
        assert_eq!(inc, [4.0, 8.0, 0.0, 0.0]);
        assert_eq!(out, [0.0; 4]);
        assert_eq!(bnd, [0.0, 0.0, 16.0, 32.0]);
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
        // Both paths round lengths to f32 and evaluate the same taus, so
        // the table spans carry the staged bits.
        for (x, y) in a.phi_acc.iter().zip(&b.phi_acc) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
        assert_eq!(a.leakage.to_bits(), b.leakage.to_bits());
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
            for (s, len) in &segs {
                let mat = p.xs.fsr_mat[s.fsr3d as usize] as usize * g;
                for gi in 0..g {
                    tau[gi] += p.xs.sigma_t[mat + gi] * *len as f64;
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
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
        assert_eq!(mixed.leakage.to_bits(), pure.leakage.to_bits());
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
        // A serial pool has nothing to balance; recording zeros would
        // fake a perfectly level schedule. The keys must be absent.
        let tel = Telemetry::new();
        let stats = rayon::RegionStats { workers: 1, busy_s: vec![0.5], items: vec![100] };
        record_scheduler_stats(&tel, &stats);
        let r = tel.report();
        assert!(!r.gauges.contains_key("sweep.load_ratio"));
        assert!(!r.gauges.contains_key("sweep.worker_busy_max_s"));
        assert!(!r.gauges.contains_key("sweep.worker_busy_mean_s"));
        assert!(!r.sections.contains_key("sweep_workers"));
    }

    #[test]
    fn multi_worker_region_records_scheduler_keys() {
        let tel = Telemetry::new();
        let stats = rayon::RegionStats { workers: 2, busy_s: vec![0.3, 0.1], items: vec![60, 40] };
        record_scheduler_stats(&tel, &stats);
        let r = tel.report();
        assert!((r.gauges["sweep.load_ratio"].last - 1.5).abs() < 1e-12);
        assert!((r.gauges["sweep.worker_busy_max_s"].last - 0.3).abs() < 1e-12);
        assert!((r.gauges["sweep.worker_busy_mean_s"].last - 0.2).abs() < 1e-12);
        assert!(r.sections.contains_key("sweep_workers"));
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
        let tel_run = |kernel: SweepKernel, segsrc: &SegmentSource| {
            let mut arena = SweepArena::new(KernelConfig {
                tallies: TallyMode::Privatized,
                kernel,
                ..Default::default()
            });
            let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
            let _ =
                transport_sweep_with(&p, segsrc, &q, &banks, &SweepSchedule::natural(), &mut arena);
            Telemetry::global().report()
        };
        let r = tel_run(SweepKernel::Vector, &segsrc);
        let bps = r.gauges["sweep.bytes_per_segment"].last;
        assert_eq!(bps, antmoc_perfmodel::sweep_bytes_per_segment(p.num_groups(), true));
        let sec = format!("{:?}", r.sections["sweep_kernel"]);
        assert!(sec.contains("vector") && sec.contains("lanes"), "section {sec}");
        assert!(sec.contains("block_kb"), "section {sec}");
        let r = tel_run(SweepKernel::Scalar, &segsrc);
        assert_eq!(
            r.gauges["sweep.bytes_per_segment"].last,
            antmoc_perfmodel::sweep_bytes_per_segment(p.num_groups(), false)
        );
        // An all-resident vector sweep reads every span from the table.
        let all: Vec<Track3dId> = p.layout.tracks3d.ids().collect();
        let r = tel_run(SweepKernel::Vector, &SegmentSource::stored(&p, &all));
        assert_eq!(
            r.gauges["sweep.bytes_per_segment"].last,
            antmoc_perfmodel::sweep_bytes_per_resident_segment(p.num_groups())
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
        // observation, not an absence. Sibling tests share the global
        // registry, but a privatized sweep adds only its own retries: none.
        assert_eq!(r.counters.get("sweep.cas_retries"), Some(&0));
        assert!(r.gauges.contains_key("sweep.tally_bytes"));
        let sec = &r.sections["sweep_kernel"];
        let rendered = format!("{sec:?}");
        assert!(rendered.contains("privatized"), "section {rendered}");
        assert!(rendered.contains("intrinsic"), "section {rendered}");
    }

    #[test]
    fn cas_retries_count_only_the_sweeps_own_adds() {
        // A privatized sweep overlapping contended atomic adds elsewhere
        // in the process reports none of their retries.
        use crate::tally::TallyMode;
        use std::sync::atomic::AtomicBool;
        let p = vac_problem();
        let segsrc = SegmentSource::otf();
        let q = vec![0.5f64; p.num_fsrs() * p.num_groups()];
        let (slot, retried, done) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
        let start = std::sync::Barrier::new(3);
        let tel = Telemetry::new();
        let mut sweeps = 0u64;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Relaxed) {
                        let r = atomic_add_f64_counted(&slot, 1.0);
                        retried.fetch_add(r as u64, Ordering::Relaxed);
                    }
                });
            }
            start.wait();
            let _scope = tel.install();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            // Keep sweeping until the other adds have contended at least once.
            while sweeps < 3 || (retried.load(Ordering::Relaxed) == 0 && sweeps < 200) {
                let tallies = TallyMode::Privatized;
                let mut arena = SweepArena::new(KernelConfig { tallies, ..Default::default() });
                let banks = FluxBanks::new(p.num_tracks(), p.num_groups());
                let sched = SweepSchedule::natural();
                pool.install(|| transport_sweep_with(&p, &segsrc, &q, &banks, &sched, &mut arena));
                sweeps += 1;
            }
            done.store(true, Ordering::Relaxed);
        });
        let r = tel.report();
        assert_eq!(r.counter("sweep.tracks"), sweeps * p.num_tracks() as u64);
        assert_eq!(r.counters.get("sweep.cas_retries"), Some(&0));
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
