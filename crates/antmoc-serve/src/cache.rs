//! Content-addressed caching of solve setups.
//!
//! The expensive, immutable half of a run — geometry construction, track
//! laydown + segmentation — depends only on a handful of configuration
//! fields. This module derives a **stable content hash** over exactly
//! those fields (the cache key) and memoizes the resulting
//! [`SolveSetup`] behind an `Arc`, so a warm job skips straight to the
//! sweep while cold builds of the same key are single-flighted (waiters
//! block until the in-progress build publishes instead of building
//! twice).
//!
//! ## Key derivation
//!
//! The key is FNV-1a 64 over a canonical string with one fragment per
//! setup-relevant field:
//!
//! * **model** — the full geometry specification: C5G7 options with
//!   float fields as exact bit patterns, or the declarative case's
//!   canonical [`CaseSpec::emit`] rendering (geometry sections only, via
//!   the emitted text);
//! * **tracks** — [`TrackParams::cache_key_fragment`] (quadrature +
//!   spacings, bit-exact floats);
//! * **mode** — the segment storage mode, including the manager budget;
//! * **backend** — the backend *class* (the device backend skips the
//!   shared segment store, so its setup differs from the CPU one;
//!   `cpu-serial` builds the CPU setup under its own class).
//!
//! Everything else (eigen tolerances, iteration caps, schedules, the
//! kernel config, telemetry settings) is per-job solver state and must
//! NOT enter the key: two requests differing only there share a setup.
//! An `ExpMode::Table` job's table lives in its arena, not in the setup.
//!
//! The hash is hand-rolled because `std::collections::hash_map::
//! DefaultHasher` is explicitly not stable across releases or processes,
//! and a key should not drift under a toolchain bump.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use antmoc::pipeline::SolveSetup;
use antmoc::{BackendConfig, ModelSpec, RunConfig};

/// FNV-1a 64-bit: tiny, dependency-free, and stable by definition.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical key string a configuration's setup is addressed by.
/// Exposed (rather than just the hash) so tests and operators can see
/// *why* two configurations do or do not share a setup.
pub fn cache_key_string(config: &RunConfig) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    match &config.model {
        ModelSpec::C5g7(o) => {
            let _ = write!(
                s,
                "model=c5g7/{:?}/rings={},sectors={},refine={},dz={:016x};",
                o.config,
                o.fuel_rings,
                o.sectors,
                o.reflector_refine,
                o.axial_dz.to_bits()
            );
        }
        ModelSpec::Lattice(spec) => {
            // `emit` is the spec's canonical rendering: parse(emit(s))
            // round-trips, so it is exactly the content identity of the
            // declarative geometry — once the non-setup parts are
            // stripped. The passthrough sections (tracks, solver,
            // decomposition, telemetry) are per-job config already mirrored into
            // `RunConfig` and keyed there; the case name and acceptance
            // gates never reach the built model at all.
            let mut geometry_only = (**spec).clone();
            geometry_only.name = String::new();
            geometry_only.gates = Default::default();
            geometry_only.raw.clear();
            let _ = write!(s, "model=case/{};", geometry_only.emit());
        }
    }
    let _ = write!(s, "tracks={};", config.tracks.cache_key_fragment());
    let _ = write!(s, "mode={:?};", config.mode);
    let backend = match &config.backend {
        BackendConfig::Cpu => "cpu",
        BackendConfig::CpuSerial => "cpu-serial",
        BackendConfig::Device { .. } => "device",
    };
    let _ = write!(s, "backend={backend};");
    s
}

/// The 64-bit content hash addressing a configuration's setup.
pub fn cache_key(config: &RunConfig) -> u64 {
    fnv1a_64(cache_key_string(config).as_bytes())
}

enum Slot {
    Ready(Arc<SolveSetup>),
    /// A build is in flight on some worker; waiters sleep on the cache
    /// condvar until it publishes (or fails and clears the marker).
    Building,
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Ready keys in publish order, oldest first (FIFO eviction).
    order: Vec<u64>,
}

/// The shared setup cache: single-flight builds, FIFO eviction beyond
/// `capacity` entries (evicted setups stay alive for jobs still holding
/// their `Arc`).
pub struct SetupCache {
    capacity: usize,
    inner: Mutex<CacheState>,
    cv: Condvar,
}

/// Clears an abandoned `Building` marker if the build panics, so waiting
/// jobs retry the build instead of sleeping forever.
struct BuildGuard<'a> {
    cache: &'a SetupCache,
    key: u64,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut st = self.cache.inner.lock().unwrap();
        if matches!(st.slots.get(&self.key), Some(Slot::Building)) {
            st.slots.remove(&self.key);
        }
        drop(st);
        self.cache.cv.notify_all();
    }
}

impl SetupCache {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheState { slots: HashMap::new(), order: Vec::new() }),
            cv: Condvar::new(),
        }
    }

    /// Returns the setup for `key`, building it with `build` on a miss.
    /// The bool is `true` for a hit — including jobs that waited out
    /// another worker's in-flight build of the same key (they reused the
    /// work, which is what the hit/miss telemetry is about).
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> SolveSetup,
    ) -> (Arc<SolveSetup>, bool) {
        if self.capacity == 0 {
            return (Arc::new(build()), false);
        }
        let mut st = self.inner.lock().unwrap();
        loop {
            match st.slots.get(&key) {
                Some(Slot::Ready(setup)) => return (setup.clone(), true),
                Some(Slot::Building) => st = self.cv.wait(st).unwrap(),
                None => break,
            }
        }
        st.slots.insert(key, Slot::Building);
        drop(st);

        let mut guard = BuildGuard { cache: self, key, armed: true };
        let setup = Arc::new(build());
        guard.armed = false;

        let mut st = self.inner.lock().unwrap();
        st.slots.insert(key, Slot::Ready(setup.clone()));
        st.order.push(key);
        while st.order.len() > self.capacity {
            let oldest = st.order.remove(0);
            st.slots.remove(&oldest);
        }
        drop(st);
        self.cv.notify_all();
        (setup, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_ignores_per_job_solver_state() {
        let a = RunConfig::default();
        let mut b = RunConfig::default();
        b.eigen.tolerance = 1e-9;
        b.eigen.max_iterations = 7;
        b.kernel.tallies = antmoc_solver::TallyMode::Atomic;
        b.balance_sweeps = 3;
        // The exp evaluator and its table tolerance are per-job too: the
        // arena builds a table job's table.
        b.kernel.exp = antmoc_solver::ExpMode::Table;
        b.kernel.exp_tolerance = 1e-9;
        assert_eq!(cache_key(&a), cache_key(&b), "solver knobs must not enter the key");
    }

    #[test]
    fn key_tracks_every_setup_relevant_field() {
        let base = RunConfig::default();
        type Mutation = fn(&mut RunConfig);
        let mutations: [(&str, Mutation); 6] = [
            ("num_azim", |c| c.tracks.num_azim = 8),
            ("radial_spacing", |c| c.tracks.radial_spacing += 1e-12),
            ("axial_dz", |c| c.model.c5g7_mut().axial_dz *= 1.0 + 1e-14),
            ("rodded", |c| c.model.c5g7_mut().config = antmoc::geom::c5g7::RoddedConfig::RoddedA),
            ("mode", |c| c.mode = antmoc_solver::StorageMode::Explicit),
            ("backend", |c| c.backend = BackendConfig::CpuSerial),
        ];
        for (name, m) in &mutations {
            let mut cfg = base.clone();
            m(&mut cfg);
            assert_ne!(cache_key(&cfg), cache_key(&base), "{name} must change the key");
        }
    }

    /// A configuration coarse enough to build instantly.
    fn coarse() -> RunConfig {
        let mut c = RunConfig::default();
        c.model.c5g7_mut().axial_dz = 64.26;
        c.tracks =
            antmoc_track::TrackParams { num_azim: 4, radial_spacing: 5.0, ..Default::default() };
        c.tracks.axial_spacing = 60.0;
        c
    }

    #[test]
    fn cache_hits_and_evicts_fifo() {
        let cache = SetupCache::new(2);
        let cfg = coarse();
        let (_s1, hit1) = cache.get_or_build(1, || antmoc::build_setup(&cfg));
        assert!(!hit1);
        let (_s2, hit2) = cache.get_or_build(1, || panic!("must not rebuild on a hit"));
        assert!(hit2);
        let (_s3, _) = cache.get_or_build(2, || antmoc::build_setup(&cfg));
        let (_s4, _) = cache.get_or_build(3, || antmoc::build_setup(&cfg));
        // FIFO eviction holds the cache at capacity: key 3 is resident,
        // key 1 (oldest) was evicted and a re-request rebuilds.
        let (_s5, hit3) = cache.get_or_build(3, || panic!("key 3 must be resident"));
        assert!(hit3);
        let (_s6, hit1) = cache.get_or_build(1, || antmoc::build_setup(&cfg));
        assert!(!hit1);
    }

    #[test]
    fn a_waiter_rebuilds_after_the_single_flight_build_panics() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(SetupCache::new(2));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache.get_or_build(7, || {
                    started_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                    panic!("setup build failed");
                })
            })
        };
        // The builder holds the key's `Building` marker from here on.
        started_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let cfg = coarse();
                let (_setup, hit) = cache.get_or_build(7, || antmoc::build_setup(&cfg));
                done_tx.send(hit).unwrap();
            });
        }
        // Give the second caller time to block on the marker, then let
        // the first build unwind.
        std::thread::sleep(Duration::from_millis(50));
        release_tx.send(()).unwrap();
        assert!(builder.join().is_err(), "the panicking build must unwind its caller");
        let hit = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the waiter hung on an abandoned build");
        assert!(!hit, "the waiter rebuilt the setup, so it is a miss");
        let (_setup, hit) = cache.get_or_build(7, || panic!("the rebuilt setup must be resident"));
        assert!(hit);
    }
}
