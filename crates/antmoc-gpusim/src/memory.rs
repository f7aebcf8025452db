//! Byte-accounted device memory with a hard capacity.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Error returned when an allocation would exceed device capacity — the
/// GPU-memory wall the paper's track-management strategy exists to avoid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    pub requested: u64,
    pub used: u64,
    pub capacity: u64,
    pub tag: String,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory allocating {} bytes for {:?} ({} of {} in use)",
            self.requested, self.tag, self.used, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Debug, Default)]
struct PoolState {
    capacity: u64,
    used: u64,
    peak: u64,
    /// Live bytes per allocation tag (Table 3's memory breakdown is read
    /// from here).
    tags: HashMap<String, u64>,
}

/// Shared accounting handle for a device's global memory.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    state: Arc<Mutex<PoolState>>,
}

impl MemoryPool {
    /// A pool with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self { state: Arc::new(Mutex::new(PoolState { capacity, ..Default::default() })) }
    }

    /// Reserves `bytes`, failing when the capacity would be exceeded.
    pub fn reserve(&self, tag: &str, bytes: u64) -> Result<(), OutOfMemory> {
        let mut s = self.state.lock();
        if s.used + bytes > s.capacity {
            return Err(OutOfMemory {
                requested: bytes,
                used: s.used,
                capacity: s.capacity,
                tag: tag.to_string(),
            });
        }
        s.used += bytes;
        s.peak = s.peak.max(s.used);
        *s.tags.entry(tag.to_string()).or_insert(0) += bytes;
        antmoc_telemetry::Telemetry::current().gauge_set("device.pool_used_bytes", s.used as f64);
        Ok(())
    }

    /// Releases `bytes` previously reserved under `tag`.
    pub fn release(&self, tag: &str, bytes: u64) {
        let mut s = self.state.lock();
        debug_assert!(s.used >= bytes, "release of more than reserved");
        s.used = s.used.saturating_sub(bytes);
        if let Some(t) = s.tags.get_mut(tag) {
            *t = t.saturating_sub(bytes);
        }
    }

    /// Bytes currently in use.
    pub fn used(&self) -> u64 {
        self.state.lock().used
    }

    /// High-water mark since creation.
    pub fn peak(&self) -> u64 {
        self.state.lock().peak
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.state.lock().capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        let s = self.state.lock();
        s.capacity - s.used
    }

    /// Live bytes per tag, sorted descending (the Table 3 breakdown).
    pub fn breakdown(&self) -> Vec<(String, u64)> {
        let s = self.state.lock();
        let mut v: Vec<(String, u64)> = s.tags.iter().map(|(k, &b)| (k.clone(), b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// A capacity reservation: accounts `bytes` under `tag` until dropped.
/// The host-side data structure is the storage; the device pool only
/// tracks its footprint.
#[derive(Debug)]
pub struct Reservation {
    pool: MemoryPool,
    tag: String,
    bytes: u64,
}

impl Reservation {
    /// Reserves `bytes` in the pool, failing on overflow.
    pub fn new(pool: &MemoryPool, tag: &str, bytes: u64) -> Result<Self, OutOfMemory> {
        pool.reserve(tag, bytes)?;
        Ok(Self { pool: pool.clone(), tag: tag.to_string(), bytes })
    }

    /// Accounted size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.release(&self.tag, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_round_trip() {
        let p = MemoryPool::new(100);
        p.reserve("a", 60).unwrap();
        assert_eq!(p.used(), 60);
        assert_eq!(p.available(), 40);
        p.release("a", 60);
        assert_eq!(p.used(), 0);
        assert_eq!(p.peak(), 60);
    }

    #[test]
    fn over_capacity_fails_cleanly() {
        let p = MemoryPool::new(100);
        p.reserve("a", 80).unwrap();
        let err = p.reserve("b", 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.used, 80);
        assert_eq!(err.capacity, 100);
        // Failed reservation leaves accounting untouched.
        assert_eq!(p.used(), 80);
    }

    #[test]
    fn exact_fit_succeeds() {
        let p = MemoryPool::new(100);
        p.reserve("a", 100).unwrap();
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn breakdown_tracks_tags() {
        let p = MemoryPool::new(1000);
        p.reserve("3d_segments", 500).unwrap();
        p.reserve("2d_tracks", 100).unwrap();
        p.reserve("3d_segments", 200).unwrap();
        let b = p.breakdown();
        assert_eq!(b[0], ("3d_segments".to_string(), 700));
        assert_eq!(b[1], ("2d_tracks".to_string(), 100));
    }

    proptest::proptest! {
        #[test]
        fn random_alloc_free_sequences_balance(ops in proptest::collection::vec((0u8..2, 1u64..500), 1..100)) {
            let p = MemoryPool::new(10_000);
            let mut live: Vec<Reservation> = Vec::new();
            let mut expected = 0u64;
            for (op, size) in ops {
                if op == 0 || live.is_empty() {
                    if let Ok(r) = Reservation::new(&p, "x", size) {
                        expected += size;
                        live.push(r);
                    }
                } else {
                    let r = live.pop().unwrap();
                    expected -= r.bytes();
                    drop(r);
                }
                proptest::prop_assert_eq!(p.used(), expected);
                proptest::prop_assert!(p.used() <= p.capacity());
            }
            drop(live);
            proptest::prop_assert_eq!(p.used(), 0);
        }
    }

    #[test]
    fn concurrent_reservations_never_exceed_capacity() {
        let p = MemoryPool::new(10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = p.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if p.reserve("x", 7).is_ok() {
                            p.release("x", 7);
                        }
                    }
                });
            }
        });
        assert_eq!(p.used(), 0);
        assert!(p.peak() <= 10_000);
    }
}
