//! Log-bucketed latency/size histograms with mergeable per-worker shards.
//!
//! The paper's load-mapping claims (§5.4) rest on *distributions* — per-CU
//! segment load, per-rank traffic — not totals, and regression triage needs
//! tail percentiles (p99 track latency, receive-wait spikes), which span
//! min/max cannot show. [`Histogram`] is an HDR-style fixed-footprint
//! histogram over `u64` values (nanoseconds, bytes, retry counts):
//!
//! * values below 16 get exact unit buckets;
//! * larger values land in one of 16 linear sub-buckets per power-of-two
//!   octave, bounding relative bucket error at ~6.25% across the full
//!   `u64` range;
//! * recording is a single array increment — no allocation, no locking —
//!   so each worker can own a private shard on the sweep hot path and
//!   [`Histogram::merge`] them after the region, losslessly: merging N
//!   shards yields bit-identical counts (and therefore percentiles) to
//!   recording the same values serially.
//!
//! Reports carry only the [`HistogramSummary`] quantiles; the full bucket
//! array never leaves the process.

/// Exact unit buckets below this value; also the sub-buckets per octave.
const SUB: usize = 16;
/// log2(SUB): values >= SUB keep this many significant bits.
const SUB_BITS: usize = 4;
/// 16 exact low buckets + 16 sub-buckets for each octave 2^4..2^63.
const NUM_BUCKETS: usize = SUB + (64 - SUB_BITS) * SUB;

/// Bucket index for a value (total order preserved across buckets).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // SUB_BITS..=63
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        SUB + (exp - SUB_BITS) * SUB + sub
    }
}

/// The largest value that maps to bucket `i` (used as the reported
/// quantile value, so percentiles are conservative upper bounds).
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let exp = SUB_BITS + (i - SUB) / SUB;
        let sub = ((i - SUB) % SUB) as u64;
        let low = (1u64 << exp).saturating_add(sub << (exp - SUB_BITS));
        low.saturating_add((1u64 << (exp - SUB_BITS)) - 1)
    }
}

/// A fixed-footprint log-bucketed histogram over `u64` samples.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self { counts: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample. O(1), allocation-free.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram (e.g. a per-worker shard) into this one.
    /// Merging shards is exact: bucket counts add, so every percentile of
    /// the merge equals the percentile of serial recording.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at the given percentile (`0.0..=100.0`): the upper edge of
    /// the bucket holding the target rank, clamped to the recorded
    /// min/max so p0/p100 are exact. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil() as u64;
        let target = target.clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Saturating sum of all recorded samples (the Prometheus `_sum`
    /// series of the exposition).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Iterates the non-empty buckets as `(upper_edge, count)` pairs in
    /// ascending value order — the exact bucket contents, for cumulative
    /// (`le=`) exposition renderings and bit-exact merge checks.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_high(i), c))
    }

    /// Snapshot of the quantiles that land in the run report.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            max: self.max(),
        }
    }
}

/// The serializable quantile snapshot of one histogram (see the
/// `histograms` section of the run-report schema in `report.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_preserve_order_and_cover_u64() {
        let mut prev = 0;
        for &v in &[0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev, "bucket order broken at {v}");
            assert!(bucket_high(i) >= v, "upper edge below value at {v}");
            prev = i;
        }
        assert_eq!(bucket_high(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        // Any value's bucket upper edge overshoots by < 2^-SUB_BITS.
        for &v in &[16u64, 100, 12345, 1 << 30, (1 << 40) + 7] {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v);
            let rel = (high - v) as f64 / v as f64;
            assert!(rel < 1.0 / SUB as f64, "error too large at {v}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        let snapshot = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, snapshot);
    }

    /// The satellite property: merging N per-worker shards must equal
    /// recording the same samples serially — bucket counts and every
    /// percentile — across worker counts {1, 2, 8}.
    fn shards_equal_serial(values: &[u64], workers: usize) {
        let mut serial = Histogram::new();
        for &v in values {
            serial.record(v);
        }
        let mut shards = vec![Histogram::new(); workers];
        for (i, &v) in values.iter().enumerate() {
            shards[i % workers].record(v);
        }
        let mut merged = Histogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, serial, "merge != serial for {workers} workers");
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(merged.percentile(p), serial.percentile(p), "p{p} mismatch");
        }
        assert_eq!(merged.summary(), serial.summary());
    }

    proptest::proptest! {
        #[test]
        fn merged_shards_match_serial_recording(
            values in proptest::collection::vec(0u64..u64::MAX, 1..200)
        ) {
            for workers in [1usize, 2, 8] {
                shards_equal_serial(&values, workers);
            }
        }

        #[test]
        fn percentiles_are_monotone_and_bracketed(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..100)
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut prev = 0;
            for p in [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let q = h.percentile(p);
                proptest::prop_assert!(q >= prev, "percentiles must be monotone");
                proptest::prop_assert!(q >= h.min() && q <= h.max());
                prev = q;
            }
        }
    }
}
