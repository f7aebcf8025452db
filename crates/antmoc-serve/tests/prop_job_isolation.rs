//! Properties of job-scoped telemetry.
//!
//! 1. **Isolation** — two *concurrent* jobs of different cases never
//!    bleed counters, histograms, or iteration rows into each other:
//!    each job's sink report is bitwise identical (modulo the digest's
//!    wall-clock exclusions) to a one-shot run of the same case recorded
//!    into its own sink, and the two reports are distinct from each
//!    other.
//! 2. **Exact aggregation** — the service aggregate equals the exact sum
//!    over the job sinks, counter by counter and histogram sample count
//!    by sample count; and [`Telemetry::merge_into`] is **bit-exact** for
//!    histograms: the merged buckets equal those of recording every
//!    sample serially into one sink.

use antmoc::RunConfig;
use antmoc_serve::{ServeConfig, SolveRequest, SolveService};
use antmoc_telemetry::Telemetry;
use proptest::prelude::*;

fn ini(radial_spacing: f64) -> String {
    format!(
        "[model]\naxial_dz = 64.26\n\
         [tracks]\nnum_azim = 4\nradial_spacing = {radial_spacing}\nnum_polar = 2\n\
         axial_spacing = 60.0\n\
         [solver]\ntolerance = 1e-3\nmax_iterations = 40\nmode = otf\nbackend = cpu\n"
    )
}

/// A one-shot run recorded into a scoped sink of its own.
fn one_shot_sink(config: &RunConfig) -> antmoc_telemetry::RunReport {
    let sink = Telemetry::new();
    let guard = sink.install();
    let _ = antmoc::run(config);
    drop(guard);
    sink.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn concurrent_jobs_never_bleed_and_the_registry_sums_the_sinks(
        da in 0u32..5,
        db in 0u32..5,
    ) {
        prop_assume!(da != db);
        let text_a = ini(2.2 + 0.08 * da as f64);
        let text_b = ini(2.2 + 0.08 * db as f64);
        let serial_a = one_shot_sink(&RunConfig::parse(&text_a).unwrap());
        let serial_b = one_shot_sink(&RunConfig::parse(&text_b).unwrap());

        // Both jobs in flight at once on a 2-worker service.
        let service = SolveService::new(ServeConfig { workers: 2, ..Default::default() });
        let ha = service.submit(SolveRequest::Config(Box::new(RunConfig::parse(&text_a).unwrap()))).unwrap();
        let hb = service.submit(SolveRequest::Config(Box::new(RunConfig::parse(&text_b).unwrap()))).unwrap();
        let ra = ha.wait();
        let rb = hb.wait();
        prop_assert!(ra.outcome.is_ok(), "job A failed");
        prop_assert!(rb.outcome.is_ok(), "job B failed");

        // Isolation: each concurrent job matches its serial twin ...
        prop_assert_eq!(
            ra.telemetry.deterministic_digest(),
            serial_a.deterministic_digest(),
            "job A's sink diverged from its one-shot twin"
        );
        prop_assert_eq!(
            rb.telemetry.deterministic_digest(),
            serial_b.deterministic_digest(),
            "job B's sink diverged from its one-shot twin"
        );
        // ... and the two distinct cases stay distinct (shared sinks
        // would have collapsed them into one merged story).
        prop_assert!(
            ra.telemetry.deterministic_digest() != rb.telemetry.deterministic_digest(),
            "distinct cases produced identical telemetry"
        );

        // Exact aggregation: every counter and histogram in the aggregate
        // equals the sum over the two sinks.
        let mut counter_sums = std::collections::BTreeMap::<&str, u64>::new();
        let mut hist_counts = std::collections::BTreeMap::<&str, u64>::new();
        for rep in [&ra.telemetry, &rb.telemetry] {
            for (k, v) in &rep.counters {
                *counter_sums.entry(k).or_default() += v;
            }
            for (k, h) in &rep.histograms {
                *hist_counts.entry(k).or_default() += h.count;
            }
        }
        let aggregate = service.metrics().report();
        for (k, v) in &counter_sums {
            prop_assert_eq!(aggregate.counter(k), *v, "counter {} drifted", k);
        }
        for (k, c) in &hist_counts {
            let got = aggregate.histograms.get(*k).map_or(0, |h| h.count);
            prop_assert_eq!(got, *c, "histogram {} drifted", k);
        }
        service.shutdown();
    }

    // Merging N sinks into an aggregate leaves histograms identical to
    // having recorded every sample serially — bucket for bucket.
    #[test]
    fn registry_histogram_merges_are_bit_exact(
        a in proptest::collection::vec(0u64..(1u64 << 48), 1..64),
        b in proptest::collection::vec(0u64..(1u64 << 48), 1..64),
    ) {
        let ta = Telemetry::new();
        for &v in &a {
            ta.histogram_record("isolation.test_h", v);
        }
        let tb = Telemetry::new();
        for &v in &b {
            tb.histogram_record("isolation.test_h", v);
        }
        let merged = Telemetry::new();
        ta.merge_into(&merged);
        tb.merge_into(&merged);

        let serial = Telemetry::new();
        for &v in a.iter().chain(b.iter()) {
            serial.histogram_record("isolation.test_h", v);
        }
        // The `_bucket` lines carry every bucket's cumulative count;
        // `_sum` and `_count` follow them.
        let (merged, serial) = (merged.render_text(), serial.render_text());
        let series = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.starts_with("isolation_test_h_")).map(String::from).collect()
        };
        let has_buckets = series(&merged).iter().any(|l| l.contains("_bucket{le="));
        prop_assert!(has_buckets, "no bucket series rendered");
        prop_assert_eq!(series(&merged), series(&serial), "merged buckets differ from serial recording");
    }
}
