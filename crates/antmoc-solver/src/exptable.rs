//! Linear-interpolated exponential tables.
//!
//! GPU MOC codes commonly replace `1 - exp(-tau)` with a table lookup —
//! the transcendental is the hottest instruction of the sweep. This
//! module provides the classic equally-spaced linear-interpolation table
//! with a rigorous worst-case error bound, plus the helper the sweep
//! kernels use. The default sweep does not use it: the in-tree evaluator
//! in [`crate::exp`] is exact to 1 ulp and, evaluated a track slab at a
//! time, faster than the lookup on CPUs (DESIGN.md, "The exp evaluator and
//! its tolerance argument").

/// Default table range. `1 - exp(-12)` is within 7e-6 of 1, well inside
/// any useful table tolerance, so saturating above this loses nothing.
pub const DEFAULT_TAU_MAX: f64 = 12.0;

/// A table of `f(tau) = 1 - exp(-tau)` on `[0, tau_max]` with equally
/// spaced nodes and linear interpolation; saturates to `f(tau_max)` above
/// the range (where the value is within the table error of 1 anyway if
/// `tau_max` is chosen ≥ ~10).
#[derive(Debug, Clone)]
pub struct ExpTable {
    values: Vec<f64>,
    inv_step: f64,
    tau_max: f64,
}

impl ExpTable {
    /// Builds a table with the given node count (>= 2).
    pub fn new(tau_max: f64, nodes: usize) -> Self {
        assert!(tau_max > 0.0 && nodes >= 2);
        let tel = antmoc_telemetry::Telemetry::current();
        let _build_span = tel.span("exptable_build");
        let step = tau_max / (nodes - 1) as f64;
        let values: Vec<f64> = (0..nodes).map(|i| -(-(i as f64) * step).exp_m1()).collect();
        tel.gauge_set("solver.exptable_bytes", (values.len() * 8) as f64);
        Self { values, inv_step: 1.0 / step, tau_max }
    }

    /// Builds a table sized so the worst-case absolute error is below
    /// `epsilon` over the whole half-line `[0, inf)`, not just the table
    /// range. For linear interpolation of a function with `|f''| <= 1`
    /// the in-range bound is `step^2 / 8`; beyond the range the table
    /// saturates, with error `exp(-tau_max)` at worst (taken at
    /// `tau = tau_max`, shrinking toward zero above it) — so `tau_max`
    /// is extended to at least `-ln(epsilon)` to keep the saturation
    /// branch inside the declared tolerance too. A 12-range table at
    /// `epsilon = 1e-7` would otherwise err by `exp(-12) ~ 6.1e-6` for
    /// every tau just past the range.
    pub fn with_tolerance(tau_max: f64, epsilon: f64) -> Self {
        let (tau_max, nodes) = Self::shape_for_tolerance(tau_max, epsilon);
        Self::new(tau_max, nodes)
    }

    /// Bytes of the table [`Self::with_tolerance`] builds, without
    /// building it (admission control charges a table job up front).
    pub fn bytes_for_tolerance(tau_max: f64, epsilon: f64) -> u64 {
        (Self::shape_for_tolerance(tau_max, epsilon).1 * 8) as u64
    }

    /// The `(tau_max, nodes)` of a table within `epsilon` everywhere.
    fn shape_for_tolerance(tau_max: f64, epsilon: f64) -> (f64, usize) {
        assert!(epsilon > 0.0);
        let tau_max = tau_max.max(-epsilon.ln());
        let step = (8.0 * epsilon).sqrt();
        (tau_max, ((tau_max / step).ceil() as usize + 1).max(2))
    }

    /// `1 - exp(-tau)` by table lookup. A NaN `tau` yields NaN, matching
    /// the intrinsic (the negated assert form deliberately lets NaN
    /// through — `!(NaN < 0)` is true — instead of tripping on it).
    #[inline]
    pub fn eval(&self, tau: f64) -> f64 {
        debug_assert!(!(tau < 0.0), "negative tau {tau}");
        if tau >= self.tau_max {
            return *self.values.last().unwrap();
        }
        let x = tau * self.inv_step;
        let i = x as usize;
        let frac = x - i as f64;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }

    /// Number of nodes (for memory accounting).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes of storage.
    pub fn bytes(&self) -> u64 {
        (self.values.len() * 8) as u64
    }
}

/// How the sweep kernel evaluates `1 - exp(-tau)`.
#[derive(Debug, Clone, Copy)]
pub enum ExpEval<'a> {
    /// The in-tree evaluator, [`crate::exp::one_minus_exp`] (the name
    /// predates it: this variant used to call the `exp_m1` intrinsic).
    Intrinsic,
    /// Lookup in a prebuilt [`ExpTable`].
    Table(&'a ExpTable),
}

impl ExpEval<'_> {
    // `always`: with the evaluator arm inlined this body is past the
    // inliner's default budget, and as an outlined call per element the
    // table arm costs 5.1 instead of 3.5 ns.
    #[inline(always)]
    pub fn one_minus_exp(&self, tau: f64) -> f64 {
        match self {
            ExpEval::Intrinsic => crate::exp::one_minus_exp(tau),
            ExpEval::Table(t) => t.eval(tau),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            ExpEval::Intrinsic => "intrinsic",
            ExpEval::Table(_) => "table",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_exact_at_nodes() {
        let t = ExpTable::new(10.0, 1001);
        for i in 0..1001 {
            let tau = 10.0 * i as f64 / 1000.0;
            let exact = -(-tau).exp_m1();
            assert!((t.eval(tau) - exact).abs() < 1e-12, "tau {tau}");
        }
    }

    #[test]
    fn tolerance_constructor_meets_its_bound() {
        for eps in [1e-4, 1e-6, 1e-8] {
            let t = ExpTable::with_tolerance(12.0, eps);
            let mut worst = 0.0f64;
            for i in 0..200_000 {
                let tau = 12.0 * i as f64 / 199_999.0;
                let exact = -(-tau).exp_m1();
                worst = worst.max((t.eval(tau) - exact).abs());
            }
            assert!(worst <= eps * 1.01, "eps {eps}: worst {worst}");
        }
    }

    #[test]
    fn new_tables_are_never_empty() {
        // `new` asserts nodes >= 2, so a constructed table can never be
        // empty — and `is_empty` must actually inspect the storage.
        let t = ExpTable::new(10.0, 2);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn exp_eval_modes_agree_within_table_tolerance() {
        let table = ExpTable::with_tolerance(DEFAULT_TAU_MAX, 1e-8);
        let via_table = ExpEval::Table(&table);
        let intrinsic = ExpEval::Intrinsic;
        for i in 0..10_000 {
            let tau = DEFAULT_TAU_MAX * i as f64 / 9_999.0;
            let a = intrinsic.one_minus_exp(tau);
            let b = via_table.one_minus_exp(tau);
            assert!((a - b).abs() <= 1e-8 * 1.01, "tau {tau}: {a} vs {b}");
        }
        assert_eq!(intrinsic.name(), "intrinsic");
        assert_eq!(via_table.name(), "table");
    }

    #[test]
    fn edge_taus_match_intrinsic_within_tolerance() {
        // The extremes the sweep can feed the evaluator: a void segment
        // (tau = 0), subnormal and denormal-adjacent taus from near-void
        // materials times short segments, and optically black segments
        // (tau > 700, where even exp(-tau) underflows to 0).
        let eps = 1e-7;
        let t = ExpTable::with_tolerance(DEFAULT_TAU_MAX, eps);
        for tau in [0.0, 5e-324, f64::MIN_POSITIVE, 1e-30, 1e-9, 701.0, 750.0, 1e6, f64::MAX] {
            let exact = -(-tau).exp_m1();
            let got = t.eval(tau);
            assert!(
                (got - exact).abs() <= eps * 1.01,
                "tau {tau:e}: table {got} vs intrinsic {exact}"
            );
        }
    }

    #[test]
    fn tolerance_covers_the_saturation_branch() {
        // The latent divergence this table used to carry: with the range
        // pinned at 12, every tau just past 12 erred by exp(-12) ~ 6.1e-6
        // — two decades above a declared 1e-7 tolerance. The constructor
        // now extends the range to -ln(epsilon).
        for eps in [1e-5, 1e-7, 1e-9] {
            let t = ExpTable::with_tolerance(DEFAULT_TAU_MAX, eps);
            for tau in [12.0 + 1e-9, 13.0, 15.0, 20.0, 40.0f64] {
                let exact = -(-tau).exp_m1();
                assert!(
                    (t.eval(tau) - exact).abs() <= eps * 1.01,
                    "eps {eps:e}, tau {tau}: {} vs {exact}",
                    t.eval(tau)
                );
            }
        }
    }

    #[test]
    fn nan_tau_propagates_like_the_intrinsic() {
        // The sweep never produces NaN tau itself, but the guard must not
        // turn a poisoned upstream value into a panic or a finite lie;
        // the intrinsic returns NaN, so must the table.
        let t = ExpTable::with_tolerance(DEFAULT_TAU_MAX, 1e-7);
        assert!(t.eval(f64::NAN).is_nan());
        assert!(ExpEval::Table(&t).one_minus_exp(f64::NAN).is_nan());
        assert!(ExpEval::Intrinsic.one_minus_exp(f64::NAN).is_nan());
    }

    #[test]
    fn saturates_beyond_range() {
        let t = ExpTable::new(10.0, 101);
        assert!((t.eval(50.0) - t.eval(10.0)).abs() < 1e-12);
        assert!(t.eval(50.0) > 0.99995);
    }

    #[test]
    fn zero_is_zero() {
        let t = ExpTable::new(10.0, 101);
        assert_eq!(t.eval(0.0), 0.0);
    }

    proptest! {
        #[test]
        fn monotone_and_bounded(tau in 0.0f64..20.0, tau2 in 0.0f64..20.0) {
            let t = ExpTable::with_tolerance(15.0, 1e-6);
            let a = t.eval(tau);
            let b = t.eval(tau2);
            prop_assert!((0.0..=1.0).contains(&a));
            if tau <= tau2 {
                prop_assert!(a <= b + 1e-9);
            }
        }
    }
}
