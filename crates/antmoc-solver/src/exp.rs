//! The solver's one `1 - exp(-tau)` evaluator: a branch-free per-lane
//! routine ([`one_minus_exp`]) and the slab pass that applies it to a
//! whole track's staged taus at once ([`one_minus_exp_slab`]).
//!
//! A libm `exp_m1` call per (segment, group) was two thirds of the sweep
//! kernel's time, and a call cannot be vectorized. This routine is plain
//! `f64` mul/add/sub plus an exponent-field shift — no `mul_add`, no
//! intrinsics, no table — so a loop over it autovectorizes, and every
//! lane of every instantiation performs the same IEEE 754 op sequence:
//! scalar kernel ≡ vector kernel ≡ baseline, AVX2 and AVX-512 slabs,
//! bitwise. The slab runs on the widest of the three the CPU supports.
//! DESIGN.md, "The exp evaluator and its tolerance argument", carries the
//! error budget (≤ 1 ulp against `exp_m1`, asserted by the tests below).

/// Past this `1 - exp(-tau)` rounds to exactly 1 (`exp(-40) < 2^-54`), so
/// clamping keeps `k >= -58` and `2^k` a normal number for any input.
const TAU_CLAMP: f64 = 40.0;
/// `1.5 * 2^52`: adding it rounds a small `f64` to the nearest integer and
/// leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split for Cody–Waite reduction: the high part has 21 trailing
/// zero bits, so `k * LN2_HI` is exact for `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Taylor coefficients `1/n!` of `exp(r) - 1 - r`, `n = 2..=13`. On
/// `|r| <= ln(2)/2` the truncated tail is below `2^-56` relative.
const INV_FACT: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `1 - exp(-tau)` for `tau >= 0`: exactly 0 at 0, `tau` itself for
/// subnormal `tau`, exactly 1 from `tau = 40` up, NaN for NaN.
#[inline(always)]
pub fn one_minus_exp(tau: f64) -> f64 {
    // A compare-select, not `f64::min`: NaN must fall through to the result.
    let x = -(if tau > TAU_CLAMP { TAU_CLAMP } else { tau });
    // exp(x) = 2^k * exp(r), k = rint(x / ln 2), |r| <= ln(2)/2.
    let shifted = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let r = x - k * LN2_HI - k * LN2_LO;
    // 2^k from the integer in `shifted`'s low bits: `k + 1023` (965..=1023)
    // moved into the exponent field; the shift drops everything above it.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    // p = exp(r) - 1 = r + r^2 * (1/2! + r * (1/3! + ... + r / 13!)).
    let [lower @ .., top] = INV_FACT;
    let mut poly = top;
    for c in lower.iter().rev() {
        poly = poly * r + c;
    }
    let p = r + (r * r) * poly;
    // 1 - 2^k * (1 + p); both `1 - 2^k` and `2^k * p` are exact.
    (1.0 - scale) - scale * p
}

/// The slab loop, written once and instantiated per target-feature set
/// by the three wrappers below.
#[inline(always)]
fn slab_body(taus: &mut [f64]) {
    for t in taus {
        *t = one_minus_exp(*t);
    }
}

/// [`slab_body`] with the crate's baseline target features (SSE2 on
/// x86_64). Never inlined, so `scripts/check_simd_asm.sh` can find it.
#[inline(never)]
fn slab_baseline(taus: &mut [f64]) {
    slab_body(taus);
}

/// [`slab_body`] compiled with AVX2: four lanes per op instead of two.
/// Rust never contracts `a * b + c` into a fused multiply-add, so this
/// instantiation runs the same IEEE ops as the baseline one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn slab_avx2(taus: &mut [f64]) {
    slab_body(taus);
}

/// [`slab_body`] compiled with AVX-512F: eight lanes per op, so a
/// 7-group segment padded to 8 lanes is one `zmm` register. The same IEEE
/// ops as the other two instantiations, for the same reason.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline(never)]
fn slab_avx512(taus: &mut [f64]) {
    slab_body(taus);
}

/// Replaces every `tau` in the slab by `1 - exp(-tau)`, bit for bit what
/// [`one_minus_exp`] returns per element. The sweep stages a track's
/// `sigma_t * len` products contiguously and calls this once per track;
/// it runs the widest instantiation the CPU supports.
pub fn one_minus_exp_slab(taus: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the running CPU was just checked to support AVX-512F,
        // the only requirement of calling `slab_avx512`.
        return unsafe { slab_avx512(taus) };
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the running CPU was just checked to support AVX2, the
        // only requirement of calling a `#[target_feature(enable = "avx2")]`
        // function.
        return unsafe { slab_avx2(taus) };
    }
    slab_baseline(taus);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in representable values between two same-sign floats.
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(a >= 0.0 && b >= 0.0, "{a} {b}");
        a.to_bits().abs_diff(b.to_bits())
    }

    fn reference(tau: f64) -> f64 {
        -(-tau).exp_m1()
    }

    /// xorshift64: a seeded stream of uniform values in `[0, 1)`.
    struct Uniform(u64);

    impl Uniform {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `n` taus log-uniform on `[1e-12, 50]`.
    fn log_uniform_taus(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = Uniform(seed);
        let (lo, hi) = (1e-12f64.ln(), 50f64.ln());
        (0..n).map(|_| (lo + (hi - lo) * rng.next()).exp()).collect()
    }

    #[test]
    fn within_one_ulp_of_exp_m1_on_a_log_uniform_sample() {
        for tau in log_uniform_taus(0x9e37_79b9_7f4a_7c15, 10_000_000) {
            let (got, want) = (one_minus_exp(tau), reference(tau));
            assert!(ulps(got, want) <= 1, "tau {tau:e}: {got:e} vs exp_m1 {want:e}");
        }
    }

    #[test]
    fn within_one_ulp_of_exp_m1_on_a_dense_sweep_past_the_clamp() {
        // Every reduction interval (k = 0..=-58), both sides of each
        // rint boundary, and the clamp at 40.
        let step = 1e-5;
        let n = (45.0 / step) as usize;
        for i in 0..=n {
            let tau = i as f64 * step;
            let (got, want) = (one_minus_exp(tau), reference(tau));
            assert!(ulps(got, want) <= 1, "tau {tau}: {got:e} vs exp_m1 {want:e}");
        }
    }

    #[test]
    fn edge_taus() {
        // Void segments, subnormal and near-void taus, optically black
        // segments: the set `exptable.rs` pins for the table.
        assert_eq!(one_minus_exp(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(one_minus_exp(-0.0), 0.0);
        assert_eq!(one_minus_exp(5e-324), 5e-324);
        assert_eq!(one_minus_exp(f64::MIN_POSITIVE), f64::MIN_POSITIVE);
        assert_eq!(one_minus_exp(1e-30), 1e-30);
        assert!(one_minus_exp(f64::NAN).is_nan());
        for tau in [40.0, 701.0, 750.0, 1e6, f64::MAX, f64::INFINITY] {
            assert_eq!(one_minus_exp(tau), 1.0, "tau {tau:e}");
        }
        // Just under the clamp the answer is already 1 to the last bit.
        assert_eq!(one_minus_exp(39.999), reference(39.999));
    }

    #[test]
    fn monotone_and_bounded_on_sorted_input() {
        let mut taus = log_uniform_taus(0x2545_f491_4f6c_dd1d, 200_000);
        taus.sort_by(f64::total_cmp);
        let mut prev = 0.0f64;
        for tau in taus {
            let v = one_minus_exp(tau);
            assert!((0.0..=1.0).contains(&v), "tau {tau:e}: {v:e}");
            assert!(v >= prev, "tau {tau:e}: {v:e} < {prev:e}");
            prev = v;
        }
    }

    type Slab = fn(&mut [f64]);

    /// The dispatcher and every instantiation the running CPU can execute;
    /// a leg it cannot run is named on stderr rather than passed silently.
    fn instantiations() -> Vec<(&'static str, Slab)> {
        let mut slabs = vec![("dispatch", one_minus_exp_slab as Slab), ("baseline", slab_baseline)];
        #[cfg(target_arch = "x86_64")]
        for (name, feature, slab) in [
            // SAFETY (both closures): each runs only when the CPU has the
            // feature its instantiation is compiled for.
            (
                "avx2",
                std::arch::is_x86_feature_detected!("avx2"),
                (|t| unsafe { slab_avx2(t) }) as Slab,
            ),
            (
                "avx512",
                std::arch::is_x86_feature_detected!("avx512f"),
                (|t| unsafe { slab_avx512(t) }) as Slab,
            ),
        ] {
            if feature {
                slabs.push((name, slab));
            } else {
                eprintln!("slab_{name}: skipped, this CPU lacks the feature it is compiled for");
            }
        }
        slabs
    }

    #[test]
    fn slab_instantiations_match_the_lane_routine_bitwise() {
        // Lengths 0, 4, ..., 36 cover the empty slab, one lane block, and
        // the vectorized loop's main body plus every remainder shape.
        let taus = log_uniform_taus(0xd1b5_4a32_d192_ed03, 36);
        let mut edge = taus.clone();
        edge[..6].copy_from_slice(&[0.0, 5e-324, 39.9, 40.0, f64::MAX, f64::NAN]);
        for src in [&taus, &edge] {
            for n in 0..=9 {
                let want: Vec<u64> =
                    src[..4 * n].iter().map(|&t| one_minus_exp(t).to_bits()).collect();
                for (name, slab) in instantiations() {
                    let mut got = src[..4 * n].to_vec();
                    slab(&mut got);
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{name}, length {}", 4 * n);
                }
            }
        }
    }
}
