//! An explicit in-tree `f64x4` lane type for the group-vectorized sweep
//! kernel.
//!
//! No external SIMD crate and no `std::simd` (still unstable): [`F64x4`]
//! is a plain `#[repr(align(32))]` array newtype whose elementwise
//! operators are written as fixed-trip-count loops. That shape is exactly
//! what LLVM's autovectorizer lowers to packed AVX/NEON arithmetic in
//! release builds, while keeping a crucial property the conformance suite
//! depends on: **every lane performs the same scalar `f64` operation the
//! scalar kernel performs**, so a vectorized group loop is bitwise
//! identical to the scalar group loop lane by lane (IEEE 754 add/sub/mul
//! are deterministic; only reassociation could change bits, and none of
//! these ops reassociate).
//!
//! Remainder groups (`G % 4 != 0`) are handled by *masked* loads:
//! [`F64x4::load_partial`] fills dead lanes with `0.0`, and the kernel
//! pads its staged attenuation spans with zeros, so tail-lane arithmetic
//! produces `0.0` contributions that are never delivered (`x - 0 * e`
//! leaves `psi` untouched and the tally span is truncated to `G`).

/// Lane width of the sweep kernel's vector path.
pub const LANES: usize = 4;

/// Rounds a group count up to a whole number of lanes (the padded span
/// stride the staged kernel uses).
#[inline]
pub const fn padded_groups(g: usize) -> usize {
    g.div_ceil(LANES) * LANES
}

/// Four `f64` lanes. 32-byte alignment matches one AVX register / two
/// NEON registers so aligned spills stay cheap.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
pub struct F64x4(pub [f64; LANES]);

impl F64x4 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    /// Loads four lanes from the first four elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        Self([s[0], s[1], s[2], s[3]])
    }

    /// Masked load: lanes past `s.len()` are filled with `0.0` (the
    /// neutral value of the kernel's attenuation arithmetic). A fixed-trip
    /// lane loop, not a `copy_from_slice` of a run-time length: that one
    /// lowers to a libc `memcpy` call per segment, this one to (at most)
    /// four predicated loads, and to plain loads once the length is a
    /// compile-time constant.
    #[inline(always)]
    pub fn load_partial(s: &[f64]) -> Self {
        let mut a = [0.0f64; LANES];
        for (i, lane) in a.iter_mut().enumerate() {
            if i < s.len() {
                *lane = s[i];
            }
        }
        Self(a)
    }

    /// Stores all four lanes into the first four elements of `d`.
    #[inline(always)]
    pub fn store(self, d: &mut [f64]) {
        d[..LANES].copy_from_slice(&self.0);
    }
}

impl std::ops::Add for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn add(self, rhs: F64x4) -> F64x4 {
        let mut out = [0.0f64; LANES];
        for i in 0..LANES {
            out[i] = self.0[i] + rhs.0[i];
        }
        F64x4(out)
    }
}

impl std::ops::Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, rhs: F64x4) -> F64x4 {
        let mut out = [0.0f64; LANES];
        for i in 0..LANES {
            out[i] = self.0[i] - rhs.0[i];
        }
        F64x4(out)
    }
}

impl std::ops::Mul for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn mul(self, rhs: F64x4) -> F64x4 {
        let mut out = [0.0f64; LANES];
        for i in 0..LANES {
            out[i] = self.0[i] * rhs.0[i];
        }
        F64x4(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_groups_rounds_up_to_lane_multiples() {
        assert_eq!(padded_groups(0), 0);
        for g in 1..=4 {
            assert_eq!(padded_groups(g), 4, "g = {g}");
        }
        for g in 5..=8 {
            assert_eq!(padded_groups(g), 8, "g = {g}");
        }
        assert_eq!(padded_groups(9), 12);
    }

    #[test]
    fn lanewise_ops_match_scalar_bits() {
        // The bit-identity claim of the vector kernel, in miniature: each
        // lane op must produce exactly the bits of the scalar op.
        let a = [1.000000000000001f64, -2.5e-300, 7.25e17, 0.1];
        let b = [3.3333333333333f64, 4.5e-310, -1.75e-3, 0.2];
        let va = F64x4::load(&a);
        let vb = F64x4::load(&b);
        for i in 0..LANES {
            assert_eq!((va + vb).0[i].to_bits(), (a[i] + b[i]).to_bits());
            assert_eq!((va - vb).0[i].to_bits(), (a[i] - b[i]).to_bits());
            assert_eq!((va * vb).0[i].to_bits(), (a[i] * b[i]).to_bits());
        }
    }

    #[test]
    fn partial_load_masks_dead_lanes_with_zero() {
        // Every length 0..=5: empty, each remainder shape, a full slice
        // (behaves like `load`), and one past the lane width (ignored).
        let src = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        for n in 0..=5usize {
            // `black_box` keeps the length a run-time value, so the
            // predicated form is what runs, not a constant-folded one.
            let v = F64x4::load_partial(std::hint::black_box(&src[..n]));
            for i in 0..LANES {
                let want = if i < n { src[i] } else { 0.0 };
                assert_eq!(v.0[i].to_bits(), want.to_bits(), "len {n}, lane {i}");
            }
        }
    }

    #[test]
    fn store_round_trips() {
        let mut d = [0.0f64; 4];
        F64x4::load(&[1.0, 2.0, 3.0, 4.0]).store(&mut d);
        assert_eq!(d, [1.0, 2.0, 3.0, 4.0]);
    }
}
