//! Fixed-point arithmetic used by the benchmark kernels.
//!
//! The paper's learning/vision benchmarks run on 16-bit fixed-point data
//! (Q2.13: 2 integer bits, 13 fractional bits) and `hog` on 32-bit
//! fixed-point (Q16.15) with software-emulated 64-bit accumulation. The
//! helpers here define the *reference semantics*: the UIR code generators
//! must produce bit-identical results, so every operation is specified in
//! wrapping two's-complement arithmetic exactly as the generated
//! instruction sequences compute it.

/// Fractional bits of the 16-bit Q2.13 format.
pub const Q13: u32 = 13;

/// Converts a float to Q2.13 (saturating to the representable range).
#[must_use]
pub fn to_q13(x: f64) -> i16 {
    let v = (x * f64::from(1 << Q13)).round();
    v.clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
}

/// Q2.13 multiply exactly as the kernels compute it: 32-bit wrapping
/// product, arithmetic shift right by 13, truncated to 16 bits.
///
/// This is the `mul`/`srai 13` sequence the code generator emits — there is
/// deliberately **no** rounding and **no** saturation, matching the plain
/// portable-C `(int16_t)((a * b) >> 13)`.
#[must_use]
pub fn q13_mul(a: i16, b: i16) -> i16 {
    ((i32::from(a).wrapping_mul(i32::from(b))) >> Q13) as i16
}

/// Q2.13 multiply keeping the full 32-bit shifted result (used when
/// accumulating in 32-bit before a final truncation).
#[must_use]
pub fn q13_mul_wide(a: i16, b: i16) -> i32 {
    i32::from(a).wrapping_mul(i32::from(b)) >> Q13
}

/// Unsigned integer square root of a 64-bit value, by the classic
/// bit-by-bit (non-restoring) method — exactly the algorithm the `hog`
/// code generator emits as a software routine.
#[must_use]
pub fn isqrt_u64(v: u64) -> u32 {
    let mut x = v;
    let mut result: u64 = 0;
    let mut bit: u64 = 1 << 62;
    while bit > x {
        bit >>= 2;
    }
    while bit != 0 {
        if x >= result + bit {
            x -= result + bit;
            result = (result >> 1) + bit;
        } else {
            result >>= 1;
        }
        bit >>= 2;
    }
    result as u32
}

/// Builds a lookup table of `exp(-x)` in Q2.13 over `x ∈ [0, range)`,
/// with `n` entries indexed by `floor(x / range * n)`.
///
/// Used by the RBF SVM kernel; the generated code performs the same
/// truncating indexing, so reference and simulation agree bit-exactly.
#[must_use]
pub fn exp_neg_lut_q13(n: usize, range: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64 * range;
            to_q13((-x).exp())
        })
        .collect()
}

/// Builds a `tanh(x)` lookup table in Q2.13 over `x ∈ [-range, range)`,
/// `n` entries, indexed by `floor((x + range) / (2·range) * n)` with
/// clamping. Used by the CNN activation.
#[must_use]
pub fn tanh_lut_q13(n: usize, range: f64) -> Vec<i16> {
    (0..n)
        .map(|i| {
            let x = (i as f64 / n as f64) * 2.0 * range - range;
            to_q13(x.tanh())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converts Q2.13 to float: the oracle the conversion and multiply
    /// tests read their results through.
    fn from_q13(x: i16) -> f64 {
        f64::from(x) / f64::from(1 << Q13)
    }

    #[test]
    fn q13_roundtrip_accuracy() {
        for &x in &[0.0, 1.0, -1.0, 0.5, 3.999, -4.0, 0.123] {
            let q = to_q13(x);
            assert!((from_q13(q) - x).abs() < 1.0 / 8192.0 + 1e-9, "{x}");
        }
    }

    #[test]
    fn q13_saturates() {
        assert_eq!(to_q13(100.0), i16::MAX);
        assert_eq!(to_q13(-100.0), i16::MIN);
    }

    #[test]
    fn q13_mul_matches_float_for_small_values() {
        for &(a, b) in &[(0.5, 0.5), (1.5, -2.0), (0.1, 0.1), (-3.0, 1.2)] {
            let qa = to_q13(a);
            let qb = to_q13(b);
            let prod = from_q13(q13_mul(qa, qb));
            assert!((prod - a * b).abs() < 2.0 / 8192.0, "{a}*{b} -> {prod}");
        }
    }

    #[test]
    fn isqrt_exact_squares() {
        for v in [0u64, 1, 4, 9, 144, 1 << 40, (1u64 << 31) * (1u64 << 31)] {
            let r = isqrt_u64(v);
            assert_eq!(u64::from(r) * u64::from(r), v);
        }
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in [
            2u64,
            3,
            5,
            10,
            99,
            1000,
            123_456_789,
            u64::from(u32::MAX) + 17,
        ] {
            let r = u64::from(isqrt_u64(v));
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }

    #[test]
    fn isqrt_max_input() {
        let r = u64::from(isqrt_u64(u64::MAX));
        assert_eq!(r, u64::from(u32::MAX));
    }

    #[test]
    fn exp_lut_monotone_decreasing() {
        let lut = exp_neg_lut_q13(256, 8.0);
        assert_eq!(lut[0], to_q13(1.0));
        for w in lut.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(lut[255] >= 0);
    }

    #[test]
    fn exp_lookup_accuracy() {
        let lut = exp_neg_lut_q13(256, 8.0);
        for &x in &[0.0f64, 0.5, 1.0, 2.0, 4.0, 7.5] {
            let got = from_q13(lut[(x / 8.0 * 256.0) as usize]);
            assert!((got - (-x).exp()).abs() < 0.05, "exp(-{x}) -> {got}");
        }
    }

    #[test]
    fn tanh_lookup_accuracy() {
        let lut = tanh_lut_q13(512, 4.0);
        for &x in &[-3.5f64, -1.0, -0.25, 0.0, 0.25, 1.0, 3.5] {
            let got = from_q13(lut[((x + 4.0) / 8.0 * 512.0) as usize]);
            assert!((got - x.tanh()).abs() < 0.05, "tanh({x}) -> {got}");
        }
    }
}
