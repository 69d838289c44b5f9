//! Input-sampling helpers for always-on randomized tests.
//!
//! The helpers cover the common sampling shapes of property tests — pick
//! one of a slice, interesting integer corner cases, random byte vectors —
//! so seeded randomized tests run in the default `cargo test` with no
//! registry access, and reproduce exactly from their seed.
//!
//! # Example
//!
//! ```
//! use ulp_rng::XorShiftRng;
//! use ulp_rng::gen::{byte_vec, choose, operand32};
//!
//! let mut rng = XorShiftRng::seed_from_u64(7);
//! let op = *choose(&mut rng, &["add", "sub", "xor"]);
//! let a = operand32(&mut rng);
//! let payload = byte_vec(&mut rng, 0..=64);
//! assert!(payload.len() <= 64);
//! let _ = (op, a);
//! ```

use std::ops::RangeInclusive;

use crate::XorShiftRng;

/// Picks one element of a non-empty slice, uniformly.
///
/// # Panics
///
/// Panics if `items` is empty.
pub fn choose<'a, T>(rng: &mut XorShiftRng, items: &'a [T]) -> &'a T {
    assert!(!items.is_empty(), "choose: empty slice");
    &items[rng.gen_range(0..items.len())]
}

/// A byte vector whose length is drawn from `len` and whose contents are
/// uniform random bytes.
///
/// # Panics
///
/// Panics if `len` is empty.
pub fn byte_vec(rng: &mut XorShiftRng, len: RangeInclusive<usize>) -> Vec<u8> {
    let n = rng.gen_range(len);
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

/// A 32-bit operand biased towards the corner cases arithmetic bugs hide
/// behind: with probability ~1/4 one of `0`, `1`, `u32::MAX`, `i32::MIN`,
/// `i32::MAX` or a small value near them; otherwise uniform.
pub fn operand32(rng: &mut XorShiftRng) -> u32 {
    const CORNERS: [u32; 10] = [
        0,
        1,
        2,
        0x7F,
        0x80,
        0x7FFF_FFFF, // i32::MAX
        0x8000_0000, // i32::MIN
        0xFFFF_FFFE,
        0xFFFF_FFFF, // u32::MAX / -1
        0x0101_0101,
    ];
    if rng.gen_bool(0.25) {
        *choose(rng, &CORNERS)
    } else {
        rng.gen()
    }
}

/// A shift amount in `0..=31` (the architectural mask for 32-bit shifts).
pub fn shamt(rng: &mut XorShiftRng) -> u32 {
    rng.gen_range(0u32..=31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_is_uniformish_and_in_range() {
        let mut rng = XorShiftRng::seed_from_u64(1);
        let items = [10, 20, 30, 40];
        let mut seen = [false; 4];
        for _ in 0..256 {
            let v = *choose(&mut rng, &items);
            seen[items.iter().position(|x| *x == v).unwrap()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn choose_refuses_empty() {
        let _ = choose(&mut XorShiftRng::seed_from_u64(0), &[] as &[u8]);
    }

    #[test]
    fn byte_vec_length_in_range_and_reproducible() {
        let mut a = XorShiftRng::seed_from_u64(5);
        let mut b = XorShiftRng::seed_from_u64(5);
        for _ in 0..100 {
            let v = byte_vec(&mut a, 3..=17);
            assert!((3..=17).contains(&v.len()));
            assert_eq!(v, byte_vec(&mut b, 3..=17));
        }
    }

    #[test]
    fn byte_vec_supports_empty_payloads() {
        let mut rng = XorShiftRng::seed_from_u64(2);
        let mut hit_zero = false;
        for _ in 0..64 {
            hit_zero |= byte_vec(&mut rng, 0..=1).is_empty();
        }
        assert!(hit_zero);
    }

    #[test]
    fn operand32_hits_corners_and_everything_else() {
        let mut rng = XorShiftRng::seed_from_u64(3);
        let mut zeros = 0u32;
        let mut big = 0u32;
        for _ in 0..10_000 {
            let v = operand32(&mut rng);
            if v == 0 {
                zeros += 1;
            }
            if v > 0x1000_0000 && v < 0x7000_0000 {
                big += 1;
            }
        }
        assert!(zeros > 50, "corner bias must surface zero often: {zeros}");
        assert!(big > 1000, "uniform tail must still cover mid-range: {big}");
    }

    #[test]
    fn shamt_is_architectural() {
        let mut rng = XorShiftRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(shamt(&mut rng) <= 31);
        }
    }
}
