//! The seeded generator every sampled bit comes from.
//!
//! [`Rng`] is xoshiro256++ with its state expanded from a 64-bit seed by
//! SplitMix64. Its streams are part of the simulator's seed contract
//! (`qclab_core::sim::trajectory::SEED_CONTRACT`): every sampled record is
//! drawn from them, and `tests/rng_known_answers.rs` pins their first
//! draws. They are *not* the streams of the `rand` crate's generators, and
//! nothing here should be swapped for one.

/// The SplitMix64 finalizer: a bijection of `u64` with full avalanche.
/// Seed expansion, the per-shot seed derivation and the plan fingerprint
/// all mix through it.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256++ generator. Deterministic per seed.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the first four SplitMix64 outputs
    /// from `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(sm)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits of one draw.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin: the low bit of one draw.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform integer in `[0, n)`, `n > 0`, by Lemire's
    /// widening-multiply rejection method (no modulo bias).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to draw");
        let bound = n as u64;
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(
            Rng::seed_from_u64(42).next_u64(),
            Rng::seed_from_u64(43).next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.below(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_and_bool_is_fair() {
        let mut rng = Rng::seed_from_u64(1);
        let mut heads = 0;
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.f64()));
            heads += rng.bool() as u32;
        }
        assert!((4_700..5_300).contains(&heads), "{heads} heads in 10000");
    }
}
