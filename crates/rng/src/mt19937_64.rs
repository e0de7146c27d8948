//! MT19937-64 — the 64-bit Mersenne twister (Nishimura & Matsumoto, 2000),
//! the suite's default base generator for double-precision workloads (one
//! output word per 53-bit uniform double).

use crate::RngCore64;
use finbench_simd::isa_fn;

const N: usize = 312;
const M: usize = 156;
const MATRIX_A: u64 = 0xB502_6F5A_A966_19E9;
const UPPER_MASK: u64 = 0xFFFF_FFFF_8000_0000;
const LOWER_MASK: u64 = 0x0000_0000_7FFF_FFFF;

/// The MT19937-64 generator (period `2^19937 − 1`, 64-bit outputs).
#[derive(Clone)]
pub struct Mt19937_64 {
    state: [u64; N],
    index: usize,
}

impl std::fmt::Debug for Mt19937_64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mt19937_64")
            .field("index", &self.index)
            .finish_non_exhaustive()
    }
}

impl Mt19937_64 {
    /// Seed with the reference `init_genrand64` procedure.
    pub fn new(seed: u64) -> Self {
        let mut state = [0u64; N];
        state[0] = seed;
        for i in 1..N {
            state[i] = 6_364_136_223_846_793_005u64
                .wrapping_mul(state[i - 1] ^ (state[i - 1] >> 62))
                .wrapping_add(i as u64);
        }
        Self { state, index: N }
    }

    fn twist(&mut self) {
        twist_block(&mut self.state);
        self.index = 0;
    }
}

#[inline(always)]
fn temper(mut x: u64) -> u64 {
    x ^= (x >> 29) & 0x5555_5555_5555_5555;
    x ^= (x << 17) & 0x71D6_7FFF_EDA6_0000;
    x ^= (x << 37) & 0xFFF7_EEE0_0000_0000;
    x ^ (x >> 43)
}

isa_fn! {
    /// Advance the whole state block one generation. Split where `i + M`
    /// wraps so neither loop needs `% N`, and the conditional `^ MATRIX_A`
    /// is a mask: both loops are straight-line and vectorise.
    fn twist_block(state: &mut [u64; N]) {
        #[inline(always)]
        fn mix(upper: u64, lower: u64) -> u64 {
            let x = (upper & UPPER_MASK) | (lower & LOWER_MASK);
            (x >> 1) ^ ((x & 1).wrapping_neg() & MATRIX_A)
        }
        for i in 0..N - M {
            state[i] = state[i + M] ^ mix(state[i], state[i + 1]);
        }
        for i in N - M..N - 1 {
            state[i] = state[i + M - N] ^ mix(state[i], state[i + 1]);
        }
        state[N - 1] = state[M - 1] ^ mix(state[N - 1], state[0]);
    }
}

isa_fn! {
    /// `out[i] = convert(next_u64())`, tempering and converting straight
    /// out of the state block a run of up to `N` words at a time instead
    /// of testing the index per draw. `convert` comes by value: behind a
    /// reference its captures would be reloaded around every store to
    /// `out`, which keeps the loop scalar.
    fn fill_block<F: Fn(u64) -> f64>(rng: &mut Mt19937_64, out: &mut [f64], convert: F) {
        let mut out = out;
        while !out.is_empty() {
            if rng.index >= N {
                rng.twist();
            }
            let run = out.len().min(N - rng.index);
            let (head, rest) = out.split_at_mut(run);
            for (slot, &word) in head.iter_mut().zip(&rng.state[rng.index..]) {
                *slot = convert(temper(word));
            }
            rng.index += run;
            out = rest;
        }
    }
}

impl RngCore64 for Mt19937_64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.index >= N {
            self.twist();
        }
        let x = self.state[self.index];
        self.index += 1;
        temper(x)
    }

    fn fill_with<F: Fn(u64) -> f64>(&mut self, out: &mut [f64], convert: F) {
        fill_block(self, out, convert);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::{fill_uniform, fill_uniform_open, fill_uniform_range};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The block fill is the per-element loop: same doubles, bit for
        /// bit, and the same generator afterwards — from any position in
        /// the state block, for runs that end before, on and after a twist.
        #[test]
        fn block_fill_is_the_per_element_sequence(
            seed in 0u64..u64::MAX,
            skip in 0usize..700,
            len in 0usize..2000,
        ) {
            let mut start = Mt19937_64::new(seed);
            for _ in 0..skip {
                start.next_u64();
            }
            type Fill = fn(&mut Mt19937_64, &mut [f64]);
            type Draw = fn(&mut Mt19937_64) -> f64;
            let cases: [(Fill, Draw); 3] = [
                (fill_uniform, |r| r.next_f64()),
                (fill_uniform_open, |r| r.next_f64_open()),
                (
                    |r, out| fill_uniform_range(r, out, -2.5, 40.0),
                    |r| -2.5 + 42.5 * r.next_f64(),
                ),
            ];
            for (fill, draw) in cases {
                let (mut block, mut single) = (start.clone(), start.clone());
                let mut got = vec![0.0; len];
                fill(&mut block, &mut got);
                let want: Vec<f64> = (0..len).map(|_| draw(&mut single)).collect();
                prop_assert!(got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
                prop_assert_eq!(block.index, single.index);
                prop_assert!(block.state == single.state);
            }
        }
    }

    #[test]
    fn canonical_sequence_seed_5489() {
        // First outputs of mt19937-64 with init_genrand64(5489).
        let mut rng = Mt19937_64::new(5489);
        let want: [u64; 5] = [
            14514284786278117030,
            4620546740167642908,
            13109570281517897720,
            17462938647148434322,
            355488278567739596,
        ];
        for (i, w) in want.into_iter().enumerate() {
            assert_eq!(rng.next_u64(), w, "output {i}");
        }
    }

    #[test]
    fn deterministic_across_twists() {
        let mut a = Mt19937_64::new(77);
        let mut b = Mt19937_64::new(77);
        for _ in 0..(2 * 312 + 5) {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn doubles_in_half_open_unit_interval() {
        let mut rng = Mt19937_64::new(3);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..100_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            min = min.min(x);
            max = max.max(x);
        }
        // 100k draws should come near both ends.
        assert!(min < 1e-3);
        assert!(max > 1.0 - 1e-3);
    }

    #[test]
    fn uniform_moments() {
        let mut rng = Mt19937_64::new(11);
        let n = 200_000;
        let mut s = 0.0;
        let mut s2 = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        // E = 1/2 (se ~ 1/sqrt(12 n) ~ 6.5e-4), Var = 1/12.
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn open_interval_never_hits_endpoints() {
        let mut rng = Mt19937_64::new(5);
        for _ in 0..100_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x < 1.0);
        }
    }
}
