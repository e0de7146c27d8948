//! Advanced-level binomial kernel: the paper's novel register/cache tiling
//! (Lis. 3, Fig. 2b).
//!
//! A `TS`-deep wavefront (`Tile`) is carried through the `Call` array so
//! that `TS` time steps are applied per element load/store instead of one.
//! The pass splits into the *lower-triangular* prologue (seeding the
//! wavefront from `Call[0..TS]`) and the *trapezoidal* steady state (each
//! `Call[i]` is read once, pushed through `TS` reduction steps inside the
//! tile, and written back to `Call[i−TS]`). With `TS·W` doubles sized to
//! the register file this is the paper's register tiling; sized to L1/L2
//! it is the second-level cache tiling.
//!
//! Wavefront invariant entering trapezoid iteration `i` (time level `N`
//! at the top of a pass): `Tile[j]` holds the value of tree node
//! `(time = N − (TS−1−j), node = i−1−(TS−1−j))`. Each inner step computes
//! `node value = pu·(up child) + pd·(down child)` — exactly the reference
//! recurrence — so every tree node is evaluated by the *same* expression
//! as in Lis. 2 and the tiled result is **bit-identical** to the
//! reference (asserted in tests).

use super::reference::reduce;
use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::{isa_fn, F64v};

isa_fn! {
    /// Tiled in-place reduction of a vector-of-options leaf array; lane `l`
    /// is weighted by its own `pu[l]`/`pd[l]`.
    ///
    /// `TS` is the tile depth (the paper tunes it to the register file; 4–16
    /// are sensible for 16–32 architectural vector registers).
    pub fn reduce_tiled<const W: usize, const TS: usize>(
        call: &mut [F64v<W>],
        n: usize,
        pu: F64v<W>,
        pd: F64v<W>,
    ) -> F64v<W> {
        assert!(call.len() > n, "call buffer must hold n+1 nodes");
        assert!(TS >= 1, "tile depth must be at least 1");

        let mut m = n;
        while m >= TS {
            // Lower-triangular prologue: seed the wavefront from Call[0..TS].
            let mut tile = [F64v::<W>::zero(); TS];
            tile[TS - 1] = call[0];
            for i in 1..TS {
                let mut m1 = call[i];
                for j in ((TS - i)..TS).rev() {
                    let m2 = m1 * pu + tile[j] * pd;
                    tile[j] = m1;
                    m1 = m2;
                }
                tile[TS - 1 - i] = m1;
            }
            // Trapezoidal steady state (the paper's Lis. 3 inner loops).
            for i in TS..=m {
                let mut m1 = call[i];
                for j in (0..TS).rev() {
                    let m2 = m1 * pu + tile[j] * pd;
                    tile[j] = m1;
                    m1 = m2;
                }
                call[i - TS] = m1;
            }
            m -= TS;
        }
        // Remainder (< TS steps) with the plain recurrence.
        reduce(call, m, pu, pd)
    }
}

/// Batch driver for the tiled kernel (same grouping contract as
/// [`crate::binomial::simd::price_batch_simd`]).
pub fn price_batch_tiled<const W: usize, const TS: usize>(
    batch: &mut OptionBatchSoa,
    market: MarketParams,
    n: usize,
    is_call: bool,
) {
    super::price_batch_groups::<W>(batch, market, n, is_call, reduce_tiled::<W, TS>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::reference;

    /// Deterministic pseudo-values in `[0, scale)`, four lanes per vector.
    fn draws(len: usize, seed: u64, scale: f64) -> Vec<F64v<4>> {
        let mut state = seed;
        let mut draw = || {
            state = finbench_rng::SplitMix64::mix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        (0..len)
            .map(|_| F64v([draw(), draw(), draw(), draw()]))
            .collect()
    }

    /// Positive, payoff-like leaves and one pair of weights per lane near ½.
    fn leaves_and_weights(n: usize, seed: u64) -> (Vec<F64v<4>>, F64v<4>, F64v<4>) {
        let w = draws(2, seed ^ 0x5eed, 0.01);
        let half = F64v::splat(0.495);
        (draws(n + 1, seed, 50.0), half + w[0], half + w[1])
    }

    #[test]
    fn tiled_is_bit_identical_to_simd_reference() {
        // Sweep N across tile-boundary cases: multiples of TS, off-by-one,
        // N < TS, N == TS.
        for n in [1usize, 3, 4, 5, 7, 8, 16, 17, 31, 32, 33, 100, 255, 256] {
            let (mut a, pu, pd) = leaves_and_weights(n, 42);
            let mut b = a.clone();
            let ra = reference::reduce(&mut a, n, pu, pd);
            let rb = reduce_tiled::<4, 4>(&mut b, n, pu, pd);
            for l in 0..4 {
                assert_eq!(ra[l].to_bits(), rb[l].to_bits(), "n={n} lane={l}");
            }
        }
    }

    #[test]
    fn tile_depths_all_agree() {
        let n = 123;
        let (mut reference_buf, pu, pd) = leaves_and_weights(n, 7);
        let leaves = reference_buf.clone();
        let want = reference::reduce(&mut reference_buf, n, pu, pd);
        macro_rules! check_ts {
            ($($ts:literal),*) => {$(
                let mut buf = leaves.clone();
                let got = reduce_tiled::<4, $ts>(&mut buf, n, pu, pd);
                for l in 0..4 {
                    assert_eq!(got[l].to_bits(), want[l].to_bits(), "TS={} lane={l}", $ts);
                }
            )*};
        }
        check_ts!(1, 2, 3, 4, 8, 16);
    }

    #[test]
    fn batch_driver_matches_scalar_reference() {
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        let m = crate::workload::MarketParams::PAPER;
        let mut b = OptionBatchSoa::random(19, 5, WorkloadRanges::default());
        let n = 200;
        price_batch_tiled::<8, 4>(&mut b, m, n, true);
        for i in 0..b.len() {
            let want = reference::price_european(b.s[i], b.x[i], b.t[i], m, n, true);
            assert_eq!(b.call[i].to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    fn n_smaller_than_tile_uses_remainder_path() {
        let n = 2;
        let (mut a, pu, pd) = leaves_and_weights(n, 3);
        let mut b = a.clone();
        let ra = reference::reduce(&mut a, n, pu, pd);
        let rb = reduce_tiled::<4, 8>(&mut b, n, pu, pd);
        for l in 0..4 {
            assert_eq!(ra[l].to_bits(), rb[l].to_bits());
        }
    }
}
