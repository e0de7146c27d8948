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

use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::{isa_fn, F64v, Lanes};

isa_fn! {
    /// Tiled in-place reduction of a vector-of-options leaf array.
    ///
    /// `TS` is the tile depth (the paper tunes it to the register file; 4–16
    /// are sensible for 16–32 architectural vector registers).
    pub fn reduce_tiled<const W: usize, const TS: usize>(
        call: &mut [F64v<W>],
        n: usize,
        pu_by_df: f64,
        pd_by_df: f64,
    ) -> F64v<W> {
        assert!(call.len() > n, "call buffer must hold n+1 nodes");
        assert!(TS >= 1, "tile depth must be at least 1");
        let pu = pu_by_df;
        let pd = pd_by_df;

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
        for i in (1..=m).rev() {
            for j in 0..i {
                call[j] = call[j + 1] * pu + call[j] * pd;
            }
        }
        call[0]
    }
}

isa_fn! {
    /// FMA flavour of the tiled reduction: `m1.mul_add(pu, tile[j] * pd)`.
    /// Not bit-identical to the reference (the fused multiply skips one
    /// rounding), but one instruction shorter per node — the machine model
    /// charges KNC's FMA units through this variant.
    pub fn reduce_tiled_fma<const W: usize, const TS: usize>(
        call: &mut [F64v<W>],
        n: usize,
        pu_by_df: f64,
        pd_by_df: f64,
    ) -> F64v<W> {
        assert!(call.len() > n, "call buffer must hold n+1 nodes");
        let pu = F64v::<W>::splat(pu_by_df);
        let pd = F64v::<W>::splat(pd_by_df);

        let mut m = n;
        while m >= TS {
            let mut tile = [F64v::<W>::zero(); TS];
            tile[TS - 1] = call[0];
            for i in 1..TS {
                let mut m1 = call[i];
                for j in ((TS - i)..TS).rev() {
                    let m2 = m1.mul_add(pu, tile[j] * pd);
                    tile[j] = m1;
                    m1 = m2;
                }
                tile[TS - 1 - i] = m1;
            }
            for i in TS..=m {
                let mut m1 = call[i];
                for j in (0..TS).rev() {
                    let m2 = m1.mul_add(pu, tile[j] * pd);
                    tile[j] = m1;
                    m1 = m2;
                }
                call[i - TS] = m1;
            }
            m -= TS;
        }
        for i in (1..=m).rev() {
            for j in 0..i {
                call[j] = call[j + 1].mul_add(pu, call[j] * pd);
            }
        }
        call[0]
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
    use crate::binomial::simd::reduce_simd;

    fn leaf_vec(n: usize, seed: u64) -> Vec<F64v<4>> {
        // Deterministic pseudo-leaves; positive, payoff-like.
        let mut out = Vec::with_capacity(n + 1);
        let mut state = seed;
        for _ in 0..=n {
            let mut lanes = [0.0; 4];
            for l in &mut lanes {
                state = finbench_rng::SplitMix64::mix(state);
                *l = (state >> 11) as f64 / (1u64 << 53) as f64 * 50.0;
            }
            out.push(F64v(lanes));
        }
        out
    }

    #[test]
    fn tiled_is_bit_identical_to_simd_reference() {
        // Sweep N across tile-boundary cases: multiples of TS, off-by-one,
        // N < TS, N == TS.
        for n in [1usize, 3, 4, 5, 7, 8, 16, 17, 31, 32, 33, 100, 255, 256] {
            let mut a = leaf_vec(n, 42);
            let mut b = a.clone();
            let ra = reduce_simd(&mut a, n, 0.5002, 0.4988);
            let rb = reduce_tiled::<4, 4>(&mut b, n, 0.5002, 0.4988);
            for l in 0..4 {
                assert_eq!(ra[l].to_bits(), rb[l].to_bits(), "n={n} lane={l}");
            }
        }
    }

    #[test]
    fn tile_depths_all_agree() {
        let n = 123;
        let mut reference_buf = leaf_vec(n, 7);
        let want = reduce_simd(&mut reference_buf, n, 0.497, 0.501);
        macro_rules! check_ts {
            ($($ts:literal),*) => {$(
                let mut buf = leaf_vec(n, 7);
                let got = reduce_tiled::<4, $ts>(&mut buf, n, 0.497, 0.501);
                for l in 0..4 {
                    assert_eq!(got[l].to_bits(), want[l].to_bits(), "TS={} lane={l}", $ts);
                }
            )*};
        }
        check_ts!(1, 2, 3, 4, 8, 16);
    }

    #[test]
    fn fma_variant_close_to_exact() {
        let n = 512;
        let mut a = leaf_vec(n, 9);
        let mut b = a.clone();
        let ra = reduce_simd(&mut a, n, 0.5002, 0.4988);
        let rb = reduce_tiled_fma::<4, 8>(&mut b, n, 0.5002, 0.4988);
        for l in 0..4 {
            let rel = ((ra[l] - rb[l]) / ra[l].max(1e-30)).abs();
            assert!(rel < 1e-12, "lane {l}: {} vs {}", ra[l], rb[l]);
        }
    }

    #[test]
    fn batch_driver_matches_scalar_reference() {
        use crate::workload::{OptionBatchSoa, WorkloadRanges};
        let m = crate::workload::MarketParams::PAPER;
        let mut b = OptionBatchSoa::random(19, 5, WorkloadRanges::default());
        for t in &mut b.t {
            *t = 2.0;
        }
        let n = 200;
        price_batch_tiled::<8, 4>(&mut b, m, n, true);
        for i in 0..b.len() {
            let want = reference::price_european(b.s[i], b.x[i], 2.0, m, n, true);
            assert_eq!(b.call[i].to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    fn n_smaller_than_tile_uses_remainder_path() {
        let n = 2;
        let mut a = leaf_vec(n, 3);
        let mut b = a.clone();
        let ra = reduce_simd(&mut a, n, 0.5, 0.5);
        let rb = reduce_tiled::<4, 8>(&mut b, n, 0.5, 0.5);
        for l in 0..4 {
            assert_eq!(ra[l].to_bits(), rb[l].to_bits());
        }
    }
}
