//! Intermediate-level binomial kernel: SIMD across options.
//!
//! The paper (§IV-B2): "To improve SIMD efficiency and avoid unaligned
//! memory accesses, we compute one option per SIMD lane". The `Call` array
//! becomes an array of `W`-wide vectors; the inner reduction loop is the
//! same three-flop recurrence, now on full vectors with no `Call[j+1]`
//! misalignment and no ragged loop tail.

use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::F64v;

/// Reduce a vector-of-options leaf array in place; lane `l` of the result
/// is the root value of option `l`.
///
/// Deliberately not ISA-dispatched: this plain recurrence is the oracle the
/// tiled reductions are tested against, and it streams the whole lattice
/// through memory every step, so wider ALUs buy nothing (measured on an
/// AVX-512 host: AVX2 instantiation −29 %, AVX-512 ±0).
pub fn reduce_simd<const W: usize>(
    call: &mut [F64v<W>],
    n: usize,
    pu_by_df: f64,
    pd_by_df: f64,
) -> F64v<W> {
    assert!(call.len() > n, "call buffer must hold n+1 nodes");
    for i in (1..=n).rev() {
        for j in 0..i {
            call[j] = call[j + 1] * pu_by_df + call[j] * pd_by_df;
        }
    }
    call[0]
}

/// Price a full batch, `W` options per pass, with the plain recurrence
/// (see [`super::price_batch_groups`] for the shared driver's contract).
pub fn price_batch_simd<const W: usize>(
    batch: &mut OptionBatchSoa,
    market: MarketParams,
    n: usize,
    is_call: bool,
) {
    super::price_batch_groups::<W>(batch, market, n, is_call, reduce_simd::<W>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::reference;
    use crate::workload::WorkloadRanges;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.25,
    };

    fn uniform_expiry_batch(n_opts: usize) -> OptionBatchSoa {
        let mut b = OptionBatchSoa::random(n_opts, 17, WorkloadRanges::default());
        for t in &mut b.t {
            *t = 1.0;
        }
        b
    }

    #[test]
    fn simd_reduction_is_bit_identical_to_reference() {
        // Same nodes, same expressions, same order: the lanes must match
        // scalar runs exactly, not approximately.
        let n = 257;
        let mut b = uniform_expiry_batch(8);
        price_batch_simd::<8>(&mut b, M, n, true);
        for i in 0..8 {
            let want = reference::price_european(b.s[i], b.x[i], 1.0, M, n, true);
            assert_eq!(b.call[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn ragged_tail_falls_back_to_scalar() {
        let n = 64;
        let mut b = uniform_expiry_batch(13); // 8 SIMD + 5 scalar for W=8
        price_batch_simd::<8>(&mut b, M, n, false);
        for i in 0..13 {
            let want = reference::price_european(b.s[i], b.x[i], 1.0, M, n, false);
            assert_eq!(b.put[i].to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    fn width_4_and_8_agree() {
        let n = 128;
        let mut a = uniform_expiry_batch(32);
        let mut b = a.clone();
        price_batch_simd::<4>(&mut a, M, n, true);
        price_batch_simd::<8>(&mut b, M, n, true);
        for i in 0..32 {
            assert_eq!(a.call[i].to_bits(), b.call[i].to_bits(), "i={i}");
        }
    }

    #[test]
    fn converges_to_black_scholes_per_lane() {
        let mut b = uniform_expiry_batch(8);
        price_batch_simd::<8>(&mut b, M, 2048, true);
        for i in 0..8 {
            let (bs, _) = crate::black_scholes::price_single(b.s[i], b.x[i], 1.0, M);
            assert!(
                (b.call[i] - bs).abs() < 0.02,
                "lane {i}: {} vs {bs}",
                b.call[i]
            );
        }
    }
}
