//! Intermediate-level binomial kernel: SIMD across options.
//!
//! The paper (§IV-B2): "To improve SIMD efficiency and avoid unaligned
//! memory accesses, we compute one option per SIMD lane". The `Call` array
//! becomes an array of `W`-wide vectors, and the reduction is
//! [`reference::reduce`] instantiated at `F64v<W>`: the same three-flop
//! recurrence on full vectors, with no `Call[j+1]` misalignment and no
//! ragged loop tail.
//!
//! Deliberately not ISA-dispatched: the plain recurrence streams the whole
//! lattice through memory every step, so wider ALUs buy nothing (measured
//! on an AVX-512 host: AVX2 instantiation −29 %, AVX-512 ±0).

use super::reference;
use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::F64v;

/// Price a full batch, `W` options per pass, with the plain recurrence
/// (see [`super::price_batch_groups`] for the shared driver's contract).
pub fn price_batch_simd<const W: usize>(
    batch: &mut OptionBatchSoa,
    market: MarketParams,
    n: usize,
    is_call: bool,
) {
    super::price_batch_groups::<W>(batch, market, n, is_call, reference::reduce::<F64v<W>>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadRanges;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.25,
    };

    fn batch(n_opts: usize) -> OptionBatchSoa {
        OptionBatchSoa::random(n_opts, 17, WorkloadRanges::default())
    }

    #[test]
    fn simd_reduction_is_bit_identical_to_reference() {
        // Same nodes, same expressions, same order, each lane on its own
        // expiry: the lanes must match scalar runs exactly.
        let n = 257;
        let mut b = batch(8);
        price_batch_simd::<8>(&mut b, M, n, true);
        for i in 0..8 {
            let want = reference::price_european(b.s[i], b.x[i], b.t[i], M, n, true);
            assert_eq!(b.call[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn ragged_tail_falls_back_to_scalar() {
        let n = 64;
        let mut b = batch(13); // 8 SIMD + 5 scalar for W=8
        price_batch_simd::<8>(&mut b, M, n, false);
        for i in 0..13 {
            let want = reference::price_european(b.s[i], b.x[i], b.t[i], M, n, false);
            assert_eq!(b.put[i].to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    fn width_4_and_8_agree() {
        let n = 128;
        let mut a = batch(32);
        let mut b = a.clone();
        price_batch_simd::<4>(&mut a, M, n, true);
        price_batch_simd::<8>(&mut b, M, n, true);
        for i in 0..32 {
            assert_eq!(a.call[i].to_bits(), b.call[i].to_bits(), "i={i}");
        }
    }

    #[test]
    fn converges_to_black_scholes_per_lane() {
        let mut b = batch(8);
        price_batch_simd::<8>(&mut b, M, 2048, true);
        for i in 0..8 {
            let (bs, _) = crate::black_scholes::price_single(b.s[i], b.x[i], b.t[i], M);
            assert!(
                (b.call[i] - bs).abs() < 0.02,
                "lane {i}: {} vs {bs}",
                b.call[i]
            );
        }
    }
}
