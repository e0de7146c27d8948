//! Basic-level binomial kernel: the paper's Lis. 2.

use super::{fill_leaves, CrrParams};
use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_math::Lanes;
use finbench_simd::isa_fn;

/// Reduce a leaf array in place: after the call, `call[0]` holds the root
/// (present) value. The one plain recurrence: `R = f64` is the reference,
/// `R = F64v<W>` the SIMD rung (lane `l` weighted by option `l`'s own
/// `pu`/`pd`) and the tiled reduction's remainder, `R = CountedF64` the
/// flop audit. This is exactly the paper's inner two loops:
///
/// ```c
/// for(int i = N; i > 0; i--)
///   for(int j = 0; j <= i - 1; j++)
///     Call[j] = puByDf*Call[j+1] + pdByDf*Call[j];
/// ```
#[inline(always)]
pub fn reduce<R: Lanes>(call: &mut [R], n: usize, pu_by_df: R, pd_by_df: R) -> R {
    assert!(call.len() > n, "call buffer must hold n+1 nodes");
    for i in (1..=n).rev() {
        for j in 0..i {
            call[j] = pu_by_df * call[j + 1] + pd_by_df * call[j];
        }
    }
    call[0]
}

/// Price one European option (reference path). `is_call` selects the
/// payoff at the leaves; the reduction is payoff-agnostic.
///
/// Not ISA-dispatched, unlike [`price_batch`]: its callers are ragged
/// tails and the bump-and-reprice greeks, whose trees are tens of steps
/// deep — too short for a wide reduction loop to beat its own remainder
/// handling (the bump rung measured −10 % / −20 % on the AVX2 / AVX-512
/// instantiations).
pub fn price_european(
    s: f64,
    x: f64,
    t: f64,
    market: MarketParams,
    n: usize,
    is_call: bool,
) -> f64 {
    let crr = CrrParams::new(market, t, n);
    let mut call = vec![0.0f64; n + 1];
    fill_leaves(&mut call, s, x, crr.d_pow_n, crr.u2, is_call);
    reduce(&mut call, n, crr.pu_by_df, crr.pd_by_df)
}

isa_fn! {
    /// Batch driver: price every option in the batch with the scalar reference
    /// kernel, writing calls and puts (the paper prices one side; we fill both
    /// for the validation suite). The scratch buffer is reused across options.
    pub fn price_batch(batch: &mut OptionBatchSoa, market: MarketParams, n: usize) {
        let mut scratch = vec![0.0f64; n + 1];
        for i in 0..batch.len() {
            let crr = CrrParams::new(market, batch.t[i], n);
            let (s, x) = (batch.s[i], batch.x[i]);
            fill_leaves(&mut scratch, s, x, crr.d_pow_n, crr.u2, true);
            batch.call[i] = reduce(&mut scratch, n, crr.pu_by_df, crr.pd_by_df);
            fill_leaves(&mut scratch, s, x, crr.d_pow_n, crr.u2, false);
            batch.put[i] = reduce(&mut scratch, n, crr.pu_by_df, crr.pd_by_df);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::price_single;
    use crate::workload::WorkloadRanges;
    use finbench_math::CountedF64;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    #[test]
    fn converges_to_black_scholes() {
        let (bs_call, bs_put) = price_single(100.0, 100.0, 1.0, M);
        let call = price_european(100.0, 100.0, 1.0, M, 1000, true);
        let put = price_european(100.0, 100.0, 1.0, M, 1000, false);
        assert!((call - bs_call).abs() < 0.01, "call {call} vs {bs_call}");
        assert!((put - bs_put).abs() < 0.01, "put {put} vs {bs_put}");
    }

    #[test]
    fn error_shrinks_with_more_steps() {
        let (bs_call, _) = price_single(100.0, 110.0, 0.75, M);
        let coarse = (price_european(100.0, 110.0, 0.75, M, 64, true) - bs_call).abs();
        let fine = (price_european(100.0, 110.0, 0.75, M, 2048, true) - bs_call).abs();
        assert!(fine < coarse, "coarse {coarse} fine {fine}");
        assert!(fine < 0.01);
    }

    #[test]
    fn one_step_tree_by_hand() {
        // N=1: root = pu*leaf_up + pd*leaf_down.
        let crr = CrrParams::new(M, 1.0, 1);
        let s = 100.0;
        let x = 100.0;
        let up = (s * crr.u - x).max(0.0);
        let dn = (s * crr.d - x).max(0.0);
        let want = crr.pu_by_df * up + crr.pd_by_df * dn;
        let got = price_european(s, x, 1.0, M, 1, true);
        assert!((got - want).abs() < 1e-14);
    }

    #[test]
    fn put_call_parity_approx() {
        // European options on a lattice obey parity up to lattice error.
        for n in [128usize, 512] {
            let c = price_european(105.0, 95.0, 2.0, M, n, true);
            let p = price_european(105.0, 95.0, 2.0, M, n, false);
            let parity = 105.0 - 95.0 * (-M.r * 2.0f64).exp();
            assert!((c - p - parity).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn flop_count_matches_paper_formula() {
        // The paper: "This kernel requires ~ 3N(N+1)/2 floating point
        // computations" for the reduction.
        for n in [8usize, 33, 100] {
            let mut call: Vec<CountedF64> = (0..=n).map(|j| CountedF64(j as f64)).collect();
            let (_, counts) = finbench_math::counted::counting(|| {
                reduce(&mut call, n, CountedF64(0.5), CountedF64(0.49));
            });
            let want = 3 * n * (n + 1) / 2;
            assert_eq!(counts.flops() as usize, want, "n={n}");
        }
    }

    #[test]
    fn batch_driver_consistent_with_single() {
        let mut b = OptionBatchSoa::random(16, 3, WorkloadRanges::default());
        price_batch(&mut b, M, 64);
        for i in 0..b.len() {
            let want = price_european(b.s[i], b.x[i], b.t[i], M, 64, true);
            assert_eq!(b.call[i].to_bits(), want.to_bits(), "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "must hold n+1")]
    fn short_buffer_panics() {
        let mut buf = vec![0.0f64; 4];
        reduce(&mut buf, 4, 0.5, 0.5);
    }
}
