//! The basic-level Black-Scholes kernels (paper Lis. 1).

use super::price_single;
use crate::workload::{MarketParams, OptionBatchAos};
use finbench_math::Real;
use finbench_simd::math::vnorm_cdf;
use finbench_simd::{isa_fn, F64v, Lanes};

/// Scalar AOS reference (the paper's Lis. 1): one record at a time,
/// four `cnd` calls per option.
///
/// Generic over the scalar type so the op-count audit can instantiate it
/// with `CountedF64`.
pub fn price_aos<R: Real>(batch: &mut OptionBatchAos, market: MarketParams) {
    for o in &mut batch.opts {
        let (call, put) = price_single(R::splat(o.s), R::splat(o.x), R::splat(o.t), market);
        o.call = call.into_f64();
        o.put = put.into_f64();
    }
}

isa_fn! {
    /// SIMD directly on the AOS layout: every field access is a stride-5
    /// gather/scatter touching up to `W` cache lines — the paper's explanation
    /// for why the KNC reference is 3x *slower* than SNB-EP until the data is
    /// transposed ("more than 10x increase in the number of instructions").
    pub fn price_aos_simd_gather<const W: usize>(batch: &mut OptionBatchAos, market: MarketParams) {
        let n = batch.opts.len();
        let main = n - n % W;
        let stride =
            core::mem::size_of::<crate::workload::OptionRecord>() / core::mem::size_of::<f64>();

        // View the record array as a flat f64 buffer (layout asserted below).
        debug_assert_eq!(stride, 5);
        let flat: &mut [f64] = unsafe {
            // SAFETY: OptionRecord is 5 contiguous f64 fields with no padding
            // (size checked in workload tests) and f64 has no invalid bit
            // patterns.
            core::slice::from_raw_parts_mut(batch.opts.as_mut_ptr() as *mut f64, n * stride)
        };

        let r = market.r;
        let sig = market.sigma;
        let sig22 = sig * sig * 0.5;

        let mut i = 0;
        while i < main {
            let base = i * stride;
            let s = F64v::<W>::gather_strided(flat, base, stride);
            let x = F64v::<W>::gather_strided(flat, base + 1, stride);
            let t = F64v::<W>::gather_strided(flat, base + 2, stride);

            let qlog = finbench_simd::math::vln(s / x);
            let denom = 1.0 / (t.sqrt() * sig);
            let d1 = (qlog + t * (r + sig22)) * denom;
            let d2 = (qlog + t * (r - sig22)) * denom;
            let xexp = x * finbench_simd::math::vexp(-(t * r));
            let call = s * vnorm_cdf(d1) - xexp * vnorm_cdf(d2);
            let put = xexp * vnorm_cdf(-d2) - s * vnorm_cdf(-d1);

            call.scatter_strided(flat, base + 3, stride);
            put.scatter_strided(flat, base + 4, stride);
            i += W;
        }
        // Scalar remainder.
        for o in &mut batch.opts[main..] {
            let (call, put) = price_single(o.s, o.x, o.t, market);
            o.call = call;
            o.put = put;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadRanges;

    fn batch(n: usize) -> OptionBatchAos {
        OptionBatchAos::random(n, 11, WorkloadRanges::default())
    }

    #[test]
    fn reference_prices_are_finite_and_parity_holds() {
        let m = MarketParams::PAPER;
        let mut b = batch(1000);
        price_aos::<f64>(&mut b, m);
        for o in &b.opts {
            assert!(o.call.is_finite() && o.put.is_finite());
            let parity = o.s - o.x * (-m.r * o.t).exp();
            assert!((o.call - o.put - parity).abs() < 1e-10, "{o:?}");
        }
    }

    #[test]
    fn gather_simd_matches_reference() {
        let m = MarketParams::PAPER;
        let mut a = batch(1003); // non-multiple of 8 exercises the tail
        let mut b = a.clone();
        price_aos::<f64>(&mut a, m);
        price_aos_simd_gather::<8>(&mut b, m);
        for i in 0..a.len() {
            let (ra, rb) = (&a.opts[i], &b.opts[i]);
            assert!(
                (ra.call - rb.call).abs() <= 1e-13 * ra.call.abs().max(1.0),
                "call {i}: {} vs {}",
                ra.call,
                rb.call
            );
            assert!(
                (ra.put - rb.put).abs() <= 1e-13 * ra.put.abs().max(1.0),
                "put {i}"
            );
        }
    }

    #[test]
    fn gather_simd_width_4_and_8_agree() {
        let m = MarketParams::PAPER;
        let mut a = batch(128);
        let mut b = a.clone();
        price_aos_simd_gather::<4>(&mut a, m);
        price_aos_simd_gather::<8>(&mut b, m);
        for i in 0..a.len() {
            assert_eq!(a.opts[i].call.to_bits(), b.opts[i].call.to_bits(), "i={i}");
        }
    }

    #[test]
    fn counted_instantiation_runs() {
        let mut b = batch(3);
        let (_, counts) = finbench_math::counted::counting(|| {
            price_aos::<finbench_math::CountedF64>(&mut b, MarketParams::PAPER);
        });
        assert_eq!(counts.cnds, 12); // 4 per option
        assert_eq!(counts.logs, 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut b = OptionBatchAos::default();
        price_aos::<f64>(&mut b, MarketParams::PAPER);
        price_aos_simd_gather::<8>(&mut b, MarketParams::PAPER);
    }
}
