//! VML-style Black-Scholes: whole-array math calls staged through
//! temporary buffers.
//!
//! The paper (§IV-A3) contrasts this with inlined SVML lane math: "the VML
//! version ... has a larger cache footprint and requires algorithmic
//! restructuring of both code and data". Each transcendental becomes one
//! pass over an `n`-element temporary, so the working set is several
//! full-length doubles arrays instead of a handful of vector registers —
//! faster than SVML on SNB-EP in the paper's Fig. 4, no better on KNC.

use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_simd::batch::{vd_erf, vd_exp, vd_ln, vd_sqrt};
use finbench_simd::isa_fn;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Reusable temporaries so repeated pricing calls do not reallocate.
#[derive(Debug, Default)]
pub struct VmlWorkspace {
    ratio: Vec<f64>,
    qlog: Vec<f64>,
    sqrt_t: Vec<f64>,
    d1: Vec<f64>,
    d2: Vec<f64>,
    xexp: Vec<f64>,
    nd1: Vec<f64>,
    nd2: Vec<f64>,
}

impl VmlWorkspace {
    /// Workspace sized for batches of up to `n` options.
    pub fn with_capacity(n: usize) -> Self {
        let mut w = Self::default();
        w.resize(n);
        w
    }

    fn resize(&mut self, n: usize) {
        for buf in [
            &mut self.ratio,
            &mut self.qlog,
            &mut self.sqrt_t,
            &mut self.d1,
            &mut self.d2,
            &mut self.xexp,
            &mut self.nd1,
            &mut self.nd2,
        ] {
            buf.resize(n, 0.0);
        }
    }

    /// Bytes of temporary state touched per pricing call — the "larger
    /// cache footprint" the machine model charges this variant for.
    pub fn footprint_bytes(&self) -> usize {
        8 * self.ratio.len() * 8
    }
}

isa_fn! {
    /// Advanced-level VML-style pricing: seven array passes (`ln`, `sqrt`,
    /// `exp`, two fused arithmetic passes, two `erf` passes) plus the
    /// call/put-parity combine.
    pub fn price_soa_vml(batch: &mut OptionBatchSoa, market: MarketParams, ws: &mut VmlWorkspace) {
        let n = batch.len();
        ws.resize(n);
        let r = market.r;
        let sig = market.sigma;
        let sig22 = sig * sig * 0.5;

        // Pass 1: ratio = S/X, then qlog = ln(ratio).
        for i in 0..n {
            ws.ratio[i] = batch.s[i] / batch.x[i];
        }
        vd_ln(&ws.ratio, &mut ws.qlog);

        // Pass 2: sqrt_t = sqrt(T).
        vd_sqrt(&batch.t, &mut ws.sqrt_t);

        // Pass 3: d1, d2 (reusing ratio as the -rT staging buffer).
        for i in 0..n {
            let denom = 1.0 / (sig * ws.sqrt_t[i]);
            ws.d1[i] = (ws.qlog[i] + (r + sig22) * batch.t[i]) * denom * FRAC_1_SQRT_2;
            ws.d2[i] = (ws.qlog[i] + (r - sig22) * batch.t[i]) * denom * FRAC_1_SQRT_2;
            ws.ratio[i] = -(r * batch.t[i]);
        }

        // Pass 4: xexp = X * exp(-rT).
        vd_exp(&ws.ratio, &mut ws.xexp);
        for i in 0..n {
            ws.xexp[i] *= batch.x[i];
        }

        // Passes 5-6: erf of the scaled d1/d2 arrays.
        vd_erf(&ws.d1, &mut ws.nd1);
        vd_erf(&ws.d2, &mut ws.nd2);

        // Pass 7: combine with parity.
        for i in 0..n {
            let nd1 = (1.0 + ws.nd1[i]) * 0.5;
            let nd2 = (1.0 + ws.nd2[i]) * 0.5;
            let call = batch.s[i] * nd1 - ws.xexp[i] * nd2;
            batch.call[i] = call;
            batch.put[i] = call - batch.s[i] + ws.xexp[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::soa::price_soa_scalar;
    use crate::workload::WorkloadRanges;

    #[test]
    fn vml_matches_scalar_reference() {
        let m = MarketParams::PAPER;
        let mut a = OptionBatchSoa::random(777, 31, WorkloadRanges::default());
        let mut b = a.clone();
        price_soa_scalar(&mut a, m);
        let mut ws = VmlWorkspace::default();
        price_soa_vml(&mut b, m, &mut ws);
        for i in 0..a.len() {
            assert!(
                (a.call[i] - b.call[i]).abs() <= 1e-12 * a.call[i].abs().max(1.0),
                "call {i}: {} vs {}",
                a.call[i],
                b.call[i]
            );
            assert!(
                (a.put[i] - b.put[i]).abs() <= 1e-12 * a.put[i].abs().max(1.0),
                "put {i}"
            );
        }
    }

    #[test]
    fn workspace_reuse_and_footprint() {
        let m = MarketParams::PAPER;
        let mut ws = VmlWorkspace::with_capacity(100);
        assert_eq!(ws.footprint_bytes(), 8 * 100 * 8);
        let mut b1 = OptionBatchSoa::random(100, 1, WorkloadRanges::default());
        let mut b2 = OptionBatchSoa::random(50, 2, WorkloadRanges::default());
        price_soa_vml(&mut b1, m, &mut ws);
        price_soa_vml(&mut b2, m, &mut ws); // shrinking reuse must work
        let mut b2_ref = OptionBatchSoa::random(50, 2, WorkloadRanges::default());
        price_soa_scalar(&mut b2_ref, m);
        for i in 0..50 {
            assert!((b2.call[i] - b2_ref.call[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_batch() {
        let mut b = OptionBatchSoa::zeroed(0);
        let mut ws = VmlWorkspace::default();
        price_soa_vml(&mut b, MarketParams::PAPER, &mut ws);
    }
}
