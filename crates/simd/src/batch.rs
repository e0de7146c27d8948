//! Array-at-a-time math — the VML stand-in.
//!
//! Intel VML exposes `vdExp(n, a, y)`-style entry points that transform a
//! whole array per call. Compared with inlined SVML-style lane math, the
//! batch route trades *algorithmic restructuring of both code and data*
//! plus a *larger cache footprint* (the paper's words, §IV-A3) for
//! amortized call overhead — which is why VML wins on some kernels and
//! loses on Black-Scholes. These functions reproduce that structure: one
//! pass over the input slice per function, main loop in 8-wide vectors,
//! scalar remainder tail — the same body at one lane, so every element has
//! the scalar function's bits wherever it falls.
//!
//! All functions panic if `src.len() != dst.len()`.

use crate::math::{verf, vexp, vinv_norm_cdf_guess, vinv_norm_cdf_polish, vln, vnorm_cdf};
use crate::vec::F64v;
use finbench_math as fm;

const W: usize = 8;

macro_rules! batch_fn {
    ($(#[$doc:meta])* $name:ident, $vfn:ident) => {
        crate::isa_fn! {
            $(#[$doc])*
            pub fn $name(src: &[f64], dst: &mut [f64]) {
                assert_eq!(src.len(), dst.len(), "batch math length mismatch");
                let n = src.len();
                let main = n - n % W;
                let mut i = 0;
                while i < main {
                    let v = F64v::<W>::load(src, i);
                    $vfn(v).store(dst, i);
                    i += W;
                }
                for j in main..n {
                    dst[j] = $vfn(src[j]);
                }
            }
        }
    };
}

batch_fn!(
    /// `dst[i] = exp(src[i])` over the whole slice.
    ///
    /// ```
    /// let src = [0.0, 1.0, 2.0];
    /// let mut dst = [0.0; 3];
    /// finbench_simd::batch::vd_exp(&src, &mut dst);
    /// assert!((dst[1] - std::f64::consts::E).abs() < 1e-15);
    /// ```
    vd_exp, vexp
);

batch_fn!(
    /// `dst[i] = ln(src[i])` over the whole slice.
    vd_ln, vln
);

batch_fn!(
    /// `dst[i] = erf(src[i])` over the whole slice.
    vd_erf, verf
);

batch_fn!(
    /// `dst[i] = norm_cdf(src[i])` over the whole slice.
    vd_norm_cdf, vnorm_cdf
);

crate::isa_fn! {
    /// `dst[i] = sqrt(src[i])`.
    pub fn vd_sqrt(src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "batch math length mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.sqrt();
        }
    }
}

/// Elements per guess-then-polish block of [`vd_inv_norm_cdf_in_place`]:
/// 2 KiB of guesses on the stack, read back out of L1.
const ICDF_BLOCK: usize = 256;

crate::isa_fn! {
    /// First sweep of the inverse normal CDF: `x[i]` = Acklam's guess at
    /// `p[i]`, over whole vectors of `p`.
    fn inv_norm_cdf_guess(p: &[f64], x: &mut [f64]) {
        let main = p.len() - p.len() % W;
        let mut i = 0;
        while i < main {
            vinv_norm_cdf_guess(F64v::<W>::load(p, i)).store(x, i);
            i += W;
        }
    }
}

crate::isa_fn! {
    /// Second sweep: `p[i]` = the guess `x[i]` after its Halley step.
    fn inv_norm_cdf_polish(p: &mut [f64], x: &[f64]) {
        let main = p.len() - p.len() % W;
        let mut i = 0;
        while i < main {
            vinv_norm_cdf_polish(F64v::<W>::load(p, i), F64v::<W>::load(x, i)).store(p, i);
            i += W;
        }
    }
}

/// `xs[i] = inv_norm_cdf(xs[i])` in place, with the scalar function's bits
/// (any `f64` in: `≤ 0 → −∞`, `≥ 1 → +∞`, NaN kept) — the uniform → normal
/// stage of the RNG's normal streams, which transform the block of uniforms
/// they just generated where it lies.
///
/// Two sweeps per cache-resident block, not one: the fused
/// `vinv_norm_cdf` is one ~250-cycle dependency chain per vector, too long
/// for the core to overlap with the next vector's; split at the guess, each
/// sweep's iterations overlap and the pair runs at twice the rate.
pub fn vd_inv_norm_cdf_in_place(xs: &mut [f64]) {
    let mut guess = [0.0; ICDF_BLOCK];
    let (main, tail) = xs.split_at_mut(xs.len() - xs.len() % W);
    for block in main.chunks_mut(ICDF_BLOCK) {
        let guess = &mut guess[..block.len()];
        inv_norm_cdf_guess(block, guess);
        inv_norm_cdf_polish(block, guess);
    }
    for x in tail {
        *x = fm::inv_norm_cdf(*x);
    }
}

/// `dst[i] = inv_norm_cdf(src[i])`: [`vd_inv_norm_cdf_in_place`] on a copy.
pub fn vd_inv_norm_cdf(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "batch math length mismatch");
    dst.copy_from_slice(src);
    vd_inv_norm_cdf_in_place(dst);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64)
            .collect()
    }

    /// `vd` over `src` against `scalar`, element by element, by bits.
    fn assert_batch_is_the_scalar(vd: fn(&[f64], &mut [f64]), scalar: fn(f64) -> f64, src: &[f64]) {
        let mut dst = vec![0.0; src.len()];
        vd(src, &mut dst);
        for (x, got) in src.iter().zip(&dst) {
            assert_eq!(got.to_bits(), scalar(*x).to_bits(), "x={x:e}");
        }
    }

    #[test]
    fn exp_batch_matches_scalar_incl_tail() {
        // 67 elements: 8 full vectors + a 3-element scalar tail.
        assert_batch_is_the_scalar(vd_exp, fm::exp, &ramp(67, -20.0, 20.0));
    }

    #[test]
    fn ln_batch_matches_scalar() {
        assert_batch_is_the_scalar(vd_ln, fm::ln, &ramp(100, 0.001, 1000.0));
    }

    #[test]
    fn erf_and_cnd_batches() {
        let src = ramp(33, -5.0, 5.0);
        assert_batch_is_the_scalar(vd_erf, fm::erf, &src);
        assert_batch_is_the_scalar(vd_norm_cdf, fm::norm_cdf, &src);
    }

    #[test]
    fn cnd_batch_is_the_scalar_through_both_tails_on_every_tier() {
        use crate::isa::{dispatch_as, Isa};
        // 8 003 points of [-38, 38]: central, far-tail and past-37σ lanes
        // share vectors near every switch; the last three take the scalar
        // remainder loop.
        let src = ramp(8_003, -38.0, 38.0);
        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
            let mut dst = vec![0.0; src.len()];
            dispatch_as(isa, || vd_norm_cdf(&src, &mut dst));
            for (x, got) in src.iter().zip(&dst) {
                let want = fm::norm_cdf(*x);
                assert_eq!(got.to_bits(), want.to_bits(), "{} x={x}", isa.name());
            }
        }
    }

    #[test]
    fn sqrt_and_inv_cdf_batches() {
        let src = ramp(17, 0.01, 0.99);
        let mut q = vec![0.0; 17];
        vd_inv_norm_cdf(&src, &mut q);
        let mut in_place = src.clone();
        vd_inv_norm_cdf_in_place(&mut in_place);
        for i in 0..17 {
            assert_eq!(q[i].to_bits(), fm::inv_norm_cdf(src[i]).to_bits());
            assert_eq!(in_place[i].to_bits(), q[i].to_bits());
        }
        let mut r = vec![0.0; 17];
        vd_sqrt(&src, &mut r);
        for i in 0..17 {
            assert_eq!(r[i], src[i].sqrt());
        }
    }

    #[test]
    fn empty_and_subvector_slices() {
        let mut dst: Vec<f64> = vec![];
        vd_exp(&[], &mut dst);
        let src = [1.0, 2.0, 3.0];
        let mut dst = [0.0; 3];
        vd_exp(&src, &mut dst);
        assert!((dst[2] - fm::exp(3.0)).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut dst = [0.0; 2];
        vd_exp(&[1.0, 2.0, 3.0], &mut dst);
    }
}
