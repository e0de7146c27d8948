//! Advanced-level PSOR: the paper's wavefront vectorization (Fig. 7).
//!
//! ## The scheme
//!
//! Projected SOR carries two dependences: `u^{k+1}_j` needs `u^{k+1}_{j−1}`
//! (same iteration, previous point) and `u^k_{j+1}` (previous iteration,
//! next point). In the `(iteration, position)` plane the computation is a
//! 2-D dataflow whose legal hyperplanes are `t = 2k + j`: lane `w` of a
//! `W`-wide wavefront computes **iteration `k+w+1` at position `s − 2w`**
//! at sweep step `s`. All cross-lane inputs then come from the previous
//! two steps:
//!
//! * `left  = u^{k+w+1}_{j−1}` — lane `w`'s own output at step `s−1`;
//! * `right = u^{k+w}_{j+1}`  — lane `w−1`'s output at step `s−1`;
//! * `old   = u^{k+w}_{j}`    — lane `w−1`'s output at step `s−2`;
//!
//! with lane 0 reading the base arrays and boundary lanes reading the
//! (iteration-invariant) boundary values. One pass of `s` over
//! `[lo, hi + 2(W−1)]` advances the whole interior by `W` PSOR iterations
//! — exactly the paper's "unroll the convergence loop by a factor of the
//! vector width ... we now check for convergence every 4 or 8 iterations".
//! Prologue and epilogue triangles (Fig. 7) fall out of lane masking.
//!
//! Every `(k, j)` iterate is produced by the *same floating-point
//! expression* as the scalar Lis. 7, so a fixed iteration count yields
//! **bit-identical** state (asserted in tests).
//!
//! Two data layouts:
//! * [`psor_solve_wavefront`] — lanes read `B[s−2w]`, `G[s−2w]` directly:
//!   stride-2 gathers per step (the paper's intermediate "manual SIMD"
//!   bar, still penalized by irregular access).
//! * [`psor_solve_wavefront_soa`] — `B`/`G` are physically re-skewed into
//!   `[step][lane]` order once per solve so the hot loop is unit-stride
//!   (the paper's final data-structure-transform bar; the transform cost
//!   is the residual gap to ideal SIMD scaling it reports).
//!
//! ## Not ISA-dispatched, and not yet packed code
//!
//! Unlike the other kernels' sweeps these solvers do not go through
//! `finbench_simd::isa::dispatch`. The scheme leaves plenty to vectorise —
//! the `W` lanes of one step are independent of each other, each reading
//! only the two previous steps — but this *implementation* of it is a
//! per-lane scalar loop with an activity branch and three data-dependent
//! selects per lane, which no tier compiles to packed code. Measured on an
//! AVX-512 host the AVX2+FMA instantiation moved the two rungs by 0–3 % and
//! the AVX-512 one lost 24–27 %, so the baseline instantiation is the only
//! one.
//!
//! A block that keeps the step rows in memory and computes the lanes with
//! `F64v` arithmetic does vectorise (8 `zmm` operations, 3 scalar) and is
//! slower: 864 against 1 355 solves/s on the 100-step paper problem,
//! because `right` is the previous row loaded one lane over, a load that
//! spans the two stores which wrote that row and so misses store
//! forwarding. The true-vector wavefront needs that shift done in
//! registers, and is open.
//!
//! What bounds these rungs today is set-up, not the block: the paper problem
//! converges in about six scalar PSOR iterations per time step (589 over
//! 100 steps), so the wavefront runs one `W = 8` block on all but one step
//! (808 iterations) and the per-step work around it — payoff refresh,
//! explicit half step, and for the SOA variant the re-skew — is most of a
//! step. `CnProblem::solve` therefore computes the payoff's `exp`s once per
//! solve instead of once per step.

/// One `W`-iteration wavefront block over the interior `[lo, hi]`.
/// Returns the summed squared update of the *last* lane (iteration
/// `k+W−1 → k+W`), matching the scalar per-sweep error.
///
/// `b_g_at(s, w) -> (b, g)` abstracts the two layouts.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn psor_block<const W: usize>(
    u: &mut [f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    b_g_at: impl Fn(usize, usize) -> (f64, f64),
) -> f64 {
    let u_lo = u[lo - 1]; // left boundary, iteration-invariant
    let u_hi = u[hi + 1]; // right boundary

    let mut prev1 = [0.0f64; W]; // lane outputs at step s-1
    let mut prev2 = [0.0f64; W]; // lane outputs at step s-2
    let mut error = 0.0f64;

    for s in lo..=(hi + 2 * (W - 1)) {
        let mut new = [0.0f64; W];
        for w in 0..W {
            let j_signed = s as isize - 2 * w as isize;
            if j_signed < lo as isize || j_signed > hi as isize {
                continue; // inactive lane (prologue/epilogue triangle)
            }
            let j = j_signed as usize;

            let left = if j == lo { u_lo } else { prev1[w] };
            let right = if j == hi {
                u_hi
            } else if w == 0 {
                u[j + 1]
            } else {
                prev1[w - 1]
            };
            let old = if w == 0 { u[j] } else { prev2[w - 1] };

            let (b, g) = b_g_at(s, w);
            // Identical expression to reference::psor_sweep.
            let y = coeff * (b + alphah * (left + right));
            let mut val = old + omega * (y - old);
            if american {
                val = val.max(g);
            }
            new[w] = val;

            if w == W - 1 {
                let err = val - old;
                error += err * err;
                u[j] = val;
            }
        }
        prev2 = prev1;
        prev1 = new;
    }
    error
}

/// Wavefront PSOR with in-place strided access to `b`/`g` (manual-SIMD
/// level). Returns total iterations performed (a multiple of `W`).
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    eps: f64,
) -> usize {
    assert!(W >= 1 && lo >= 1 && hi >= lo && hi + 1 < u.len());
    let mut iters = 0;
    loop {
        let error = psor_block::<W>(u, lo, hi, alphah, coeff, omega, american, |s, w| {
            let j = s - 2 * w;
            (b[j], g[j])
        });
        iters += W;
        if error <= eps || iters >= 10_000 {
            return iters;
        }
    }
}

/// Run exactly `blocks` wavefront blocks (= `blocks·W` PSOR iterations)
/// with no convergence check — the fixed-iteration entry point used by
/// the bit-exactness tests and the ablation benchmarks.
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront_fixed_blocks<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    blocks: usize,
) -> f64 {
    assert!(W >= 1 && lo >= 1 && hi >= lo && hi + 1 < u.len());
    let mut last_error = 0.0;
    for _ in 0..blocks {
        last_error = psor_block::<W>(u, lo, hi, alphah, coeff, omega, american, |s, w| {
            let j = s - 2 * w;
            (b[j], g[j])
        });
    }
    last_error
}

/// Re-skew `src[lo..=hi]` into wavefront order: entry `(s − lo)·W + w`
/// holds `src[s − 2w]` (0 where the lane is inactive). This is the
/// paper's "physically rearranging the B, G and U arrays for contiguous
/// access".
pub fn skew_for_wavefront<const W: usize>(src: &[f64], lo: usize, hi: usize) -> Vec<f64> {
    let steps = hi - lo + 1 + 2 * (W - 1);
    let mut out = vec![0.0; steps * W];
    for s in lo..=(hi + 2 * (W - 1)) {
        for w in 0..W {
            let j = s as isize - 2 * w as isize;
            if j >= lo as isize && j <= hi as isize {
                out[(s - lo) * W + w] = src[j as usize];
            }
        }
    }
    out
}

/// Wavefront PSOR over pre-skewed `b`/`g` copies (data-transform level):
/// the hot loop reads `bsk[(s−lo)·W + w]` — unit stride across lanes. The
/// skewing itself is charged to this call, as in the paper.
#[allow(clippy::too_many_arguments)]
pub fn psor_solve_wavefront_soa<const W: usize>(
    u: &mut [f64],
    b: &[f64],
    g: &[f64],
    lo: usize,
    hi: usize,
    alphah: f64,
    coeff: f64,
    omega: f64,
    american: bool,
    eps: f64,
) -> usize {
    assert!(W >= 1 && lo >= 1 && hi >= lo && hi + 1 < u.len());
    let bsk = skew_for_wavefront::<W>(b, lo, hi);
    let gsk = skew_for_wavefront::<W>(g, lo, hi);
    let mut iters = 0;
    loop {
        let error = psor_block::<W>(u, lo, hi, alphah, coeff, omega, american, |s, w| {
            let idx = (s - lo) * W + w;
            (bsk[idx], gsk[idx])
        });
        iters += W;
        if error <= eps || iters >= 10_000 {
            return iters;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crank_nicolson::reference::psor_sweep;

    /// Deterministic pseudo-random test vectors.
    fn test_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut draw = || {
            state = finbench_rng::SplitMix64::mix(state);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let u: Vec<f64> = (0..n).map(|_| draw() * 2.0).collect();
        let b: Vec<f64> = (0..n).map(|_| draw()).collect();
        let g: Vec<f64> = (0..n).map(|_| draw() * 1.5).collect();
        (u, b, g)
    }

    const ALPHA: f64 = 1.46;
    const ALPHAH: f64 = ALPHA / 2.0;
    const COEFF: f64 = 1.0 / (1.0 + ALPHA);

    #[allow(clippy::too_many_arguments)]
    fn scalar_k_sweeps(
        u: &mut [f64],
        b: &[f64],
        g: &[f64],
        lo: usize,
        hi: usize,
        omega: f64,
        american: bool,
        k: usize,
    ) -> f64 {
        let mut last = 0.0;
        for _ in 0..k {
            last = psor_sweep(u, b, g, lo, hi, ALPHAH, COEFF, omega, american);
        }
        last
    }

    #[test]
    fn one_block_is_bit_identical_to_w_scalar_sweeps() {
        for american in [false, true] {
            for n in [8usize, 16, 37, 64, 256] {
                let (u0, b, g) = test_system(n, 1234 + n as u64);
                let (lo, hi) = (1, n - 2);

                let mut us = u0.clone();
                let err_s = scalar_k_sweeps(&mut us, &b, &g, lo, hi, 1.3, american, 8);

                let mut uw = u0.clone();
                let err_w =
                    psor_block::<8>(&mut uw, lo, hi, ALPHAH, COEFF, 1.3, american, |s, w| {
                        let j = s - 2 * w;
                        (b[j], g[j])
                    });

                for j in 0..n {
                    assert_eq!(
                        us[j].to_bits(),
                        uw[j].to_bits(),
                        "american={american} n={n} j={j}: {} vs {}",
                        us[j],
                        uw[j]
                    );
                }
                assert_eq!(
                    err_s.to_bits(),
                    err_w.to_bits(),
                    "error american={american} n={n}"
                );
            }
        }
    }

    #[test]
    fn multiple_blocks_track_scalar() {
        let n = 128;
        let (u0, b, g) = test_system(n, 777);
        let (lo, hi) = (1, n - 2);

        let mut us = u0.clone();
        scalar_k_sweeps(&mut us, &b, &g, lo, hi, 1.5, true, 24);

        let mut uw = u0.clone();
        for _ in 0..3 {
            psor_block::<8>(&mut uw, lo, hi, ALPHAH, COEFF, 1.5, true, |s, w| {
                let j = s - 2 * w;
                (b[j], g[j])
            });
        }
        for j in 0..n {
            assert_eq!(us[j].to_bits(), uw[j].to_bits(), "j={j}");
        }
    }

    #[test]
    fn width_one_block_equals_one_scalar_sweep() {
        let n = 32;
        let (u0, b, g) = test_system(n, 5);
        let mut us = u0.clone();
        let err_s = scalar_k_sweeps(&mut us, &b, &g, 1, n - 2, 1.0, true, 1);
        let mut uw = u0.clone();
        let err_w = psor_block::<1>(&mut uw, 1, n - 2, ALPHAH, COEFF, 1.0, true, |s, _| {
            (b[s], g[s])
        });
        assert_eq!(err_s.to_bits(), err_w.to_bits());
        for j in 0..n {
            assert_eq!(us[j].to_bits(), uw[j].to_bits());
        }
    }

    #[test]
    fn widths_4_and_8_reach_same_fixed_point() {
        let n = 96;
        let (u0, b, g) = test_system(n, 9);
        let mut u4 = u0.clone();
        let mut u8 = u0.clone();
        psor_solve_wavefront::<4>(&mut u4, &b, &g, 1, n - 2, ALPHAH, COEFF, 1.4, true, 1e-26);
        psor_solve_wavefront::<8>(&mut u8, &b, &g, 1, n - 2, ALPHAH, COEFF, 1.4, true, 1e-26);
        for j in 0..n {
            assert!(
                (u4[j] - u8[j]).abs() < 1e-11,
                "j={j}: {} vs {}",
                u4[j],
                u8[j]
            );
        }
    }

    #[test]
    fn soa_variant_identical_to_strided_variant() {
        let n = 200;
        let (u0, b, g) = test_system(n, 31);
        let mut ua = u0.clone();
        let mut ub = u0.clone();
        let ia =
            psor_solve_wavefront::<8>(&mut ua, &b, &g, 1, n - 2, ALPHAH, COEFF, 1.2, true, 1e-24);
        let ib = psor_solve_wavefront_soa::<8>(
            &mut ub,
            &b,
            &g,
            1,
            n - 2,
            ALPHAH,
            COEFF,
            1.2,
            true,
            1e-24,
        );
        assert_eq!(ia, ib);
        for j in 0..n {
            assert_eq!(ua[j].to_bits(), ub[j].to_bits(), "j={j}");
        }
    }

    #[test]
    fn skew_layout_places_entries_correctly() {
        let src: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let sk = skew_for_wavefront::<4>(&src, 1, 8);
        // step s, lane w holds src[s - 2w] when 1 <= s-2w <= 8.
        for s in 1..=(8 + 6) {
            for w in 0..4usize {
                let j = s as isize - 2 * w as isize;
                let got = sk[(s - 1) * 4 + w];
                if (1..=8).contains(&j) {
                    assert_eq!(got, j as f64, "s={s} w={w}");
                } else {
                    assert_eq!(got, 0.0, "s={s} w={w}");
                }
            }
        }
    }

    #[test]
    fn wavefront_converges_on_manufactured_problem() {
        // Same manufactured diffusion system as the reference tests.
        let n = 64;
        let alpha = 0.8;
        let target: Vec<f64> = (0..n)
            .map(|j| (j as f64 * 0.37).sin().abs() + 0.5)
            .collect();
        let mut b = vec![0.0; n];
        for j in 1..n - 1 {
            b[j] = (1.0 + alpha) * target[j] - 0.5 * alpha * (target[j - 1] + target[j + 1]);
        }
        let g = vec![f64::NEG_INFINITY; n];
        let mut u = vec![0.0; n];
        u[0] = target[0];
        u[n - 1] = target[n - 1];
        let iters = psor_solve_wavefront::<8>(
            &mut u,
            &b,
            &g,
            1,
            n - 2,
            alpha / 2.0,
            1.0 / (1.0 + alpha),
            1.2,
            false,
            1e-28,
        );
        assert!(iters < 10_000);
        for j in 0..n {
            assert!((u[j] - target[j]).abs() < 1e-10, "j={j}");
        }
    }
}
