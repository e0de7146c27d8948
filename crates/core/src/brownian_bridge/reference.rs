//! Basic-level Brownian bridge: the paper's Lis. 4, scalar depth-level
//! construction with ping-ponged `src`/`dst` buffers.

use super::BridgePlan;
use finbench_math::Real;

/// Build one path into `out` (length `plan.points()`), consuming
/// `plan.randoms_per_path()` normals from `randoms`. Returns the number of
/// randoms consumed.
///
/// `out[0]` is pinned to 0; `out[k]` is `W(k·T/2^depth)`.
pub fn build_path<R: Real>(plan: &BridgePlan, randoms: &[f64], out: &mut [f64]) -> usize {
    assert_eq!(
        out.len(),
        plan.points(),
        "output must hold 2^depth + 1 points"
    );
    assert!(
        randoms.len() >= plan.randoms_per_path(),
        "need {} randoms",
        plan.randoms_per_path()
    );

    let points = plan.points();
    let mut src: Vec<R> = vec![R::splat(0.0); points];
    let mut dst: Vec<R> = vec![R::splat(0.0); points];

    let mut i = 0usize;
    src[0] = R::splat(0.0);
    src[1] = R::splat(randoms[i]) * R::splat(plan.last_sig);
    i += 1;

    for d in 0..plan.depth {
        dst[0] = src[0];
        for c in 0..(1usize << d) {
            dst[2 * c + 1] = src[c] * R::splat(plan.w_l[d][c])
                + src[c + 1] * R::splat(plan.w_r[d][c])
                + R::splat(plan.sig[d][c]) * R::splat(randoms[i]);
            i += 1;
            dst[2 * c + 2] = src[c + 1];
        }
        core::mem::swap(&mut src, &mut dst);
    }

    for (o, s) in out.iter_mut().zip(src.iter()) {
        *o = s.into_f64();
    }
    i
}

/// Build `sim_n` consecutive paths into the row-major `out` buffer
/// (`sim_n × plan.points()`), consuming randoms sequentially — the
/// paper's full Lis. 4 loop.
pub fn build_paths<R: Real>(plan: &BridgePlan, randoms: &[f64], out: &mut [f64], sim_n: usize) {
    let points = plan.points();
    let per_path = plan.randoms_per_path();
    assert_eq!(out.len(), sim_n * points, "output buffer size mismatch");
    assert!(randoms.len() >= sim_n * per_path, "not enough randoms");
    for s in 0..sim_n {
        build_path::<R>(
            plan,
            &randoms[s * per_path..(s + 1) * per_path],
            &mut out[s * points..(s + 1) * points],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_rng::{normal::fill_standard_normal_icdf, Mt19937_64};

    #[test]
    fn zero_randoms_give_zero_path() {
        let plan = BridgePlan::new(4, 1.0);
        let randoms = vec![0.0; plan.randoms_per_path()];
        let mut out = vec![f64::NAN; plan.points()];
        let used = build_path::<f64>(&plan, &randoms, &mut out);
        assert_eq!(used, 16);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn unit_endpoint_rest_zero_gives_linear_interpolation() {
        // With only the endpoint normal nonzero, every midpoint is the
        // average of its neighbours => the path is exactly linear.
        let plan = BridgePlan::new(5, 4.0);
        let mut randoms = vec![0.0; plan.randoms_per_path()];
        randoms[0] = 1.0;
        let mut out = vec![0.0; plan.points()];
        build_path::<f64>(&plan, &randoms, &mut out);
        let end = plan.last_sig; // = 2.0
        for (k, &v) in out.iter().enumerate() {
            let want = end * k as f64 / plan.steps() as f64;
            assert!((v - want).abs() < 1e-14, "k={k}: {v} vs {want}");
        }
    }

    #[test]
    fn depth_one_by_hand() {
        let plan = BridgePlan::new(1, 1.0);
        let randoms = [2.0, -1.0];
        let mut out = vec![0.0; 3];
        build_path::<f64>(&plan, &randoms, &mut out);
        let end = 2.0 * 1.0; // r0 * sqrt(T)
        let mid = 0.5 * end - 0.5; // w_l*0 + w_r*end + sig*r1 with sig = sqrt(1)/2, r1 = -1
        assert_eq!(out[0], 0.0);
        assert!((out[1] - mid).abs() < 1e-15);
        assert!((out[2] - end).abs() < 1e-15);
    }

    #[test]
    fn marginal_variance_matches_brownian_motion() {
        // Var[W(t_k)] must equal t_k: check empirically at the quarter
        // points over many paths.
        let plan = BridgePlan::new(6, 2.0);
        let n_paths = 20_000;
        let per = plan.randoms_per_path();
        let mut rng = Mt19937_64::new(12345);
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);
        let mut out = vec![0.0; n_paths * plan.points()];
        build_paths::<f64>(&plan, &randoms, &mut out, n_paths);

        for frac in [16usize, 32, 48, 64] {
            let t_k = 2.0 * frac as f64 / 64.0;
            let mut var = 0.0;
            for p in 0..n_paths {
                let v = out[p * plan.points() + frac];
                var += v * v;
            }
            var /= n_paths as f64;
            // se of a variance estimate ~ var * sqrt(2/n) ~ 1%.
            assert!((var - t_k).abs() < 0.06 * t_k, "t={t_k} var={var}");
        }
    }

    #[test]
    fn increments_are_uncorrelated() {
        let plan = BridgePlan::new(5, 1.0);
        let n_paths = 20_000;
        let per = plan.randoms_per_path();
        let mut rng = Mt19937_64::new(777);
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);
        let mut out = vec![0.0; n_paths * plan.points()];
        build_paths::<f64>(&plan, &randoms, &mut out, n_paths);

        // Increments over [0, T/4] and [T/2, 3T/4] (disjoint spans).
        let (a0, a1, b0, b1) = (0usize, 8usize, 16usize, 24usize);
        let mut cov = 0.0;
        let dt = 0.25;
        for p in 0..n_paths {
            let row = &out[p * plan.points()..(p + 1) * plan.points()];
            let da = row[a1] - row[a0];
            let db = row[b1] - row[b0];
            cov += da * db;
        }
        cov /= n_paths as f64;
        // cov se ~ dt/sqrt(n) ~ 0.0018; 5-sigma band.
        assert!(cov.abs() < 5.0 * dt / (n_paths as f64).sqrt(), "cov={cov}");
    }

    #[test]
    fn multi_path_build_consumes_disjoint_randoms() {
        let plan = BridgePlan::new(3, 1.0);
        let per = plan.randoms_per_path();
        let randoms: Vec<f64> = (0..3 * per).map(|i| i as f64 * 0.01).collect();
        let mut all = vec![0.0; 3 * plan.points()];
        build_paths::<f64>(&plan, &randoms, &mut all, 3);
        // Path 1 built standalone from its slice must match.
        let mut single = vec![0.0; plan.points()];
        build_path::<f64>(&plan, &randoms[per..2 * per], &mut single);
        assert_eq!(&all[plan.points()..2 * plan.points()], &single[..]);
    }

    #[test]
    #[should_panic(expected = "output must hold")]
    fn wrong_output_size_panics() {
        let plan = BridgePlan::new(3, 1.0);
        let randoms = vec![0.0; 8];
        let mut out = vec![0.0; 4];
        build_path::<f64>(&plan, &randoms, &mut out);
    }
}
