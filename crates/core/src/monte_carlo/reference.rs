//! Basic-level Monte-Carlo kernel: the paper's Lis. 5, scalar path loop.

use super::{GbmTerminal, PathSums};
use finbench_math::Real;
use finbench_rng::{normal::fill_standard_normal_icdf, StreamFamily};
use finbench_simd::isa_fn;

isa_fn! {
    /// Accumulate `randoms.len()` paths for one option from a pre-generated
    /// normal stream (the `STREAM == true` branch of Lis. 5).
    pub fn paths_streamed<R: Real>(s: f64, x: f64, g: GbmTerminal, randoms: &[f64]) -> PathSums {
        let sv = R::splat(s);
        let xv = R::splat(x);
        let vr = R::splat(g.v_rt_t);
        let mu = R::splat(g.mu_t);
        let zero = R::splat(0.0);
        let mut v0 = R::splat(0.0);
        let mut v1 = R::splat(0.0);
        for &z in randoms {
            let res = (sv * (vr * R::splat(z) + mu).exp() - xv).max(zero);
            v0 += res;
            v1 += res * res;
        }
        PathSums {
            v0: v0.into_f64(),
            v1: v1.into_f64(),
            n: randoms.len() as u64,
        }
    }
}

/// Accumulate `npath` paths, generating normals on the fly (the
/// `STREAM == false` branch — "the new set of random numbers is generated
/// for each option"). `stream_id` selects the option's independent stream.
pub fn paths_computed(
    s: f64,
    x: f64,
    g: GbmTerminal,
    family: &StreamFamily,
    stream_id: u64,
    npath: usize,
) -> PathSums {
    const CHUNK: usize = 1024;
    let mut rng = family.stream(stream_id);
    let mut buf = vec![0.0; CHUNK.min(npath.max(1))];
    let mut acc = PathSums::default();
    let mut left = npath;
    while left > 0 {
        let n = CHUNK.min(left);
        fill_standard_normal_icdf(&mut rng, &mut buf[..n]);
        acc = acc.merge(paths_streamed::<f64>(s, x, g, &buf[..n]));
        left -= n;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::black_scholes::price_single;
    use crate::workload::MarketParams;
    use finbench_rng::Mt19937_64;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    fn normals(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Mt19937_64::new(seed);
        let mut buf = vec![0.0; n];
        fill_standard_normal_icdf(&mut rng, &mut buf);
        buf
    }

    #[test]
    fn converges_to_black_scholes() {
        let (s, x, t) = (100.0, 105.0, 1.0);
        let (bs_call, _) = price_single(s, x, t, M);
        let randoms = normals(400_000, 7);
        let sums = paths_streamed::<f64>(s, x, GbmTerminal::new(t, M), &randoms);
        let (price, se) = sums.price(M.r, t);
        assert!(
            (price - bs_call).abs() < 4.0 * se,
            "mc {price} ± {se} vs bs {bs_call}"
        );
        assert!(se < 0.05);
    }

    #[test]
    fn error_scales_as_inverse_sqrt_paths() {
        // The paper: error is O(P^-1/2). Quadrupling paths should halve
        // the standard error (within sampling noise).
        let (s, x, t) = (100.0, 100.0, 2.0);
        let g = GbmTerminal::new(t, M);
        let randoms = normals(256_000, 3);
        let se_small = paths_streamed::<f64>(s, x, g, &randoms[..64_000]).std_error();
        let se_large = paths_streamed::<f64>(s, x, g, &randoms).std_error();
        let ratio = se_small / se_large;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn computed_rng_matches_streamed_distributionally() {
        let (s, x, t) = (90.0, 100.0, 1.5);
        let g = GbmTerminal::new(t, M);
        let fam = StreamFamily::new(55);
        let a = paths_computed(s, x, g, &fam, 0, 200_000);
        let randoms = normals(200_000, 99);
        let b = paths_streamed::<f64>(s, x, g, &randoms);
        let (pa, sa) = a.price(M.r, t);
        let (pb, sb) = b.price(M.r, t);
        assert!(
            (pa - pb).abs() < 4.0 * (sa * sa + sb * sb).sqrt(),
            "{pa} vs {pb}"
        );
    }

    #[test]
    fn computed_rng_deterministic_per_stream() {
        let g = GbmTerminal::new(1.0, M);
        let fam = StreamFamily::new(1);
        let a = paths_computed(100.0, 100.0, g, &fam, 3, 10_000);
        let b = paths_computed(100.0, 100.0, g, &fam, 3, 10_000);
        assert_eq!(a, b);
        let c = paths_computed(100.0, 100.0, g, &fam, 4, 10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn worthless_option_prices_to_zero() {
        let randoms = normals(10_000, 4);
        // Strike absurdly high: every payoff clamps to 0.
        let sums = paths_streamed::<f64>(1.0, 1e9, GbmTerminal::new(0.1, M), &randoms);
        assert_eq!(sums.v0, 0.0);
        assert_eq!(sums.v1, 0.0);
        assert_eq!(sums.price(M.r, 0.1).0, 0.0);
    }

    #[test]
    fn counted_op_mix_per_path() {
        // Lis. 5 inner loop: "3 multiplications, 4 adds, a max operation,
        // and an exp call" (one mul is ours from res*res; count the exact
        // mix our expression produces).
        use finbench_math::CountedF64;
        let randoms = [0.5, -0.3];
        let (_, counts) = finbench_math::counted::counting(|| {
            paths_streamed::<CountedF64>(100.0, 100.0, GbmTerminal::new(1.0, M), &randoms)
        });
        assert_eq!(counts.exps, 2);
        assert_eq!(counts.maxs, 2);
        // per path: vr*z, s*exp, res*res = 3 muls; z*vr+mu, -x, v0+=, v1+= = 4 adds
        assert_eq!(counts.muls, 6);
        assert_eq!(counts.adds, 8);
    }
}
