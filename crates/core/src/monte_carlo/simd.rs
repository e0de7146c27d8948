//! SIMD + parallel Monte-Carlo kernels.
//!
//! The paper reaches peak Monte-Carlo throughput with only basic tools —
//! inner-loop autovectorization (including the `v0`/`v1` reduction) and
//! `#pragma unroll` to break the accumulator dependency chains. This
//! module is the explicit form of exactly that: `W`-wide lanes with **two
//! independent accumulator pairs** (the unroll), a thread-parallel path
//! driver, and the antithetic-variates extension.

use super::{GbmTerminal, PathSums};
use finbench_parallel::parallel_map_reduce;
use finbench_rng::{normal::fill_standard_normal_icdf, StreamFamily};
use finbench_simd::math::vexp;
use finbench_simd::{isa_fn, F64v, Lanes};

/// Payoffs staged per block by the two sweeps below (4 KiB of stack).
/// The store is what makes them packed code — a sweep that keeps its
/// results in register accumulators gives LLVM nothing to vectorise from
/// (`finbench_simd` crate docs) — and the accumulation reads the block back
/// in the order the unstaged loop added, so the sums keep their bits.
const BLOCK: usize = 512;

isa_fn! {
    /// Vectorized streamed-path accumulation: `W` paths per step, two
    /// accumulator pairs to expose instruction-level parallelism, scalar tail.
    pub fn paths_streamed_simd<const W: usize>(
        s: f64,
        x: f64,
        g: GbmTerminal,
        randoms: &[f64],
    ) -> PathSums {
        assert_eq!(BLOCK % (2 * W), 0, "block must hold whole accumulator pairs");
        let sv = F64v::<W>::splat(s);
        let xv = F64v::<W>::splat(x);
        let zero = F64v::<W>::zero();

        let n = randoms.len();
        let main = n - n % (2 * W);

        let mut v0a = F64v::<W>::zero();
        let mut v1a = F64v::<W>::zero();
        let mut v0b = F64v::<W>::zero();
        let mut v1b = F64v::<W>::zero();

        let mut payoffs = [0.0; BLOCK];
        for zs in randoms[..main].chunks(BLOCK) {
            let payoffs = &mut payoffs[..zs.len()];
            for j in (0..zs.len()).step_by(W) {
                let z = F64v::<W>::load(zs, j);
                (sv * vexp(z * g.v_rt_t + g.mu_t) - xv).max(zero).store(payoffs, j);
            }
            for j in (0..zs.len()).step_by(2 * W) {
                let ra = F64v::<W>::load(payoffs, j);
                let rb = F64v::<W>::load(payoffs, j + W);
                v0a += ra;
                v1a += ra * ra;
                v0b += rb;
                v1b += rb * rb;
            }
        }

        let mut acc = PathSums {
            v0: (v0a + v0b).hsum(),
            v1: (v1a + v1b).hsum(),
            n: main as u64,
        };
        if main < n {
            acc = acc.merge(super::reference::paths_streamed::<f64>(
                s,
                x,
                g,
                &randoms[main..],
            ));
        }
        acc
    }
}

/// Vectorized computed-RNG accumulation: normals are generated into a
/// cache-sized staging buffer from the option's independent stream, then
/// consumed by the SIMD path kernel (Tab. II row 2).
pub fn paths_computed_simd<const W: usize>(
    s: f64,
    x: f64,
    g: GbmTerminal,
    family: &StreamFamily,
    stream_id: u64,
    npath: usize,
) -> PathSums {
    const CHUNK: usize = 2048;
    let mut rng = family.stream(stream_id);
    let mut buf = vec![0.0; CHUNK.min(npath.max(1))];
    let mut acc = PathSums::default();
    let mut left = npath;
    while left > 0 {
        let n = CHUNK.min(left);
        fill_standard_normal_icdf(&mut rng, &mut buf[..n]);
        acc = acc.merge(paths_streamed_simd::<W>(s, x, g, &buf[..n]));
        left -= n;
    }
    acc
}

/// Thread-parallel streamed accumulation: the path range is split into
/// chunks mapped across the pool; partials merge in chunk order, so the
/// result is identical for any worker count.
pub fn paths_streamed_parallel<const W: usize>(
    s: f64,
    x: f64,
    g: GbmTerminal,
    randoms: &[f64],
    workers: usize,
) -> PathSums {
    const CHUNK: usize = 1 << 14;
    parallel_map_reduce(
        randoms.len(),
        CHUNK,
        workers,
        |range| paths_streamed_simd::<W>(s, x, g, &randoms[range]),
        PathSums::merge,
        PathSums::default(),
    )
}

isa_fn! {
    /// Antithetic variates: each normal `z` prices the pair `{z, −z}`,
    /// and the averaged pair payoff enters the estimator. Halves the variance
    /// contribution of the (monotone) payoff's linear component.
    pub fn paths_antithetic<const W: usize>(
        s: f64,
        x: f64,
        g: GbmTerminal,
        randoms: &[f64],
    ) -> PathSums {
        assert_eq!(BLOCK % W, 0, "block must hold whole vectors");
        let sv = F64v::<W>::splat(s);
        let xv = F64v::<W>::splat(x);
        let zero = F64v::<W>::zero();
        let half = F64v::<W>::splat(0.5);

        let n = randoms.len();
        let main = n - n % W;
        let mut v0 = F64v::<W>::zero();
        let mut v1 = F64v::<W>::zero();

        let mut pairs = [0.0; BLOCK];
        for zs in randoms[..main].chunks(BLOCK) {
            let pairs = &mut pairs[..zs.len()];
            for j in (0..zs.len()).step_by(W) {
                let z = F64v::<W>::load(zs, j);
                let up = (sv * vexp(z * g.v_rt_t + g.mu_t) - xv).max(zero);
                let dn = (sv * vexp(-z * g.v_rt_t + g.mu_t) - xv).max(zero);
                ((up + dn) * half).store(pairs, j);
            }
            for j in (0..zs.len()).step_by(W) {
                let pair = F64v::<W>::load(pairs, j);
                v0 += pair;
                v1 += pair * pair;
            }
        }
        let mut acc = PathSums {
            v0: v0.hsum(),
            v1: v1.hsum(),
            n: main as u64,
        };
        for &z in &randoms[main..] {
            let gz = g.v_rt_t * z;
            let up = (s * finbench_math::exp(gz + g.mu_t) - x).max(0.0);
            let dn = (s * finbench_math::exp(-gz + g.mu_t) - x).max(0.0);
            let pair = 0.5 * (up + dn);
            acc.v0 += pair;
            acc.v1 += pair * pair;
            acc.n += 1;
        }
        acc
    }
}

/// Price an option per Tab. II's "options/sec" definition: one option,
/// `npath` paths, returning `(price, standard error)`.
pub fn price_european_call_mc<const W: usize>(
    s: f64,
    x: f64,
    t: f64,
    market: crate::workload::MarketParams,
    npath: usize,
    seed: u64,
) -> (f64, f64) {
    let g = GbmTerminal::new(t, market);
    let fam = StreamFamily::new(seed);
    let sums = paths_computed_simd::<W>(s, x, g, &fam, 0, npath);
    sums.price(market.r, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::reference;
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
    fn simd_matches_scalar_reference() {
        let randoms = normals(100_003, 5); // ragged tail
        let g = GbmTerminal::new(1.0, M);
        let a = reference::paths_streamed::<f64>(100.0, 100.0, g, &randoms);
        let b = paths_streamed_simd::<8>(100.0, 100.0, g, &randoms);
        assert_eq!(a.n, b.n);
        assert!(((a.v0 - b.v0) / a.v0).abs() < 1e-12, "{} vs {}", a.v0, b.v0);
        assert!(((a.v1 - b.v1) / a.v1).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let randoms = normals(200_000, 9);
        let g = GbmTerminal::new(0.5, M);
        let serial = paths_streamed_parallel::<8>(95.0, 100.0, g, &randoms, 1);
        for workers in [2, 4] {
            let par = paths_streamed_parallel::<8>(95.0, 100.0, g, &randoms, workers);
            assert_eq!(serial.v0.to_bits(), par.v0.to_bits(), "workers {workers}");
            assert_eq!(serial.v1.to_bits(), par.v1.to_bits());
        }
    }

    #[test]
    fn computed_simd_matches_computed_scalar_distribution() {
        let g = GbmTerminal::new(1.0, M);
        let fam = StreamFamily::new(13);
        let a = paths_computed_simd::<8>(100.0, 110.0, g, &fam, 0, 150_000);
        let b = reference::paths_computed(100.0, 110.0, g, &fam, 1, 150_000);
        let (pa, sa) = a.price(M.r, 1.0);
        let (pb, sb) = b.price(M.r, 1.0);
        assert!((pa - pb).abs() < 4.0 * (sa * sa + sb * sb).sqrt());
    }

    #[test]
    fn antithetic_reduces_standard_error() {
        let randoms = normals(100_000, 21);
        let g = GbmTerminal::new(1.0, M);
        let plain = paths_streamed_simd::<8>(100.0, 100.0, g, &randoms);
        let anti = paths_antithetic::<8>(100.0, 100.0, g, &randoms);
        // Antithetic uses each z twice: same draw count, lower variance.
        assert_eq!(plain.n, anti.n);
        assert!(
            anti.std_error() < plain.std_error() * 0.9,
            "anti {} plain {}",
            anti.std_error(),
            plain.std_error()
        );
    }

    #[test]
    fn antithetic_estimator_unbiased() {
        let (s, x, t) = (100.0, 100.0, 1.0);
        let (bs, _) = crate::black_scholes::price_single(s, x, t, M);
        let randoms = normals(300_000, 31);
        let anti = paths_antithetic::<8>(s, x, GbmTerminal::new(t, M), &randoms);
        let (p, se) = anti.price(M.r, t);
        assert!((p - bs).abs() < 4.0 * se, "{p} ± {se} vs {bs}");
    }

    #[test]
    fn end_to_end_price_helper() {
        let (s, x, t) = (100.0, 95.0, 2.0);
        let (bs, _) = crate::black_scholes::price_single(s, x, t, M);
        let (p, se) = price_european_call_mc::<8>(s, x, t, M, 262_144, 123);
        assert!((p - bs).abs() < 4.0 * se, "{p} ± {se} vs {bs}");
        assert!(se < 0.1);
    }

    #[test]
    fn empty_random_stream() {
        let g = GbmTerminal::new(1.0, M);
        let sums = paths_streamed_simd::<8>(100.0, 100.0, g, &[]);
        assert_eq!(sums.n, 0);
        assert_eq!(sums.v0, 0.0);
    }
}
