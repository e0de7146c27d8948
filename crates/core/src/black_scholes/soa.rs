//! SOA Black-Scholes kernels: the intermediate (SIMD across options) and
//! advanced (erf + call/put parity) levels, plus thread-parallel drivers.
//!
//! Both SIMD drivers step two `W`-lane registers at a time ([`Pair`]), then
//! one, then the scalar tail: a body is one long dependency chain per
//! vector (~400 packed operations, a dozen of them divides or roots), and a
//! second chain interleaved op by op keeps the ports busy where one left
//! them waiting on latency — the paper's manual unrolling. The bits are
//! those of one register per step.
//!
//! **`advanced_erf_parity_w_8` is kept, and is slower than the Intermediate
//! rung here** (ROADMAP item 10(b)). The paper's Advanced level trades four
//! `cnd` for two `erf` because its library `erf` is the cheaper function.
//! Ours is `2Φ(x√2) − 1` — `cnd`'s Gaussian, rational and division — plus a
//! Maclaurin series blended in below `|x| = ½`, so each `erf` costs a `cnd`
//! and more, while [`price_vec_cnd`] gets all four `Φ` values from two
//! [`norm_cdf_pair`]s: two Gaussians and two divisions either way, and the
//! series on top for `erf`. Measured on a 2-vCPU AVX-512 Xeon (fastest of
//! 500 sweeps of a 20 000-option batch, both stepping register pairs): the
//! Intermediate W=8 body 96–98 M options/s, `erf` + parity W=8 84–88 M; before
//! the pairs, 71 M and 72 M. The rung and
//! [`price_soa_simd_erf_parity_into`] stay: the serving plane's planned lane
//! and the benchmark's probe run them.

use crate::workload::{MarketParams, OptionBatchSoa};
use finbench_math as fm;
use finbench_math::norm::{cnd_rational, norm_cdf_pair};
use finbench_parallel::parallel_for_chunks2;
use finbench_simd::{isa_fn, paired_end, Block, F64v, Lanes, Pair};

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Shape check shared by every `*_into` kernel: all five caller-owned
/// slices must cover the same `n` options.
#[inline]
fn assert_into_shape(s: &[f64], x: &[f64], t: &[f64], call: &[f64], put: &[f64]) -> usize {
    let n = s.len();
    assert!(
        x.len() == n && t.len() == n && call.len() == n && put.len() == n,
        "output slices must match the batch"
    );
    n
}

isa_fn! {
    /// Scalar SOA sweep into caller-owned output slices — the allocation-free
    /// form of [`price_soa_scalar`]: the AOS reference's closed form
    /// ([`super::price_single`]) over unit-stride accesses.
    pub fn price_soa_scalar_into(
        s: &[f64],
        x: &[f64],
        t: &[f64],
        call: &mut [f64],
        put: &mut [f64],
        market: MarketParams,
    ) {
        let n = assert_into_shape(s, x, t, call, put);
        for i in 0..n {
            (call[i], put[i]) = super::price_single(s[i], x[i], t[i], market);
        }
    }
}

/// Scalar loop over the SOA layout — same arithmetic as the AOS reference,
/// unit-stride accesses. Isolates the layout effect from vectorization.
pub fn price_soa_scalar(batch: &mut OptionBatchSoa, market: MarketParams) {
    let OptionBatchSoa { s, x, t, call, put } = batch;
    price_soa_scalar_into(s, x, t, call, put, market);
}

/// Price one vector of options, one per lane: the intermediate body
/// behind [`price_soa_simd_into`], generic over [`Lanes`] as
/// [`call_hoisted`] is, so its `CountedF64` instance is the op-count audit
/// of the machine model's Intermediate descriptor. `Φ(d)` and `Φ(−d)` come
/// from one [`norm_cdf_pair`] per `d`: one `ln`, three `exp` (the discount
/// and one Gaussian per `|d|`) and two rationals' divisions where four
/// `cnd` took four of each; every output bit is the four calls'.
#[inline(always)]
pub fn price_vec_cnd<L: Lanes>(s: L, x: L, t: L, market: MarketParams) -> (L, L) {
    let r = market.r;
    let sig = market.sigma;
    let sig22 = sig * sig * 0.5;
    let qlog = (s / x).ln();
    let denom = L::splat(1.0) / (t.sqrt() * sig);
    let d1 = (qlog + t * (r + sig22)) * denom;
    let d2 = (qlog + t * (r - sig22)) * denom;
    let xexp = x * (-(t * r)).exp();
    let (nd1, nmd1) = norm_cdf_pair(d1);
    let (nd2, nmd2) = norm_cdf_pair(d2);
    let call = s * nd1 - xexp * nd2;
    let put = xexp * nmd2 - s * nmd1;
    (call, put)
}

/// One scenario's shocked market, reduced to the scalars [`call_hoisted`]
/// reads: everything that depends on the scenario and not on the position,
/// computed once per scenario instead of once per (position, scenario).
#[derive(Debug, Clone, Copy)]
pub struct ShockedMarket {
    /// Spot multiplier `b = 1 + spot shock`.
    bump: f64,
    /// `ln b`: the shocked `ln(s·b/x)` is `ln(s/x) + ln b`.
    ln_bump: f64,
    r: f64,
    sigma: f64,
    /// `r + σ²/2`, the drift term of `d1`.
    drift: f64,
}

impl ShockedMarket {
    /// `market` under a relative spot shock, a relative volatility shock and
    /// an additive rate shock (all zero: the base market, bit for bit).
    #[inline(always)]
    pub fn new(market: MarketParams, spot: f64, vol: f64, rate: f64) -> Self {
        let bump = 1.0 + spot;
        let r = market.r + rate;
        let sigma = market.sigma * (1.0 + vol);
        Self {
            bump,
            ln_bump: fm::ln(bump),
            r,
            sigma,
            drift: r + sigma * sigma * 0.5,
        }
    }
}

/// `(n, q)` with `Φ(d) = [d > 0] + exp(−d²/2) · n / q`: Φ's rational
/// pair for `|d|`, its numerator negated where `d > 0`.
#[inline(always)]
fn cnd_excess<L: Lanes>(d: L) -> (L, L) {
    let (num, den) = cnd_rational(d.abs());
    (L::select(d.gt(L::splat(0.0)), -num, num), den)
}

/// The call leg of `price_vec_cnd` for a position whose `sqrt_t = √t`
/// and `lsx = ln(s/x)` are already known, under one scenario's
/// [`ShockedMarket`]; no `ln`, no `s/x`, no root, and the put is never
/// formed. This is the operation-count pass the paper's advanced level is,
/// applied along the scenario axis of `crate::portfolio`, whose sweep is
/// the `F64v<W>` instance; the `CountedF64` instance is the op-count audit
/// of the machine model's portfolio descriptor, as [`super::price_single`]
/// is for Black-Scholes.
///
/// One Gaussian serves both `Φ`s: with `S' = s·b` and `K = x·e^(−rt)`,
/// `S'·φ(d1) = K·φ(d2)`, so writing each `Φ(d)` as
/// `[d > 0] + exp(−d²/2)·n/q` ([`cnd_excess`]) gives
///
/// `call = S'·[d1 > 0] − K·[d2 > 0] + S'·g1·(n1·q2 − n2·q1) / (q1·q2)`
///
/// with `g1 = exp(−d1²/2)`: two `exp` (the discount and `g1`), the division
/// by `σ√t` and the one shared division, where two `cnd` cost two `exp`
/// and two divisions of their own. Past 37σ a pair is `(0, 1)` before the
/// products, so no lane's `q1·q2` overflows; NaN in, NaN out. The bits are
/// not `S'·Φ(d1) − K·Φ(d2)`'s; within 1e-12 of [`super::price_single`]
/// (`hoisted_call_edge_lanes_*`).
///
/// The division by `σ√t` could be a product of two reciprocals (`1/√t` per
/// position, `1/σ` per scenario): three roundings for one, so other bits,
/// and measured worth nothing while the divider was not the bottleneck —
/// see EXPERIMENTS.md.
#[inline(always)]
pub fn call_hoisted<L: Lanes>(s: L, x: L, t: L, sqrt_t: L, lsx: L, m: &ShockedMarket) -> L {
    let vol = sqrt_t * m.sigma;
    let d1 = (lsx + m.ln_bump + t * m.drift) / vol;
    let d2 = d1 - vol;
    let spot = s * m.bump;
    let strike = x * (-(t * m.r)).exp();
    let (n1, q1) = cnd_excess(d1);
    let (n2, q2) = cnd_excess(d2);
    let zero = L::splat(0.0);
    let intrinsic = L::select(d1.gt(zero), spot, zero) - L::select(d2.gt(zero), strike, zero);
    intrinsic + spot * (d1 * d1 * -0.5).exp() * ((n1 * q2 - n2 * q1) / (q1 * q2))
}

/// The advanced vector body: `cnd → erf` substitution
/// (`cnd(x) = (1 + erf(x/√2))/2`) plus call/put parity
/// (`put = call − S + X·e^(−rT)`), cutting the per-option transcendental
/// count from four `cnd` to two `erf`.
#[inline(always)]
fn price_vec_erf_parity<L: Lanes>(s: L, x: L, t: L, market: MarketParams) -> (L, L) {
    let r = market.r;
    let sig = market.sigma;
    let sig22 = sig * sig * 0.5;
    let qlog = (s / x).ln();
    let denom = L::splat(1.0) / (t.sqrt() * sig);
    let d1 = (qlog + t * (r + sig22)) * denom;
    let d2 = (qlog + t * (r - sig22)) * denom;
    let xexp = x * (-(t * r)).exp();
    let nd1 = ((d1 * FRAC_1_SQRT_2).erf() + 1.0) * 0.5;
    let nd2 = ((d2 * FRAC_1_SQRT_2).erf() + 1.0) * 0.5;
    let call = s * nd1 - xexp * nd2;
    let put = call - s + xexp;
    (call, put)
}

macro_rules! soa_simd_driver {
    ($(#[$doc_into:meta])* $name_into:ident,
     $(#[$doc:meta])* $name:ident, $body:ident) => {
        isa_fn! {
            $(#[$doc_into])*
            pub fn $name_into<const W: usize>(
                s: &[f64],
                x: &[f64],
                t: &[f64],
                call: &mut [f64],
                put: &mut [f64],
                market: MarketParams,
            ) {
                #[inline(always)]
                fn step<L: Block>(
                    s: &[f64],
                    x: &[f64],
                    t: &[f64],
                    call: &mut [f64],
                    put: &mut [f64],
                    market: MarketParams,
                    i: usize,
                ) {
                    let (c, p) = $body(L::load(s, i), L::load(x, i), L::load(t, i), market);
                    c.store(call, i);
                    p.store(put, i);
                }

                let n = assert_into_shape(s, x, t, call, put);
                let (pairs, main) = (paired_end::<W>(n), n - n % W);
                let mut i = 0;
                while i < pairs {
                    step::<Pair<F64v<W>>>(s, x, t, call, put, market, i);
                    i += 2 * W;
                }
                while i < main {
                    step::<F64v<W>>(s, x, t, call, put, market, i);
                    i += W;
                }
                for j in main..n {
                    let (c, p) = super::price_single(s[j], x[j], t[j], market);
                    call[j] = c;
                    put[j] = p;
                }
            }
        }

        $(#[$doc])*
        pub fn $name<const W: usize>(batch: &mut OptionBatchSoa, market: MarketParams) {
            let OptionBatchSoa { s, x, t, call, put } = batch;
            $name_into::<W>(s, x, t, call, put, market);
        }
    };
}

soa_simd_driver!(
    /// Allocation-free form of [`price_soa_simd`]: SIMD across options
    /// into caller-owned output slices.
    price_soa_simd_into,
    /// Intermediate level: SIMD across options on the SOA layout, one
    /// option per lane, vector `cnd`.
    price_soa_simd, price_vec_cnd
);

soa_simd_driver!(
    /// Allocation-free form of [`price_soa_simd_erf_parity`] into
    /// caller-owned output slices.
    price_soa_simd_erf_parity_into,
    /// Advanced level: SIMD + `erf` substitution + call/put parity.
    price_soa_simd_erf_parity, price_vec_erf_parity
);

/// Thread-parallel driver over the advanced kernel on the workspace's
/// own chunk-dispenser pool (the paper's `#pragma omp parallel for` over
/// the option loop). `W` is the SIMD width, `chunk` the per-task option
/// count; one worker per available CPU.
pub fn par_price_soa<const W: usize>(
    batch: &mut OptionBatchSoa,
    market: MarketParams,
    chunk: usize,
) {
    let chunk = chunk.max(1);
    let workers = finbench_parallel::available_parallelism();
    let OptionBatchSoa { s, x, t, call, put } = batch;
    // Each task prices straight into its disjoint `call`/`put` spans:
    // nothing is staged, so the pooled rung allocates nothing lane-side.
    parallel_for_chunks2(call, put, chunk, workers, |base, call, put| {
        let end = base + call.len();
        price_soa_simd_erf_parity_into::<W>(
            &s[base..end],
            &x[base..end],
            &t[base..end],
            call,
            put,
            market,
        );
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::WorkloadRanges;
    use finbench_simd::isa::{dispatch_as, Isa};
    use finbench_simd::math::vln;

    fn batch(n: usize) -> OptionBatchSoa {
        OptionBatchSoa::random(n, 21, WorkloadRanges::default())
    }

    fn assert_close(a: &OptionBatchSoa, b: &OptionBatchSoa, tol: f64, label: &str) {
        for i in 0..a.len() {
            assert!(
                (a.call[i] - b.call[i]).abs() <= tol * a.call[i].abs().max(1.0),
                "{label} call {i}: {} vs {}",
                a.call[i],
                b.call[i]
            );
            assert!(
                (a.put[i] - b.put[i]).abs() <= tol * a.put[i].abs().max(1.0),
                "{label} put {i}: {} vs {}",
                a.put[i],
                b.put[i]
            );
        }
    }

    #[test]
    fn soa_scalar_matches_aos_reference() {
        // Bit for bit under every supported ISA tier, on the quick registry
        // workload (`WorkloadSpec::measure(true)`: seed 1, 20 000 options)
        // and on edge contracts: deep in and out of the money, expiries next
        // to zero.
        let mut soa = OptionBatchSoa::random(20_000, 1, WorkloadRanges::default());
        for (s, x, t) in [
            (500.0, 1.0, 1.0),
            (1.0, 500.0, 1.0),
            (30.0, 1.0, 10.0),
            (5.0, 100.0, 0.25),
            (30.0, 30.0, 1e-12),
            (30.0, 29.0, 1e-9),
            (30.0, 31.0, 1e-6),
            (100.0, 1.0, 1e-12),
        ] {
            soa.s.push(s);
            soa.x.push(x);
            soa.t.push(t);
            soa.call.push(0.0);
            soa.put.push(0.0);
        }
        let mut aos = soa.to_aos();
        crate::black_scholes::reference::price_aos::<f64>(&mut aos, MarketParams::PAPER);
        let bits = |b: &OptionBatchSoa| -> Vec<u64> {
            b.call.iter().chain(&b.put).map(|v| v.to_bits()).collect()
        };
        let want = bits(&aos.to_soa());
        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
            let mut got = soa.clone();
            dispatch_as(isa, || price_soa_scalar(&mut got, MarketParams::PAPER));
            assert!(bits(&got) == want, "{isa:?}: SOA scalar differs from AOS");
        }
    }

    #[test]
    fn simd_matches_scalar() {
        let m = MarketParams::PAPER;
        let mut a = batch(1001);
        let mut b = a.clone();
        price_soa_scalar(&mut a, m);
        price_soa_simd::<8>(&mut b, m);
        assert_close(&a, &b, 1e-13, "simd");
    }

    #[test]
    fn erf_parity_matches_scalar() {
        let m = MarketParams::PAPER;
        let mut a = batch(1001);
        let mut b = a.clone();
        price_soa_scalar(&mut a, m);
        price_soa_simd_erf_parity::<8>(&mut b, m);
        assert_close(&a, &b, 1e-12, "erf-parity");
    }

    #[test]
    fn widths_agree() {
        let m = MarketParams::PAPER;
        let mut a = batch(256);
        let mut b = a.clone();
        price_soa_simd::<4>(&mut a, m);
        price_soa_simd::<8>(&mut b, m);
        assert_close(&a, &b, 1e-15, "width");
    }

    #[test]
    fn parallel_driver_matches_serial() {
        let m = MarketParams::PAPER;
        let mut a = batch(10_000);
        let mut b = a.clone();
        price_soa_simd_erf_parity::<8>(&mut a, m);
        par_price_soa::<8>(&mut b, m, 512);
        assert_close(&a, &b, 1e-15, "parallel");
    }

    #[test]
    fn into_forms_are_bit_identical_to_batch_forms() {
        let m = MarketParams::PAPER;
        // 101 is deliberately ragged so the scalar tails run too.
        let base = batch(101);
        let mut call = vec![0.0; base.len()];
        let mut put = vec![0.0; base.len()];
        for (run_batch, run_into, label) in [
            (
                price_soa_scalar as fn(&mut OptionBatchSoa, MarketParams),
                price_soa_scalar_into
                    as fn(&[f64], &[f64], &[f64], &mut [f64], &mut [f64], MarketParams),
                "scalar",
            ),
            (price_soa_simd::<8>, price_soa_simd_into::<8>, "simd"),
            (
                price_soa_simd_erf_parity::<8>,
                price_soa_simd_erf_parity_into::<8>,
                "erf-parity",
            ),
        ] {
            let mut a = base.clone();
            run_batch(&mut a, m);
            run_into(&base.s, &base.x, &base.t, &mut call, &mut put, m);
            for i in 0..base.len() {
                assert_eq!(a.call[i].to_bits(), call[i].to_bits(), "{label} call {i}");
                assert_eq!(a.put[i].to_bits(), put[i].to_bits(), "{label} put {i}");
            }
        }
    }

    /// The ragged lengths the stepping is checked at: around one and two
    /// `W = 8` registers and a long odd batch.
    pub(crate) const LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 1001];

    /// A driver against the loop it stepped before pairs: one `W`-lane
    /// register per step, then the scalar tail.
    fn check_stepping<const W: usize>(
        body: fn(F64v<W>, F64v<W>, F64v<W>, MarketParams) -> (F64v<W>, F64v<W>),
        driver: fn(&mut OptionBatchSoa, MarketParams),
        base: &OptionBatchSoa,
        m: MarketParams,
        label: &str,
    ) {
        let (mut want, mut got) = (base.clone(), base.clone());
        let n = base.len();
        let main = n - n % W;
        for i in (0..main).step_by(W) {
            let at = |col: &[f64]| F64v::<W>::load(col, i);
            let (c, p) = body(at(&base.s), at(&base.x), at(&base.t), m);
            c.store(&mut want.call, i);
            p.store(&mut want.put, i);
        }
        for j in main..n {
            (want.call[j], want.put[j]) =
                super::super::price_single(base.s[j], base.x[j], base.t[j], m);
        }
        driver(&mut got, m);
        for i in 0..n {
            let at = format!("{label} W={W} n={n} option {i}");
            assert_eq!(want.call[i].to_bits(), got.call[i].to_bits(), "{at} call");
            assert_eq!(want.put[i].to_bits(), got.put[i].to_bits(), "{at} put");
        }
    }

    #[test]
    fn paired_drivers_have_the_bits_of_one_register_per_step() {
        let wide = WorkloadRanges {
            s: (0.5, 400.0),
            x: (0.5, 400.0),
            t: (1e-6, 40.0),
        };
        for (ranges, m) in [
            (WorkloadRanges::default(), MarketParams::PAPER),
            (wide, MarketParams { r: 0.0, sigma: 2.5 }),
        ] {
            for n in LENGTHS {
                let base = OptionBatchSoa::random(n, 3 + n as u64, ranges);
                check_stepping::<8>(price_vec_cnd, price_soa_simd::<8>, &base, m, "cnd");
                check_stepping::<4>(price_vec_cnd, price_soa_simd::<4>, &base, m, "cnd");
                let erf = "erf-parity";
                check_stepping::<8>(
                    price_vec_erf_parity,
                    price_soa_simd_erf_parity::<8>,
                    &base,
                    m,
                    erf,
                );
                check_stepping::<4>(
                    price_vec_erf_parity,
                    price_soa_simd_erf_parity::<4>,
                    &base,
                    m,
                    erf,
                );
            }
        }
    }

    #[test]
    fn hoisted_call_is_its_scalar_twin_and_the_closed_form_call() {
        let b = batch(64);
        let m0 = MarketParams::PAPER;
        for (spot, vol, rate) in [(0.0, 0.0, 0.0), (0.1, -0.25, 0.01), (-0.07, 0.2, -0.004)] {
            let m = ShockedMarket::new(m0, spot, vol, rate);
            let shocked = MarketParams {
                r: m0.r + rate,
                sigma: m0.sigma * (1.0 + vol),
            };
            for i in (0..b.len()).step_by(8) {
                let at = |col: &[f64]| F64v::<8>::load(col, i);
                let (s, x, t) = (at(&b.s), at(&b.x), at(&b.t));
                let (sqrt_t, lsx) = (t.sqrt(), vln(s / x));
                let call = call_hoisted(s, x, t, sqrt_t, lsx, &m);
                for l in 0..8 {
                    let twin = call_hoisted(s[l], x[l], t[l], sqrt_t[l], lsx[l], &m);
                    assert_eq!(call[l].to_bits(), twin.to_bits(), "option {}", i + l);
                    let want =
                        super::super::price_single(s[l] * (1.0 + spot), x[l], t[l], shocked).0;
                    assert!(
                        (call[l] - want).abs() <= 1e-12 * want.abs().max(1.0),
                        "option {}: {} vs {want}",
                        i + l,
                        call[l]
                    );
                }
            }
        }
    }

    #[test]
    fn hoisted_call_edge_lanes_match_the_scalar_instance_and_the_closed_form() {
        use finbench_math::norm::{CND_TAIL_FROM, CND_TAIL_NUM, CND_ZERO_FROM};
        use finbench_math::{poly::polevl, SQRT_2PI};
        let (spot, vol, rate) = (0.05, -0.1, 0.002);
        let m = ShockedMarket::new(MarketParams::PAPER, spot, vol, rate);
        let shocked = MarketParams {
            r: MarketParams::PAPER.r + rate,
            sigma: MarketParams::PAPER.sigma * (1.0 + vol),
        };
        // Lanes: d1 ≈ +12, −11 (far tail), +87, −85 (past 37), d1 > 0 ≥ d2,
        // σ√t ≈ 3e-16 off the money (d ≈ 2e14) and at it, a NaN spot.
        let s = [100.0, 50.0, 100.0, 10.0, 100.0, 101.0, 100.0, f64::NAN];
        let x = [50.0, 100.0, 10.0, 100.0, 110.0, 100.0, 105.0, 100.0];
        let t = [0.05, 0.05, 0.01, 0.01, 1.0, 1e-30, 1e-30, 1.0];
        let at = |col: &[f64]| F64v::<8>::load(col, 0);
        let sqrt_t = t.map(f64::sqrt);
        let lsx = vln(at(&s) / at(&x)).to_array();
        let call = call_hoisted(at(&s), at(&x), at(&t), at(&sqrt_t), at(&lsx), &m);

        let d = |l: usize| {
            let vol = sqrt_t[l] * m.sigma;
            let d1 = (lsx[l] + m.ln_bump + t[l] * m.drift) / vol;
            (d1, d1 - vol)
        };
        let far =
            |lo: f64, hi: f64| (0..8).filter(move |&l| lo < d(l).0.abs() && d(l).0.abs() <= hi);
        for (lo, hi) in [
            (CND_TAIL_FROM, CND_ZERO_FROM),
            (CND_ZERO_FROM, f64::INFINITY),
        ] {
            assert!(far(lo, hi).any(|l| d(l).0 > 0.0) && far(lo, hi).any(|l| d(l).0 < 0.0));
        }
        assert!((0..8).any(|l| d(l).0 > 0.0 && d(l).1 <= 0.0));
        let tail_den = |d: f64| polevl(d.abs(), &CND_TAIL_NUM) * SQRT_2PI;
        assert!((0..8).any(|l| (tail_den(d(l).0) * tail_den(d(l).1)).is_infinite()));

        for l in 0..8 {
            let twin = call_hoisted(s[l], x[l], t[l], sqrt_t[l], lsx[l], &m);
            assert_eq!(call[l].to_bits(), twin.to_bits(), "lane {l}");
            let want = super::super::price_single(s[l] * (1.0 + spot), x[l], t[l], shocked).0;
            if s[l].is_nan() {
                assert!(call[l].is_nan(), "lane {l}: {}", call[l]);
                continue;
            }
            assert!(call[l].is_finite(), "lane {l} d {:?}: {}", d(l), call[l]);
            assert!(
                (call[l] - want).abs() <= 1e-12 * want.abs().max(1.0),
                "lane {l} d {:?}: {} vs {want}",
                d(l),
                call[l]
            );
        }
    }

    #[test]
    #[should_panic(expected = "output slices must match")]
    fn into_forms_reject_short_outputs() {
        let base = batch(8);
        let mut call = vec![0.0; 4];
        let mut put = vec![0.0; 8];
        price_soa_simd_into::<8>(
            &base.s,
            &base.x,
            &base.t,
            &mut call,
            &mut put,
            MarketParams::PAPER,
        );
    }

    #[test]
    fn tiny_batches_hit_scalar_tail_only() {
        let m = MarketParams::PAPER;
        let mut a = batch(3);
        let mut b = a.clone();
        price_soa_scalar(&mut a, m);
        price_soa_simd::<8>(&mut b, m);
        assert_close(&a, &b, 1e-15, "tail");
    }
}
