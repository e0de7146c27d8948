//! ISA dispatch never changes a bit.
//!
//! Every sweep that goes through `finbench::simd::isa::dispatch` is one
//! generic body instantiated per instruction-set tier; the portable
//! instantiation is the oracle. For every such sweep, every width the
//! ladders use (1, 4, 8) and every tier this host supports, the output
//! under `dispatch_as(tier, ..)` must be **bit-identical** to the output
//! under `dispatch_as(Isa::Portable, ..)` — over ragged batch sizes (so
//! the scalar tails run), the paper's workload ranges, and edge lanes:
//! deep in/out of the money (past the 7.07σ and 37σ switches of `cnd`),
//! `t → 0`, and the clamp edges of `exp`/`ln`.
//!
//! On a host with no tier above the baseline the comparisons are vacuous
//! (and say so); ci.sh separately fails if an AVX2 host reports
//! `isa: portable`.

use finbench::core::binomial;
use finbench::core::black_scholes::{reference as bs_ref, soa, vml};
use finbench::core::brownian_bridge::{simd as bridge_simd, BridgePlan};
use finbench::core::crank_nicolson::{CnProblem, PsorKind};
use finbench::core::engine::registry;
use finbench::core::greeks::{self, GreeksBatchSoa};
use finbench::core::monte_carlo::{reference as mc_ref, simd as mc_simd, GbmTerminal};
use finbench::core::portfolio::{
    par_revalue, revalue_into, Book, RevalScratch, ScenarioConfig, ScenarioGrid,
};
use finbench::core::workload::{MarketParams, OptionBatchSoa, WorkloadRanges};
use finbench::engine::{Engine, WorkloadSpec};
use finbench::math as fm;
use finbench::math::exp::{EXP_OVERFLOW, EXP_UNDERFLOW};
use finbench::math::norm::CND_TAIL_FROM;
use finbench::rng::normal::fill_standard_normal_icdf;
use finbench::rng::{uniform, Mt19937_64, RngCore64, StreamFamily};
use finbench::simd::batch;
use finbench::simd::isa::{dispatch_as, Isa};
use finbench::simd::F64v;
use proptest::prelude::*;

const M: MarketParams = MarketParams::PAPER;

/// The tiers above the oracle that this host can run.
fn tiers() -> Vec<Isa> {
    let above: Vec<Isa> = Isa::ALL
        .into_iter()
        .filter(|isa| *isa != Isa::Portable && isa.supported())
        .collect();
    if above.is_empty() {
        eprintln!("isa_identity: host supports no tier above portable; nothing to compare");
    }
    above
}

/// `run` (which returns every number the sweep produced) under each
/// supported tier against the portable oracle; the first mismatch, if any.
fn tier_mismatch(label: &str, run: impl Fn() -> Vec<f64>) -> Option<String> {
    let want = dispatch_as(Isa::Portable, &run);
    for isa in tiers() {
        let got = dispatch_as(isa, &run);
        if got.len() != want.len() {
            return Some(format!("{label} under {}: length differs", isa.name()));
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Some(format!(
                    "{label} under {}: element {i} is {g:e}, portable {w:e}",
                    isa.name()
                ));
            }
        }
    }
    None
}

/// `n` options from the paper's ranges, then the edge lanes: deep ITM and
/// OTM (|d| past 7.07 and past 37), near-zero expiry, at the money.
fn batch_with_edges(n: usize, seed: u64) -> OptionBatchSoa {
    let mut b = OptionBatchSoa::random(n, seed, WorkloadRanges::default());
    for (s, x, t) in [
        (1000.0, 1.0, 0.5),
        (1.0, 1000.0, 0.5),
        (5000.0, 1.0, 0.01),
        (1.0, 5000.0, 0.01),
        (30.0, 30.0, 1e-8),
        (30.0, 30.000_001, 1e-10),
        (17.0, 17.0, 1.0),
    ] {
        b.s.push(s);
        b.x.push(x);
        b.t.push(t);
        b.call.push(0.0);
        b.put.push(0.0);
    }
    b
}

fn prices(b: &OptionBatchSoa) -> Vec<f64> {
    [&b.call[..], &b.put[..]].concat()
}

fn all_greeks(g: &GreeksBatchSoa) -> Vec<f64> {
    let sides = [&g.call, &g.put];
    let columns = sides.iter().flat_map(|s| {
        [&s.delta, &s.gamma, &s.vega, &s.theta, &s.rho]
            .into_iter()
            .flatten()
    });
    columns.copied().collect()
}

/// Inputs for the array math: a ramp over `[lo, hi]` of ragged length,
/// then the function's own edge points.
fn ramp_with_edges(n: usize, lo: f64, hi: f64, edges: &[f64]) -> Vec<f64> {
    let mut xs: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / n.max(2) as f64)
        .collect();
    xs.extend_from_slice(edges);
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `simd::batch::vd_*`: main loop at W=8 plus the scalar tail, on every
    /// tier — and every element the scalar function's bits, wherever it
    /// falls (the batch math is the scalar function's body at width 8).
    #[test]
    fn array_math_is_tier_invariant(n in 0usize..70) {
        type Vd = fn(&[f64], &mut [f64]);
        type Scalar = fn(f64) -> f64;
        let shared_edges = [
            f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 0.0, 5e-324, 1e-310,
            f64::MIN_POSITIVE, EXP_OVERFLOW.next_down(), EXP_OVERFLOW, EXP_OVERFLOW.next_up(),
            EXP_UNDERFLOW.next_down(), EXP_UNDERFLOW, EXP_UNDERFLOW.next_up(), -0.5, 0.5,
            CND_TAIL_FROM,
        ];
        let exp_edges = [
            -746.0, -745.13, -708.4, 1e-320, 709.78, 709.79, 1000.0,
        ];
        let ln_edges = [
            1e-310, 0.5, std::f64::consts::FRAC_1_SQRT_2, 1.0,
            std::f64::consts::SQRT_2, 2.0, 1e308, f64::MAX, -1.0,
        ];
        let cdf_edges = [
            -40.0, -37.1, -37.0, -7.08, -7.07, -0.499_999, 0.499_999,
            7.07, 7.08, 37.0, 37.1, 40.0,
        ];
        let unit_edges = [
            -1.0, 1e-300, 1e-13, 0.024_249, 0.02425, 0.97575, 0.975_751,
            1.0 - f64::EPSILON / 2.0, 1.0,
        ];
        let with_shared = |edges: &[f64]| [edges, &shared_edges[..]].concat();
        let cases: [(&str, Vd, Scalar, Vec<f64>); 6] = [
            ("vd_exp", batch::vd_exp, fm::exp, ramp_with_edges(n, -30.0, 30.0, &with_shared(&exp_edges))),
            ("vd_ln", batch::vd_ln, fm::ln, ramp_with_edges(n, 1e-3, 1e3, &with_shared(&ln_edges))),
            ("vd_erf", batch::vd_erf, fm::erf, ramp_with_edges(n, -6.0, 6.0, &with_shared(&cdf_edges))),
            (
                "vd_norm_cdf",
                batch::vd_norm_cdf,
                fm::norm_cdf,
                ramp_with_edges(n, -9.0, 9.0, &with_shared(&cdf_edges)),
            ),
            ("vd_sqrt", batch::vd_sqrt, f64::sqrt, ramp_with_edges(n, 0.0, 1e6, &with_shared(&ln_edges))),
            (
                "vd_inv_norm_cdf_in_place",
                |src, dst| {
                    dst.copy_from_slice(src);
                    batch::vd_inv_norm_cdf_in_place(dst)
                },
                fm::inv_norm_cdf,
                ramp_with_edges(n, 1e-6, 1.0 - 1e-6, &with_shared(&unit_edges)),
            ),
        ];
        for (label, f, scalar, src) in cases {
            let run = || {
                let mut dst = vec![0.0; src.len()];
                f(&src, &mut dst);
                dst
            };
            let bad = tier_mismatch(label, run);
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
            for (i, (x, got)) in src.iter().zip(dispatch_as(Isa::Portable, run)).enumerate() {
                let want = scalar(*x);
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "{} element {} of {}: x={:e} gave {:e}, scalar {:e}", label, i, src.len(), x, got, want
                );
            }
        }
    }

    /// Black-Scholes: scalar SOA, SIMD SOA at W=1/4/8, erf+parity, the
    /// VML-style passes, SIMD-on-AOS gathers and the pooled driver.
    #[test]
    fn black_scholes_sweeps_are_tier_invariant(n in 0usize..70, seed in 0u64..1_000_000) {
        let base = batch_with_edges(n, seed);
        type Sweep = fn(&mut OptionBatchSoa, MarketParams);
        let sweeps: [(&str, Sweep); 8] = [
            ("price_soa_scalar", soa::price_soa_scalar),
            ("price_soa_simd::<1>", soa::price_soa_simd::<1>),
            ("price_soa_simd::<4>", soa::price_soa_simd::<4>),
            ("price_soa_simd::<8>", soa::price_soa_simd::<8>),
            ("price_soa_simd_erf_parity::<4>", soa::price_soa_simd_erf_parity::<4>),
            ("price_soa_simd_erf_parity::<8>", soa::price_soa_simd_erf_parity::<8>),
            ("price_soa_vml", |b, m| vml::price_soa_vml(b, m, &mut vml::VmlWorkspace::default())),
            ("par_price_soa::<8>", |b, m| soa::par_price_soa::<8>(b, m, 16)),
        ];
        for (label, sweep) in sweeps {
            let bad = tier_mismatch(label, || {
                let mut b = base.clone();
                sweep(&mut b, M);
                prices(&b)
            });
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
        for (label, gather) in [
            ("price_aos_simd_gather::<4>", bs_ref::price_aos_simd_gather::<4> as fn(&mut _, _)),
            ("price_aos_simd_gather::<8>", bs_ref::price_aos_simd_gather::<8>),
        ] {
            let bad = tier_mismatch(label, || {
                let mut aos = base.to_aos();
                gather(&mut aos, M);
                prices(&aos.to_soa())
            });
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
    }

    /// Greeks: the ten-greek batch sweep at W=1/4/8 and the fused
    /// price+greeks rung.
    #[test]
    fn greeks_sweeps_are_tier_invariant(n in 0usize..70, seed in 0u64..1_000_000) {
        let base = batch_with_edges(n, seed);
        let len = base.len();
        type Batch = fn(&OptionBatchSoa, MarketParams, &mut GreeksBatchSoa);
        for (label, sweep) in [
            ("greeks_batch_simd::<1>", greeks::greeks_batch_simd::<1> as Batch),
            ("greeks_batch_simd::<4>", greeks::greeks_batch_simd::<4>),
            ("greeks_batch_simd::<8>", greeks::greeks_batch_simd::<8>),
        ] {
            let bad = tier_mismatch(label, || {
                let mut out = GreeksBatchSoa::zeroed(len);
                sweep(&base, M, &mut out);
                all_greeks(&out)
            });
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
        let bad = tier_mismatch("price_and_greeks_into::<8>", || {
            let mut b = base.clone();
            let mut out = GreeksBatchSoa::zeroed(len);
            greeks::price_and_greeks_into::<8>(&mut b, M, &mut out);
            [prices(&b), all_greeks(&out)].concat()
        });
        prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
    }

    /// Portfolio revaluation at W=1/4/8 (bump and P&L loops included) and
    /// the pooled full-grid driver.
    #[test]
    fn portfolio_revaluation_is_tier_invariant(
        positions in 1usize..40,
        scenarios in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let book = Book::random(positions, seed);
        let cfg = ScenarioConfig::standard(scenarios, seed ^ 0x5eed);
        let grid = cfg.grid();
        type Reval = fn(&Book, MarketParams, &ScenarioGrid, &mut RevalScratch, &mut Vec<f64>);
        for (label, reval) in [
            ("revalue_into::<1>", revalue_into::<1> as Reval),
            ("revalue_into::<4>", revalue_into::<4>),
            ("revalue_into::<8>", revalue_into::<8>),
        ] {
            let bad = tier_mismatch(label, || {
                let mut pnl = Vec::new();
                reval(&book, M, &grid, &mut RevalScratch::new(), &mut pnl);
                pnl
            });
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
        let bad = tier_mismatch("par_revalue", || {
            let mut pnl = Vec::new();
            par_revalue(&book, M, &cfg, 4, &mut pnl);
            pnl
        });
        prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
    }

    /// Binomial: the scalar reference batch and the shared W=8 driver with
    /// the plain and tiled reductions.
    #[test]
    fn binomial_sweeps_are_tier_invariant(
        n in 0usize..20,
        steps in 1usize..130,
        seed in 0u64..1_000_000,
    ) {
        let mut base = batch_with_edges(n, seed);
        // The SIMD drivers read one expiry per group of lanes.
        base.t.fill(1.25);
        type Sweep = fn(&mut OptionBatchSoa, MarketParams, usize);
        let sweeps: [(&str, Sweep); 5] = [
            ("reference::price_batch", binomial::reference::price_batch),
            ("price_batch_simd::<8>", |b, m, n| binomial::simd::price_batch_simd::<8>(b, m, n, true)),
            ("price_batch_tiled::<8, 4>", |b, m, n| {
                binomial::tiled::price_batch_tiled::<8, 4>(b, m, n, true)
            }),
            ("price_batch_tiled::<8, 8> puts", |b, m, n| {
                binomial::tiled::price_batch_tiled::<8, 8>(b, m, n, false)
            }),
            ("price_batch_tiled::<4, 8>", |b, m, n| {
                binomial::tiled::price_batch_tiled::<4, 8>(b, m, n, true)
            }),
        ];
        for (label, sweep) in sweeps {
            let bad = tier_mismatch(label, || {
                let mut b = base.clone();
                sweep(&mut b, M, steps);
                prices(&b)
            });
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
    }

    /// Monte Carlo (streamed scalar, streamed SIMD, antithetic, computed
    /// RNG), the Brownian bridge across paths, and the normal transforms.
    #[test]
    fn path_kernels_are_tier_invariant(n in 0usize..300, seed in 0u64..1_000_000) {
        let mut randoms = vec![0.0; n];
        fill_standard_normal_icdf(&mut Mt19937_64::new(seed), &mut randoms);
        // Terminal values at both clamp ends of `exp`.
        randoms.extend_from_slice(&[-40.0, -8.5, 0.0, 8.5, 40.0]);
        let g = GbmTerminal::new(1.0, M);
        let sums = |s: finbench::core::monte_carlo::PathSums| vec![s.v0, s.v1, s.n as f64];
        let cases: [(&str, &dyn Fn() -> Vec<f64>); 5] = [
            ("paths_streamed::<f64>", &|| sums(mc_ref::paths_streamed::<f64>(100.0, 100.0, g, &randoms))),
            ("paths_streamed_simd::<4>", &|| sums(mc_simd::paths_streamed_simd::<4>(100.0, 100.0, g, &randoms))),
            ("paths_streamed_simd::<8>", &|| sums(mc_simd::paths_streamed_simd::<8>(100.0, 100.0, g, &randoms))),
            ("paths_antithetic::<8>", &|| sums(mc_simd::paths_antithetic::<8>(100.0, 100.0, g, &randoms))),
            ("paths_computed_simd::<8>", &|| {
                let fam = StreamFamily::new(seed);
                sums(mc_simd::paths_computed_simd::<8>(100.0, 100.0, g, &fam, 3, n + 1))
            }),
        ];
        for (label, run) in cases {
            let bad = tier_mismatch(label, run);
            prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }

        let plan = BridgePlan::new(1 + n % 6, 2.0);
        let n_paths = 8 * (1 + n % 3);
        let mut normals = vec![0.0; n_paths * plan.randoms_per_path()];
        fill_standard_normal_icdf(&mut Mt19937_64::new(seed ^ 1), &mut normals);
        let bad = tier_mismatch("build_paths_simd::<8>", || {
            let mut out = vec![0.0; n_paths * plan.points()];
            bridge_simd::build_paths_simd::<8>(&plan, &normals, &mut out, n_paths);
            out
        });
        prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());

        let bad = tier_mismatch("fill_standard_normal_icdf", || {
            let mut out = vec![0.0; n];
            fill_standard_normal_icdf(&mut Mt19937_64::new(seed), &mut out);
            out
        });
        prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
    }
}

/// The store-anchored Monte-Carlo sweeps around their 512-double block, the
/// Mersenne-twister block fill across its 312-word state (so the twist and
/// the temper run under every tier), and the in-place bridge group.
#[test]
fn staged_sweeps_and_block_fills_are_tier_invariant() {
    let g = GbmTerminal::new(1.0, M);
    let sums = |s: finbench::core::monte_carlo::PathSums| vec![s.v0, s.v1, s.n as f64];
    let mut randoms = vec![0.0; 100_003];
    fill_standard_normal_icdf(&mut Mt19937_64::new(14), &mut randoms);
    for n in [0, 1, 7, 15, 511, 512, 513, 100_003] {
        let zs = &randoms[..n];
        let cases: [(&str, &dyn Fn() -> Vec<f64>); 4] = [
            ("paths_streamed_simd::<4>", &|| {
                sums(mc_simd::paths_streamed_simd::<4>(100.0, 100.0, g, zs))
            }),
            ("paths_streamed_simd::<8>", &|| {
                sums(mc_simd::paths_streamed_simd::<8>(100.0, 100.0, g, zs))
            }),
            ("paths_antithetic::<4>", &|| {
                sums(mc_simd::paths_antithetic::<4>(100.0, 100.0, g, zs))
            }),
            ("paths_antithetic::<8>", &|| {
                sums(mc_simd::paths_antithetic::<8>(100.0, 100.0, g, zs))
            }),
        ];
        for (label, run) in cases {
            let bad = tier_mismatch(&format!("{label} n={n}"), run);
            assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
    }

    type Fill = fn(&mut Mt19937_64, &mut [f64]);
    let fills: [(&str, Fill); 3] = [
        ("fill_uniform", uniform::fill_uniform),
        ("fill_uniform_open", uniform::fill_uniform_open),
        ("fill_uniform_range", |rng, out| {
            uniform::fill_uniform_range(rng, out, -3.0, 17.5)
        }),
    ];
    for (label, fill) in fills {
        for (skip, n) in [
            (0, 0),
            (155, 2),
            (156, 156),
            (300, 13),
            (311, 700),
            (5, 2000),
        ] {
            let bad = tier_mismatch(&format!("{label} skip={skip} n={n}"), || {
                let mut rng = Mt19937_64::new(2203);
                for _ in 0..skip {
                    rng.next_u64();
                }
                let mut out = vec![0.0; n];
                fill(&mut rng, &mut out);
                // The draw after the fill pins the state it left behind.
                out.push(rng.next_f64());
                out
            });
            assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
    }

    for depth in 0..=6 {
        let plan = BridgePlan::new(depth, 2.0);
        let mut normals = vec![0.0; 8 * plan.randoms_per_path()];
        fill_standard_normal_icdf(&mut Mt19937_64::new(depth as u64), &mut normals);
        let bad = tier_mismatch(&format!("build_group_in_place::<8> depth={depth}"), || {
            let mut group = vec![F64v::<8>::splat(f64::NAN); plan.points()];
            bridge_simd::build_group_in_place::<8>(&plan, &normals, &mut group);
            let mut out = vec![0.0; 8 * plan.points()];
            bridge_simd::transpose_out(&group, &mut out);
            out
        });
        assert!(bad.is_none(), "{}", bad.unwrap_or_default());
    }
}

/// Crank-Nicolson: both wavefront rungs' solves — every `u` bit and the
/// iteration count — on the registry problem, the pinned r = 0.05 / σ = 0.2
/// problem and a grid whose interior is shorter than one wavefront (so only
/// the prologue/epilogue path runs), American and European.
#[test]
fn crank_nicolson_wavefront_solves_are_tier_invariant() {
    let pinned = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };
    for (market, n_points) in [(M, 256), (pinned, 256), (M, 20)] {
        let mut p = CnProblem::paper(market, 1.0);
        (p.n_points, p.n_steps) = (n_points, 100);
        for american in [true, false] {
            p.american = american;
            for kind in [PsorKind::Wavefront, PsorKind::WavefrontSoa] {
                let label = format!("{kind:?} {market:?} n={n_points} american={american}");
                let bad = tier_mismatch(&label, || {
                    let sol = p.solve(kind);
                    let mut out = sol.u;
                    out.push(sol.psor_iterations as f64);
                    out
                });
                assert!(bad.is_none(), "{}", bad.unwrap_or_default());
            }
        }
    }
}

/// The engine's own oracle — every rung against its declared baseline and
/// check — holds under every tier, and the reference rung of every kernel
/// produces the same bits on every tier.
#[test]
fn every_registry_rung_validates_and_repeats_under_every_tier() {
    let engine = Engine::new(registry());
    let spec = WorkloadSpec::validation(7, 48);
    for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
        let errs = dispatch_as(isa, || engine.validate_all(&spec));
        assert!(errs.is_empty(), "under {}: {errs:?}", isa.name());
    }
    for kernel in engine.registry().kernels() {
        let session = kernel.session(&spec);
        for (rung, info) in kernel.rungs().iter().enumerate() {
            let bad = tier_mismatch(&format!("{} rung {}", kernel.name(), info.slug), || {
                let mut body = session.prepare(rung);
                body.step();
                body.output()
            });
            assert!(bad.is_none(), "{}", bad.unwrap_or_default());
        }
    }
}
