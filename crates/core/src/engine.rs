//! [`Kernel`] implementations for the six paper kernels — thin adapters
//! over the existing level functions (no numerics change) — plus the
//! [`GreeksKernel`] and [`PortfolioKernel`] risk workloads and the shared
//! [`registry`] every consumer iterates.
//!
//! Each adapter owns three decisions and nothing else:
//!
//! * **workload construction** ([`Kernel::make_workload`]): the same
//!   sizes the old hand-written harness drivers used, shrunk under
//!   `quick` and overridable through `n_hint` for validation sweeps
//!   (clamped to whatever the algorithms require — SIMD width multiples,
//!   enough samples for the statistical checks);
//! * **the ladder** ([`Kernel::ladder`]): one [`Rung`] per optimization
//!   level, with the equivalence check the §6 strategy prescribes
//!   (bit-exact for reordered-schedule variants, tight relative tolerance
//!   for reordered transcendental arithmetic, statistical agreement for
//!   rungs consuming a different random stream);
//! * **the cost mapping** ([`Kernel::cost`] + [`Rung::cost_level`]): the
//!   machine model's calibrated descriptors, so the planner and the
//!   modeled figure bars can never drift apart.

use crate::binomial;
use crate::black_scholes::{reference, soa, vml};
use crate::brownian_bridge::{
    interleaved, reference as bridge_ref, simd as bridge_simd, BridgePlan,
};
use crate::crank_nicolson::{CnProblem, CnSolution, PsorKind};
use crate::greeks::bump::{binomial_bump_greeks, bs_bump_greeks, BumpSizes};
use crate::greeks::mc::{crn_fd_delta, crn_fd_vega, crn_normals, McEstimate, McGreeks};
use crate::greeks::{greeks_batch_simd, mc, Greeks, GreeksBatchSoa, OptionType};
use crate::monte_carlo::{reference as mc_ref, simd as mc_simd, GbmTerminal, PathSums};
use crate::portfolio::{par_revalue, revalue_into, Book, RevalScratch, ScenarioConfig};
use crate::workload::{MarketParams, OptionBatchAos, OptionBatchSoa, WorkloadRanges};
use finbench_engine::{fn_body, Check, Kernel, OptLevel, Registry, Rung, WorkloadSpec};
use finbench_machine::kernels as cost_model;
use finbench_machine::kernels::Level as CostedLevel;
use finbench_machine::ArchSpec;
use finbench_rng::normal::{fill_standard_normal_icdf, fill_standard_normal_polar};
use finbench_rng::uniform::fill_uniform;
use finbench_rng::{Mt19937_64, Philox4x32, StreamFamily};

const M: MarketParams = MarketParams::PAPER;

/// Round `n` up to a multiple of `w` (the SIMD-width contract several
/// kernels impose on their batch drivers).
fn round_up(n: usize, w: usize) -> usize {
    n.div_ceil(w) * w
}

fn soa_prices(b: &OptionBatchSoa) -> Vec<f64> {
    b.call.iter().chain(b.put.iter()).copied().collect()
}

/// Call side only — the binomial SIMD/tiled drivers price one side per
/// invocation (`is_call = true`), so puts are not comparable there.
fn calls_only(b: &OptionBatchSoa) -> Vec<f64> {
    b.call.clone()
}

fn aos_prices(b: &OptionBatchAos) -> Vec<f64> {
    b.opts
        .iter()
        .map(|o| o.call)
        .chain(b.opts.iter().map(|o| o.put))
        .collect()
}

fn path_sums_mean(s: &Option<PathSums>) -> Vec<f64> {
    let s = s.as_ref().expect("step() ran before output()");
    vec![s.v0 / s.n as f64]
}

// ---------------------------------------------------------------------
// Black-Scholes (Fig. 4)
// ---------------------------------------------------------------------

/// Fig. 4: batched European Black-Scholes pricing.
pub struct BlackScholes;

/// Prepared option batch in both layouts (the ladder spans AOS and SOA).
pub struct BsWorkload {
    soa: OptionBatchSoa,
    aos: OptionBatchAos,
}

impl Kernel for BlackScholes {
    type Workload = BsWorkload;

    fn name(&self) -> &'static str {
        "black_scholes"
    }
    fn artifact(&self) -> &'static str {
        "fig4"
    }
    fn title(&self) -> &'static str {
        "Black-Scholes (options/s)"
    }
    fn unit(&self) -> &'static str {
        "opts/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> BsWorkload {
        let n = spec
            .n_hint
            .unwrap_or(if spec.quick { 20_000 } else { 400_000 })
            .max(1);
        let soa = OptionBatchSoa::random(n, spec.seed, WorkloadRanges::default());
        BsWorkload {
            aos: soa.to_aos(),
            soa,
        }
    }

    fn items(&self, w: &BsWorkload) -> usize {
        w.soa.len()
    }

    fn ladder(&self) -> Vec<Rung<BsWorkload>> {
        vec![
            Rung::new(
                OptLevel::Basic,
                "Basic: scalar AOS reference",
                |w: &BsWorkload| {
                    fn_body(
                        w.aos.clone(),
                        |b| reference::price_aos::<f64>(b, M),
                        aos_prices,
                    )
                },
            )
            .check(Check::None),
            Rung::new(
                OptLevel::Basic,
                "Basic+: SIMD on AOS (gathers)",
                |w: &BsWorkload| {
                    fn_body(
                        w.aos.clone(),
                        |b| reference::price_aos_simd_gather::<8>(b, M),
                        aos_prices,
                    )
                },
            ),
            Rung::new(
                OptLevel::Intermediate,
                "Intermediate: scalar SOA",
                |w: &BsWorkload| {
                    fn_body(w.soa.clone(), |b| soa::price_soa_scalar(b, M), soa_prices)
                },
            )
            .cost_level(1),
            Rung::new(
                OptLevel::Intermediate,
                "Intermediate: SIMD SOA (W=4)",
                |w: &BsWorkload| {
                    fn_body(
                        w.soa.clone(),
                        |b| soa::price_soa_simd::<4>(b, M),
                        soa_prices,
                    )
                },
            )
            .cost_level(1),
            Rung::new(
                OptLevel::Intermediate,
                "Intermediate: SIMD SOA (W=8)",
                |w: &BsWorkload| {
                    fn_body(
                        w.soa.clone(),
                        |b| soa::price_soa_simd::<8>(b, M),
                        soa_prices,
                    )
                },
            )
            .cost_level(1),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: erf + parity (W=8)",
                |w: &BsWorkload| {
                    fn_body(
                        w.soa.clone(),
                        |b| soa::price_soa_simd_erf_parity::<8>(b, M),
                        soa_prices,
                    )
                },
            )
            .cost_level(2),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: VML-style batch",
                |w: &BsWorkload| {
                    let ws = vml::VmlWorkspace::with_capacity(w.soa.len());
                    fn_body(
                        (w.soa.clone(), ws),
                        |(b, ws)| vml::price_soa_vml(b, M, ws),
                        |(b, _)| soa_prices(b),
                    )
                },
            )
            .cost_level(2)
            .staging(),
            Rung::new(
                OptLevel::Advanced,
                "Advanced + own-pool threads",
                |w: &BsWorkload| {
                    fn_body(
                        w.soa.clone(),
                        |b| soa::par_price_soa::<8>(b, M, 4096),
                        soa_prices,
                    )
                },
            )
            .cost_level(2)
            .threaded(),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::black_scholes(arch)
    }
}

// ---------------------------------------------------------------------
// Binomial tree (Fig. 5)
// ---------------------------------------------------------------------

/// Fig. 5: CRR binomial-tree pricing, register-tiled at the top level.
pub struct Binomial;

/// Uniform-expiry batch plus the tree depth.
pub struct BinomialWorkload {
    batch: OptionBatchSoa,
    n_steps: usize,
}

impl Kernel for Binomial {
    type Workload = BinomialWorkload;

    fn name(&self) -> &'static str {
        "binomial"
    }
    fn artifact(&self) -> &'static str {
        "fig5"
    }
    fn title(&self) -> &'static str {
        "Binomial tree (options/s)"
    }
    fn unit(&self) -> &'static str {
        "opts/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> BinomialWorkload {
        // The SIMD drivers share one expiry grid per W-group; keep the
        // paper's uniform t=1 workload (ragged tails are handled, but a
        // multiple of W exercises the vector path everywhere).
        let n_opts = round_up(
            spec.n_hint
                .unwrap_or(if spec.quick { 16 } else { 64 })
                .max(1),
            8,
        );
        let mut batch = OptionBatchSoa::random(n_opts, spec.seed, WorkloadRanges::default());
        for t in &mut batch.t {
            *t = 1.0;
        }
        BinomialWorkload {
            batch,
            n_steps: if spec.quick { 256 } else { 1024 },
        }
    }

    fn items(&self, w: &BinomialWorkload) -> usize {
        w.batch.len()
    }

    fn ladder(&self) -> Vec<Rung<BinomialWorkload>> {
        vec![
            Rung::new(
                OptLevel::Basic,
                "Basic: scalar reference",
                |w: &BinomialWorkload| {
                    let n = w.n_steps;
                    fn_body(
                        w.batch.clone(),
                        move |b| binomial::reference::price_batch(b, M, n),
                        calls_only,
                    )
                },
            )
            .check(Check::None),
            Rung::new(
                OptLevel::Intermediate,
                "Intermediate: SIMD across options (W=8)",
                |w: &BinomialWorkload| {
                    let n = w.n_steps;
                    fn_body(
                        w.batch.clone(),
                        move |b| binomial::simd::price_batch_simd::<8>(b, M, n, true),
                        calls_only,
                    )
                },
            )
            .check(Check::Rel(1e-11))
            .cost_level(1),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: register tiling (W=8, TS=4)",
                |w: &BinomialWorkload| {
                    let n = w.n_steps;
                    fn_body(
                        w.batch.clone(),
                        move |b| binomial::tiled::price_batch_tiled::<8, 4>(b, M, n, true),
                        calls_only,
                    )
                },
            )
            // Identical arithmetic to the SIMD rung, reordered schedule.
            .check(Check::BitExact)
            .baseline(1)
            .cost_level(2),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: register tiling (W=8, TS=8)",
                |w: &BinomialWorkload| {
                    let n = w.n_steps;
                    fn_body(
                        w.batch.clone(),
                        move |b| binomial::tiled::price_batch_tiled::<8, 8>(b, M, n, true),
                        calls_only,
                    )
                },
            )
            .check(Check::BitExact)
            .baseline(1)
            .cost_level(3),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::binomial(arch, 1024)
    }
}

// ---------------------------------------------------------------------
// Brownian bridge (Fig. 6)
// ---------------------------------------------------------------------

/// Fig. 6: 64-step Brownian-bridge path construction.
pub struct BrownianBridge;

/// Bridge plan plus pre-generated normals in both layouts and the stream
/// family the RNG-inlined rungs draw from.
pub struct BridgeWorkload {
    plan: BridgePlan,
    randoms: Vec<f64>,
    transposed: Vec<f64>,
    fam: StreamFamily,
    n_paths: usize,
}

impl Kernel for BrownianBridge {
    type Workload = BridgeWorkload;

    fn name(&self) -> &'static str {
        "brownian_bridge"
    }
    fn artifact(&self) -> &'static str {
        "fig6"
    }
    fn title(&self) -> &'static str {
        "Brownian bridge (paths/s)"
    }
    fn unit(&self) -> &'static str {
        "paths/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> BridgeWorkload {
        // >= 1024 paths keeps the statistical checks of the RNG-inlined
        // rungs well inside tolerance; multiples of 8 are the SIMD
        // drivers' contract.
        let n_paths = round_up(
            spec.n_hint
                .unwrap_or(if spec.quick { 4_096 } else { 65_536 })
                .max(1024),
            8,
        );
        let plan = BridgePlan::new(6, 1.0);
        let per = plan.randoms_per_path();
        let mut rng = Mt19937_64::new(spec.seed.wrapping_add(2));
        let mut randoms = vec![0.0; n_paths * per];
        fill_standard_normal_icdf(&mut rng, &mut randoms);
        let transposed = bridge_simd::transpose_randoms::<8>(&randoms, per);
        BridgeWorkload {
            plan,
            randoms,
            transposed,
            fam: StreamFamily::new(spec.seed.wrapping_add(77)),
            n_paths,
        }
    }

    fn items(&self, w: &BridgeWorkload) -> usize {
        w.n_paths
    }

    fn ladder(&self) -> Vec<Rung<BridgeWorkload>> {
        // The first two rungs consume pre-generated normals (the paper's
        // Fig. 6 timings exclude RNG generation); the advanced rungs
        // generate their normals inline from a different stream, so their
        // checks are statistical, not element-wise.
        vec![
            Rung::new(
                OptLevel::Basic,
                "Basic: scalar depth-level",
                |w: &BridgeWorkload| {
                    fn_body(
                        (w, vec![0.0; w.n_paths * w.plan.points()]),
                        |(w, buf)| {
                            bridge_ref::build_paths::<f64>(&w.plan, &w.randoms, buf, w.n_paths)
                        },
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::None),
            Rung::new(
                OptLevel::Intermediate,
                "Intermediate: SIMD across paths (W=8)",
                |w: &BridgeWorkload| {
                    fn_body(
                        (w, vec![0.0; w.n_paths * w.plan.points()]),
                        |(w, buf)| {
                            bridge_simd::build_paths_simd::<8>(
                                &w.plan,
                                &w.transposed,
                                buf,
                                w.n_paths,
                            )
                        },
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::BitExact)
            .cost_level(1),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: interleaved RNG (incl. RNG gen)",
                |w: &BridgeWorkload| {
                    fn_body(
                        (w, vec![0.0; w.n_paths * w.plan.points()]),
                        |(w, buf)| {
                            interleaved::build_paths_interleaved::<8>(
                                &w.plan, &w.fam, buf, w.n_paths,
                            )
                        },
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::Stat(0.1))
            .cost_level(2),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: cache-to-cache fused (incl. RNG gen)",
                |w: &BridgeWorkload| {
                    fn_body(
                        (w, vec![0.0; w.n_paths]),
                        |(w, stats)| {
                            interleaved::simulate_fused::<8>(
                                &w.plan,
                                &w.fam,
                                w.n_paths,
                                stats,
                                interleaved::path_average,
                            )
                        },
                        |(_, stats)| stats.clone(),
                    )
                },
            )
            .check(Check::Stat(0.1))
            .cost_level(3),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::brownian_bridge(arch)
    }
}

// ---------------------------------------------------------------------
// Monte Carlo (Table II)
// ---------------------------------------------------------------------

/// Table II: terminal-GBM European-call Monte Carlo.
pub struct MonteCarlo;

/// Pre-generated normal stream plus the stream family the computed-RNG
/// rung draws from.
pub struct McWorkload {
    g: GbmTerminal,
    randoms: Vec<f64>,
    fam: StreamFamily,
    n_paths: usize,
}

impl Kernel for MonteCarlo {
    type Workload = McWorkload;

    fn name(&self) -> &'static str {
        "monte_carlo"
    }
    fn artifact(&self) -> &'static str {
        "table2"
    }
    fn title(&self) -> &'static str {
        "Monte Carlo (paths/s)"
    }
    fn unit(&self) -> &'static str {
        "paths/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> McWorkload {
        // >= 2^15 paths keeps the statistical checks (different random
        // stream, antithetic estimator) many sigma inside tolerance.
        let n_paths = round_up(
            spec.n_hint
                .unwrap_or(if spec.quick { 1 << 17 } else { 1 << 21 })
                .max(1 << 15),
            8,
        );
        let mut rng = Mt19937_64::new(spec.seed.wrapping_add(4));
        let mut randoms = vec![0.0; n_paths];
        fill_standard_normal_icdf(&mut rng, &mut randoms);
        McWorkload {
            g: GbmTerminal::new(1.0, M),
            randoms,
            fam: StreamFamily::new(spec.seed.wrapping_add(4)),
            n_paths,
        }
    }

    fn items(&self, w: &McWorkload) -> usize {
        w.n_paths
    }

    fn ladder(&self) -> Vec<Rung<McWorkload>> {
        vec![
            Rung::new(
                OptLevel::Basic,
                "Basic: scalar streamed RNG (paths/s)",
                |w: &McWorkload| {
                    fn_body(
                        (w, None),
                        |(w, sums)| {
                            *sums =
                                Some(mc_ref::paths_streamed::<f64>(100.0, 100.0, w.g, &w.randoms))
                        },
                        |(_, sums)| path_sums_mean(sums),
                    )
                },
            )
            .check(Check::None),
            Rung::new(
                OptLevel::Intermediate,
                "SIMD streamed RNG (paths/s)",
                |w: &McWorkload| {
                    fn_body(
                        (w, None),
                        |(w, sums)| {
                            *sums = Some(mc_simd::paths_streamed_simd::<8>(
                                100.0, 100.0, w.g, &w.randoms,
                            ))
                        },
                        |(_, sums)| path_sums_mean(sums),
                    )
                },
            )
            // Same stream, reordered reduction: the means agree tightly.
            .check(Check::Rel(1e-9)),
            Rung::new(
                OptLevel::Advanced,
                "SIMD computed RNG (paths/s)",
                |w: &McWorkload| {
                    fn_body(
                        (w, None),
                        |(w, sums)| {
                            *sums = Some(mc_simd::paths_computed_simd::<8>(
                                100.0, 100.0, w.g, &w.fam, 0, w.n_paths,
                            ))
                        },
                        |(_, sums)| path_sums_mean(sums),
                    )
                },
            )
            // Different (equal-in-distribution) stream.
            .check(Check::Stat(0.05))
            .cost_level(1),
            Rung::new(
                OptLevel::Advanced,
                "Antithetic variates (paths/s)",
                |w: &McWorkload| {
                    fn_body(
                        (w, None),
                        |(w, sums)| {
                            *sums = Some(mc_simd::paths_antithetic::<8>(
                                100.0, 100.0, w.g, &w.randoms,
                            ))
                        },
                        |(_, sums)| path_sums_mean(sums),
                    )
                },
            )
            // Same expectation, different (variance-reduced) estimator.
            .check(Check::Stat(0.05)),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::monte_carlo_levels(arch)
    }
}

// ---------------------------------------------------------------------
// Crank-Nicolson (Fig. 8)
// ---------------------------------------------------------------------

/// Fig. 8: American-put Crank-Nicolson with PSOR.
pub struct CrankNicolson;

impl Kernel for CrankNicolson {
    type Workload = CnProblem;

    fn name(&self) -> &'static str {
        "crank_nicolson"
    }
    fn artifact(&self) -> &'static str {
        "fig8"
    }
    fn title(&self) -> &'static str {
        "Crank-Nicolson (options/s)"
    }
    fn unit(&self) -> &'static str {
        "opts/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> CnProblem {
        let mut prob = CnProblem::paper(M, 1.0);
        // n_hint varies the time-step count (the grid is the paper's
        // fixed 256 points); each "item" is one full solve.
        prob.n_steps = spec
            .n_hint
            .unwrap_or(if spec.quick { 100 } else { 500 })
            .clamp(10, 2000);
        prob
    }

    fn items(&self, _w: &CnProblem) -> usize {
        1
    }

    fn ladder(&self) -> Vec<Rung<CnProblem>> {
        fn solve_rung(level: OptLevel, label: &'static str, kind: PsorKind) -> Rung<CnProblem> {
            Rung::new(level, label, move |w: &CnProblem| {
                fn_body(
                    (w.clone(), None::<CnSolution>),
                    move |(p, sol)| *sol = Some(p.solve(kind)),
                    |(_, sol)| sol.as_ref().expect("step() ran before output()").u.clone(),
                )
            })
        }
        vec![
            solve_rung(OptLevel::Basic, "Basic: scalar PSOR", PsorKind::Reference)
                .check(Check::None),
            // The scalar solver checks convergence every iteration, the
            // wavefront every W, so they stop at slightly different
            // points (see tests/cross_method_pricing.rs).
            solve_rung(
                OptLevel::Advanced,
                "Advanced: wavefront manual SIMD",
                PsorKind::Wavefront,
            )
            .check(Check::Rel(1e-4))
            .cost_level(1),
            // Identical iteration schedule to the wavefront rung.
            solve_rung(
                OptLevel::Advanced,
                "Advanced: + data transform",
                PsorKind::WavefrontSoa,
            )
            .check(Check::Rel(1e-12))
            .baseline(1)
            .cost_level(2),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::crank_nicolson(arch, 256, 1000)
    }
}

// ---------------------------------------------------------------------
// Random number generation (Table II rows 3-4)
// ---------------------------------------------------------------------

/// Table II rows 3-4: raw uniform/normal DP generation rates.
pub struct Rng;

/// Buffer size plus the seed the per-rung generators start from.
pub struct RngWorkload {
    n: usize,
    seed: u64,
}

impl Kernel for Rng {
    type Workload = RngWorkload;

    fn name(&self) -> &'static str {
        "rng"
    }
    fn artifact(&self) -> &'static str {
        "table2"
    }
    fn title(&self) -> &'static str {
        "RNG rates (numbers/s)"
    }
    fn unit(&self) -> &'static str {
        "nums/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> RngWorkload {
        // >= 2^16 numbers keeps the cross-generator statistical checks
        // many sigma inside tolerance.
        RngWorkload {
            n: spec
                .n_hint
                .unwrap_or(if spec.quick { 1 << 18 } else { 1 << 22 })
                .max(1 << 16),
            seed: spec.seed,
        }
    }

    fn items(&self, w: &RngWorkload) -> usize {
        w.n
    }

    fn ladder(&self) -> Vec<Rung<RngWorkload>> {
        // Two baselines: the uniform rungs check against rung 0, the
        // normal rungs against rung 2 — different generators (or
        // transforms) produce different sequences, so all the cross
        // checks are statistical.
        vec![
            Rung::new(
                OptLevel::Basic,
                "uniform DP (MT19937-64)",
                |w: &RngWorkload| {
                    fn_body(
                        (Mt19937_64::new(w.seed), vec![0.0; w.n]),
                        |(rng, buf)| fill_uniform(rng, buf),
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::None),
            Rung::new(
                OptLevel::Basic,
                "uniform DP (Philox4x32)",
                |w: &RngWorkload| {
                    fn_body(
                        (Philox4x32::new(w.seed), vec![0.0; w.n]),
                        |(rng, buf)| fill_uniform(rng, buf),
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::Stat(0.01)),
            Rung::new(
                OptLevel::Intermediate,
                "normal DP (ICDF)",
                |w: &RngWorkload| {
                    fn_body(
                        (Mt19937_64::new(w.seed.wrapping_add(1)), vec![0.0; w.n]),
                        |(rng, buf)| fill_standard_normal_icdf(rng, buf),
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::None)
            .cost_level(1),
            Rung::new(
                OptLevel::Intermediate,
                "normal DP (polar)",
                |w: &RngWorkload| {
                    fn_body(
                        (Mt19937_64::new(w.seed.wrapping_add(2)), vec![0.0; w.n]),
                        |(rng, buf)| fill_standard_normal_polar(rng, buf),
                        |(_, buf)| buf.clone(),
                    )
                },
            )
            .check(Check::Stat(0.03))
            .baseline(2)
            .cost_level(1),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::rng(arch)
    }
}

// ---------------------------------------------------------------------
// Greeks (risk workload)
// ---------------------------------------------------------------------

/// Risk workload: the five Black-Scholes sensitivities for a batch of
/// European options, estimated three independent ways — analytic closed
/// form (scalar and SIMD-SOA), bump-and-reprice central differences
/// (closed form and a CRR lattice), and Monte Carlo (pathwise and CRN
/// finite differences). Every rung reports the per-option **call delta**
/// vector, the common observable all estimator families share, so the
/// declared checks line up: bit-exact inside the analytic family,
/// tight-relative for bumps, statistical for the sampled estimators.
pub struct GreeksKernel;

/// Option batch plus the shared CRN normal draws and the lattice depth
/// the bump rung reprices at.
pub struct GreeksWorkload {
    batch: OptionBatchSoa,
    /// One named stream of normals every MC rung replays — common random
    /// numbers across rungs *and* across bump legs.
    randoms: Vec<f64>,
    n_tree: usize,
}

impl Kernel for GreeksKernel {
    type Workload = GreeksWorkload;

    fn name(&self) -> &'static str {
        "greeks"
    }
    fn artifact(&self) -> &'static str {
        "greeks_bench"
    }
    fn title(&self) -> &'static str {
        "Greeks (options/s)"
    }
    fn unit(&self) -> &'static str {
        "opts/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> GreeksWorkload {
        let n = round_up(
            spec.n_hint
                .unwrap_or(if spec.quick { 256 } else { 1024 })
                .max(8),
            8,
        );
        // >= 2^12 paths keeps the per-option pathwise standard error
        // (~0.5/√paths on the delta scale) far inside the Stat band.
        let n_paths = if spec.quick { 1 << 12 } else { 1 << 14 };
        let fam = StreamFamily::new(spec.seed.wrapping_add(9));
        GreeksWorkload {
            batch: OptionBatchSoa::random(n, spec.seed, WorkloadRanges::default()),
            randoms: crn_normals(&fam, 0, n_paths),
            n_tree: if spec.quick { 64 } else { 256 },
        }
    }

    fn items(&self, w: &GreeksWorkload) -> usize {
        w.batch.len()
    }

    fn ladder(&self) -> Vec<Rung<GreeksWorkload>> {
        fn call_deltas(out: &(&GreeksWorkload, GreeksBatchSoa)) -> Vec<f64> {
            out.1.call.delta.clone()
        }
        fn sweep_rung<const W: usize>(
            level: OptLevel,
            label: &'static str,
        ) -> Rung<GreeksWorkload> {
            Rung::new(level, label, |w: &GreeksWorkload| {
                fn_body(
                    (w, GreeksBatchSoa::zeroed(w.batch.len())),
                    |(w, out)| greeks_batch_simd::<W>(&w.batch, M, out),
                    call_deltas,
                )
            })
        }
        fn bump_rung(
            label: &'static str,
            est: fn(&GreeksWorkload, usize) -> Greeks,
        ) -> Rung<GreeksWorkload> {
            Rung::new(OptLevel::Advanced, label, move |w: &GreeksWorkload| {
                fn_body(
                    (w, Vec::<Greeks>::new()),
                    move |(w, out)| {
                        out.clear();
                        out.extend((0..w.batch.len()).map(|i| est(w, i)));
                    },
                    |(_, out)| out.iter().map(|g| g.delta).collect(),
                )
            })
        }
        vec![
            sweep_rung::<1>(OptLevel::Basic, "Basic: scalar greeks sweep").check(Check::None),
            // Same lane arithmetic at every width (shared lane block).
            sweep_rung::<4>(
                OptLevel::Intermediate,
                "Intermediate: SIMD SOA greeks (W=4)",
            )
            .check(Check::BitExact)
            .cost_level(1),
            sweep_rung::<8>(
                OptLevel::Intermediate,
                "Intermediate: SIMD SOA greeks (W=8)",
            )
            .check(Check::BitExact)
            .cost_level(1),
            // Prices + all ten greeks in one SOA pass sharing the
            // d1/√t/discount/N(d1) subexpressions; bit-identical to the
            // separate sweeps (declared below, validated like any rung).
            Rung::new(
                OptLevel::Advanced,
                "Advanced: fused price+greeks (W=8)",
                |w: &GreeksWorkload| {
                    fn_body(
                        (w.batch.clone(), GreeksBatchSoa::zeroed(w.batch.len())),
                        |(batch, out)| crate::greeks::price_and_greeks_into::<8>(batch, M, out),
                        |(_, out)| out.call.delta.clone(),
                    )
                },
            )
            .check(Check::BitExact)
            .cost_level(1),
            bump_rung("Advanced: bump-and-reprice closed form", |w, i| {
                bs_bump_greeks(
                    OptionType::Call,
                    w.batch.s[i],
                    w.batch.x[i],
                    w.batch.t[i],
                    M,
                    BumpSizes::default(),
                )
            })
            // Central differences at the default bump: O(h²) truncation.
            .check(Check::Rel(1e-5))
            .cost_level(2),
            bump_rung("Advanced: bump-and-reprice binomial", |w, i| {
                binomial_bump_greeks(
                    OptionType::Call,
                    w.batch.s[i],
                    w.batch.x[i],
                    w.batch.t[i],
                    M,
                    w.n_tree,
                    BumpSizes::lattice(),
                )
            })
            // Lattice discretization + percent-scale bumps; delta ∈ [0,1]
            // so the Rel scale clamp makes this an absolute band.
            .check(Check::Rel(0.05))
            .cost_level(2),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: MC pathwise (delta/vega)",
                |w: &GreeksWorkload| {
                    fn_body(
                        (w, Vec::<McGreeks>::new()),
                        |(w, out)| {
                            out.clear();
                            out.extend((0..w.batch.len()).map(|i| {
                                mc::pathwise_greeks(
                                    OptionType::Call,
                                    w.batch.s[i],
                                    w.batch.x[i],
                                    w.batch.t[i],
                                    M,
                                    &w.randoms,
                                )
                            }));
                        },
                        |(_, out)| out.iter().map(|g| g.delta.mean()).collect(),
                    )
                },
            )
            .check(Check::Stat(0.05))
            .cost_level(2),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: MC CRN finite difference",
                |w: &GreeksWorkload| {
                    fn_body(
                        (w, Vec::<(McEstimate, McEstimate)>::new()),
                        |(w, out)| {
                            out.clear();
                            out.extend((0..w.batch.len()).map(|i| {
                                let (s, x, t) = (w.batch.s[i], w.batch.x[i], w.batch.t[i]);
                                (
                                    crn_fd_delta(OptionType::Call, s, x, t, M, &w.randoms, 1e-3),
                                    crn_fd_vega(OptionType::Call, s, x, t, M, &w.randoms, 1e-3),
                                )
                            }));
                        },
                        |(_, out)| out.iter().map(|(d, _)| d.mean()).collect(),
                    )
                },
            )
            .check(Check::Stat(0.05))
            .cost_level(2),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        // The analytic sweep is the same transcendental-bound SOA loop as
        // the pricing kernel, with both contract sides and five outputs.
        cost_model::black_scholes(arch)
    }
}

// ---------------------------------------------------------------------
// Portfolio scenario revaluation (market risk)
// ---------------------------------------------------------------------

/// Full-book scenario revaluation — the production market-risk workload
/// layered on the Black-Scholes vector body: a fixed book repriced under
/// a deterministic shocked-scenario grid, one P&L value per scenario.
///
/// The observable checked across rungs is the P&L vector itself. The
/// scalar / W=4 / W=8 sweeps are bit-exact among themselves (the staged
/// book is padded to the widest lane count, so no width ever takes a
/// scalar remainder path, and every width sums in the same strided
/// order), and the chunk-parallel rung is Rel-checked: it is
/// bitwise-identical too (split-invariant grids, the same reduction),
/// but the declared tolerance documents only what the schedule
/// guarantees by construction.
pub struct PortfolioKernel;

/// A book plus its scenario grid, both pure functions of the spec seed.
pub struct PortfolioWorkload {
    book: Book,
    cfg: ScenarioConfig,
    grid: crate::portfolio::ScenarioGrid,
}

impl Kernel for PortfolioKernel {
    type Workload = PortfolioWorkload;

    fn name(&self) -> &'static str {
        "portfolio"
    }
    fn artifact(&self) -> &'static str {
        "portfolio_bench"
    }
    fn title(&self) -> &'static str {
        "Portfolio revaluation (pricings/s)"
    }
    fn unit(&self) -> &'static str {
        "pricings/s"
    }

    fn make_workload(&self, spec: &WorkloadSpec) -> PortfolioWorkload {
        // `n_hint` scales the scenario axis (the one experiments sweep);
        // the book is the per-scenario inner loop and stays fixed.
        let scenarios = spec
            .n_hint
            .unwrap_or(if spec.quick { 128 } else { 2048 })
            .max(8);
        let positions = if spec.quick { 64 } else { 256 };
        let cfg = ScenarioConfig::standard(scenarios, spec.seed);
        PortfolioWorkload {
            book: Book::random(positions, spec.seed),
            grid: cfg.grid(),
            cfg,
        }
    }

    fn items(&self, w: &PortfolioWorkload) -> usize {
        // One item = one option pricing; a sweep does book × scenarios.
        w.book.len() * w.cfg.scenarios
    }

    fn ladder(&self) -> Vec<Rung<PortfolioWorkload>> {
        fn pnl_out(out: &(&PortfolioWorkload, RevalScratch, Vec<f64>)) -> Vec<f64> {
            out.2.clone()
        }
        fn reval_rung<const W: usize>(
            level: OptLevel,
            label: &'static str,
        ) -> Rung<PortfolioWorkload> {
            Rung::new(level, label, |w: &PortfolioWorkload| {
                fn_body(
                    (w, RevalScratch::new(), Vec::new()),
                    |(w, scratch, pnl)| revalue_into::<W>(&w.book, M, &w.grid, scratch, pnl),
                    pnl_out,
                )
            })
        }
        vec![
            reval_rung::<1>(OptLevel::Basic, "Basic: scalar revaluation sweep").check(Check::None),
            // Same padded batch, same lane arithmetic at every width.
            reval_rung::<4>(
                OptLevel::Intermediate,
                "Intermediate: SIMD revaluation (W=4)",
            )
            .check(Check::BitExact)
            .cost_level(1),
            reval_rung::<8>(
                OptLevel::Intermediate,
                "Intermediate: SIMD revaluation (W=8)",
            )
            .check(Check::BitExact)
            .cost_level(1),
            Rung::new(
                OptLevel::Advanced,
                "Advanced: chunk-parallel scenarios",
                |w: &PortfolioWorkload| {
                    fn_body(
                        (w, Vec::new()),
                        |(w, pnl)| par_revalue(&w.book, M, &w.cfg, 256, pnl),
                        |(_, pnl)| pnl.clone(),
                    )
                },
            )
            .check(Check::Rel(1e-12))
            .cost_level(2)
            .threaded(),
        ]
    }

    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        cost_model::portfolio_revaluation(arch)
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// The six paper kernels in paper-artifact order, plus the greeks and
/// portfolio risk workloads — the single source of truth the harness
/// ladder loop, the experiment index, and the planner share.
pub fn registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(BlackScholes);
    reg.register(Binomial);
    reg.register(BrownianBridge);
    reg.register(MonteCarlo);
    reg.register(CrankNicolson);
    reg.register(Rng);
    reg.register(GreeksKernel);
    reg.register(PortfolioKernel);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_engine::{Engine, Planner};
    use finbench_machine::{KNC, SNB_EP};

    #[test]
    fn registry_holds_all_eight_kernels() {
        let reg = registry();
        assert_eq!(
            reg.names(),
            [
                "black_scholes",
                "binomial",
                "brownian_bridge",
                "monte_carlo",
                "crank_nicolson",
                "rng",
                "greeks",
                "portfolio"
            ]
        );
    }

    #[test]
    fn registry_is_consistent_on_all_planning_archs() {
        let reg = registry();
        for arch in [SNB_EP, KNC, finbench_machine::arch::host_spec()] {
            let errs = reg.consistency_errors(&arch);
            assert!(errs.is_empty(), "{}: {errs:?}", arch.name);
        }
    }

    #[test]
    fn ladders_match_the_pre_refactor_harness_rungs() {
        // The exact labels (and counts) the hand-written drivers in
        // harness/native.rs produced before the engine refactor — the
        // `finbench native --quick` output contract.
        let want: &[(&str, &[&str])] = &[
            (
                "black_scholes",
                &[
                    "Basic: scalar AOS reference",
                    "Basic+: SIMD on AOS (gathers)",
                    "Intermediate: scalar SOA",
                    "Intermediate: SIMD SOA (W=4)",
                    "Intermediate: SIMD SOA (W=8)",
                    "Advanced: erf + parity (W=8)",
                    "Advanced: VML-style batch",
                    "Advanced + own-pool threads",
                ],
            ),
            (
                "binomial",
                &[
                    "Basic: scalar reference",
                    "Intermediate: SIMD across options (W=8)",
                    "Advanced: register tiling (W=8, TS=4)",
                    "Advanced: register tiling (W=8, TS=8)",
                ],
            ),
            (
                "brownian_bridge",
                &[
                    "Basic: scalar depth-level",
                    "Intermediate: SIMD across paths (W=8)",
                    "Advanced: interleaved RNG (incl. RNG gen)",
                    "Advanced: cache-to-cache fused (incl. RNG gen)",
                ],
            ),
            (
                "monte_carlo",
                &[
                    "Basic: scalar streamed RNG (paths/s)",
                    "SIMD streamed RNG (paths/s)",
                    "SIMD computed RNG (paths/s)",
                    "Antithetic variates (paths/s)",
                ],
            ),
            (
                "crank_nicolson",
                &[
                    "Basic: scalar PSOR",
                    "Advanced: wavefront manual SIMD",
                    "Advanced: + data transform",
                ],
            ),
            (
                "rng",
                &[
                    "uniform DP (MT19937-64)",
                    "uniform DP (Philox4x32)",
                    "normal DP (ICDF)",
                    "normal DP (polar)",
                ],
            ),
        ];
        let reg = registry();
        for (name, labels) in want {
            let got: Vec<&str> = reg
                .get(name)
                .unwrap_or_else(|| panic!("kernel {name} not registered"))
                .rungs()
                .iter()
                .map(|r| r.label)
                .collect();
            assert_eq!(&got, labels, "{name}");
        }
    }

    #[test]
    fn greeks_ladder_spans_all_three_estimator_families() {
        let reg = registry();
        let labels: Vec<&str> = reg
            .get("greeks")
            .expect("greeks kernel registered")
            .rungs()
            .iter()
            .map(|r| r.label)
            .collect();
        assert_eq!(
            labels,
            [
                "Basic: scalar greeks sweep",
                "Intermediate: SIMD SOA greeks (W=4)",
                "Intermediate: SIMD SOA greeks (W=8)",
                "Advanced: fused price+greeks (W=8)",
                "Advanced: bump-and-reprice closed form",
                "Advanced: bump-and-reprice binomial",
                "Advanced: MC pathwise (delta/vega)",
                "Advanced: MC CRN finite difference",
            ]
        );
    }

    #[test]
    fn portfolio_ladder_spans_serial_and_parallel_revaluation() {
        let reg = registry();
        let labels: Vec<&str> = reg
            .get("portfolio")
            .expect("portfolio kernel registered")
            .rungs()
            .iter()
            .map(|r| r.label)
            .collect();
        assert_eq!(
            labels,
            [
                "Basic: scalar revaluation sweep",
                "Intermediate: SIMD revaluation (W=4)",
                "Intermediate: SIMD revaluation (W=8)",
                "Advanced: chunk-parallel scenarios",
            ]
        );
    }

    #[test]
    fn every_rung_validates_against_its_baseline() {
        let engine = Engine::with_planner(registry(), Planner::new(SNB_EP));
        let errs = engine.validate_all(&WorkloadSpec::validation(42, 64));
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn planner_produces_a_plan_for_every_kernel() {
        let reg = registry();
        for arch in [SNB_EP, KNC] {
            let planner = Planner::new(arch);
            for k in reg.kernels() {
                let plan = planner.plan(k).unwrap_or_else(|e| panic!("{e}"));
                assert!(
                    plan.predicted_rate.is_finite() && plan.predicted_rate > 0.0,
                    "{}: {plan:?}",
                    k.name()
                );
                assert!(!plan.reason.is_empty());
            }
        }
    }

    #[test]
    fn planner_skips_vml_staging_when_bandwidth_bound() {
        // On SNB-EP the advanced Black-Scholes level is bandwidth-bound
        // (the paper's §IV-A VML-vs-SVML discussion), so the planner must
        // not choose the two-pass VML batch rung.
        let planner = Planner::new(SNB_EP);
        let reg = registry();
        let plan = planner.plan(reg.get("black_scholes").unwrap()).unwrap();
        assert_ne!(plan.slug, "advanced_vml_style_batch", "{plan:?}");
    }
}
