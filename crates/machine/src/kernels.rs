//! Calibrated cost descriptors: one [`LevelCost`] per kernel per
//! optimization level per architecture.
//!
//! Structural fields (flops, transcendental mix, bytes) restate the
//! paper's own accounting — Black-Scholes streams 24 B in / 16 B out and
//! calls one `ln`, one `exp` and four `cnd` (two `erf` after the advanced
//! substitution); the binomial reduction is `3·N(N+1)/2` flops; the
//! 64-step bridge consumes 64 normals (512 B) and emits 65 points
//! (520 B); a Monte-Carlo path-step is ~7 flops + one `exp`;
//! Crank-Nicolson does ~7 flops per PSOR node visit. These inputs are
//! audited against `CountedF64` runs of the real kernels in this module's
//! tests.
//!
//! Efficiency fields (`width_frac`, `ilp`, `overhead`, `gather_lines`)
//! are calibrated so the modeled bars land on the bars the paper reports;
//! every calibrated claim is pinned by a test, so the calibration cannot
//! drift silently. See EXPERIMENTS.md for model-vs-paper values.

use crate::arch::{ArchSpec, Issue};
use crate::cost::LevelCost;

/// Which of the two modeled testbeds a spec describes.
fn is_knc(arch: &ArchSpec) -> bool {
    arch.issue == Issue::InOrder
}

/// One labeled rung of a kernel's optimization ladder.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Display label (matches the paper's legend).
    pub label: &'static str,
    /// The cost descriptor.
    pub cost: LevelCost,
}

// ---------------------------------------------------------------------
// Black-Scholes (items = options; Fig. 4, Mopts/s)
// ---------------------------------------------------------------------

/// Black-Scholes ladder: Basic (AOS reference) → Intermediate (AOS→SOA +
/// SIMD) → Advanced (erf + parity; VML on SNB-EP).
pub fn black_scholes(arch: &ArchSpec) -> Vec<Level> {
    let knc = is_knc(arch);
    // 24 B in + 16 B out per option.
    let bytes = 40.0;

    // Basic: the cnd-form kernel — 1 exp, 1 ln + 4 cnd (5 heavies),
    // 1 sqrt + 1 div, ~20 residual flops.
    let basic = LevelCost {
        flops: 20.0,
        exps: 1.0,
        heavies: 5.0,
        // 2 divides (S/X and 1/(sigma sqrt T)) + 1 sqrt.
        slow_ops: 3.0,
        rng_normals: 0.0,
        bytes,
        // SNB-EP: the compiler partially vectorizes the AOS loop
        // (superscalar hides the strided accesses). KNC: fully
        // vectorized but every field access is an 8-line gather and the
        // masked gather sequences blow up the instruction count ("more
        // than 10x increase in the number of instructions").
        width_frac: if knc { 1.0 } else { 0.45 },
        ilp: 0.9,
        gather_lines: if knc { 5.0 } else { 0.0 },
        overhead: if knc { 5.0 } else { 1.0 },
    };

    // Intermediate: SOA layout, unit-stride SIMD, and the four cnd as two
    // pairs (`norm_cdf_pair`: Φ(d) and Φ(−d) from one Gaussian, one
    // rational and one division), so the rationals are flops: 1 ln,
    // 3 exp (the discount and one Gaussian per |d|), 4 divides (S/X,
    // 1/(σ√T) and one per pair) + 1 sqrt, and 80 flops — the two central
    // rationals' Horner chains (degree 6 over degree 7, 26 each), 10 for
    // the pairs' |d|, Gaussian arguments and complements, 18 for d1/d2
    // and the prices. Audited against `soa::price_vec_cnd` at CountedF64.
    let soa_simd = LevelCost {
        width_frac: 1.0,
        gather_lines: 0.0,
        overhead: 1.0,
        ..basic
    };
    let intermediate = LevelCost {
        flops: 80.0,
        exps: 3.0,
        heavies: 1.0,
        slow_ops: 5.0,
        ..soa_simd
    };

    // Advanced: cnd -> erf (4 cnd -> 2 erf) + call/put parity; the VML
    // batch form performs identically in the model (same op mix).
    let advanced = LevelCost {
        flops: 15.0,
        heavies: 3.0, // 2 erf + 1 ln
        ..soa_simd
    };

    vec![
        Level {
            label: "Basic (reference AOS)",
            cost: basic,
        },
        Level {
            label: "Intermediate (AOS->SOA + SIMD)",
            cost: intermediate,
        },
        Level {
            label: "Advanced (erf/parity, VML)",
            cost: advanced,
        },
    ]
}

// ---------------------------------------------------------------------
// Portfolio revaluation (items = (position, scenario) pricings)
// ---------------------------------------------------------------------

/// Portfolio-revaluation ladder: Basic (lane-of-one sweep) → Intermediate
/// (SIMD across positions) → Advanced (scenario chunks over the pool). Not
/// a figure of the paper: the descriptor restates `core::portfolio`'s
/// hoisted call-only body, the Black-Scholes *Basic* mix minus everything
/// the scenario loop no longer does — the put leg (2 `cnd`), `ln(s/x)`,
/// `s/x` and `√t` (once per position instead) — with its two remaining
/// `cnd` opened up: one Gaussian serves both (`S'·φ(d1) = K·φ(d2)`) and
/// their two rationals share one division.
pub fn portfolio_revaluation(arch: &ArchSpec) -> Vec<Level> {
    // 2 exp (the discount and the one Gaussian), no cnd, and 2 divides
    // (by σ√t, and the shared one under both rationals). Flops: the two
    // central rationals' Horner chains (degree 6 over degree 7, 26 each),
    // ~23 of d1/d2/the call, and 3 for qty·(call − base) into its partial
    // sum. The staged book (8 columns × 8 B per position, 16 KiB at 256
    // positions) stays in L1 across scenarios: no DRAM bytes.
    let simd = LevelCost {
        exps: 2.0,
        slow_ops: 2.0,
        ..LevelCost::flops_only(78.0, 0.0)
    };
    // Basic: the same body one position per step; the compiler vectorizes
    // the sweep about as far as it does the Black-Scholes reference loop.
    let basic = LevelCost {
        width_frac: black_scholes(arch)[0].cost.width_frac,
        ..simd
    };
    // Advanced runs the Intermediate body per scenario chunk: the same cost
    // per pricing (the planner breaks the tie towards the later level).
    vec![
        Level {
            label: "Basic (scalar revaluation)",
            cost: basic,
        },
        Level {
            label: "Intermediate (SIMD across positions)",
            cost: simd,
        },
        Level {
            label: "Advanced (chunk-parallel scenarios)",
            cost: simd,
        },
    ]
}

// ---------------------------------------------------------------------
// Binomial tree (items = options; Fig. 5, Kopts/s)
// ---------------------------------------------------------------------

/// The paper's reduction flop count for an `n`-step tree.
pub fn binomial_flops(n: usize) -> f64 {
    1.5 * n as f64 * (n as f64 + 1.0)
}

/// Binomial ladder at `n` time steps: Basic (inner-loop autovec) →
/// Intermediate (SIMD across options) → Advanced (register tiling) →
/// Advanced+unroll.
pub fn binomial(arch: &ArchSpec, n: usize) -> Vec<Level> {
    let knc = is_knc(arch);
    let flops = binomial_flops(n);
    let mk = |width_frac: f64, ilp: f64| LevelCost {
        width_frac,
        ilp,
        ..LevelCost::flops_only(flops, 0.0)
    };
    // Basic: inner-loop autovectorization; unaligned Call[j+1] loads and
    // the ragged loop tail cap lane utilization, and the 2-flop node
    // recurrence is load/store-latency-bound.
    let basic = if knc { mk(0.95, 0.199) } else { mk(0.9, 0.455) };
    // Intermediate: one option per lane fixes alignment but each node is
    // still a load + store + 3 flops — "hardly improves performance".
    let intermediate = if knc { mk(1.0, 0.22) } else { mk(1.0, 0.46) };
    // Advanced: register tiling — each Call element is loaded/stored once
    // per TS steps, so the recurrence runs from the register file.
    let tiled = if knc { mk(1.0, 0.55) } else { mk(1.0, 0.9) };
    // Unrolling on top: exposes ILP the in-order KNC cannot find itself;
    // the out-of-order SNB-EP already extracts it ("little effect").
    let unrolled = if knc { mk(1.0, 0.75) } else { mk(1.0, 0.92) };
    vec![
        Level {
            label: "Basic (reference)",
            cost: basic,
        },
        Level {
            label: "Intermediate (SIMD across options)",
            cost: intermediate,
        },
        Level {
            label: "Advanced (register tiling)",
            cost: tiled,
        },
        Level {
            label: "Basic unroll (on tiled)",
            cost: unrolled,
        },
    ]
}

// ---------------------------------------------------------------------
// Brownian bridge (items = paths; Fig. 6, Mpaths/s, 64-step DP)
// ---------------------------------------------------------------------

/// Brownian-bridge ladder for a 64-step bridge: Basic → SIMD across paths
/// → interleaved RNG → cache-to-cache fusion.
pub fn brownian_bridge(arch: &ArchSpec) -> Vec<Level> {
    let knc = is_knc(arch);
    // ~5 flops per midpoint x 63 midpoints plus buffer traffic ~ 320.
    let flops = 320.0;
    // Streamed: 64 normals in (512 B) + 65 points out (520 B).
    let bytes_streamed = 1032.0;
    let bytes_interleaved = 520.0; // randoms stay in LLC
    let bytes_fused = 8.0; // one functional value out per path

    let mk = |wf: f64, ilp: f64, ov: f64, bytes: f64| LevelCost {
        width_frac: wf,
        ilp,
        overhead: ov,
        ..LevelCost::flops_only(flops, bytes)
    };
    // Basic: scalar (random consumption pattern defeats the
    // autovectorizer); KNC's in-order scalar pipeline is ~25% slower.
    let basic = if knc {
        mk(0.125, 0.25, 2.0, bytes_streamed)
    } else {
        mk(0.25, 0.30, 1.2, bytes_streamed)
    };
    // Intermediate: one path per lane; compute now outruns DRAM and the
    // kernel is bandwidth-bound on both machines (the ping-ponged
    // src/dst working set keeps lane efficiency modest).
    let simd = if knc {
        mk(1.0, 0.08, 1.0, bytes_streamed)
    } else {
        mk(1.0, 0.12, 1.0, bytes_streamed)
    };
    // Advanced: interleaving the RNG removes the random-stream traffic
    // (slight ILP loss from the staging buffer churn)...
    let interleaved = if knc {
        mk(1.0, 0.07, 1.0, bytes_interleaved)
    } else {
        mk(1.0, 0.105, 1.0, bytes_interleaved)
    };
    // ...and fusing the consumer removes the output stream: compute-bound
    // on both; no FMA in the (mul-heavy) midpoint op, so KNC leads by 2x
    // rather than its 3x flop ratio.
    let fused = if knc {
        mk(1.0, 0.08, 1.0, bytes_fused)
    } else {
        mk(1.0, 0.12, 1.0, bytes_fused)
    };
    vec![
        Level {
            label: "Basic (pragma simd/omp/unroll)",
            cost: basic,
        },
        Level {
            label: "Intermediate (SIMD across paths)",
            cost: simd,
        },
        Level {
            label: "Advanced (interleaved RNG)",
            cost: interleaved,
        },
        Level {
            label: "Advanced (cache-to-cache)",
            cost: fused,
        },
    ]
}

// ---------------------------------------------------------------------
// Monte Carlo (items = paths; Tab. II, options/s at 256k paths)
// ---------------------------------------------------------------------

/// Paths per option in Table II.
pub const MC_PATHS_PER_OPTION: f64 = 262_144.0;

/// Monte-Carlo per-path descriptors: `(streamed RNG, computed RNG)`.
/// Already peak code at the basic level ("only a handful of compiler
/// pragmas are needed").
pub fn monte_carlo(arch: &ArchSpec) -> (LevelCost, LevelCost) {
    let knc = is_knc(arch);
    let streamed = LevelCost {
        flops: 8.0,
        exps: 1.0,
        // The shared random stream is reused by every option, so its DRAM
        // traffic amortizes to ~0 per (option, path) pair.
        bytes: 0.0,
        width_frac: 1.0,
        ilp: if knc { 0.85 } else { 0.75 },
        ..LevelCost::flops_only(0.0, 0.0)
    };
    let computed = LevelCost {
        rng_normals: 1.0,
        ..streamed
    };
    (streamed, computed)
}

/// [`monte_carlo`] as a labeled ladder for the engine's planner.
pub fn monte_carlo_levels(arch: &ArchSpec) -> Vec<Level> {
    let (streamed, computed) = monte_carlo(arch);
    vec![
        Level {
            label: "Streamed RNG",
            cost: streamed,
        },
        Level {
            label: "Computed RNG",
            cost: computed,
        },
    ]
}

// ---------------------------------------------------------------------
// Random number generation (items = numbers; Tab. II rows 3-4, nums/s)
// ---------------------------------------------------------------------

/// RNG ladder: uniform DP (vectorized Mersenne-class generator) and
/// normal DP (uniform + inverse CDF). Both descriptors reduce to the
/// calibrated `*_rng_cpe` constants, so their modeled rates are exactly
/// the Table II rows the constants were fit to. The output buffer is
/// LLC-resident in the benchmark loop, so no DRAM bytes are charged.
pub fn rng(arch: &ArchSpec) -> Vec<Level> {
    // Charge the uniform generator through the flop term: with full lanes
    // and unit ILP, `flops / (2 * width)` cycles/item = `uniform_rng_cpe`.
    let uniform =
        LevelCost::flops_only(2.0 * arch.simd_width_dp as f64 * arch.uniform_rng_cpe, 0.0);
    let normal = LevelCost {
        rng_normals: 1.0,
        ..LevelCost::flops_only(0.0, 0.0)
    };
    vec![
        Level {
            label: "Uniform DP (vector MT)",
            cost: uniform,
        },
        Level {
            label: "Normal DP (ICDF)",
            cost: normal,
        },
    ]
}

// ---------------------------------------------------------------------
// Crank-Nicolson (items = options; Fig. 8, Kopts/s)
// ---------------------------------------------------------------------

/// PSOR node visits per option: interior points × time steps × average
/// PSOR iterations (~8 with the adapted omega).
pub fn cn_nodes_per_option(n_points: usize, n_steps: usize) -> f64 {
    (n_points as f64 - 2.0) * n_steps as f64 * 8.0
}

/// Crank-Nicolson ladder: Basic (scalar PSOR) → Advanced (wavefront
/// manual SIMD) → Advanced (+ data-structure transform).
pub fn crank_nicolson(arch: &ArchSpec, n_points: usize, n_steps: usize) -> Vec<Level> {
    let knc = is_knc(arch);
    let nodes = cn_nodes_per_option(n_points, n_steps);
    let flops = 7.0 * nodes;

    // Basic: scalar Gauss-Seidel — the j -> j+1 dependence chain is
    // latency-bound (~10 cycles per node on SNB-EP; SMT covers part of
    // it on KNC).
    let reference = LevelCost {
        width_frac: if knc { 0.125 } else { 0.25 },
        ilp: if knc { 0.29 } else { 0.34 },
        ..LevelCost::flops_only(flops, 0.0)
    };
    // Wavefront: full lanes, but B/G reads are stride-2 across lanes —
    // each W-node step touches ~W/4 extra cache lines (0.25 lines/node).
    let wavefront = LevelCost {
        width_frac: 1.0,
        ilp: if knc { 0.18 } else { 0.20 },
        gather_lines: 0.25 * nodes,
        ..LevelCost::flops_only(flops, 0.0)
    };
    // Data transform: B/G re-skewed for unit stride; the 10% overhead is
    // the per-timestep skewing pass the paper charges the same way.
    let soa = LevelCost {
        width_frac: 1.0,
        ilp: if knc { 0.171 } else { 0.29 },
        overhead: 1.1,
        ..LevelCost::flops_only(flops, 0.0)
    };
    vec![
        Level {
            label: "Basic (reference)",
            cost: reference,
        },
        Level {
            label: "Advanced (manual SIMD wavefront)",
            cost: wavefront,
        },
        Level {
            label: "Advanced (+data transform)",
            cost: soa,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{KNC, SNB_EP};
    use finbench_core::workload::MarketParams;
    use finbench_math::counted::counting;
    use finbench_math::{CountedF64, Lanes};

    // ---- structural audits against the instrumented kernels ----

    #[test]
    fn audit_black_scholes_op_mix() {
        let (_, c) = counting(|| {
            finbench_core::black_scholes::price_single(
                CountedF64(100.0),
                CountedF64(95.0),
                CountedF64(1.0),
                MarketParams::PAPER,
            )
        });
        let model = &black_scholes(&SNB_EP)[0].cost;
        assert_eq!(c.exps as f64, model.exps);
        assert_eq!((c.cnds + c.logs) as f64, model.heavies);
        assert_eq!((c.sqrts + c.divs) as f64, model.slow_ops);
        // Residual flops within 30% of the descriptor.
        let resid = (c.adds + c.muls + c.maxs) as f64;
        assert!(
            (resid - model.flops).abs() / model.flops < 0.3,
            "counted {resid} vs model {}",
            model.flops
        );
    }

    #[test]
    fn audit_black_scholes_intermediate_op_mix() {
        use finbench_core::black_scholes::soa::price_vec_cnd;
        let (_, c) = counting(|| {
            price_vec_cnd(
                CountedF64(100.0),
                CountedF64(95.0),
                CountedF64(1.0),
                MarketParams::PAPER,
            )
        });
        let resid = (c.adds + c.muls + c.maxs) as f64;
        for arch in [&SNB_EP, &KNC] {
            let model = &black_scholes(arch)[1].cost;
            assert_eq!(c.exps as f64, model.exps, "{}", arch.name);
            assert_eq!((c.cnds + c.logs) as f64, model.heavies, "{}", arch.name);
            assert_eq!((c.sqrts + c.divs) as f64, model.slow_ops, "{}", arch.name);
            assert_eq!(resid, model.flops, "{}", arch.name);
        }
        // The pairs halve the Gaussians and divisions the four `cnd` of the
        // Basic form carry inside them: 4 exp + 4 div there, 2 + 2 here.
        assert_eq!((c.cnds, c.exps, c.divs), (0, 3, 4));
    }

    #[test]
    fn audit_portfolio_revaluation_op_mix() {
        use finbench_core::black_scholes::soa::{call_hoisted, ShockedMarket};
        let shocked = ShockedMarket::new(MarketParams::PAPER, 0.05, -0.1, 0.002);
        let (s, x, t) = (100.0f64, 95.0f64, 1.5f64);
        let (_, c) = counting(|| {
            let call = call_hoisted(
                CountedF64(s),
                CountedF64(x),
                CountedF64(t),
                CountedF64(t.sqrt()),
                CountedF64((s / x).ln()),
                &shocked,
            );
            // The P&L term around it: qty · (call − base) into a partial.
            CountedF64(0.0) + CountedF64(-40.0) * (call - CountedF64(17.0))
        });
        for level in portfolio_revaluation(&SNB_EP) {
            let model = &level.cost;
            assert_eq!(c.exps as f64, model.exps, "{}", level.label);
            assert_eq!((c.cnds + c.logs) as f64, model.heavies, "{}", level.label);
            assert_eq!((c.sqrts + c.divs) as f64, model.slow_ops, "{}", level.label);
            let resid = (c.adds + c.muls + c.maxs) as f64;
            assert!(
                (resid - model.flops).abs() / model.flops < 0.3,
                "counted {resid} vs model {}",
                model.flops
            );
        }
        // The scenario loop does strictly less than one Black-Scholes
        // pricing: fewer transcendental calls and divides, and fewer modeled
        // cycles at the same vectorization. Its flops are not comparable on
        // their own: the Horner chains it counts sit inside Black-Scholes'
        // four `cnd`.
        for arch in [&SNB_EP, &KNC] {
            let bs = &black_scholes(arch)[1].cost;
            let ours = &portfolio_revaluation(arch)[1].cost;
            assert!(
                ours.exps + ours.heavies < bs.exps + bs.heavies,
                "{}",
                arch.name
            );
            assert!(ours.slow_ops < bs.slow_ops, "{}", arch.name);
            assert!(
                ours.cycles_per_item(arch) < bs.cycles_per_item(arch),
                "{}: {} vs {} cycles",
                arch.name,
                ours.cycles_per_item(arch),
                bs.cycles_per_item(arch)
            );
        }
    }

    #[test]
    fn audit_binomial_flops_formula() {
        for n in [64usize, 256] {
            let mut call: Vec<CountedF64> = (0..=n).map(|j| CountedF64(j as f64)).collect();
            let (_, c) = counting(|| {
                finbench_core::binomial::reference::reduce(
                    &mut call,
                    n,
                    CountedF64(0.5),
                    CountedF64(0.5),
                );
            });
            assert_eq!(c.flops() as f64, binomial_flops(n), "n={n}");
        }
    }

    #[test]
    fn audit_brownian_bridge_flops() {
        use finbench_core::brownian_bridge::{reference::build_path, BridgePlan};
        let plan = BridgePlan::new(6, 1.0); // 64-step
        let randoms = vec![0.3; plan.randoms_per_path()];
        let mut out = vec![0.0; plan.points()];
        let (_, c) = counting(|| build_path::<CountedF64>(&plan, &randoms, &mut out));
        let model = brownian_bridge(&SNB_EP)[0].cost.flops;
        let counted = c.flops() as f64;
        assert!(
            (counted - model).abs() / model < 0.15,
            "counted {counted} vs model {model}"
        );
    }

    #[test]
    fn audit_monte_carlo_step_ops() {
        use finbench_core::monte_carlo::{reference::paths_streamed, GbmTerminal};
        let g = GbmTerminal::new(1.0, MarketParams::PAPER);
        let randoms = [0.25];
        let (_, c) = counting(|| paths_streamed::<CountedF64>(100.0, 100.0, g, &randoms));
        let model = monte_carlo(&SNB_EP).0;
        assert_eq!(c.exps as f64, model.exps);
        // 3 muls + 4 adds + 1 max per path-step ~ model's 8 flops.
        assert!((c.flops() as f64 - model.flops).abs() <= 1.0, "{c:?}");
    }

    #[test]
    fn audit_cn_flops_per_node() {
        use finbench_core::crank_nicolson::reference::psor_sweep;
        // Count one interior sweep with CountedF64 via a manual re-run of
        // the same expression shape.
        let n = 34usize;
        let (_, c) = counting(|| {
            let mut u: Vec<CountedF64> = (0..n).map(|j| CountedF64(j as f64 * 0.1)).collect();
            let b: Vec<CountedF64> = u.clone();
            let g: Vec<CountedF64> = u.clone();
            let coeff = CountedF64(0.4);
            let ah = CountedF64(0.3);
            let om = CountedF64(1.2);
            for j in 1..n - 1 {
                let y = coeff * (b[j] + ah * (u[j - 1] + u[j + 1]));
                let old = u[j];
                let val = (old + om * (y - old)).max(g[j]);
                u[j] = val;
            }
        });
        let per_node = c.flops() as f64 / (n as f64 - 2.0);
        // Model charges 7 flops/node (error term excluded — it is only
        // accumulated for convergence checks).
        assert!((per_node - 8.0).abs() <= 1.5, "per node {per_node}");
        // Silence unused import if signatures change.
        let _ = psor_sweep;
    }

    // ---- calibration pins: the paper's reported numbers ----

    fn tput(levels: &[Level], i: usize, arch: &ArchSpec) -> f64 {
        levels[i].cost.throughput(arch)
    }

    #[test]
    fn fig4_black_scholes_shape() {
        let snb = black_scholes(&SNB_EP);
        let knc = black_scholes(&KNC);
        // "the reference version is 3x slower [on KNC] than on SNB-EP".
        let ratio = tput(&snb, 0, &SNB_EP) / tput(&knc, 0, &KNC);
        assert!((2.4..=3.6).contains(&ratio), "ref ratio {ratio}");
        // "performance improves by 10x" with AOS->SOA on KNC.
        let jump = tput(&knc, 1, &KNC) / tput(&knc, 0, &KNC);
        assert!((8.0..=12.0).contains(&jump), "KNC AOS->SOA jump {jump}");
        // "SNB-EP achieves 84% of the bound, while KNC achieves 60%".
        let snb_frac = tput(&snb, 2, &SNB_EP) / snb[2].cost.bandwidth_bound(&SNB_EP);
        assert!((0.72..=0.92).contains(&snb_frac), "SNB frac {snb_frac}");
        let knc_frac = tput(&knc, 2, &KNC) / knc[2].cost.bandwidth_bound(&KNC);
        assert!((0.52..=0.68).contains(&knc_frac), "KNC frac {knc_frac}");
        // Monotone ladder on both.
        for (levels, arch) in [(&snb, &SNB_EP), (&knc, &KNC)] {
            assert!(tput(levels, 0, arch) < tput(levels, 1, arch));
            assert!(tput(levels, 1, arch) < tput(levels, 2, arch));
        }
    }

    #[test]
    fn fig5_binomial_shape() {
        for n in [1024usize, 2048] {
            let snb = binomial(&SNB_EP, n);
            let knc = binomial(&KNC, n);
            // "KNC is 1.4x faster than SNB-EP" at the basic level.
            let basic_ratio = tput(&knc, 0, &KNC) / tput(&snb, 0, &SNB_EP);
            assert!(
                (1.2..=1.6).contains(&basic_ratio),
                "basic ratio {basic_ratio}"
            );
            // SIMD across options "hardly improves performance".
            for (levels, arch) in [(&snb, &SNB_EP), (&knc, &KNC)] {
                let bump = tput(levels, 1, arch) / tput(levels, 0, arch);
                assert!((1.0..=1.25).contains(&bump), "SIMD-only bump {bump}");
            }
            // Register tiling: ~2x or more over intermediate.
            let snb_tile = tput(&snb, 2, &SNB_EP) / tput(&snb, 1, &SNB_EP);
            assert!(snb_tile >= 1.8, "SNB tiling {snb_tile}");
            let knc_tile = tput(&knc, 2, &KNC) / tput(&knc, 1, &KNC);
            assert!(knc_tile >= 2.0, "KNC tiling {knc_tile}");
            // Unrolling: ~1.4x on KNC, little effect on SNB-EP.
            let knc_unroll = tput(&knc, 3, &KNC) / tput(&knc, 2, &KNC);
            assert!(
                (1.25..=1.5).contains(&knc_unroll),
                "KNC unroll {knc_unroll}"
            );
            let snb_unroll = tput(&snb, 3, &SNB_EP) / tput(&snb, 2, &SNB_EP);
            assert!(snb_unroll < 1.1, "SNB unroll {snb_unroll}");
            // Bound proximity: SNB within ~10%, KNC within ~30%.
            let peak_opts_snb = SNB_EP.peak_dp_gflops() * 1e9 / binomial_flops(n);
            let snb_frac = tput(&snb, 3, &SNB_EP) / peak_opts_snb;
            assert!(
                (0.85..=1.0).contains(&snb_frac),
                "SNB bound frac {snb_frac}"
            );
            let peak_opts_knc = KNC.peak_dp_gflops() * 1e9 / binomial_flops(n);
            let knc_frac = tput(&knc, 3, &KNC) / peak_opts_knc;
            assert!(
                (0.68..=0.85).contains(&knc_frac),
                "KNC bound frac {knc_frac}"
            );
            // "KNC is 2.6x faster than SNB-EP for both 1K and 2K steps".
            let final_ratio = tput(&knc, 3, &KNC) / tput(&snb, 3, &SNB_EP);
            assert!(
                (2.3..=2.8).contains(&final_ratio),
                "final ratio {final_ratio}"
            );
        }
    }

    #[test]
    fn fig6_brownian_bridge_shape() {
        let snb = brownian_bridge(&SNB_EP);
        let knc = brownian_bridge(&KNC);
        // Basic: "KNC is 25% slower than SNB-EP".
        let basic_ratio = tput(&knc, 0, &KNC) / tput(&snb, 0, &SNB_EP);
        assert!((0.70..=0.85).contains(&basic_ratio), "basic {basic_ratio}");
        // Intermediate: both bandwidth-bound; ratio = bandwidth ratio.
        assert!(snb[1].cost.is_bandwidth_bound(&SNB_EP));
        assert!(knc[1].cost.is_bandwidth_bound(&KNC));
        let bw_ratio = tput(&knc, 1, &KNC) / tput(&snb, 1, &SNB_EP);
        assert!((1.85..=2.1).contains(&bw_ratio), "bw ratio {bw_ratio}");
        // Advanced: compute-bound, KNC 2x (not the 3x flop ratio).
        assert!(!snb[3].cost.is_bandwidth_bound(&SNB_EP));
        assert!(!knc[3].cost.is_bandwidth_bound(&KNC));
        let adv_ratio = tput(&knc, 3, &KNC) / tput(&snb, 3, &SNB_EP);
        assert!((1.8..=2.2).contains(&adv_ratio), "advanced {adv_ratio}");
        // Ladder is monotone on both machines.
        for (levels, arch) in [(&snb, &SNB_EP), (&knc, &KNC)] {
            for i in 1..4 {
                assert!(
                    tput(levels, i, arch) >= tput(levels, i - 1, arch),
                    "level {i}"
                );
            }
        }
    }

    #[test]
    fn table2_monte_carlo_rates() {
        // Paper Table II, exact numbers; model within 10%.
        let cases = [(&SNB_EP, 29_813.0, 5_556.0), (&KNC, 92_722.0, 16_366.0)];
        for (arch, want_stream, want_comp) in cases {
            let (stream, comp) = monte_carlo(arch);
            let got_stream = stream.throughput(arch) / MC_PATHS_PER_OPTION;
            let got_comp = comp.throughput(arch) / MC_PATHS_PER_OPTION;
            assert!(
                (got_stream - want_stream).abs() / want_stream < 0.10,
                "{} stream {got_stream} vs {want_stream}",
                arch.name
            );
            assert!(
                (got_comp - want_comp).abs() / want_comp < 0.10,
                "{} computed {got_comp} vs {want_comp}",
                arch.name
            );
        }
    }

    #[test]
    fn rng_ladder_reproduces_table2_rows() {
        // Table II rows 3-4: normal 1.79e9 / 5.21e9, uniform 13.31e9 /
        // 25.134e9 numbers per second.
        let cases = [(&SNB_EP, 13.31e9, 1.79e9), (&KNC, 25.134e9, 5.21e9)];
        for (arch, want_uniform, want_normal) in cases {
            let levels = rng(arch);
            let got_u = levels[0].cost.throughput(arch);
            let got_n = levels[1].cost.throughput(arch);
            assert!(
                (got_u - want_uniform).abs() / want_uniform < 0.05,
                "{} uniform {got_u} vs {want_uniform}",
                arch.name
            );
            assert!(
                (got_n - want_normal).abs() / want_normal < 0.05,
                "{} normal {got_n} vs {want_normal}",
                arch.name
            );
        }
    }

    #[test]
    fn monte_carlo_levels_matches_tuple() {
        for arch in [&SNB_EP, &KNC] {
            let (s, c) = monte_carlo(arch);
            let levels = monte_carlo_levels(arch);
            assert_eq!(levels.len(), 2);
            assert_eq!(levels[0].cost, s);
            assert_eq!(levels[1].cost, c);
        }
    }

    #[test]
    fn fig8_crank_nicolson_shape() {
        let snb = crank_nicolson(&SNB_EP, 256, 1000);
        let knc = crank_nicolson(&KNC, 256, 1000);
        // Reference: "KNC is only 1.3x faster than SNB-EP".
        let ref_ratio = tput(&knc, 0, &KNC) / tput(&snb, 0, &SNB_EP);
        assert!((1.2..=1.4).contains(&ref_ratio), "ref {ref_ratio}");
        // Absolute anchors: 4.4K/7.3K (manual SIMD), 6.4K/11.4K (layout).
        let anchors = [
            (&snb, &SNB_EP, 1usize, 4_400.0),
            (&knc, &KNC, 1, 7_300.0),
            (&snb, &SNB_EP, 2, 6_400.0),
            (&knc, &KNC, 2, 11_400.0),
        ];
        for (levels, arch, i, want) in anchors {
            let got = tput(levels, i, arch);
            assert!(
                (got - want).abs() / want < 0.10,
                "{} level {i}: {got} vs {want}",
                arch.name
            );
        }
        // Net SIMD gain "about 3.1X and 4.1X respectively".
        let snb_gain = tput(&snb, 2, &SNB_EP) / tput(&snb, 0, &SNB_EP);
        assert!((2.8..=3.4).contains(&snb_gain), "SNB gain {snb_gain}");
        let knc_gain = tput(&knc, 2, &KNC) / tput(&knc, 0, &KNC);
        assert!((3.8..=4.5).contains(&knc_gain), "KNC gain {knc_gain}");
    }
}
