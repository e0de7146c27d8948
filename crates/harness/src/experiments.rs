//! One experiment per paper artifact: modeled SNB-EP/KNC bars plus native
//! host measurements.

use crate::gate::{self, Verdict};
use crate::native;
use crate::render::{bar_chart, fmt_num, maybe_write_csv, section, table, to_csv};
use crate::RunOptions;
use finbench_engine::AnyKernel;
use finbench_machine::{figures, KNC, SNB_EP};

fn print_figure(fig: &figures::FigureSeries, opts: &RunOptions) {
    println!(
        "{}",
        section(&format!("{} — {} [{}]", fig.id, fig.title, fig.unit))
    );
    // Shared scale across both architectures, like the paper's y axis.
    let max = fig
        .series
        .iter()
        .flat_map(|s| s.levels.iter().map(|l| l.1).chain(s.bound.map(|b| b.1)))
        .fold(0.0f64, f64::max);
    for s in &fig.series {
        println!("  [{}] (modeled)", s.arch);
        let mut rows: Vec<(String, f64)> =
            s.levels.iter().map(|(l, v)| (l.to_string(), *v)).collect();
        if let Some((bl, bv)) = s.bound {
            rows.push((format!("({bl})"), bv));
        }
        print!("{}", bar_chart(&rows, fig.unit, Some(max)));
        maybe_write_csv(
            &opts.csv_dir,
            &format!("{}_{}.csv", fig.id, s.arch.to_lowercase().replace('-', "_")),
            &to_csv(fig.unit, &rows),
        );
        println!();
    }
}

fn print_native(title: &str, ladder: &[(String, f64)], unit: &str, opts: &RunOptions, csv: &str) {
    println!("  [native host] {title}");
    print!("{}", bar_chart(ladder, unit, None));
    maybe_write_csv(&opts.csv_dir, csv, &to_csv(unit, ladder));
    println!();
}

/// Measure and print the native ladder of every registered kernel `keep`
/// selects, one trial each, as best-of bars.
fn print_native_ladders(opts: &RunOptions, keep: impl Fn(&dyn AnyKernel) -> bool) {
    let engine = native::engine();
    for k in engine.registry().kernels().filter(|&k| keep(k)) {
        let rates: Vec<(String, f64)> = engine
            .run_ladder_samples(k, opts.quick, 1)
            .iter()
            .map(|r| (r.label.to_string(), r.samples.best()))
            .collect();
        let csv = format!("native_{}.csv", k.name());
        print_native(k.title(), &rates, k.unit(), opts, &csv);
    }
}

/// The native ladders of every kernel whose paper artifact is `artifact` —
/// the registry is the single source of truth for which kernels belong to
/// which figure/table.
fn print_native_for_artifact(artifact: &str, opts: &RunOptions) {
    print_native_ladders(opts, |k| k.artifact() == artifact);
}

/// Table I: system configuration and derived peaks.
pub fn table1(opts: &RunOptions) {
    println!("{}", section("Table I — System configuration (modeled)"));
    let rows: Vec<Vec<String>> = vec![
        vec![
            "Sockets x Cores x SMT".into(),
            format!(
                "{}x{}x{}",
                SNB_EP.sockets, SNB_EP.cores_per_socket, SNB_EP.smt
            ),
            format!("{}x{}x{}", KNC.sockets, KNC.cores_per_socket, KNC.smt),
        ],
        vec![
            "Clock (GHz)".into(),
            format!("{}", SNB_EP.clock_ghz),
            format!("{}", KNC.clock_ghz),
        ],
        vec![
            "SP GFLOP/s (derived)".into(),
            format!("{:.0}", SNB_EP.peak_sp_gflops()),
            format!("{:.0}", KNC.peak_sp_gflops()),
        ],
        vec![
            "DP GFLOP/s (derived)".into(),
            format!("{:.0}", SNB_EP.peak_dp_gflops()),
            format!("{:.0}", KNC.peak_dp_gflops()),
        ],
        vec![
            "L1/L2/L3 (KB)".into(),
            format!("{}/{}/{}", SNB_EP.l1_kb, SNB_EP.l2_kb, SNB_EP.l3_kb),
            format!("{}/{}/-", KNC.l1_kb, KNC.l2_kb),
        ],
        vec![
            "DRAM (GB)".into(),
            format!("{}", SNB_EP.dram_gb),
            format!("{} GDDR", KNC.dram_gb),
        ],
        vec![
            "STREAM bandwidth (GB/s)".into(),
            format!("{}", SNB_EP.stream_bw_gbs),
            format!("{}", KNC.stream_bw_gbs),
        ],
        vec![
            "SIMD DP lanes".into(),
            format!("{}", SNB_EP.simd_width_dp),
            format!("{}", KNC.simd_width_dp),
        ],
    ];
    println!("{}", table(&["", "SNB-EP", "KNC"], &rows));
    println!(
        "  Peak DP ratio KNC/SNB-EP: {:.2}x (paper: ~3.2x as (60/16)*(512/256)*(1.09/2.7))",
        KNC.peak_dp_gflops() / SNB_EP.peak_dp_gflops()
    );
    println!(
        "  STREAM bandwidth ratio:   {:.2}x",
        KNC.stream_bw_gbs / SNB_EP.stream_bw_gbs
    );
    let _ = opts;
}

/// Fig. 4: Black-Scholes.
pub fn fig4(opts: &RunOptions) {
    print_figure(&figures::fig4(), opts);
    println!("  Paper checks: KNC reference 3x slower than SNB-EP; AOS->SOA");
    println!("  gives ~10x on KNC; advanced reaches 84% (SNB-EP) / 60% (KNC)");
    println!("  of the B/40 bandwidth bound.");
    println!();
    print_native_for_artifact("fig4", opts);
}

/// Fig. 5: binomial tree at 1024 and 2048 steps.
pub fn fig5(opts: &RunOptions) {
    for n in [1024, 2048] {
        print_figure(&figures::fig5(n), opts);
    }
    println!("  Paper checks: basic KNC 1.4x SNB-EP; SIMD-only barely helps;");
    println!("  register tiling >2x; unroll +1.4x on KNC only; best KNC/SNB =");
    println!("  2.6x; SNB-EP within 10% / KNC within 30% of compute bound.");
    println!();
    print_native_for_artifact("fig5", opts);
    print_native(
        "Binomial register-tile depth sweep (1024 steps, W=8)",
        &tile_depth_sweep(opts.quick),
        "options/s",
        opts,
        "native_binomial_tile_depth.csv",
    );
}

/// The tunable of the paper's register tiling: the same 1024-step, 8-lane
/// reduction at tile depths `TS` = 1…32. Small tiles re-touch `Call` too
/// often, huge tiles spill the wavefront out of registers; the registry
/// ladder carries only the two depths it serves (4 and 8), so the sweep
/// lives here.
fn tile_depth_sweep(quick: bool) -> Vec<(String, f64)> {
    use finbench_core::binomial::tiled::reduce_tiled;
    use finbench_engine::{min_secs, throughput_samples};
    use finbench_simd::F64v;

    const N: usize = 1024;
    const W: usize = 8;
    let leaves: Vec<F64v<W>> = (0..=N).map(|j| F64v([j as f64 * 0.01; W])).collect();
    let (pu, pd) = (F64v::splat(0.5002), F64v::splat(0.4988));
    let mut call = leaves.clone();
    let mut out = Vec::new();
    macro_rules! depth {
        ($($ts:literal),*) => {$(
            // Restoring the leaves is ~1 k vector copies against the
            // reduction's ~0.5 M node updates.
            let rate = throughput_samples(W, min_secs(quick), || {
                call.copy_from_slice(&leaves);
                std::hint::black_box(reduce_tiled::<W, $ts>(&mut call, N, pu, pd));
            })
            .best();
            out.push((format!("TS={}", $ts), rate));
        )*};
    }
    depth!(1, 2, 4, 8, 16, 32);
    out
}

/// Fig. 6: Brownian bridge.
pub fn fig6(opts: &RunOptions) {
    print_figure(&figures::fig6(), opts);
    println!("  Paper checks: basic KNC 25% slower; intermediate bandwidth-");
    println!("  bound (KNC/SNB = BW ratio ~2x); advanced compute-bound with");
    println!("  KNC 2x (no FMA in the midpoint op).");
    println!();
    print_native_for_artifact("fig6", opts);
}

/// Table II: Monte-Carlo pricing and RNG rates.
pub fn table2(opts: &RunOptions) {
    println!("{}", section("Table II — Monte-Carlo pricing & RNG rates"));
    let rows: Vec<Vec<String>> = figures::table2()
        .into_iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                fmt_num(r.snb_model),
                fmt_num(r.snb_paper),
                fmt_num(r.knc_model),
                fmt_num(r.knc_paper),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["", "SNB model", "SNB paper", "KNC model", "KNC paper"],
            &rows
        )
    );
    print_native_for_artifact("table2", opts);
}

/// Fig. 8: Crank-Nicolson.
pub fn fig8(opts: &RunOptions) {
    print_figure(&figures::fig8(), opts);
    println!("  Paper checks: reference KNC only 1.3x faster; manual SIMD");
    println!("  4.4K/7.3K opts/s; +layout transform 6.4K/11.4K; net SIMD");
    println!("  gain 3.1x (SNB-EP) / 4.1x (KNC).");
    println!();
    print_native_for_artifact("fig8", opts);
}

/// §V: Ninja-gap summary.
pub fn ninja(opts: &RunOptions) {
    println!("{}", section("Ninja gap summary (paper §V)"));
    let s = figures::ninja_summary();
    let rows: Vec<Vec<String>> = s
        .gaps
        .iter()
        .map(|(name, snb, knc)| vec![name.to_string(), format!("{snb:.2}x"), format!("{knc:.2}x")])
        .collect();
    println!("{}", table(&["Kernel", "SNB-EP gap", "KNC gap"], &rows));
    println!(
        "  Average Ninja gap: SNB-EP {:.2}x (paper ~1.9x), KNC {:.2}x (paper ~4x)",
        s.avg_snb, s.avg_knc
    );
    println!(
        "  Best-optimized KNC/SNB-EP: {:.2}x compute-bound (paper ~2.5x), {:.2}x bandwidth-bound (paper ~2x)",
        s.compute_bound_ratio, s.bandwidth_bound_ratio
    );
    let _ = opts;
}

/// Extension: quasi-Monte-Carlo convergence through the Brownian bridge
/// (geometric Asian call with a known closed form).
pub fn qmc(opts: &RunOptions) {
    use finbench_core::brownian_bridge::qmc::{
        build_paths_qmc, geometric_asian_exact, geometric_asian_price,
    };
    use finbench_core::brownian_bridge::BridgePlan;
    use finbench_core::workload::MarketParams;
    use finbench_rng::{normal::fill_standard_normal_icdf, Mt19937_64};

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };
    let (s0, k) = (100.0, 100.0);
    let plan = BridgePlan::new(6, 1.0);
    let exact = geometric_asian_exact(&plan, s0, k, M);
    let price_paths = |paths: &[f64]| geometric_asian_price(paths, &plan, s0, k, M);

    println!(
        "{}",
        section("QMC convergence (extension): geometric Asian, 64 dates")
    );
    println!("  exact price {exact:.6}\n");
    let budgets: &[usize] = if opts.quick {
        &[512, 2048]
    } else {
        &[512, 2048, 8192, 32768]
    };
    let mut rows = Vec::new();
    for &n in budgets {
        let mut qmc_paths = vec![0.0; n * plan.points()];
        build_paths_qmc(&plan, 0, &mut qmc_paths, n);
        let qmc_err = (price_paths(&qmc_paths) - exact).abs();

        let per = plan.randoms_per_path();
        let mut mc_err = 0.0;
        for seed in 1..=3u64 {
            let mut rng = Mt19937_64::new(seed);
            let mut randoms = vec![0.0; n * per];
            fill_standard_normal_icdf(&mut rng, &mut randoms);
            let mut paths = vec![0.0; n * plan.points()];
            finbench_core::brownian_bridge::reference::build_paths::<f64>(
                &plan, &randoms, &mut paths, n,
            );
            mc_err += (price_paths(&paths) - exact).abs();
        }
        mc_err /= 3.0;
        rows.push(vec![
            format!("{n}"),
            format!("{qmc_err:.6}"),
            format!("{mc_err:.6}"),
            format!("{:.1}x", mc_err / qmc_err.max(1e-12)),
        ]);
    }
    println!(
        "{}",
        table(&["paths", "|QMC err|", "|MC err|", "MC/QMC"], &rows)
    );
}

/// Dynamic per-option operation mix of the basic Black-Scholes kernel,
/// measured by pricing `n_options` moderate options with
/// [`finbench_math::CountedF64`]. Returns `(plain, expanded)` tallies
/// summed over the batch: `plain` charges each transcendental as one
/// call; `expanded` also tallies the interior polynomial arithmetic of
/// each transcendental (one level deep), which is the convention behind
/// the paper's "~200 operations per option" figure (§IV-A).
pub fn black_scholes_op_mix(
    n_options: usize,
) -> (finbench_math::OpCounts, finbench_math::OpCounts) {
    use finbench_core::black_scholes::price_single;
    use finbench_core::workload::MarketParams;
    use finbench_math::{counting, counting_expanded, CountedF64, Real};

    let m = MarketParams::PAPER;
    // Moderate moneyness and maturity keep |d1| small, so norm_cdf takes
    // the paper-relevant Hart rational path, not the far-tail branch.
    let run = || {
        for i in 0..n_options {
            let s = 90.0 + 20.0 * (i as f64 + 0.5) / n_options as f64;
            let (c, p) = price_single(CountedF64(s), CountedF64(100.0), CountedF64(1.0), m);
            std::hint::black_box((c.into_f64(), p.into_f64()));
        }
    };
    let ((), plain) = counting(run);
    let ((), expanded) = counting_expanded(run);
    (plain, expanded)
}

/// Extension: dynamic op-count audit of the Black-Scholes kernel
/// (the counted-arithmetic check behind the paper's flop estimates).
pub fn audit(opts: &RunOptions) {
    println!(
        "{}",
        section("Op-count audit — basic Black-Scholes kernel (counted arithmetic)")
    );
    let n = 64usize;
    let (plain, expanded) = black_scholes_op_mix(n);
    let per = |v: u64| format!("{:.2}", v as f64 / n as f64);
    let rows: Vec<Vec<String>> = vec![
        vec!["add/sub".into(), per(plain.adds), per(expanded.adds)],
        vec!["mul".into(), per(plain.muls), per(expanded.muls)],
        vec!["div".into(), per(plain.divs), per(expanded.divs)],
        vec!["sqrt".into(), per(plain.sqrts), per(expanded.sqrts)],
        vec!["max/cmp".into(), per(plain.maxs), per(expanded.maxs)],
        vec!["exp calls".into(), per(plain.exps), per(expanded.exps)],
        vec!["ln calls".into(), per(plain.logs), per(expanded.logs)],
        vec!["erf calls".into(), per(plain.erfs), per(expanded.erfs)],
        vec!["cnd calls".into(), per(plain.cnds), per(expanded.cnds)],
        vec![
            "total (calls as 1 op)".into(),
            per(plain.total_with_transcendentals()),
            per(expanded.total_with_transcendentals()),
        ],
    ];
    println!("{}", table(&["per option", "plain", "expanded"], &rows));
    println!(
        "  Expanded total: ~{:.0} ops/option — paper §IV-A estimates ~200",
        expanded.total_with_transcendentals() as f64 / n as f64
    );
    // Surface the mix through telemetry too: attributes on the enclosing
    // experiment.audit span, per option and as totals.
    let per_opt = |v: u64| v as f64 / n as f64;
    finbench_telemetry::set_attr("options_priced", n);
    finbench_telemetry::set_attr(
        "ops_per_option_plain",
        per_opt(plain.total_with_transcendentals()),
    );
    finbench_telemetry::set_attr(
        "ops_per_option_expanded",
        per_opt(expanded.total_with_transcendentals()),
    );
    finbench_telemetry::set_attr("flops_expanded", expanded.flops());
    finbench_telemetry::set_attr("transcendentals_expanded", expanded.transcendentals());
    finbench_telemetry::set_attr("total_ops_expanded", expanded.total_with_transcendentals());
    println!("  (expansion tallies each transcendental's interior polynomial once,");
    println!("  nested calls charged as single ops; see finbench-math::counting_expanded)");
    let _ = opts;
}

/// All native ladders in one run (restricted by `--only`, when given).
pub fn native_all(opts: &RunOptions) {
    println!("{}", section("Native host measurements (all kernels)"));
    println!("  {}", finbench_simd::Isa::describe());
    print_native_ladders(opts, |k| {
        opts.only
            .as_ref()
            .is_none_or(|only| only.iter().any(|n| n == k.name()))
    });
}

/// How a verdict reads in an experiment's closing lines.
fn ok(pass: bool) -> &'static str {
    if pass {
        "OK"
    } else {
        "FAIL"
    }
}

/// Outcome tallies summed over the load runs of one experiment, printed
/// as its `total shed:` / `total rejected:` lines. Every count is
/// [`finbench_serve::LoadReport`]'s own classification.
#[derive(Default)]
struct LoadTotals {
    shed: usize,
    unknown_kernel: usize,
    unservable: usize,
    shutdown: usize,
    invalid: usize,
    internal: usize,
}

impl LoadTotals {
    fn add(&mut self, r: &finbench_serve::LoadReport) {
        self.shed += r.total_shed();
        self.unknown_kernel += r.rejected_unknown_kernel;
        self.unservable += r.rejected_unservable;
        self.shutdown += r.rejected_shutdown;
        self.invalid += r.invalid_input;
        self.internal += r.internal;
    }

    fn print(&self) {
        println!("  total shed: {}", self.shed);
        println!(
            "  total rejected: {} (unknown kernel {}, unservable {}, shutdown {})",
            self.unknown_kernel + self.unservable + self.shutdown,
            self.unknown_kernel,
            self.unservable,
            self.shutdown
        );
        if self.invalid + self.internal > 0 {
            println!("  total invalid input: {}", self.invalid);
            println!("  total internal (faults absorbed): {}", self.internal);
        }
    }
}

/// The `serve_bench` experiment: drive the `finbench-serve` batched
/// pricing plane with synthetic closed- and open-loop load and report
/// throughput-vs-latency curves per servable kernel.
///
/// Closed-loop points sweep client concurrency (latency floor);
/// open-loop points pace arrivals at fractions of the measured
/// closed-loop peak (SLO territory). Queue capacity covers the full
/// offered load and no deadlines are attached, so a healthy serving
/// plane sheds nothing ([`gate::serve`] holds it to that). Beside the
/// percentiles every row carries the mean
/// batch fill and the flush-trigger mix of its (fresh) server, which say
/// whether a latency is the system's (idle flushes) or the timer's
/// (delay flushes).
///
/// A shard-scaling sweep closes the run: the same closed-loop drive
/// against 1, 2, … worker shards (`--shards N` sets the top; default 2
/// quick / 4 full), printing a `shard scaling 1->2:` speedup line.
pub fn serve_bench(opts: &RunOptions) -> Vec<Verdict> {
    use finbench_serve::{
        drive, run_load, HedgePolicy, LoadMode, PricerConfig, ServeConfig, Server,
    };
    use std::time::Duration;

    println!(
        "{}",
        section("serve_bench — batched pricing-request plane (dynamic micro-batching)")
    );
    let default_kernels = ["black_scholes", "binomial"];
    let kernels: Vec<String> = match &opts.only {
        Some(list) => list.clone(),
        None => default_kernels.iter().map(|s| s.to_string()).collect(),
    };
    let pricer = PricerConfig {
        binomial_steps: if opts.quick { 64 } else { 256 },
        ..PricerConfig::default()
    };
    let per_client = if opts.quick { 150 } else { 1500 };
    let client_points: &[usize] = if opts.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let open_fractions: &[f64] = if opts.quick {
        &[0.25, 0.5]
    } else {
        &[0.25, 0.5, 0.9]
    };
    let open_secs = if opts.quick { 0.1 } else { 0.5 };

    let mut totals = LoadTotals::default();
    for kernel in &kernels {
        // Resolve the serving rung up front so unservable kernels are a
        // printed note, not a storm of per-request rejections.
        let rung = match finbench_serve::pricer::resolve(native::engine(), kernel, &pricer) {
            Ok(r) => r,
            Err(reason) => {
                println!("  {kernel}: not servable ({reason}); skipping");
                continue;
            }
        };
        println!(
            "  [{kernel}] serving rung: {} (ladder top, width {})",
            rung.slug, rung.width
        );

        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut curve = String::from(
            "mode,offered,served,shed,throughput_rps,p50_us,p95_us,p99_us,\
             batch_fill,flush_size,flush_delay,flush_idle,flush_drain\n",
        );
        // One load point: a fresh server (so the latency histograms, shed
        // counters and flush tallies are scoped to the point), one drive,
        // one table row, one CSV line.
        let mut point = |label: String,
                         mode: LoadMode,
                         capacity: usize,
                         seed: u64,
                         hedge: Option<HedgePolicy>| {
            let config = ServeConfig {
                queue_capacity: capacity,
                max_delay: Duration::from_micros(500),
                max_batch: 4096,
                pricer,
                ..ServeConfig::default()
            };
            let server = Server::start(config);
            let r = drive(&server, kernel.as_str(), mode, seed, None, hedge).report();
            let snap = server.shutdown();
            totals.add(&r);
            let (fill, flushes) = (snap.mean_batch_fill(), snap.total_flushes());
            rows.push(vec![
                label.clone(),
                r.offered.to_string(),
                r.served.to_string(),
                r.total_shed().to_string(),
                fmt_num(r.throughput),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p95_us),
                format!("{:.0}", r.p99_us),
                format!("{fill:.1}"),
                flushes.to_string(),
            ]);
            curve.push_str(&format!(
                "{label},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.2},{},{},{},{}\n",
                r.offered,
                r.served,
                r.total_shed(),
                r.throughput,
                r.p50_us,
                r.p95_us,
                r.p99_us,
                fill,
                flushes.size,
                flushes.delay,
                flushes.idle,
                flushes.drain,
            ));
            r
        };
        let closed = |clients: usize| LoadMode::Closed {
            clients,
            requests_per_client: per_client,
        };

        let mut closed_peak = 0.0f64;
        let mut closed_p95_us = 0.0f64;
        for (i, &clients) in client_points.iter().enumerate() {
            let r = point(
                format!("closed x{clients}"),
                closed(clients),
                (clients * per_client).max(16),
                0xC0FFEE + i as u64,
                None,
            );
            closed_peak = closed_peak.max(r.throughput);
            closed_p95_us = r.p95_us;
        }
        // One hedged closed-loop point at the largest client count: the
        // tail-at-scale tradeoff in numbers — duplicated work (hedges)
        // bought against the p99 column. Open-loop runs never hedge (no
        // per-request wait to hedge from), so this is the only hedged row.
        // The hedge goes out once a reply is later than the unhedged run's
        // p95 at the same client count, so about one request in twenty
        // hedges whatever the plane's latency is.
        let clients = *client_points.last().unwrap();
        let hedged = point(
            format!("closed x{clients} hedged"),
            closed(clients),
            (clients * per_client).max(16),
            0x4ED6ED,
            Some(HedgePolicy {
                delay: Duration::from_secs_f64(closed_p95_us * 1e-6),
            }),
        );
        for (i, &frac) in open_fractions.iter().enumerate() {
            let rate_hz = (closed_peak * frac).max(100.0);
            let total = ((rate_hz * open_secs) as usize).clamp(50, 20_000);
            point(
                format!("open {rate_hz:.0}/s"),
                LoadMode::Open { rate_hz, total },
                total,
                0xFEED + i as u64,
                None,
            );
        }
        println!(
            "{}",
            table(
                &[
                    "load",
                    "offered",
                    "served",
                    "shed",
                    "req/s",
                    "p50 µs",
                    "p95 µs",
                    "p99 µs",
                    "fill",
                    "flush s/d/i/dr %"
                ],
                &rows
            )
        );
        println!(
            "  hedged row: {} hedges issued, {} hedge wins",
            hedged.hedges, hedged.hedge_wins
        );
        maybe_write_csv(&opts.csv_dir, &format!("serve_bench_{kernel}.csv"), &curve);
    }

    // Shard-scaling sweep: the same closed-loop drive against a router
    // with 1, 2, … worker shards on the analytic kernel.
    let mut scaling_1_to_2 = None;
    {
        let top = opts.shards.unwrap_or(if opts.quick { 2 } else { 4 }).max(1);
        let mut shard_counts = vec![1usize];
        while shard_counts.last().unwrap() * 2 <= top {
            shard_counts.push(shard_counts.last().unwrap() * 2);
        }
        if *shard_counts.last().unwrap() < top {
            shard_counts.push(top);
        }
        let clients = 8;
        let per_client = if opts.quick { 250 } else { 1200 };
        println!(
            "  [shard scaling] black_scholes, closed loop x{clients}, {per_client} req/client"
        );
        let mut scale_rows: Vec<Vec<String>> = Vec::new();
        let mut scale_csv = String::from("shards,served,shed,throughput_rps,speedup\n");
        let mut base_rps = 0.0f64;
        for (i, &n) in shard_counts.iter().enumerate() {
            let config = ServeConfig {
                queue_capacity: 4096,
                max_delay: Duration::from_micros(200),
                max_batch: 512,
                shards: n,
                pricer,
                ..ServeConfig::default()
            };
            let server = Server::start(config);
            let r = run_load(
                &server,
                "black_scholes",
                LoadMode::Closed {
                    clients,
                    requests_per_client: per_client,
                },
                0x5CA1E + i as u64,
                None,
            );
            server.shutdown();
            totals.add(&r);
            if n == 1 {
                base_rps = r.throughput;
            }
            // A collapsed baseline (e.g. an armed kill plan took out the
            // single shard) makes the ratio meaningless — say so instead
            // of printing an astronomically large number.
            let speedup = (base_rps > 1.0).then(|| r.throughput / base_rps);
            let speedup_str = speedup.map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}x"));
            let shard_avail: Vec<String> = r
                .shards
                .iter()
                .map(|s| format!("{:.2}", s.availability()))
                .collect();
            scale_rows.push(vec![
                n.to_string(),
                r.served.to_string(),
                r.total_shed().to_string(),
                fmt_num(r.throughput),
                speedup_str.clone(),
                shard_avail.join("/"),
            ]);
            scale_csv.push_str(&format!(
                "{n},{},{},{:.1},{}\n",
                r.served,
                r.total_shed(),
                r.throughput,
                speedup.map_or_else(|| "n/a".to_string(), |s| format!("{s:.3}")),
            ));
            if n > 1 {
                println!("  shard scaling 1->{n}: {speedup_str}");
            }
            if n == 2 {
                scaling_1_to_2 = speedup;
            }
        }
        println!(
            "{}",
            table(
                &[
                    "shards",
                    "served",
                    "shed",
                    "req/s",
                    "speedup",
                    "shard avail"
                ],
                &scale_rows
            )
        );
        maybe_write_csv(&opts.csv_dir, "serve_bench_shard_scaling.csv", &scale_csv);
    }

    totals.print();
    println!("  (shed = queue_full + deadline_exceeded; every shed is a typed response)");
    println!(
        "  (fill = mean requests per batch; flush = % of batches cut by the size / delay / \
         idle / shutdown-drain trigger — an idle-flushed reply never waited on max_delay)"
    );
    let cores = finbench_parallel::available_parallelism();
    gate::serve(totals.shed, scaling_1_to_2, cores)
}

/// The `chaos_bench` experiment: closed-loop load against the serving
/// plane under a matrix of fault plans (injected panics, latency, input
/// corruption, queue stalls), reporting availability and degradation per
/// plan — and verifying the invariant that makes degradation safe:
/// **every `Priced` response is bit-identical to pricing that option
/// alone on the rung that served it.** Faults may shed or degrade,
/// never corrupt.
///
/// Corruption must be zero and the panic plans must actually exercise
/// the degradation ladder (non-zero degraded batches). The server runs
/// two worker shards, and a `shard kill` plan kills one mid-run —
/// availability must stay above the floor while the surviving shard
/// keeps serving ([`gate::chaos`] has the bounds).
pub fn chaos_bench(opts: &RunOptions) -> Vec<Verdict> {
    use finbench_faults::{self as faults, Corruption, FaultKind, FaultPlan, FaultSpec, Faults};
    use finbench_serve::{
        drive, pricer, BreakerPolicy, Exchange, HedgePolicy, LoadMode, PriceRequest, PricerConfig,
        ServeConfig, Server,
    };
    use std::time::Duration;

    println!(
        "{}",
        section("chaos_bench — fault-tolerant serving under injected faults")
    );
    let kernel = "black_scholes";
    let load = LoadMode::Closed {
        clients: 3,
        requests_per_client: if opts.quick { 150 } else { 800 },
    };

    // The fault-plan matrix. Specs without `seeded` draw on the default
    // seed (0x5EED).
    let bs = |site: &str| format!("{site}.black_scholes");
    let panic = |rate| FaultSpec::at_rate(bs("batch"), FaultKind::Panic, rate);
    let corrupt = |c, rate| FaultSpec::at_rate(bs("admit"), FaultKind::CorruptInput(c), rate);
    let stall = |rate| FaultSpec::at_rate("queue", FaultKind::StallQueue, rate);
    let latency = FaultKind::Latency(Duration::from_micros(250));
    let plans = [
        ("baseline", FaultPlan::new()),
        ("panic 10%", FaultPlan::new().with(panic(0.1))),
        (
            "latency 250us/20%",
            FaultPlan::new().with(FaultSpec::at_rate(bs("batch"), latency, 0.2)),
        ),
        (
            "corrupt 5%",
            FaultPlan::new().with(corrupt(Corruption::NaN, 0.05)),
        ),
        ("queue stall 2%", FaultPlan::new().with(stall(0.02))),
        (
            "combined",
            FaultPlan::new()
                .with(panic(0.1))
                .with(corrupt(Corruption::Inf, 0.05))
                .with(stall(0.01)),
        ),
        // Kill one of the two worker shards mid-run: the router stops
        // routing there, in-flight work on the dead shard answers
        // `Rejected::Internal`, and the surviving shard keeps serving.
        (
            "shard kill",
            FaultPlan::new()
                .with(FaultSpec::at_rate("serve.shard.1", FaultKind::Kill, 0.05).seeded(7)),
        ),
    ];

    let pricer_cfg = PricerConfig::default();
    // The bit-exactness oracle: the whole servable ladder, so a response
    // served on a *degraded* rung is checked against that rung, solo.
    let ladder = pricer::servable_ladder(native::engine().registry(), kernel, &pricer_cfg)
        .expect("black_scholes is servable");

    // Every Priced response must be bit-identical to solo pricing of the
    // request it answers on the rung that served it.
    let count_corrupted = |exchanges: &[Exchange<PriceRequest>]| -> usize {
        let differs = |(req, resp, _): &&Exchange<PriceRequest>| {
            resp.outcome.as_ref().is_ok_and(|p| {
                let rung = ladder
                    .iter()
                    .find(|r| *r.slug == p.rung)
                    .unwrap_or_else(|| panic!("response served on unknown rung {}", p.rung));
                let (call, put) = rung.price_one(req.s, req.x, req.t);
                call.to_bits() != p.call.to_bits() || put.to_bits() != p.put.to_bits()
            })
        };
        exchanges.iter().filter(differs).count()
    };

    let config = |shards: usize, respawn: bool| ServeConfig {
        queue_capacity: 4096,
        max_delay: Duration::from_micros(300),
        max_batch: 512,
        shards,
        pricer: pricer_cfg,
        breaker: BreakerPolicy {
            // Short cooldown so an opened breaker restarts within the
            // run; quick promotion keeps the ladder exercised both ways.
            cooldown: Duration::from_millis(2),
            promote_after: 16,
            ..BreakerPolicy::default()
        },
        respawn,
    };

    // Injected panics at 10% of batches would otherwise spray backtraces
    // over the report.
    faults::silence_injected_panics();

    let mut total_corrupted = 0usize;
    let mut total_degraded = 0u64;
    let mut kill_stats: Option<(f64, usize, usize, u64)> = None;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv = String::from(
        "plan,offered,served,availability,invalid,internal,shed,degraded_batches,restarts,breaker_open,corrupted\n",
    );
    for (label, plan) in plans {
        // Two worker shards: every plan exercises the sharded router, and
        // the shard-kill plan has a survivor to fail over to. The matrix
        // pins down *terminal* shard loss (the shard-kill plan's
        // `survivors: 1/2` line); the rolling-kill panel below is where
        // respawn is measured.
        let server = Server::start_with_faults(config(2, false), Faults::new(plan));
        let driven = drive(&server, kernel, load, 0xC4A05, None, None);
        let snap = server.shutdown();

        let r = driven.report();
        let (offered, served, avail) = (r.offered, r.served, r.availability());
        let (invalid, internal, shed) = (r.invalid_input, r.internal, r.total_shed());
        let corrupted = count_corrupted(&driven.exchanges);
        let degraded = snap.total_degraded();
        let restarts = snap.total_restarts();
        let opened: u64 = snap.kernels.iter().map(|k| k.breaker_open).sum();
        total_corrupted += corrupted;
        total_degraded += degraded;
        if label == "shard kill" {
            kill_stats = Some((
                avail,
                snap.alive_shards(),
                snap.shards.len(),
                snap.shards
                    .iter()
                    .filter(|s| s.alive)
                    .map(|s| s.served)
                    .sum(),
            ));
        }
        rows.push(vec![
            label.to_string(),
            offered.to_string(),
            served.to_string(),
            format!("{:.1}%", 100.0 * avail),
            invalid.to_string(),
            internal.to_string(),
            shed.to_string(),
            degraded.to_string(),
            restarts.to_string(),
            opened.to_string(),
            corrupted.to_string(),
        ]);
        csv.push_str(&format!(
            "{label},{offered},{served},{avail:.4},{invalid},{internal},{shed},{degraded},{restarts},{opened},{corrupted}\n"
        ));
    }
    println!(
        "{}",
        table(
            &[
                "fault plan",
                "offered",
                "served",
                "avail",
                "invalid",
                "internal",
                "shed",
                "degraded",
                "restarts",
                "opened",
                "corrupt",
            ],
            &rows
        )
    );
    maybe_write_csv(&opts.csv_dir, "chaos_bench.csv", &csv);

    // ---- rolling-kill panel: respawn, redrive, and hedging.
    // Every shard of a 3-shard fleet is killed exactly once (`limited(1)`
    // caps the fault budget; staggered rates and seeds roll the kills through
    // the run instead of firing together). Each seat's worker must
    // respawn — MTTR is kill → respawned-and-serving — and a second,
    // fault-free drive afterwards proves the recovered fleet serves at
    // full availability. Phase 1 clients hedge: a request caught in a
    // kill/redrive window races a tagged second copy after 2ms.
    let rolling_rates = [0.05, 0.01, 0.002];
    let rolling_shards = rolling_rates.len();
    let (rolling_respawns, rolling_avail) = {
        let kill_once = |(i, rate)| {
            let kill = FaultSpec::at_rate(format!("serve.shard.{i}"), FaultKind::Kill, rate);
            kill.seeded(11 + i).limited(1)
        };
        let specs = (0u64..).zip(rolling_rates).map(kill_once).collect();
        let kills = Faults::new(FaultPlan { specs });
        let server = Server::start_with_faults(config(rolling_shards, true), kills.clone());
        let hedge = HedgePolicy {
            delay: Duration::from_millis(2),
        };
        let phase1 = drive(&server, kernel, load, 0x9011, None, Some(hedge));
        let corrupted1 = count_corrupted(&phase1.exchanges);
        // Idle shard loops keep checking their kill sites, so any kill
        // that didn't fire under load fires here; wait until every seat
        // has died once and been respawned.
        let recovery_deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let snap = server.snapshot();
            if snap.alive_shards() == rolling_shards
                && snap.total_respawns() >= rolling_shards as u64
            {
                break;
            }
            assert!(
                std::time::Instant::now() < recovery_deadline,
                "rolling-kill fleet never recovered: {snap:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 2 is fault-free because every budget of one is spent: the
        // respawned fleet at full strength.
        assert_eq!(kills.fired_total(), rolling_shards as u64);
        let phase2 = drive(&server, kernel, load, 0xA077, None, None);
        let avail2 = phase2.report().availability();
        total_corrupted += corrupted1 + count_corrupted(&phase2.exchanges);
        let snap = server.shutdown();
        println!(
            "  rolling-kill plan: shard i killed once at rates {rolling_rates:?}, seed 11 + i"
        );
        println!(
            "  rolling-kill respawns: {} (MTTR mean {:.2}ms)",
            snap.total_respawns(),
            snap.mean_mttr().map_or(0.0, |d| d.as_secs_f64() * 1e3)
        );
        println!(
            "  rolling-kill hedges: {} (wins {})",
            phase1.hedges, phase1.hedge_wins
        );
        println!(
            "  rolling-kill redriven: {} (deadline sheds after redrive: {})",
            snap.total_redriven(),
            snap.shed_deadline_redrive
        );
        println!(
            "  rolling-kill post-recovery availability: {:.1}%",
            100.0 * avail2
        );
        (snap.total_respawns(), avail2)
    };

    println!("  corrupted prices: {total_corrupted}");
    println!("  degraded batches: {total_degraded}");
    let (kill_avail, alive, shards, survivor_served) =
        kill_stats.expect("the matrix has a shard-kill plan");
    println!("  shard-kill availability: {:.1}%", 100.0 * kill_avail);
    println!("  shard-kill survivors: {alive}/{shards} shards alive, served {survivor_served}");
    println!("  (corrupted compares every Priced response bit-for-bit against solo");
    println!("  pricing on the rung that served it — faults shed or degrade, never corrupt)");
    gate::chaos(
        total_corrupted,
        total_degraded,
        (alive, 100.0 * kill_avail),
        (rolling_respawns, 100.0 * rolling_avail),
    )
}

/// The `greeks_bench` experiment: the risk workload plane end to end.
///
/// Four panels: (a) native ladder throughput of the `greeks` kernel's
/// seven rungs (analytic scalar/SIMD, bump-and-reprice, Monte-Carlo);
/// (b) the accuracy-vs-bump-size error curve of the finite-difference
/// estimators against the analytic closed form, including the lattice
/// and PDE repricers at their node-spanning bumps; (c) Monte-Carlo
/// estimator agreement (pathwise and CRN finite differences) with
/// standard errors; (d) `GreeksRequest`s driven through the serving
/// plane, every computed response replayed bit-for-bit against solo
/// computation on the rung that served it.
///
/// The default bump sizes must reproduce the analytic greeks, and a
/// healthy greeks lane under covered load sheds nothing
/// ([`gate::greeks`]).
pub fn greeks_bench(opts: &RunOptions) -> Vec<Verdict> {
    use finbench_core::greeks::bump::{
        binomial_bump_greeks, bs_bump_greeks, cn_put_bump_greeks, BumpSizes,
    };
    use finbench_core::greeks::mc::{crn_fd_delta, crn_fd_vega, crn_normals, pathwise_greeks};
    use finbench_core::greeks::{greeks, Greeks, OptionType};
    use finbench_core::workload::MarketParams;
    use finbench_rng::StreamFamily;
    use finbench_serve::{drive, greeks_ladder, GreeksSource, LoadMode, ServeConfig, Server};
    use std::time::Duration;

    println!(
        "{}",
        section("greeks_bench — risk workload plane (analytic / bump / Monte-Carlo)")
    );

    // (a) Native ladder throughput: all three estimator families, driven
    // through the same engine plane as every other kernel.
    print_native_for_artifact("greeks_bench", opts);

    const M: MarketParams = MarketParams::PAPER;
    let max_rel_err = |got: Greeks, want: Greeks| -> f64 {
        [
            (got.delta, want.delta),
            (got.gamma, want.gamma),
            (got.vega, want.vega),
            (got.theta, want.theta),
            (got.rho, want.rho),
        ]
        .iter()
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
    };

    // (b) Accuracy vs bump size: the closed form is its own truth, so the
    // sweep shows the classic truncation/roundoff valley directly.
    let (s, x, t) = (30.0, 35.0, 1.0);
    let want = greeks(OptionType::Call, s, x, t, M);
    println!("  [accuracy] bump-and-reprice vs analytic (call s={s} x={x} t={t})");
    let h_grid: &[f64] = if opts.quick {
        &[1e-1, 1e-3, 1e-4, 1e-6, 1e-10]
    } else {
        &[1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10]
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv = String::from("h,delta_err,gamma_err,vega_err,theta_err,rho_err,max_err\n");
    for &h in h_grid {
        let g = bs_bump_greeks(OptionType::Call, s, x, t, M, BumpSizes::uniform(h));
        let errs = [
            (g.delta, want.delta),
            (g.gamma, want.gamma),
            (g.vega, want.vega),
            (g.theta, want.theta),
            (g.rho, want.rho),
        ]
        .map(|(got, w)| (got - w).abs() / w.abs().max(1.0));
        let max = errs.iter().fold(0.0f64, |a, &e| a.max(e));
        rows.push(
            std::iter::once(format!("{h:.0e}"))
                .chain(errs.iter().map(|e| format!("{e:.1e}")))
                .chain(std::iter::once(format!("{max:.1e}")))
                .collect(),
        );
        csv.push_str(&format!(
            "{h:e},{:e},{:e},{:e},{:e},{:e},{max:e}\n",
            errs[0], errs[1], errs[2], errs[3], errs[4]
        ));
    }
    println!(
        "{}",
        table(
            &["h", "delta", "gamma", "vega", "theta", "rho", "max rel err"],
            &rows
        )
    );
    maybe_write_csv(&opts.csv_dir, "greeks_bump_sweep.csv", &csv);
    println!("  (error valley: O(h^2) truncation left of the minimum, O(eps/h) roundoff right)");
    println!();

    // Lattice/PDE repricers at their node-spanning bumps, against the
    // analytic greeks of the matching contract.
    let n_tree = if opts.quick { 64 } else { 512 };
    let (cn_pts, cn_steps) = if opts.quick { (128, 120) } else { (192, 200) };
    let lattice_rows: Vec<Vec<String>> = vec![
        vec![
            format!("binomial CRR ({n_tree} steps), call"),
            "lattice".into(),
            format!(
                "{:.1e}",
                max_rel_err(
                    binomial_bump_greeks(
                        OptionType::Call,
                        s,
                        x,
                        t,
                        M,
                        n_tree,
                        BumpSizes::lattice()
                    ),
                    want
                )
            ),
        ],
        vec![
            format!("Crank-Nicolson ({cn_pts}x{cn_steps} grid), put"),
            "lattice".into(),
            format!(
                "{:.1e}",
                max_rel_err(
                    cn_put_bump_greeks(s, x, t, M, cn_pts, cn_steps, false, BumpSizes::lattice()),
                    greeks(OptionType::Put, s, x, t, M)
                )
            ),
        ],
    ];
    println!(
        "{}",
        table(&["repricer", "bumps", "max rel err"], &lattice_rows)
    );
    println!();

    // (c) Monte-Carlo estimators: pathwise (no bumps at all) and CRN
    // finite differences, each with its standard error against the
    // analytic truth.
    let n_paths = if opts.quick { 1 << 14 } else { 1 << 16 };
    let randoms = crn_normals(&StreamFamily::new(0x6EEC5), 0, n_paths);
    let pw = pathwise_greeks(OptionType::Call, s, x, t, M, &randoms);
    let fd_d = crn_fd_delta(OptionType::Call, s, x, t, M, &randoms, 1e-3);
    let fd_v = crn_fd_vega(OptionType::Call, s, x, t, M, &randoms, 1e-3);
    println!("  [monte-carlo] {n_paths} CRN paths, call s={s} x={x} t={t}");
    let mc_rows: Vec<Vec<String>> = [
        ("pathwise delta", pw.delta, want.delta),
        ("pathwise vega", pw.vega, want.vega),
        ("CRN-FD delta", fd_d, want.delta),
        ("CRN-FD vega", fd_v, want.vega),
    ]
    .iter()
    .map(|(label, est, truth)| {
        vec![
            label.to_string(),
            format!("{:.6}", est.mean()),
            format!("{truth:.6}"),
            format!("{:.1e}", est.std_error()),
            format!("{:.2}", (est.mean() - truth).abs() / est.std_error()),
        ]
    })
    .collect();
    println!(
        "{}",
        table(
            &["estimator", "mean", "analytic", "std err", "|z|"],
            &mc_rows
        )
    );
    println!();

    // (d) GreeksRequests through the serving plane: closed-loop clients,
    // queue sized to cover the offered load, no deadlines — so a healthy
    // lane sheds nothing. Every computed response is replayed against
    // solo computation on the rung that served it.
    let clients = 4usize;
    let per_client = if opts.quick { 150 } else { 1500 };
    let cfg = ServeConfig {
        queue_capacity: (clients * per_client).max(16),
        max_delay: Duration::from_micros(200),
        max_batch: 4096,
        ..ServeConfig::default()
    };
    let oracle = greeks_ladder(cfg.pricer.market);
    let server = Server::start(cfg);
    let load = LoadMode::Closed {
        clients,
        requests_per_client: per_client,
    };
    let driven = drive(&server, &GreeksSource, load, 0x62EE5, None, None);
    server.shutdown();

    let report = driven.report();
    let served = report.served;
    let mut mismatches = 0usize;
    let mut batch_sum = 0usize;
    let mut lat_us: Vec<f64> = Vec::with_capacity(served);
    for (req, resp, _) in &driven.exchanges {
        if let Ok(out) = &resp.outcome {
            batch_sum += out.batch_len;
            lat_us.push(out.latency.as_secs_f64() * 1e6);
            let rung = oracle
                .iter()
                .find(|r| *r.slug == out.rung)
                .unwrap_or_else(|| panic!("response served on unknown rung {}", out.rung));
            let (call, put) = rung.compute_one(req.s, req.x, req.t);
            if call != out.call || put != out.put {
                mismatches += 1;
            }
        }
    }
    let mean_batch = batch_sum as f64 / served.max(1) as f64;
    println!(
        "  [serve] {served}/{} computed on the greeks lane (mean batch {mean_batch:.1}, \
         p50 {:.0} us, p99 {:.0} us)",
        report.offered,
        finbench_telemetry::stats::nearest_rank_unsorted(&lat_us, 0.50),
        finbench_telemetry::stats::nearest_rank_unsorted(&lat_us, 0.99),
    );
    println!("  batched vs solo mismatches: {mismatches}");
    println!();

    // Default-bump agreement across a spread of random contracts, and
    // zero shed under covered load.
    let mut stream = finbench_serve::OptionStream::new(0xA6EE);
    let mut worst = 0.0f64;
    for _ in 0..64 {
        let (s, x, t) = stream.next_option();
        for kind in [OptionType::Call, OptionType::Put] {
            let got = bs_bump_greeks(kind, s, x, t, M, BumpSizes::default());
            worst = worst.max(max_rel_err(got, greeks(kind, s, x, t, M)));
        }
    }
    let mut totals = LoadTotals::default();
    totals.add(&report);
    let verdicts = gate::greeks(worst, mismatches, totals.shed);
    println!(
        "  bump agreement: {} (max rel err {worst:.1e}; bound {:?})",
        ok(verdicts[..2].iter().all(|v| v.pass)),
        verdicts[0].bound
    );
    totals.print();
    verdicts
}

/// The `portfolio_bench` experiment: the market-risk plane end to end.
///
/// Three panels: (a) native ladder throughput of the `portfolio`
/// kernel's rungs (scalar/SIMD full-book revaluation, chunk-parallel
/// scenarios); (b) VaR / expected-shortfall convergence over growing
/// scenario grids, each estimate with its order-statistic confidence
/// interval, checked for coverage against a much finer reference grid;
/// (c) one `PortfolioRequest` fanned out across a sharded server and the
/// merged P&L replayed bit-for-bit against the native single-threaded
/// sweep of the same book and grid.
///
/// Served fan-out must merge bit-identically to native, and the finest
/// grid's VaR must land inside the reference run's neighborhood
/// ([`gate::portfolio`]).
pub fn portfolio_bench(opts: &RunOptions) -> Vec<Verdict> {
    use finbench_core::portfolio::{par_revalue, revalue_into, Book, RevalScratch, ScenarioConfig};
    use finbench_core::workload::MarketParams;
    use finbench_serve::{PortfolioRequest, ServeConfig, Server};
    use std::time::Duration;

    println!(
        "{}",
        section("portfolio_bench — market-risk plane (scenario grids -> VaR/ES)")
    );

    // (a) Native ladder throughput: full-book revaluation driven through
    // the same engine plane as every other kernel.
    print_native_for_artifact("portfolio_bench", opts);

    const M: MarketParams = MarketParams::PAPER;
    const SEED: u64 = 0x9F0C; // book + grid seed shared by every panel

    // (b) VaR/ES convergence: one fixed book revalued over growing
    // scenario grids. Estimates carry order-statistic CIs; the reference
    // grid is 4x the finest sweep point, so coverage is checkable.
    let positions = if opts.quick { 64 } else { 128 };
    let grids: &[usize] = if opts.quick {
        &[128, 512, 2048]
    } else {
        &[512, 2048, 8192, 32768]
    };
    let book = Book::random(positions, SEED);
    let reference_scenarios = grids.last().unwrap() * 4;
    println!(
        "  [convergence] {positions} positions, grids {grids:?}, \
         reference {reference_scenarios} scenarios"
    );
    let sweep = |scenarios: usize| {
        let cfg = ScenarioConfig::standard(scenarios, SEED);
        let mut pnl = Vec::new();
        par_revalue(&book, M, &cfg, 256, &mut pnl);
        finbench_core::portfolio::var_es(&pnl, &[0.95, 0.99])
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv = String::from(
        "scenarios,var95,var95_lo,var95_hi,es95,es95_se,var99,var99_lo,var99_hi,es99,es99_se\n",
    );
    let mut push =
        |label: String, scenarios: usize, risk: &[finbench_core::portfolio::RiskSummary]| {
            let (r95, r99) = (&risk[0], &risk[1]);
            rows.push(vec![
                label,
                format!("{:.3}", r95.var),
                format!("[{:.3}, {:.3}]", r95.var_ci.0, r95.var_ci.1),
                format!("{:.3} ± {:.3}", r95.es, r95.es_se),
                format!("{:.3}", r99.var),
                format!("[{:.3}, {:.3}]", r99.var_ci.0, r99.var_ci.1),
                format!("{:.3} ± {:.3}", r99.es, r99.es_se),
            ]);
            csv.push_str(&format!(
                "{scenarios},{},{},{},{},{},{},{},{},{},{}\n",
                r95.var,
                r95.var_ci.0,
                r95.var_ci.1,
                r95.es,
                r95.es_se,
                r99.var,
                r99.var_ci.0,
                r99.var_ci.1,
                r99.es,
                r99.es_se
            ));
        };
    let mut finest: Vec<finbench_core::portfolio::RiskSummary> = Vec::new();
    for &scenarios in grids {
        let risk = sweep(scenarios);
        push(scenarios.to_string(), scenarios, &risk);
        finest = risk;
    }
    let reference = sweep(reference_scenarios);
    push(
        format!("{reference_scenarios} (ref)"),
        reference_scenarios,
        &reference,
    );
    println!(
        "{}",
        table(
            &[
                "scenarios",
                "VaR95",
                "95% CI",
                "ES95",
                "VaR99",
                "99% CI",
                "ES99"
            ],
            &rows
        )
    );
    maybe_write_csv(&opts.csv_dir, "portfolio_convergence.csv", &csv);
    println!("  (CIs are order statistics at rank ± 1.96·sqrt(c(1-c)n); ES ± tail std err)");
    println!();

    // The finest sweep grid's VaR must sit inside (a slightly widened
    // copy of) its own CI around the reference value — the estimator
    // converges toward the reference as the grid grows. Measured as the
    // worst gap in CI half-widths.
    let var_gap = finest.iter().zip(reference.iter()).map(|(f, r)| {
        let half = ((f.var_ci.1 - f.var_ci.0) / 2.0).max(1e-9);
        (f.var - r.var).abs() / half
    });
    let var_gap = var_gap.fold(0.0, f64::max);

    // (c) One request through the sharded serving plane, replayed
    // natively. The chunk size forces a real fan-out so the merge path
    // (spill/steal/redrive territory) is what gets checked, and the
    // native sweep is the independent single-threaded oracle.
    let scenarios = if opts.quick { 96 } else { 384 };
    let replay_positions = if opts.quick { 24 } else { 64 };
    let chunk = 16;
    let config = ServeConfig {
        queue_capacity: 1024,
        max_delay: Duration::from_micros(200),
        max_batch: 64,
        shards: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(config);
    let req = PortfolioRequest::new(1, SEED, replay_positions, scenarios).with_chunk(chunk);
    let resp = server.submit(req).recv().expect("portfolio response");
    let snapshot = server.shutdown();
    let out = match resp.outcome {
        Ok(out) => out,
        Err(e) => {
            let verdicts = gate::portfolio(None, var_gap);
            println!("  portfolio replay: FAIL (request rejected: {e})");
            println!("  portfolio var check: {}", ok(verdicts[1].pass));
            return verdicts;
        }
    };
    let replay_book = Book::random(replay_positions, SEED);
    let cfg = ScenarioConfig::standard(scenarios, SEED);
    let mut scratch = RevalScratch::new();
    let mut native = Vec::new();
    revalue_into::<8>(&replay_book, M, &cfg.grid(), &mut scratch, &mut native);
    let differing = out.pnl.iter().zip(native.iter());
    let mismatches = out.pnl.len().abs_diff(native.len())
        + differing
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
    println!(
        "  [serve] {} scenarios in {} chunks across {} shards, rungs {:?}, \
         merged in {:.1} ms",
        out.scenarios,
        out.chunks,
        snapshot.shards.len(),
        out.rungs,
        out.latency.as_secs_f64() * 1e3
    );
    for r in &out.risk {
        println!(
            "  served VaR{:.0}: {:.4} (CI [{:.4}, {:.4}]), ES {:.4} ± {:.4}",
            r.confidence * 100.0,
            r.var,
            r.var_ci.0,
            r.var_ci.1,
            r.es,
            r.es_se
        );
    }

    let verdicts = gate::portfolio(Some(mismatches), var_gap);
    println!(
        "  portfolio replay: {} ({} scenarios bit-identical served vs native)",
        ok(verdicts[0].pass),
        native.len()
    );
    println!("  portfolio var check: {}", ok(verdicts[1].pass));
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mix_matches_paper_band() {
        let n = 32;
        let (plain, expanded) = black_scholes_op_mix(n);
        // Four cnd calls per option in the basic kernel, exactly.
        assert_eq!(plain.cnds, 4 * n as u64);
        assert_eq!(plain.cnds, expanded.cnds);
        // Plain tally: a few dozen ops when transcendentals count as one.
        let plain_per = plain.total_with_transcendentals() / n as u64;
        assert!((20..=60).contains(&plain_per), "plain {plain_per}");
        // Expanded tally: the paper's ~200 ops/option (§IV-A).
        let per = expanded.total_with_transcendentals() / n as u64;
        assert!((180..=230).contains(&per), "expanded {per} ops/option");
    }
}
