//! Per-layer probes: micro-measurements of single layers through their
//! public functions, run only in a traced run (after the workload), one span
//! each. They do not depend on which workload the run was for; what they
//! explain is listed per metric in README.md.

use crate::served::{contract_pool, SplitMix, POSITIONS, SCENARIOS};
use crate::stats::{geomean, nearest_rank, FAST_SIDE};
use crate::trace::{now_ns, Tracer, ROOT};
use finbench_core::black_scholes::soa;
use finbench_core::engine::registry;
use finbench_core::greeks::GreeksBatchSoa;
use finbench_core::portfolio::{
    par_revalue, revalue_into, var_es, Book, RevalScratch, ScenarioConfig, ScenarioGrid, PAD_WIDTH,
};
use finbench_core::{MarketParams, OptionBatchSoa};
use finbench_engine::Engine;
use finbench_math as fm;
use finbench_rng::normal::{fill_standard_normal_icdf, fill_standard_normal_polar};
use finbench_rng::uniform::fill_uniform;
use finbench_rng::{Mt19937_64, Philox4x32};
use finbench_serve::batcher::{BatchPolicy, MicroBatcher};
use finbench_serve::pricer::{padded_batch_into, resolve, PricerConfig};
use finbench_serve::{greeks_ladder, portfolio_ladder, AdmissionQueue};
use finbench_simd::batch::{vd_erf, vd_exp, vd_ln, vd_norm_cdf};
use finbench_telemetry as telemetry;
use std::hint::black_box;
use std::time::{Duration, Instant};

const M: MarketParams = MarketParams::PAPER;
/// Slice length of the math and RNG probes: 8 MiB per array, several times
/// the last-level cache share of one core, like the kernels' full workloads.
const N: usize = 1 << 20;
const MIN_CALLS: usize = 5;
const MIN_NS: u64 = 40_000_000;

struct Probes<'t> {
    tracer: &'t mut Tracer,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Wall time of one call of `f` (fast decile), in ns, after one
    /// discarded call; the whole probe is one span called `name`.
    fn call_ns(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        let span = self.tracer.begin(name, ROOT, 0);
        f();
        let mut samples = Vec::new();
        let start = now_ns();
        while samples.len() < MIN_CALLS || now_ns() - start < MIN_NS {
            let t0 = now_ns();
            f();
            samples.push((now_ns() - t0) as f64);
        }
        self.tracer.end(span);
        nearest_rank(&mut samples, FAST_SIDE)
    }

    /// Record metric `name` = time of one call of `f`, in ns times `scale`
    /// (`1e-3` for microseconds, `1 / n` for a call that does `n` items).
    fn cost(&mut self, name: &'static str, scale: f64, f: impl FnMut()) {
        let ns = self.call_ns(name, f);
        self.out.push((name, ns * scale));
    }

    /// Record metric `name` = items per second of an `f` that does `items`.
    fn rate(&mut self, name: &'static str, items: usize, f: impl FnMut()) -> f64 {
        let rate = items as f64 / (self.call_ns(name, f) * 1e-9);
        self.out.push((name, rate));
        rate
    }
}

fn map_scalar(src: &[f64], dst: &mut [f64], f: impl Fn(f64) -> f64) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = f(x);
    }
    black_box(dst);
}

fn soa_batch(opts: &[(f64, f64, f64)], width: usize) -> OptionBatchSoa {
    let mut batch = OptionBatchSoa::zeroed(0);
    padded_batch_into(&mut batch, opts, width);
    batch
}

/// Run every probe; inputs derive from `seed`.
pub fn run(seed: u64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        tracer,
        out: Vec::new(),
    };
    let mut rng = SplitMix(seed ^ 0x70_72_6F_62_65);
    let xs: Vec<f64> = (0..N).map(|_| rng.range(-5.0, 5.0)).collect();
    let pos: Vec<f64> = (0..N).map(|_| rng.range(0.01, 100.0)).collect();
    let mut dst = vec![0.0; N];

    // simd / math: array-at-a-time vector math against the scalar loops.
    let speedups = [
        p.rate("simd.vd_exp_per_s", N, || vd_exp(&xs, black_box(&mut dst)))
            / p.rate("math.exp_per_s", N, || map_scalar(&xs, &mut dst, fm::exp)),
        p.rate("simd.vd_ln_per_s", N, || vd_ln(&pos, black_box(&mut dst)))
            / p.rate("math.ln_per_s", N, || map_scalar(&pos, &mut dst, fm::ln)),
        p.rate("simd.vd_norm_cdf_per_s", N, || {
            vd_norm_cdf(&xs, black_box(&mut dst))
        }) / p.rate("math.norm_cdf_per_s", N, || {
            map_scalar(&xs, &mut dst, fm::norm_cdf)
        }),
    ];
    p.out.push(("simd.speedup_geomean", geomean(&speedups)));
    p.rate("simd.vd_erf_per_s", N, || vd_erf(&xs, black_box(&mut dst)));

    // rng: the generators and transforms behind the RNG ladder's four rungs.
    let mut mt = Mt19937_64::new(seed);
    let mut philox = Philox4x32::new(seed);
    p.rate("rng.uniform_mt_per_s", N, || {
        fill_uniform(&mut mt, black_box(&mut dst))
    });
    p.rate("rng.uniform_philox_per_s", N, || {
        fill_uniform(&mut philox, black_box(&mut dst))
    });
    p.rate("rng.normal_icdf_per_s", N, || {
        fill_standard_normal_icdf(&mut mt, black_box(&mut dst))
    });
    p.rate("rng.normal_polar_per_s", N, || {
        fill_standard_normal_polar(&mut mt, black_box(&mut dst))
    });

    // parallel: cost of one dispatch, and what the threaded rungs gain over
    // their single-thread siblings.
    let mut two = [0u8; 2];
    p.cost("parallel.dispatch_us", 1e-3, || {
        finbench_parallel::parallel_for_chunks(black_box(&mut two), 1, 2, |_, _| {})
    });
    let pool = contract_pool(seed, 1 << 17);
    let mut big = soa_batch(&pool, 8);
    let serial = p.call_ns("parallel.bs_serial", || {
        soa::price_soa_simd_erf_parity::<8>(black_box(&mut big), M)
    });
    let pooled = p.call_ns("parallel.bs_pool_speedup", || {
        soa::par_price_soa::<8>(black_box(&mut big), M, 4096)
    });
    p.out.push(("parallel.bs_pool_speedup", serial / pooled));

    // serve.portfolio: the stages of one 256 x 2048 request, natively. Their
    // sum against the served request time is the plane's overhead.
    let pricings = (POSITIONS * SCENARIOS) as f64;
    let cfg = ScenarioConfig::standard(SCENARIOS, seed);
    p.cost("serve.portfolio.book_us", 1e-3, || {
        black_box(Book::random(POSITIONS, seed));
    });
    let book = Book::random(POSITIONS, seed);
    let mut grid = ScenarioGrid::default();
    p.cost("serve.portfolio.grid_ns", 1.0 / SCENARIOS as f64, || {
        cfg.fill_grid(0, SCENARIOS, black_box(&mut grid))
    });
    let rung = &portfolio_ladder(M)[0];
    let (mut scratch, mut pnl) = (RevalScratch::new(), Vec::new());
    p.cost("serve.portfolio.revalue_ns", 1.0 / pricings, || {
        rung.revalue(&book, &grid, &mut scratch, black_box(&mut pnl))
    });
    p.cost("serve.portfolio.var_es_us", 1e-3, || {
        black_box(var_es(&pnl, &[0.95, 0.99]));
    });
    let serial = p.call_ns("parallel.portfolio_serial", || {
        revalue_into::<PAD_WIDTH>(&book, M, &grid, &mut scratch, black_box(&mut pnl))
    });
    let pooled = p.call_ns("parallel.portfolio_pool_speedup", || {
        par_revalue(&book, M, &cfg, 256, black_box(&mut pnl))
    });
    p.out
        .push(("parallel.portfolio_pool_speedup", serial / pooled));

    // telemetry: the calls on the server's per-request and per-batch paths.
    const CALLS: usize = 1000;
    let per_call = 1.0 / CALLS as f64;
    p.cost("telemetry.counter_add_ns", per_call, || {
        for _ in 0..CALLS {
            telemetry::counter_add("bench.probe.counter", 1);
        }
    });
    p.cost("telemetry.gauge_set_ns", per_call, || {
        for i in 0..CALLS {
            telemetry::gauge_set("bench.probe.gauge", i as f64);
        }
    });
    p.cost("telemetry.span_ns", per_call, || {
        for _ in 0..CALLS {
            drop(telemetry::span("bench.probe.span"));
        }
    });
    // The span registry is never trimmed; give the probe's records back.
    drop(telemetry::drain());

    // serve.queue / serve.batcher: the plumbing around every request.
    const ITEMS: u64 = 1024;
    let per_item = 1.0 / ITEMS as f64;
    let queue = AdmissionQueue::<u64>::new(4096);
    p.cost("serve.queue.push_pop_ns", per_item, || {
        for i in 0..ITEMS {
            let _ = queue.try_push(i);
        }
        for _ in 0..ITEMS {
            black_box(queue.pop_timeout(Duration::ZERO));
        }
    });
    let mut batcher = MicroBatcher::<u64>::new(BatchPolicy {
        max_batch: 4096,
        max_delay: Duration::from_millis(1),
    });
    let mut flushed = Vec::new();
    p.cost("serve.batcher.offer_flush_ns", per_item, || {
        let now = Instant::now();
        for i in 0..ITEMS {
            black_box(batcher.offer(i, now));
        }
        batcher.flush_into(black_box(&mut flushed));
    });

    // serve.pricer / serve.greeks: pad, price and compute per option at the
    // batch sizes the lanes see.
    let engine = Engine::new(registry());
    let pricer = PricerConfig::default();
    let bs = resolve(&engine, "black_scholes", &pricer).expect("black_scholes is servable");
    let mut batch = OptionBatchSoa::zeroed(0);
    p.cost("serve.pricer.pad_ns", per_item, || {
        padded_batch_into(black_box(&mut batch), &pool[..ITEMS as usize], bs.width)
    });
    for (name, len) in [
        ("serve.pricer.bs_ns_b64", 64),
        ("serve.pricer.bs_ns_b1024", 1024),
        ("serve.pricer.bs_ns_b4096", 4096),
    ] {
        let mut batch = soa_batch(&pool[..len], bs.width);
        p.cost(name, 1.0 / len as f64, || bs.price(black_box(&mut batch)));
    }
    let binomial = resolve(&engine, "binomial", &pricer).expect("binomial is servable");
    let mut batch = soa_batch(&pool[..8], binomial.width);
    p.cost("serve.pricer.binomial_us", 1e-3 / 8.0, || {
        binomial.price(black_box(&mut batch))
    });
    let rung = &greeks_ladder(M)[0];
    let batch = soa_batch(&pool[..ITEMS as usize], rung.width);
    let mut sens = GreeksBatchSoa::zeroed(batch.len());
    p.cost("serve.greeks.ns_b1024", per_item, || {
        rung.compute(&batch, black_box(&mut sens))
    });

    // engine: one planning decision.
    let names = engine.registry().names();
    p.cost("engine.plan_us", 1e-3 / names.len() as f64, || {
        for name in &names {
            black_box(engine.plan(name).is_ok());
        }
    });
    p.out
}
