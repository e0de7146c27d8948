//! Batch-safe pricers: the bridge from the engine's optimization ladders
//! to the serving plane.
//!
//! ## Which rungs are servable
//!
//! A rung is *servable* only if each option's price is independent of its
//! batch neighbours — a micro-batch mixes unrelated requests, so any rung
//! that couples lanes (e.g. one that draws from a shared `rng` stream)
//! would change a request's answer based on who it happened to be batched
//! with. Each servable kernel declares its degradation ladder as a fixed
//! list of such rungs, most advanced first ([`servable_ladder`]), like the
//! greeks and portfolio ladders; a lane's size trigger is measured on the
//! lane's last flush. No cost model enters the serving plane.
//!
//! The binomial SIMD and tiled rungs are batch-safe (every lane carries its
//! own lattice), yet binomial serves its scalar reference, for occupancy:
//! at the serve default of 256 steps the scalar rung prices a call and a
//! put in ≈ 13.6 µs, while an 8-lane tiled tree takes ≈ 24 µs, so a lone
//! request padded to W = 8 needs ≈ 48 µs for its two trees — and a
//! steady open-loop lane flushes about one binomial request per batch.
//!
//! No *threaded* rung is servable: a shard worker is the serving plane's
//! unit of parallelism and a micro-batch is a single pool chunk, so
//! `advanced_own_pool_threads` could only compute the bits of
//! `advanced_erf_parity_w_8`, the top of the Black-Scholes ladder.
//!
//! ## Bit-exactness under batching
//!
//! The SIMD drivers fall back to a scalar tail for `len % W` leftovers,
//! and the scalar path rounds differently from the vector lanes. The
//! serving plane therefore **pads every batch to a multiple of the
//! rung's SIMD width** so every request is priced in a vector lane. The
//! vector math is lane-wise, so a request's price depends only on its own
//! `(s, x, t)` — never on batch size, position, or padding — which is
//! what makes micro-batching transparent (and is pinned down by the
//! property tests in `tests/batching_equivalence.rs`).

use crate::request::Rejected;
use crate::rung::Rung;
use finbench_core::binomial;
use finbench_core::black_scholes::{self, soa};
use finbench_core::{MarketParams, OptionBatchSoa};
use finbench_engine::{Engine, Registry};

/// Serving-side pricer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricerConfig {
    /// Market parameters shared by all requests (the paper assumes r and
    /// sigma are batch-wide).
    pub market: MarketParams,
    /// Time steps for the binomial tree pricer.
    pub binomial_steps: usize,
}

impl Default for PricerConfig {
    fn default() -> Self {
        Self {
            market: MarketParams::PAPER,
            binomial_steps: 256,
        }
    }
}

/// A price rung's batch body: prices a padded SOA batch in place.
pub type PriceKernel = dyn Fn(&mut OptionBatchSoa) + Send + Sync;

/// A resolved batch-safe pricer: one price-ladder [`Rung`].
pub type ServingRung = Rung<PriceKernel>;

impl ServingRung {
    /// Price `batch` in place. The caller guarantees `batch.len()` is a
    /// multiple of [`width`](Rung::width) (use [`padded_batch_into`]).
    pub fn price(&self, batch: &mut OptionBatchSoa) {
        debug_assert_eq!(batch.len() % self.width, 0);
        (self.body)(batch);
    }

    /// Price one option alone — the oracle the batching property tests
    /// compare scattered batch results against. Pads a singleton batch to
    /// the rung's width so the option still rides a vector lane.
    pub fn price_one(&self, s: f64, x: f64, t: f64) -> (f64, f64) {
        let mut batch = OptionBatchSoa::zeroed(0);
        padded_batch_into(&mut batch, &[(s, x, t)], self.width);
        self.price(&mut batch);
        (batch.call[0], batch.put[0])
    }
}

/// Stage `(s, x, t)` triples into a caller-owned SOA batch, padded to a
/// multiple of `width` with benign dummy options (never surfaced to any
/// caller). The batch is resized in place — its capacity only ever
/// grows, so a lane reusing one batch across flushes stops allocating
/// once it has seen its largest flush. Outputs are zeroed for the live
/// prefix (stale padding lanes keep whatever the previous flush wrote;
/// they are never scattered back).
pub fn padded_batch_into(batch: &mut OptionBatchSoa, opts: &[(f64, f64, f64)], width: usize) {
    let width = width.max(1);
    let padded = (opts.len().div_ceil(width) * width).max(width);
    batch.resize(padded);
    for (i, &(s, x, t)) in opts.iter().enumerate() {
        batch.s[i] = s;
        batch.x[i] = x;
        batch.t[i] = t;
        batch.call[i] = 0.0;
        batch.put[i] = 0.0;
    }
    for i in opts.len()..padded {
        batch.s[i] = 1.0;
        batch.x[i] = 1.0;
        batch.t[i] = 1.0;
    }
}

fn rung<const W: usize>(
    slug: &str,
    body: impl Fn(&mut OptionBatchSoa) + Send + Sync + 'static,
) -> ServingRung {
    Rung::new(slug, W, Box::new(body))
}

/// The *degradation ladder* for `kernel`, most advanced first. Index 0 is
/// the normal serving rung (what [`resolve`] returns); each subsequent
/// entry is the next cheaper fallback the lane supervisor degrades to
/// when the rung above keeps faulting, ending at a scalar rung. Every
/// entry prices bit-identically to pricing alone on that same rung, so
/// degradation trades throughput, never correctness.
///
/// Black-Scholes descends erf + parity (W=8) → SIMD SOA W=8 → W=4 →
/// scalar SOA; binomial serves its scalar reference only: its vector rungs
/// are batch-safe, but a near-empty batch padded to W = 8 runs ≈ 3.5×
/// slower on them (see the module doc). The registry
/// only tells an unknown name ([`Rejected::UnknownKernel`]) from a
/// registered kernel with no batch-safe rung ([`Rejected::Unservable`]).
pub fn servable_ladder(
    registry: &Registry,
    kernel: &str,
    cfg: &PricerConfig,
) -> Result<Vec<ServingRung>, Rejected> {
    let m = cfg.market;
    match kernel {
        "black_scholes" => Ok(vec![
            rung::<8>("advanced_erf_parity_w_8", move |b| {
                soa::price_soa_simd_erf_parity::<8>(b, m)
            }),
            rung::<8>("intermediate_simd_soa_w_8", move |b| {
                soa::price_soa_simd::<8>(b, m)
            }),
            rung::<4>("intermediate_simd_soa_w_4", move |b| {
                soa::price_soa_simd::<4>(b, m)
            }),
            rung::<1>("intermediate_scalar_soa", move |b| {
                soa::price_soa_scalar(b, m)
            }),
        ]),
        "binomial" => {
            let n = cfg.binomial_steps.max(1);
            Ok(vec![rung::<1>("basic_scalar_reference", move |b| {
                binomial::reference::price_batch(b, m, n)
            })])
        }
        _ => Err(match registry.resolve(kernel) {
            Ok(_) => Rejected::Unservable {
                kernel: kernel.to_string().into(),
            },
            Err(e) => Rejected::UnknownKernel {
                reason: e.to_string().into(),
            },
        }),
    }
}

/// Resolve the serving rung for `kernel`: the top of its
/// [`servable_ladder`]. Unknown and unservable kernels are typed
/// rejections.
pub fn resolve(engine: &Engine, kernel: &str, cfg: &PricerConfig) -> Result<ServingRung, Rejected> {
    servable_ladder(engine.registry(), kernel, cfg).map(|mut l| l.remove(0))
}

/// `price_single` reference for one option — used by tests to pin the
/// scalar rung to the textbook closed form.
pub fn scalar_reference(s: f64, x: f64, t: f64, market: MarketParams) -> (f64, f64) {
    black_scholes::price_single(s, x, t, market)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_core::engine::registry;

    fn engine() -> Engine {
        Engine::new(registry())
    }

    #[test]
    fn degradation_ladder_descends_to_the_scalar_reference() {
        let e = engine();
        let cfg = PricerConfig::default();
        let ladder = servable_ladder(e.registry(), "black_scholes", &cfg).unwrap();
        assert!(ladder.len() >= 2, "need at least one fallback rung");
        // Index 0 is exactly what resolve() serves.
        assert_eq!(
            ladder[0].slug,
            resolve(&e, "black_scholes", &cfg).unwrap().slug
        );
        // The bottom is a scalar rung (width 1): the last-resort fallback.
        assert_eq!(ladder.last().unwrap().width, 1);
        // Monotonic descent: ladder indices strictly decrease.
        let rungs = e.registry().resolve("black_scholes").unwrap().rungs();
        let idx_of = |slug: &str| rungs.iter().position(|r| r.slug == slug).unwrap();
        for pair in ladder.windows(2) {
            assert!(
                idx_of(&pair[0].slug) > idx_of(&pair[1].slug),
                "{} should sit above {}",
                pair[0].slug,
                pair[1].slug
            );
        }
    }

    #[test]
    fn binomial_resolves_to_the_scalar_reference() {
        let rung = resolve(&engine(), "binomial", &PricerConfig::default()).unwrap();
        assert_eq!(&*rung.slug, "basic_scalar_reference");
        assert_eq!(rung.width, 1);
    }

    #[test]
    fn unbatchable_kernels_are_typed_rejections() {
        let e = engine();
        let cfg = PricerConfig::default();
        for k in ["monte_carlo", "rng", "crank_nicolson", "brownian_bridge"] {
            match resolve(&e, k, &cfg) {
                Err(Rejected::Unservable { kernel }) => assert_eq!(kernel, k),
                other => panic!(
                    "{k}: expected Unservable, got {other:?}",
                    other = other.map(|r| r.slug)
                ),
            }
        }
        assert!(matches!(
            resolve(&e, "black_sholes", &cfg),
            Err(Rejected::UnknownKernel { .. })
        ));
    }

    #[test]
    fn padding_never_reaches_the_caller_and_lanes_are_position_independent() {
        let e = engine();
        let rung = resolve(&e, "black_scholes", &PricerConfig::default()).unwrap();
        let opts = [(30.0, 35.0, 1.0), (25.0, 20.0, 0.5), (10.0, 90.0, 7.5)];
        let mut batch = OptionBatchSoa::zeroed(0);
        padded_batch_into(&mut batch, &opts, rung.width);
        assert_eq!(batch.len() % rung.width, 0);
        rung.price(&mut batch);
        for (i, &(s, x, t)) in opts.iter().enumerate() {
            let (c1, p1) = rung.price_one(s, x, t);
            assert_eq!(batch.call[i].to_bits(), c1.to_bits(), "call {i}");
            assert_eq!(batch.put[i].to_bits(), p1.to_bits(), "put {i}");
        }
    }

    #[test]
    fn padded_batch_into_reuse_matches_a_fresh_batch() {
        let mut reused = OptionBatchSoa::zeroed(0);
        // Shrinks and regrowths across flushes must stage the same
        // inputs as a freshly allocated batch every time.
        for n in [5usize, 11, 2, 0, 16] {
            let opts: Vec<(f64, f64, f64)> = (0..n)
                .map(|i| (30.0 + i as f64, 35.0, 1.0 + i as f64))
                .collect();
            padded_batch_into(&mut reused, &opts, 8);
            let mut fresh = OptionBatchSoa::zeroed(0);
            padded_batch_into(&mut fresh, &opts, 8);
            assert_eq!(reused.len(), fresh.len(), "n={n}");
            assert_eq!(reused.s, fresh.s, "n={n}");
            assert_eq!(reused.x, fresh.x, "n={n}");
            assert_eq!(reused.t, fresh.t, "n={n}");
            assert_eq!(reused.call[..n], fresh.call[..n], "n={n}");
            assert_eq!(reused.put[..n], fresh.put[..n], "n={n}");
        }
    }

    #[test]
    fn no_threaded_rung_is_servable_and_the_top_rung_prices_what_the_pooled_one_did() {
        let e = engine();
        let cfg = PricerConfig::default();
        for kernel in ["black_scholes", "binomial"] {
            let rungs = e.registry().resolve(kernel).unwrap().rungs();
            for served in servable_ladder(e.registry(), kernel, &cfg).unwrap() {
                let info = rungs.iter().find(|r| r.slug == *served.slug).unwrap();
                assert!(!info.threaded, "{kernel}: {} is threaded", served.slug);
            }
        }
        // The rung served in place of the deleted pooled entry returns
        // that entry's bits, `par_price_soa::<8>(b, m, 4096)`, on a full batch.
        let top = resolve(&e, "black_scholes", &cfg).unwrap();
        let mut served = OptionBatchSoa::random(4096, 7, Default::default());
        let mut pooled = served.clone();
        top.price(&mut served);
        soa::par_price_soa::<8>(&mut pooled, cfg.market, 4096);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served.call), bits(&pooled.call));
        assert_eq!(bits(&served.put), bits(&pooled.put));
    }

    #[test]
    fn every_servable_black_scholes_rung_agrees_with_the_closed_form() {
        let cfg = PricerConfig::default();
        let ladder = servable_ladder(&registry(), "black_scholes", &cfg).unwrap();
        for (s, x, t) in [(30.0, 35.0, 2.0), (25.0, 20.0, 0.5), (10.0, 90.0, 7.5)] {
            let (want_c, want_p) = scalar_reference(s, x, t, cfg.market);
            for rung in &ladder {
                let (c, p) = rung.price_one(s, x, t);
                assert!((c - want_c).abs() < 1e-9, "{}: {c} vs {want_c}", rung.slug);
                assert!((p - want_p).abs() < 1e-9, "{}: {p} vs {want_p}", rung.slug);
            }
        }
    }
}
