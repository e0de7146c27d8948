//! [`Rung`]: one rung of a servable degradation ladder, for every plane.
//!
//! A servable rung is a ladder slug, a SIMD width and a batch body. The
//! three planes differ only in the body's signature — `K`, a `dyn Fn`
//! named by each plane ([`PriceKernel`](crate::pricer::PriceKernel),
//! [`GreeksKernel`](crate::greeks::GreeksKernel),
//! [`RevalKernel`](crate::portfolio::RevalKernel)) — so the slug and the
//! width live here once, and the generic lane reads them off the rung
//! instead of asking its [`ServeWorkload`](crate::ServeWorkload). Each
//! plane's module names its own `Rung<K>` ([`ServingRung`](crate::ServingRung),
//! [`GreeksRung`](crate::GreeksRung), [`PortfolioRung`](crate::PortfolioRung))
//! and adds the typed call (`price`, `compute`, `revalue`) to it as an
//! inherent method.

use std::sync::Arc;

/// One servable rung: what the lane reports, how wide it pads, and the
/// batch body it runs.
pub struct Rung<K: ?Sized> {
    /// Ladder slug, reported on every answer this rung computes. Shared by
    /// reference count with each batch span's `rung` attribute.
    pub slug: Arc<str>,
    /// SIMD width: a staged batch is padded to a multiple of it.
    pub width: usize,
    pub(crate) body: Box<K>,
}

impl<K: ?Sized> Rung<K> {
    pub(crate) fn new(slug: &str, width: usize, body: Box<K>) -> Self {
        Self {
            slug: Arc::from(slug),
            width,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::workload::{GREEKS_LANE, PORTFOLIO_LANE};
    use crate::{GreeksWorkload, PortfolioWorkload, PriceWorkload, PricerConfig, ServeWorkload};
    use finbench_core::engine::registry;

    /// `W`'s ladder for `key` descends the engine's own ladder for that
    /// kernel — every slug a registry rung, indices strictly falling — and
    /// its widths, most advanced rung first.
    fn descending_widths<W: ServeWorkload>(key: &str) -> Vec<usize> {
        let registry = registry();
        let ladder = W::ladder(&registry, key, &PricerConfig::default()).unwrap();
        let rungs = registry.resolve(key).unwrap().rungs();
        let index = |slug: &str| {
            rungs
                .iter()
                .position(|r| r.slug == slug)
                .unwrap_or_else(|| panic!("{key}: {slug} is no registry rung"))
        };
        for pair in ladder.windows(2) {
            assert!(
                index(&pair[0].slug) > index(&pair[1].slug),
                "{key}: {} should sit above {}",
                pair[0].slug,
                pair[1].slug
            );
        }
        ladder.iter().map(|r| r.width).collect()
    }

    #[test]
    fn every_plane_ladder_descends_registry_rungs_to_a_scalar_one() {
        // Each ends on a scalar rung: the last-resort fallback.
        assert_eq!(
            descending_widths::<PriceWorkload>("black_scholes"),
            [8, 8, 4, 1]
        );
        assert_eq!(descending_widths::<PriceWorkload>("binomial"), [1]);
        assert_eq!(descending_widths::<GreeksWorkload>(GREEKS_LANE), [8, 4, 1]);
        assert_eq!(
            descending_widths::<PortfolioWorkload>(PORTFOLIO_LANE),
            [8, 4, 1]
        );
    }
}
