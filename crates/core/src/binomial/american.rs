//! American-exercise binomial pricing — the case the lattice method exists
//! for ("there is no known closed-form solution ... the binomial option
//! method provides a very close approximation", §II-B). The paper
//! benchmarks the European reduction; this extension adds the
//! early-exercise clamp and is the oracle the Crank-Nicolson experiment
//! validates against.

use super::CrrParams;
use crate::workload::MarketParams;
use finbench_math::Real;

/// Price an American option on an `n`-step CRR lattice.
///
/// At every interior node the continuation value is clamped from below by
/// the immediate-exercise payoff:
/// `V = max(payoff(S_node), pu·V_up + pd·V_down)`.
pub fn price_american<R: Real>(
    s: f64,
    x: f64,
    t: f64,
    market: MarketParams,
    n: usize,
    is_call: bool,
) -> f64 {
    let crr = CrrParams::new(market, t, n);
    let pu = R::splat(crr.pu_by_df);
    let pd = R::splat(crr.pd_by_df);
    let xv = R::splat(x);
    let zero = R::splat(0.0);

    // Node prices at the current level, updated by division by u each step
    // backwards (S_{i,j} = S_{i+1,j} · d since u·d = 1 ... S_{i,j} =
    // S·u^j·d^(i−j), so stepping i→i−1 multiplies by u).
    let mut price: Vec<R> = Vec::with_capacity(n + 1);
    let mut p = s * crr.d_pow_n;
    for _ in 0..=n {
        price.push(R::splat(p));
        p *= crr.u2;
    }

    let payoff = |price: R| {
        if is_call {
            (price - xv).max(zero)
        } else {
            (xv - price).max(zero)
        }
    };

    let mut value: Vec<R> = price.iter().map(|&p| payoff(p)).collect();

    let u = R::splat(crr.u);
    for i in (0..n).rev() {
        for j in 0..=i {
            // Stepping back one level multiplies the lowest node price by u.
            price[j] *= u;
            let cont = pu * value[j + 1] + pd * value[j];
            value[j] = cont.max(payoff(price[j]));
        }
    }
    value[0].into_f64()
}

/// Early-exercise premium: American minus European price on the same
/// lattice (guaranteed non-negative).
pub fn early_exercise_premium(
    s: f64,
    x: f64,
    t: f64,
    market: MarketParams,
    n: usize,
    is_call: bool,
) -> f64 {
    let american = price_american::<f64>(s, x, t, market, n, is_call);
    let european = super::reference::price_european(s, x, t, market, n, is_call);
    american - european
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MarketParams = MarketParams {
        r: 0.05,
        sigma: 0.2,
    };

    #[test]
    fn american_put_textbook_value() {
        // S=K=100, r=5%, sigma=20%, T=1: the American put converges to
        // ~6.090 (vs the European 5.5735).
        let p = price_american::<f64>(100.0, 100.0, 1.0, M, 2000, false);
        assert!((p - 6.090).abs() < 0.01, "got {p}");
    }

    #[test]
    fn american_dominates_european() {
        for (s, x, t) in [(100.0, 100.0, 1.0), (80.0, 100.0, 2.0), (120.0, 100.0, 0.5)] {
            for is_call in [true, false] {
                let prem = early_exercise_premium(s, x, t, M, 500, is_call);
                assert!(prem >= -1e-10, "premium {prem} s={s} x={x} call={is_call}");
            }
        }
    }

    #[test]
    fn american_call_no_dividends_equals_european() {
        // Merton: early exercise of a call on a non-dividend asset is
        // never optimal, so the premium vanishes.
        let prem = early_exercise_premium(100.0, 95.0, 1.0, M, 500, true);
        assert!(prem.abs() < 1e-9, "premium {prem}");
    }

    #[test]
    fn american_value_at_least_intrinsic() {
        for (s, x) in [(60.0, 100.0), (100.0, 100.0), (150.0, 100.0)] {
            let p = price_american::<f64>(s, x, 1.0, M, 300, false);
            assert!(p >= (x - s).max(0.0) - 1e-10, "s={s}");
        }
    }

    #[test]
    fn deep_itm_put_pins_to_intrinsic() {
        // For a very deep ITM American put immediate exercise is optimal.
        let p = price_american::<f64>(10.0, 100.0, 1.0, M, 500, false);
        assert!((p - 90.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn premium_grows_with_rate_for_puts() {
        // Higher r makes waiting costlier for puts => larger premium.
        let lo = early_exercise_premium(
            100.0,
            100.0,
            1.0,
            MarketParams {
                r: 0.01,
                sigma: 0.2,
            },
            400,
            false,
        );
        let hi = early_exercise_premium(
            100.0,
            100.0,
            1.0,
            MarketParams {
                r: 0.08,
                sigma: 0.2,
            },
            400,
            false,
        );
        assert!(hi > lo, "lo={lo} hi={hi}");
    }

    #[test]
    fn counted_instantiation_runs() {
        let (_, counts) = finbench_math::counted::counting(|| {
            price_american::<finbench_math::CountedF64>(100.0, 100.0, 0.5, M, 16, false)
        });
        // Reduction is 3 flops + 1 mul (price update) + payoff (1 sub +
        // 1 max) + 1 clamp max per node => > 3*N(N+1)/2.
        assert!(counts.flops() as usize > 3 * 16 * 17 / 2);
    }
}
