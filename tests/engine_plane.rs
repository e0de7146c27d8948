//! Wiring tests for the engine plane over the *real* six-kernel registry:
//! registry consistency (the CI gate) and planner decisions per kernel. The
//! generic measure/validate machinery is unit-tested in `finbench-engine`
//! against a toy kernel; here we check the production registry drives it
//! correctly.

use finbench::core::engine::registry;
use finbench::engine::{Check, Engine, Planner};
use finbench::machine::{arch::host_spec, ArchSpec, KNC, SNB_EP};
use finbench::serve::pricer::{servable_ladder, PricerConfig};

#[test]
fn registry_consistency_holds_on_all_planning_archs() {
    let reg = registry();
    for arch in [SNB_EP, KNC, host_spec()] {
        let errs = reg.consistency_errors(&arch);
        assert!(errs.is_empty(), "{}: {errs:?}", arch.name);
    }
}

#[test]
fn every_kernel_gets_a_valid_plan_on_every_arch() {
    let reg = registry();
    for arch in [SNB_EP, KNC, host_spec()] {
        let planner = Planner::new(arch);
        for k in reg.kernels() {
            let plan = planner.plan(k).unwrap_or_else(|e| panic!("{e}"));
            let rungs = k.rungs();
            assert!(plan.rung < rungs.len(), "{}: {plan:?}", k.name());
            assert_eq!(plan.slug, rungs[plan.rung].slug);
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
fn reference_rungs_are_baselines_and_checked_rungs_point_backwards() {
    // Ladder discipline the §6 strategy relies on: rung 0 never checks
    // against anything, and every checked rung validates against an
    // *earlier* rung (so the lazy validation pass never cycles).
    for k in registry().kernels() {
        let rungs = k.rungs();
        assert_eq!(rungs[0].check, Check::None, "{}", k.name());
        for (i, r) in rungs.iter().enumerate() {
            if r.check != Check::None {
                assert!(
                    r.baseline < i,
                    "{}: rung {i} baseline {}",
                    k.name(),
                    r.baseline
                );
            }
        }
    }
}

#[test]
fn the_price_ladder_starts_at_or_below_every_black_scholes_plan() {
    // The price ladder is declared, not planned: its top must not sit above
    // what any planning arch picks, and no rung on it may be threaded or
    // staging.
    let one_core = ArchSpec {
        cores_per_socket: 1,
        stream_bw_gbs: 12.0,
        ..host_spec()
    };
    let engine = Engine::new(registry());
    for kernel in ["black_scholes", "binomial"] {
        let k = engine.registry().resolve(kernel).unwrap();
        let rungs = k.rungs();
        let index = |slug: &str| {
            rungs
                .iter()
                .position(|r| r.slug == slug)
                .unwrap_or_else(|| panic!("{kernel}: {slug} is no registry rung"))
        };
        let ladder = servable_ladder(engine.registry(), kernel, &PricerConfig::default()).unwrap();
        for served in &ladder {
            let info = &rungs[index(&served.slug)];
            assert!(
                !info.threaded && !info.staging,
                "{kernel}: {} is threaded or staging",
                served.slug
            );
        }
        if kernel != "black_scholes" {
            continue;
        }
        for arch in [SNB_EP, host_spec(), one_core] {
            let plan = Planner::new(arch).plan(k).unwrap();
            assert!(
                plan.rung >= index(&ladder[0].slug),
                "{}: plans {} below the ladder's top {}",
                arch.name,
                plan.slug,
                ladder[0].slug
            );
        }
    }
}
