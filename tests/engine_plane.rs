//! Wiring tests for the engine plane over the *real* six-kernel registry:
//! registry consistency (the CI gate) and planner decisions per kernel. The
//! generic measure/validate machinery is unit-tested in `finbench-engine`
//! against a toy kernel; here we check the production registry drives it
//! correctly.

use finbench::core::engine::registry;
use finbench::engine::{Check, Planner};
use finbench::machine::{arch::host_spec, KNC, SNB_EP};

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
