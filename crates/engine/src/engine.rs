//! The engine: one generic `for kernel { for rung }` loop that measures,
//! validates, and plans every registered kernel — spans, slugs,
//! throughput sampling, and pool-imbalance capture included, so every
//! current and future kernel gets them for free.

use crate::error::EngineError;
use crate::kernel::{Check, WorkloadSpec};
use crate::planner::{Plan, Planner};
use crate::registry::{AnyKernel, Registry};
use crate::slug::min_secs;
use crate::timing::{throughput_samples, Samples};
use finbench_telemetry as telemetry;

/// One rung's merged measurement across the interleaved trials of
/// [`Engine::run_ladder_samples`].
#[derive(Debug, Clone)]
pub struct RungSamples {
    /// Span-name segment for the rung.
    pub slug: String,
    /// Display label.
    pub label: &'static str,
    /// Optimization level name.
    pub level: &'static str,
    /// True for thread-pool rungs (noisier; bench gates treat them as
    /// advisory).
    pub threaded: bool,
    /// Items processed per rung step.
    pub items: usize,
    /// Merged per-rep samples across every trial.
    pub samples: Samples,
}

/// The unified pricing-engine plane: a kernel [`Registry`] plus the
/// [`Planner`] that picks a rung per kernel from the machine cost model.
pub struct Engine {
    registry: Registry,
    planner: Planner,
}

impl Engine {
    /// An engine planning for the build host.
    pub fn new(registry: Registry) -> Self {
        Self::with_planner(registry, Planner::for_host())
    }

    /// An engine with an explicit planner (tests plan for SNB-EP/KNC).
    pub fn with_planner(registry: Registry, planner: Planner) -> Self {
        Self { registry, planner }
    }

    /// The kernel registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Plan one kernel by name; unknown names are a typed error, not a
    /// panic.
    pub fn plan(&self, name: &str) -> Result<Plan, EngineError> {
        self.planner.plan(self.registry.resolve(name)?)
    }

    /// Measure every rung of `kernel` on the build host, `trials` times
    /// in interleaved order (rung 0..n, then rung 0..n again, ...),
    /// merging each rung's per-rep samples across trials. Interleaving
    /// spreads slow drift — thermal throttle, frequency steps, a neighbor
    /// hogging the socket — across all rungs instead of biasing whichever
    /// rung happened to run last, which is what makes the merged median
    /// stable enough to gate on. A figure is one trial's
    /// [`best`](Samples::best).
    ///
    /// Emits one `plan.<kernel>` span carrying the planner's decision
    /// (`chosen_rung`, `bound`, `predicted_rate`, `reason`) and one
    /// `native.<kernel>.<slug>` span per rung visit carrying `label`,
    /// `level`, `items`, `trial`, the [`throughput_samples`] summary, and
    /// `pool_imbalance` (1.0 unless a pool dispatch inside the body
    /// overwrites it).
    pub fn run_ladder_samples(
        &self,
        kernel: &dyn AnyKernel,
        quick: bool,
        trials: usize,
    ) -> Vec<RungSamples> {
        self.emit_plan_span(kernel);
        let spec = WorkloadSpec::measure(quick);
        let session = kernel.session(&spec);
        let secs = min_secs(quick);
        let items = session.items();
        let rungs = kernel.rungs();
        let mut merged: Vec<Option<Samples>> = vec![None; rungs.len()];
        for trial in 0..trials.max(1) {
            for (i, info) in rungs.iter().enumerate() {
                let _g = telemetry::span(format!("native.{}.{}", kernel.name(), info.slug));
                telemetry::set_attr("label", info.label);
                telemetry::set_attr("level", info.level.as_str());
                telemetry::set_attr("items", items);
                telemetry::set_attr("trial", trial);
                telemetry::set_attr("pool_imbalance", 1.0);
                let mut body = session.prepare(i);
                let s = throughput_samples(items, secs, || body.step());
                match &mut merged[i] {
                    Some(acc) => acc.merge(&s),
                    slot => *slot = Some(s),
                }
            }
        }
        rungs
            .iter()
            .zip(merged)
            .map(|(info, samples)| RungSamples {
                slug: info.slug.clone(),
                label: info.label,
                level: info.level.as_str(),
                threaded: info.threaded,
                items,
                samples: samples.expect("every rung measured at least once"),
            })
            .collect()
    }

    fn emit_plan_span(&self, kernel: &dyn AnyKernel) {
        let _g = telemetry::span(format!("plan.{}", kernel.name()));
        telemetry::set_attr("arch", self.planner.arch().name);
        match self.planner.plan(kernel) {
            Ok(plan) => {
                telemetry::set_attr("chosen_rung", plan.slug.as_str());
                telemetry::set_attr("label", plan.label);
                telemetry::set_attr("cost_level", plan.cost_label);
                telemetry::set_attr("bound", plan.bound.as_str());
                telemetry::set_attr("predicted_rate", plan.predicted_rate);
                telemetry::set_attr("reason", plan.reason.as_str());
            }
            Err(e) => telemetry::set_attr("error", e.to_string()),
        }
    }

    /// Validate every rung of `kernel` against its baseline rung over the
    /// workload `spec` describes — the §6 equivalence strategy run by the
    /// engine instead of hand-written per kernel. Returns all mismatches
    /// (empty = every rung agrees).
    pub fn validate_kernel(&self, kernel: &dyn AnyKernel, spec: &WorkloadSpec) -> Vec<String> {
        let session = kernel.session(spec);
        let rungs = kernel.rungs();
        // One output per rung, computed on demand (baselines are shared).
        let mut outputs: Vec<Option<Vec<f64>>> = vec![None; rungs.len()];
        let output_of = |idx: usize, outputs: &mut Vec<Option<Vec<f64>>>| -> Vec<f64> {
            if outputs[idx].is_none() {
                let mut body = session.prepare(idx);
                body.step();
                outputs[idx] = Some(body.output());
            }
            outputs[idx].clone().unwrap()
        };
        let mut errors = Vec::new();
        for (i, info) in rungs.iter().enumerate() {
            if matches!(info.check, Check::None) {
                continue;
            }
            let got = output_of(i, &mut outputs);
            let want = output_of(info.baseline, &mut outputs);
            let ctx = format!(
                "{}.{} vs {}",
                kernel.name(),
                info.slug,
                rungs[info.baseline].slug
            );
            if let Some(e) = compare(&got, &want, info.check, &ctx) {
                errors.push(e);
            }
        }
        errors
    }

    /// Validate every registered kernel; returns all mismatches.
    pub fn validate_all(&self, spec: &WorkloadSpec) -> Vec<String> {
        self.registry
            .kernels()
            .flat_map(|k| self.validate_kernel(k, spec))
            .collect()
    }
}

fn compare(got: &[f64], want: &[f64], check: Check, ctx: &str) -> Option<String> {
    if !matches!(check, Check::Stat(_)) && got.len() != want.len() {
        return Some(format!(
            "{ctx}: output length {} vs {}",
            got.len(),
            want.len()
        ));
    }
    match check {
        Check::None => None,
        Check::BitExact => {
            let bad = got
                .iter()
                .zip(want)
                .enumerate()
                .find(|(_, (a, b))| a.to_bits() != b.to_bits());
            bad.map(|(i, (a, b))| format!("{ctx}: bit mismatch at {i}: {a:?} vs {b:?}"))
        }
        Check::Rel(tol) => {
            let bad = got.iter().zip(want).enumerate().find(|(_, (a, b))| {
                let scale = b.abs().max(1.0);
                let diff = (*a - *b).abs();
                // NaN must fail the check, so don't negate a `<=`.
                diff.is_nan() || diff > tol * scale
            });
            bad.map(|(i, (a, b))| {
                format!("{ctx}: |{a} - {b}| > {tol} * max(|{b}|, 1) at index {i}")
            })
        }
        Check::Stat(tol) => {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / (v.len().max(1) as f64);
            let (ma, mb) = (mean(got), mean(want));
            let scale = mb.abs().max(1.0);
            if (ma - mb).abs() <= tol * scale {
                None
            } else {
                Some(format!(
                    "{ctx}: means differ: {ma} vs {mb} (tol {tol} * {scale})"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::ToyKernel;
    use finbench_machine::SNB_EP;

    fn engine() -> Engine {
        let mut reg = Registry::new();
        reg.register(ToyKernel);
        Engine::with_planner(reg, Planner::new(SNB_EP))
    }

    #[test]
    fn generic_ladder_loop_measures_every_rung() {
        let e = engine();
        let rungs = e.run_ladder_samples(e.registry().resolve("toy").unwrap(), true, 1);
        assert_eq!(rungs.len(), 2);
        for r in &rungs {
            let rate = r.samples.best();
            assert!(rate.is_finite() && rate > 0.0, "{}: {rate}", r.label);
        }
        // Spans: one plan span + one per rung, named from the slugs. No
        // test in this binary drains the shared registry.
        let spans = telemetry::snapshot();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"plan.toy"), "{names:?}");
        assert!(names.contains(&"native.toy.basic_scalar"), "{names:?}");
        assert!(names.contains(&"native.toy.advanced_pairwise"), "{names:?}");
    }

    #[test]
    fn interleaved_trials_merge_per_rung_samples() {
        let e = engine();
        let rungs = e.run_ladder_samples(e.registry().resolve("toy").unwrap(), true, 3);
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].slug, "basic_scalar");
        assert_eq!(rungs[1].slug, "advanced_pairwise");
        for r in &rungs {
            // >= 2 timed reps per trial, 3 trials merged.
            assert!(r.samples.count() >= 6, "{}: {}", r.slug, r.samples.count());
            assert_eq!(r.samples.cycles_per_item.len(), r.samples.count());
            assert!(r.samples.median() > 0.0);
            assert!(r.samples.median_cycles_per_item() >= 0.0);
            assert!(r.items > 0);
        }
        // One rung span per rung per trial, each tagged with its trial
        // (other tests in this binary add trial-0 visits of their own).
        let spans = telemetry::snapshot();
        let visits: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "native.toy.basic_scalar")
            .flat_map(|s| s.attrs.iter().filter(|(k, _)| *k == "trial"))
            .collect();
        for t in 0..3 {
            let trial = ("trial", telemetry::AttrValue::Int(t));
            assert!(visits.contains(&&trial), "{visits:?}");
        }
    }

    #[test]
    fn validation_passes_for_equivalent_rungs() {
        let e = engine();
        let errs = e.validate_all(&WorkloadSpec::validation(7, 33));
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn compare_detects_mismatches() {
        assert!(compare(&[1.0], &[1.0, 2.0], Check::BitExact, "x").is_some());
        assert!(compare(&[1.0], &[1.0 + 1e-13], Check::BitExact, "x").is_some());
        assert!(compare(&[1.0], &[1.0], Check::BitExact, "x").is_none());
        assert!(compare(&[1.0], &[1.0 + 1e-13], Check::Rel(1e-12), "x").is_none());
        assert!(compare(&[1.0], &[1.1], Check::Rel(1e-12), "x").is_some());
        // NaN never satisfies a tolerance.
        assert!(compare(&[f64::NAN], &[1.0], Check::Rel(1e-6), "x").is_some());
        // Stat compares means, not elements (lengths may differ).
        assert!(compare(&[1.0, 3.0], &[2.0], Check::Stat(1e-9), "x").is_none());
        assert!(compare(&[1.0, 3.0], &[2.5], Check::Stat(0.01), "x").is_some());
        assert!(compare(&[], &[], Check::None, "x").is_none());
    }

    #[test]
    fn plan_by_name() {
        let e = engine();
        let plan = e.plan("toy").unwrap();
        assert_eq!(plan.kernel, "toy");
        assert!(matches!(
            e.plan("missing").unwrap_err(),
            EngineError::UnknownKernel { .. }
        ));
    }
}
