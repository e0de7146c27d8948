//! The unifying kernel abstraction: a [`Kernel`] exposes its optimization
//! ladder as data — a list of [`Rung`]s over a kernel-specific workload
//! type — plus the machine-model cost descriptors the planner consumes.
//!
//! The paper's structure is six kernels × three optimization levels
//! (Basic/Intermediate/Advanced), each compared against a roofline bound.
//! This module is that structure as a trait: one place to add a kernel,
//! and the harness, benchmarks, and machine model all pick it up.

use finbench_machine::kernels::Level as CostedLevel;
use finbench_machine::ArchSpec;

/// The paper's three optimization levels (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Compiler-only: pragmas, autovectorization.
    Basic,
    /// Code restructuring: outer-loop SIMD, vector classes, library math.
    Intermediate,
    /// Algorithmic restructuring: layout transforms, tiling, fusion.
    Advanced,
}

impl OptLevel {
    /// Lowercase name for span attributes and CLI output.
    pub fn as_str(&self) -> &'static str {
        match self {
            OptLevel::Basic => "basic",
            OptLevel::Intermediate => "intermediate",
            OptLevel::Advanced => "advanced",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a rung's output is compared against its baseline rung during the
/// engine's validation pass (the §6 equivalence strategy as data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Outputs must match bit for bit (identical arithmetic, reordered
    /// schedule — binomial tiling, bridge SIMD).
    BitExact,
    /// Relative tolerance `|a-b| <= tol * max(|b|, 1)` element-wise
    /// (legitimately reordered transcendental-heavy arithmetic).
    Rel(f64),
    /// Statistical agreement of the output means, `|mean_a - mean_b| <=
    /// tol * max(|mean_b|, 1)` — for rungs that consume a different (but
    /// equal-in-distribution) random stream.
    Stat(f64),
    /// This rung *is* a baseline (or measures a different quantity); the
    /// validation pass skips it.
    None,
}

/// Sizing knobs for workload construction, shared by every kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Shrink to CI-friendly sizes.
    pub quick: bool,
    /// Seed for the workload's random draws (same seed ⇒ bit-identical
    /// workload).
    pub seed: u64,
    /// Optional item-count override for validation/property tests; kernels
    /// clamp it to whatever their algorithms require.
    pub n_hint: Option<usize>,
}

impl WorkloadSpec {
    /// The measurement spec the harness uses.
    pub fn measure(quick: bool) -> Self {
        Self {
            quick,
            seed: 1,
            n_hint: None,
        }
    }

    /// A small randomized spec for validation sweeps.
    pub fn validation(seed: u64, n_hint: usize) -> Self {
        Self {
            quick: true,
            seed,
            n_hint: Some(n_hint),
        }
    }
}

/// One prepared, repeatable execution of a rung over a fixed workload.
///
/// [`step`](RungBody::step) runs the kernel once, in place, over the same
/// inputs (the timed repetition unit); [`output`](RungBody::output)
/// extracts the current output values for equivalence checking.
pub trait RungBody {
    /// One timed repetition.
    fn step(&mut self);
    /// The output values after at least one step.
    fn output(&self) -> Vec<f64>;
}

/// [`RungBody`] built from owned state and two closures — the common case
/// for thin adapters over existing level functions.
pub struct FnBody<S, F, O>
where
    F: FnMut(&mut S),
    O: Fn(&S) -> Vec<f64>,
{
    state: S,
    step: F,
    out: O,
}

impl<S, F, O> RungBody for FnBody<S, F, O>
where
    F: FnMut(&mut S),
    O: Fn(&S) -> Vec<f64>,
{
    fn step(&mut self) {
        (self.step)(&mut self.state)
    }
    fn output(&self) -> Vec<f64> {
        (self.out)(&self.state)
    }
}

/// Box a state + step + output triple into a [`RungBody`].
pub fn fn_body<'w, S, F, O>(state: S, step: F, out: O) -> Box<dyn RungBody + 'w>
where
    S: 'w,
    F: FnMut(&mut S) + 'w,
    O: Fn(&S) -> Vec<f64> + 'w,
{
    Box::new(FnBody { state, step, out })
}

type MakeBody<W> = Box<dyn for<'w> Fn(&'w W) -> Box<dyn RungBody + 'w> + Send + Sync>;

/// One rung of a kernel's optimization ladder: a labeled level plus the
/// factory that prepares a runnable body over a workload.
pub struct Rung<W> {
    /// Optimization level (Basic/Intermediate/Advanced).
    pub level: OptLevel,
    /// Display label — must match the paper's legend / the harness bars.
    pub label: &'static str,
    /// Equivalence check against the baseline rung.
    pub check: Check,
    /// Rung index this one validates against (usually the reference rung
    /// 0; RNG-style ladders carry several baselines).
    pub baseline: usize,
    /// Index into [`Kernel::cost`]'s ladder for the planner.
    pub cost_level: usize,
    /// True for two-pass batch staging through array temporaries
    /// (VML-style) — the planner skips these when bandwidth-bound.
    pub staging: bool,
    /// True when the rung dispatches onto a thread pool — the planner
    /// skips these on single-core hosts.
    pub threaded: bool,
    make: MakeBody<W>,
}

impl<W> Rung<W> {
    /// A rung with default metadata (validates vs rung 0 at tight relative
    /// tolerance, cost level 0, no staging/threading).
    pub fn new<F>(level: OptLevel, label: &'static str, make: F) -> Self
    where
        F: for<'w> Fn(&'w W) -> Box<dyn RungBody + 'w> + Send + Sync + 'static,
    {
        Self {
            level,
            label,
            check: Check::Rel(1e-11),
            baseline: 0,
            cost_level: 0,
            staging: false,
            threaded: false,
            make: Box::new(make),
        }
    }

    /// Set the equivalence check.
    pub fn check(mut self, check: Check) -> Self {
        self.check = check;
        self
    }

    /// Validate against rung `idx` instead of rung 0.
    pub fn baseline(mut self, idx: usize) -> Self {
        self.baseline = idx;
        self
    }

    /// Map this rung onto cost-ladder entry `idx` for the planner.
    pub fn cost_level(mut self, idx: usize) -> Self {
        self.cost_level = idx;
        self
    }

    /// Mark as a two-pass staging rung.
    pub fn staging(mut self) -> Self {
        self.staging = true;
        self
    }

    /// Mark as a thread-pool rung.
    pub fn threaded(mut self) -> Self {
        self.threaded = true;
        self
    }

    /// Prepare a runnable body over `workload`.
    pub fn body<'w>(&self, workload: &'w W) -> Box<dyn RungBody + 'w> {
        (self.make)(workload)
    }
}

impl<W> std::fmt::Debug for Rung<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rung")
            .field("level", &self.level)
            .field("label", &self.label)
            .field("check", &self.check)
            .field("baseline", &self.baseline)
            .field("cost_level", &self.cost_level)
            .finish_non_exhaustive()
    }
}

/// One kernel of the benchmark: a named paper artifact with a typed
/// workload, an optimization ladder, and machine-model cost descriptors.
pub trait Kernel: Send + Sync {
    /// The kernel-specific prepared-input type.
    type Workload: 'static;

    /// Registry name (`[a-z0-9_]+`), also the span-name segment.
    fn name(&self) -> &'static str;
    /// Paper artifact this kernel reproduces (`fig4`, `table2`, ...).
    fn artifact(&self) -> &'static str;
    /// Human title for bar-chart headings.
    fn title(&self) -> &'static str;
    /// Throughput unit (`opts/s`, `paths/s`, `nums/s`).
    fn unit(&self) -> &'static str;

    /// Build the prepared workload for `spec`.
    fn make_workload(&self, spec: &WorkloadSpec) -> Self::Workload;
    /// Items processed per rung step (denominator of the throughput).
    fn items(&self, workload: &Self::Workload) -> usize;
    /// The optimization ladder, reference rung first.
    fn ladder(&self) -> Vec<Rung<Self::Workload>>;
    /// Machine-model cost descriptors, one per modeled level, for `arch`.
    /// Rungs map onto these via [`Rung::cost_level`].
    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_level_ordering_and_names() {
        assert!(OptLevel::Basic < OptLevel::Intermediate);
        assert!(OptLevel::Intermediate < OptLevel::Advanced);
        assert_eq!(OptLevel::Advanced.to_string(), "advanced");
    }

    #[test]
    fn fn_body_steps_and_reports() {
        let mut body = fn_body(0u32, |s| *s += 1, |s| vec![*s as f64]);
        body.step();
        body.step();
        assert_eq!(body.output(), vec![2.0]);
    }

    #[test]
    fn rung_builder_sets_metadata() {
        let r: Rung<()> = Rung::new(OptLevel::Advanced, "x", |_w| {
            fn_body((), |_| {}, |_| vec![])
        })
        .check(Check::BitExact)
        .baseline(2)
        .cost_level(3)
        .staging()
        .threaded();
        assert_eq!(r.level, OptLevel::Advanced);
        assert_eq!(r.check, Check::BitExact);
        assert_eq!(r.baseline, 2);
        assert_eq!(r.cost_level, 3);
        assert!(r.staging && r.threaded);
    }
}
