//! Cost-model-driven plan selection: given a kernel's machine-model cost
//! ladder, pick the rung the model ranks fastest on a given architecture
//! (the figures report it; the serving plane reads no plan). The plan
//! depends only on the architecture and the kernel: no environment
//! variable or per-process setting changes it.
//!
//! The rules are the paper's own reasoning, mechanized:
//!
//! 1. Among the modeled cost levels, take the one with the highest
//!    roofline throughput on the planning architecture.
//! 2. Among the rungs mapped to that level, prefer the most advanced
//!    (last) one, but
//!    * skip two-pass **staging** rungs when the level is
//!      bandwidth-bound — staging through array temporaries doubles the
//!      streamed traffic exactly when bytes are the scarce resource
//!      (the paper's VML-vs-SVML discussion, §IV-A);
//!    * skip **threaded** rungs when the architecture has a single core —
//!      pool dispatch is pure overhead there.

use crate::error::EngineError;
use crate::registry::{AnyKernel, RungInfo};
use finbench_machine::ArchSpec;

/// Which roofline binds the chosen level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Instruction throughput is the limit.
    Compute,
    /// DRAM bandwidth is the limit.
    Bandwidth,
}

impl Bound {
    /// Lowercase name for span attributes.
    pub fn as_str(&self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Bandwidth => "bandwidth",
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The planner's decision for one kernel.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Kernel the plan is for.
    pub kernel: &'static str,
    /// Chosen rung index into the kernel's ladder.
    pub rung: usize,
    /// Chosen rung's label.
    pub label: &'static str,
    /// Chosen rung's slug.
    pub slug: String,
    /// Label of the winning cost level.
    pub cost_label: &'static str,
    /// Which roofline binds at that level.
    pub bound: Bound,
    /// Modeled throughput (items/s) of the winning level on the planning
    /// architecture.
    pub predicted_rate: f64,
    /// Human-readable rationale.
    pub reason: String,
}

/// Picks one rung per kernel from the machine cost model.
#[derive(Debug, Clone)]
pub struct Planner {
    arch: ArchSpec,
}

impl Planner {
    /// Plan for `arch`.
    pub fn new(arch: ArchSpec) -> Self {
        Self { arch }
    }

    /// Plan for an approximation of the build host.
    pub fn for_host() -> Self {
        Self::new(finbench_machine::arch::host_spec())
    }

    /// The architecture plans are computed against.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// Plan one kernel. Errors when the ladder or cost ladder is empty.
    pub fn plan(&self, kernel: &dyn AnyKernel) -> Result<Plan, EngineError> {
        let rungs = kernel.rungs();
        let costs = kernel.cost(&self.arch);
        if rungs.is_empty() || costs.is_empty() {
            return Err(EngineError::EmptyLadder {
                kernel: kernel.name().to_string(),
            });
        }

        // 1. Winning cost level by modeled roofline throughput.
        let (best_level, best_cost) = costs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.cost
                    .throughput(&self.arch)
                    .total_cmp(&b.cost.throughput(&self.arch))
            })
            .expect("non-empty cost ladder");
        let rate = best_cost.cost.throughput(&self.arch);
        let bound = bound_of(&best_cost.cost, &self.arch);

        // 2. Most advanced rung mapped to that level, minus excluded ones.
        let single_core = self.arch.cores() <= 1;
        let candidates: Vec<usize> = (0..rungs.len())
            .filter(|&i| rungs[i].cost_level == best_level)
            .collect();
        let mut skipped = Vec::new();
        let keep = |i: &usize, skipped: &mut Vec<String>| {
            let r: &RungInfo = &rungs[*i];
            if r.staging && bound == Bound::Bandwidth {
                skipped.push(format!("{} (two-pass staging, bandwidth-bound)", r.slug));
                return false;
            }
            if r.threaded && single_core {
                skipped.push(format!("{} (threaded, single-core host)", r.slug));
                return false;
            }
            true
        };
        let chosen = candidates
            .iter()
            .rev()
            .copied()
            .find(|i| keep(i, &mut skipped))
            // Every mapped rung excluded (or none mapped): fall back to the
            // most advanced rung of the whole ladder that survives the
            // filters, then to the reference rung.
            .or_else(|| (0..rungs.len()).rev().find(|i| keep(i, &mut Vec::new())))
            .unwrap_or(0);

        let r = &rungs[chosen];
        let mut reason = format!(
            "cost level '{}' has max modeled throughput on {} ({}-bound, {:.3e} items/s)",
            best_cost.label, self.arch.name, bound, rate
        );
        if !skipped.is_empty() {
            reason.push_str(&format!("; skipped {}", skipped.join(", ")));
        }
        Ok(Plan {
            kernel: kernel.name(),
            rung: chosen,
            label: r.label,
            slug: r.slug.clone(),
            cost_label: best_cost.label,
            bound,
            predicted_rate: rate,
            reason,
        })
    }
}

fn bound_of(cost: &finbench_machine::LevelCost, arch: &ArchSpec) -> Bound {
    if cost.is_bandwidth_bound(arch) {
        Bound::Bandwidth
    } else {
        Bound::Compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::ToyKernel;
    use finbench_machine::{KNC, SNB_EP};

    #[test]
    fn picks_fastest_cost_level_rung() {
        let planner = Planner::new(SNB_EP);
        let plan = planner.plan(&ToyKernel).unwrap();
        // Advanced level is fully vectorized, so it wins.
        assert_eq!(plan.rung, 1);
        assert_eq!(plan.label, "Advanced: pairwise");
        assert_eq!(plan.cost_label, "Advanced");
        assert!(plan.predicted_rate > 0.0);
        assert!(plan.reason.contains("max modeled throughput"));
    }

    #[test]
    fn toy_kernel_is_bandwidth_bound_on_both_archs() {
        // 2 flops / 16 bytes per item: firmly under both rooflines.
        for arch in [SNB_EP, KNC] {
            let plan = Planner::new(arch).plan(&ToyKernel).unwrap();
            assert_eq!(plan.bound, Bound::Bandwidth);
            assert_eq!(plan.bound.to_string(), "bandwidth");
        }
    }

    #[test]
    fn host_planner_produces_a_plan() {
        let planner = Planner::for_host();
        assert!(planner.arch().cores() >= 1);
        let plan = planner.plan(&ToyKernel).unwrap();
        assert!(plan.predicted_rate.is_finite() && plan.predicted_rate > 0.0);
    }
}
