//! Type-erased kernel registry: heterogeneous [`Kernel`]s (each with its
//! own workload type) behind one object-safe surface the engine, harness,
//! and CLI can iterate.

use crate::error::EngineError;
use crate::kernel::{Check, Kernel, OptLevel, Rung, RungBody, WorkloadSpec};
use crate::slug::slug;
use finbench_machine::kernels::Level as CostedLevel;
use finbench_machine::ArchSpec;

/// Metadata of one ladder rung, with the workload type erased.
#[derive(Debug, Clone)]
pub struct RungInfo {
    /// Optimization level.
    pub level: OptLevel,
    /// Display label.
    pub label: &'static str,
    /// Span-name segment derived from the label.
    pub slug: String,
    /// Equivalence check against `baseline`.
    pub check: Check,
    /// Rung index this one validates against.
    pub baseline: usize,
    /// Index into the kernel's cost ladder.
    pub cost_level: usize,
    /// Two-pass staging rung (planner skips when bandwidth-bound).
    pub staging: bool,
    /// Thread-pool rung (planner skips on single-core hosts).
    pub threaded: bool,
}

/// A prepared workload plus the ladder over it; bodies borrow the session.
pub trait LadderSession {
    /// Items processed per rung step.
    fn items(&self) -> usize;
    /// Prepare a runnable body for rung `idx`.
    ///
    /// # Panics
    /// If `idx` is out of range.
    fn prepare(&self, idx: usize) -> Box<dyn RungBody + '_>;

    /// [`prepare`](Self::prepare) under its old name. The policy is
    /// ignored — a rung's threading is a property of the rung — and the
    /// argument is kept only because `benchmark/` calls this form and may
    /// not change with the engine.
    fn body(&self, idx: usize, _policy: finbench_parallel::ExecPolicy) -> Box<dyn RungBody + '_> {
        self.prepare(idx)
    }
}

struct SessionImpl<K: Kernel> {
    items: usize,
    workload: K::Workload,
    rungs: Vec<Rung<K::Workload>>,
}

impl<K: Kernel> LadderSession for SessionImpl<K> {
    fn items(&self) -> usize {
        self.items
    }
    fn prepare(&self, idx: usize) -> Box<dyn RungBody + '_> {
        self.rungs[idx].body(&self.workload)
    }
}

/// Object-safe view of a [`Kernel`]; implemented for every `Kernel` via a
/// blanket impl, so registering a kernel is just `registry.register(k)`.
pub trait AnyKernel: Send + Sync {
    /// Registry name (span-name segment).
    fn name(&self) -> &'static str;
    /// Paper artifact id (`fig4`, `table2`, ...).
    fn artifact(&self) -> &'static str;
    /// Human title for bar-chart headings.
    fn title(&self) -> &'static str;
    /// Throughput unit.
    fn unit(&self) -> &'static str;
    /// Erased rung metadata, ladder order.
    fn rungs(&self) -> Vec<RungInfo>;
    /// Machine-model cost ladder on `arch`.
    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel>;
    /// Build a workload and bind the ladder to it.
    fn session(&self, spec: &WorkloadSpec) -> Box<dyn LadderSession>;
}

impl<K: Kernel + 'static> AnyKernel for K {
    fn name(&self) -> &'static str {
        Kernel::name(self)
    }
    fn artifact(&self) -> &'static str {
        Kernel::artifact(self)
    }
    fn title(&self) -> &'static str {
        Kernel::title(self)
    }
    fn unit(&self) -> &'static str {
        Kernel::unit(self)
    }
    fn rungs(&self) -> Vec<RungInfo> {
        self.ladder()
            .iter()
            .map(|r| RungInfo {
                level: r.level,
                label: r.label,
                slug: slug(r.label),
                check: r.check,
                baseline: r.baseline,
                cost_level: r.cost_level,
                staging: r.staging,
                threaded: r.threaded,
            })
            .collect()
    }
    fn cost(&self, arch: &ArchSpec) -> Vec<CostedLevel> {
        Kernel::cost(self, arch)
    }
    fn session(&self, spec: &WorkloadSpec) -> Box<dyn LadderSession> {
        let workload = self.make_workload(spec);
        Box::new(SessionImpl::<K> {
            items: self.items(&workload),
            workload,
            rungs: self.ladder(),
        })
    }
}

/// Ordered collection of registered kernels — the single source of truth
/// the harness ladder loop, the experiment index, and the planner share.
#[derive(Default)]
pub struct Registry {
    kernels: Vec<Box<dyn AnyKernel>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a kernel at the end of the iteration order.
    ///
    /// # Panics
    /// If a kernel with the same name is already registered.
    pub fn register<K: Kernel + 'static>(&mut self, kernel: K) {
        assert!(
            self.get(Kernel::name(&kernel)).is_none(),
            "duplicate kernel name: {}",
            Kernel::name(&kernel)
        );
        self.kernels.push(Box::new(kernel));
    }

    /// Registered kernels in registration order.
    pub fn kernels(&self) -> impl Iterator<Item = &dyn AnyKernel> {
        self.kernels.iter().map(|k| k.as_ref())
    }

    /// Look up a kernel by name.
    pub fn get(&self, name: &str) -> Option<&dyn AnyKernel> {
        self.kernels
            .iter()
            .find(|k| k.name() == name)
            .map(|k| k.as_ref())
    }

    /// Look up a kernel by name, with a typed error naming the valid
    /// choices — the single validation path the CLI's `--only` flag and
    /// the serving plane's request admission both go through.
    pub fn resolve(&self, name: &str) -> Result<&dyn AnyKernel, EngineError> {
        self.get(name).ok_or_else(|| EngineError::UnknownKernel {
            name: name.to_string(),
            known: self.names(),
        })
    }

    /// Parse a comma-separated kernel-name list: names are trimmed,
    /// validated against the registry, and deduplicated preserving
    /// first-mention order. Empty entries (including a fully empty
    /// operand) are errors.
    pub fn parse_kernel_list(&self, operand: &str) -> Result<Vec<String>, EngineError> {
        let mut out: Vec<String> = Vec::new();
        for name in operand.split(',') {
            let name = name.trim();
            if name.is_empty() {
                return Err(EngineError::EmptyKernelList);
            }
            self.resolve(name)?;
            if !out.iter().any(|n| n == name) {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }

    /// Registered names, registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kernels.iter().map(|k| k.name()).collect()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no kernel is registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Check every kernel's wiring: rung labels unique per ladder, baseline
    /// and cost-level indices in range, non-empty ladders and cost ladders.
    /// Returns all violations (empty = consistent).
    pub fn consistency_errors(&self, arch: &ArchSpec) -> Vec<String> {
        let mut errs = Vec::new();
        for k in self.kernels() {
            let rungs = k.rungs();
            let costs = k.cost(arch);
            if rungs.is_empty() {
                errs.push(format!("{}: empty ladder", k.name()));
            }
            if costs.is_empty() {
                errs.push(format!("{}: empty cost ladder", k.name()));
            }
            let mut slugs = std::collections::HashSet::new();
            for (i, r) in rungs.iter().enumerate() {
                if r.slug.is_empty() {
                    errs.push(format!("{}: rung {i} label slugs to empty", k.name()));
                }
                if !slugs.insert(r.slug.clone()) {
                    errs.push(format!("{}: duplicate rung slug {}", k.name(), r.slug));
                }
                if r.baseline >= rungs.len() {
                    errs.push(format!(
                        "{}: rung {i} baseline {} out of range",
                        k.name(),
                        r.baseline
                    ));
                }
                if r.cost_level >= costs.len() {
                    errs.push(format!(
                        "{}: rung {i} cost_level {} out of range ({} cost levels)",
                        k.name(),
                        r.cost_level,
                        costs.len()
                    ));
                }
                if r.baseline == i && !matches!(r.check, Check::None) {
                    errs.push(format!(
                        "{}: rung {i} is its own baseline but has a check",
                        k.name()
                    ));
                }
            }
        }
        errs
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernel::fn_body;
    use finbench_machine::cost::LevelCost;
    use finbench_machine::SNB_EP;

    /// A tiny synthetic kernel used across the engine's own tests: the
    /// "workload" is a vector of values, the reference rung doubles them
    /// one by one, the "optimized" rung doubles them two at a time.
    pub struct ToyKernel;

    impl Kernel for ToyKernel {
        type Workload = Vec<f64>;

        fn name(&self) -> &'static str {
            "toy"
        }
        fn artifact(&self) -> &'static str {
            "figX"
        }
        fn title(&self) -> &'static str {
            "Toy (items/s)"
        }
        fn unit(&self) -> &'static str {
            "items/s"
        }
        fn make_workload(&self, spec: &WorkloadSpec) -> Vec<f64> {
            let n = spec.n_hint.unwrap_or(if spec.quick { 64 } else { 1024 });
            (0..n)
                .map(|i| (i as f64) + (spec.seed as f64) * 0.5)
                .collect()
        }
        fn items(&self, w: &Vec<f64>) -> usize {
            w.len()
        }
        fn ladder(&self) -> Vec<Rung<Vec<f64>>> {
            vec![
                Rung::new(OptLevel::Basic, "Basic: scalar", |w: &Vec<f64>| {
                    fn_body(
                        (w, vec![0.0; w.len()]),
                        |(w, out)| {
                            for (o, x) in out.iter_mut().zip(w.iter()) {
                                *o = 2.0 * x;
                            }
                        },
                        |(_, out)| out.clone(),
                    )
                })
                .check(Check::None),
                Rung::new(OptLevel::Advanced, "Advanced: pairwise", |w: &Vec<f64>| {
                    fn_body(
                        (w, vec![0.0; w.len()]),
                        |(w, out)| {
                            for i in (0..w.len()).step_by(2) {
                                for j in i..(i + 2).min(w.len()) {
                                    out[j] = w[j] + w[j];
                                }
                            }
                        },
                        |(_, out)| out.clone(),
                    )
                })
                .check(Check::BitExact)
                .cost_level(1),
            ]
        }
        fn cost(&self, _arch: &ArchSpec) -> Vec<CostedLevel> {
            vec![
                CostedLevel {
                    label: "Basic",
                    cost: LevelCost {
                        width_frac: 0.25,
                        ..LevelCost::flops_only(2.0, 16.0)
                    },
                },
                CostedLevel {
                    label: "Advanced",
                    cost: LevelCost::flops_only(2.0, 16.0),
                },
            ]
        }
    }

    #[test]
    fn registry_registers_and_finds() {
        let mut reg = Registry::new();
        reg.register(ToyKernel);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert_eq!(reg.names(), ["toy"]);
        assert!(reg.get("toy").is_some());
        assert!(reg.get("nope").is_none());
        assert!(reg.consistency_errors(&SNB_EP).is_empty());
    }

    #[test]
    fn resolve_returns_typed_unknown_kernel() {
        let mut reg = Registry::new();
        reg.register(ToyKernel);
        assert!(reg.resolve("toy").is_ok());
        let err = reg.resolve("nope").err().expect("unknown name must fail");
        assert!(
            matches!(err, EngineError::UnknownKernel { ref name, ref known }
                if name == "nope" && known == &["toy"]),
            "{err:?}"
        );
    }

    #[test]
    fn parse_kernel_list_validates_trims_and_dedupes() {
        let mut reg = Registry::new();
        reg.register(ToyKernel);
        assert_eq!(reg.parse_kernel_list("toy").unwrap(), ["toy"]);
        assert_eq!(reg.parse_kernel_list(" toy , toy ").unwrap(), ["toy"]);
        assert_eq!(
            reg.parse_kernel_list("").unwrap_err(),
            EngineError::EmptyKernelList
        );
        assert_eq!(
            reg.parse_kernel_list("toy,,toy").unwrap_err(),
            EngineError::EmptyKernelList
        );
        assert!(matches!(
            reg.parse_kernel_list("toy,nope").unwrap_err(),
            EngineError::UnknownKernel { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate kernel name")]
    fn registry_rejects_duplicates() {
        let mut reg = Registry::new();
        reg.register(ToyKernel);
        reg.register(ToyKernel);
    }

    #[test]
    fn erased_rungs_carry_slugs() {
        let k = ToyKernel;
        let rungs = AnyKernel::rungs(&k);
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].slug, "basic_scalar");
        assert_eq!(rungs[1].slug, "advanced_pairwise");
        assert_eq!(rungs[1].cost_level, 1);
    }

    #[test]
    fn session_runs_bodies() {
        let k = ToyKernel;
        let session = AnyKernel::session(&k, &WorkloadSpec::validation(3, 10));
        assert_eq!(session.items(), 10);
        let mut a = session.prepare(0);
        let mut b = session.prepare(1);
        a.step();
        b.step();
        assert_eq!(a.output(), b.output());
    }
}
