//! `native_ladder`: the paper's workload. One thread, no server: every
//! registry kernel's candidate rungs are stepped over the registry's
//! cache-resident (`quick`) workload and the kernel's *delivered rate* is the
//! fastest of them. A rung's step time is the fast decile of its steps (see
//! `stats::FAST_SIDE`).
//!
//! Why not the full-size workloads: their streaming kernels run out of the
//! last-level cache and memory the host shares with its other guests, and a
//! fresh 32 MiB output buffer per rung visit is page-faulted in through the
//! hypervisor. Full-size `brownian_bridge` delivered 3.7, 4.5, 5.9 and 8.4 M
//! paths/s in back-to-back runs of the same binary (`rng` 2.6-3.4e8,
//! `portfolio` 1.1-1.4e7), which alone moves the geometric mean by a tenth; at
//! the quick sizes (at most ~4 MiB touched per step, 0.02-10 ms a step,
//! hundreds of steps per rung) the same rungs repeat within a few percent.

use crate::stats::{geomean, nearest_rank, FAST_SIDE};
use crate::trace::{now_ns, Tracer, ROOT};
use finbench_core::engine::registry;
use finbench_engine::{Check, Engine, LadderSession, Plan, RungBody, RungInfo, WorkloadSpec};
use finbench_parallel::ExecPolicy;

/// Interleaved passes over all rungs, so slow drift (frequency steps, a
/// noisy neighbour) spreads over every rung instead of biasing one, and a
/// disturbance that lasts seconds leaves every rung rounds it did not touch.
const ROUNDS: usize = 20;

/// Rungs that compute the reference answer and so may stand for the kernel:
/// rung 0, plus every non-threaded rung whose declared `check`/`baseline`
/// chain reaches rung 0 without passing a `Check::None` (a `None` marks a
/// rung that measures a different quantity, e.g. the RNG ladder's normals).
/// "The planned rung" cannot be the definition: `greeks` plans an MC
/// estimator three orders of magnitude slower than the scalar sweep.
pub fn candidates(rungs: &[RungInfo]) -> Vec<usize> {
    (0..rungs.len())
        .filter(|&i| {
            let mut cur = i;
            // A chain longer than the ladder is a cycle.
            for _ in 0..rungs.len() {
                if cur == 0 {
                    return !rungs[i].threaded;
                }
                if matches!(rungs[cur].check, Check::None) {
                    return false;
                }
                cur = rungs[cur].baseline;
            }
            false
        })
        .collect()
}

pub struct Ladder {
    engine: Engine,
    spec: WorkloadSpec,
    sessions: Vec<Box<dyn LadderSession>>,
    rungs: Vec<Vec<RungInfo>>,
    plans: Vec<Plan>,
}

/// One timed rung: its discarded warm-up step and its steps over all rounds.
struct RungTime {
    kernel: usize,
    rung: usize,
    candidate: bool,
    warm_ns: f64,
    step_ns: Vec<f64>,
}

/// Per-kernel summary of one measurement phase.
pub struct KernelRates {
    pub name: &'static str,
    pub ref_per_s: f64,
    pub best_per_s: f64,
    pub best_slug: String,
    /// Wall time of one step of the best rung (fast decile).
    pub best_step_us: f64,
    /// Rate of the planner's rung; NaN unless the phase timed it.
    pub planned_per_s: f64,
    pub predicted_per_s: f64,
}

impl Ladder {
    /// Everything up to and including the first op: registry, engine, plans,
    /// one session per kernel, one step of the first reference rung.
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let engine = Engine::new(registry());
        let spec = WorkloadSpec {
            quick: true,
            seed,
            n_hint: None,
        };
        let (mut sessions, mut rungs, mut plans) = (Vec::new(), Vec::new(), Vec::new());
        for (k, kernel) in engine.registry().kernels().enumerate() {
            let span = tracer.begin("native.session", ROOT, k as u64);
            sessions.push(kernel.session(&spec));
            rungs.push(kernel.rungs());
            plans.push(engine.plan(kernel.name()).expect("registry kernels plan"));
            tracer.end(span);
        }
        sessions[0].body(0, ExecPolicy::OwnPool(0)).step();
        Self {
            engine,
            spec,
            sessions,
            rungs,
            plans,
        }
    }

    fn body(&self, r: &RungTime) -> Box<dyn RungBody + '_> {
        self.sessions[r.kernel].body(r.rung, ExecPolicy::OwnPool(0))
    }

    /// Step the candidate rungs (and, when traced, each kernel's planned
    /// rung) for about `seconds` in total, after one discarded step each.
    pub fn measure(&self, seconds: f64, tracer: &mut Tracer) -> Vec<KernelRates> {
        let mut timed: Vec<RungTime> = Vec::new();
        for (k, rungs) in self.rungs.iter().enumerate() {
            let cands = candidates(rungs);
            let planned =
                (tracer.on() && !cands.contains(&self.plans[k].rung)).then_some(self.plans[k].rung);
            timed.extend(cands.iter().copied().chain(planned).map(|rung| RungTime {
                kernel: k,
                rung,
                candidate: cands.contains(&rung),
                warm_ns: 0.0,
                step_ns: Vec::new(),
            }));
        }

        // Warm-up: one discarded step per rung, which also sizes the budget.
        for r in &mut timed {
            let mut body = self.body(r);
            let t0 = now_ns();
            body.step();
            r.warm_ns = (now_ns() - t0) as f64;
        }
        // A rung ten times slower than its kernel's fastest cannot be the
        // delivered one; stepping it further would starve the contenders.
        let fastest: Vec<f64> = (0..self.rungs.len())
            .map(|k| {
                let of_kernel = timed.iter().filter(|r| r.kernel == k);
                of_kernel.map(|r| r.warm_ns).fold(f64::INFINITY, f64::min)
            })
            .collect();
        timed.retain(|r| {
            let planned = tracer.on() && r.rung == self.plans[r.kernel].rung;
            r.rung == 0 || planned || r.warm_ns <= 10.0 * fastest[r.kernel]
        });
        let warm: Vec<f64> = timed.iter().map(|r| r.warm_ns).collect();
        let budget_ns = per_visit_budget(&warm, seconds * 1e9 / ROUNDS as f64);

        for _ in 0..ROUNDS {
            for r in &mut timed {
                let id = (r.kernel * 100 + r.rung) as u64;
                let visit = tracer.begin("native.body", ROOT, id);
                let mut body = self.body(r);
                let start = now_ns();
                loop {
                    let t0 = now_ns();
                    body.step();
                    let t1 = now_ns();
                    r.step_ns.push((t1 - t0) as f64);
                    let step = tracer.begin_at("native.step", visit, id, t0);
                    tracer.end_at(step, t1);
                    if (t1 - start) as f64 >= budget_ns {
                        break;
                    }
                }
                tracer.end(visit);
            }
        }
        self.summarize(&mut timed)
    }

    fn summarize(&self, timed: &mut [RungTime]) -> Vec<KernelRates> {
        let names = self.engine.registry().names();
        let mut rates: Vec<KernelRates> = names
            .iter()
            .zip(&self.plans)
            .map(|(&name, plan)| KernelRates {
                name,
                ref_per_s: f64::NAN,
                best_per_s: 0.0,
                best_slug: String::new(),
                best_step_us: f64::NAN,
                planned_per_s: f64::NAN,
                predicted_per_s: plan.predicted_rate,
            })
            .collect();
        for r in timed {
            let out = &mut rates[r.kernel];
            let step_ns = nearest_rank(&mut r.step_ns, FAST_SIDE);
            let rate = self.sessions[r.kernel].items() as f64 / (step_ns * 1e-9);
            if r.rung == 0 {
                out.ref_per_s = rate;
            }
            if r.rung == self.plans[r.kernel].rung {
                out.planned_per_s = rate;
            }
            if r.candidate && rate > out.best_per_s {
                out.best_per_s = rate;
                out.best_slug = self.rungs[r.kernel][r.rung].slug.clone();
                out.best_step_us = step_ns * 1e-3;
            }
        }
        rates
    }

    /// The output oracle: every rung of every kernel against its declared
    /// baseline, on the workload that was timed. Returns (rungs checked,
    /// mismatch messages).
    pub fn validate(&self) -> (u64, Vec<String>) {
        let checked = self
            .rungs
            .iter()
            .flatten()
            .filter(|r| !matches!(r.check, Check::None))
            .count() as u64;
        let errors = self
            .engine
            .registry()
            .kernels()
            .flat_map(|k| self.engine.validate_kernel(k, &self.spec))
            .collect();
        (checked, errors)
    }
}

/// End-to-end throughput of a phase: geometric mean of the delivered rates.
pub fn throughput(rates: &[KernelRates]) -> f64 {
    geomean(&rates.iter().map(|r| r.best_per_s).collect::<Vec<_>>())
}

/// End-to-end op time of a phase: geometric mean, over kernels, of the wall
/// time of one step of the delivered rung.
pub fn op_us(rates: &[KernelRates]) -> f64 {
    geomean(&rates.iter().map(|r| r.best_step_us).collect::<Vec<_>>())
}

/// The time `b` each rung visit may run so that `sum(max(b, step_i))` fills
/// `round_ns`: rungs whose single step already exceeds `b` run once and the
/// rest share what is left.
fn per_visit_budget(step_ns: &[f64], round_ns: f64) -> f64 {
    let mut b = round_ns / step_ns.len() as f64;
    for _ in 0..step_ns.len() {
        let long: f64 = step_ns.iter().filter(|&&t| t > b).sum();
        let short = step_ns.iter().filter(|&&t| t <= b).count();
        if short == 0 {
            return 0.0;
        }
        let next = ((round_ns - long) / short as f64).max(0.0);
        if (next - b).abs() < 1.0 {
            break;
        }
        b = next;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_engine::OptLevel;

    fn rung(check: Check, baseline: usize, threaded: bool) -> RungInfo {
        RungInfo {
            level: OptLevel::Basic,
            label: "toy",
            slug: "toy".into(),
            check,
            baseline,
            cost_level: 0,
            staging: false,
            threaded,
        }
    }

    #[test]
    fn candidate_rule_on_a_toy_ladder() {
        let ladder = [
            rung(Check::None, 0, false),      // 0: the reference itself
            rung(Check::BitExact, 0, false),  // 1: checked against 0
            rung(Check::None, 0, false),      // 2: a second baseline
            rung(Check::Stat(0.1), 2, false), // 3: chain passes the None at 2
            rung(Check::Rel(1e-9), 1, false), // 4: 4 -> 1 -> 0
            rung(Check::Rel(1e-9), 0, true),  // 5: threaded
            rung(Check::BitExact, 6, false),  // 6: its own baseline, never reaches 0
        ];
        assert_eq!(candidates(&ladder), vec![0, 1, 4]);
        assert!(candidates(&[]).is_empty());
    }

    #[test]
    fn candidate_rule_on_the_shipped_registry() {
        let reg = registry();
        let count = |name: &str| candidates(&reg.get(name).unwrap().rungs()).len();
        // The RNG ladder's normal rungs hang off a `None` baseline.
        assert_eq!(count("rng"), 2);
        // Threaded top rungs are excluded.
        assert_eq!(
            count("black_scholes"),
            reg.get("black_scholes").unwrap().rungs().len() - 1
        );
        assert_eq!(count("portfolio"), 3);
        for k in reg.kernels() {
            assert!(candidates(&k.rungs()).contains(&0), "{}", k.name());
        }
    }

    #[test]
    fn budget_fills_the_round_around_long_steps() {
        // Two rungs take 4 units per step whatever the budget; the other
        // two share the remaining 12 - 8 = 4.
        let b = per_visit_budget(&[4.0, 4.0, 0.1, 0.1], 12.0);
        assert!((b - 2.0).abs() < 1e-9, "{b}");
        // All short: an even split.
        assert!((per_visit_budget(&[1.0, 1.0], 10.0) - 5.0).abs() < 1e-9);
        // All longer than the round: one step each.
        assert_eq!(per_visit_budget(&[9.0, 9.0], 10.0), 0.0);
    }
}
