//! `finbench gate`: the one place that decides what passes.
//!
//! An experiment measures and prints; what its numbers must satisfy is a
//! [`Verdict`] built here from a named observation and a [`Bound`]. The
//! gated experiments return theirs, `bench-report`'s are derived from the
//! snapshot it just wrote, and [`main`] prints one JSON line per verdict
//! and exits by them — nothing reads a rule back out of prose. A rule that
//! does not apply on this host is still a verdict, `skipped` with the reason.

use crate::report::{self, BenchDoc, BenchReportOptions, DEFAULT_THRESHOLD_PCT};
use crate::{experiments, RunOptions};
use finbench_telemetry::json::Json;
use std::collections::BTreeSet;
use std::error::Error;
use std::path::Path;
use Bound::{AtLeast, AtMost, Exactly};

/// What an observation is held to. `NaN` (nothing was observed) meets none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `observed <= bound`
    AtMost(f64),
    /// `observed >= bound`
    AtLeast(f64),
    /// `observed == bound`
    Exactly(f64),
}

/// One rule applied to one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Dotted rule name, e.g. `chaos.shard_kill.availability_pct`.
    pub gate: String,
    /// The measured value.
    pub observed: f64,
    /// What it is held to.
    pub bound: Bound,
    /// `observed` meets `bound`, or the rule was skipped.
    pub pass: bool,
    /// Reported, never fatal.
    pub advisory: bool,
    /// Why the rule was not applied on this host or tree.
    pub skipped: Option<String>,
}

impl Verdict {
    fn new(gate: impl Into<String>, observed: f64, bound: Bound) -> Self {
        let pass = match bound {
            AtMost(b) => observed <= b,
            AtLeast(b) => observed >= b,
            Exactly(b) => observed == b,
        };
        Self {
            gate: gate.into(),
            observed,
            bound,
            pass,
            advisory: false,
            skipped: None,
        }
    }

    fn at_least(gate: impl Into<String>, observed: f64, floor: f64) -> Self {
        Self::new(gate, observed, AtLeast(floor))
    }

    fn exactly(gate: impl Into<String>, observed: f64, value: f64) -> Self {
        Self::new(gate, observed, Exactly(value))
    }

    fn at_most(gate: impl Into<String>, observed: f64, ceiling: f64) -> Self {
        Self::new(gate, observed, AtMost(ceiling))
    }

    fn skipped(mut self, reason: String) -> Self {
        (self.pass, self.skipped) = (true, Some(reason));
        self
    }

    /// The verdict as one JSON object on one line.
    pub fn to_json_line(&self) -> String {
        let skipped = self.skipped.clone().map_or(Json::Null, Json::Str);
        Json::Obj(vec![
            ("gate".into(), Json::Str(self.gate.clone())),
            ("observed".into(), Json::Num(self.observed)),
            ("bound".into(), Json::Str(format!("{:?}", self.bound))),
            ("pass".into(), Json::Bool(self.pass)),
            ("advisory".into(), Json::Bool(self.advisory)),
            ("skipped".into(), skipped),
        ])
        .to_json()
    }
}

/// 1 when any verdict that is not advisory failed, else 0.
pub fn exit_code(verdicts: &[Verdict]) -> i32 {
    i32::from(verdicts.iter().any(|v| !v.pass && !v.advisory))
}

/// `serve_bench`: queues cover the offered load, so nothing may be shed;
/// two shards must out-serve one by 1.3x closed-loop. The sweep runs 8
/// client threads against CPU-bound, work-conserving workers, so a second
/// shard only helps with a core of its own beside the clients (0.7x on 2
/// cores): the ratio is held on hosts with at least 4.
pub fn serve(shed: usize, scaling_1_to_2: Option<f64>, cores: usize) -> Vec<Verdict> {
    let ratio = scaling_1_to_2.unwrap_or(f64::NAN);
    let mut scaling = Verdict::at_least("serve.shard_scaling_1_to_2", ratio, 1.3);
    if cores < 4 {
        scaling = scaling.skipped(format!("{cores}-core host; the ratio needs >= 4 cores"));
    }
    vec![Verdict::exactly("serve.shed", shed as f64, 0.0), scaling]
}

/// `chaos_bench`: faults shed or degrade, never corrupt; the panic plans
/// must reach the degradation ladder; killing one of two shards leaves
/// `kill = (shards alive, availability %)` at one survivor above the SLO
/// floor; every rolling kill is respawned and the healed fleet's
/// fault-free drive, `rolling = (respawns, availability %)`, is served.
pub fn chaos(
    corrupted: usize,
    degraded: u64,
    kill: (usize, f64),
    rolling: (u64, f64),
) -> Vec<Verdict> {
    vec![
        Verdict::exactly("chaos.corrupted_prices", corrupted as f64, 0.0),
        Verdict::at_least("chaos.degraded_batches", degraded as f64, 1.0),
        Verdict::exactly("chaos.shard_kill.survivors", kill.0 as f64, 1.0),
        Verdict::at_least("chaos.shard_kill.availability_pct", kill.1, 90.0),
        Verdict::at_least("chaos.rolling_kill.respawns", rolling.0 as f64, 1.0),
        Verdict::at_least("chaos.rolling_kill.availability_pct", rolling.1, 99.0),
    ]
}

/// `greeks_bench`: default bumps reproduce the analytic greeks to 1e-5
/// (worst relative error), every served response replays bit for bit, and
/// the covered lane sheds nothing.
pub fn greeks(worst_bump_err: f64, replay_mismatches: usize, shed: usize) -> Vec<Verdict> {
    vec![
        Verdict::at_most("greeks.bump_agreement", worst_bump_err, 1e-5),
        Verdict::exactly("greeks.replay_mismatches", replay_mismatches as f64, 0.0),
        Verdict::exactly("greeks.shed", shed as f64, 0.0),
    ]
}

/// `portfolio_bench`: the served fan-out merges bit-identically to the
/// native sweep (`None`: the request was rejected), and the finest grid's
/// VaR sits within twice its own CI half-width of the reference grid's.
pub fn portfolio(replay_mismatches: Option<usize>, var_gap_in_half_widths: f64) -> Vec<Verdict> {
    let mismatches = replay_mismatches.map_or(f64::NAN, |n| n as f64);
    vec![
        Verdict::exactly("portfolio.replay_mismatches", mismatches, 0.0),
        Verdict::at_most("portfolio.var_check", var_gap_in_half_widths, 2.0),
    ]
}

/// What a snapshot says on its own, named after its metric paths: each
/// SIMD-labelled rung is 1.5x its scalar sibling, advisory.
pub fn snapshot(doc: &BenchDoc) -> Vec<Verdict> {
    let simd = doc.metrics.iter().filter(|m| m.path.starts_with("simd."));
    let judge = |m: &report::Metric| Verdict {
        advisory: true,
        ..Verdict::at_least(format!("bench.{}", m.path), m.value, 1.5)
    };
    simd.map(judge).collect()
}

/// The fresh snapshot at `fresh` against the latest committed
/// `BENCH_<n>.json` in the working directory. Shared boxes have bursty
/// noise windows that depress whole groups of kernels at once; a real
/// regression reproduces *on the same metric*, noise lands somewhere else
/// each time. So a flagged first compare is measured once more, and only
/// metrics flagged both times count.
fn trajectory(opts: &BenchReportOptions, fresh: &Path) -> Result<Verdict, Box<dyn Error>> {
    let verdict = |n: usize| Verdict::exactly("bench.trajectory", n as f64, 0.0);
    let Some((_, latest)) = report::bench_snapshots(Path::new(".")).pop() else {
        return Ok(verdict(0).skipped("no committed BENCH_<n>.json".into()));
    };
    if report::load_bench(&latest)?.quick != opts.quick {
        let why = format!("{} was taken in the other mode", latest.display());
        return Ok(verdict(0).skipped(why));
    }
    let regressed = || -> Result<BTreeSet<String>, Box<dyn Error>> {
        println!("  bench-compare {} vs fresh snapshot", latest.display());
        let rep = report::bench_compare(&latest, fresh, DEFAULT_THRESHOLD_PCT)?;
        print!("{}", rep.render());
        let flagged = rep.deltas.into_iter().filter(|d| d.regressed);
        Ok(flagged.map(|d| d.path).collect())
    };
    let mut persistent = regressed()?;
    if !persistent.is_empty() {
        println!("  gated regression on first measurement; re-measuring once");
        report::bench_report(opts)?;
        let again = regressed()?;
        persistent.retain(|path| again.contains(path));
        println!("  flagged in both measurements: {persistent:?}");
    }
    Ok(verdict(persistent.len()))
}

/// Run the four gated experiments, then `bench-report` into a scratch
/// file, in this process, and collect every verdict.
pub fn run(quick: bool) -> Result<Vec<Verdict>, Box<dyn Error>> {
    let opts = RunOptions {
        quick,
        ..RunOptions::default()
    };
    let mut verdicts = experiments::serve_bench(&opts);
    verdicts.extend(experiments::chaos_bench(&opts));
    verdicts.extend(experiments::greeks_bench(&opts));
    verdicts.extend(experiments::portfolio_bench(&opts));

    let fresh = std::env::temp_dir().join(format!("finbench_gate_{}.json", std::process::id()));
    let out = Some(fresh.display().to_string());
    let opts = BenchReportOptions { quick, out };
    let bench = (|| {
        report::bench_report(&opts)?;
        verdicts.extend(snapshot(&report::load_bench(&fresh)?));
        trajectory(&opts, &fresh)
    })();
    let _ = std::fs::remove_file(&fresh);
    verdicts.push(bench?);
    Ok(verdicts)
}

/// `finbench gate [--quick]`: one JSON line per verdict after the
/// experiments' own output; exit 1 on a failed verdict that is not
/// advisory, 2 when a snapshot could not be written or read.
pub fn main(quick: bool) -> i32 {
    match run(quick) {
        Ok(verdicts) => {
            for v in &verdicts {
                println!("{}", v.to_json_line());
            }
            exit_code(&verdicts)
        }
        Err(e) => {
            eprintln!("error: gate: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finbench_telemetry::json;

    fn failed(verdicts: &[Verdict]) -> Vec<&str> {
        let failed = verdicts.iter().filter(|v| !v.pass);
        failed.map(|v| v.gate.as_str()).collect()
    }

    #[test]
    fn a_verdict_line_round_trips_through_the_json_parser() {
        let line = serve(0, Some(0.7), 2)[1].to_json_line();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.to_json(), line);
        let text = |key: &str| doc.get(key).and_then(Json::as_str);
        assert_eq!(text("gate"), Some("serve.shard_scaling_1_to_2"));
        assert_eq!(doc.get("observed").and_then(Json::as_f64), Some(0.7));
        assert_eq!(text("bound"), Some("AtLeast(1.3)"));
        assert_eq!(doc.get("pass"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("advisory"), Some(&Json::Bool(false)));
        assert!(text("skipped").unwrap().contains("2-core"), "{line}");
        // Nothing observed and nothing skipped: both are `null`.
        let line = portfolio(None, 0.0)[0].to_json_line();
        assert!(line.contains(r#""observed":null"#) && line.contains(r#""skipped":null"#));
    }

    #[test]
    fn every_bound_passes_on_it_and_fails_just_outside() {
        assert!(failed(&serve(0, Some(1.3), 4)).is_empty());
        assert_eq!(failed(&serve(1, Some(1.29), 4)).len(), 2);
        // Below four cores the ratio is reported, not held; a sweep that
        // produced no ratio still fails where the rule applies.
        assert!(failed(&serve(0, Some(0.7), 3)).is_empty());
        assert_eq!(failed(&serve(0, None, 4)), ["serve.shard_scaling_1_to_2"]);
        assert!(failed(&chaos(0, 1, (1, 90.0), (1, 99.0))).is_empty());
        assert_eq!(failed(&chaos(1, 0, (2, 89.9), (0, 98.9))).len(), 6);
        assert!(failed(&greeks(1e-5, 0, 0)).is_empty());
        assert_eq!(failed(&greeks(1.1e-5, 1, 1)).len(), 3);
        assert!(failed(&portfolio(Some(0), 2.0)).is_empty());
        assert_eq!(failed(&portfolio(Some(1), 2.1)).len(), 2);
    }

    #[test]
    fn only_a_hard_failure_changes_the_exit_code() {
        // A schema-1 snapshot as committed up to BENCH_43: its allocating
        // pooled lane yields no verdict.
        let text = r#"{"schema_version": 1, "quick": true, "serve": [], "kernels": [
                {"name": "binomial", "rungs": [],
                 "simd_vs_scalar": [{"slug": "simd_w_8", "active": 1.0}]}],
            "allocs": [{"lane": "black_scholes_pooled", "allocs_per_iter": 4}]}"#;
        let doc = report::flatten(&json::parse(text).unwrap(), "synthetic").unwrap();
        let advisory = snapshot(&doc);
        assert_eq!(failed(&advisory), ["bench.simd.binomial.simd_w_8.active"]);
        assert!(advisory[0].advisory && advisory.len() == 1, "{advisory:?}");
        assert_eq!(exit_code(&advisory), 0);
        let mut hard = advisory;
        hard.extend(greeks(1e-5, 0, 1));
        assert_eq!(failed(&hard).len(), 2, "{hard:?}");
        assert_eq!(exit_code(&hard), 1);
    }
}
