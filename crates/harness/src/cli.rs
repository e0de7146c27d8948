//! Argument parsing for the `finbench` binary, split out of `main` so the
//! flag grammar is unit-testable.
//!
//! The grammar is subcommand-first:
//!
//! ```text
//! finbench run [EXPERIMENT ...] [FLAGS]   # run experiments
//! finbench list                           # print experiment ids
//! ```

use crate::report::{BenchReportOptions, CompareMode};
use crate::{RunOptions, EXPERIMENTS};

/// A fully parsed command line: which experiments to run and with what
/// options.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArgs {
    /// Experiment ids, deduplicated, in first-mention order.
    pub ids: Vec<String>,
    /// Run options threaded through every experiment.
    pub opts: RunOptions,
}

/// What the binary should do, as decided by the arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum CliAction {
    /// Run the given experiments.
    Run(ParsedArgs),
    /// Print the experiment ids and exit.
    List,
    /// Print usage and exit.
    Help,
    /// Run the full bench sweep and write a `BENCH_<n>.json` snapshot.
    BenchReport(BenchReportOptions),
    /// Compare two snapshots (or self-test the gate on one).
    BenchCompare(CompareMode),
    /// Render the gated-metric trajectory across every committed
    /// `BENCH_<n>.json` in a directory.
    BenchTrend {
        /// Directory holding the `BENCH_<n>.json` snapshots.
        dir: String,
    },
    /// Run everything gated in one process and exit by the verdicts
    /// ([`crate::gate`]); `quick` shrinks the workloads.
    Gate { quick: bool },
}

/// Multi-line usage string (the error path points people here).
pub fn usage_line() -> String {
    format!(
        "usage: finbench <COMMAND> [FLAGS]\n\
         \x20 finbench run [EXPERIMENT ...]  run experiments (`all` = every one)\n\
         \x20 finbench list                  print experiment ids\n\
         \x20 finbench bench-report [--quick] [--out FILE]\n\
         \x20     run every kernel ladder (active and portable tier), write BENCH_<n>.json\n\
         \x20 finbench bench-compare OLD.json NEW.json\n\
         \x20 finbench bench-compare --self-test SNAP.json\n\
         \x20     delta table between two snapshots; exit 1 on gated regressions\n\
         \x20 finbench bench-trend [DIR]\n\
         \x20     gated-metric trajectory across every BENCH_<n>.json in DIR (default .)\n\
         \x20 finbench gate [--quick]\n\
         \x20     the four *_bench experiments + bench-report in one process: one JSON verdict\n\
         \x20     per line, exit 1 on a failed one that is not advisory\n\
         flags: [--quick] [--only KERNEL[,KERNEL...]] [--shards N] [--csv DIR] [--json FILE] [--report]\n\
         experiments: {} | all\n\
         kernels: {}",
        EXPERIMENTS.join(" | "),
        crate::native::kernel_names().join(" | ")
    )
}

/// Parse a `--only` operand: comma-separated registry kernel names,
/// deduplicated and validated by the engine registry (the same helper the
/// serving plane uses to admit requests).
fn parse_only(operand: &str) -> Result<Vec<String>, String> {
    crate::native::engine()
        .registry()
        .parse_kernel_list(operand)
        .map_err(|e| format!("--only: {e}"))
}

/// Flags and positional operands collected from one token stream, before
/// any per-subcommand validation.
enum Collected {
    /// `--help` short-circuits regardless of other arguments.
    Help,
    /// Positional operands (in order) plus the parsed flags.
    Items(Vec<String>, RunOptions),
}

fn collect(args: &[String]) -> Result<Collected, String> {
    let mut opts = RunOptions::default();
    let mut operands: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--csv" => match it.next() {
                Some(dir) => opts.csv_dir = Some(dir.clone()),
                None => return Err("--csv requires a directory argument".into()),
            },
            "--json" => match it.next() {
                Some(file) => opts.json = Some(file.clone()),
                None => return Err("--json requires a file argument".into()),
            },
            "--only" => match it.next() {
                Some(list) => opts.only = Some(parse_only(list)?),
                None => return Err("--only requires a kernel list argument".into()),
            },
            "--shards" => match it.next().map(|s| s.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => opts.shards = Some(n),
                Some(_) => return Err("--shards requires a positive integer".into()),
                None => return Err("--shards requires a count argument".into()),
            },
            "--report" => opts.report = true,
            "--help" | "-h" => return Ok(Collected::Help),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag: {other}"));
            }
            other => operands.push(other.to_string()),
        }
    }
    Ok(Collected::Items(operands, opts))
}

/// Validate experiment operands: non-empty, `all` expands in paper order,
/// unknown ids are errors, duplicates keep the first mention's position.
fn validate_ids(mut ids: Vec<String>) -> Result<Vec<String>, String> {
    if ids.is_empty() {
        return Err("no experiments given".into());
    }
    if ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    } else {
        for id in &ids {
            if !EXPERIMENTS.contains(&id.as_str()) {
                return Err(format!("unknown experiment: {id}"));
            }
        }
    }
    // Dedupe preserving first-mention order, so `finbench run fig4 fig5
    // fig4` runs fig4 once.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    Ok(ids)
}

/// Parse the argument list (without the program name).
///
/// Rules:
/// - The first token selects a subcommand (`run`, `list`, `gate`, …);
///   anything else is a usage error.
/// - `--help`/`-h` short-circuits to [`CliAction::Help`] regardless of
///   other arguments.
/// - `all` expands to every experiment id in paper order.
/// - Duplicate ids are dropped, keeping the first mention's position.
/// - Unknown flags and unknown experiment ids are errors, as is an empty
///   experiment list.
pub fn parse_args<I, S>(args: I) -> Result<CliAction, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args: Vec<String> = args.into_iter().map(Into::into).collect();
    match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]),
        Some("list") => {
            if args.len() > 1 {
                Err(format!(
                    "list takes no arguments (got: {})",
                    args[1..].join(" ")
                ))
            } else {
                Ok(CliAction::List)
            }
        }
        Some("bench-report") => parse_bench_report(&args[1..]),
        Some("bench-compare") => parse_bench_compare(&args[1..]),
        Some("bench-trend") => parse_bench_trend(&args[1..]),
        Some("gate") => parse_gate(&args[1..]),
        Some("--help" | "-h") => Ok(CliAction::Help),
        Some(other) => Err(format!("unknown command: {other}")),
        None => Err("no command given".into()),
    }
}

/// `bench-report [--quick] [--out FILE]` — its flag set is
/// disjoint from the experiment flags, so it has its own tiny loop.
fn parse_bench_report(args: &[String]) -> Result<CliAction, String> {
    let mut opts = BenchReportOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--out" => match it.next() {
                Some(f) => opts.out = Some(f.clone()),
                None => return Err("--out requires a file argument".into()),
            },
            "--help" | "-h" => return Ok(CliAction::Help),
            other => return Err(format!("bench-report: unexpected argument: {other}")),
        }
    }
    Ok(CliAction::BenchReport(opts))
}

/// `bench-compare OLD NEW` or `bench-compare --self-test SNAP`; both
/// gate on [`crate::report::DEFAULT_THRESHOLD_PCT`].
fn parse_bench_compare(args: &[String]) -> Result<CliAction, String> {
    let mut self_test = false;
    let mut files: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--self-test" => self_test = true,
            "--help" | "-h" => return Ok(CliAction::Help),
            other if other.starts_with('-') => {
                return Err(format!("bench-compare: unknown flag: {other}"));
            }
            other => files.push(other.to_string()),
        }
    }
    let mode = match (self_test, files.as_slice()) {
        (true, [snap]) => CompareMode::SelfTest {
            snapshot: snap.clone(),
        },
        (false, [old, new]) => CompareMode::Files {
            old: old.clone(),
            new: new.clone(),
        },
        (true, _) => return Err("bench-compare --self-test takes exactly one snapshot file".into()),
        (false, _) => return Err("bench-compare takes exactly two snapshot files".into()),
    };
    Ok(CliAction::BenchCompare(mode))
}

/// `bench-trend [DIR]` — one optional directory operand (default `.`).
fn parse_bench_trend(args: &[String]) -> Result<CliAction, String> {
    let mut dir: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliAction::Help),
            other if other.starts_with('-') => {
                return Err(format!("bench-trend: unknown flag: {other}"));
            }
            other => {
                if dir.is_some() {
                    return Err("bench-trend takes at most one directory operand".into());
                }
                dir = Some(other.to_string());
            }
        }
    }
    Ok(CliAction::BenchTrend {
        dir: dir.unwrap_or_else(|| ".".to_string()),
    })
}

/// `gate [--quick]` — no operands, no other flags.
fn parse_gate(args: &[String]) -> Result<CliAction, String> {
    let mut quick = false;
    for arg in args {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--help" | "-h" => return Ok(CliAction::Help),
            other => return Err(format!("gate: unexpected argument: {other}")),
        }
    }
    Ok(CliAction::Gate { quick })
}

fn parse_run(args: &[String]) -> Result<CliAction, String> {
    match collect(args)? {
        Collected::Help => Ok(CliAction::Help),
        Collected::Items(ids, opts) => Ok(CliAction::Run(ParsedArgs {
            ids: validate_ids(ids)?,
            opts,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> ParsedArgs {
        match parse_args(args.iter().copied()).unwrap() {
            CliAction::Run(p) => p,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    // ---- subcommand grammar ----

    #[test]
    fn run_subcommand_parses_ids_and_flags() {
        let p = run(&["run", "fig4", "--quick", "table2", "--csv", "out"]);
        assert_eq!(p.ids, ["fig4", "table2"]);
        assert!(p.opts.quick);
        assert_eq!(p.opts.csv_dir.as_deref(), Some("out"));
        assert_eq!(p.opts.json, None);
        assert!(!p.opts.report);
        for id in [
            "serve_bench",
            "chaos_bench",
            "greeks_bench",
            "portfolio_bench",
        ] {
            assert_eq!(run(&["run", id, "--quick"]).ids, [id]);
            // `run <id>` is the one spelling; a dashed form is no command.
            let err = parse_args([id.replace('_', "-")]).unwrap_err();
            assert!(err.contains("unknown command"), "{id}: {err}");
        }
    }

    #[test]
    fn run_subcommand_expands_all_and_dedupes() {
        assert_eq!(run(&["run", "all"]).ids, EXPERIMENTS);
        assert_eq!(run(&["run", "fig5", "fig4", "fig5"]).ids, ["fig5", "fig4"]);
    }

    #[test]
    fn run_subcommand_rejects_bad_input() {
        assert!(parse_args(["run"]).is_err());
        assert!(parse_args(["run", "nosuch"]).is_err());
        assert!(parse_args(["run", "--frobnicate"]).is_err());
    }

    #[test]
    fn list_subcommand() {
        assert_eq!(parse_args(["list"]), Ok(CliAction::List));
        assert!(parse_args(["list", "fig4"]).is_err());
    }

    #[test]
    fn serve_bench_accepts_only_and_json() {
        let p = run(&["run", "serve_bench", "--only", "rng", "--json", "t.jsonl"]);
        assert_eq!(p.ids, ["serve_bench"]);
        assert_eq!(p.opts.only, Some(vec!["rng".to_string()]));
        assert_eq!(p.opts.json.as_deref(), Some("t.jsonl"));
    }

    // ---- bench-report / bench-compare ----

    #[test]
    fn bench_report_parses_flags() {
        let a = parse_args(["bench-report", "--quick", "--out", "b.json"]);
        assert_eq!(
            a,
            Ok(CliAction::BenchReport(BenchReportOptions {
                quick: true,
                out: Some("b.json".into()),
            }))
        );
        // Defaults: full mode, auto-numbered output path.
        assert_eq!(
            parse_args(["bench-report"]),
            Ok(CliAction::BenchReport(BenchReportOptions::default()))
        );
    }

    #[test]
    fn bench_report_rejects_bad_input() {
        assert!(parse_args(["bench-report", "fig4"]).is_err());
        assert!(parse_args(["bench-report", "--out"]).is_err());
    }

    #[test]
    fn bench_compare_parses_two_files_and_threshold() {
        // The noise threshold is the constant `DEFAULT_THRESHOLD_PCT`; no
        // flag sets it.
        let a = parse_args(["bench-compare", "old.json", "new.json"]);
        assert_eq!(
            a,
            Ok(CliAction::BenchCompare(CompareMode::Files {
                old: "old.json".into(),
                new: "new.json".into(),
            }))
        );
    }

    #[test]
    fn bench_compare_self_test_takes_one_file() {
        let a = parse_args(["bench-compare", "--self-test", "snap.json"]);
        assert_eq!(
            a,
            Ok(CliAction::BenchCompare(CompareMode::SelfTest {
                snapshot: "snap.json".into(),
            }))
        );
        assert!(parse_args(["bench-compare", "--self-test"]).is_err());
        assert!(parse_args(["bench-compare", "--self-test", "a.json", "b.json"]).is_err());
    }

    #[test]
    fn bench_compare_rejects_bad_input() {
        assert!(parse_args(["bench-compare"]).is_err());
        assert!(parse_args(["bench-compare", "only_one.json"]).is_err());
        assert!(parse_args(["bench-compare", "a.json", "b.json", "c.json"]).is_err());
        assert!(parse_args(["bench-compare", "a.json", "b.json", "--frob"]).is_err());
    }

    #[test]
    fn usage_mentions_the_bench_subcommands() {
        let u = usage_line();
        assert!(!u.contains("deprecated"), "{u}");
        assert!(u.contains("bench-report"), "{u}");
        assert!(u.contains("bench-compare"), "{u}");
        assert!(u.contains("bench-trend"), "{u}");
        assert!(u.contains("--shards"), "{u}");
    }

    #[test]
    fn bench_trend_takes_an_optional_directory() {
        assert_eq!(
            parse_args(["bench-trend"]),
            Ok(CliAction::BenchTrend { dir: ".".into() })
        );
        assert_eq!(
            parse_args(["bench-trend", "snaps"]),
            Ok(CliAction::BenchTrend {
                dir: "snaps".into()
            })
        );
        assert!(parse_args(["bench-trend", "a", "b"]).is_err());
        assert!(parse_args(["bench-trend", "--frob"]).is_err());
        assert_eq!(parse_args(["bench-trend", "-h"]), Ok(CliAction::Help));
    }

    #[test]
    fn gate_takes_quick_and_nothing_else() {
        let gate = |quick| Ok(CliAction::Gate { quick });
        assert_eq!(parse_args(["gate"]), gate(false));
        assert_eq!(parse_args(["gate", "--quick"]), gate(true));
        assert_eq!(parse_args(["gate", "-h"]), Ok(CliAction::Help));
        assert!(parse_args(["gate", "serve_bench"]).is_err());
        assert!(parse_args(["gate", "--quick", "BENCH_19.json"]).is_err());
        assert!(parse_args(["gate", "--shards", "4"]).is_err());
        assert!(usage_line().contains("finbench gate [--quick]"));
    }

    #[test]
    fn shards_flag_parses_on_serve_bench() {
        let p = run(&["run", "serve_bench", "--shards", "4"]);
        assert_eq!(p.ids, ["serve_bench"]);
        assert_eq!(p.opts.shards, Some(4));
        // Default: mode decides the sweep top.
        assert_eq!(run(&["run", "serve_bench"]).opts.shards, None);
        assert!(parse_args(["run", "serve_bench", "--shards"]).is_err());
        assert!(parse_args(["run", "serve_bench", "--shards", "0"]).is_err());
        assert!(parse_args(["run", "serve_bench", "--shards", "lots"]).is_err());
    }

    // ---- the flat grammar is gone: a command word is required ----

    #[test]
    fn flat_forms_are_usage_errors() {
        for tail in [
            vec!["fig4", "--quick"],
            vec!["all"],
            vec!["native", "--only", "rng", "--report"],
        ] {
            let err = parse_args(tail.iter().copied()).unwrap_err();
            assert!(err.contains("unknown command"), "{tail:?}: {err}");
            // The same tail is a valid `run`.
            let mut sub = vec!["run"];
            sub.extend(&tail);
            run(&sub);
        }
        // `--list` is no longer an action, wherever it appears.
        assert!(parse_args(["--list"]).is_err());
        assert!(parse_args(["run", "fig4", "--list"]).is_err());
    }

    #[test]
    fn json_and_report_flags() {
        let p = run(&["run", "native", "--json", "out.jsonl", "--report"]);
        assert_eq!(p.opts.json.as_deref(), Some("out.jsonl"));
        assert!(p.opts.report);
    }

    #[test]
    fn dedupes_preserving_first_mention_order() {
        let p = run(&["run", "fig5", "fig4", "fig5", "fig4", "fig5"]);
        assert_eq!(p.ids, ["fig5", "fig4"]);
    }

    #[test]
    fn all_expands_in_paper_order() {
        let p = run(&["run", "all", "--quick"]);
        assert_eq!(p.ids, EXPERIMENTS);
    }

    #[test]
    fn list_and_help_short_circuit() {
        assert_eq!(parse_args(["list"]), Ok(CliAction::List));
        assert_eq!(parse_args(["--help"]), Ok(CliAction::Help));
        assert_eq!(parse_args(["-h"]), Ok(CliAction::Help));
        // Help wins even with other junk present, under any subcommand.
        assert_eq!(parse_args(["run", "--help"]), Ok(CliAction::Help));
        assert_eq!(parse_args(["run", "nosuch", "-h"]), Ok(CliAction::Help));
        assert_eq!(parse_args(["bench-report", "-h"]), Ok(CliAction::Help));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(["run", "--csv"]).is_err());
        assert!(parse_args(["run", "--json"]).is_err());
        assert!(parse_args(["--frobnicate"]).is_err());
        assert!(parse_args(["nosuch"]).is_err());
        assert!(parse_args(Vec::<String>::new()).is_err());
    }

    #[test]
    fn audit_is_a_known_experiment() {
        let p = run(&["run", "audit"]);
        assert_eq!(p.ids, ["audit"]);
    }

    // ---- --only, validated by the engine registry ----

    #[test]
    fn only_parses_a_single_kernel() {
        let p = run(&["run", "native", "--only", "rng"]);
        assert_eq!(p.opts.only, Some(vec!["rng".to_string()]));
    }

    #[test]
    fn only_parses_a_comma_list_deduplicated() {
        let p = run(&["run", "native", "--only", "black_scholes,rng,black_scholes"]);
        assert_eq!(
            p.opts.only,
            Some(vec!["black_scholes".to_string(), "rng".to_string()])
        );
    }

    #[test]
    fn only_rejects_unknown_kernels() {
        // main() turns this Err into exit code 2 — the same path as every
        // other parse error.
        let err = parse_args(["run", "native", "--only", "black_sholes"]).unwrap_err();
        assert!(err.contains("unknown kernel"), "{err}");
        assert!(parse_args(["run", "native", "--only"]).is_err());
        assert!(parse_args(["run", "native", "--only", ""]).is_err());
        assert!(parse_args(["run", "native", "--only", "rng,,"]).is_err());
    }
}
