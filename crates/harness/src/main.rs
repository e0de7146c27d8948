//! The `finbench` experiment CLI.
//!
//! ```text
//! finbench run all                   # every table/figure + native runs
//! finbench run fig4 table2           # specific artifacts
//! finbench run native --quick        # reduced native workloads
//! finbench run all --csv results/    # also export CSV series
//! finbench run native --json t.jsonl # export the telemetry trace (JSON lines)
//! finbench run native --report       # print the telemetry span tree
//! finbench list                      # print experiment ids
//! ```

use finbench_harness::cli::{parse_args, CliAction};
use finbench_harness::report::{self, CompareMode, DEFAULT_THRESHOLD_PCT};
use finbench_harness::run_experiment;
use finbench_telemetry as telemetry;

fn main() {
    let action = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", finbench_harness::cli::usage_line());
            std::process::exit(2);
        }
    };
    let parsed = match action {
        CliAction::Help => {
            println!("{}", finbench_harness::cli::usage_line());
            return;
        }
        CliAction::List => {
            for id in finbench_harness::EXPERIMENTS {
                println!("{id}");
            }
            // On stderr: stdout stays the ids, one per line.
            eprintln!("{}", finbench_simd::Isa::describe());
            return;
        }
        CliAction::BenchReport(opts) => {
            if let Err(msg) = report::bench_report(&opts) {
                eprintln!("error: bench-report: {msg}");
                std::process::exit(1);
            }
            return;
        }
        CliAction::BenchCompare(mode) => {
            std::process::exit(run_bench_compare(&mode));
        }
        CliAction::BenchTrend { dir } => {
            match report::bench_trend(std::path::Path::new(&dir)) {
                Ok(table) => print!("{table}"),
                Err(e) => {
                    eprintln!("error: bench-trend: {e}");
                    std::process::exit(2);
                }
            }
            return;
        }
        CliAction::Gate { quick } => std::process::exit(finbench_harness::gate::main(quick)),
        CliAction::Run(p) => p,
    };

    for id in &parsed.ids {
        // Ids were validated by parse_args; a false here is a logic error.
        assert!(run_experiment(id, &parsed.opts), "unknown experiment: {id}");
    }

    if parsed.opts.report {
        print!("{}", telemetry::render_tree());
    }
    if let Some(path) = &parsed.opts.json {
        if let Err(e) = telemetry::write_jsonl(std::path::Path::new(path)) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("telemetry trace written to {path}");
    }
}

/// `bench-compare` exit codes: 0 clean, 1 gated regressions (or a failed
/// self-test), 2 on typed load/compare errors — the same code parse
/// errors use, so CI can tell "slow" from "broken".
fn run_bench_compare(mode: &CompareMode) -> i32 {
    use std::path::Path;
    match mode {
        CompareMode::Files { old, new } => {
            match report::bench_compare(Path::new(old), Path::new(new), DEFAULT_THRESHOLD_PCT) {
                Ok(rep) => {
                    print!("{}", rep.render());
                    i32::from(rep.gated_regressions() > 0)
                }
                Err(e) => {
                    eprintln!("error: bench-compare: {e}");
                    2
                }
            }
        }
        CompareMode::SelfTest { snapshot } => {
            match report::gate_self_test(Path::new(snapshot), DEFAULT_THRESHOLD_PCT) {
                Ok((flagged, gated_total, rep)) => {
                    print!("{}", rep.render());
                    if flagged == gated_total && gated_total > 0 {
                        println!(
                            "  self-test OK: gate flagged all {gated_total} degraded gated metrics"
                        );
                        0
                    } else {
                        eprintln!(
                            "error: self-test FAILED: gate flagged {flagged} of {gated_total} degraded gated metrics"
                        );
                        1
                    }
                }
                Err(e) => {
                    eprintln!("error: bench-compare --self-test: {e}");
                    2
                }
            }
        }
    }
}
