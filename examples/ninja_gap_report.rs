//! The full paper regeneration in one shot: every modeled table and
//! figure plus the native optimization ladders, equivalent to
//! `finbench run all --quick`.
//!
//! ```text
//! cargo run --release --example ninja_gap_report
//! ```

use finbench::harness::{run_experiment, RunOptions, EXPERIMENTS};

fn main() {
    let opts = RunOptions {
        quick: true,
        ..RunOptions::default()
    };
    for id in EXPERIMENTS {
        assert!(run_experiment(id, &opts), "experiment {id} must exist");
    }
    println!("\nAll {} experiments regenerated.", EXPERIMENTS.len());
}
