//! finbench's benchmark runner. See README.md for what it measures and why.
//!
//! ```text
//! finbench-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! finbench-benchmark run [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! finbench-benchmark aa  [--seed <u64>] [--seconds <n>] [--runs <k>]
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with one JSON result line. `run` runs every workload, each in a
//! child process, and prints one stamped document. `aa` runs the suite twice
//! on this build and says, per end-to-end metric, whether the two agree
//! within the bound `BENCHMARK.json` fixes.

mod loadgen;
mod metrics;
mod native;
mod pin;
mod probes;
mod served;
mod stats;
mod trace;

use finbench_telemetry::json::{parse, Json};
use loadgen::{Phase, DISTURBED_LAG_NS};
use metrics::Values;
use native::{KernelRates, Ladder};
use served::{Client, Mix};
use stats::{geomean, median, nearest_rank, Hist, FAST_SIDE};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::{now_ns, Tracer};

// As in the shipped `finbench` binary: allocation counts are part of the
// per-layer numbers, and the product is measured under the allocator it
// ships with.
#[global_allocator]
static ALLOC: finbench_telemetry::CountingAlloc = finbench_telemetry::CountingAlloc;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let spec = parse(metrics::SPEC).expect("BENCHMARK.json parses");
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: spec
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        trace: false,
        runs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "aa" if args.command.is_none() => args.command = Some(arg),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(&arg, value("a u64")?)?,
            "--seconds" => args.seconds = number(&arg, value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: want 0 or 1, got {other}")),
                }
            }
            "--runs" => args.runs = number(&arg, value("a count")?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    now_ns();
    if cfg!(debug_assertions) {
        eprintln!("error: debug build; build the benchmark with --release");
        return ExitCode::from(2);
    }
    // The product reads these on first use; a stray plan, fault or log
    // setting would make the run measure something else.
    for var in ["FINBENCH_PLAN", "FINBENCH_FAULTS", "FINBENCH_LOG"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <name> --seed <u64> --seconds <n> --trace <0|1> | run | aa");
            return ExitCode::from(2);
        }
    };
    let code = match (args.command.as_deref(), &args.workload) {
        (Some("run"), None) => run_suite(&args),
        (Some("aa"), None) => run_aa(&args),
        (None, Some(w)) => run_workload(w, &args),
        _ => Err("give one of: --workload <name>, run, aa".to_string()),
    };
    match code {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Repeat `setup` until it has run at least five times and for half a second
/// (at most fifty times), dropping each result before the next is built, and
/// return the fast decile of the times with the last result. A traced run
/// sets up once.
fn timed_setup<T>(
    once: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut secs = Vec::new();
    let mut last = None;
    let begun = now_ns();
    loop {
        drop(last.take());
        let t0 = now_ns();
        last = Some(setup()?);
        secs.push((now_ns() - t0) as f64 * 1e-9);
        let enough = secs.len() >= 5 && now_ns() - begun >= 500_000_000;
        if once || enough || secs.len() == 50 {
            let secs = nearest_rank(&mut secs, FAST_SIDE);
            return Ok((secs, last.expect("set up at least once")));
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// What one workload produced, before it becomes the result line.
#[derive(Default)]
struct Report {
    values: Values,
    attempted: u64,
    /// Ops rejected, failed or never answered.
    failed: u64,
    /// What the output oracles objected to; each counts as a failed op.
    mismatches: Vec<String>,
}

/// Run one workload in this process and print its result line.
fn run_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let mut tracer = Tracer::default();
    let mut report = match workload {
        "native_ladder" => native_ladder(args, &mut tracer)?,
        "serve_steady" => served(Mix::Steady, args, &mut tracer)?,
        "serve_saturate" => served(Mix::Saturate, args, &mut tracer)?,
        "serve_portfolio" => served(Mix::Portfolio, args, &mut tracer)?,
        other => {
            return Err(format!(
                "unknown workload {other}; known: {:?}",
                metrics::WORKLOADS
            ))
        }
    };
    if args.trace {
        for (name, value) in probes::run(args.seed, &mut tracer) {
            println!("{name} {value}");
            report.values.set(name, value);
        }
        let path = out_dir().join(format!("trace.{workload}.jsonl"));
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        tracer
            .write_jsonl(workload, &mut file)
            .and_then(|()| file.flush())
            .map_err(|e| e.to_string())?;
        println!("trace written to {}", path.display());
    } else {
        report.values.set("peak_rss_mb", peak_rss_mb()?);
    }
    for m in report.mismatches.iter().take(10) {
        eprintln!("oracle mismatch: {m}");
    }
    let failed = report.failed + report.mismatches.len() as u64;
    let line = metrics::result_json(&report.values, args.trace, report.attempted, failed);
    println!("{}", line.to_json());
    Ok(failed == 0)
}

fn native_ladder(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    tracer.set_on(args.trace);
    let (setup_s, ladder) = timed_setup(args.trace, || Ok(Ladder::setup(args.seed, tracer)))?;
    tracer.set_on(false);
    let rates = ladder.measure(args.seconds / if args.trace { 2.0 } else { 1.0 }, tracer);
    let rates = if args.trace {
        tracer.set_on(true);
        let traced = ladder.measure(args.seconds / 2.0, tracer);
        let overhead = 1.0 - native::throughput(&traced) / native::throughput(&rates);
        report.values.set("bench.trace_overhead_share", overhead);
        native_layers(&traced, &mut report.values);
        traced
    } else {
        report.values.set("setup_s", setup_s);
        report
            .values
            .set("throughput_per_s", native::throughput(&rates));
        report.values.set("op_p50_us", native::op_us(&rates));
        rates
    };
    for r in &rates {
        println!(
            "{}: delivered {:.4e}/s by {} (reference {:.4e}/s)",
            r.name, r.best_per_s, r.best_slug, r.ref_per_s
        );
    }
    (report.attempted, report.mismatches) = ladder.validate();
    Ok(report)
}

fn native_layers(rates: &[KernelRates], values: &mut Values) {
    for r in rates {
        values.set(format!("core.{}.ref_per_s", r.name), r.ref_per_s);
        values.set(format!("core.{}.best_per_s", r.name), r.best_per_s);
        values.set(
            format!("engine.plan_regret.{}", r.name),
            r.best_per_s / r.planned_per_s,
        );
        values.set(
            format!("machine.model_error.{}", r.name),
            r.predicted_per_s / r.planned_per_s,
        );
    }
    let gaps: Vec<f64> = rates.iter().map(|r| r.best_per_s / r.ref_per_s).collect();
    values.set("engine.ninja_gap_geomean", geomean(&gaps));
}

/// A phase's end-to-end pair: the fast decile over the measured windows of
/// each window's throughput (correct replies x pricings per request / window
/// length) and of each window's latency median.
fn phase_end_to_end(phase: &Phase, mix: Mix) -> (f64, f64) {
    let windows = phase.windows.iter();
    let mut rates: Vec<f64> = windows
        .clone()
        .map(|w| w.ok as f64 * mix.pricings_per_op() / w.secs)
        .collect();
    let mut p50s: Vec<f64> = windows.map(|w| w.latency.quantile(0.5) * 1e-3).collect();
    (
        nearest_rank(&mut rates, 1.0 - FAST_SIDE),
        nearest_rank(&mut p50s, FAST_SIDE),
    )
}

/// Server-side counts read before and after a phase.
struct Counts {
    snapshot: finbench_serve::ServeSnapshot,
    allocs: finbench_telemetry::AllocStats,
    spills: u64,
}

impl Counts {
    fn read(client: &Client) -> Self {
        Self {
            snapshot: client.server().snapshot(),
            allocs: finbench_telemetry::alloc_stats(),
            spills: finbench_telemetry::counter_value("serve.spills"),
        }
    }
}

/// How long `serve_portfolio`'s traced run spends on two shards.
const TWO_SHARD_SECS: f64 = 4.0;

fn served(mix: Mix, args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    if mix == Mix::Steady {
        // Before the server starts, so its threads inherit the choice.
        match pin::to_one_cpu() {
            Some(cpu) => println!("generator and server run on cpu {cpu}"),
            None => println!("could not choose a cpu; running unpinned"),
        }
    }
    let (setup_s, mut client) = timed_setup(args.trace, || Client::setup(mix, 1, args.seed))?;
    let mut phases = Vec::new();
    if !args.trace {
        report.values.set("setup_s", setup_s);
        let phase = client.measure(args.seconds, tracer);
        let (throughput, p50) = phase_end_to_end(&phase, mix);
        report.values.set("throughput_per_s", throughput);
        report.values.set("op_p50_us", p50);
        phases.push(phase);
    } else {
        let plain = client.measure(args.seconds / 2.0, tracer);
        tracer.set_on(true);
        let before = Counts::read(&client);
        let traced = client.measure(args.seconds / 2.0, tracer);
        let after = Counts::read(&client);
        let throughput = phase_end_to_end(&traced, mix).0;
        let overhead = 1.0 - throughput / phase_end_to_end(&plain, mix).0;
        report.values.set("bench.trace_overhead_share", overhead);
        let submit_ns = nearest_rank(&mut tracer.durations("serve.submit"), 0.5);
        served_layers(&mut report.values, &traced, submit_ns, &before, &after);
        phases.extend([plain, traced]);
        if mix == Mix::Portfolio {
            // The fan-out across shards, where it can be seen: the same
            // closed loop on two shards for a few seconds. Per layer only:
            // which physical cores the host gives two busy vCPUs changes
            // over minutes and moves this rate by a quarter.
            tracer.set_on(false);
            let mut two = Client::setup(mix, 2, args.seed)?;
            let before = Counts::read(&two);
            let phase = two.measure(TWO_SHARD_SECS, tracer);
            let after = Counts::read(&two);
            tracer.set_on(true);
            let v = &mut report.values;
            let speedup = phase_end_to_end(&phase, mix).0 / throughput;
            v.set("serve.shards2.portfolio_speedup", speedup);
            let stolen = after.snapshot.total_stolen() - before.snapshot.total_stolen();
            v.set("serve.shards2.steals", stolen as f64);
            v.set(
                "serve.shards2.spills",
                (after.spills - before.spills) as f64,
            );
            phases.push(phase);
            report.mismatches = two.check().1;
        }
    }
    for (i, w) in phases.iter().flat_map(|p| &p.windows).enumerate() {
        println!(
            "window {i}: {} attempted, {} ok, {:.3} s, p50 {:.1} us (n={})",
            w.attempted,
            w.ok,
            w.secs,
            w.latency.quantile(0.5) * 1e-3,
            w.latency.count(),
        );
        if w.lag.count() > 0 {
            println!(
                "window {i}: generator lag p99 {:.1} us",
                w.lag.quantile(0.99) * 1e-3
            );
        }
    }
    for p in &phases {
        report.attempted += p.windows.iter().map(|w| w.attempted).sum::<u64>() + p.unanswered;
        report.failed += p.windows.iter().map(|w| w.attempted - w.ok).sum::<u64>() + p.unanswered;
    }
    let (checked, mismatches) = client.check();
    report.mismatches.extend(mismatches);
    println!(
        "oracle: {checked} sampled replies checked, {} mismatches",
        report.mismatches.len()
    );
    Ok(report)
}

/// The per-layer numbers a traced served phase yields.
fn served_layers(v: &mut Values, traced: &Phase, submit_ns: f64, before: &Counts, after: &Counts) {
    let mut all = Hist::default();
    let mut lag = Hist::default();
    for w in &traced.windows {
        all.merge(&w.latency);
        lag.merge(&w.lag);
    }
    let or_zero = |x: f64| if x.is_nan() { 0.0 } else { x };
    v.set("serve.server.submit_ns", or_zero(submit_ns));
    v.set(
        "serve.server.server_latency_p50_us",
        traced.server_ns.quantile(0.5) * 1e-3,
    );
    v.set(
        "serve.server.client_gap_p50_us",
        traced.gap_ns.quantile(0.5) * 1e-3,
    );
    v.set(
        "serve.server.batch_len_p50",
        or_zero(traced.batch_len.quantile(0.5)),
    );
    v.set("serve.server.op_p99_us", all.quantile(0.99) * 1e-3);
    v.set("serve.server.op_p999_us", all.quantile(0.999) * 1e-3);
    let delta = |f: &dyn Fn(&finbench_serve::ServeSnapshot) -> u64| {
        (f(&after.snapshot) - f(&before.snapshot)) as f64
    };
    let batches = delta(&|s| s.kernels.iter().map(|k| k.batches).sum());
    let items = delta(&|s| s.kernels.iter().map(|k| k.served).sum());
    v.set("serve.server.batches", batches);
    v.set("serve.server.batch_len_mean", items / batches.max(1.0));
    let allocs = after.allocs.since(before.allocs).allocs as f64;
    v.set(
        "serve.server.allocs_per_op",
        allocs / all.count().max(1) as f64,
    );
    v.set("serve.server.shed", delta(&|s| s.total_shed()));
    v.set("bench.lag_p99_us", or_zero(lag.quantile(0.99)) * 1e-3);
    let disturbed = traced
        .windows
        .iter()
        .filter(|w| w.lag.quantile(0.99) > DISTURBED_LAG_NS);
    v.set("bench.disturbed_windows", disturbed.count() as f64);
}

/// Run `workload` in a child process and return its parsed result line.
fn child(workload: &str, seed: u64, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    let result = parse(last).map_err(|e| format!("{workload}: {e}"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        eprint!("{text}");
        return Err(format!("{workload} (seed {seed}) failed"));
    }
    Ok(result)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn stamp(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        (
            "git_commit".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        ("cpu".into(), Json::Str(cpu)),
        (
            "nproc".into(),
            Json::Num(finbench_parallel::available_parallelism() as f64),
        ),
        ("seed".into(), Json::Num(seed as f64)),
    ])
}

/// Every workload, each in its own process, one after another; one document.
fn run_suite(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    for w in metrics::WORKLOADS {
        eprintln!("running {w} ...");
        results.push((w.to_string(), child(w, args.seed, args, args.trace)?));
    }
    if args.trace {
        // The per-workload span logs, end to end, as one file.
        let mut all = Vec::new();
        for w in metrics::WORKLOADS {
            let part = std::fs::read(out_dir().join(format!("trace.{w}.jsonl")))
                .map_err(|e| e.to_string())?;
            all.extend(part);
        }
        std::fs::write(out_dir().join("trace.jsonl"), all).map_err(|e| e.to_string())?;
    }
    let doc = Json::Obj(vec![
        ("stamp".into(), stamp(args.seed)),
        ("traced".into(), Json::Bool(args.trace)),
        ("workloads".into(), Json::Obj(results)),
    ]);
    println!("{}", doc.to_json());
    Ok(true)
}

/// Two sets of `--runs` untraced runs per workload (seeds `seed..seed+runs`,
/// the same for both sets). Per end-to-end metric: the spread of each set
/// (interquartile range over median) and whether the second set's median is
/// worse than the first's by more than the bound.
fn run_aa(args: &Args) -> Result<bool, String> {
    let bounds = metrics::bounds();
    // sets[set][workload][metric] -> one value per run
    let mut sets: Vec<Vec<Vec<Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for w in metrics::WORKLOADS {
            let mut per_metric = vec![Vec::new(); bounds.len()];
            for run in 0..args.runs {
                eprintln!("set {set}: {w} run {run} ...");
                let result = child(w, args.seed.wrapping_add(run as u64), args, false)?;
                eprintln!("{}", result.to_json());
                for (values, (name, ..)) in per_metric.iter_mut().zip(&bounds) {
                    let v = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"));
                    values.push(v.and_then(Json::as_f64).ok_or(format!("{w}: no {name}"))?);
                }
            }
            per_workload.push(per_metric);
        }
        sets.push(per_workload);
    }
    let mut agree = true;
    println!("workload metric median_a median_b spread_a spread_b bound verdict");
    for (wi, w) in metrics::WORKLOADS.iter().enumerate() {
        for (mi, (name, bound, lower_is_better)) in bounds.iter().enumerate() {
            let (a, b) = (&sets[0][wi][mi], &sets[1][wi][mi]);
            let (ma, mb) = (median(a), median(b));
            let worse = if *lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            // The spread of set-up time is reported but not judged.
            let steady = name == "setup_s" || (sa <= *bound && sb <= *bound);
            let ok = steady && worse <= *bound;
            agree &= ok;
            println!(
                "{w} {name} {ma:.6} {mb:.6} {sa:.4} {sb:.4} {bound} {}",
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(agree)
}
