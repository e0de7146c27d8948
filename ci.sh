#!/usr/bin/env bash
# Full local CI gate, offline. This file only sequences steps: what a *run*
# must satisfy (shed = 0, availability floors, 0.0 allocs/iter, the perf
# trajectory, ...) is decided in crates/harness/src/gate.rs.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build, test"
cargo build --release --workspace
cargo test -q --workspace

echo "==> standalone benchmark runner (the one consumer outside the workspace)"
# benchmark/ is its own package on path dependencies, so nothing above
# compiles it; it must keep building against the serving plane's public API.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> telemetry tests, 20x back to back"
# Two tests share the process-global span registry and one drains it; they
# serialize on a lock. Unserialized, the pair failed about 1 run in 30.
# The unit tests run in release too: a timed region the optimizer folds
# away flakes there only (the cycle-timer test failed 4 to 8 runs in 30).
for _ in $(seq 20); do
  cargo test -q -p finbench-telemetry --test integration
  cargo test -q --release -p finbench-telemetry --lib
done

echo "==> serving-plane suites, 5x back to back at default parallelism"
# No test here takes a lock (a fault plan and a ledger belong to their Server),
# so one that only passed while a lock gave it the machine shows up on shared vCPUs.
# The admission queue's tests run in release too: its wake protocol (signal only
# a parked popper) races differently at -O.
for _ in $(seq 5); do
  cargo test -q -p finbench-serve --lib
  cargo test -q --release -p finbench-serve --lib queue::
  cargo test -q -p finbench --test chaos_equivalence --test supervision \
    --test batching_equivalence --test rejection_taxonomy
done

echo "==> source guard (no process-global fault registry or second ledger, no test locks, no by-name metrics)"
if git grep -nE 'faults_(lock|quiet)|test_support|PlanGuard|chaos_lock|install_from_env|faults::(install|disarm|armed|fire|report)|StatsInner|lock_stats|serial_lock|LaneCounters' -- crates tests examples ||
  git grep -nE '(counter_add|gauge_set)\(' -- 'crates/*/src/*' ':!crates/telemetry/*'; then
  echo "a fault plan and a metrics ledger belong to their Server: no global registry, no test lock; the product counts through handles, never by name (only benchmark/ times the by-name calls)" >&2
  exit 1
fi

echo "==> source guard (no supervisor thread: a killed shard worker heals its own seat)"
if git grep -nE 'SupervisorPolicy|supervisor_loop|SupervisorCtx|finbench-serve-supervisor' -- crates tests examples; then
  echo "respawn is the killed worker's own loop; ServeConfig::respawn is its one setting" >&2
  exit 1
fi

echo "==> source guard (a shard decides, its driver waits: no clock read or sleep in the Shard, no sleep in server.rs's tests)"
if git grep -nE 'Instant::now\(\)|thread::sleep' -- crates/serve/src/shard.rs ||
  sed -n '/^mod tests {/,$p' crates/serve/src/server.rs | grep -n 'thread::sleep' ||
  git grep -nE 'stall_then_kill|stalled_no_respawn|ShardCtx|LaneCtx' -- crates tests; then
  echo "the Shard reads time only through its Clock and never sleeps; server.rs's tests step shards on a stepped clock instead of sleeping" >&2
  exit 1
fi

echo "==> source guard (no merge thread: a portfolio fan-out joins where its last chunk lands)"
if git grep -nE 'merge_portfolio|PortfolioChunkResponse|finbench-portfolio-merge|stage_extra' -- crates tests; then
  echo "chunks answer into their request's PortfolioFanIn; each plane stages its own scratch through ServeWorkload::stage" >&2
  exit 1
fi

echo "==> source guard (one servable-rung type, one shard tally, one SplitMix64)"
if git grep -nE 'pub struct (ServingRung|GreeksRung|PortfolioRung|ShardLoad)\b|fn (slug|width)\(rung|rung_attrs|ShardLoad|(opened|restarts)_total' -- crates tests examples; then
  echo "ladders are Vec<serve::Rung<K>> (the plane names are aliases); loadgen reports ShardSnapshot deltas; the lane's ledger counts breaker events" >&2
  exit 1
fi
if git grep -nE '0x(bf58_476d_1ce4_e5b9|BF58_476D_1CE4_E5B9)' -- crates/serve; then
  echo "loadgen draws through finbench_rng::SplitMix64" >&2
  exit 1
fi

echo "==> source guard (one way to run a rung: no execution policy, one timing loop)"
if git grep -nE 'ExecPolicy::Serial|fn workers|try_body|time_once|run_ladder_named|LadderRates' -- crates tests examples; then
  echo "rungs take only their workload; Engine::run_ladder_samples times every ladder (a figure is one trial's best)" >&2
  exit 1
fi

echo "==> source guard (replace, don't fork: one twister, two normal fills, one tiled reduction, one streamed MC sweep)"
if git grep -nwE 'Mt19937|sincos|fill_standard_normal_box_muller|fill_standard_normal_icdf_fast|reduce_tiled_fma|paths_streamed_parallel' -- crates tests examples; then
  echo "no rung runs a second twister, normal transform, tiling or threaded MC sweep: Mt19937_64, the ICDF/polar fills, reduce_tiled and paths_streamed_simd are the ones" >&2
  exit 1
fi

echo "==> source guard (no extension nothing runs, no plan override, no threshold flag)"
if git grep -nE 'trinomial|price_bermudan|up_and_out_call|up_and_in_call|lookback_call|with_slo|set_override|parse_overrides|BadOverride|FINBENCH_PLAN|--threshold' -- crates tests examples; then
  echo "no rung, lane or example runs those pricers or builders; a plan depends only on the architecture and the kernel; bench-compare gates on DEFAULT_THRESHOLD_PCT" >&2
  exit 1
fi

echo "==> source guard (telemetry always records and only counts up: no filter, no reset)"
if git grep -nE 'FINBENCH_LOG|set_filter|reset_metrics|filter::|Kind::(Span|Counter)' -- crates tests examples; then
  echo "every span, counter and gauge records; a reader takes counter_snapshot() before and after and reads the difference" >&2
  exit 1
fi

echo "==> source guard (a fault plan is built in code; one spelling per command)"
if git grep -nE 'FINBENCH_FAULTS|from_env|FaultPlan::parse|parse_duration|(serve|chaos|greeks|portfolio)-bench|--trials' -- crates tests examples; then
  echo "a FaultPlan is built with FaultSpec's builders, never read from the environment; an experiment runs as \`finbench run <id>\`; bench-report's trial count is fixed by its mode" >&2
  exit 1
fi

echo "==> source guard (one math body: no generic or vector twin of a transcendental)"
if git grep -nwE 'exp_r|ln_r|norm_cdf_r|erf_r|inv_norm_cdf_r|polevl_r|vpolevl' -- crates tests; then
  echo "exp, ln, norm_cdf, erf and inv_norm_cdf are written once, over finbench_math::Lanes" >&2
  exit 1
fi

echo "==> ISA dispatch is on"
# A host that advertises AVX2+FMA must not run the portable instantiation:
# that is dispatch silently off, and every rate below an SSE2 rate.
isa_line=$(./target/release/finbench list 2>&1 >/dev/null | grep '^isa:') ||
  { echo "finbench list printed no isa: line" >&2; exit 1; }
echo "--> $isa_line"
if grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo && [[ $isa_line == "isa: portable"* ]]; then
  echo "/proc/cpuinfo advertises avx2+fma but the binary reports '$isa_line'" >&2
  exit 1
fi

echo "==> packed-code gate (SIMD-labelled sweeps are vector code at the active tier)"
./packed_check.sh target/release/finbench

echo "==> finbench gate (serve, chaos, greeks, portfolio, bench-report: one JSON verdict per line)"
./target/release/finbench gate --quick

echo "==> regression-gate self-test (the comparator must fire on a degraded snapshot)"
./target/release/finbench bench-compare --self-test "$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)"

echo "==> examples (quick mode)"
cargo build --release --examples
for ex in quickstart portfolio_pricing american_options asian_option_mc ninja_gap_report qmc_convergence; do
  echo "--> example: $ex"
  cargo run --release -q --example "$ex" > /dev/null
done

echo "==> fmt, clippy"
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
