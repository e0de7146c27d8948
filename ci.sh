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
for _ in $(seq 5); do
  cargo test -q -p finbench-serve --lib
  cargo test -q -p finbench --test chaos_equivalence --test supervision \
    --test batching_equivalence --test rejection_taxonomy
done

echo "==> source guard (no process-global fault registry or second ledger, no test locks, no by-name hot-path metrics)"
if git grep -nE 'faults_(lock|quiet)|test_support|PlanGuard|chaos_lock|install_from_env|faults::(install|disarm|armed|fire|report)|StatsInner|lock_stats|serial_lock|LaneCounters' -- crates tests examples ||
  git grep -nE '(counter_add|gauge_set)\(' -- crates/serve/src/server.rs crates/rng/src crates/parallel/src crates/core/src crates/telemetry/src/span.rs; then
  echo "a fault plan and a metrics ledger belong to their Server: no global registry, no test lock; the serving path, span ring, rng, pool and kernels count through handles, never by name" >&2
  exit 1
fi

echo "==> source guard (no supervisor thread: a killed shard worker heals its own seat)"
if git grep -nE 'SupervisorPolicy|supervisor_loop|SupervisorCtx|finbench-serve-supervisor' -- crates tests examples; then
  echo "respawn is the killed worker's own loop; ServeConfig::respawn is its one setting" >&2
  exit 1
fi

echo "==> source guard (no merge thread: a portfolio fan-out joins where its last chunk lands)"
if git grep -nE 'merge_portfolio|PortfolioChunkResponse|finbench-portfolio-merge|stage_extra' -- crates tests; then
  echo "chunks answer into their request's PortfolioFanIn; each plane stages its own scratch through ServeWorkload::stage" >&2
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
  FINBENCH_QUICK=1 cargo run --release -q --example "$ex" > /dev/null
done

echo "==> fmt, clippy"
cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
