#!/usr/bin/env bash
# Full local CI gate: build, test, format, lint. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> standalone benchmark runner (the one consumer outside the workspace)"
# benchmark/ is its own package on path dependencies, so nothing above
# compiles it; it must keep building against the serving plane's public API.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> telemetry registry tests, 20x back to back"
# Two tests in this binary share the process-global span registry and one
# of them drains it; they serialize on a lock. An unserialized pair failed
# about 1 run in 30, so one pass proves little and twenty cost under a second.
telemetry_bin=$(cargo test -p finbench-telemetry --test integration --no-run 2>&1 |
  sed -n 's/.*Executable.*(\(.*\))$/\1/p')
if [ ! -x "$telemetry_bin" ]; then
  echo "could not locate the finbench-telemetry integration test binary" >&2
  exit 1
fi
for _ in $(seq 20); do
  "$telemetry_bin" -q > /dev/null || {
    echo "finbench-telemetry integration tests failed on a repeat run" >&2
    exit 1
  }
done

echo "==> serving-plane suites, 5x back to back at default parallelism"
# A fault plan is owned by the server started with it, so no test in these
# binaries takes a lock. A test that only passed while a lock gave it the
# machine shows up here, on the vCPUs it shares with its neighbours.
serve_bins=$({
  cargo test -p finbench-serve --lib --no-run 2>&1
  cargo test -p finbench --test chaos_equivalence --test supervision \
    --test batching_equivalence --no-run 2>&1
} | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
if [ "$(echo "$serve_bins" | grep -c .)" -ne 4 ]; then
  echo "could not locate the four serving-plane test binaries" >&2
  exit 1
fi
for _ in $(seq 5); do
  for bin in $serve_bins; do
    "$bin" -q > /dev/null || {
      echo "$bin failed on a repeat run" >&2
      exit 1
    }
  done
done

echo "==> source guard (no process-global fault registry, no fault locks)"
if git grep -nE 'faults_(lock|quiet)|test_support|PlanGuard|chaos_lock|install_from_env|faults::(install|disarm|armed|fire|report)' -- crates tests examples; then
  echo "the fault registry or one of its test locks is back: a plan belongs to the Server started with it" >&2
  exit 1
fi

echo "==> engine registry consistency"
cargo test -q -p finbench --test engine_plane
cargo test -q -p finbench-core --lib engine::

echo "==> ISA dispatch (tiers bit-identical to portable; dispatch actually on)"
cargo test -q -p finbench --test isa_identity
# A host that advertises AVX2+FMA must not be running the portable
# instantiation: that is the dispatch silently switched off, and every
# rate below would be an SSE2 rate.
isa_line=$(cargo run --release -q -p finbench-harness --bin finbench -- list 2>&1 >/dev/null | grep '^isa:' || true)
echo "--> ${isa_line:-no isa: line}"
if [ -z "$isa_line" ]; then
  echo "finbench list printed no isa: line" >&2
  exit 1
fi
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
  case "$isa_line" in
    "isa: portable"*)
      echo "/proc/cpuinfo advertises avx2+fma but the binary reports '$isa_line'" >&2
      exit 1
      ;;
  esac
fi

echo "==> packed-code gate (SIMD-labelled sweeps are vector code at the active tier)"
./packed_check.sh target/release/finbench

echo "==> serve-bench smoke gate (zero shed + shard scaling)"
serve_out=$(cargo run --release -q -p finbench-harness --bin finbench -- serve-bench --quick)
echo "$serve_out" | tail -3
echo "$serve_out" | grep -q "total shed: 0" || {
  echo "serve-bench shed requests under a zero-shed configuration" >&2
  exit 1
}
# The sharded tier must demonstrate closed-loop scaling. Real speedup
# needs real parallelism: the sweep runs 8 client threads against the
# workers, and a work-conserving worker is CPU-bound, not timer-bound, so
# a second shard only helps when it gets a core of its own beside the
# clients (2 cores: 1.13x while workers slept out max_delay, 0.7x now
# that one worker alone serves 5x more). Enforce the 2-shard >= 1.3x
# ratio on hosts with >= 4 cores; on smaller boxes just require that the
# sweep ran (the shed gate above already covers its correctness).
scaling_line=$(echo "$serve_out" | grep "shard scaling 1->2:" || true)
if [ -z "$scaling_line" ]; then
  echo "serve-bench did not run the shard-scaling sweep" >&2
  exit 1
fi
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  speedup=$(echo "$scaling_line" | sed -n 's/.*: \([0-9.]*\)x/\1/p')
  awk -v s="$speedup" 'BEGIN { exit !(s >= 1.3) }' || {
    echo "shard scaling 1->2 below 1.3x on a ${cores}-core host: ${speedup}x" >&2
    exit 1
  }
  echo "--> shard scaling 1->2: ${speedup}x (>= 1.3x on ${cores} cores)"
else
  echo "--> ${cores}-core host: shard-scaling ratio check skipped (${scaling_line#"${scaling_line%%[![:space:]]*}"})"
fi

echo "==> chaos gate (faults degrade, never corrupt; shard kill survivable)"
chaos_out=$(cargo run --release -q -p finbench-harness --bin finbench -- chaos-bench --quick)
echo "$chaos_out" | grep -E "corrupted prices|degraded batches|shard-kill"
echo "$chaos_out" | grep -q "corrupted prices: 0" || {
  echo "chaos-bench found corrupted prices under fault injection" >&2
  exit 1
}
if echo "$chaos_out" | grep -q "degraded batches: 0"; then
  echo "chaos-bench never exercised the degradation ladder (degraded batches: 0)" >&2
  exit 1
fi
# Killing one of two shards must leave a serving survivor and keep
# availability above the SLO floor: the router reroutes, it never
# corrupts (the zero-corruption grep above covers the kill plan too).
echo "$chaos_out" | grep -q "shard-kill survivors: 1/2 shards alive" || {
  echo "chaos-bench shard-kill plan did not leave exactly one survivor" >&2
  exit 1
}
kill_avail=$(echo "$chaos_out" | sed -n 's/.*shard-kill availability: \([0-9.]*\)%.*/\1/p')
awk -v a="$kill_avail" 'BEGIN { exit !(a >= 90.0) }' || {
  echo "shard-kill availability ${kill_avail}% below the 90% floor" >&2
  exit 1
}
# Self-healing: the rolling-kill plan must see the supervisor respawn
# every killed seat, and the healed fleet must serve >= 99% of the
# post-recovery drive (the zero-corruption grep above covers both
# phases of the rolling panel too).
echo "$chaos_out" | grep "rolling-kill"
respawns=$(echo "$chaos_out" | sed -n 's/.*rolling-kill respawns: \([0-9]*\).*/\1/p')
if [ -z "$respawns" ] || [ "$respawns" -lt 1 ]; then
  echo "chaos-bench rolling-kill plan saw no supervised respawns" >&2
  exit 1
fi
heal_avail=$(echo "$chaos_out" | sed -n 's/.*rolling-kill post-recovery availability: \([0-9.]*\)%.*/\1/p')
awk -v a="$heal_avail" 'BEGIN { exit !(a >= 99.0) }' || {
  echo "post-recovery availability ${heal_avail}% below the 99% floor" >&2
  exit 1
}

echo "==> greeks gate (bump agreement + zero shed on the greeks lane)"
greeks_out=$(cargo run --release -q -p finbench-harness --bin finbench -- greeks-bench --quick)
echo "$greeks_out" | grep -E "bump agreement|total shed"
echo "$greeks_out" | grep -q "bump agreement: OK" || {
  echo "greeks-bench: bump-and-reprice disagrees with the analytic greeks" >&2
  exit 1
}
echo "$greeks_out" | grep -q "total shed: 0" || {
  echo "greeks-bench shed requests under a zero-shed configuration" >&2
  exit 1
}

echo "==> portfolio gate (served fan-out bit-identical to native; VaR converges)"
portfolio_out=$(cargo run --release -q -p finbench-harness --bin finbench -- portfolio-bench --quick)
echo "$portfolio_out" | grep -E "portfolio replay|portfolio var check"
echo "$portfolio_out" | grep -q "portfolio replay: OK" || {
  echo "portfolio-bench: served fan-out P&L diverged from the native sweep" >&2
  exit 1
}
echo "$portfolio_out" | grep -q "portfolio var check: OK" || {
  echo "portfolio-bench: VaR estimates did not converge to the reference grid" >&2
  exit 1
}

echo "==> perf-regression gate (bench-report vs committed trajectory)"
# Compare a fresh quick snapshot against the latest committed BENCH_<n>.json.
# Gated metrics (non-threaded rung medians, serve shed, allocs/iter) fail CI
# past the threshold; latency/peak metrics are advisory. Override with e.g.
# FINBENCH_BENCH_THRESHOLD=15 on noisy machines.
bench_threshold="${FINBENCH_BENCH_THRESHOLD:-10}"
latest_bench=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
bench_tmp=$(mktemp -t finbench_bench_XXXXXX.json)
trap 'rm -f "$bench_tmp"' EXIT
bench_out=$(cargo run --release -q -p finbench-harness --bin finbench -- bench-report --quick --out "$bench_tmp")
echo "$bench_out"

# Advisory, never fatal: rungs labelled SIMD that do not beat their scalar
# sibling by 1.5x under the active tier — ROADMAP item 3's "earns its name
# or leaves the ladder" list.
weak_simd=$(echo "$bench_out" | awk '/^ *simd-ratio / {
  split($5, a, "="); if (a[2] + 0 < 1.5) print "    " $2 "." $3 " = " a[2] "x of " substr($4, 9)
}')
if [ -n "$weak_simd" ]; then
  echo "--> advisory: SIMD-labelled rungs under 1.5x their scalar sibling (active tier):"
  echo "$weak_simd"
else
  echo "--> every SIMD-labelled rung is >= 1.5x its scalar sibling"
fi

echo "==> zero-alloc gate (steady-state serve batch paths)"
# Every pooled (steady-state serve) alloc lane must report exactly zero
# allocations per batch iteration: the *_into buffer-pool path promises
# an allocation-free hot loop, not just a cheap one.
alloc_gate_lines=$(echo "$bench_out" | grep 'alloc-gate' || true)
if [ -z "$alloc_gate_lines" ]; then
  echo "bench-report emitted no alloc-gate lines (counting allocator inactive?)" >&2
  exit 1
fi
echo "$alloc_gate_lines"
nonzero=$(echo "$alloc_gate_lines" | grep -v 'allocs_per_iter=0.0' || true)
if [ -n "$nonzero" ]; then
  echo "steady-state serve batch paths allocated:" >&2
  echo "$nonzero" >&2
  exit 1
fi
# Print the metric names a compare run flagged as REGRESSED.
regressed_metrics() {
  awk -F'|' '/REGRESSED/ { gsub(/ /, "", $2); print $2 }'
}
if [ -n "$latest_bench" ]; then
  echo "--> bench-compare $latest_bench vs fresh snapshot (threshold ${bench_threshold}%)"
  # Shared boxes have bursty noise windows that depress whole groups of
  # kernels at once; a real regression reproduces *on the same metric*,
  # noise lands somewhere else each time. Fail only when a second fresh
  # measurement flags an overlapping metric.
  rc1=0
  out1=$(cargo run --release -q -p finbench-harness --bin finbench -- \
    bench-compare "$latest_bench" "$bench_tmp" --threshold "$bench_threshold") || rc1=$?
  echo "$out1"
  if [ "$rc1" -eq 1 ]; then
    echo "--> gated regression on first measurement; re-measuring once to rule out ambient noise"
    cargo run --release -q -p finbench-harness --bin finbench -- bench-report --quick --out "$bench_tmp"
    rc2=0
    out2=$(cargo run --release -q -p finbench-harness --bin finbench -- \
      bench-compare "$latest_bench" "$bench_tmp" --threshold "$bench_threshold") || rc2=$?
    echo "$out2"
    if [ "$rc2" -eq 1 ]; then
      common=$(comm -12 <(echo "$out1" | regressed_metrics | sort) \
                        <(echo "$out2" | regressed_metrics | sort))
      if [ -n "$common" ]; then
        echo "persistent gated regressions (flagged in both measurements):" >&2
        echo "$common" >&2
        exit 1
      fi
      echo "--> regressions did not reproduce on the same metrics; ambient noise, gate passes"
    elif [ "$rc2" -ne 0 ]; then
      exit "$rc2"
    fi
  elif [ "$rc1" -ne 0 ]; then
    exit "$rc1"
  fi
else
  echo "--> no committed BENCH_<n>.json yet; skipping comparison"
fi

echo "==> regression-gate self-test (gate must fire on a degraded snapshot)"
cargo run --release -q -p finbench-harness --bin finbench -- \
  bench-compare --self-test "$bench_tmp" --threshold "$bench_threshold"

echo "==> examples (quick mode)"
cargo build --release --examples
for ex in quickstart portfolio_pricing american_options asian_option_mc ninja_gap_report qmc_convergence; do
  echo "--> example: $ex"
  FINBENCH_QUICK=1 cargo run --release -q --example "$ex" > /dev/null
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
