#!/usr/bin/env bash
# Is a sweep the ladder labels SIMD actually packed code?
#
# `isa_fn!` instantiates every sweep body for the host's ISA tier, but an
# instantiation is only vector code if LLVM packed its `[f64; N]` lane loops,
# and nothing else checks that it did (PR 13 shipped a Monte-Carlo sweep whose
# AVX-512 body was 331 scalar and 6 zmm operations). This disassembles a
# release binary and, for every `isa_fn!` shim in it, counts the
# double-precision arithmetic in the `run_<tier>` instantiation(s) the shim
# dispatches to: packed (`…pd` on ymm/zmm; xmm pairs do not count) against
# scalar (`…sd`), and beside them — advisory, never gated — how many of the
# packed operations are `vdivpd` / `vsqrtpd`: the divider is not pipelined, so
# a dependent chain of them sets a sweep's rate whatever else is packed (PR 19
# took twelve out of `vnorm_cdf`'s far tail). It prints the table for every
# shim and fails when a *gated* sweep has no instantiation with at least as
# many packed as scalar operations (a W=1 instantiation is scalar by design and
# a ragged tail always is, so the sweep's best instantiation is the one judged),
# or is not in the binary at all (renamed, or no longer dispatched).
# Deterministic: no timing, nothing run but `<binary> list`.
#
# usage: packed_check.sh [path/to/finbench]
set -euo pipefail
bin="${1:-target/release/finbench}"

# Shim symbols, as `objdump -C` prints them, that must be packed code.
gated='monte_carlo::simd::paths_streamed_simd
monte_carlo::simd::paths_antithetic
black_scholes::soa::price_soa_simd_into
black_scholes::soa::price_soa_simd_erf_parity_into
greeks::fused::price_and_greeks_into
portfolio::revalue_rows
greeks::greeks_batch_simd
brownian_bridge::simd::build_group_in_place
crank_nicolson::wavefront::psor_pass
mt19937_64::fill_block
batch::inv_norm_cdf_guess
batch::inv_norm_cdf_polish
batch::vd_exp
batch::vd_ln
batch::vd_erf'

if ! command -v objdump > /dev/null; then
  echo "--> objdump not found; packed-code check skipped"
  exit 0
fi
case "$("$bin" list 2>&1 > /dev/null | grep '^isa:' || true)" in
  "isa: avx512"*) wrapper=run_avx512 reg='[yz]mm' ;;
  "isa: avx2+fma"*) wrapper=run_avx2_fma reg=ymm ;;
  *)
    echo "--> no tier above portable on this host; packed-code check skipped"
    exit 0
    ;;
esac

dis=$(mktemp -t finbench_dis_XXXXXX)
trap 'rm -f "$dis"' EXIT
objdump -d --no-show-raw-insn -C "$bin" > "$dis"

# Pass 1: the `run_<tier>` instantiation (by address) each function reaches,
# directly or through an out-of-line `isa::dispatch`.
# Pass 2: the arithmetic inside those instantiations.
awk -v wrapper="$wrapper" -v reg="$reg" -v gated="$gated" '
  BEGIN {
    ngated = split(gated, g, "\n")
    arith = "(add|sub|mul|div|max|min|sqrt|rndscale|round|fn?m(add|sub)[0-9]+)"
    to_tier = "(call|jmp) +[0-9a-f]+ <finbench_simd::isa::" wrapper ">$"
    to_dispatch = "(call|jmp) +[0-9a-f]+ <finbench_simd::isa::dispatch>$"
  }
  /^[0-9a-f]+ <.*>:$/ {
    fn = $0
    sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
    addr = $1; sub(/^0+/, "", addr)
    counting = (FNR != NR && addr in body)
    next
  }
  FNR == NR {
    if ($0 ~ to_tier) {
      if (!((addr, $(NF - 1)) in edge)) tier[addr] = tier[addr] " " $(NF - 1)
      edge[addr, $(NF - 1)] = 1
      body[$(NF - 1)] = 1
    }
    else if ($0 ~ to_dispatch) via[addr] = $(NF - 1)
    else next
    if (!(addr in name) && fn !~ /^finbench_simd::isa::/) shim[++n] = addr
    name[addr] = fn
    next
  }
  counting {
    if ($0 ~ ("\tv" arith "pd ") && $0 ~ reg) {
      packed[addr]++
      if ($0 ~ /\tv(div|sqrt)pd /) divider[addr]++
    }
    else if ($0 ~ ("\tv" arith "sd ")) scalar[addr]++
  }
  END {
    printf "    %-64s %8s %8s %8s\n", "sweep (its " wrapper " instantiation)", "packed", "scalar", "div+sqrt"
    for (i = 1; i <= n; i++) {
      a = shim[i]
      p = 0; s = 0; d = 0
      m = split((a in tier) ? tier[a] : tier[via[a]], b, " ")
      for (j = 1; j <= m; j++) { p += packed[b[j]]; s += scalar[b[j]]; d += divider[b[j]] }
      for (k = 1; k <= ngated; k++)
        if (index(name[a], g[k])) { seen[k] = 1; if (p >= s && p > 0) ok[k] = 1 }
      printf "    %-64s %8d %8d %8d\n", name[a] " @" a, p, s, d
    }
    bad = 0
    for (k = 1; k <= ngated; k++)
      if (!(k in seen)) { printf "    %s: not in the binary\n", g[k]; bad = 1 }
      else if (!(k in ok)) { printf "    %s: NOT PACKED (no instantiation with packed >= scalar)\n", g[k]; bad = 1 }
    exit bad
  }
' "$dis" "$dis" || {
  echo "a gated sweep is not packed code at this tier (see the table above)" >&2
  exit 1
}
