#!/usr/bin/env bash
# CLI and bench smokes at the size limits, run by the tier1 workflow one
# step at a time and runnable locally as a whole.
#
#   ci/smoke.sh [large-search|verify|size-limit|simulate|bench|all]
#
# Run from the root of a checkout. Each command has a 60 s bound; a step
# fails on the first command that fails or runs past it.
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

# Every report must read leakage 0, the whole distribution of the
# reference backend's search for the same omega, a success probability
# within 1e-13 of sin^2((2k+1) asin(2^(-n/2))) for its k iterations, and one
# value on all 2^n - 1 unmarked outcomes. Every backend runs the same search
# once its compiled ladder verifies as exactly the multi-controlled Z, so the
# comparison with the reference shows only that each ladder was admitted.
# The search iterates the marked amplitude and the one all unmarked outcomes
# share, so the single unmarked value holds by construction; the analytic
# formula, here also after one full period (202 iterations at n = 14, the
# longest count grover admits), and TestSearchMatchesTheCircuit, which runs
# the circuit gate by gate, are the checks of the search itself.
large_search() {
  for method in reference qubit qutrit ququint; do
    timeout 60 python -m ququint grover --n 14 --method "$method" --omega 10101010101010 --report json > "$tmp/n14-$method.json"
  done
  timeout 60 python -m ququint grover --n 13 --method reference --omega 1010101010101 --report json > "$tmp/n13-reference.json"
  timeout 60 python -m ququint grover --n 13 --method ququint --odd-variant neighbor --omega 1010101010101 --report json > "$tmp/n13-ququint.json"
  timeout 60 python -m ququint grover --n 14 --method reference --omega 10101010101010 --iterations 202 --report json > "$tmp/n14-period.json"
  python - "$tmp" <<'PY'
import json
import math
import sys
from pathlib import Path

tmp = Path(sys.argv[1])


def check_search(n, method, report):
    k = report["iterations"]
    analytic = math.sin((2 * k + 1) * math.asin(2 ** (-n / 2))) ** 2
    if abs(report["successProbability"] - analytic) > 1e-13:
        sys.exit(
            f"n={n} {method}: success probability {report['successProbability']!r} "
            f"after {k} iterations, analytic {analytic!r}"
        )
    unmarked = {p for x, p in report["distribution"].items() if x != report["omega"]}
    if len(unmarked) != 1:
        sys.exit(f"n={n} {method}: the unmarked outcomes read {len(unmarked)} values, not one")


for n, methods in ((14, ("qubit", "qutrit", "ququint")), (13, ("ququint",))):
    reference = json.loads((tmp / f"n{n}-reference.json").read_text())
    for method in ("reference",) + methods:
        report = json.loads((tmp / f"n{n}-{method}.json").read_text())
        if report["leakage"] != 0 or report["distribution"] != reference["distribution"]:
            differ = [k for k, p in report["distribution"].items() if p != reference["distribution"][k]]
            sys.exit(
                f"n={n} {method}: leakage {report['leakage']}, {len(differ)} outcomes differ "
                f"from the reference, first {differ[:1]}"
            )
        check_search(n, method, report)
    print(
        f"n={n}: {', '.join(methods)} match the reference with zero leakage, the analytic "
        "success and one unmarked value"
    )
period = json.loads((tmp / "n14-period.json").read_text())
if period["iterations"] != 202 or period["leakage"] != 0:
    sys.exit(f"n=14 period: {period['iterations']} iterations, leakage {period['leakage']}")
check_search(14, "reference", period)
print("n=14: reference after one period (202 iterations) reads the analytic success")
PY
}

# Every sweep must check 16384 inputs: 2^14 at n = 14, and 2^13 times two
# bystander values on the n = 13 neighbor layout, so a block loop that drops
# or repeats a block fails here even where the error reads 0. A Grover
# search runs a compiled ladder only when it verifies with error and leakage
# exactly 0, so the phase-gate sweeps must read exactly that, on n = 14 and
# on the n = 13 neighbor layout the large search runs. The inversions keep
# their target's Hadamards and read rounding (2.2e-16). Without
# --exhaustive, verify checks 64 sampled inputs; at n = 14 and 22 these are
# the only CLI sweeps whose inputs reach the encoder's high bits (x >= 2^10)
# as an arbitrary subset, so they must read exactly 0 too. On the neighbor
# layout at n = 13 and 21 the same 64 inputs run with both bystander values
# (128 checked): the only CLI sweeps where an arbitrary subset reaches the
# high bits and the bystander interleave together.
checked_verify() {
  local pattern="$1" out
  shift
  out="$(timeout 60 python -m ququint verify "$@")"
  echo "$out"
  case "$out" in
    $pattern) ;;
    *) echo "verify $*: output does not match $pattern" >&2; return 1 ;;
  esac
}

verify() {
  local exact="inputs_checked=16384 max_amplitude_error=0.000e+00 max_leakage=0.000e+00*"
  for method in qubit qutrit ququint; do
    checked_verify "$exact" --n 14 --method "$method" --exhaustive
    checked_verify "inputs_checked=16384 *" --n 14 --method "$method" --exhaustive --target x:13
  done
  checked_verify "$exact" --n 13 --method ququint --odd-variant neighbor --exhaustive
  local sampled="inputs_checked=64 max_amplitude_error=0.000e+00 max_leakage=0.000e+00*"
  for method in qubit qutrit ququint; do
    checked_verify "$sampled" --n 14 --method "$method"
  done
  checked_verify "$sampled" --n 22 --method ququint
  sampled="inputs_checked=128 max_amplitude_error=0.000e+00 max_leakage=0.000e+00*"
  for n in 13 21; do
    checked_verify "$sampled" --n "$n" --method ququint --odd-variant neighbor
  done
}

size_limit() {
  local code size
  for method in reference qubit qutrit ququint; do
    code=0
    timeout 60 python -m ququint grover --n 15 --method "$method" --omega 101010101010101 || code=$?
    test "$code" -eq 2
  done
  # verify obeys only the register budget: each method's first size whose
  # ladder register does not fit 2^26
  for size in 15:qubit 17:qutrit 23:ququint; do
    code=0
    timeout 60 python -m ququint verify --n "${size%:*}" --method "${size#*:}" --exhaustive || code=$?
    test "$code" -eq 2
  done
}

# The n = 14 --probs table is the header, all 2^14 bitstrings in index order
# and then leakage. The phase ladder keeps the all-ones input in place, so
# that bitstring must read 1, and every other line, leakage included, 0.
check_probs_table() {
  local table="$1"
  if [ "$(wc -l < "$table")" -ne 16386 ]; then
    echo "simulate --probs: $(wc -l < "$table") lines, expected 16386" >&2; return 1
  fi
  if [ "$(grep -v ',0$' "$table")" != $'outcome,probability\n11111111111111,1' ]; then
    echo "simulate --probs: lines not ending in ,0 other than the header and 1...1:" >&2
    grep -v ',0$' "$table" | head -5 >&2; return 1
  fi
  if [ "$(sed -n 2p "$table")" != "00000000000000,0" ] \
    || [ "$(sed -n 16385p "$table")" != "11111111111111,1" ] \
    || [ "$(tail -n 1 "$table")" != "leakage,0" ]; then
    echo "simulate --probs: the table is not in index order, then leakage,0" >&2; return 1
  fi
  echo "simulate --probs: 16386 lines, 11111111111111,1, leakage,0"
}

simulate() {
  local doc="$tmp/q14.json" big="$tmp/q22.json"
  timeout 60 python -m ququint decompose --n 14 --method qubit --out "$doc"
  timeout 60 python -m ququint simulate "$doc" --input 11111111111111 --probs > "$tmp/q14-probs.csv"
  check_probs_table "$tmp/q14-probs.csv"
  timeout 60 python -m ququint simulate "$doc" --input 11111111111111 --shots 1000 --seed 1
  # the largest ququint document (n = 22, 5^11 amplitudes): --shots reads
  # out only the bitstrings its rows reach, here one
  timeout 60 python -m ququint decompose --n 22 --method ququint --out "$big"
  timeout 60 python -m ququint simulate "$big" --input 1111111111111111111111 --shots 1000 --seed 1
  # whatever decompose writes, verify accepts: all 2^22 inputs, exactly
  checked_verify $'inputs_checked=4194304 max_amplitude_error=0.000e+00 max_leakage=0.000e+00\nPASS' \
    --circuit "$big" --exhaustive
}

# Each workload runs traced, then untraced: the untraced run is the one the
# end-to-end metrics come from, so its last line must read "correct": true
# and "failed": 0.
bench() {
  local code
  for workload in grover-backends verify-sweep cli-roundtrip; do
    python3 bench/run.py --workload "$workload" --seed 1 --seconds 4 --trace 1
    code=0
    python3 bench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 > "$tmp/bench.out" || code=$?
    cat "$tmp/bench.out"
    case "$(tail -n 1 "$tmp/bench.out")" in
      '{"correct": true, '*'"failed": 0, '*) ;;
      *) echo "bench $workload --trace 0: the last line does not read \"correct\": true and \"failed\": 0" >&2; return 1 ;;
    esac
    test "$code" -eq 0
  done
}

case "${1:-all}" in
  large-search) large_search ;;
  verify) verify ;;
  size-limit) size_limit ;;
  simulate) simulate ;;
  bench) bench ;;
  all) large_search; verify; size_limit; simulate; bench ;;
  *) echo "usage: $0 [large-search|verify|size-limit|simulate|bench|all]" >&2; exit 2 ;;
esac
