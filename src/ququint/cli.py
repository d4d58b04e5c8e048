"""Command-line surface: decompose, verify, simulate, grover, count.

Machine-readable payloads go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import StateVector, _propagate_sparse, _sample_counts
from .counts import count_table, emit_report
from .decompose import (
    METHODS,
    DecompositionRequest,
    _plan,
    decompose_cnz,
    verify_decomposition,
)
from .embedding import ODD_VARIANTS, OutcomeView, _parse_bits
from .grover import BACKENDS, GroverSpec, run_grover
from .serialize import CircuitDocument, _as_pair, _parse_json, load_document, save_document

_SAMPLE_INPUTS = 64  # non-exhaustive verify checks this many basis inputs


def _parse_target(text: str) -> int | None:
    if text == "z":
        return None
    if text.startswith("x:"):
        return int(text[2:])
    raise ValueError(f"target must be 'z' or 'x:<index>', got {text!r}")


def _load_document_file(path: str) -> CircuitDocument:
    return load_document(Path(path).read_text(encoding="utf-8"))


def _check_odd_variant(args) -> None:
    if args.odd_variant == "neighbor" and (args.method != "ququint" or args.n % 2 == 0):
        raise ValueError("--odd-variant neighbor applies only to --method ququint with odd n")


def cmd_decompose(args) -> int:
    _check_odd_variant(args)
    request = DecompositionRequest(
        args.n, args.method, args.odd_variant, _parse_target(args.target)
    )
    result = decompose_cnz(request)
    text = save_document(
        CircuitDocument(result.circuit, result.embedding, request.target_qubit)
    )
    summary = (
        f"two_particle_gates={result.two_particle_gate_count} "
        f"ancilla_systems={result.ancilla_systems}"
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _sample_bitstrings(n: int) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(0)
    picks = {(0,) * n, (1,) * n}
    while len(picks) < min(2**n, _SAMPLE_INPUTS):
        picks.add(tuple(int(b) for b in rng.integers(0, 2, size=n)))
    return sorted(picks)


def cmd_verify(args) -> int:
    if args.circuit:
        result = _load_document_file(args.circuit)
        if result.embedding is None:
            raise ValueError("document has no embedding; nothing to verify against")
        for flag in ("n", "method", "odd_variant", "target"):
            if getattr(args, flag) is not None:
                name = flag.replace("_", "-")
                raise ValueError(f"--{name} does not apply to --circuit; a document names its own")
        target = result.target_qubit
    elif args.n is None or args.method is None:
        raise ValueError("either --circuit or both --n and --method are required")
    else:
        _check_odd_variant(args)
        result, target = None, _parse_target("z" if args.target is None else args.target)
    if result is None:
        variant = args.odd_variant or "single"
        result = decompose_cnz(DecompositionRequest(args.n, args.method, variant, target))
    n = result.embedding.qubit_count
    subset = None if (args.exhaustive or 2**n <= _SAMPLE_INPUTS) else _sample_bitstrings(n)
    report = verify_decomposition(result, target_qubit=target, bits_subset=subset)
    print(
        f"inputs_checked={report.inputs_checked} "
        f"max_amplitude_error={report.max_amplitude_error:.3e} "
        f"max_leakage={report.max_leakage:.3e}"
    )
    if report.passed():
        print("PASS")
        return 0
    print(f"FAIL input={report.worst_input}")
    return 1


def _start_rows(args, document: CircuitDocument) -> tuple[np.ndarray, np.ndarray]:
    """The table the run starts from, as ``(flat index, amplitude)`` rows:
    one row for ``--input``, the nonzero amplitudes of a ``--state`` file."""
    register = document.circuit.register
    if args.input is not None:
        emap = document.embedding
        if emap is not None:
            index = emap.encode(_parse_bits(args.input, emap.qubit_count))
        else:  # levels, one digit per site or comma-separated as printed
            listed = "," in args.input or register.num_sites == 1
            tokens = args.input.split(",") if listed else list(args.input)
            if not all(t.isascii() and t.isdigit() for t in tokens):
                raise ValueError(
                    "--input without an embedding takes one level digit per site "
                    f"or comma-separated levels, got {args.input!r}"
                )
            index = register.index(tuple(int(t) for t in tokens))
        return np.array([index]), np.ones(1)
    payload = _parse_json(Path(args.state).read_text(encoding="utf-8"), "state file")
    if not isinstance(payload, dict) or not isinstance(payload.get("amplitudes"), list):
        raise ValueError('state file must be a JSON object with an "amplitudes" list')
    amps = [_as_pair(z, "state file amplitude") for z in payload["amplitudes"]]
    state = StateVector(register, amps)  # checks the length and the norm
    live = np.flatnonzero(state.amplitudes)
    return live, state.amplitudes[live]


def _outcome_table(
    document: CircuitDocument, keys: np.ndarray, amps: np.ndarray
) -> tuple[list[str], list[float]]:
    """Outcomes of the live rows and their probabilities: with an
    embedding, the qubit bitstrings the rows reach, sorted, then
    ``leakage``; without one, the level label of each row, in index order.
    Each bitstring's weight sums its rows in row order."""
    probs = np.abs(amps) ** 2
    emap = document.embedding
    if emap is None:
        register = document.circuit.register
        return [register.label_str(int(k)) for k in keys], probs.tolist()
    outcome, computational = emap.decode(keys)
    live, bins = np.unique(outcome[computational], return_inverse=True)
    weights = np.bincount(bins, weights=probs[computational], minlength=len(live))
    n = emap.qubit_count
    outcomes = [format(x, f"0{n}b") for x in live.tolist()]
    return outcomes + ["leakage"], weights.tolist() + [float(probs[~computational].sum())]


def cmd_simulate(args) -> int:
    document = _load_document_file(args.circuit)
    circuit = document.circuit
    keys, amps = _propagate_sparse(
        circuit.register, _plan(circuit.register, circuit.gates), *_start_rows(args, document)
    )
    emap = document.embedding
    if args.probs and emap is not None:  # every bitstring in index order, then leakage
        probs = np.abs(amps) ** 2
        outcome, ok = emap.decode(keys)  # ok: on computational levels
        table = np.bincount(outcome[ok], weights=probs[ok], minlength=2**emap.qubit_count)
        print("outcome,probability")
        for label, prob in zip(OutcomeView(table), table.tolist()):
            print(f"{label},{prob:.12g}")
        print(f"leakage,{float(probs[~ok].sum()):.12g}")
        return 0
    outcomes, probs = _outcome_table(document, keys, amps)
    if args.shots is not None:
        # each entry (leakage included) holds the total weight of the register
        # outcomes it stands for, so one draw over the table has the
        # distribution of register samples read out; an outcome no row
        # reaches has weight 0 and draws nothing, so it needs no entry
        counts = _sample_counts(probs, args.seed, args.shots)
        print("outcome,count")
        for outcome, count in zip(outcomes, counts):
            if count:
                print(f"{outcome},{count}")
        return 0
    print("outcome,probability")
    for outcome, prob in zip(outcomes, probs):
        if prob > 1e-12:
            print(f"{outcome},{prob:.12g}")
    return 0


def cmd_grover(args) -> int:
    _check_odd_variant(args)
    iterations = "auto" if args.iterations == "auto" else int(args.iterations)
    spec = GroverSpec(args.n, args.omega, args.method, iterations, args.odd_variant)
    report = run_grover(spec)
    if args.report == "json":
        payload = {
            "n": report.n,
            "omega": report.omega,
            "method": report.method,
            "iterations": report.iterations,
            "successProbability": report.success_probability,
            "topOutcome": report.top_outcome,
            "twoParticleGateCount": report.two_particle_gate_count,
            "leakage": report.leakage,
            "distribution": dict(report.distribution.items()),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"n={report.n} omega={report.omega} method={report.method}")
        print(f"iterations={report.iterations}")
        print(f"success_probability={report.success_probability:.12g}")
        print(f"top_outcome={report.top_outcome}")
        print(f"two_particle_gate_count={report.two_particle_gate_count}")
        print(f"leakage={report.leakage:.3e}")
    return 0


def cmd_count(args) -> int:
    try:
        low, high = args.n_range.split("..")
        n_min, n_max = int(low), int(high)
    except ValueError:
        raise ValueError(f"--n-range expects A..B, got {args.n_range!r}") from None
    report = count_table(n_min, n_max, args.odd_variant)
    data = emit_report(report, args.format)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ququint",
        description="Qudit circuit toolkit: multi-controlled gate ladders, "
        "state-vector simulation, Grover runs, gate-count reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="compile a multi-controlled gate to a circuit document")
    p.add_argument("--n", type=int, required=True, help="number of qubits (>= 2)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--odd-variant", default="single", choices=ODD_VARIANTS)
    p.add_argument("--target", default="z", help="'z' for the phase gate, 'x:<idx>' for an inversion target")
    p.add_argument("--out", help="write the document here (default: stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "verify",
        help="check a circuit against the multi-controlled phase action "
        "(sign flip on all-ones, identity elsewhere), or against the "
        "controlled inversion a document's targetQubit names",
    )
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--odd-variant", choices=ODD_VARIANTS, help="with --n/--method (default: single)")
    p.add_argument(
        "--target",
        help="with --n/--method: 'z' (default) for the phase gate, 'x:<idx>' for an "
        "inversion target",
    )
    p.add_argument("--circuit", help="verify this document instead of compiling one")
    p.add_argument("--exhaustive", action="store_true", help="sweep all 2^n basis inputs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a circuit document on a basis input or state file")
    p.add_argument("circuit", help="circuit document to run")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input",
        help="qubit bitstring (without an embedding: one level digit per site, "
        "or comma-separated levels)",
    )
    source.add_argument("--state", help="JSON state file with an amplitudes list of [re, im] pairs")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--probs", action="store_true", help="print exact probabilities")
    mode.add_argument("--shots", type=int, help="sample this many measurements")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --shots")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grover", help="run a full search instance and report the outcome")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--omega", required=True, help="hidden bitstring of length n")
    p.add_argument("--method", default="reference", choices=BACKENDS)
    p.add_argument("--iterations", default="auto", help="'auto' or an explicit count")
    p.add_argument("--odd-variant", default="single", choices=ODD_VARIANTS)
    p.add_argument("--report", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_grover)

    p = sub.add_parser("count", help="emit the per-method gate-count table")
    p.add_argument("--n-range", required=True, help="inclusive range A..B with 2 <= A <= B <= 30")
    p.add_argument("--odd-variant", default="single", choices=ODD_VARIANTS)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out", help="write bytes here (default: stdout)")
    p.set_defaults(func=cmd_count)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process; parsing leaves it
    unchanged, so every later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_exit() -> None:
    sys.exit(main())
