"""Command-line surface: decompose, verify, simulate, grover, count.

Machine-readable payloads go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import StateVector, _sample_counts, apply_circuit, measure_all
from .counts import count_table, emit_report
from .decompose import (
    METHODS,
    DecompositionRequest,
    DecompositionResult,
    decompose_cnz,
    verify_decomposition,
)
from .embedding import ODD_VARIANTS, embed_basis_state, read_out
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


def cmd_decompose(args) -> int:
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
        document = _load_document_file(args.circuit)
        if document.embedding is None:
            raise ValueError("document has no embedding; nothing to verify against")
        result = DecompositionResult(
            document.circuit,
            document.embedding,
            document.circuit.two_qudit_gate_count,
            0,
        )
        target = document.target_qubit
    elif args.n is None or args.method is None:
        raise ValueError("either --circuit or both --n and --method are required")
    else:
        result, target = None, None
    n = args.n if result is None else result.embedding.qubit_count
    if n > 10:  # refused before a ladder is compiled for nothing
        raise ValueError(f"verification sweeps support n <= 10, got n={n}")
    if result is None:
        result = decompose_cnz(DecompositionRequest(n, args.method, args.odd_variant))
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


def _initial_state(args, document: CircuitDocument) -> StateVector:
    register = document.circuit.register
    if args.input is not None:
        if document.embedding is not None:
            label = embed_basis_state(args.input, document.embedding)
        else:
            digits = [int(c) for c in args.input]
            label = tuple(digits)
        return StateVector.basis_state(register, label)
    payload = _parse_json(Path(args.state).read_text(encoding="utf-8"), "state file")
    if not isinstance(payload, dict) or not isinstance(payload.get("amplitudes"), list):
        raise ValueError('state file must be a JSON object with an "amplitudes" list')
    amps = [_as_pair(z, "state file amplitude") for z in payload["amplitudes"]]
    return StateVector(register, amps)


def cmd_simulate(args) -> int:
    document = _load_document_file(args.circuit)
    state = _initial_state(args, document)
    final = apply_circuit(state, document.circuit)
    if args.shots is not None:
        if document.embedding is None:
            histogram = measure_all(final, args.seed, args.shots)
        else:
            # each read-out entry (leakage included) holds the total weight
            # of the register outcomes that decode to it, so one draw over
            # the table has the distribution of decoded register samples
            table = read_out(final.probabilities(), document.embedding)
            outcomes = sorted(table.probabilities) + ["leakage"]
            weights = [table.probabilities[o] for o in outcomes[:-1]] + [table.leakage]
            counts = _sample_counts(weights, args.seed, args.shots)
            histogram = {o: int(c) for o, c in zip(outcomes, counts) if c}
        print("outcome,count")
        for outcome, count in histogram.items():
            print(f"{outcome},{count}")
        return 0
    if document.embedding is not None:
        table = read_out(final.probabilities(), document.embedding)
        print("outcome,probability")
        for outcome in sorted(table.probabilities):
            print(f"{outcome},{table.probabilities[outcome]:.12g}")
        print(f"leakage,{table.leakage:.12g}")
    else:
        probs = final.probabilities()
        print("outcome,probability")
        for index in np.nonzero(probs > 1e-12)[0]:
            label = final.register.label_str(int(index))
            print(f"{label},{probs[index]:.12g}")
    return 0


def cmd_grover(args) -> int:
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
            "distribution": report.distribution,
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
    p.add_argument("--odd-variant", default="single", choices=ODD_VARIANTS)
    p.add_argument("--circuit", help="verify this document instead of compiling one")
    p.add_argument("--exhaustive", action="store_true", help="sweep all 2^n basis inputs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run a circuit document on a basis input or state file")
    p.add_argument("circuit", help="circuit document to run")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="qubit bitstring (or raw level digits without an embedding)")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_exit() -> None:
    sys.exit(main())
