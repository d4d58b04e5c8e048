"""The benchmark's workloads, each a generator of identical rounds.

A round is a fixed list of operations; only the seeded inputs (hidden
strings, basis inputs, inversion targets, state files) change from round to
round. Every operation carries its own correctness check against
:mod:`oracles`, so a run that finishes whole rounds always attempts the
same operations in the same proportions.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    """One timed operation of a round.

    Args:
        kind: Key that names the same operation in every round.
        group: Method whose per-round time the operation counts toward, or
            None for operations that use no compiled ladder.
        run: Performs the operation; returns (seconds, result).
        check: Problems with the result; an empty list means correct.
        known_fault: For the one operation that fails today because of a
            named fault: tells whether a failed result is that fault.
    """

    kind: str
    group: str | None
    run: Callable[[], tuple[float, object]]
    check: Callable[[object], list[str]]
    known_fault: Callable[[object], bool] | None = None


def _timed(fn, *args, **kwargs):
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return perf_counter() - t0, result


def _random_bits(rng, n: int, ones: int | None = None) -> str:
    if ones is None:
        return "".join(str(b) for b in rng.integers(0, 2, size=n))
    bits = ["0"] * n
    for q in rng.choice(n, size=ones, replace=False):
        bits[q] = "1"
    return "".join(bits)


# ---------------------------------------------------------------------------
# grover-backends: full searches through every backend.
# ---------------------------------------------------------------------------

# (method, n, odd variant, searches per round). The short searches repeat so
# that each backend's median rests on several samples per run.
GROVER_CASES = (
    ("qubit", 8, "single", 2),
    ("qutrit", 10, "single", 2),
    ("ququint", 10, "single", 8),
    ("ququint", 9, "neighbor", 8),
    ("reference", 12, "single", 8),
)


def _report_dict(report) -> dict:
    return {
        "iterations": report.iterations,
        "successProbability": report.success_probability,
        "topOutcome": report.top_outcome,
        "twoParticleGateCount": report.two_particle_gate_count,
        "leakage": report.leakage,
        "distribution": report.distribution,
    }


class GroverBackends:
    """Searches whose hidden strings have exactly n//2 ones, so that every
    seed asks for the same number of oracle X gates."""

    def __init__(self, lib, rng, workdir: Path):
        self.lib, self.rng = lib, rng

    def _op(self, method, n, variant):
        lib = self.lib
        omega = _random_bits(self.rng, n, n // 2)
        spec = lib.grover.GroverSpec(n, omega, method, "auto", variant)
        label = f"{method}{'-neighbor' if variant == 'neighbor' else ''} n={n}"
        return Op(
            kind=f"grover {label}",
            group=None if method == "reference" else method,
            run=lambda: _timed(lib.grover.run_grover, spec),
            check=lambda r: oracles.check_grover(_report_dict(r), n, omega, method, variant),
        )

    def round(self) -> list[Op]:
        ops = []
        for rep in range(max(c[3] for c in GROVER_CASES)):
            for method, n, variant, reps in GROVER_CASES:
                if rep < reps:
                    ops.append(self._op(method, n, variant))
        return ops


# ---------------------------------------------------------------------------
# verify-sweep: exhaustive verification of compiled ladders and mutants.
# ---------------------------------------------------------------------------

VERIFY_SIZES = (8, 9, 10)
MUTANT_N = 9


def _layouts(n: int):
    cases = [("ququint", "single"), ("qutrit", "single"), ("qubit", "single")]
    if n % 2:
        cases.append(("ququint", "neighbor"))
    return cases


def _inputs_expected(n: int, method: str, variant: str) -> int:
    _, assign = oracles.layout(method, n, variant)
    return 2**n * (2 if oracles.bystander_sites(assign) else 1)


def _drop_central(lib, result):
    """Remove the central controlled phase(s) of a ladder.

    The rest must read the same backwards and consist of self-inverse
    gates; then it multiplies out to the identity, so the mutant leaves
    |1...1> unsigned and the verdict is FAIL with amplitude error 2.
    """
    gates = list(result.circuit.gates)
    size = len(gates)
    central = [size // 2] if size % 2 else [size // 2 - 1, size // 2]
    rest = [g for i, g in enumerate(gates) if i not in central]
    if not all(isinstance(gates[i], lib.core.TwoQuditCZ) for i in central):
        raise RuntimeError("ladder has no central controlled phase to drop")
    if rest != rest[::-1] or any(g != g.dagger() for g in rest):
        raise RuntimeError("ladder without its centre is not a palindrome of involutions")
    return rest, 2.0, None


def _swap_dagger(lib, result, rng):
    """Replace one diagonal, non-self-inverse gate u on a qubit site by u^dagger.

    Every gate touching that site is diagonal there, so the change commutes
    to the end as (u^dagger)^2 = diag(1, conj(delta)^2): each input with the
    qubit at 1 is off by |conj(delta)^2 - 1| and the verdict is FAIL.
    """
    gates = list(result.circuit.gates)
    qubit_of = {site: q for q, (site, _) in enumerate(result.embedding.assignments)}
    LevelPair = lib.core.LevelPairGate
    mixing = {g.site for g in gates if isinstance(g, LevelPair) and (g.u.beta or g.u.gamma)}
    candidates = [
        i
        for i, g in enumerate(gates)
        if isinstance(g, LevelPair)
        and g.site in qubit_of
        and g.site not in mixing
        and (g.i, g.j) == (0, 1)
        and g.u.alpha == 1
        and g.u != g.u.dagger()
    ]
    if not candidates:
        raise RuntimeError("no diagonal phase gate on a control-only qubit")
    pick = int(rng.choice(candidates))
    gate = gates[pick]
    gates[pick] = gate.dagger()
    return gates, abs(gate.u.delta.conjugate() ** 2 - 1), qubit_of[gate.site]


class VerifySweep:
    """Exhaustive checks of every method and layout at n = 8..10, as the
    phase gate and as an inversion with a seeded target, plus one mutant
    per method whose verdict is known to be FAIL.

    The mutants are derived once, before any operation runs, so that their
    compilation is neither timed nor traced.
    """

    def __init__(self, lib, rng, workdir: Path):
        self.lib, self.rng = lib, rng
        self.mutants = [
            self._mutant(MUTANT_N, method, variant)
            for method, variant in (("ququint", "neighbor"), ("qutrit", "single"), ("qubit", "single"))
        ]

    def _compiled(self, n, method, variant, target):
        lib = self.lib
        request = lib.decompose.DecompositionRequest(n, method, variant, target)
        expected_inputs = _inputs_expected(n, method, variant)

        def run():
            t0 = perf_counter()
            result = lib.decompose.decompose_cnz(request)
            report = lib.decompose.verify_decomposition(result, target_qubit=target)
            return perf_counter() - t0, report

        def check(report):
            problems = []
            if not report.passed():
                problems.append(f"verdict FAIL (worst {report.worst_input}), expected PASS")
            if report.inputs_checked != expected_inputs:
                problems.append(f"inputs_checked {report.inputs_checked} != {expected_inputs}")
            return problems

        shape = "phase" if target is None else "inversion"
        layout = method + ("-neighbor" if variant == "neighbor" else "")
        return Op(f"verify {layout} n={n} {shape}", method, run, check)

    def _mutant(self, n, method, variant):
        lib = self.lib
        base = lib.decompose.decompose_cnz(lib.decompose.DecompositionRequest(n, method, variant))
        if method == "qubit":
            gates, error, qubit = _swap_dagger(lib, base, self.rng)
        else:
            gates, error, qubit = _drop_central(lib, base)
        mutant = lib.decompose.DecompositionResult(
            lib.core.QuditCircuit(base.circuit.register, gates),
            base.embedding,
            base.two_particle_gate_count,
            base.ancilla_systems,
        )
        expected_inputs = _inputs_expected(n, method, variant)

        def check(report):
            problems = []
            if report.passed():
                problems.append("mutant verdict PASS, expected FAIL")
            worst = report.worst_input or ""
            bits = worst.split("+")[0]
            wanted = bits == "1" * n if qubit is None else len(bits) == n and bits[qubit] == "1"
            if not wanted:
                problems.append(f"worst input {worst!r} is not one the mutation breaks")
            if abs(report.max_amplitude_error - error) > oracles.PROB_TOL:
                problems.append(f"max error {report.max_amplitude_error!r} != {error!r}")
            if report.inputs_checked != expected_inputs:
                problems.append(f"inputs_checked {report.inputs_checked} != {expected_inputs}")
            return problems

        layout = method + ("-neighbor" if variant == "neighbor" else "")
        return Op(
            f"verify mutant {layout} n={n}",
            method,
            lambda: _timed(lib.decompose.verify_decomposition, mutant),
            check,
        )

    def round(self) -> list[Op]:
        ops = []
        for n in VERIFY_SIZES:
            for method, variant in _layouts(n):
                ops.append(self._compiled(n, method, variant, None))
                ops.append(self._compiled(n, method, variant, int(self.rng.integers(n))))
        return ops + self.mutants


# ---------------------------------------------------------------------------
# cli-roundtrip: short in-process CLI commands over every method.
# ---------------------------------------------------------------------------

CLI_SIZES = range(2, 9)
CLI_GROVER_SIZES = range(2, 7)
CLI_SHOTS = 200
CLI_COUNT_RANGE = (2, 30)
SAMPLE_INPUTS = 64  # `verify` without --exhaustive checks this many bitstrings


def _cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        seconds = perf_counter() - t0
    return seconds, (code, out.getvalue(), err.getvalue())


def _exit_ok(result) -> list[str]:
    code, _, err = result
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


def _parse_csv(text: str, header: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return dict(line.rsplit(",", 1) for line in lines[1:])


def _check_verify_output(result, inputs: int) -> list[str]:
    problems = _exit_ok(result)
    out = result[1]
    if not out.startswith(f"inputs_checked={inputs} ") or out.splitlines()[-1] != "PASS":
        problems.append(f"expected PASS over {inputs} inputs, got {out.strip()!r}")
    return problems


def _check_probs(result, expected_probs: dict[str, float]) -> list[str]:
    problems = _exit_ok(result)
    if problems:
        return problems
    table = _parse_csv(result[1], "outcome,probability")
    leakage = float(table.pop("leakage", "nan"))
    if not leakage <= oracles.LEAK_TOL:
        problems.append(f"leakage {leakage!r}")
    if set(table) != set(expected_probs):
        return problems + [f"{len(table)} outcomes, expected {len(expected_probs)}"]
    for label, want in expected_probs.items():
        if abs(float(table[label]) - want) > oracles.PROB_TOL:
            problems.append(f"P({label}) = {table[label]}, expected {want!r}")
            break
    return problems


class CliRoundtrip:
    """Every CLI command at n = 2..8 over every method and layout, for the
    phase gate and for the inversion of the last qubit.

    The inversion target does not depend on the seed: `verify --circuit`
    fails on every inversion document (the fault named in README.md), and
    a failure must not depend on the seed.
    """

    def __init__(self, lib, rng, workdir: Path):
        self.lib, self.rng, self.workdir = lib, rng, workdir

    def _decompose(self, n, method, variant, target, path):
        lib = self.lib
        argv = ["decompose", "--n", str(n), "--method", method, "--odd-variant", variant, "--out", str(path)]
        if target is not None:
            argv += ["--target", f"x:{target}"]
        dims, assign = oracles.layout(method, n, variant)
        ancillas = n - 2 if method == "qubit" and n > 2 else 0
        summary = f"two_particle_gates={oracles.cost(method, n, variant)} ancilla_systems={ancillas}\n"

        def check(result):
            problems = _exit_ok(result)
            if result[1] != summary:
                problems.append(f"summary {result[1]!r}, expected {summary!r}")
            text = path.read_text(encoding="utf-8")
            data = json.loads(text)
            if data["dims"] != list(dims) or data["embedding"]["assignments"] != [list(a) for a in assign]:
                problems.append("document layout differs from the documented one")
            if sum("cz" in g for g in data["gates"]) != oracles.cost(method, n, variant):
                problems.append("document holds the wrong number of two-particle gates")
            again = lib.serialize.save_document(lib.serialize.load_document(text))
            if again != text:
                problems.append("load -> save is not byte-identical")
            return problems

        return lambda: _cli(lib, argv), check

    def _state_file(self, path, dims, assign):
        """Seeded random state over the embedded computational subspace;
        returns the qubit marginals the read-out must reproduce."""
        n = len(assign)
        bystanders = (0, 1) if oracles.bystander_sites(assign) else (0,)
        amps = np.zeros(math.prod(dims), dtype=complex)
        marginals = {}
        for x in range(2**n):
            bits = format(x, f"0{n}b")
            for b in bystanders:
                amps[oracles.embedded_index(bits, b, dims, assign)] = complex(*self.rng.normal(size=2))
        amps /= np.linalg.norm(amps)
        for x in range(2**n):
            bits = format(x, f"0{n}b")
            marginals[bits] = sum(
                abs(amps[oracles.embedded_index(bits, b, dims, assign)]) ** 2 for b in bystanders
            )
        pairs = [[float(a.real), float(a.imag)] for a in amps]
        path.write_text(json.dumps({"amplitudes": pairs}), encoding="utf-8")
        return marginals

    def _combo(self, n, method, variant) -> list[Op]:
        lib = self.lib
        layout = method + ("-neighbor" if variant == "neighbor" else "")
        dims, assign = oracles.layout(method, n, variant)
        inputs = 2**n * (2 if oracles.bystander_sites(assign) else 1)
        stem = f"{layout}-{n}"
        state_path = self.workdir / f"{stem}-state.json"
        marginals = self._state_file(state_path, dims, assign)
        ops = []
        for target in (None, n - 1):
            shape = "phase" if target is None else "inversion"
            doc = self.workdir / f"{stem}-{shape}.json"
            run, check = self._decompose(n, method, variant, target, doc)
            ops.append(Op(f"decompose {layout} n={n} {shape}", method, run, check))
        for target in (None, n - 1):
            shape = "phase" if target is None else "inversion"
            doc = self.workdir / f"{stem}-{shape}.json"
            ops.append(
                Op(
                    f"verify-circuit {layout} n={n} {shape}",
                    method,
                    lambda doc=doc: _cli(lib, ["verify", "--circuit", str(doc), "--exhaustive"]),
                    lambda r: _check_verify_output(r, inputs),
                    # documents do not record that they implement an inversion,
                    # so verify checks them as the phase gate
                    None if target is None else lambda r, target=target: _verify_fault(r, n, target),
                )
            )
        sampled = min(2**n, SAMPLE_INPUTS) * (inputs // 2**n)
        ops.append(
            Op(
                f"verify-compile {layout} n={n}",
                method,
                lambda: _cli(lib, ["verify", "--n", str(n), "--method", method, "--odd-variant", variant]),
                lambda r: _check_verify_output(r, sampled),
            )
        )
        for target in (None, n - 1):
            shape = "phase" if target is None else "inversion"
            doc = str(self.workdir / f"{stem}-{shape}.json")
            bits = _random_bits(self.rng, n)
            out_bits, _ = oracles.expected_output(bits, target)
            point = {format(x, f"0{n}b"): 0.0 for x in range(2**n)}
            point[out_bits] = 1.0
            seed = int(self.rng.integers(2**31))
            moved = {
                label: marginals[oracles.expected_output(label, target)[0]] for label in marginals
            }
            ops += [
                Op(
                    f"simulate-probs {layout} n={n} {shape}",
                    method,
                    lambda doc=doc, bits=bits: _cli(lib, ["simulate", doc, "--input", bits, "--probs"]),
                    lambda r, point=point: _check_probs(r, point),
                ),
                Op(
                    f"simulate-shots {layout} n={n} {shape}",
                    method,
                    lambda doc=doc, bits=bits, seed=seed: _cli(
                        lib, ["simulate", doc, "--input", bits, "--shots", str(CLI_SHOTS), "--seed", str(seed)]
                    ),
                    lambda r, out_bits=out_bits: _exit_ok(r)
                    or ([] if r[1] == f"outcome,count\n{out_bits},{CLI_SHOTS}\n" else [f"histogram {r[1]!r}"]),
                ),
                Op(
                    f"simulate-state {layout} n={n} {shape}",
                    method,
                    lambda doc=doc: _cli(lib, ["simulate", doc, "--state", str(state_path), "--probs"]),
                    lambda r, moved=moved: _check_probs(r, moved),
                ),
            ]
        return ops

    def _grover(self, n, method) -> Op:
        omega = _random_bits(self.rng, n)
        argv = ["grover", "--n", str(n), "--omega", omega, "--method", method, "--report", "json"]
        return Op(
            f"grover {method} n={n}",
            None if method == "reference" else method,
            lambda: _cli(self.lib, argv),
            lambda r: _exit_ok(r) or oracles.check_grover(json.loads(r[1]), n, omega, method),
        )

    def _count(self, fmt) -> Op:
        lo, hi = CLI_COUNT_RANGE
        rows = oracles.count_rows(lo, hi)
        if fmt == "json":
            expected = {"oddVariant": "single", "rows": rows}
            parse = json.loads
        else:
            lines = [",".join(rows[0])]
            for row in rows:
                ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
                lines.append(",".join(str(v) for v in list(row.values())[:-1]) + "," + ratio)
            expected = "\n".join(lines) + "\n"
            parse = str

        def check(result):
            problems = _exit_ok(result)
            if not problems and parse(result[1]) != expected:
                problems.append(f"count {fmt} output differs from the formula table")
            return problems

        return Op(
            f"count {fmt}",
            None,
            lambda: _cli(self.lib, ["count", "--n-range", f"{lo}..{hi}", "--format", fmt]),
            check,
        )

    def round(self) -> list[Op]:
        ops = []
        for n in CLI_SIZES:
            for method, variant in (("ququint", "single"), ("qutrit", "single"), ("qubit", "single")):
                ops += self._combo(n, method, variant)
            if n % 2:
                ops += self._combo(n, "ququint", "neighbor")
        for n in CLI_GROVER_SIZES:
            for method in ("reference", "qubit", "qutrit", "ququint"):
                ops.append(self._grover(n, method))
        ops += [self._count("csv"), self._count("json")]
        return ops


def _verify_fault(result, n: int, target: int) -> bool:
    """The named fault: exit 1 and FAIL on an input whose controls are all 1."""
    code, out, _ = result
    last = out.splitlines()[-1] if out else ""
    if code != 1 or not last.startswith("FAIL input="):
        return False
    bits = last[len("FAIL input=") :].split("+")[0]
    return len(bits) == n and all(b == "1" for q, b in enumerate(bits) if q != target)


WORKLOADS = {
    "grover-backends": GroverBackends,
    "verify-sweep": VerifySweep,
    "cli-roundtrip": CliRoundtrip,
}
