"""Circuit documents: a versioned JSON interchange format.

Layout (one gate per line, complex numbers as [re, im] pairs, matrices
row-major)::

    {
      "version": 1,
      "dims": [5, 5, 5],
      "embedding": {
        "qubitCount": 5,
        "assignments": [[0, "a"], [0, "b"], [1, "a"], [1, "b"], [2, "single"]]
      },
      "targetQubit": 4,
      "gates": [
        {"levelpair": {"site": 1, "i": 3, "j": 4, "u": [[[...], [...]], [[...], [...]]]}},
        {"cz": {"siteA": 1, "siteB": 2, "i": 4, "j": 1, "phase": [-1, 0]}}
      ]
    }

The writer is canonical: fixed key order, floats at 17 significant digits,
so save(load(text)) reproduces the input byte for byte. ``targetQubit`` is
present only in documents of a controlled inversion and names its target;
a document without it implements the phase gate. The loader is strict:
unknown fields, missing fields, and unknown version numbers are all
rejected, and every constructed object re-runs its own validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import (
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    TwoLevelUnitary,
    TwoQuditCZ,
)
from .embedding import EmbeddingMap, QubitSlot

DOCUMENT_VERSION = 1


@dataclass
class CircuitDocument:
    """A circuit plus the optional embedding that interprets it.

    ``target_qubit`` is ``None`` for the phase gate; for a controlled
    inversion it is the embedded qubit the circuit flips.
    """

    circuit: QuditCircuit
    embedding: EmbeddingMap | None = None
    target_qubit: int | None = None

    def __post_init__(self):
        if (
            self.embedding is not None
            and self.embedding.register != self.circuit.register
        ):
            raise ValueError("embedding and circuit use different registers")
        if self.target_qubit is not None:
            if self.embedding is None:
                raise ValueError("a target qubit needs an embedding")
            if not 0 <= self.target_qubit < self.embedding.qubit_count:
                raise ValueError(f"target qubit {self.target_qubit} out of range")


def _fmt_real(x) -> str:
    x = float(x) + 0.0  # normalizes -0.0 so reloading is byte-stable
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x!r} cannot be serialized")
    return format(x, ".17g")


def _fmt_pair(z: complex) -> str:
    return f"[{_fmt_real(z.real)}, {_fmt_real(z.imag)}]"


def _gate_json(gate) -> str:
    if isinstance(gate, LevelPairGate):
        u = gate.u
        rows = (
            f"[{_fmt_pair(u.alpha)}, {_fmt_pair(u.beta)}], "
            f"[{_fmt_pair(u.gamma)}, {_fmt_pair(u.delta)}]"
        )
        return (
            f'{{"levelpair": {{"site": {gate.site}, "i": {gate.i}, '
            f'"j": {gate.j}, "u": [{rows}]}}}}'
        )
    return (
        f'{{"cz": {{"siteA": {gate.site_a}, "siteB": {gate.site_b}, '
        f'"i": {gate.i}, "j": {gate.j}, "phase": {_fmt_pair(gate.phase)}}}}}'
    )


def save_document(document: CircuitDocument) -> str:
    """Canonical JSON text for a document."""
    lines = ["{"]
    lines.append(f'  "version": {DOCUMENT_VERSION},')
    dims = ", ".join(str(d) for d in document.circuit.register.dims)
    lines.append(f'  "dims": [{dims}],')
    if document.embedding is not None:
        pairs = ", ".join(
            f'[{site}, "{slot.value}"]' for site, slot in document.embedding.assignments
        )
        lines.append('  "embedding": {')
        lines.append(f'    "qubitCount": {document.embedding.qubit_count},')
        lines.append(f'    "assignments": [{pairs}]')
        lines.append("  },")
    if document.target_qubit is not None:
        lines.append(f'  "targetQubit": {document.target_qubit},')
    if document.circuit.gates:
        lines.append('  "gates": [')
        gate_lines = [f"    {_gate_json(g)}" for g in document.circuit.gates]
        lines.append(",\n".join(gate_lines))
        lines.append("  ]")
    else:
        lines.append('  "gates": []')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _require_keys(obj: dict, required: set[str], optional: set[str] = frozenset(), where: str = "document"):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValueError(f"{where} is missing fields: {sorted(missing)}")
    if unknown:
        raise ValueError(f"{where} has unknown fields: {sorted(unknown)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _as_pair(value, where: str) -> complex:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ValueError(f"{where} must be a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _parse_gate(entry, index: int):
    where = f"gates[{index}]"
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ValueError(f"{where} must hold exactly one gate object")
    kind, body = next(iter(entry.items()))
    if kind == "levelpair":
        _require_keys(body, {"site", "i", "j", "u"}, where=where)
        u = body["u"]
        if not isinstance(u, list) or len(u) != 2 or any(
            not isinstance(r, list) or len(r) != 2 for r in u
        ):
            raise ValueError(f"{where}: u must be a 2x2 matrix of [re, im] pairs")
        unitary = TwoLevelUnitary(
            _as_pair(u[0][0], f"{where}.u[0][0]"),
            _as_pair(u[0][1], f"{where}.u[0][1]"),
            _as_pair(u[1][0], f"{where}.u[1][0]"),
            _as_pair(u[1][1], f"{where}.u[1][1]"),
        )
        return LevelPairGate(
            _as_int(body["site"], f"{where}.site"),
            _as_int(body["i"], f"{where}.i"),
            _as_int(body["j"], f"{where}.j"),
            unitary,
        )
    if kind == "cz":
        _require_keys(body, {"siteA", "siteB", "i", "j", "phase"}, where=where)
        return TwoQuditCZ(
            _as_int(body["siteA"], f"{where}.siteA"),
            _as_int(body["siteB"], f"{where}.siteB"),
            _as_int(body["i"], f"{where}.i"),
            _as_int(body["j"], f"{where}.j"),
            _as_pair(body["phase"], f"{where}.phase"),
        )
    raise ValueError(f"{where}: unknown gate kind {kind!r}")


def load_document(text: str) -> CircuitDocument:
    """Parse and validate a document; the inverse of :func:`save_document`.

    Raises:
        ValueError: Malformed JSON, schema violations, unsupported version,
            or any gate/embedding that fails its own invariants.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed document: {exc}") from exc
    _require_keys(
        data, {"version", "dims", "gates"}, optional={"embedding", "targetQubit"}
    )
    version = _as_int(data["version"], "version")
    if version != DOCUMENT_VERSION:
        raise ValueError(
            f"unsupported document version {version}, this reader handles "
            f"version {DOCUMENT_VERSION}"
        )
    if not isinstance(data["dims"], list) or not data["dims"]:
        raise ValueError("dims must be a non-empty list of integers")
    register = QuditRegister(
        tuple(_as_int(d, f"dims[{i}]") for i, d in enumerate(data["dims"]))
    )
    if not isinstance(data["gates"], list):
        raise ValueError("gates must be a list")
    gates = [_parse_gate(entry, i) for i, entry in enumerate(data["gates"])]
    circuit = QuditCircuit(register, gates)
    embedding = None
    if "embedding" in data:
        body = data["embedding"]
        _require_keys(body, {"qubitCount", "assignments"}, where="embedding")
        if not isinstance(body["assignments"], list):
            raise ValueError("embedding.assignments must be a list")
        assignments = []
        for i, pair in enumerate(body["assignments"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"embedding.assignments[{i}] must be [site, slot]")
            site = _as_int(pair[0], f"embedding.assignments[{i}][0]")
            try:
                slot = QubitSlot(pair[1])
            except ValueError:
                raise ValueError(
                    f"embedding.assignments[{i}]: unknown slot {pair[1]!r}"
                ) from None
            assignments.append((site, slot))
        if _as_int(body["qubitCount"], "embedding.qubitCount") != len(assignments):
            raise ValueError("embedding.qubitCount disagrees with assignments")
        embedding = EmbeddingMap(register, tuple(assignments))
    target = None
    if "targetQubit" in data:
        target = _as_int(data["targetQubit"], "targetQubit")
    return CircuitDocument(circuit, embedding, target)
