"""Spans at ququint's module boundaries, recorded from outside the library.

:class:`Tracer` rebinds the names through which one module calls the module
below it (``ququint.grover._apply_gate_inplace``, ``ququint.cli.read_out``,
...) to timing wrappers, and restores them afterwards. The library's source
is untouched. A span is (name, start, end, parent); a layer's self time is
the sum over its spans of duration minus the duration of their children.
A wrapped name that no longer exists is reported as missing.

:func:`kernel_rows` times core's public gate appliers on a fixed register
beside a memcpy floor of the same array.
"""

from __future__ import annotations

import functools
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute, span name). Span names are "<layer>.<what>"; the
# layer is the module being called.
WRAPS = (
    ("ququint.cli", "main", "cli.main"),
    ("ququint.cli", "decompose_cnz", "decompose.compile"),
    ("ququint.cli", "verify_decomposition", "decompose.verify"),
    ("ququint.cli", "save_document", "serialize.save"),
    ("ququint.cli", "load_document", "serialize.load"),
    ("ququint.cli", "apply_circuit", "core.apply"),
    ("ququint.cli", "measure_all", "core.measure"),
    ("ququint.cli", "read_out", "embedding.readout"),
    ("ququint.cli", "decode_basis_label", "embedding.readout"),
    ("ququint.cli", "run_grover", "grover.search"),
    ("ququint.cli", "count_table", "counts.table"),
    ("ququint.cli", "emit_report", "counts.emit"),
    ("ququint.counts", "decompose_cnz_qubit", "decompose.compile"),
    ("ququint.counts", "decompose_cnz_qutrit", "decompose.compile"),
    ("ququint.counts", "decompose_cnz_ququint", "decompose.compile"),
    ("ququint.grover", "run_grover", "grover.search"),
    ("ququint.grover", "decompose_cnz_qubit", "decompose.compile"),
    ("ququint.grover", "decompose_cnz_qutrit", "decompose.compile"),
    ("ququint.grover", "decompose_cnz_ququint", "decompose.compile"),
    ("ququint.grover", "_apply_gate_inplace", "core.gate"),
    ("ququint.grover", "lift_single_qubit_gate", "embedding.lift"),
    ("ququint.grover", "read_out", "embedding.readout"),
    ("ququint.decompose", "decompose_cnz", "decompose.compile"),
    ("ququint.decompose", "verify_decomposition", "decompose.verify"),
    ("ququint.decompose", "lift_hadamard", "embedding.lift"),
)

NONZERO_SAMPLE = 8  # count nonzero amplitudes on every 8th gate application
AMP_BYTES = 16  # complex128


def _written_levels(gate) -> list[int]:
    """Levels of the target site whose rows a level-pair kernel rewrites:
    both, or for a diagonal 2x2 only those whose entry is not 1."""
    u = gate.u
    if u.beta == 0 and u.gamma == 0:
        return [level for level, d in ((gate.i, u.alpha), (gate.j, u.delta)) if d != 1]
    return [gate.i, gate.j]


def touched_size(dims, gate) -> int:
    """Amplitudes a stride kernel writes for one gate: the rewritten rows of
    a level-pair gate, or the one slab a controlled phase multiplies."""
    size = math.prod(dims)
    if hasattr(gate, "u"):
        return len(_written_levels(gate)) * size // dims[gate.site]
    return size // (dims[gate.site_a] * dims[gate.site_b])


def _touched_nonzero(arr, dims, gate) -> int:
    if hasattr(gate, "u"):
        s = gate.site
        view = arr.reshape(math.prod(dims[:s]), dims[s], -1)
        return sum(int(np.count_nonzero(view[:, level, :])) for level in _written_levels(gate))
    (s1, l1), (s2, l2) = sorted(((gate.site_a, gate.i), (gate.site_b, gate.j)))
    view = arr.reshape(
        math.prod(dims[:s1]), dims[s1], math.prod(dims[s1 + 1 : s2]), dims[s2], -1
    )
    return int(np.count_nonzero(view[:, l1, :, l2, :]))


class Tracer:
    """Records spans around the wrapped names while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        hooks = {
            "decompose.compile": (None, self._compiled),
            "decompose.verify": (None, self._verified),
            "serialize.save": (None, self._saved),
            "serialize.load": (self._loading, None),
            "core.apply": (self._applying_circuit, None),
            "core.gate": (self._applying_gate, None),
            "counts.table": (None, self._tabled),
        }
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span not in self.names:
                self.names.append(span)
            pre, post = hooks.get(span, (None, None))
            setattr(module, attr, self._wrap(original, self.names.index(span), pre, post))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name_id, pre, post):
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if post is not None:
                post(result)
            return result

        return wrapper

    # Counters, updated outside the timed part of each span.

    def _compiled(self, result) -> None:
        self.counts["gates_emitted"] += len(result.circuit.gates)

    def _verified(self, report) -> None:
        self.counts["verify_inputs"] += report.inputs_checked

    def _saved(self, text) -> None:
        self.counts["document_bytes"] += len(text.encode("utf-8"))

    def _loading(self, args) -> None:
        self.counts["document_bytes"] += len(args[0].encode("utf-8"))

    def _tabled(self, report) -> None:
        self.counts["count_rows"] += len(report.rows)

    def _count_gate(self, dims, gate) -> int:
        touched = touched_size(dims, gate)
        self.counts["gate_applications"] += 1
        self.counts["amplitudes_touched"] += touched
        return touched

    def _applying_circuit(self, args) -> None:
        state, circuit = args
        for gate in circuit.gates:
            self._count_gate(state.register.dims, gate)

    def _applying_gate(self, args) -> None:
        arr, dims, gate = args
        touched = self._count_gate(dims, gate)
        if self.counts["gate_applications"] % NONZERO_SAMPLE == 0:
            self.counts["sampled_touched"] += touched
            self.counts["sampled_nonzero"] += _touched_nonzero(arr, dims, gate)

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self seconds and span count per span name, and self seconds per layer."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)[:n]
        parent = np.frombuffer(self.parent, dtype=np.intc)[:n]
        name_of = np.frombuffer(self.name_of, dtype=np.intc)[:n]
        has = parent >= 0
        children = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - children
        per_name = np.bincount(name_of, weights=own, minlength=len(self.names))
        calls = np.bincount(name_of, minlength=len(self.names))
        by_name = {name: float(per_name[i]) for i, name in enumerate(self.names)}
        by_layer: dict[str, float] = {}
        for name, seconds in by_name.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
        return by_name, {name: int(calls[i]) for i, name in enumerate(self.names)}, by_layer

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced round."""
        by_name, calls, by_layer = self.self_times()
        c = self.counts
        verify_s = by_name.get("decompose.verify", 0.0)
        return {
            "core.gate_applications": (c["gate_applications"] / rounds, "count"),
            "core.apply_s": (by_layer.get("core", 0.0) / rounds, "s"),
            "core.amplitudes_touched": (c["amplitudes_touched"] / rounds, "count"),
            "core.nonzero_share": (
                c["sampled_nonzero"] / c["sampled_touched"] if c["sampled_touched"] else 0.0,
                "ratio",
            ),
            "core.bytes_moved": (2 * AMP_BYTES * c["amplitudes_touched"] / rounds, "bytes"),
            "embedding.lift_s": (by_name.get("embedding.lift", 0.0) / rounds, "s"),
            "embedding.lift_calls": (calls.get("embedding.lift", 0) / rounds, "count"),
            "embedding.readout_s": (by_name.get("embedding.readout", 0.0) / rounds, "s"),
            "embedding.readout_calls": (calls.get("embedding.readout", 0) / rounds, "count"),
            "decompose.compile_s": (by_name.get("decompose.compile", 0.0) / rounds, "s"),
            "decompose.compile_calls": (calls.get("decompose.compile", 0) / rounds, "count"),
            "decompose.gates_emitted": (c["gates_emitted"] / rounds, "count"),
            "decompose.verify_s": (verify_s / rounds, "s"),
            "decompose.verify_inputs": (c["verify_inputs"] / rounds, "count"),
            "decompose.verify_us_per_input": (
                1e6 * verify_s / c["verify_inputs"] if c["verify_inputs"] else 0.0,
                "us",
            ),
            "grover.self_s": (by_layer.get("grover", 0.0) / rounds, "s"),
            "grover.searches": (calls.get("grover.search", 0) / rounds, "count"),
            "serialize.save_s": (by_name.get("serialize.save", 0.0) / rounds, "s"),
            "serialize.load_s": (by_name.get("serialize.load", 0.0) / rounds, "s"),
            "serialize.document_bytes": (c["document_bytes"] / rounds, "bytes"),
            "counts.table_s": (by_layer.get("counts", 0.0) / rounds, "s"),
            "counts.rows": (c["count_rows"] / rounds, "count"),
            "cli.self_s": (by_layer.get("cli", 0.0) / rounds, "s"),
            "cli.commands": (calls.get("cli.main", 0) / rounds, "count"),
            "trace.missing_spans": (len(self.missing), "count"),
        }


KERNEL_SITES = 18  # 2^18 amplitudes, 4 MiB of complex128
KERNEL_REPS = 40
# Untimed calls first: in some fresh processes the first ~40 calls of the
# public appliers ran 3-4x slower, while OpenBLAS's threads for the norm
# check in StateVector started up.
KERNEL_WARMUP = 50
KERNEL_SUPPORT = 2**10  # nonzero amplitudes of the sparse state


def _median_seconds(fn, reps: int) -> float:
    for _ in range(KERNEL_WARMUP):
        fn()
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def kernel_rows(lib, rng) -> dict[str, tuple[float, str]]:
    """Level-pair and CZ appliers on 2^18 amplitudes, ns per amplitude.

    The sparse state has 2^10 nonzero amplitudes, the live support of the
    qubit backend's register at n = 10. Bytes per call are computed, not
    measured: the applier's copy (read + write), the kernel's touched
    amplitudes (read + write) and the constructor's norm (read).
    """
    core = lib.core
    register = core.QuditRegister((2,) * KERNEL_SITES)
    size = register.size
    dense = rng.normal(size=size) + 1j * rng.normal(size=size)
    sparse = np.zeros(size, dtype=complex)
    sparse[rng.choice(size, size=KERNEL_SUPPORT, replace=False)] = rng.normal(size=KERNEL_SUPPORT)
    dense_state = core.StateVector(register, dense / np.linalg.norm(dense))
    sparse_state = core.StateVector(register, sparse / np.linalg.norm(sparse))
    level_pair = core.LevelPairGate(KERNEL_SITES // 2, 0, 1, core.HADAMARD)
    cz = core.TwoQuditCZ(4, KERNEL_SITES - 5, 1, 1)
    amps = dense_state.amplitudes

    def ns_per_amp(fn) -> float:
        return 1e9 * _median_seconds(fn, KERNEL_REPS) / size

    array_bytes = AMP_BYTES * size
    dims = register.dims
    return {
        "core.level_pair_ns_per_amp": (
            ns_per_amp(lambda: core.apply_level_pair(dense_state, level_pair)),
            "ns/amp",
        ),
        "core.level_pair_basis_ns_per_amp": (
            ns_per_amp(lambda: core.apply_level_pair(sparse_state, level_pair)),
            "ns/amp",
        ),
        "core.cz_ns_per_amp": (ns_per_amp(lambda: core.apply_two_qudit_cz(dense_state, cz)), "ns/amp"),
        "core.memcpy_ns_per_amp": (ns_per_amp(amps.copy), "ns/amp"),
        "core.level_pair_bytes_per_call": (
            3 * array_bytes + 2 * AMP_BYTES * touched_size(dims, level_pair),
            "bytes",
        ),
        "core.cz_bytes_per_call": (3 * array_bytes + 2 * AMP_BYTES * touched_size(dims, cz), "bytes"),
        "core.memcpy_bytes_per_call": (2 * array_bytes, "bytes"),
    }
