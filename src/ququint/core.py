"""Registers, state vectors, and the two-gate algebra they evolve under.

Everything downstream (embeddings, ladder decompositions, Grover runs) is
expressed with exactly two gate kinds:

- :class:`LevelPairGate` -- a single-qudit unitary that acts as an arbitrary
  2x2 matrix on two chosen levels ``i < j`` of one site and as the identity
  on every other level;
- :class:`TwoQuditCZ` -- a controlled phase that multiplies the amplitude of
  every basis state with site A at level ``i`` and site B at level ``j`` by a
  unit-modulus phase (default -1) and leaves all other amplitudes alone.

Basis convention: site 0 is the most significant mixed-radix digit, so the
label string reads left to right as sites 0, 1, ...
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Two comparison tolerances used artifact-wide: constructed matrices are
# checked tightly, propagated states get slack for O(N) gate accumulation.
MATRIX_TOL = 1e-12
STATE_TOL = 1e-10

MAX_STATE_SIZE = 2**26  # largest register a dense amplitude array may span
MAX_MATRIX_DIM = 2**13  # largest register for full gate/circuit matrices


class GateError(ValueError):
    """A gate is malformed or its levels do not fit the target site."""


class RegisterMismatchError(ValueError):
    """A gate or state refers to sites that do not exist in the register."""


class DimensionTooLargeError(ValueError):
    """The requested object would exceed the supported state-space size."""


@dataclass(frozen=True)
class QuditRegister:
    """An ordered collection of qudit sites with per-site dimensions.

    Args:
        dims: Dimension of each site, every entry >= 2. Site 0 is the most
            significant digit in basis-state labels.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("register needs at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"every site dimension must be >= 2, got {dims}")
        size = 1
        for d in dims:  # stop at the limit, before the product grows huge
            size *= d
            if size > MAX_STATE_SIZE:
                raise DimensionTooLargeError(
                    f"state space of {len(dims)} sites exceeds the supported maximum 2^26"
                )

    @property
    def num_sites(self) -> int:
        return len(self.dims)

    # derived once per register; equality, hash and repr see only ``dims``
    @functools.cached_property
    def size(self) -> int:
        """Total dimension of the state space (product of site dims)."""
        return math.prod(self.dims)

    @functools.cached_property
    def strides(self) -> tuple[int, ...]:
        """Mixed-radix strides: flat index = sum(level[s] * strides[s])."""
        strides = [1] * len(self.dims)
        for s in range(len(self.dims) - 2, -1, -1):
            strides[s] = strides[s + 1] * self.dims[s + 1]
        return tuple(strides)

    def index(self, label) -> int:
        """Flat amplitude index of a basis label (one level per site)."""
        label = tuple(label)
        if len(label) != self.num_sites:
            raise RegisterMismatchError(
                f"label has {len(label)} digits, register has {self.num_sites} sites"
            )
        flat = 0
        for level, dim in zip(label, self.dims):
            if not 0 <= level < dim:
                raise ValueError(f"level {level} out of range for dimension {dim}")
            flat = flat * dim + level
        return flat

    def label(self, index: int) -> tuple[int, ...]:
        """Basis label of a flat amplitude index."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for size {self.size}")
        digits = []
        for dim in reversed(self.dims):
            index, r = divmod(index, dim)
            digits.append(r)
        return tuple(reversed(digits))

    def label_str(self, index: int) -> str:
        label = self.label(index)
        if all(d <= 10 for d in self.dims):
            return "".join(str(x) for x in label)
        return ",".join(str(x) for x in label)


class StateVector:
    """A normalized complex amplitude vector over a :class:`QuditRegister`.

    Treated as immutable: gate application returns a new StateVector and
    never mutates an existing one, so values are safe to share across threads.
    """

    def __init__(self, register: QuditRegister, amplitudes):
        self.register = register
        arr = np.asarray(amplitudes, dtype=np.complex128)
        if arr.shape != (register.size,):
            raise RegisterMismatchError(
                f"amplitude array has shape {arr.shape}, register size is {register.size}"
            )
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= 1e-8:  # fails a NaN norm too
            raise ValueError(f"state vector is not normalized (norm {norm})")
        self.amplitudes = arr

    @classmethod
    def basis_state(cls, register: QuditRegister, label) -> "StateVector":
        """The computational basis state with the given per-site levels."""
        amps = np.zeros(register.size, dtype=np.complex128)
        amps[register.index(label)] = 1.0
        return cls(register, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        """Exact outcome probabilities |amplitude|^2, no sampling."""
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class TwoLevelUnitary:
    """A 2x2 unitary with rows (alpha beta) / (gamma delta)."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        a, b, c, d = self.alpha, self.beta, self.gamma, self.delta
        # the independent entries of U^dagger U - I, with |z|^2 as (z z*).real
        # (abs(z) ** 2 can raise OverflowError); "<= tol" fails NaN and inf
        if not (
            abs((a * a.conjugate() + c * c.conjugate()).real - 1.0) <= MATRIX_TOL
            and abs((b * b.conjugate() + d * d.conjugate()).real - 1.0) <= MATRIX_TOL
            and abs(a.conjugate() * b + c.conjugate() * d) <= MATRIX_TOL
        ):
            raise GateError("2x2 matrix is not unitary")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.alpha, self.beta], [self.gamma, self.delta]], dtype=np.complex128
        )

    @classmethod
    def from_matrix(cls, m) -> "TwoLevelUnitary":
        m = np.asarray(m, dtype=np.complex128)
        if m.shape != (2, 2):
            raise GateError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def dagger(self) -> "TwoLevelUnitary":
        return TwoLevelUnitary(
            self.alpha.conjugate(),
            self.gamma.conjugate(),
            self.beta.conjugate(),
            self.delta.conjugate(),
        )


IDENTITY = TwoLevelUnitary(1, 0, 0, 1)
PAULI_X = TwoLevelUnitary(0, 1, 1, 0)
PAULI_Z = TwoLevelUnitary(1, 0, 0, -1)
HADAMARD = TwoLevelUnitary(
    1 / math.sqrt(2), 1 / math.sqrt(2), 1 / math.sqrt(2), -1 / math.sqrt(2)
)


def phase_shift(phi: float) -> TwoLevelUnitary:
    """diag(1, e^{i*phi}) on the selected level pair."""
    return TwoLevelUnitary(1, 0, 0, complex(math.cos(phi), math.sin(phi)))


@dataclass(frozen=True)
class LevelPairGate:
    """``u`` acting on levels ``i < j`` of one site, identity elsewhere.

    Args:
        site: Index of the site the gate acts on.
        i: Lower of the two coupled levels.
        j: Upper of the two coupled levels.
        u: The 2x2 unitary applied on span{|i>, |j>}.
    """

    site: int
    i: int
    j: int
    u: TwoLevelUnitary

    def __post_init__(self):
        if self.site < 0:
            raise GateError(f"site index must be non-negative, got {self.site}")
        if not 0 <= self.i < self.j:
            raise GateError(f"levels must satisfy 0 <= i < j, got ({self.i}, {self.j})")

    def dagger(self) -> "LevelPairGate":
        return LevelPairGate(self.site, self.i, self.j, self.u.dagger())


@dataclass(frozen=True)
class TwoQuditCZ:
    """Phase on the joint level pair |i>_A |j>_B of two distinct sites.

    Args:
        site_a: First site index.
        site_b: Second site index (must differ from site_a).
        i: Level on site A that triggers the phase.
        j: Level on site B that triggers the phase.
        phase: Unit-modulus factor applied to the targeted amplitudes
            (defaults to -1, the plain controlled-Z).
    """

    site_a: int
    site_b: int
    i: int
    j: int
    phase: complex = -1

    def __post_init__(self):
        object.__setattr__(self, "phase", complex(self.phase))
        if self.site_a == self.site_b:
            raise GateError("a two-qudit gate needs two distinct sites")
        if min(self.site_a, self.site_b) < 0:
            raise GateError("site indices must be non-negative")
        if min(self.i, self.j) < 0:
            raise GateError("levels must be non-negative")
        try:
            unit = abs(abs(self.phase) - 1.0) <= MATRIX_TOL  # False for NaN
        except OverflowError:  # abs() of a complex beyond the float range
            unit = False
        if not unit:
            raise GateError(f"phase must have unit modulus, got {self.phase}")

    def dagger(self) -> "TwoQuditCZ":
        return TwoQuditCZ(self.site_a, self.site_b, self.i, self.j, self.phase.conjugate())


QuditGate = LevelPairGate | TwoQuditCZ


def validate_gate(gate: QuditGate, register: QuditRegister) -> None:
    """Raise if the gate does not fit the register.

    Raises:
        RegisterMismatchError: A referenced site does not exist.
        GateError: A referenced level is out of range for its site.
    """
    if isinstance(gate, LevelPairGate):
        if gate.site >= register.num_sites:
            raise RegisterMismatchError(
                f"site {gate.site} out of range for {register.num_sites} sites"
            )
        if gate.j >= register.dims[gate.site]:
            raise GateError(
                f"level {gate.j} out of range for dimension {register.dims[gate.site]}"
            )
    elif isinstance(gate, TwoQuditCZ):
        if max(gate.site_a, gate.site_b) >= register.num_sites:
            raise RegisterMismatchError(
                f"sites ({gate.site_a}, {gate.site_b}) out of range for "
                f"{register.num_sites} sites"
            )
        if gate.i >= register.dims[gate.site_a]:
            raise GateError(
                f"level {gate.i} out of range for dimension {register.dims[gate.site_a]}"
            )
        if gate.j >= register.dims[gate.site_b]:
            raise GateError(
                f"level {gate.j} out of range for dimension {register.dims[gate.site_b]}"
            )
    else:
        raise GateError(f"unknown gate type {type(gate).__name__}")


@dataclass
class QuditCircuit:
    """An ordered gate sequence over a fixed register."""

    register: QuditRegister
    gates: list[QuditGate] = field(default_factory=list)

    def __post_init__(self):
        self.gates = list(self.gates)
        for gate in self.gates:
            validate_gate(gate, self.register)

    def append(self, gate: QuditGate) -> None:
        validate_gate(gate, self.register)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for gate in gates:
            self.append(gate)

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def two_qudit_gate_count(self) -> int:
        return sum(1 for g in self.gates if isinstance(g, TwoQuditCZ))


# ---------------------------------------------------------------------------
# Gate application. The one in-place kernel mutates a C-contiguous amplitude
# array directly so circuit runs pay for one copy, not one per gate.
# ---------------------------------------------------------------------------


def _apply_gate_inplace(arr: np.ndarray, dims: tuple[int, ...], gate: QuditGate) -> None:
    if isinstance(gate, TwoQuditCZ):
        # reorder so the reshape below sees the lower site first; the gate
        # is symmetric under swapping (site, level) pairs
        (s1, l1), (s2, l2) = sorted(((gate.site_a, gate.i), (gate.site_b, gate.j)))
        pre = math.prod(dims[:s1])
        mid = math.prod(dims[s1 + 1 : s2])
        rest = arr.size // (pre * dims[s1] * mid * dims[s2])
        arr.reshape(pre, dims[s1], mid, dims[s2], rest)[:, l1, :, l2, :] *= gate.phase
        return
    d = dims[gate.site]
    pre = math.prod(dims[: gate.site])
    a3 = arr.reshape(pre, d, arr.size // (pre * d))
    u = gate.u
    if u.beta == 0 and u.gamma == 0:
        # diagonal on the pair: pure phases, no mixing
        if u.alpha != 1:
            a3[:, gate.i, :] *= u.alpha
        if u.delta != 1:
            a3[:, gate.j, :] *= u.delta
        return
    row_i = a3[:, gate.i, :].copy()
    row_j = a3[:, gate.j, :]
    a3[:, gate.i, :] = u.alpha * row_i + u.beta * row_j
    a3[:, gate.j, :] = u.gamma * row_i + u.delta * row_j


def apply_gate(state: StateVector, gate: QuditGate) -> StateVector:
    """Apply one gate, returning the transformed state.

    A level-pair gate returns unchanged every amplitude whose target-site
    digit is neither ``i`` nor ``j``; a controlled phase changes phases
    only. The norm is preserved.
    """
    validate_gate(gate, state.register)
    arr = state.amplitudes.copy()
    _apply_gate_inplace(arr, state.register.dims, gate)
    return StateVector(state.register, arr)


# Per-kind names of apply_gate, kept because the benchmark's kernel rows
# (bench/tracing.py) time the appliers under them.
apply_level_pair = apply_two_qudit_cz = apply_gate


def apply_circuit(state: StateVector, circuit: QuditCircuit) -> StateVector:
    """Run a full circuit on a state (one amplitude copy, gates in order)."""
    if circuit.register != state.register:
        raise RegisterMismatchError("circuit and state use different registers")
    arr = state.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(arr, state.register.dims, gate)
    return StateVector(state.register, arr)


# ---------------------------------------------------------------------------
# Sparse propagation of many basis inputs at once. A table row is one live
# amplitude: its key is input * register.size + flat index, so the digit of
# any site reads off the key exactly as off the flat index, and sorting by
# key sorts by (input, index). Work costs O(rows) per step, whatever the
# register size. A step is a gate or a :class:`_Move`: a run of gates on at
# most three sites that only permutes basis states and multiplies phases
# (``decompose._plan`` finds them), such as a Toffoli block or two
# controlled level swaps on three sites. A move reads the run's digits once
# and moves each row's key by a table entry, so it adds no rows and needs no
# merge.
# ---------------------------------------------------------------------------

_PRUNE = 1e-16  # drop exactly-cancelled branches; far below any tolerance


class _Move(NamedTuple):
    """A monomial action on a few sites of a register. The local index of a
    row is the sum of ``(key // stride) % span * weight`` over ``reads``, one
    read per run of adjacent sites; the row's key moves by ``shift[local]``
    and its amplitude is multiplied by ``phase[local]``. Either table is
    None when it would change nothing (all shifts 0, all phases 1)."""

    reads: tuple[tuple[int, int, int], ...]
    shift: np.ndarray | None
    phase: np.ndarray | None


def _propagate_sparse(
    register: QuditRegister, steps: list, keys: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``steps`` (gates and :class:`_Move` steps) on a table of (key,
    amplitude) rows with unique keys in any order; returns the new keys,
    sorted, and their amplitudes.

    Phases multiply the matching rows in place, and a move shifts keys and
    multiplies phases. Any other mixing level-pair gate emits, for each row
    on its level pair, the row and its partner, and merges the pairs of equal
    keys (``_merge_pairs``, which sorts). One final sort runs only when no
    merge came after the last move that shifted keys, or after the input.
    """
    dims, strides = register.dims, register.strides
    keys = np.array(keys, dtype=np.int64)
    amps = np.array(amps, dtype=np.complex128)
    ordered = False
    for step in steps:
        if isinstance(step, _Move):
            (stride, span, _), *more = step.reads  # the first has weight 1
            local = (keys // stride) % span
            for stride, span, weight in more:
                local += (keys // stride) % span * weight
            if step.shift is not None:
                keys += step.shift[local]
                ordered = False
            if step.phase is not None:
                amps *= step.phase[local]
            continue
        if isinstance(step, TwoQuditCZ):
            hit = ((keys // strides[step.site_a]) % dims[step.site_a] == step.i) & (
                (keys // strides[step.site_b]) % dims[step.site_b] == step.j
            )
            amps[hit] *= step.phase
            continue
        stride, u = strides[step.site], step.u
        digit = (keys // stride) % dims[step.site]
        on_i, on_j = digit == step.i, digit == step.j
        if u.beta == 0 and u.gamma == 0:
            if u.alpha != 1:
                amps[on_i] *= u.alpha
            if u.delta != 1:
                amps[on_j] *= u.delta
            continue
        shift = (step.j - step.i) * stride
        rest = ~(on_i | on_j)
        key_i, key_j = keys[on_i], keys[on_j]
        amp_i, amp_j = amps[on_i], amps[on_j]
        # a key occurs at most twice: a row's own term and its partner's
        keys, amps = _merge_pairs(
            np.concatenate((keys[rest], key_i, key_i + shift, key_j - shift, key_j)),
            np.concatenate(
                (amps[rest], amp_i * u.alpha, amp_i * u.gamma, amp_j * u.beta, amp_j * u.delta)
            ),
        )
        ordered = True
    if not ordered:
        order = np.argsort(keys, kind="stable")
        keys, amps = keys[order], amps[order]
    return keys, amps


def _merge_pairs(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by key, each key at most twice on input and once on
    output with the two amplitudes summed, and rows with |amplitude| <=
    ``_PRUNE`` dropped."""
    order = np.argsort(keys, kind="stable")  # radix sort on int keys
    keys, amps = keys[order], amps[order]
    second = np.flatnonzero(keys[1:] == keys[:-1]) + 1
    amps[second - 1] += amps[second]
    keep = np.abs(amps) > _PRUNE
    keep[second] = False
    return keys[keep], amps[keep]


# ---------------------------------------------------------------------------
# Dense matrix forms, built independently of the stride appliers (Kronecker
# products and diagonal projector sums) so tests can compare the two routes.
# ---------------------------------------------------------------------------


def _check_matrix_size(register: QuditRegister) -> None:
    if register.size > MAX_MATRIX_DIM:
        raise DimensionTooLargeError(
            f"dense matrix for size {register.size} exceeds the 2^13 limit"
        )


def gate_matrix(gate: QuditGate, register: QuditRegister) -> np.ndarray:
    """Full unitary matrix of a gate over the given register.

    Intended for verification at small sizes; registers above 2^13 total
    dimension are rejected.
    """
    validate_gate(gate, register)
    _check_matrix_size(register)
    if isinstance(gate, LevelPairGate):
        d = register.dims[gate.site]
        local = np.eye(d, dtype=np.complex128)
        local[gate.i, gate.i] = gate.u.alpha
        local[gate.i, gate.j] = gate.u.beta
        local[gate.j, gate.i] = gate.u.gamma
        local[gate.j, gate.j] = gate.u.delta
        m = np.eye(1, dtype=np.complex128)
        for site, dim in enumerate(register.dims):
            m = np.kron(m, local if site == gate.site else np.eye(dim))
        return m
    # controlled phase: identity plus (phase - 1) on the projector
    # P_i(site_a) x P_j(site_b)
    proj = np.eye(1, dtype=np.complex128)
    for site, dim in enumerate(register.dims):
        if site == gate.site_a:
            p = np.zeros((dim, dim), dtype=np.complex128)
            p[gate.i, gate.i] = 1.0
        elif site == gate.site_b:
            p = np.zeros((dim, dim), dtype=np.complex128)
            p[gate.j, gate.j] = 1.0
        else:
            p = np.eye(dim, dtype=np.complex128)
        proj = np.kron(proj, p)
    return np.eye(register.size, dtype=np.complex128) + (gate.phase - 1.0) * proj


def circuit_unitary(circuit: QuditCircuit) -> np.ndarray:
    """Ordered product of gate matrices (later gates multiply on the left)."""
    _check_matrix_size(circuit.register)
    m = np.eye(circuit.register.size, dtype=np.complex128)
    for gate in circuit.gates:
        m = gate_matrix(gate, circuit.register) @ m
    return m


def _sample_counts(probabilities, seed: int, shots: int) -> np.ndarray:
    """Counts of ``shots`` draws from the outcomes weighted by
    ``probabilities`` (normalized here), drawn as one multinomial sample,
    so memory does not grow with ``shots``."""
    if not 1 <= shots <= 2**63 - 1:
        raise ValueError(f"shots must be between 1 and 2^63 - 1, got {shots}")
    probs = np.asarray(probabilities, dtype=float)
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
