"""Grover search for a hidden bitstring, lowered through a chosen backend.

The circuit is the usual one: Hadamards everywhere, then per iteration a
phase oracle (X gates on the zero bits of the target string around a
multi-controlled Z, so exactly |omega> flips sign) followed by the diffusion
reflection (the same multi-controlled Z sandwiched between X and H layers).
Each iteration therefore contains exactly two multi-controlled gates.

Backends differ only in how that multi-controlled Z reaches the simulator:

- ``reference`` applies the exact phase flip in one step (no decomposition,
  so no two-particle gate tally);
- ``qubit``, ``qutrit`` and ``ququint`` splice in the corresponding compiled
  circuit from :mod:`ququint.decompose`.

All backends report the same outcome distribution; only the register shape
and the gate count differ. A ladder that acts on the embedded basis as a
phase times a permutation, as every compiled one does, runs on a 2^n vector;
any other runs on the sparse table of register rows (:func:`_search`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HADAMARD,
    PAULI_X,
    STATE_TOL,
    DimensionTooLargeError,
    QuditGate,
    QuditRegister,
    _propagate_sparse,
)
from .decompose import (
    _MAX_SWEEP_N,
    METHODS,
    DecompositionRequest,
    _basis_rows,
    _plan,
    _Product,
    decompose_cnz,
)
from .embedding import (
    ODD_VARIANTS,
    EmbeddingMap,
    QubitReadout,
    QubitSlot,
    _bit_labels,
    _counting_bits,
    _parse_bits,
    _read_out_rows,
    lift_single_qubit_gate,
)

BACKENDS = ("reference",) + METHODS

# qubit-level circuit steps: ("u", qubit, TwoLevelUnitary) or ("cnz",)
Step = tuple


def auto_iterations(n: int) -> int:
    """Iteration count maximizing the success amplitude for one marked item
    among 2^n: floor(pi / (4 asin(2^(-n/2)))), at least 1."""
    if n < 2:
        raise ValueError(f"need at least two qubits, got n={n}")
    return max(1, math.floor(math.pi / (4.0 * math.asin(2.0 ** (-n / 2)))))


def _max_iterations(n: int) -> int:
    """One period of the success probability sin^2((2k+1) asin(2^(-n/2)))
    in k, ceil(pi / (2 asin(2^(-n/2)))), about twice :func:`auto_iterations`:
    more iterations only revisit outcomes an earlier count gives."""
    return math.ceil(math.pi / (2.0 * math.asin(2.0 ** (-n / 2))))


def build_oracle(omega: str, n: int | None = None) -> list[Step]:
    """Phase oracle steps sending |x> to -|x> exactly when x equals omega.

    The leftmost character of ``omega`` is qubit 0 (most significant).
    """
    bits = _parse_bits(omega, len(omega) if n is None else n)
    flips = [("u", q, PAULI_X) for q, b in enumerate(bits) if b == 0]
    return flips + [("cnz",)] + flips


def build_diffusion(n: int) -> list[Step]:
    """Reflection about the uniform superposition.

    The H / X / multi-controlled-Z / X / H sandwich equals
    1 - 2|sym><sym| exactly (|sym> the uniform state); the opposite sign
    convention for the reflection differs only by a global phase, which no
    outcome probability can see.
    """
    if n < 2:
        raise ValueError(f"need at least two qubits, got n={n}")
    hs = [("u", q, HADAMARD) for q in range(n)]
    xs = [("u", q, PAULI_X) for q in range(n)]
    return hs + xs + [("cnz",)] + xs + hs


@dataclass(frozen=True)
class GroverSpec:
    """A search instance: size, hidden string, backend, iteration policy.

    Raises:
        DimensionTooLargeError: ``n`` is above 14, the largest size at which
            every method's ladder register fits ``MAX_STATE_SIZE``.
        ValueError: Any other field is out of range, an explicit iteration
            count beyond one period of the success probability included.
    """

    n: int
    omega: str
    method: str = "reference"
    iterations: int | str = "auto"
    odd_variant: str = "single"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two qubits, got n={self.n}")
        if not isinstance(self.omega, str):
            raise ValueError(f"omega must be a bitstring, got {self.omega!r}")
        _parse_bits(self.omega, self.n)
        if self.method not in BACKENDS:
            raise ValueError(
                f"unknown method {self.method!r}, expected one of {BACKENDS}"
            )
        # before any iteration arithmetic, which overflows from n=2049
        if self.n > _MAX_SWEEP_N:
            raise DimensionTooLargeError(
                f"method {self.method!r} supports n <= {_MAX_SWEEP_N}, got {self.n}"
            )
        if self.iterations != "auto":
            if type(self.iterations) is not int or self.iterations < 1:
                raise ValueError(
                    f"iterations must be 'auto' or a positive integer, "
                    f"got {self.iterations!r}"
                )
            if self.iterations > _max_iterations(self.n):
                raise ValueError(
                    f"iterations must be at most {_max_iterations(self.n)} for "
                    f"n={self.n} (one period of the success probability), "
                    f"got {self.iterations}"
                )
        if self.odd_variant not in ODD_VARIANTS:
            raise ValueError(f"unknown odd variant {self.odd_variant!r}")


@dataclass
class GroverReport:
    """Outcome of one simulated search run."""

    n: int
    omega: str
    method: str
    iterations: int
    success_probability: float
    top_outcome: str
    two_particle_gate_count: int
    leakage: float
    distribution: dict[str, float]


def _prepare_backend(n: int, method: str, odd_variant: str):
    """Register, embedding, compiled multi-controlled-Z gates (None for the
    exact reference), and the per-gate two-particle count."""
    if method == "reference":
        register = QuditRegister((2,) * n)
        emap = EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n)))
        return register, emap, None, 0
    result = decompose_cnz(DecompositionRequest(n, method, odd_variant))
    return (
        result.circuit.register,
        result.embedding,
        result.circuit.gates,
        result.two_particle_gate_count,
    )


def _layers(steps: list[Step], n: int) -> list[np.ndarray]:
    """The layers of one-qubit steps between the multi-controlled Zs of a
    step list, each an (n, 2, 2) stack: the product of qubit q's steps in
    the layer, in order, at q (the identity where there are none)."""
    layers, identity = [], (1 + 0j, 0j, 0j, 1 + 0j)
    entries = [identity] * n
    for step in steps + [("cnz",)]:
        if step[0] == "cnz":
            layers.append(np.array(entries, dtype=np.complex128).reshape(n, 2, 2))
            entries = [identity] * n
            continue
        _, q, u = step
        a, b, c, d = entries[q]  # u after (a b / c d)
        entries[q] = (
            u.alpha * a + u.beta * c,
            u.alpha * b + u.beta * d,
            u.gamma * a + u.delta * c,
            u.gamma * b + u.delta * d,
        )
    return layers


def _kron(stack: np.ndarray) -> np.ndarray:
    """Kronecker product of a stack of square matrices, the first one the
    most significant, by broadcasting one factor at a time onto the product
    of those after it (the long axis innermost)."""
    m = stack[-1]
    for u in stack[-2::-1]:
        m = (u[:, None, :, None] * m[None, :, None, :]).reshape(len(u) * len(m), -1)
    return m


def _compile(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A layer's action on the 2^n vector. It is a tensor product of one 2x2
    unitary per qubit, so it splits into two dense factors, A on qubits
    0..h-1 and B on qubits h..n-1 (h = n // 2): it sends the vector, viewed
    as a 2^h x 2^(n-h) matrix V, to A V B^T."""
    h = len(stack) // 2
    return _kron(stack[:h]), _kron(stack[h:]).T


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """``x`` as float64 when every entry's imaginary part is exactly zero,
    else ``x`` itself."""
    return x.real if not x.imag.any() else x


def _monomial_step(
    emap: EmbeddingMap, plan: list | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """The ladder's action on the 2^n vector as ``(perm, phase)``, one
    application being ``phase * old[perm]``, or None when the action is not a
    phase times a permutation of the view. ``phase`` is float64 when every
    phase is real, complex128 otherwise.

    The view is the embedded basis: entry x is the amplitude of register
    index ``emap.encode(x)`` (qubit 0 most significant, any bystander at 0).
    Each view index is pushed through the planned ladder (``plan``, None for
    the reference's exact sign flip on |1...1>) as its own amplitude-1 basis
    input, the verifier's batched table. The action is monomial when every
    input ends as one row, on the view, and no two end at the same entry.
    """
    n = emap.qubit_count
    if plan is None:
        phase = np.ones(2**n)
        phase[-1] = -1.0
        return np.arange(2**n), phase
    view = emap.encode(_counting_bits(n))
    src, index, amps = _basis_rows(emap.register, plan, view)
    dst, computational = emap.decode(index)
    if not (
        np.array_equal(src, np.arange(2**n))
        and (computational & (view[dst] == index)).all()
        and np.bincount(dst, minlength=2**n).max() == 1
    ):
        return None
    perm, phase = np.empty_like(src), np.empty_like(amps)
    perm[dst], phase[dst] = src, amps
    return perm, _real_if_exact(phase)


def _lift(stack: np.ndarray, emap: EmbeddingMap) -> list[QuditGate]:
    """A layer's per-qubit 2x2 products as level-pair gates on the register."""
    return [
        gate
        for q, u in enumerate(stack)
        for gate in lift_single_qubit_gate(_Product(*u.ravel().tolist()), q, emap)
    ]


def _search(
    emap: EmbeddingMap, ladder: list[QuditGate] | None, omega: str, k: int
) -> tuple[QubitReadout, int | None]:
    """Read-out after the Hadamard layer and ``k`` iterations, and the first
    iteration in which a ladder left more than ``STATE_TOL`` of the
    probability off the computational levels (None if none did).

    A monomial ladder (every compiled one, and the reference) runs on the 2^n
    vector over the view: one gather-multiply per ladder and A V B^T per
    layer (:func:`_compile`), and nothing ever leaves the view. The vector
    and the factors are float64 when the ladder's phases and the layers are
    real, as every compiled ladder's +-1 phases and the H and X layers are,
    so each layer is two real matrix products; complex128 otherwise. Any
    other ladder, one that mixes, leaks or moves a bystander, runs the whole
    search on the sparse table of (flat register index, amplitude) rows that
    ``simulate`` and ``verify`` run: each layer lifted onto the register, the
    planned ladder as it is, and leakage read after every ladder.
    """
    n = emap.qubit_count
    iteration = build_oracle(omega, n) + build_diffusion(n)
    # the layers around the two Zs of an iteration, with the one-qubit steps
    # of consecutive iterations joined: first, mid, wrap, mid, last
    layers = _layers([("u", q, HADAMARD) for q in range(n)] + iteration * 2, n)
    layers = [layers[i] for i in (0, 1, 2, 4)]
    plan = None if ladder is None else _plan(emap.register, ladder)
    step = _monomial_step(emap, plan)
    if step is not None:
        perm, phase = step
        layers = [_real_if_exact(stack) for stack in layers]
        first, mid, wrap, last = (_compile(stack) for stack in layers)
        vector = np.zeros(2**n, dtype=np.result_type(phase, *layers))
        vector[0] = 1.0  # |0...0>
        a, bt = first
        vector = (a @ vector.reshape(len(a), len(bt)) @ bt).ravel()
        for i in range(1, k + 1):
            for a, bt in (mid, wrap if i < k else last):
                vector = phase * vector[perm]
                vector = (a @ vector.reshape(len(a), len(bt)) @ bt).ravel()
        # view entry x is bitstring x, on computational levels
        probs = np.abs(vector) ** 2
        return QubitReadout(dict(zip(_bit_labels(n), probs.tolist())), 0.0), None
    register = emap.register
    first, mid, wrap, last = (_lift(stack, emap) for stack in layers)
    # |0...0> is flat index 0: every site at level 0
    keys, amps = _propagate_sparse(register, first, np.zeros(1, dtype=np.int64), np.ones(1))
    first_leak = None
    for i in range(1, k + 1):
        for lifted in (mid, wrap if i < k else last):
            keys, amps = _propagate_sparse(register, plan, keys, amps)
            _, computational = emap.decode(keys)
            leaked = float(np.sum(np.abs(amps[~computational]) ** 2))
            if leaked > STATE_TOL and first_leak is None:
                first_leak = i
            keys, amps = _propagate_sparse(register, lifted, keys, amps)
    return _read_out_rows(keys, np.abs(amps) ** 2, emap), first_leak


def run_grover(spec: GroverSpec) -> GroverReport:
    """Simulate a full search run and report the exact outcome distribution.

    The ladder's action on the 2^n embedded basis states is computed once
    per search. A phase times a permutation, as every compiled ladder and
    the reference's sign flip are, runs as one gather-multiply on a 2^n
    vector per ladder, a real vector when those phases are real (they are
    +-1 for every compiled ladder); any other ladder runs the whole search
    on the sparse table that ``simulate`` and ``verify`` run
    (:func:`_search`).

    Raises:
        RuntimeError: Probability escaped the computational levels (this
            would indicate a broken decomposition, not user error); the
            message names the first iteration that leaked.
    """
    n = spec.n
    _, emap, ladder, per_count = _prepare_backend(n, spec.method, spec.odd_variant)
    k = auto_iterations(n) if spec.iterations == "auto" else int(spec.iterations)
    readout, first_leak = _search(emap, ladder, spec.omega, k)
    if readout.leakage > STATE_TOL:
        where = f" (first above STATE_TOL in iteration {first_leak})" if first_leak else ""
        raise RuntimeError(
            f"leakage {readout.leakage} after a {spec.method} run{where}; the "
            "decomposition failed to restore its working levels"
        )
    return GroverReport(
        n=n,
        omega=spec.omega,
        method=spec.method,
        iterations=k,
        success_probability=readout.probabilities[spec.omega],
        top_outcome=readout.top_outcome(),
        two_particle_gate_count=k * 2 * per_count,
        leakage=readout.leakage,
        distribution=readout.probabilities,
    )
