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

All backends report the same outcome distribution up to simulation noise;
only the register shape and the gate count differ.
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
    _merge_pairs,
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

# The one-qubit steps between two multi-controlled Zs: the Kronecker factors
# A and B^T of their action on the 2^n vector, and the (n, 2, 2) stack of
# per-qubit products they are built from, which the rest table lifts.
Layer = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _compile(stack: np.ndarray) -> Layer:
    """A layer's action on the 2^n vector. It is a tensor product of one 2x2
    unitary per qubit, so it splits into two dense factors, A on qubits
    0..h-1 and B on qubits h..n-1 (h = n // 2): it sends the vector, viewed
    as a 2^h x 2^(n-h) matrix V, to A V B^T."""
    h = len(stack) // 2
    return _kron(stack[:h]), _kron(stack[h:]).T, stack


def _row_sums(
    old: np.ndarray, bins: np.ndarray, src: np.ndarray, coefs: np.ndarray, count: int
) -> np.ndarray:
    """Fixed rows ``out[bin] += coef * old[src]`` into ``count`` bins from 0,
    in row order: one ``np.bincount`` for the real part, one for the
    imaginary."""
    terms = coefs * old[src]
    out = np.empty(count, dtype=np.complex128)
    out.real = np.bincount(bins, weights=terms.real, minlength=count)
    out.imag = np.bincount(bins, weights=terms.imag, minlength=count)
    return out


class _SearchState:
    """A search's state as a 2^n vector over the view plus a rest table.

    The view is the embedded basis: entry x of the vector is the amplitude
    of register index ``emap.encode(x)`` (qubit 0 most significant, any
    bystander at 0). Every other live amplitude, such as a work-site,
    spare-level or bystander-1 row, is a sorted ``(key, amplitude)`` row of
    the rest table, keyed by flat register index. Lifted one-qubit gates
    keep computational levels computational and bystanders untouched, so
    they never move a row between the two; only the ladder mixes them.

    A layer of one-qubit steps is two small matrix products on the vector,
    A V B^T with V its 2^h x 2^(n-h) view and A, B the layer's factors on the
    high and low qubits, Kronecker products of its per-qubit 2x2 unitaries
    (:func:`_compile`). Only when the rest table holds rows are those
    unitaries lifted onto the register, and the table takes them one by
    one, so its rows stay exact.

    The ladder is planned (``decompose._plan``: its monomial windows as
    moves of keys, the rest fused), and its action on the view is computed
    once per search: each view index is pushed through the plan as its own
    amplitude-1 basis input (the verifier's batched table). By linearity one
    application is then a fixed set of rows on the vector plus the rows it
    sends off the view. Every compiled phase ladder, and the reference's
    sign flip, sends each view index to a distinct view entry with a phase,
    so its application is one gather-multiply ``phase * old[perm]`` and the
    rest table stays empty; any other ladder sums its rows with
    :func:`_row_sums`, and the rest table goes through the same plan.
    """

    def __init__(self, emap: EmbeddingMap, ladder: list[QuditGate] | None):
        n = emap.qubit_count
        self.emap = emap
        self.view = emap.encode(_counting_bits(n))
        if ladder is None:  # the reference's exact sign flip on |1...1>
            self.ladder, src, index = None, np.arange(2**n), self.view
            amps = np.ones(2**n, dtype=np.complex128)
            amps[-1] = -1.0
        else:
            self.ladder = _plan(emap.register, ladder)
            src, index, amps = _basis_rows(emap.register, self.ladder, self.view)
        dst, inside = self._locate(index)
        # the ladder's rows into the view, ``(bins, src, coefs)`` for
        # _row_sums, or ``(None, perm, phase)`` when the action is monomial
        # (one row per view index, each to a distinct view entry, none off
        # the view): then bin k's one row reads perm[k]
        if (
            inside.all()
            and np.array_equal(src, np.arange(2**n))
            and np.bincount(dst, minlength=2**n).max() == 1
        ):
            perm, phase = np.empty_like(src), np.empty_like(amps)
            perm[dst], phase[dst] = src, amps
            self.gather = None, perm, phase
        else:
            self.gather = dst[inside], src[inside], amps[inside]
        # off the view: each key once, sorted, and the bin of every row
        self.leak_keys, bins = np.unique(index[~inside], return_inverse=True)
        self.leak = bins, src[~inside], amps[~inside]
        self.vector = np.zeros(2**n, dtype=np.complex128)
        self.vector[0] = 1.0  # |0...0>
        self.rest = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128))

    def _locate(self, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vector entry of each flat register index, and whether it is in
        the view (computational, bystanders at 0)."""
        outcome, computational = self.emap.decode(index)
        return outcome, computational & (self.view[outcome] == index)

    def layer(self, layer: Layer) -> None:
        """One layer of one-qubit steps: A V B^T on the vector viewed as a
        2^h x 2^(n-h) matrix V, the lifted unitaries on the rest table."""
        a, bt, stack = layer
        self.vector = (a @ self.vector.reshape(len(a), len(bt)) @ bt).ravel()
        if len(self.rest[0]):
            lifted = [
                gate
                for q, u in enumerate(stack)
                for gate in lift_single_qubit_gate(_Product(*u.ravel().tolist()), q, self.emap)
            ]
            self.rest = _propagate_sparse(self.emap.register, lifted, *self.rest)

    def apply_ladder(self) -> float:
        """One multi-controlled Z; returns the probability then held off the
        computational levels."""
        old = self.vector
        bins, src, coefs = self.gather
        new = coefs * old[src] if bins is None else _row_sums(old, bins, src, coefs, len(old))
        keys, amps = self.rest
        if len(keys):
            keys, amps = _propagate_sparse(self.emap.register, self.ladder, keys, amps)
            dst, inside = self._locate(keys)
            new[dst[inside]] += amps[inside]  # one row per view index
            keys, amps = keys[~inside], amps[~inside]
        if len(self.leak_keys):
            # rest keys are unique, and so are the leak keys
            leaked = _row_sums(old, *self.leak, len(self.leak_keys))
            keys, amps = _merge_pairs(
                np.concatenate((keys, self.leak_keys)), np.concatenate((amps, leaked))
            )
        self.vector, self.rest = new, (keys, amps)
        if not len(keys):
            return 0.0
        _, computational = self.emap.decode(keys)
        return float(np.sum(np.abs(amps[~computational]) ** 2))

    def read_out(self) -> QubitReadout:
        keys, amps = self.rest
        probs = np.abs(self.vector) ** 2
        if not len(keys):  # view entry x is bitstring x, on computational levels
            labels = _bit_labels(self.emap.qubit_count)
            return QubitReadout(dict(zip(labels, probs.tolist())), 0.0)
        return _read_out_rows(
            np.concatenate((self.view, keys)),
            np.concatenate((probs, np.abs(amps) ** 2)),
            self.emap,
        )


def _search(
    emap: EmbeddingMap, ladder: list[QuditGate] | None, omega: str, k: int
) -> tuple[QubitReadout, int | None]:
    """Read-out after the Hadamard layer and ``k`` iterations, and the first
    iteration in which a ladder left more than ``STATE_TOL`` of the
    probability off the computational levels (None if none did)."""
    n = emap.qubit_count
    iteration = build_oracle(omega, n) + build_diffusion(n)
    # the layers around the two Zs of an iteration, with the one-qubit steps
    # of consecutive iterations joined: first, mid, wrap, mid, last
    layers = _layers([("u", q, HADAMARD) for q in range(n)] + iteration * 2, n)
    first, mid, wrap, last = (_compile(layers[i]) for i in (0, 1, 2, 4))
    state = _SearchState(emap, ladder)
    state.layer(first)
    first_leak = None
    for i in range(1, k + 1):
        for layer in (mid, wrap if i < k else last):
            if state.apply_ladder() > STATE_TOL and first_leak is None:
                first_leak = i
            state.layer(layer)
    return state.read_out(), first_leak


def run_grover(spec: GroverSpec) -> GroverReport:
    """Simulate a full search run and report the exact outcome distribution.

    The compiled ladder's action on the 2^n embedded basis states is
    computed once per search; every iteration then runs on a 2^n vector
    plus a table of the rows a faulty ladder leaves off it.

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
