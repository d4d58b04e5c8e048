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
    LevelPairGate,
    QuditGate,
    QuditRegister,
    TwoLevelUnitary,
    TwoQuditCZ,
    _apply_gate_inplace,
    _propagate_sparse,
)
from .decompose import METHODS, DecompositionRequest, decompose_cnz
from .embedding import (
    ODD_VARIANTS,
    EmbeddingMap,
    QubitSlot,
    _parse_bits,
    lift_single_qubit_gate,
    read_out,
)

BACKENDS = ("reference",) + METHODS

# qubit-level circuit steps: ("u", qubit, TwoLevelUnitary) or ("cnz",)
Step = tuple

# A compiled run of gates: (flip first, gates). The flag marks where the
# reference backend's exact multi-controlled Z, a sign flip on |1...1>, acts
# before the gates; compiled backends splice their ladder in as gates.
Run = tuple[bool, list[QuditGate]]


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


_SIZE_LIMIT = {"reference": 12, "qubit": 12, "qutrit": 10, "ququint": 10}


@dataclass(frozen=True)
class GroverSpec:
    """A search instance: size, hidden string, backend, iteration policy.

    Raises:
        DimensionTooLargeError: The backend's register would be too big.
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
        if self.n > _SIZE_LIMIT[self.method]:
            raise DimensionTooLargeError(
                f"method {self.method!r} supports n <= "
                f"{_SIZE_LIMIT[self.method]}, got {self.n}"
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


# A search runs on the sparse table when its register holds more than this
# many amplitudes per outcome. The qubit ladder's clean work sites and the
# qutrits' third level keep the live support near 2^n, so there the table's
# O(support) gates beat the stride applier's O(register) ones; below it
# (ququint, reference, small n) the stride applier is faster.
_SPARSE_RATIO = 32


def _prepare_backend(n: int, method: str, odd_variant: str):
    """Register, embedding, compiled multi-controlled-Z gates with same-site
    runs fused (None for the exact reference), and the per-gate
    two-particle count (fusion leaves the controlled phases alone)."""
    if method == "reference":
        register = QuditRegister((2,) * n)
        emap = EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n)))
        return register, emap, None, 0
    result = decompose_cnz(DecompositionRequest(n, method, odd_variant))
    return (
        result.circuit.register,
        result.embedding,
        _fuse(result.circuit.gates),
        result.two_particle_gate_count,
    )


def _compile(
    steps: list[Step], emap: EmbeddingMap, cnz_gates: list[QuditGate] | None
) -> list[Run]:
    """Register-level runs of a step list: one-qubit steps lifted onto their
    sites, each multi-controlled Z replaced by ``cnz_gates`` or, for the
    exact reference (``cnz_gates`` None), by a flip opening a new run."""
    runs = [(False, [])]
    for step in steps:
        if step[0] == "u":
            _, qubit, u = step
            runs[-1][1].extend(lift_single_qubit_gate(u, qubit, emap))
        elif cnz_gates is None:
            runs.append((True, []))
        else:
            runs[-1][1].extend(cnz_gates)
    return runs


def _fuse(gates: list[QuditGate]) -> list[QuditGate]:
    """Multiply each level-pair gate into the previous gate on its site when
    that one is a level-pair gate on the same two levels. Only gates on other
    sites lie between them, so the later gate commutes back to the earlier
    one. This merges the qubit ladder's chains of T and H gates on one site
    (325 -> 176 gates at n=8); the qutrit and ququint ladders have none."""
    out: list[QuditGate] = []
    last: dict[int, int] = {}  # site -> index in out of its last level-pair gate
    for gate in gates:
        if isinstance(gate, TwoQuditCZ):
            last.pop(gate.site_a, None)
            last.pop(gate.site_b, None)
            out.append(gate)
            continue
        k = last.get(gate.site)
        if k is not None and (out[k].i, out[k].j) == (gate.i, gate.j):
            u = TwoLevelUnitary.from_matrix(gate.u.matrix @ out[k].u.matrix)
            out[k] = LevelPairGate(gate.site, gate.i, gate.j, u)
        else:
            last[gate.site] = len(out)
            out.append(gate)
    return out


def _dense_probabilities(
    register: QuditRegister, runs: list[Run], flip: int
) -> np.ndarray:
    """Outcome probabilities after ``runs`` on |0...0>, with the stride
    applier on the whole register; ``flip`` is the index of |1...1>."""
    dims = register.dims
    arr = np.zeros(register.size, dtype=np.complex128)
    arr[0] = 1.0  # |0...0> embeds at level 0 on every site
    for flip_first, gates in runs:
        if flip_first:
            arr[flip] *= -1.0
        for gate in gates:
            _apply_gate_inplace(arr, dims, gate)
    return np.abs(arr) ** 2


def _sparse_probabilities(
    register: QuditRegister, runs: list[Run], flip: int
) -> np.ndarray:
    """The same probabilities from a one-input sparse table (key = flat
    index), in O(live support) per gate; rows that survive off the
    computational levels stay in the vector, so read-out sees the leakage."""
    keys = np.zeros(1, dtype=np.int64)
    amps = np.ones(1, dtype=np.complex128)
    for flip_first, gates in runs:
        if flip_first:
            amps[keys == flip] *= -1.0
        keys, amps = _propagate_sparse(register, gates, keys, amps)
    probs = np.zeros(register.size)
    probs[keys] = np.abs(amps) ** 2
    return probs


def run_grover(spec: GroverSpec) -> GroverReport:
    """Simulate a full search run and report the exact outcome distribution.

    The Hadamard layer and one oracle + diffusion iteration are compiled to
    register gates once; a register above ``_SPARSE_RATIO`` amplitudes per
    outcome runs them on the sparse table, any other on the dense register.

    Raises:
        RuntimeError: Probability escaped the computational levels (this
            would indicate a broken decomposition, not user error).
    """
    n = spec.n
    register, emap, cnz_gates, per_count = _prepare_backend(
        n, spec.method, spec.odd_variant
    )
    k = auto_iterations(n) if spec.iterations == "auto" else int(spec.iterations)
    prepare = _compile([("u", q, HADAMARD) for q in range(n)], emap, cnz_gates)
    iteration = _compile(
        build_oracle(spec.omega, n) + build_diffusion(n), emap, cnz_gates
    )
    flip = int(emap.encode([1] * n))
    if register.size > _SPARSE_RATIO * 2**n:
        engine = _sparse_probabilities
    else:
        engine = _dense_probabilities
    readout = read_out(engine(register, prepare + iteration * k, flip), emap)
    if readout.leakage > STATE_TOL:
        raise RuntimeError(
            f"leakage {readout.leakage} after a {spec.method} run; the "
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
