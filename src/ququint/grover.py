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
    DimensionTooLargeError,
    QuditRegister,
    _apply_gate_inplace,
)
from .decompose import METHODS, DecompositionRequest, decompose_cnz
from .embedding import (
    ODD_VARIANTS,
    EmbeddingMap,
    QubitSlot,
    embed_basis_state,
    lift_single_qubit_gate,
    read_out,
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


def _validate_bits(omega: str, n: int) -> str:
    omega = str(omega)
    if len(omega) != n or any(c not in "01" for c in omega):
        raise ValueError(f"omega must be a bitstring of length {n}, got {omega!r}")
    return omega


def build_oracle(omega: str, n: int | None = None) -> list[Step]:
    """Phase oracle steps sending |x> to -|x> exactly when x equals omega.

    The leftmost character of ``omega`` is qubit 0 (most significant).
    """
    n = len(omega) if n is None else n
    omega = _validate_bits(omega, n)
    flips = [("u", q, PAULI_X) for q, c in enumerate(omega) if c == "0"]
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
    """A search instance: size, hidden string, backend, iteration policy."""

    n: int
    omega: str
    method: str = "reference"
    iterations: int | str = "auto"
    odd_variant: str = "single"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least two qubits, got n={self.n}")
        _validate_bits(self.omega, self.n)
        if self.method not in BACKENDS:
            raise ValueError(
                f"unknown method {self.method!r}, expected one of {BACKENDS}"
            )
        if self.iterations != "auto":
            if not isinstance(self.iterations, int) or self.iterations < 1:
                raise ValueError(
                    f"iterations must be 'auto' or a positive integer, "
                    f"got {self.iterations!r}"
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


_SIZE_LIMIT = {"reference": 12, "qubit": 10, "qutrit": 10, "ququint": 10}


def _prepare_backend(n: int, method: str, odd_variant: str):
    """Register, embedding, compiled multi-controlled-Z gates (None for the
    exact reference), and the per-gate two-particle count."""
    if n > _SIZE_LIMIT[method]:
        raise DimensionTooLargeError(
            f"method {method!r} supports n <= {_SIZE_LIMIT[method]}, got {n}"
        )
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


def run_grover(spec: GroverSpec) -> GroverReport:
    """Simulate a full search run and report the exact outcome distribution.

    Raises:
        DimensionTooLargeError: The backend's register would be too big.
        RuntimeError: Probability escaped the computational levels (this
            would indicate a broken decomposition, not user error).
    """
    n = spec.n
    register, emap, cnz_gates, per_count = _prepare_backend(
        n, spec.method, spec.odd_variant
    )
    k = auto_iterations(n) if spec.iterations == "auto" else int(spec.iterations)
    dims = register.dims
    arr = np.zeros(register.size, dtype=np.complex128)
    arr[0] = 1.0  # |0...0> embeds at level 0 on every site
    ones_index = register.index(embed_basis_state("1" * n, emap))

    def apply_step(step: Step) -> None:
        if step[0] == "cnz":
            if cnz_gates is None:
                arr[ones_index] *= -1.0
            else:
                for gate in cnz_gates:
                    _apply_gate_inplace(arr, dims, gate)
        else:
            _, qubit, u = step
            for gate in lift_single_qubit_gate(u, qubit, emap):
                _apply_gate_inplace(arr, dims, gate)

    for q in range(n):
        apply_step(("u", q, HADAMARD))
    iteration = build_oracle(spec.omega, n) + build_diffusion(n)
    for _ in range(k):
        for step in iteration:
            apply_step(step)

    readout = read_out(np.abs(arr) ** 2, emap)
    if readout.leakage > 1e-10:
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
