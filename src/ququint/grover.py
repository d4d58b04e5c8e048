"""Grover search for a hidden bitstring, lowered through a chosen backend.

The circuit is the usual one: Hadamards everywhere, then per iteration a
phase oracle (X gates on the zero bits of the target string around a
multi-controlled Z, so exactly |omega> flips sign) followed by the diffusion
reflection (the same multi-controlled Z sandwiched between X and H layers).
Each iteration therefore contains exactly two multi-controlled gates.

Backends differ only in where that multi-controlled Z comes from:

- ``reference`` takes the exact phase flip (no decomposition, so no
  two-particle gate tally);
- ``qubit``, ``qutrit`` and ``ququint`` compile the corresponding ladder
  with :mod:`ququint.decompose`, and the search runs only once
  ``verify_decomposition`` reads it as exactly the multi-controlled Z on
  every embedded basis input (amplitude error and leakage both 0).

Every backend then runs the same search (:func:`_search`), so all report the
same outcome distribution with zero leakage; only the two-particle gate count
differs. The search applies each iteration as the two reflections its steps
equal, 1 - 2|omega><omega| and 1 - 2|s><s| with |s> the uniform state, as
``TestOracle::test_flips_only_omega`` and
``TestDiffusion::test_is_reflection_about_uniform_state`` check. Both keep
span{|omega>, |s>}, so it iterates two amplitudes, the marked one and the
one every other bitstring shares, in O(k + 2^n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HADAMARD, PAULI_X, DimensionTooLargeError
from .decompose import (
    _MAX_SWEEP_N,
    METHODS,
    DecompositionRequest,
    decompose_cnz,
    verify_decomposition,
)
from .embedding import ODD_VARIANTS, OutcomeView, _parse_bits

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
    """Outcome of one simulated search run. ``distribution`` is a read-only
    :class:`OutcomeView` of the search's outcome array, not a copy."""

    n: int
    omega: str
    method: str
    iterations: int
    success_probability: float
    top_outcome: str
    two_particle_gate_count: int
    leakage: float
    distribution: OutcomeView


def _search(n: int, omega: str, k: int) -> np.ndarray:
    """Outcome probabilities, bitstring x at index x (qubit 0 most
    significant), after the Hadamard layer and ``k`` iterations with the
    exact multi-controlled Z. The oracle 1 - 2|omega><omega|
    (``TestOracle::test_flips_only_omega``) and the diffusion 1 - 2|s><s|
    (``TestDiffusion::test_is_reflection_about_uniform_state``) both keep
    span{|omega>, |s>}, so the state is two real amplitudes: ``a`` on omega
    and ``b`` on each of the other 2^n - 1 entries. The oracle negates
    ``a``; the diffusion subtracts twice the mean from both. A search costs
    O(k + 2^n) and fills one array; ``TestSearchMatchesTheCircuit`` compares
    the result with the circuit's steps run gate by gate.
    """
    size = 2**n
    a = b = 2.0 ** (-n / 2)  # H on every qubit of |0...0>
    for _ in range(k):
        a = -a
        mean = (a + (size - 1) * b) / size
        a -= 2.0 * mean
        b -= 2.0 * mean
    probs = np.full(size, b * b)
    probs[int(omega, 2)] = a * a
    return probs


def run_grover(spec: GroverSpec) -> GroverReport:
    """Simulate a full search run and report the exact outcome distribution.

    A compiled backend's ladder is checked first: ``verify_decomposition``
    runs it on every embedded basis input, with both bystander values where
    the layout has one, and the search runs only when amplitude error and
    leakage are both exactly 0. The ladder is then exactly the
    multi-controlled Z, so every backend runs the same search
    (:func:`_search`), whose distribution and zero leakage are the ladder's.
    Only the two-particle gate tally differs.

    Raises:
        RuntimeError: The compiled ladder is not exactly the
            multi-controlled Z (this would indicate a broken decomposition,
            not user error); the message names the worst input when the
            verifier names one, the amplitude error and the leakage.
    """
    n = spec.n
    per_count = 0
    if spec.method != "reference":
        result = decompose_cnz(DecompositionRequest(n, spec.method, spec.odd_variant))
        check = verify_decomposition(result)
        if check.max_amplitude_error != 0.0 or check.max_leakage != 0.0:
            worst = f" (worst input {check.worst_input})" if check.worst_input else ""
            raise RuntimeError(
                f"the {spec.method} ladder is not exactly the multi-controlled Z"
                f"{worst}: amplitude error {check.max_amplitude_error}, leakage "
                f"{check.max_leakage}; the decomposition is broken"
            )
        per_count = result.two_particle_gate_count
    k = auto_iterations(n) if spec.iterations == "auto" else int(spec.iterations)
    probs = _search(n, spec.omega, k)
    return GroverReport(
        n=n,
        omega=spec.omega,
        method=spec.method,
        iterations=k,
        success_probability=float(probs[int(spec.omega, 2)]),
        top_outcome=format(int(np.argmax(probs)), f"0{n}b"),  # the first on a tie
        two_particle_gate_count=k * 2 * per_count,
        leakage=0.0,
        distribution=OutcomeView(probs),
    )
