"""Compiling the symmetric multi-controlled phase gate to two-particle gates.

The n-qubit gate sends |b_1 ... b_n> to (-1)^(b_1 AND ... AND b_n)|b_1 ... b_n>.
Three lowering strategies are provided; each returns a circuit over its own
register plus the embedding that interprets it:

``ququint``
    Qubits live two per five-level site. A forward chain of controlled
    level swaps climbs the register, parking "all bits so far are 1" in the
    spare level 4 of each site in turn; one controlled phase fires in the
    middle; the chain is undone in reverse. Odd qubit counts put the last
    qubit on an extra site, either alone (``single``) or next to a bystander
    (``neighbor``, which doubles the central gate to preserve the bystander).
    Two-particle cost: 0 for n=2, n-3 for even n, n-2 / n-1 for odd n with
    the single / neighbor layout.

``qutrit``
    One qubit per three-level site, level 2 as working space; the analogous
    V-shaped chain costs 2n-3 two-particle gates.

``qubit``
    One qubit per two-level site plus n-2 clean work sites, lowered
    through the standard AND ladder with each three-qubit step expanded
    into its exact six-CNOT network; costs 12n-23 two-particle gates for
    n >= 3 (a bare controlled-Z, cost 1, for n=2).

Every controlled level swap is inlined as (H on the level pair, controlled
phase, H again), so the two-particle tally is exactly the number of
:class:`~ququint.core.TwoQuditCZ` gates in the circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HADAMARD,
    STATE_TOL,
    LevelPairGate,
    QuditCircuit,
    QuditGate,
    QuditRegister,
    TwoQuditCZ,
    _propagate_sparse,
    phase_shift,
)
from .embedding import (
    ODD_VARIANTS,
    EmbeddingMap,
    QubitSlot,
    _parse_bits,
    default_embedding,
    intra_ququint_cz,
    lift_hadamard,
)

T_GATE = phase_shift(math.pi / 4)
T_DAGGER = T_GATE.dagger()

# Largest qubit count a request may name, also the gate-count table's
# ceiling. Registers stop fitting MAX_STATE_SIZE well below it (ququint at
# n = 23), so larger requests are refused before any ladder is laid out.
_MAX_N = 30


@dataclass(frozen=True)
class DecompositionRequest:
    """What to compile.

    Args:
        n: Number of qubits the gate acts on, 2 to 30.
        method: One of ``ququint``, ``qutrit``, ``qubit``.
        odd_variant: Layout of the last qubit for odd ``n`` with the ququint
            method (``single`` or ``neighbor``); ignored otherwise.
        target_qubit: ``None`` compiles the phase gate; an index compiles the
            controlled inversion with that qubit as target.
    """

    n: int
    method: str
    odd_variant: str = "single"
    target_qubit: int | None = None

    def __post_init__(self):
        if not 2 <= self.n <= _MAX_N:
            raise ValueError(f"need 2 to {_MAX_N} qubits, got n={self.n}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.odd_variant not in ODD_VARIANTS:
            raise ValueError(f"unknown odd variant {self.odd_variant!r}")
        if self.target_qubit is not None and not 0 <= self.target_qubit < self.n:
            raise ValueError(f"target qubit {self.target_qubit} out of range")


@dataclass
class DecompositionResult:
    """A compiled circuit together with its interpretation and cost."""

    circuit: QuditCircuit
    embedding: EmbeddingMap
    two_particle_gate_count: int
    ancilla_systems: int


def reported_count(method: str, n: int, odd_variant: str = "single") -> int:
    """Closed-form two-particle gate count of a method at size ``n``.

    Matches the constructed circuits exactly wherever those are small
    enough to build (:func:`ququint.counts.count_table` cross-checks).
    """
    if n < 2:
        raise ValueError(f"need at least two qubits, got n={n}")
    if odd_variant not in ODD_VARIANTS:
        raise ValueError(f"unknown odd variant {odd_variant!r}")
    if method == "qubit":
        return 1 if n == 2 else 12 * n - 23
    if method == "qutrit":
        return 2 * n - 3
    if method == "ququint":
        if n == 2:
            return 0
        if n % 2 == 0:
            return n - 3
        return n - 2 if odd_variant == "single" else n - 1
    raise ValueError(f"unknown method {method!r}")


def build_cx(
    site_ctl: int, site_tgt: int, i: int, k: int, level_l: int
) -> list[QuditGate]:
    """Controlled level swap: exchange |k> and |l> of the target site when
    the control site is at |i>.

    Expanded as H on the target's (k, l) pair, a controlled phase on
    (i, l), and H again; exactly one two-particle gate.
    """
    if not k < level_l:
        raise ValueError(f"swap levels must satisfy k < l, got ({k}, {level_l})")
    h = LevelPairGate(site_tgt, k, level_l, HADAMARD)
    return [h, TwoQuditCZ(site_ctl, site_tgt, i, level_l), h]


def _ladder(
    chain_length: int,
    swap_levels: tuple[int, int],
    first_control: int,
    chain_control: int,
    central: list[TwoQuditCZ],
) -> list[QuditGate]:
    """Controlled swaps up sites (0,1) .. (chain_length-1, chain_length),
    the central phase gate(s), then the chain again in reverse order."""
    chain: list[QuditGate] = []
    for k in range(chain_length):
        control = first_control if k == 0 else chain_control
        chain += build_cx(k, k + 1, control, *swap_levels)
    return chain + list(central) + chain[::-1]


def decompose_cnz_ququint(n: int, odd_variant: str = "single") -> DecompositionResult:
    """Multi-controlled phase on qubits packed two per five-level site."""
    emap = default_embedding(n, odd_variant)
    circuit = QuditCircuit(emap.register)
    if n == 2:
        # both qubits share one site: a single local gate, no interaction
        circuit.append(intra_ququint_cz(0, emap))
        return DecompositionResult(circuit, emap, 0, 0)
    num_sites = emap.register.num_sites
    # the site feeding the central gate signals "all earlier bits are 1"
    # at level 4 once the chain has run, or at level 3 if there is no chain
    feed = 4 if num_sites > 2 else 3
    last = num_sites - 1
    if n % 2 == 0:
        central = [TwoQuditCZ(last - 1, last, feed, 3)]
    elif odd_variant == "single":
        central = [TwoQuditCZ(last - 1, last, feed, 1)]
    else:
        # fire on both levels with the last qubit at 1 so the bystander
        # bit never matters
        central = [
            TwoQuditCZ(last - 1, last, feed, 2),
            TwoQuditCZ(last - 1, last, feed, 3),
        ]
    circuit.extend(_ladder(num_sites - 2, (3, 4), 3, 4, central))
    return DecompositionResult(circuit, emap, circuit.two_qudit_gate_count, 0)


def decompose_cnz_qutrit(n: int) -> DecompositionResult:
    """Multi-controlled phase on qubits held in levels {0, 1} of qutrits."""
    if n < 2:
        raise ValueError(f"need at least two qubits, got n={n}")
    register = QuditRegister((3,) * n)
    emap = EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n)))
    circuit = QuditCircuit(register)
    if n == 2:
        circuit.append(TwoQuditCZ(0, 1, 1, 1))
    else:
        central = [TwoQuditCZ(n - 2, n - 1, 2, 1)]
        circuit.extend(_ladder(n - 2, (1, 2), 1, 2, central))
    return DecompositionResult(circuit, emap, circuit.two_qudit_gate_count, 0)


def _cnot(control: int, target: int) -> list[QuditGate]:
    h = LevelPairGate(target, 0, 1, HADAMARD)
    return [h, TwoQuditCZ(control, target, 1, 1), h]


def _toffoli_network(a: int, b: int, t: int) -> list[QuditGate]:
    """Exact doubly-controlled NOT from six CNOTs plus eighth-turn phases."""
    gates: list[QuditGate] = [LevelPairGate(t, 0, 1, HADAMARD)]
    gates += _cnot(b, t)
    gates.append(LevelPairGate(t, 0, 1, T_DAGGER))
    gates += _cnot(a, t)
    gates.append(LevelPairGate(t, 0, 1, T_GATE))
    gates += _cnot(b, t)
    gates.append(LevelPairGate(t, 0, 1, T_DAGGER))
    gates += _cnot(a, t)
    gates.append(LevelPairGate(b, 0, 1, T_GATE))
    gates.append(LevelPairGate(t, 0, 1, T_GATE))
    gates += _cnot(a, b)
    gates.append(LevelPairGate(t, 0, 1, HADAMARD))
    gates.append(LevelPairGate(a, 0, 1, T_GATE))
    gates.append(LevelPairGate(b, 0, 1, T_DAGGER))
    gates += _cnot(a, b)
    return gates


def decompose_cnz_qubit(n: int) -> DecompositionResult:
    """Multi-controlled phase on plain qubits with n-2 clean work sites.

    Work sites accumulate the running AND of the controls; the central
    controlled-Z fires between the last work site and the final qubit; the
    AND ladder is then undone block by block in reverse.
    """
    if n < 2:
        raise ValueError(f"need at least two qubits, got n={n}")
    ancillas = max(n - 2, 0)
    register = QuditRegister((2,) * (n + ancillas))
    emap = EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n)))
    circuit = QuditCircuit(register)
    if n == 2:
        circuit.append(TwoQuditCZ(0, 1, 1, 1))
        return DecompositionResult(circuit, emap, 1, 0)
    blocks = [_toffoli_network(0, 1, n)]
    for j in range(1, n - 2):
        blocks.append(_toffoli_network(j + 1, n + j - 1, n + j))
    for block in blocks:
        circuit.extend(block)
    circuit.append(TwoQuditCZ(n + ancillas - 1, n - 1, 1, 1))
    for block in reversed(blocks):
        circuit.extend(block)
    return DecompositionResult(circuit, emap, circuit.two_qudit_gate_count, ancillas)


def to_cnx(result: DecompositionResult, target_qubit: int) -> DecompositionResult:
    """Turn a compiled phase gate into a controlled inversion by surrounding
    the target qubit with Hadamards; the two-particle count is unchanged."""
    hs = lift_hadamard(target_qubit, result.embedding)
    circuit = QuditCircuit(
        result.circuit.register, hs + result.circuit.gates + hs
    )
    return DecompositionResult(
        circuit, result.embedding, result.two_particle_gate_count, result.ancilla_systems
    )


# Method name -> compiler taking (n, odd_variant); the one place a name
# becomes a ladder.
_COMPILERS = {
    "ququint": decompose_cnz_ququint,
    "qutrit": lambda n, odd_variant: decompose_cnz_qutrit(n),
    "qubit": lambda n, odd_variant: decompose_cnz_qubit(n),
}
METHODS = tuple(_COMPILERS)


def decompose_cnz(request: DecompositionRequest) -> DecompositionResult:
    """Compile a request with any method; see the module docstring."""
    result = _COMPILERS[request.method](request.n, request.odd_variant)
    expected = reported_count(request.method, request.n, request.odd_variant)
    if result.two_particle_gate_count != expected:
        raise RuntimeError(
            f"constructed count {result.two_particle_gate_count} disagrees with "
            f"the closed form {expected} for {request}"
        )
    if request.target_qubit is not None:
        result = to_cnx(result, request.target_qubit)
    return result


# ---------------------------------------------------------------------------
# Exhaustive verification. Ladder circuits keep each basis input supported on
# a handful of basis states at any moment, so the sweep never builds a dense
# vector: it pushes a block of inputs through the circuit together as one
# sparse table with a row per live amplitude, keyed by (input, flat index)
# (``core._propagate_sparse``). Blocks of ``_BLOCK`` inputs bound the table,
# and with it peak memory, whatever n is. Start and expected indices are
# encoded for every input at once (``EmbeddingMap.encode``), and per-input
# errors and leakage are reduced over the table's rows. Tests cross-check
# the sparse propagator against the dense applier.
# ---------------------------------------------------------------------------

_BLOCK = 256  # inputs propagated together


def _propagate_basis(
    register: QuditRegister, gates: list[QuditGate], start_index: int
) -> dict[int, complex]:
    keys, amps = _propagate_sparse(register, gates, np.array([start_index]), np.ones(1))
    return dict(zip(keys.tolist(), amps.tolist()))


@dataclass
class VerificationReport:
    """Worst-case deviation of a compiled circuit from its specification.

    ``worst_input`` is the first input, in sweep order, whose larger of
    amplitude error and leakage is within ``STATE_TOL`` of the largest over
    all inputs; it is ``None`` exactly when the circuit passed.
    """

    max_amplitude_error: float
    max_leakage: float
    inputs_checked: int
    worst_input: str | None

    def passed(self) -> bool:
        """Amplitude error and leakage both below ``STATE_TOL`` on every input."""
        return self.max_amplitude_error < STATE_TOL and self.max_leakage < STATE_TOL


def _block_scores(result, starts, expects, signs):
    """Amplitude error and leakage of each input of one block, propagated
    together from flat indices ``starts``; each input should end at
    ``expects`` with amplitude ``signs``."""
    register = result.circuit.register
    count, size = len(starts), register.size
    keys, amps = _propagate_sparse(
        register, result.circuit.gates, np.arange(count) * size + starts, np.ones(count)
    )
    owner, index = np.divmod(keys, size)
    hit = index == expects[owner]
    wanted = np.where(hit, signs[owner], 0.0)
    errors = np.zeros(count)
    np.maximum.at(errors, owner, np.abs(amps - wanted))
    # an expected index that did not survive is a full miss
    missed = np.ones(count, dtype=bool)
    missed[owner[hit]] = False
    errors[missed] = np.maximum(errors[missed], 1.0)
    _, computational = result.embedding.decode(index)
    prob = np.where(computational, 0.0, np.abs(amps) ** 2)
    leaks = np.bincount(owner, weights=prob, minlength=count)
    return errors, leaks


def verify_decomposition(
    result: DecompositionResult,
    target_qubit: int | None = None,
    bits_subset=None,
) -> VerificationReport:
    """Check a compiled circuit against the exact gate action on every basis
    input (all bystander values included for layouts that have one).

    Args:
        result: The compiled circuit to check.
        target_qubit: ``None`` if the circuit should act as the phase gate;
            otherwise the inversion target it should flip.
        bits_subset: Optional iterable of bitstrings to restrict the sweep.

    Returns:
        Worst amplitude error, worst leakage probability, and the worst input
        (bystander innermost in sweep order), as :class:`VerificationReport`.
    """
    emap = result.embedding
    n = emap.qubit_count
    if target_qubit is not None and not 0 <= target_qubit < n:
        raise ValueError(f"target qubit {target_qubit} out of range")
    if bits_subset is None:
        # every bitstring in counting order, qubit 0 the most significant
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    else:
        rows = [_parse_bits(bitstring, n) for bitstring in bits_subset]
        bits = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    expected = bits.copy()
    if target_qubit is None:
        signs = np.where(bits.all(axis=1), -1.0, 1.0)
    else:
        controls = np.delete(bits, target_qubit, axis=1).all(axis=1)
        expected[controls, target_qubit] ^= 1
        signs = np.ones(len(bits))
    bystanders = (0, 1) if emap.bystander_sites else (0,)

    def encode(rows):  # one entry per (input, bystander), bystander innermost
        return np.stack([emap.encode(rows, b) for b in bystanders], axis=1).ravel()

    starts, expects = encode(bits), encode(expected)
    signs = np.repeat(signs, len(bystanders))

    errors, leaks = np.zeros(len(starts)), np.zeros(len(starts))
    for lo in range(0, len(starts), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        errors[block], leaks[block] = _block_scores(
            result, starts[block], expects[block], signs[block]
        )

    report = VerificationReport(
        float(errors.max(initial=0.0)), float(leaks.max(initial=0.0)), len(starts), None
    )
    if not report.passed():
        scores = np.maximum(errors, leaks)
        first = int(np.argmax(scores >= scores.max() - STATE_TOL))
        row, bystander = divmod(first, len(bystanders))
        report.worst_input = "".join(str(b) for b in bits[row].tolist()) + (
            f"+bystander{bystander}" if emap.bystander_sites else ""
        )
    return report
