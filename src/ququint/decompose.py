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
:class:`~ququint.core.TwoQuditCZ` gates in the circuit. The sparse table
that verifies ladders and simulates documents runs each run of gates on at
most three sites that only permutes basis states (a pair of such swaps, a
Toffoli block) as the exact move of keys it is, and every other gate as it
is. The verifier builds, runs and scores its inputs one block at a time,
and a Grover search runs only on a ladder it reads as exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HADAMARD,
    MATRIX_TOL,
    MAX_STATE_SIZE,
    STATE_TOL,
    LevelPairGate,
    QuditCircuit,
    QuditGate,
    QuditRegister,
    TwoLevelUnitary,
    TwoQuditCZ,
    _Move,
    _apply_gate_inplace,
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

# Largest qubit count a Grover search or the count table's cross-check runs
# at: the largest n at which every method's ladder register fits
# MAX_STATE_SIZE (the qubit ladder's 2n - 2 two-level sites overflow first,
# 2^26 at n = 14). A verify sweep has no cap: any register that fits runs.
_MAX_SWEEP_N = (MAX_STATE_SIZE.bit_length() - 1) // 2 + 1


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
    chain_length: int, swap_levels: tuple[int, int], central: list[TwoQuditCZ]
) -> list[QuditGate]:
    """Controlled swaps of levels (k, l) up sites (0,1) .. (chain_length-1,
    chain_length), the central phase gate(s), then the chain again in
    reverse order. The first swap fires on its control at k, every later one
    at l: the level the swap before it raised its control to."""
    k, level_l = swap_levels
    chain: list[QuditGate] = []
    for site in range(chain_length):
        chain += build_cx(site, site + 1, k if site == 0 else level_l, k, level_l)
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
    circuit.extend(_ladder(num_sites - 2, (3, 4), central))
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
        circuit.extend(_ladder(n - 2, (1, 2), central))
    return DecompositionResult(circuit, emap, circuit.two_qudit_gate_count, 0)


def _toffoli_network(a: int, b: int, t: int) -> list[QuditGate]:
    """Exact doubly-controlled NOT from six CNOTs plus eighth-turn phases.

    Gates are immutable, so each distinct one is built once and listed
    wherever it recurs."""
    h, tee, tee_dagger = (LevelPairGate(t, 0, 1, u) for u in (HADAMARD, T_GATE, T_DAGGER))
    cx_bt, cx_at, cx_ab = build_cx(b, t, 1, 0, 1), build_cx(a, t, 1, 0, 1), build_cx(a, b, 1, 0, 1)
    return [
        h, *cx_bt, tee_dagger, *cx_at, tee, *cx_bt, tee_dagger, *cx_at,
        LevelPairGate(b, 0, 1, T_GATE), tee, *cx_ab,
        h, LevelPairGate(a, 0, 1, T_GATE), LevelPairGate(b, 0, 1, T_DAGGER), *cx_ab,
    ]


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
    if n == 2:
        return DecompositionResult(QuditCircuit(register, [TwoQuditCZ(0, 1, 1, 1)]), emap, 1, 0)
    blocks = [_toffoli_network(0, 1, n)]
    for j in range(1, n - 2):
        blocks.append(_toffoli_network(j + 1, n + j - 1, n + j))
    gates = [gate for block in blocks for gate in block]
    gates.append(TwoQuditCZ(n + ancillas - 1, n - 1, 1, 1))
    gates += [gate for block in reversed(blocks) for gate in block]
    circuit = QuditCircuit(register, gates)
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
# vector. The circuit is planned once (``_plan``): every window of
# consecutive gates on at most three sites whose product only permutes basis
# states and multiplies phases runs as one move of keys, and every other gate
# runs as it is. Each Toffoli block of the qubit ladder is such a window, and
# so is each pair of controlled level swaps of the qutrit and ququint
# ladders, so every phase ladder is moves only: its table keeps one row per
# input and it verifies with zero error and leakage. An inversion keeps its
# target's Hadamards as mixing gates. ``verify_decomposition`` is then one
# loop over blocks of integer inputs x, qubit 0 the most significant bit as in
# a search's read-out. Each block is encoded with its expected indices (its
# own for the phase gate) by lookups in two tables built once per sweep
# (``_block_encoder``: the register index of each value of x's low bits, and
# the part each value of its high bits adds), pushed through the plan as one
# sparse table with a row per live amplitude keyed by (input, flat index)
# (``core._propagate_sparse``) and scored. A table left with one row per
# input, as every phase ladder's is, scores each input by its row; any other
# keeps each input's largest error with a scatter. An expected index is
# computational, so only the rows off it are decoded for leakage, and a
# block with none, as every block of a passing phase ladder, decodes
# nothing. Only each block's largest score outlives the block, with the
# scores of the first block within ``STATE_TOL`` of the running maximum; a
# failing sweep re-runs the block that holds its worst input if a later
# block raised the maximum past that one. A Grover search runs only once
# this sweep reads its ladder as exactly the multi-controlled Z, and
# ``simulate`` runs a document through the same plan; tests cross-check
# both against the dense applier.
# ---------------------------------------------------------------------------

# Inputs propagated together, each bystander value of a qubit input counted
# as one. It bounds the table each step works on, whatever n is, and keeps
# keys below _BLOCK * register.size. A phase ladder keeps one row per input;
# each mixing gate left in a plan concatenates five arrays the size of its
# table, so one table for all 2^14 inputs raised the peak RSS of
# ``verify --n 14 --exhaustive --target x:13`` by 2-4 MiB on every method
# (qubit 37.7 -> 39.8 MiB) and ran no faster (2-vCPU host).
_BLOCK = 1024


# Windows: runs of consecutive gates on at most three sites, whose local
# unitary (at most 125 x 125, three five-level sites) is built once per
# distinct run. Two bounds keep the compile of a circuit of many mixing
# gates on few sites short: a run is cut at _WINDOW_GATES gates, and its
# scan stops once a product spreads a column over more than _WINDOW_SPREAD
# entries, past which no compiled ladder goes (its windows spread at most 4
# wide) and random mixing gates on three five-level sites go within a few
# gates.
_WINDOW_SITES = 3
_WINDOW_SIZE = 125
_WINDOW_GATES = 32
_WINDOW_SPREAD = 8
# Rounding of a window's product (its largest on the compiled ladders is
# 1.4e-15): a monomial window's other entries may be this far from 0, and a
# phase this close to 1, -1, i or -i is snapped to it. A larger deviation,
# such as a gate's own (each may be off by up to MATRIX_TOL), is kept as
# gate-by-gate runs keep it, so the verifier still reports it.
_SNAP = 1e-14
_UNITS = np.array([1, -1, 1j, -1j])


def _plan(register: QuditRegister, gates: list[QuditGate]) -> list:
    """The steps the sparse table runs for ``gates``, built once per circuit.

    From each gate on, the window is the longest run of gates on at most
    three sites. Its longest prefix whose local unitary is monomial (one
    entry per column of modulus within ``MATRIX_TOL`` of 1, every other
    entry at most ``_SNAP``) becomes one :class:`~ququint.core._Move`, or
    nothing when it is the identity; when no prefix is monomial, the first
    gate is kept as it is. A qubit Toffoli block, a qutrit or ququint pair
    of controlled level swaps and every phase gate become moves.

    Each gate's sites and payload are read once, into flat lists: its
    sites as a tuple and as bits, and its payload as ``(i, j, alpha, beta,
    gamma, delta)`` for a level-pair gate or ``(i, j, phase)`` for a
    controlled phase. A window's key is then its gates' sites renamed to
    their places among the window's, and its slice of payloads."""
    dims, strides = register.dims, register.strides
    gate_sites: list[tuple[int, ...]] = []
    masks: list[int] = []
    payloads: list[tuple] = []
    for gate in gates:
        if isinstance(gate, LevelPairGate):
            u = gate.u
            gate_sites.append((gate.site,))
            masks.append(1 << gate.site)
            payloads.append((gate.i, gate.j, u.alpha, u.beta, u.gamma, u.delta))
        else:
            gate_sites.append((gate.site_a, gate.site_b))
            masks.append(1 << gate.site_a | 1 << gate.site_b)
            payloads.append((gate.i, gate.j, gate.phase))
    steps: list = []
    g, count = 0, len(gates)
    while g < count:
        # the window from gate g: add each gate's new sites while they stay
        # within _WINDOW_SITES sites and a local space of _WINDOW_SIZE
        touched, sites, size = 0, [], 1
        end, stop = g, min(count, g + _WINDOW_GATES)
        while end < stop:
            if masks[end] & ~touched:
                new = [s for s in gate_sites[end] if not touched >> s & 1]
                grow = math.prod([dims[s] for s in new])
                if len(sites) + len(new) > _WINDOW_SITES or size * grow > _WINDOW_SIZE:
                    break
                touched |= masks[end]
                sites += new
                size *= grow
            end += 1
        sites.sort()
        local = {s: k for k, s in enumerate(sites)}
        renamed = map(local.__getitem__, itertools.chain.from_iterable(gate_sites[g:end]))
        key = tuple(renamed), tuple(payloads[g:end])
        length, delta, phase = _monomial_prefix(tuple([dims[s] for s in sites]), key)
        if not length:
            steps.append(gates[g])
            length = 1
        elif delta is not None or phase is not None:
            steps.append(_move(dims, strides, sites, delta, phase))
        g += length
    return steps


@functools.lru_cache(maxsize=256)
def _monomial_prefix(dims: tuple[int, ...], key: tuple) -> tuple:
    """The longest prefix of a window's gates whose local unitary is
    monomial: its length (0 if none is), then the change of each site's
    digit from every column to the row it goes to (None for the identity
    permutation), and the phase each column takes there, snapped to the
    nearest of 1, -1, i, -i within ``_SNAP`` (None if all are 1). ``key`` is
    ``_plan``'s: the window's local sites, one per level-pair gate and two
    per controlled phase, and each gate's payload.

    The unitary is built by running each gate through the stride kernel on
    the row digits of an identity matrix (at most 125 x 125, never
    register-sized)."""
    size = math.prod(dims)
    columns = np.arange(size)
    m = np.eye(size, dtype=np.complex128)
    mag = np.empty((size, size))  # reused: a fresh array per gate costs 3x
    found = 0, None, None
    local_sites, payloads = key
    place = 0
    for count, entry in enumerate(payloads, 1):
        if len(entry) == 6:
            i, j, *u = entry
            gate = LevelPairGate(local_sites[place], i, j, TwoLevelUnitary(*u))
            place += 1
        else:
            gate = TwoQuditCZ(*local_sites[place : place + 2], *entry)
            place += 2
        _apply_gate_inplace(m, dims + (size,), gate)
        np.abs(m, out=mag)
        widest = np.count_nonzero(mag > _SNAP, axis=0).max()
        if widest > _WINDOW_SPREAD:
            break
        if widest > 1:
            continue
        rows = mag.argmax(axis=0)
        if np.all(np.abs(mag[rows, columns] - 1.0) <= MATRIX_TOL) and np.all(
            np.bincount(rows, minlength=size) == 1
        ):
            phase = m[rows, columns]
            near = np.abs(phase[:, None] - _UNITS) <= _SNAP
            phase = np.where(near.any(axis=1), _UNITS[near.argmax(axis=1)], phase)
            digits = np.array(np.unravel_index(columns, dims))
            delta = digits[:, rows] - digits
            delta.flags.writeable = phase.flags.writeable = False  # shared via the cache
            found = (
                count,
                delta if delta.any() else None,
                None if np.all(phase == 1) else phase,
            )
    return found


def _move(dims, strides, sites: list[int], delta: np.ndarray | None, phase) -> _Move:
    """The move of a monomial window on ``sites`` (``_monomial_prefix``'s
    digit changes ``delta`` and ``phase``) on a register of ``dims``."""
    shift = None if delta is None else np.array([strides[s] for s in sites]).dot(delta)
    # one read per run of adjacent sites, the least significant run first
    reads, weight, k = [], 1, len(sites)
    while k:
        j, span = k - 1, dims[sites[k - 1]]
        while j and sites[j - 1] == sites[j] - 1:
            j -= 1
            span *= dims[sites[j]]
        reads.append((strides[sites[k - 1]], span, weight))
        weight *= span
        k = j
    return _Move(tuple(reads), shift, phase)


def _block_encoder(emap: EmbeddingMap):
    """The sweep's encoder: ``encode(x)`` is the flat register index of each
    integer input x (qubit 0 its most significant bit) with every bystander
    value, bystander innermost, as :meth:`EmbeddingMap.encode` gives it.

    One table, built per encoder, holds the index of every value of x's low
    bits, as many as a block of ``_BLOCK`` inputs spans (all n bits when n
    is at most that), and a second the part every value of its high bits
    adds, so a block costs a lookup or two, whatever n is."""
    weights, offset = emap._encoder
    weights = weights.tolist()
    n, low_bits = len(weights), min(len(weights), _BLOCK.bit_length() - 1)
    low = _bit_table(weights[n - low_bits :])
    if low_bits == n:
        index = low.__getitem__
    else:
        high, mask = _bit_table(weights[: n - low_bits]), (1 << low_bits) - 1

        def index(x):
            return high[x >> low_bits] + low[x & mask]

    if not emap.bystander_sites:
        return index
    offsets = np.array([0, offset])
    return lambda x: (index(x)[:, None] + offsets).ravel()


def _bit_table(weights: list[int]) -> np.ndarray:
    """Entry v: the sum of ``weights`` over v's one bits, the first weight
    on v's most significant bit."""
    table = np.empty(1 << len(weights), dtype=np.int64)
    table[0], half = 0, 1
    for weight in reversed(weights):
        np.add(table[:half], weight, out=table[half : 2 * half])
        half *= 2
    return table


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


def verify_decomposition(
    result: DecompositionResult,
    target_qubit: int | None = None,
    bits_subset=None,
) -> VerificationReport:
    """Check a compiled circuit against the exact gate action on every basis
    input x, an integer counted up with qubit 0 as its most significant bit
    (all bystander values included for layouts that have one).

    Args:
        result: The compiled circuit to check. Only its ``circuit`` and
            ``embedding`` are read, so a loaded ``CircuitDocument`` will do.
        target_qubit: ``None`` if the circuit should act as the phase gate;
            otherwise the inversion target it should flip.
        bits_subset: Optional iterable of bitstrings to restrict the sweep.

    Returns:
        Worst amplitude error, worst leakage probability, and the worst input
        (bystander innermost in sweep order), as :class:`VerificationReport`.

    Raises:
        ValueError: The target is out of range, or ``bits_subset`` holds a
            malformed bitstring or none at all (a sweep over no input would
            pass vacuously).
    """
    emap = result.embedding
    n = emap.qubit_count
    if target_qubit is not None and not 0 <= target_qubit < n:
        raise ValueError(f"target qubit {target_qubit} out of range")
    if bits_subset is None:
        subset, count = None, 2**n
    else:
        rows = [_parse_bits(bitstring, n) for bitstring in bits_subset]
        if not rows:
            raise ValueError("bits_subset names no input to check")
        shifts = np.arange(n - 1, -1, -1)  # qubit q is bit n - 1 - q of an input x
        subset = np.array(rows, dtype=np.int64).reshape(len(rows), n) @ (1 << shifts)
        count = len(subset)
    full = 2**n - 1  # the all-ones input
    width = 2 if emap.bystander_sites else 1
    register = result.circuit.register
    size = register.size
    plan = _plan(register, result.circuit.gates)
    encode = _block_encoder(emap)
    step = _BLOCK // width  # qubit inputs per block

    # the largest error and leakage of the block from input lo, and the
    # max(error, leakage) of each of its (input, bystander) pairs
    def score(lo):
        x = np.arange(lo, min(count, lo + step)) if subset is None else subset[lo : lo + step]
        starts = encode(x)
        m = len(starts)
        if target_qubit is None:
            expects, signs = starts, np.repeat(np.where(x == full, -1.0, 1.0), width)
        else:
            flip = 1 << (n - 1 - target_qubit)
            expects, signs = encode(np.where((x | flip) == full, x ^ flip, x)), np.ones(m)
        base = np.arange(m) * size  # row r's key is r * size + its index
        keys, amps = _propagate_sparse(register, plan, base + starts, np.ones(m))
        # one row per input, as every phase ladder keeps (row r is input r's):
        # each input's error is its row's, with no scatter
        index = keys - base if len(keys) == m else None
        if index is not None and index.min() >= 0 and index.max() < size:
            hit = index == expects
            owner, missed = np.arange(m), ~hit
            errors = np.abs(amps - np.where(hit, signs, 0.0))
        else:
            owner, index = np.divmod(keys, size)
            hit = index == expects[owner]
            errors = np.zeros(m)
            np.maximum.at(errors, owner, np.abs(amps - np.where(hit, signs[owner], 0.0)))
            # an expected index that did not survive is a full miss
            missed = np.ones(m, dtype=bool)
            missed[owner[hit]] = False
        errors[missed] = np.maximum(errors[missed], 1.0)
        # an expected index is computational, so only rows off it can leak
        if hit.all():
            return errors.max(), 0.0, errors
        off = ~hit
        _, computational = emap.decode(index[off])
        prob = np.where(computational, 0.0, np.abs(amps[off]) ** 2)
        leaks = np.bincount(owner[off], weights=prob, minlength=m)
        return errors.max(), leaks.max(), np.maximum(errors, leaks)

    # each block's largest score, and the scores of the first block within
    # STATE_TOL of the running maximum
    maxima = np.empty(-(-count // step))
    max_error = max_leak = 0.0
    kept = -1, None
    for block, lo in enumerate(range(0, count, step)):
        error, leak, scores = score(lo)
        maxima[block] = scores.max()
        if not block or maxima[block] - STATE_TOL > np.maximum(max_error, max_leak):
            kept = block, scores
        max_error = np.maximum(max_error, error)  # a NaN stays a NaN
        max_leak = np.maximum(max_leak, leak)

    report = VerificationReport(float(max_error), float(max_leak), count * width, None)
    if not report.passed():
        top = maxima.max()
        block = int(np.argmax(maxima >= top - STATE_TOL))
        scores = kept[1] if kept[0] == block else score(block * step)[2]
        row, bystander = divmod(int(np.argmax(scores >= top - STATE_TOL)), width)
        row += block * step
        x = row if subset is None else subset[row]
        report.worst_input = format(x, f"0{n}b") + (
            f"+bystander{bystander}" if emap.bystander_sites else ""
        )
    return report
