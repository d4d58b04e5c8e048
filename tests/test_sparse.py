"""Property tests on random mixed-radix circuits: the sparse basis
propagator (gate by gate, and through a plan of monomial windows run as
moves of keys), the dense stride applier and the Kronecker matrices agree,
``simulate`` prints what the dense route reads out, and documents
round-trip byte for byte."""

import cmath
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ququint import (
    HADAMARD,
    PAULI_X,
    CircuitDocument,
    DecompositionRequest,
    DecompositionResult,
    EmbeddingMap,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    QubitSlot,
    StateVector,
    TwoLevelUnitary,
    TwoQuditCZ,
    apply_circuit,
    build_cx,
    circuit_unitary,
    decompose_cnz,
    embed_basis_state,
    load_document,
    phase_shift,
    save_document,
    verify_decomposition,
)
from ququint.cli import main
from ququint.core import STATE_TOL, _propagate_sparse
from ququint.decompose import T_DAGGER, T_GATE, _plan, _propagate_basis, _toffoli_network
from readout import dense_read_out
from reference_plan import assert_same_steps, reference_plan

angles = st.floats(0, 2 * np.pi)


@st.composite
def unitaries(draw):
    kind = draw(st.sampled_from(["diagonal", "mixing", "exact"]))
    if kind == "exact":
        # entries that cancel exactly exercise merging and pruning
        return draw(st.sampled_from([HADAMARD, PAULI_X]))
    a, b = cmath.exp(1j * draw(angles)), cmath.exp(1j * draw(angles))
    if kind == "diagonal":
        return TwoLevelUnitary(a, 0, 0, b)
    theta = draw(angles)
    c, s = np.cos(theta), np.sin(theta)
    return TwoLevelUnitary(c * a, s * b, -s * b.conjugate(), c * a.conjugate())


def level_pairs(dim):
    return st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def swap_triples(draw, dims):
    """H on a target's pair (k, l), a -1 phase on (control at i, target at
    l) in either site order, and the same H: a controlled level swap. Or a
    near miss that must stay on the mixing path: the phase on k, a phase
    other than -1, or the second H on another pair or site. A mixing gate on
    the pair may come first, so one input is live on both k and l."""
    sites = st.integers(0, len(dims) - 1)
    target, control = draw(st.lists(sites, min_size=2, max_size=2, unique=True))
    k, level_l = draw(level_pairs(dims[target]))
    i = draw(st.integers(0, dims[control] - 1))
    miss = draw(st.sampled_from([None, "phase-on-k", "other-phase", "other-pair"]))
    h = LevelPairGate(target, k, level_l, HADAMARD)
    phased, phase = (k if miss == "phase-on-k" else level_l), -1
    if miss == "other-phase":
        phase = draw(st.sampled_from([1, 1j, -1j]) | angles.map(lambda a: cmath.exp(1j * a)))
    second = h
    if miss == "other-pair":
        others = [(s, a, b) for s, d in enumerate(dims) for a in range(d) for b in range(a + 1, d)
                  if (s, a, b) != (target, k, level_l)]
        second = LevelPairGate(*draw(st.sampled_from(others)), HADAMARD)
    cz = draw(st.sampled_from([
        TwoQuditCZ(control, target, i, phased, phase),
        TwoQuditCZ(target, control, phased, i, phase),
    ]))
    spread = [LevelPairGate(target, k, level_l, draw(unitaries()))] if draw(st.booleans()) else []
    return spread + [h, cz, second]


def off_hadamard(gate, angle=1e-9):
    """``gate`` with its Hadamard turned ``angle`` rad away."""
    c, s = math.cos(math.pi / 4 + angle), math.sin(math.pi / 4 + angle)
    return LevelPairGate(gate.site, gate.i, gate.j, TwoLevelUnitary(c, s, s, -c))


@st.composite
def windows(draw, dims):
    """Gates on at most three sites that only permute basis states: a
    Toffoli network (on levels 0 and 1 of sites of any dimension), or two
    controlled level swaps of one target pair around a diagonal gate. Or a
    near miss, whose window must not run as a move: one T of the network
    made S, a controlled phase of i, or one Hadamard off by 1e-9."""
    sites = draw(st.permutations(range(len(dims))))
    if len(dims) >= 3 and draw(st.booleans()):
        gates = _toffoli_network(*sites[:3])
    else:
        control, target = sites[:2]
        k, level_l = draw(level_pairs(dims[target]))
        levels = st.integers(0, dims[control] - 1)
        a, b = cmath.exp(1j * draw(angles)), cmath.exp(1j * draw(angles))
        middle = draw(st.sampled_from([
            LevelPairGate(target, k, level_l, TwoLevelUnitary(a, 0, 0, b)),
            TwoQuditCZ(control, target, draw(levels), draw(st.integers(0, dims[target] - 1)), a),
        ]))
        gates = (
            build_cx(control, target, draw(levels), k, level_l)
            + [middle]
            + build_cx(control, target, draw(levels), k, level_l)
        )
    miss = draw(st.sampled_from([None, "t-to-s", "phase-i", "off-by-1e-9"]))
    kinds = {
        "t-to-s": lambda g: isinstance(g, LevelPairGate) and g.u in (T_GATE, T_DAGGER),
        "phase-i": lambda g: isinstance(g, TwoQuditCZ),
        "off-by-1e-9": lambda g: isinstance(g, LevelPairGate) and g.u == HADAMARD,
    }
    spots = [i for i, g in enumerate(gates) if miss and kinds[miss](g)]
    if spots:
        i = draw(st.sampled_from(spots))
        g = gates[i]
        if miss == "t-to-s":
            gates[i] = LevelPairGate(g.site, g.i, g.j, phase_shift(math.pi / 2))
        elif miss == "phase-i":
            gates[i] = TwoQuditCZ(g.site_a, g.site_b, g.i, g.j, 1j)
        else:
            gates[i] = off_hadamard(g)
    return gates


@st.composite
def circuits(draw):
    dims = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    sites = st.integers(0, len(dims) - 1)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["pair", "run", "cz", "swap", "window"]))
        pairs = [g for g in gates if isinstance(g, LevelPairGate)]
        if kind == "swap":
            gates += draw(swap_triples(dims))
        elif kind == "window":
            gates += draw(windows(dims))
        elif kind == "run" and pairs:
            # the levels of the last level-pair gate again: a same-site run
            last = pairs[-1]
            gates.append(LevelPairGate(last.site, last.i, last.j, draw(unitaries())))
        elif kind != "cz":
            site = draw(sites)
            i, j = draw(level_pairs(dims[site]))
            gates.append(LevelPairGate(site, i, j, draw(unitaries())))
        else:
            a, b = draw(st.lists(sites, min_size=2, max_size=2, unique=True))
            level_a = draw(st.integers(0, dims[a] - 1))
            level_b = draw(st.integers(0, dims[b] - 1))
            gates.append(TwoQuditCZ(a, b, level_a, level_b, cmath.exp(1j * draw(angles))))
    return QuditCircuit(QuditRegister(tuple(dims)), gates)


def dense_columns(circuit):
    """Column k: the circuit applied to basis state k by the stride applier."""
    register = circuit.register
    return np.stack([
        apply_circuit(StateVector.basis_state(register, register.label(k)), circuit).amplitudes
        for k in range(register.size)
    ], axis=1)


def batched_columns(register, gates):
    """Column k: ``gates`` applied to basis state k, every basis state in
    one table of the sparse propagator."""
    size = register.size
    starts = np.arange(size)
    keys, amps = _propagate_sparse(register, gates, starts * size + starts, np.ones(size))
    assert np.all(np.diff(keys) > 0)  # sorted by (input, index), no duplicates
    batched = np.zeros((size, size), dtype=complex)
    inputs, index = np.divmod(keys, size)
    batched[index, inputs] = amps
    return batched


@given(circuits())
def test_sparse_propagation_matches_dense(circuit):
    register = circuit.register
    size = register.size
    dense = dense_columns(circuit)
    assert np.max(np.abs(batched_columns(register, circuit.gates) - dense)) < STATE_TOL

    for start in range(size):
        single = np.zeros(size, dtype=complex)
        for index, amp in _propagate_basis(register, circuit.gates, start).items():
            single[index] = amp
        assert np.max(np.abs(single - dense[:, start])) < STATE_TOL


@given(circuits())
def test_dense_applier_matches_kronecker_matrices(circuit):
    assert np.max(np.abs(dense_columns(circuit) - circuit_unitary(circuit))) < STATE_TOL


@given(circuits())
def test_planned_sparse_propagation_matches_dense(circuit):
    # the route of verify and simulate: monomial windows as moves, every
    # other gate as it is, every input through the plan
    plan = _plan(circuit.register, circuit.gates)
    batched = batched_columns(circuit.register, plan)
    assert np.max(np.abs(batched - dense_columns(circuit))) < STATE_TOL


@given(circuits())
def test_plan_matches_the_reference_planner(circuit):
    gates = circuit.gates
    assert_same_steps(_plan(circuit.register, gates), reference_plan(circuit.register, gates))


@given(circuits())
def test_document_round_trip_is_byte_stable(circuit):
    text = save_document(CircuitDocument(circuit))
    loaded = load_document(text)
    assert loaded.circuit == circuit  # 17 significant digits reload every float exactly
    assert save_document(loaded) == text


@st.composite
def embeddings(draw, register):
    """One or more qubits on ``register``, in a drawn order: each site hosts
    nothing, a SINGLE qubit, or (on five levels) slot A alone or the pair."""
    slots = []
    for site, dim in enumerate(register.dims):
        options = [(), (QubitSlot.SINGLE,)]
        if dim == 5:
            options += [(QubitSlot.A,), (QubitSlot.A, QubitSlot.B)]
        slots += [(site, slot) for slot in draw(st.sampled_from(options))]
    return EmbeddingMap(register, tuple(draw(st.permutations(slots or [(0, QubitSlot.SINGLE)]))))


def printed_probs(document, source):
    """What ``simulate --probs`` prints for ``document`` from ``source``
    (``("--input", label)`` or ``("--state", amplitudes)``), as a dict."""
    with tempfile.TemporaryDirectory() as tmp:
        doc, state = Path(tmp) / "doc.json", Path(tmp) / "state.json"
        doc.write_text(save_document(document))
        flag, value = source
        if flag == "--state":
            state.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in value.tolist()]}))
            value = str(state)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(doc), flag, value, "--probs"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "outcome,probability"
    return {outcome: float(p) for outcome, p in (line.rsplit(",", 1) for line in lines[1:])}


@given(circuits(), st.booleans(), st.data())
def test_simulate_prints_the_dense_read_out(circuit, embedded, data):
    """The CLI runs the sparse table; the oracle is the stride applier, then
    ``dense_read_out`` with an embedding or the labels above 1e-12 without
    one. Both runs start from a basis input and from a random state file."""
    register = circuit.register
    emap = data.draw(embeddings(register)) if embedded else None
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if emap is None:
        label = tuple(int(rng.integers(d)) for d in register.dims)
        text = ",".join(str(level) for level in label)
    else:
        text = "".join(str(b) for b in rng.integers(0, 2, emap.qubit_count))
        label = embed_basis_state(text, emap)
    amps = rng.normal(size=register.size) + 1j * rng.normal(size=register.size)
    amps[rng.random(register.size) < 0.5] = 0  # the file lists zeros too
    amps[rng.integers(register.size)] = 1
    amps /= np.linalg.norm(amps)
    starts = (
        (("--input", text), StateVector.basis_state(register, label)),
        (("--state", amps), StateVector(register, amps)),
    )
    for source, start in starts:
        probs = apply_circuit(start, circuit).probabilities()
        if emap is None:
            expected = {register.label_str(i): p for i, p in enumerate(probs) if p > 1e-12}
        else:
            table, leakage = dense_read_out(probs, emap)
            n = emap.qubit_count
            expected = {format(x, f"0{n}b"): p for x, p in enumerate(table)} | {"leakage": leakage}
        printed = printed_probs(CircuitDocument(circuit, emap), source)
        assert printed.keys() == expected.keys()
        assert all(abs(printed[o] - p) <= 1e-12 for o, p in expected.items())


@pytest.mark.parametrize("angle", [1e-9, 5e-13])
def test_hadamard_off_by_an_angle_is_not_snapped_away(angle):
    """A Toffoli block with one Hadamard turned 1e-9 rad (above MATRIX_TOL)
    or 5e-13 rad (below it) is no move: its gates run one by one, and
    ``verify`` reports the error and leakage the Kronecker matrices give."""
    result = decompose_cnz(DecompositionRequest(3, "qubit"))
    emap, register = result.embedding, result.circuit.register
    gates = list(result.circuit.gates)
    gates[0] = off_hadamard(gates[0], angle)  # on the work site, first block
    report = verify_decomposition(
        DecompositionResult(QuditCircuit(register, gates), emap, 13, 1)
    )
    bits = [[x >> (2 - q) & 1 for q in range(3)] for x in range(8)]
    columns = circuit_unitary(QuditCircuit(register, gates))[:, emap.encode(bits)]
    wanted = np.zeros_like(columns)
    wanted[emap.encode(bits), range(8)] = [1] * 7 + [-1]
    off = ~emap.decode(np.arange(register.size))[1]
    error = np.abs(columns - wanted).max()
    assert error > angle / 2
    assert report.max_amplitude_error == pytest.approx(error, abs=1e-15)
    assert report.max_leakage == pytest.approx((np.abs(columns[off]) ** 2).sum(axis=0).max(), abs=1e-24)
    assert report.passed() == (angle < STATE_TOL)
