"""Property tests: the sparse basis propagator against the dense applier."""

import cmath

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ququint import (
    HADAMARD,
    PAULI_X,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoLevelUnitary,
    TwoQuditCZ,
    apply_circuit,
)
from ququint.core import STATE_TOL, _propagate_sparse
from ququint.decompose import _propagate_basis

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


@st.composite
def circuits(draw):
    dims = draw(st.lists(st.integers(2, 5), min_size=2, max_size=4))
    sites = st.integers(0, len(dims) - 1)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            site = draw(sites)
            i, j = sorted(draw(st.lists(
                st.integers(0, dims[site] - 1), min_size=2, max_size=2, unique=True
            )))
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


@given(circuits())
def test_sparse_propagation_matches_dense(circuit):
    register = circuit.register
    size = register.size
    dense = dense_columns(circuit)

    starts = np.arange(size)
    keys, amps = _propagate_sparse(register, circuit.gates, starts * size + starts, np.ones(size))
    assert np.all(np.diff(keys) > 0)  # sorted by (input, index), no duplicates
    batched = np.zeros((size, size), dtype=complex)
    inputs, index = np.divmod(keys, size)
    batched[index, inputs] = amps
    assert np.max(np.abs(batched - dense)) < STATE_TOL

    for start in range(size):
        single = np.zeros(size, dtype=complex)
        for index, amp in _propagate_basis(register, circuit.gates, start).items():
            single[index] = amp
        assert np.max(np.abs(single - dense[:, start])) < STATE_TOL
