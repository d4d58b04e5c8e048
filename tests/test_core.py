import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ququint import (
    HADAMARD,
    PAULI_Z,
    DimensionTooLargeError,
    GateError,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    RegisterMismatchError,
    StateVector,
    TwoLevelUnitary,
    TwoQuditCZ,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    gate_matrix,
)
from ququint.core import (
    IDENTITY,
    _sample_counts,
    apply_level_pair,
    apply_two_qudit_cz,
    validate_gate,
)

Q1 = QuditRegister((5,))
Q2 = QuditRegister((5, 5))


def random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    return TwoLevelUnitary.from_matrix(q)


def random_gate(rng, register):
    if rng.random() < 0.5 or register.num_sites < 2:
        site = int(rng.integers(register.num_sites))
        i, j = sorted(rng.choice(register.dims[site], size=2, replace=False))
        return LevelPairGate(site, int(i), int(j), random_unitary(rng))
    sa, sb = rng.choice(register.num_sites, size=2, replace=False)
    phi = rng.uniform(0, 2 * np.pi)
    return TwoQuditCZ(
        int(sa),
        int(sb),
        int(rng.integers(register.dims[sa])),
        int(rng.integers(register.dims[sb])),
        np.exp(1j * phi),
    )


def random_state(rng, register):
    amps = rng.normal(size=register.size) + 1j * rng.normal(size=register.size)
    return StateVector(register, amps / np.linalg.norm(amps))


class TestRegister:
    def test_mixed_radix_indexing(self):
        reg = QuditRegister((5, 3, 2))
        assert reg.size == 30
        assert reg.index((3, 1, 0)) == 3 * 6 + 1 * 2
        assert reg.label(20) == (3, 1, 0)
        assert reg.label_str(20) == "310"

    def test_site_zero_is_most_significant(self):
        assert Q2.index((3, 1)) == 16
        assert Q2.index((1, 3)) == 8

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            QuditRegister((5, 1))
        with pytest.raises(DimensionTooLargeError):
            QuditRegister((2,) * 27)

    def test_long_register_refused_without_its_product(self):
        # the product of 200,000 dimensions has 60,206 digits; the message
        # names the limit instead
        with pytest.raises(DimensionTooLargeError, match=r"2\^26"):
            QuditRegister((2,) * 200_000)

    def test_derived_tables_leave_equality_hash_and_repr_alone(self):
        # strides and size are computed once and kept on the register, which
        # must still compare, hash and print by its dims alone
        used, fresh = QuditRegister((5, 3, 2)), QuditRegister((5, 3, 2))
        assert (used.strides, used.size) == ((6, 2, 1), 30)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "QuditRegister(dims=(5, 3, 2))"
        assert {used: 1}[fresh] == 1
        assert used != QuditRegister((5, 3, 3))

    @given(st.lists(st.integers(2, 7), min_size=1, max_size=8))
    def test_strides_are_products_of_the_later_dims(self, dims):
        reg = QuditRegister(dims)
        assert reg.strides == tuple(math.prod(dims[s + 1 :]) for s in range(len(dims)))
        assert reg.size == math.prod(dims)
        assert all(reg.index(reg.label(i)) == i for i in (0, reg.size // 3, reg.size - 1))

    def test_state_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(Q1, np.ones(5))
        with pytest.raises(RegisterMismatchError):
            StateVector(Q1, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejects_non_finite_norm(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(QuditRegister((2,)), [bad, 0])


class TestLevelPairGate:
    def test_z03_flips_level_three(self):
        state = StateVector.basis_state(Q1, (3,))
        out = apply_level_pair(state, LevelPairGate(0, 0, 3, PAULI_Z))
        expect = np.zeros(5, dtype=complex)
        expect[3] = -1
        assert np.array_equal(out.amplitudes, expect)

    @pytest.mark.parametrize("i,j", [(0, 1), (0, 3), (2, 4), (1, 2)])
    def test_identity_pair_is_noop(self, i, j):
        rng = np.random.default_rng(7)
        state = random_state(rng, Q1)
        out = apply_level_pair(state, LevelPairGate(0, i, j, IDENTITY))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_hadamard_window(self):
        # oracle: build the embedded 5x5 by hand and apply it to |3> and |1>
        h = np.eye(5, dtype=complex)
        h[3, 3] = h[3, 4] = h[4, 3] = 1 / np.sqrt(2)
        h[4, 4] = -1 / np.sqrt(2)
        gate = LevelPairGate(0, 3, 4, HADAMARD)
        for level in (3, 1):
            state = StateVector.basis_state(Q1, (level,))
            out = apply_level_pair(state, gate)
            assert np.allclose(out.amplitudes, h @ state.amplitudes, atol=1e-15)
        out = apply_level_pair(StateVector.basis_state(Q1, (3,)), gate)
        assert abs(out.amplitudes[3] - 1 / np.sqrt(2)) < 1e-15
        assert abs(out.amplitudes[4] - 1 / np.sqrt(2)) < 1e-15

    def test_level_out_of_range(self):
        state = StateVector.basis_state(Q1, (0,))
        with pytest.raises(GateError):
            apply_level_pair(state, LevelPairGate(0, 3, 5, HADAMARD))

    def test_site_out_of_range(self):
        state = StateVector.basis_state(Q1, (0,))
        with pytest.raises(RegisterMismatchError):
            apply_level_pair(state, LevelPairGate(1, 0, 1, HADAMARD))

    def test_invalid_level_order(self):
        with pytest.raises(GateError):
            LevelPairGate(0, 3, 3, HADAMARD)

    @pytest.mark.parametrize(
        "entries",
        [
            (1, 0, 0, 2),
            (1, 0, 0, float("nan")),
            (1, 0, 0, float("inf")),
            (1, 1e-11, 0, 1),
        ],
        ids=["scaled", "nan", "inf", "off-diagonal"],
    )
    def test_non_unitary_rejected(self, entries):
        with pytest.raises(GateError):
            TwoLevelUnitary(*entries)


class TestTwoQuditCZ:
    def test_phases_target_pair_only(self):
        state = StateVector.basis_state(Q2, (3, 1))
        out = apply_two_qudit_cz(state, TwoQuditCZ(0, 1, 3, 1))
        assert out.amplitudes[Q2.index((3, 1))] == -1

    def test_off_target_unchanged(self):
        state = StateVector.basis_state(Q2, (3, 0))
        out = apply_two_qudit_cz(state, TwoQuditCZ(0, 1, 3, 1))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_involution_on_entangled_state(self):
        amps = np.zeros(25, dtype=complex)
        amps[Q2.index((0, 0))] = amps[Q2.index((1, 1))] = 1 / np.sqrt(2)
        state = StateVector(Q2, amps)
        gate = TwoQuditCZ(0, 1, 0, 0)
        out = apply_two_qudit_cz(apply_two_qudit_cz(state, gate), gate)
        assert np.allclose(out.amplitudes, state.amplitudes, atol=0)

    def test_same_site_rejected(self):
        with pytest.raises(GateError):
            TwoQuditCZ(1, 1, 0, 0)

    def test_nonunit_phase_rejected(self):
        with pytest.raises(GateError):
            TwoQuditCZ(0, 1, 0, 0, phase=0.5)

    @pytest.mark.parametrize(
        "phase", [float("nan"), complex(1.7e308, 1.7e308)], ids=["nan", "overflow"]
    )
    def test_nan_or_overflowing_phase_rejected(self, phase):
        with pytest.raises(GateError):
            TwoQuditCZ(0, 1, 0, 0, phase=phase)

    def test_site_order_irrelevant(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, Q2)
        a = apply_two_qudit_cz(state, TwoQuditCZ(0, 1, 3, 1))
        b = apply_two_qudit_cz(state, TwoQuditCZ(1, 0, 1, 3))
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestGateMatrix:
    def test_z03_diagonal(self):
        m = gate_matrix(LevelPairGate(0, 0, 3, PAULI_Z), Q1)
        assert np.array_equal(m, np.diag([1, 1, 1, -1, 1]).astype(complex))

    def test_identity_levelpair(self):
        m = gate_matrix(LevelPairGate(0, 1, 4, IDENTITY), Q1)
        assert np.array_equal(m, np.eye(5))

    def test_cz33_flat_index(self):
        m = gate_matrix(TwoQuditCZ(0, 1, 3, 3), Q2)
        expect = np.ones(25)
        expect[3 * 5 + 3] = -1
        assert np.array_equal(m, np.diag(expect).astype(complex))

    def test_too_large_rejected(self):
        big = QuditRegister((2,) * 14)
        with pytest.raises(DimensionTooLargeError):
            gate_matrix(TwoQuditCZ(0, 1, 1, 1), big)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(circuit_unitary(QuditCircuit(Q2)), np.eye(25))

    def test_single_gate(self):
        gate = TwoQuditCZ(0, 1, 3, 4)
        circuit = QuditCircuit(Q2, [gate])
        assert np.array_equal(circuit_unitary(circuit), gate_matrix(gate, Q2))

    def test_hczh_is_controlled_swap(self):
        h = LevelPairGate(1, 3, 4, HADAMARD)
        circuit = QuditCircuit(Q2, [h, TwoQuditCZ(0, 1, 3, 4), h])
        # oracle: permutation swapping |33> and |34>
        perm = np.eye(25, dtype=complex)
        a, b = Q2.index((3, 3)), Q2.index((3, 4))
        perm[a, a] = perm[b, b] = 0
        perm[a, b] = perm[b, a] = 1
        assert np.allclose(circuit_unitary(circuit), perm, atol=1e-12)

    def test_gate_validation_on_append(self):
        circuit = QuditCircuit(Q1)
        with pytest.raises(RegisterMismatchError):
            circuit.append(TwoQuditCZ(0, 1, 0, 0))


class TestCircuitValidation:
    REGISTER = QuditRegister((3, 5))
    GOOD = [LevelPairGate(0, 0, 2, HADAMARD), TwoQuditCZ(0, 1, 2, 4), LevelPairGate(1, 3, 4, PAULI_Z)]
    BAD = {
        "level-pair-site": LevelPairGate(2, 0, 1, HADAMARD),
        "level-pair-level": LevelPairGate(0, 1, 3, HADAMARD),
        "cz-site": TwoQuditCZ(0, 2, 0, 0),
        "cz-level-a": TwoQuditCZ(0, 1, 3, 0),
        "cz-level-b": TwoQuditCZ(1, 0, 4, 3),
        "not-a-gate": "H(0; 0, 1)",
    }

    @staticmethod
    def expected_error(gate):
        with pytest.raises((GateError, RegisterMismatchError)) as caught:
            validate_gate(gate, TestCircuitValidation.REGISTER)
        return type(caught.value), str(caught.value)

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("at", [0, 2, 3], ids=["start", "middle", "end"])
    def test_extend_raises_validate_gates_error_and_appends_nothing(self, bad, at):
        gates = self.GOOD[:at] + [self.BAD[bad]] + self.GOOD[at:]
        circuit = QuditCircuit(self.REGISTER, self.GOOD)
        with pytest.raises(ValueError) as caught:
            circuit.extend(iter(gates))
        assert (type(caught.value), str(caught.value)) == self.expected_error(self.BAD[bad])
        assert circuit.gates == self.GOOD
        with pytest.raises(ValueError) as built:
            QuditCircuit(self.REGISTER, gates)
        assert (type(built.value), str(built.value)) == self.expected_error(self.BAD[bad])

    def test_extend_reports_the_first_bad_gate(self):
        circuit = QuditCircuit(self.REGISTER)
        first, second = self.BAD["cz-level-b"], self.BAD["level-pair-site"]
        with pytest.raises(ValueError) as caught:
            circuit.extend(self.GOOD + [first] + self.GOOD + [second])
        assert (type(caught.value), str(caught.value)) == self.expected_error(first)
        assert circuit.gates == []

    def test_extend_appends_every_good_gate_in_order(self):
        circuit = QuditCircuit(self.REGISTER, self.GOOD[:1])
        circuit.extend(gate for gate in self.GOOD[1:])
        assert circuit.gates == self.GOOD


class TestMeasurement:
    """``_sample_counts``, the one multinomial draw behind ``simulate --shots``."""

    def test_deterministic_state(self):
        state = StateVector.basis_state(Q1, (0,))
        counts = _sample_counts(state.probabilities(), seed=123, shots=100)
        assert counts.tolist() == [100, 0, 0, 0, 0]

    def test_exact_probabilities_without_sampling(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = amps[4] = 1 / np.sqrt(2)
        probs = StateVector(Q1, amps).probabilities()
        assert probs[0] == pytest.approx(0.5, abs=1e-15)
        assert probs[4] == pytest.approx(0.5, abs=1e-15)
        assert probs[1] == probs[2] == probs[3] == 0

    def test_seed_determinism(self):
        rng = np.random.default_rng(11)
        probs = random_state(rng, Q2).probabilities()
        assert np.array_equal(_sample_counts(probs, 7, 500), _sample_counts(probs, 7, 500))
        assert not np.array_equal(_sample_counts(probs, 7, 500), _sample_counts(probs, 8, 500))

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            _sample_counts(StateVector.basis_state(Q1, (0,)).probabilities(), 0, 0)

    def test_counts_sum_to_shots_on_live_labels(self):
        rng = np.random.default_rng(3)
        amps = np.zeros(Q2.size, dtype=complex)
        amps[rng.choice(Q2.size, size=6, replace=False)] = rng.normal(size=6) + 1j
        probs = StateVector(Q2, amps / np.linalg.norm(amps)).probabilities()
        counts = _sample_counts(probs, 5, 10_000)
        drawn = set(np.flatnonzero(counts).tolist())
        assert drawn <= set(np.flatnonzero(probs).tolist()) and len(drawn) > 1
        assert counts.sum() == 10_000

    def test_shot_count_up_to_int64(self):
        probs = StateVector.basis_state(Q1, (3,)).probabilities()
        counts = _sample_counts(probs, 0, 2**63 - 1)
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 0, 2**63 - 1, 0]
        with pytest.raises(ValueError, match="shots"):
            _sample_counts(probs, 0, 2**63)


REGISTERS = [
    QuditRegister((5,)),
    QuditRegister((5, 5)),
    QuditRegister((2, 3, 5)),
    QuditRegister((3, 3, 3)),
    QuditRegister((5, 5, 5)),
]


class TestProperties:
    @pytest.mark.parametrize("trial", range(20))
    def test_unitarity(self, trial):
        rng = np.random.default_rng(1000 + trial)
        register = REGISTERS[trial % len(REGISTERS)]
        m = gate_matrix(random_gate(rng, register), register)
        assert np.allclose(m.conj().T @ m, np.eye(register.size), atol=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_norm_preservation(self, trial):
        rng = np.random.default_rng(2000 + trial)
        register = REGISTERS[trial % len(REGISTERS)]
        state = random_state(rng, register)
        out = apply_gate(state, random_gate(rng, register))
        assert abs(out.norm() - 1.0) < 1e-10

    @pytest.mark.parametrize("trial", range(10))
    def test_level_pair_locality(self, trial):
        rng = np.random.default_rng(3000 + trial)
        register = QuditRegister((5, 5))
        state = random_state(rng, register)
        site = int(rng.integers(2))
        i, j = sorted(rng.choice(5, size=2, replace=False))
        gate = LevelPairGate(site, int(i), int(j), random_unitary(rng))
        out = apply_level_pair(state, gate)
        untouched = [
            idx
            for idx in range(register.size)
            if register.label(idx)[site] not in (i, j)
        ]
        assert np.array_equal(out.amplitudes[untouched], state.amplitudes[untouched])

    @pytest.mark.parametrize("trial", range(10))
    def test_cz_preserves_moduli(self, trial):
        rng = np.random.default_rng(4000 + trial)
        register = QuditRegister((5, 3))
        state = random_state(rng, register)
        gate = TwoQuditCZ(0, 1, 4, 2, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        out = apply_two_qudit_cz(state, gate)
        assert np.allclose(
            np.abs(out.amplitudes), np.abs(state.amplitudes), atol=1e-12
        )

    @pytest.mark.parametrize("trial", range(12))
    def test_matrix_action_agreement(self, trial):
        # applying the gate to each basis vector must reproduce the matrix
        rng = np.random.default_rng(5000 + trial)
        register = REGISTERS[trial % len(REGISTERS)]
        if register.size > 125:
            register = QuditRegister((5, 5))
        gate = random_gate(rng, register)
        m = gate_matrix(gate, register)
        for idx in range(register.size):
            col = apply_gate(
                StateVector.basis_state(register, register.label(idx)), gate
            )
            assert np.allclose(col.amplitudes, m[:, idx], atol=1e-12)

    def test_circuit_unitary_stays_unitary(self):
        rng = np.random.default_rng(77)
        register = QuditRegister((5, 5))
        circuit = QuditCircuit(register, [random_gate(rng, register) for _ in range(12)])
        m = circuit_unitary(circuit)
        assert np.allclose(m.conj().T @ m, np.eye(25), atol=1e-10)

    def test_apply_circuit_matches_unitary(self):
        rng = np.random.default_rng(78)
        register = QuditRegister((3, 5))
        circuit = QuditCircuit(register, [random_gate(rng, register) for _ in range(8)])
        state = random_state(rng, register)
        out = apply_circuit(state, circuit)
        assert np.allclose(
            out.amplitudes, circuit_unitary(circuit) @ state.amplitudes, atol=1e-12
        )
