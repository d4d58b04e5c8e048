import numpy as np
import pytest

from ququint import (
    HADAMARD,
    PAULI_X,
    DecompositionRequest,
    EmbeddingError,
    EmbeddingMap,
    QubitSlot,
    QuditRegister,
    StateVector,
    TwoLevelUnitary,
    decode_basis_label,
    decompose_cnz,
    default_embedding,
    embed_basis_state,
    gate_matrix,
    lift_single_qubit_gate,
    read_out,
)
from ququint.core import apply_level_pair
from ququint.embedding import intra_ququint_cz


def random_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    return TwoLevelUnitary.from_matrix(q)


def lifted_product(gates, register):
    m = np.eye(register.size, dtype=complex)
    for g in gates:
        m = gate_matrix(g, register) @ m
    return m


class TestDefaultEmbedding:
    def test_even_packs_two_per_site(self):
        emap = default_embedding(4)
        assert emap.register.dims == (5, 5)
        assert emap.assignments == (
            (0, QubitSlot.A),
            (0, QubitSlot.B),
            (1, QubitSlot.A),
            (1, QubitSlot.B),
        )
        assert emap.bystander_sites == ()

    def test_odd_single_uses_extra_site(self):
        emap = default_embedding(5, "single")
        assert emap.register.dims == (5, 5, 5)
        assert emap.assignments[4] == (2, QubitSlot.SINGLE)

    def test_odd_neighbor_reserves_slot_b(self):
        emap = default_embedding(5, "neighbor")
        assert emap.assignments[4] == (2, QubitSlot.A)
        assert emap.bystander_sites == (2,)

    def test_smallest_even_case(self):
        emap = default_embedding(2)
        assert emap.register.dims == (5,)
        assert emap.qubit_count == 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            default_embedding(1)

    def test_invariants_enforced(self):
        reg = QuditRegister((5,))
        with pytest.raises(EmbeddingError):  # slot B without slot A
            EmbeddingMap(reg, ((0, QubitSlot.B),))
        with pytest.raises(EmbeddingError):  # duplicate slot
            EmbeddingMap(reg, ((0, QubitSlot.A), (0, QubitSlot.A)))
        with pytest.raises(EmbeddingError):  # pair slot on a qutrit
            EmbeddingMap(QuditRegister((3,)), ((0, QubitSlot.A),))
        with pytest.raises(EmbeddingError):  # single mixed with pair
            EmbeddingMap(reg, ((0, QubitSlot.A), (0, QubitSlot.SINGLE)))


class TestEmbedBasisState:
    def test_pair_levels(self):
        emap = default_embedding(2)
        assert embed_basis_state("11", emap) == (3,)
        assert embed_basis_state("10", emap) == (2,)
        assert embed_basis_state("01", emap) == (1,)

    def test_all_zeros(self):
        emap = default_embedding(8)
        assert embed_basis_state("0" * 8, emap) == (0, 0, 0, 0)

    def test_single_slot_takes_bit(self):
        emap = default_embedding(5, "single")
        assert embed_basis_state("00001", emap) == (0, 0, 1)

    def test_bystander_defaults_to_zero(self):
        emap = default_embedding(3, "neighbor")
        assert embed_basis_state("111", emap) == (3, 2)
        assert embed_basis_state("111", emap, bystander=1) == (3, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embed_basis_state("101", default_embedding(4))


class TestLift:
    def test_x_on_slot_a_permutes_levels(self):
        emap = default_embedding(2)
        gates = lift_single_qubit_gate(PAULI_X, 0, emap)
        assert [(g.i, g.j) for g in gates] == [(0, 2), (1, 3)]
        m = lifted_product(gates, emap.register)
        # permutation 0<->2, 1<->3, fixes 4
        for src, dst in [(0, 2), (2, 0), (1, 3), (3, 1), (4, 4)]:
            assert m[dst, src] == pytest.approx(1)

    def test_single_slot_lifts_to_one_gate(self):
        emap = default_embedding(5, "single")
        rng = np.random.default_rng(5)
        u = random_unitary(rng)
        gates = lift_single_qubit_gate(u, 4, emap)
        assert len(gates) == 1
        assert (gates[0].site, gates[0].i, gates[0].j) == (2, 0, 1)

    def test_hadamard_on_slot_b(self):
        emap = default_embedding(2)
        state = StateVector.basis_state(emap.register, (0,))
        for g in lift_single_qubit_gate(HADAMARD, 1, emap):
            state = apply_level_pair(state, g)
        expect = np.zeros(5, dtype=complex)
        expect[0] = expect[1] = 1 / np.sqrt(2)
        assert np.allclose(state.amplitudes, expect, atol=1e-15)

    @pytest.mark.parametrize("trial", range(8))
    def test_lift_matches_kronecker_oracle(self, trial):
        rng = np.random.default_rng(600 + trial)
        u = random_unitary(rng)
        emap = default_embedding(2)
        register = emap.register
        eye = np.eye(2)
        m_a = lifted_product(lift_single_qubit_gate(u, 0, emap), register)
        m_b = lifted_product(lift_single_qubit_gate(u, 1, emap), register)
        assert np.allclose(m_a[:4, :4], np.kron(u.matrix, eye), atol=1e-12)
        assert np.allclose(m_b[:4, :4], np.kron(eye, u.matrix), atol=1e-12)
        for m in (m_a, m_b):  # level 4 untouched
            assert m[4, 4] == 1
            assert np.allclose(m[4, :4], 0, atol=0) and np.allclose(m[:4, 4], 0, atol=0)

    @pytest.mark.parametrize("trial", range(5))
    def test_slot_lifts_commute(self, trial):
        rng = np.random.default_rng(700 + trial)
        emap = default_embedding(2)
        ua, ub = random_unitary(rng), random_unitary(rng)
        m_a = lifted_product(lift_single_qubit_gate(ua, 0, emap), emap.register)
        m_b = lifted_product(lift_single_qubit_gate(ub, 1, emap), emap.register)
        assert np.allclose(m_a @ m_b, m_b @ m_a, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            lift_single_qubit_gate(HADAMARD, 4, default_embedding(4))


class TestIntraQuquintCZ:
    def test_exact_matrix(self):
        emap = default_embedding(2)
        m = gate_matrix(intra_ququint_cz(0, emap), emap.register)
        assert np.array_equal(m, np.diag([1, 1, 1, -1, 1]).astype(complex))

    def test_action_on_basis_states(self):
        emap = default_embedding(2)
        gate = intra_ququint_cz(0, emap)
        flipped = apply_level_pair(
            StateVector.basis_state(emap.register, (3,)), gate
        )
        assert flipped.amplitudes[3] == -1
        kept = apply_level_pair(StateVector.basis_state(emap.register, (1,)), gate)
        assert kept.amplitudes[1] == 1

    def test_involution(self):
        emap = default_embedding(2)
        gate = intra_ququint_cz(0, emap)
        m = gate_matrix(gate, emap.register)
        assert np.array_equal(m @ m, np.eye(5))

    def test_rejects_single_slot_site(self):
        emap = default_embedding(5, "single")
        with pytest.raises(EmbeddingError):
            intra_ququint_cz(2, emap)


class TestReadOut:
    def test_level_two_decodes_to_10(self):
        emap = default_embedding(2)
        probs = np.zeros(5)
        probs[2] = 1.0
        table = read_out(probs, emap)
        assert table.probabilities["10"] == 1.0
        assert table.leakage == 0.0

    def test_anc_level_is_pure_leakage(self):
        emap = default_embedding(2)
        probs = np.zeros(5)
        probs[4] = 1.0
        table = read_out(probs, emap)
        assert table.leakage == 1.0
        assert all(p == 0 for p in table.probabilities.values())

    def test_uniform_over_computational_levels(self):
        emap = default_embedding(2)
        probs = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        table = read_out(probs, emap)
        assert all(
            table.probabilities[b] == pytest.approx(0.25)
            for b in ("00", "01", "10", "11")
        )

    def test_bystander_is_marginalized(self):
        emap = default_embedding(3, "neighbor")
        probs = np.zeros(25)
        probs[emap.register.index((3, 2))] = 0.5  # bystander 0
        probs[emap.register.index((3, 3))] = 0.5  # bystander 1
        table = read_out(probs, emap)
        assert table.probabilities["111"] == pytest.approx(1.0)
        assert table.leakage == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        variants = ["single", "neighbor"] if n % 2 else ["single"]
        for variant in variants:
            emap = default_embedding(n, variant)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            for bystander in (0, 1) if emap.bystander_sites else (0,):
                label = embed_basis_state(bits, emap, bystander)
                probs = np.zeros(emap.register.size)
                probs[emap.register.index(label)] = 1.0
                table = read_out(probs, emap)
                assert table.probabilities[bits] == 1.0
                assert table.leakage == 0.0
                assert decode_basis_label(label, emap) == bits

    def test_decode_rejects_working_levels(self):
        emap = default_embedding(5, "single")
        assert decode_basis_label((4, 0, 0), emap) is None
        assert decode_basis_label((0, 0, 2), emap) is None


def codec_layout(n, layout):
    if layout in ("qutrit", "qubit"):
        return decompose_cnz(DecompositionRequest(n, layout)).embedding
    return default_embedding(n, layout)


CODEC_CASES = [
    (n, layout)
    for n in range(2, 10)
    for layout in ("single", "neighbor", "qutrit", "qubit")
    if layout != "neighbor" or n % 2
]


def label_oracle(label, emap):
    """The encoding rule written out: slot A is the high bit of level 2a + b,
    slots B and SINGLE the low bit; a pair site above level 3, a SINGLE site
    above 1 or a work site above 0 holds no qubits."""
    top = [0] * emap.register.num_sites
    for site, slot in emap.assignments:
        top[site] = 1 if slot is QubitSlot.SINGLE else 3
    if any(level > t for level, t in zip(label, top)):
        return None
    return "".join(
        str(label[site] // 2 if slot is QubitSlot.A else label[site] % 2)
        for site, slot in emap.assignments
    )


class TestCodec:
    @pytest.mark.parametrize("n,layout", CODEC_CASES)
    def test_decode_inverts_encode(self, n, layout):
        emap = codec_layout(n, layout)
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        bystanders = (0, 1) if emap.bystander_sites else (0,)
        seen = set()
        for bystander in bystanders:
            indices = emap.encode(bits, bystander)
            seen.update(indices.tolist())
            outcome, computational = emap.decode(indices)
            assert outcome.tolist() == list(range(2**n))
            assert computational.all()
            assert emap.encode(bits[-1], bystander) == indices[-1]
        assert len(seen) == 2**n * len(bystanders)  # every input its own index

    @pytest.mark.parametrize(
        "n,layout",
        [case for case in CODEC_CASES if codec_layout(*case).register.size <= 5**4],
    )
    def test_decode_agrees_with_labels(self, n, layout):
        emap = codec_layout(n, layout)
        size = emap.register.size
        outcome, computational = emap.decode(np.arange(size))
        for i in range(size):
            label = emap.register.label(i)
            expected = label_oracle(label, emap)
            assert decode_basis_label(label, emap) == expected
            decoded = format(outcome[i], f"0{n}b") if computational[i] else None
            assert decoded == expected

    def test_encode_rejects_bad_bystander(self):
        with pytest.raises(ValueError, match="bystander"):
            default_embedding(3, "neighbor").encode([1, 1, 1], 2)
