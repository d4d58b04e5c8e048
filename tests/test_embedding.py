import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ququint import (
    HADAMARD,
    PAULI_X,
    CircuitDocument,
    DecompositionRequest,
    EmbeddingError,
    EmbeddingMap,
    QubitSlot,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoLevelUnitary,
    decompose_cnz,
    default_embedding,
    embed_basis_state,
    gate_matrix,
    lift_single_qubit_gate,
)
from ququint.cli import _outcome_table
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

    @pytest.mark.parametrize(
        "dims,assignments,message",
        [
            ((5,), (), "an embedding must map at least one qubit"),
            ((5,), ((1, QubitSlot.A),), "site 1 out of range"),
            ((5,), ((-1, QubitSlot.SINGLE),), "site -1 out of range"),
            ((5,), ((0, QubitSlot.A), (0, QubitSlot.A)), "slot a of site 0 mapped twice"),
            (
                (5,),
                ((0, QubitSlot.A), (0, QubitSlot.SINGLE)),
                "site 0 mixes a single-qubit slot with pair slots",
            ),
            (
                (2, 3),
                ((0, QubitSlot.SINGLE), (1, QubitSlot.A)),
                "pair slots need a five-level site, site 1 has dimension 3",
            ),
            ((5,), ((0, QubitSlot.B),), "site 0 uses slot B without slot A"),
            # the sites are checked in the order their first qubit names them
            ((5, 5), ((1, QubitSlot.B), (0, QubitSlot.B)), "site 1 uses slot B without slot A"),
            (
                (3, 5),
                ((1, QubitSlot.B), (0, QubitSlot.A), (0, QubitSlot.B)),
                "site 1 uses slot B without slot A",
            ),
        ],
        ids=[
            "empty", "site-past-the-end", "negative-site", "slot-twice", "single-with-pair",
            "pair-on-qutrit", "b-without-a", "first-named-site-first", "site-before-its-dimension",
        ],
    )
    def test_each_invariant_names_its_fault(self, dims, assignments, message):
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            EmbeddingMap(QuditRegister(dims), assignments)


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


def cli_table(emap, probabilities: dict) -> dict:
    """The CLI's outcome table of register rows ``{label: probability}``:
    the bitstrings the rows reach, then ``leakage``."""
    keys = np.array([emap.register.index(label) for label in probabilities], dtype=np.int64)
    amps = np.sqrt(np.array(list(probabilities.values())))
    document = CircuitDocument(QuditCircuit(emap.register), emap)
    return dict(zip(*_outcome_table(document, keys, amps)))


def decoded(label, emap):
    """The bitstring ``emap.decode`` reads from one basis label, or None off
    the computational levels."""
    outcome, computational = emap.decode(emap.register.index(label))
    return format(int(outcome), f"0{emap.qubit_count}b") if computational else None


class TestReadOut:
    def test_level_two_decodes_to_10(self):
        emap = default_embedding(2)
        assert cli_table(emap, {(2,): 1.0}) == {"10": 1.0, "leakage": 0.0}

    def test_anc_level_is_pure_leakage(self):
        emap = default_embedding(2)
        assert cli_table(emap, {(4,): 1.0}) == {"leakage": 1.0}

    def test_uniform_over_computational_levels(self):
        emap = default_embedding(2)
        table = cli_table(emap, {(level,): 0.25 for level in range(4)})
        assert table == {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25, "leakage": 0.0}

    def test_bystander_is_marginalized(self):
        emap = default_embedding(3, "neighbor")
        # the last site's low bit is the bystander: 0 at level 2, 1 at level 3
        table = cli_table(emap, {(3, 2): 0.5, (3, 3): 0.5})
        assert table.keys() == {"111", "leakage"}
        assert table["111"] == pytest.approx(1.0)
        assert table["leakage"] == 0.0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        variants = ["single", "neighbor"] if n % 2 else ["single"]
        for variant in variants:
            emap = default_embedding(n, variant)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            for bystander in (0, 1) if emap.bystander_sites else (0,):
                label = embed_basis_state(bits, emap, bystander)
                assert cli_table(emap, {label: 1.0}) == {bits: 1.0, "leakage": 0.0}
                assert decoded(label, emap) == bits

    def test_decode_rejects_working_levels(self):
        emap = default_embedding(5, "single")
        assert decoded((4, 0, 0), emap) is None
        assert decoded((0, 0, 2), emap) is None


def codec_layout(n, layout):
    if layout in ("qutrit", "qubit"):
        return decompose_cnz(DecompositionRequest(n, layout)).embedding
    return default_embedding(n, layout)


CODEC_CASES = [
    (n, layout)
    for n in range(2, 15)
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
    @staticmethod
    def assert_round_trip(emap, x):
        bystanders = (0, 1) if emap.bystander_sites else (0,)
        seen = set()
        for bystander in bystanders:
            indices = emap.encode(x, bystander)
            seen.update(indices.tolist())
            outcome, computational = emap.decode(indices)
            assert np.array_equal(outcome, x)
            assert computational.all()
            assert emap.encode(int(x[-1]), bystander) == indices[-1]
        assert len(seen) == len(x) * len(bystanders)  # every input its own index

    @pytest.mark.parametrize("n,layout", CODEC_CASES)
    def test_decode_inverts_encode(self, n, layout):
        # from n = 11 on, x's high bits read the second table
        self.assert_round_trip(codec_layout(n, layout), np.arange(2**n))

    @pytest.mark.parametrize("n,layout", [(22, "single"), (21, "neighbor")])
    def test_decode_inverts_encode_on_a_sample(self, n, layout):
        x = np.unique(np.random.default_rng(n).integers(0, 2**n, size=4096))
        self.assert_round_trip(codec_layout(n, layout), np.concatenate([[0], x, [2**n - 1]]))

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
            assert decoded(label, emap) == expected
            assert (format(outcome[i], f"0{n}b") if computational[i] else None) == expected

    def test_encode_rejects_bad_bystander(self):
        for variant in ("single", "neighbor"):
            for bystander in (2, -1):
                with pytest.raises(ValueError, match="bystander bit must be 0 or 1"):
                    default_embedding(3, variant).encode(7, bystander)

    @pytest.mark.parametrize("x", [-1, 8, [0, 8], [-1, 1], [[7], [9]], 0.5, [1.0], 2**70])
    @pytest.mark.parametrize("variant", ["single", "neighbor"])
    def test_encode_rejects_inputs_off_the_qubits(self, variant, x):
        # three qubits hold x in [0, 8): none of these is an input
        for bystander in (0, 1):
            with pytest.raises(ValueError, match=r"integers in \[0, 2\^3\)"):
                default_embedding(3, variant).encode(x, bystander)

    def test_encode_keeps_the_shape_of_its_inputs(self):
        emap = default_embedding(3, "neighbor")
        assert emap.encode([[2, 0]], 1).tolist() == [[emap.encode(2, 1), emap.encode(0, 1)]]
        assert emap.encode([2, 0]).tolist() == [5, 0]  # x = 2: qubit 1, site 0's slot B
        assert emap.encode(np.array([], dtype=np.int64)).shape == (0,)


# Slots each kind of site hosts; a work site hosts none.
SITE_SLOTS = {
    "pair": (QubitSlot.A, QubitSlot.B),
    "bystander": (QubitSlot.A,),
    "single": (QubitSlot.SINGLE,),
    "work": (),
}


@st.composite
def embeddings(draw):
    """A valid embedding of up to five pair, bystander, single and work
    sites on dims 2..5, its qubits in any order."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(SITE_SLOTS)), min_size=1, max_size=5).filter(
            lambda kinds: set(kinds) != {"work"}
        )
    )
    dims = [5 if kind in ("pair", "bystander") else draw(st.integers(2, 5)) for kind in kinds]
    slots = [(site, slot) for site, kind in enumerate(kinds) for slot in SITE_SLOTS[kind]]
    return EmbeddingMap(QuditRegister(tuple(dims)), tuple(draw(st.permutations(slots))))


def rescanned(emap):
    """Each site's slots, bystander sites, work sites and level ceilings,
    read off ``assignments`` one site at a time."""
    sites = range(emap.register.num_sites)
    slots = [{slot for s, slot in emap.assignments if s == site} for site in sites]
    ceilings = tuple(
        0 if not on else 1 if on == {QubitSlot.SINGLE} else 3 for on in slots
    )
    bystanders = tuple(site for site in sites if slots[site] == {QubitSlot.A})
    return slots, bystanders, tuple(site for site in sites if not slots[site]), ceilings


@given(embeddings(), st.data())
def test_codec_matches_the_per_qubit_formula(emap, data):
    n, dims = emap.qubit_count, emap.register.dims
    strides = [math.prod(dims[site + 1 :]) for site in range(len(dims))]
    slots, bystanders, work, ceilings = rescanned(emap)
    assert [emap.slots_of(site) for site in range(len(dims))] == slots
    assert emap.slots_of(len(dims)) == emap.slots_of(-1) == set()
    assert (emap.bystander_sites, emap.work_sites, emap.level_ceilings) == (
        bystanders, work, ceilings
    )
    inputs = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1))
    for bystander in (0, 1):
        want = [
            sum(strides[site] * (x >> (n - 1 - q) & 1) * (2 if slot is QubitSlot.A else 1)
                for q, (site, slot) in enumerate(emap.assignments))
            + bystander * sum(strides[site] for site in bystanders)
            for x in inputs
        ]
        assert emap.encode(inputs, bystander).tolist() == want
        assert emap.encode(inputs[0], bystander) == want[0]
    indices = data.draw(st.lists(st.integers(0, emap.register.size - 1), min_size=1))
    outcome, computational = emap.decode(indices)
    for index, got, ok in zip(indices, outcome.tolist(), computational.tolist()):
        digits = [index // strides[site] % dims[site] for site in range(len(dims))]
        bits = [
            digits[site] >> 1 & 1 if slot is QubitSlot.A else digits[site] & 1
            for site, slot in emap.assignments
        ]
        assert got == sum(bit << (n - 1 - q) for q, bit in enumerate(bits))
        assert ok == all(digit <= top for digit, top in zip(digits, ceilings))
