import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ququint import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    CircuitDocument,
    DecompositionRequest,
    DecompositionResult,
    EmbeddingMap,
    LevelPairGate,
    QubitSlot,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoLevelUnitary,
    TwoQuditCZ,
    VerificationReport,
    apply_circuit,
    build_cx,
    circuit_unitary,
    decompose_cnz,
    decompose_cnz_qubit,
    decompose_cnz_ququint,
    decompose_cnz_qutrit,
    embed_basis_state,
    load_document,
    phase_shift,
    reported_count,
    save_document,
    verify_decomposition,
)
from ququint import core, decompose
from ququint.core import STATE_TOL
from ququint.decompose import (
    _MAX_SWEEP_N,
    METHODS,
    T_GATE,
    _plan,
    _propagate_basis,
    to_cnx,
)
from reference_plan import assert_same_steps, reference_plan


def controlled_swap_matrix(register, ctl, tgt, i, k, level_l):
    """Oracle: permutation exchanging |..i..k..> and |..i..l..>."""
    perm = np.eye(register.size, dtype=complex)
    for idx in range(register.size):
        label = list(register.label(idx))
        if label[ctl] == i and label[tgt] == k:
            other = label.copy()
            other[tgt] = level_l
            jdx = register.index(other)
            perm[idx, idx] = perm[jdx, jdx] = 0
            perm[idx, jdx] = perm[jdx, idx] = 1
    return perm


class TestBuildCX:
    def test_swaps_target_levels_under_control(self):
        reg = QuditRegister((5, 5))
        circuit = QuditCircuit(reg, build_cx(0, 1, 3, 3, 4))
        state = apply_circuit(StateVector.basis_state(reg, (3, 3)), circuit)
        assert abs(state.amplitudes[reg.index((3, 4))] - 1) < 1e-12

    def test_inactive_control_is_identity(self):
        reg = QuditRegister((5, 5))
        circuit = QuditCircuit(reg, build_cx(0, 1, 3, 3, 4))
        state = apply_circuit(StateVector.basis_state(reg, (2, 3)), circuit)
        assert abs(state.amplitudes[reg.index((2, 3))] - 1) < 1e-12

    def test_self_composition_is_identity(self):
        reg = QuditRegister((5, 5))
        gates = build_cx(0, 1, 3, 3, 4)
        m = circuit_unitary(QuditCircuit(reg, gates + gates))
        assert np.allclose(m, np.eye(25), atol=1e-12)

    @pytest.mark.parametrize("i,k,l", [(3, 3, 4), (4, 3, 4), (1, 1, 2)])
    def test_matches_permutation_oracle(self, i, k, l):
        reg = QuditRegister((5, 5))
        m = circuit_unitary(QuditCircuit(reg, build_cx(0, 1, i, k, l)))
        assert np.allclose(
            m, controlled_swap_matrix(reg, 0, 1, i, k, l), atol=1e-12
        )

    def test_exactly_one_two_particle_gate(self):
        gates = build_cx(0, 1, 3, 3, 4)
        assert sum(isinstance(g, TwoQuditCZ) for g in gates) == 1

    def test_rejects_bad_level_order(self):
        with pytest.raises(ValueError):
            build_cx(0, 1, 3, 4, 3)


class TestQuquintSequences:
    def test_n3_single_is_one_cz(self):
        r = decompose_cnz_ququint(3, "single")
        assert r.circuit.gates == [TwoQuditCZ(0, 1, 3, 1)]
        assert r.two_particle_gate_count == 1

    def test_n3_neighbor_doubles_the_gate(self):
        r = decompose_cnz_ququint(3, "neighbor")
        assert r.circuit.gates == [TwoQuditCZ(0, 1, 3, 2), TwoQuditCZ(0, 1, 3, 3)]
        assert r.two_particle_gate_count == 2

    def test_n4_is_one_cz(self):
        r = decompose_cnz_ququint(4)
        assert r.circuit.gates == [TwoQuditCZ(0, 1, 3, 3)]

    def test_n2_is_one_local_gate(self):
        r = decompose_cnz_ququint(2)
        assert r.two_particle_gate_count == 0
        assert len(r.circuit.gates) == 1
        assert isinstance(r.circuit.gates[0], LevelPairGate)

    def test_n5_single_matches_expected_ladder(self):
        r = decompose_cnz_ququint(5, "single")
        swap_up = build_cx(0, 1, 3, 3, 4)
        assert r.circuit.gates == swap_up + [TwoQuditCZ(1, 2, 4, 1)] + swap_up
        assert r.two_particle_gate_count == 3

    def test_n6_and_n10_ladder_counts(self):
        assert decompose_cnz_ququint(6).two_particle_gate_count == 3
        assert decompose_cnz_ququint(10).two_particle_gate_count == 7

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equivalence_both_variants(self, n):
        variants = ("single", "neighbor") if n % 2 else ("single",)
        for variant in variants:
            report = verify_decomposition(decompose_cnz_ququint(n, variant))
            assert report.max_amplitude_error < 1e-10, (n, variant)
            assert report.max_leakage < 1e-12, (n, variant)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_mid_circuit_marker(self, n):
        # after the forward swap chain, the feeder site is at level 4 exactly
        # when the first 2(sites-1) input bits are all 1
        result = decompose_cnz_ququint(n, "single")
        emap = result.embedding
        register = result.circuit.register
        sites = register.num_sites
        chain = result.circuit.gates[: 3 * (sites - 2)]
        marker_bits = 2 * (sites - 1) if n % 2 == 0 else n - 1
        for bits in itertools.product((0, 1), repeat=n):
            start = register.index(embed_basis_state(bits, emap))
            amps = _propagate_basis(register, chain, start)
            assert len(amps) == 1
            (idx,) = amps
            at_marker = register.label(idx)[sites - 2] == 4
            assert at_marker == all(bits[:marker_bits])

    def test_dense_path_agrees_with_sparse(self):
        result = decompose_cnz_ququint(6)
        register = result.circuit.register
        emap = result.embedding
        for bits in itertools.product((0, 1), repeat=6):
            label = embed_basis_state(bits, emap)
            dense = apply_circuit(
                StateVector.basis_state(register, label), result.circuit
            )
            sparse = _propagate_basis(
                register, result.circuit.gates, register.index(label)
            )
            expect = np.zeros(register.size, dtype=complex)
            for idx, amp in sparse.items():
                expect[idx] = amp
            assert np.allclose(dense.amplitudes, expect, atol=1e-12)


class TestQutrit:
    def test_n3_gate_list(self):
        r = decompose_cnz_qutrit(3)
        assert r.circuit.gates == (
            build_cx(0, 1, 1, 1, 2) + [TwoQuditCZ(1, 2, 2, 1)] + build_cx(0, 1, 1, 1, 2)
        )
        assert r.two_particle_gate_count == 3

    def test_n2_single_cz(self):
        r = decompose_cnz_qutrit(2)
        assert r.circuit.gates == [TwoQuditCZ(0, 1, 1, 1)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_and_equivalence(self, n):
        r = decompose_cnz_qutrit(n)
        assert r.two_particle_gate_count == 2 * n - 3
        report = verify_decomposition(r)
        assert report.max_amplitude_error < 1e-10
        assert report.max_leakage < 1e-12

    def test_forward_chain_parks_ones_in_level_two(self):
        r = decompose_cnz_qutrit(3)
        register = r.circuit.register
        chain = r.circuit.gates[:3]  # one controlled swap
        start = register.index((1, 1, 1))
        amps = _propagate_basis(register, chain, start)
        assert set(amps) == {register.index((1, 2, 1))}


class TestQubit:
    def test_n2_is_bare_cz(self):
        r = decompose_cnz_qubit(2)
        assert r.circuit.gates == [TwoQuditCZ(0, 1, 1, 1)]
        assert r.ancilla_systems == 0

    def test_n5_count_and_ancillas(self):
        r = decompose_cnz_qubit(5)
        assert r.two_particle_gate_count == 37
        assert r.ancilla_systems == 3
        assert r.circuit.register.dims == (2,) * 8

    def test_toffoli_block_is_exact(self):
        from ququint.decompose import _toffoli_network

        reg = QuditRegister((2, 2, 2))
        m = circuit_unitary(QuditCircuit(reg, _toffoli_network(0, 1, 2)))
        ccx = np.eye(8, dtype=complex)
        ccx[6, 6] = ccx[7, 7] = 0
        ccx[6, 7] = ccx[7, 6] = 1
        assert np.allclose(m, ccx, atol=1e-12)

    def test_compute_chain_sets_all_ancillas(self):
        n = 4
        r = decompose_cnz_qubit(n)
        register = r.circuit.register
        block_len = 27  # one AND step: 6 CNOTs as H/CZ/H plus 9 local gates
        chain = r.circuit.gates[: block_len * (n - 2)]
        start = register.index((1, 1, 1, 1, 0, 0))
        amps = _propagate_basis(register, chain, start)
        target = register.index((1, 1, 1, 1, 1, 1))
        assert abs(amps[target] - 1) < 1e-12
        assert all(abs(a) < 1e-12 for idx, a in amps.items() if idx != target)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_equivalence(self, n):
        report = verify_decomposition(decompose_cnz_qubit(n))
        assert report.max_amplitude_error < 1e-10
        assert report.max_leakage < 1e-12


class TestToCnx:
    def test_cnot_on_colocated_pair(self):
        r = to_cnx(decompose_cnz_ququint(2), 1)
        m = circuit_unitary(r.circuit)
        emap = r.embedding
        reg = r.circuit.register
        cnot = np.eye(4, dtype=complex)
        cnot[2, 2] = cnot[3, 3] = 0
        cnot[2, 3] = cnot[3, 2] = 1
        idx = [reg.index(embed_basis_state(f"{b:02b}", emap)) for b in range(4)]
        assert np.allclose(m[np.ix_(idx, idx)], cnot, atol=1e-12)

    def test_three_qubit_inversion_matches_permutation(self):
        r = to_cnx(decompose_cnz_ququint(3, "single"), 2)
        m = circuit_unitary(r.circuit)
        emap = r.embedding
        reg = r.circuit.register
        perm = np.eye(8, dtype=complex)
        perm[6, 6] = perm[7, 7] = 0
        perm[6, 7] = perm[7, 6] = 1
        idx = [reg.index(embed_basis_state(f"{b:03b}", emap)) for b in range(8)]
        assert np.allclose(m[np.ix_(idx, idx)], perm, atol=1e-12)

    def test_count_unchanged(self):
        base = decompose_cnz_ququint(5, "single")
        assert to_cnx(base, 0).two_particle_gate_count == base.two_particle_gate_count

    @pytest.mark.parametrize("method", ["ququint", "qutrit", "qubit"])
    def test_inversion_verifies_on_every_method(self, method):
        request = DecompositionRequest(4, method, target_qubit=1)
        report = verify_decomposition(decompose_cnz(request), target_qubit=1)
        assert report.max_amplitude_error < 1e-10

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            DecompositionRequest(3, "ququint", target_qubit=3)


class TestCounts:
    @pytest.mark.parametrize("n", range(2, 31))
    def test_closed_forms(self, n):
        assert reported_count("qubit", n) == (1 if n == 2 else 12 * n - 23)
        assert reported_count("qutrit", n) == 2 * n - 3
        if n == 2:
            assert reported_count("ququint", n) == 0
        elif n % 2 == 0:
            assert reported_count("ququint", n) == n - 3
        else:
            assert reported_count("ququint", n, "single") == n - 2
            assert reported_count("ququint", n, "neighbor") == n - 1

    @pytest.mark.parametrize("method", ["ququint", "qutrit", "qubit"])
    def test_unknown_variant_rejected(self, method):
        with pytest.raises(ValueError, match="odd variant"):
            reported_count(method, 11, "bogus")

    @pytest.mark.parametrize("n", range(2, 11))
    def test_construction_matches_closed_form(self, n):
        assert decompose_cnz_qubit(n).two_particle_gate_count == reported_count("qubit", n)
        assert decompose_cnz_qutrit(n).two_particle_gate_count == reported_count("qutrit", n)
        for variant in ("single", "neighbor") if n % 2 else ("single",):
            built = decompose_cnz_ququint(n, variant).two_particle_gate_count
            assert built == reported_count("ququint", n, variant)

    def test_count_equals_cz_tally(self):
        for result in (
            decompose_cnz_ququint(7, "neighbor"),
            decompose_cnz_qutrit(6),
            decompose_cnz_qubit(6),
        ):
            assert result.two_particle_gate_count == result.circuit.two_qudit_gate_count


def asap_depth(gates, two_particle_only=False):
    """Layers of an as-soon-as-possible schedule: a gate's layer is one more
    than the latest layer on any of its sites. With ``two_particle_only``
    the one-site gates are left out."""
    layer: dict[int, int] = {}
    for gate in gates:
        if isinstance(gate, TwoQuditCZ):
            sites = (gate.site_a, gate.site_b)
        elif two_particle_only:
            continue
        else:
            sites = (gate.site,)
        top = 1 + max(layer.get(s, 0) for s in sites)
        layer.update((s, top) for s in sites)
    return max(layer.values(), default=0)


class TestDepth:
    """The abstract's O(N) depth with no ancilla qubits, pinned up to the
    largest n whose register fits ``MAX_STATE_SIZE`` (5^11, 3^16, 2^26)."""

    @pytest.mark.parametrize("n", range(2, 23))
    @pytest.mark.parametrize("variant", ["single", "neighbor"])
    def test_ququint_is_one_sequential_chain(self, n, variant):
        result = decompose_cnz(DecompositionRequest(n, "ququint", variant))
        gates = result.circuit.gates
        assert asap_depth(gates, two_particle_only=True) == result.two_particle_gate_count
        if n >= 5:
            if n % 2 == 0:
                total = 2 * n - 5
            else:
                total = 2 * n - 3 if variant == "single" else 2 * n - 2
            assert asap_depth(gates) == total
        assert result.ancilla_systems == 0

    @pytest.mark.parametrize("n", range(3, 17))
    def test_qutrit_depth(self, n):
        result = decompose_cnz(DecompositionRequest(n, "qutrit"))
        assert asap_depth(result.circuit.gates, two_particle_only=True) == 2 * n - 3
        assert asap_depth(result.circuit.gates) == 4 * n - 5
        assert result.ancilla_systems == 0

    @pytest.mark.parametrize("n", range(3, 15))
    def test_qubit_depth(self, n):
        result = decompose_cnz(DecompositionRequest(n, "qubit"))
        assert asap_depth(result.circuit.gates, two_particle_only=True) == 10 * n - 18
        assert asap_depth(result.circuit.gates) == 37 * n - 71


class TestSweepLimit:
    """One size limit for Grover searches and the count table's
    cross-check: the largest n at which every method's ladder register fits
    ``MAX_STATE_SIZE``. The qubit ladder's 2n - 2 two-level sites are the
    first to overflow. A verify sweep has no limit of its own: it runs
    whatever register fits the budget."""

    def test_limit_is_the_qubit_ladders_register_budget(self):
        assert _MAX_SWEEP_N == 14
        assert 2 ** (2 * _MAX_SWEEP_N - 2) == core.MAX_STATE_SIZE

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_compiles_at_the_limit(self, method):
        result = decompose_cnz(DecompositionRequest(_MAX_SWEEP_N, method))
        assert result.circuit.register.size <= core.MAX_STATE_SIZE

    def test_qubit_ladder_refused_one_above(self):
        with pytest.raises(core.DimensionTooLargeError):
            decompose_cnz(DecompositionRequest(_MAX_SWEEP_N + 1, "qubit"))


def central_cz_span(gates):
    """Start and end (exclusive) of the contiguous central CZ block."""
    length = len(gates)
    mid = length // 2
    lo = hi = mid
    while lo > 0 and isinstance(gates[lo - 1], TwoQuditCZ):
        lo -= 1
    while hi < length and isinstance(gates[hi], TwoQuditCZ):
        hi += 1
    return lo, hi


class TestPalindrome:
    @pytest.mark.parametrize("n,variant", [
        (4, "single"), (5, "single"), (5, "neighbor"), (6, "single"),
        (9, "single"), (9, "neighbor"), (10, "single"),
    ])
    def test_ququint_gate_list_mirrors(self, n, variant):
        gates = decompose_cnz_ququint(n, variant).circuit.gates
        lo, hi = central_cz_span(gates)
        assert gates[:lo] == gates[hi:][::-1]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_qutrit_gate_list_mirrors(self, n):
        gates = decompose_cnz_qutrit(n).circuit.gates
        lo, hi = central_cz_span(gates)
        assert gates[:lo] == gates[hi:][::-1]

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_qubit_blocks_mirror(self, n):
        gates = decompose_cnz_qubit(n).circuit.gates
        half = (len(gates) - 1) // 2
        assert len(gates) == 2 * half + 1
        block = 27
        blocks = [gates[i : i + block] for i in range(0, half, block)]
        mirrored = [g for b in reversed(blocks) for g in b]
        assert gates[half + 1 :] == mirrored


class TestRequestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            DecompositionRequest(1, "ququint")

    @pytest.mark.parametrize("n", [31, 200_000, 10**20])
    def test_rejects_n_beyond_the_count_table(self, n):
        with pytest.raises(ValueError, match="need 2 to 30 qubits"):
            DecompositionRequest(n, "qubit")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            DecompositionRequest(4, "qubyte")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            DecompositionRequest(5, "ququint", odd_variant="both")

    def test_dispatch(self):
        for method in ("ququint", "qutrit", "qubit"):
            result = decompose_cnz(DecompositionRequest(4, method))
            assert result.two_particle_gate_count == reported_count(method, 4)


def with_gates(result, gates):
    """The same compiled result with its gate list replaced."""
    return DecompositionResult(
        QuditCircuit(result.circuit.register, gates),
        result.embedding,
        result.two_particle_gate_count,
        result.ancilla_systems,
    )


def without_centre(result):
    gates = result.circuit.gates
    lo, hi = central_cz_span(gates)
    return with_gates(result, gates[:lo] + gates[hi:])


def t_swapped_for_dagger(result, qubit):
    """The first T gate on ``qubit``'s site replaced by T^dagger."""
    gates = list(result.circuit.gates)
    pick = next(
        i for i, g in enumerate(gates)
        if isinstance(g, LevelPairGate) and g.site == qubit and g.u == T_GATE
    )
    gates[pick] = gates[pick].dagger()
    return with_gates(result, gates)


class TestVerificationFailures:
    """Exact report fields of circuits that must FAIL."""

    def test_qutrit_without_central_phase(self):
        report = verify_decomposition(without_centre(decompose_cnz_qutrit(9)))
        assert abs(report.max_amplitude_error - 2) < 1e-12
        assert report.max_leakage == 0
        assert report.inputs_checked == 512
        assert report.worst_input == "111111111"
        assert not report.passed()

    def test_ququint_neighbor_without_central_phases(self):
        result = decompose_cnz_ququint(9, "neighbor")
        lo, hi = central_cz_span(result.circuit.gates)
        assert hi - lo == 2
        report = verify_decomposition(without_centre(result))
        assert abs(report.max_amplitude_error - 2) < 1e-12
        assert report.inputs_checked == 1024
        assert report.worst_input == "111111111+bystander0"

    @pytest.mark.parametrize("qubit", range(4))
    def test_qubit_t_swapped_for_dagger(self, qubit):
        # every gate on a control site is diagonal there, so T -> T^dagger
        # commutes out as diag(1, -i): error |(-i) - 1| on inputs with it at 1
        report = verify_decomposition(t_swapped_for_dagger(decompose_cnz_qubit(5), qubit))
        assert abs(report.max_amplitude_error - np.sqrt(2)) < 1e-12
        assert report.inputs_checked == 32
        assert report.worst_input[qubit] == "1"
        assert not report.passed()

    def test_leaking_work_site(self):
        # a final X leaves the first work site at level 1 on every input
        result = decompose_cnz_qubit(4)
        leak = LevelPairGate(4, 0, 1, PAULI_X)
        report = verify_decomposition(with_gates(result, result.circuit.gates + [leak]))
        assert abs(report.max_leakage - 1) < 1e-12
        assert abs(report.max_amplitude_error - 1) < 1e-12
        assert report.inputs_checked == 16
        assert report.worst_input == "0000"

    @pytest.mark.parametrize("subset,worst", [
        (["11", "00", "10"], "11"),
        (["10", "11"], "10"),
        (["01", "00"], None),
    ])
    def test_bits_subset_order(self, subset, worst):
        # Z on qubit 0 after the ladder: inputs 10 and 11 are off by exactly 2,
        # and the first of two equal errors is the one reported
        result = decompose_cnz_qutrit(2)
        flip = LevelPairGate(0, 0, 1, PAULI_Z)
        report = verify_decomposition(
            with_gates(result, result.circuit.gates + [flip]), bits_subset=subset
        )
        assert report.inputs_checked == len(subset)
        assert report.worst_input == worst
        assert report.max_amplitude_error == (2.0 if worst else 0.0)

    def test_bits_subset_counts_bystanders(self):
        result = decompose_cnz_ququint(3, "neighbor")
        report = verify_decomposition(result, bits_subset=["111", "010"])
        assert report.inputs_checked == 4
        assert report.passed()

    @pytest.mark.parametrize("target", [-1, 2])
    def test_target_out_of_range_rejected(self, target):
        with pytest.raises(ValueError, match="target qubit"):
            verify_decomposition(decompose_cnz_qutrit(2), target_qubit=target)

    @pytest.mark.parametrize("subset", [["1"], ["102"], ["11", "1"], []])
    def test_bits_subset_rejects_malformed(self, subset):
        with pytest.raises(ValueError):
            verify_decomposition(decompose_cnz_qutrit(2), bits_subset=subset)


class TestVerificationFusion:
    def test_fusion_accepts_near_unitary_runs(self):
        # each diag(1, 1 + 4.9e-13) passes the unitarity check, their
        # product does not; the plan runs the product as one move, which
        # verifying must not re-check
        result = decompose_cnz_qubit(3)
        drift = TwoLevelUnitary(1, 0, 0, 1 + 4.9e-13)
        gates = result.circuit.gates + [LevelPairGate(0, 0, 1, drift)] * 3
        document = load_document(save_document(CircuitDocument(
            QuditCircuit(result.circuit.register, gates), result.embedding
        )))
        report = verify_decomposition(with_gates(result, document.circuit.gates))
        assert report.passed()
        assert report.max_amplitude_error == pytest.approx(1.47e-12, rel=1e-3)
        assert report.inputs_checked == 8


class TestVerificationBlocks:
    """Sweeps of more than one block of inputs, scored block by block."""

    @pytest.mark.parametrize("make", [
        # two bystanders per input: a block holds 512 inputs
        lambda: without_centre(decompose_cnz_ququint(9, "neighbor")),
        lambda: t_swapped_for_dagger(decompose_cnz_qubit(9), 3),
    ], ids=["ququint-neighbor-drop-centre", "qubit-t-dagger"])
    def test_blocks_match_inputs_scored_alone(self, make):
        # ~1,500 inputs drawn with repeats: the last block is partial
        result = make()
        rng = np.random.default_rng(5)
        subset = ["".join(map(str, row)) for row in rng.integers(0, 2, size=(1500, 9))]
        report = verify_decomposition(result, bits_subset=subset)
        alone = {bits: verify_decomposition(result, bits_subset=[bits]) for bits in set(subset)}
        reports = [alone[bits] for bits in subset]
        assert report.inputs_checked == sum(r.inputs_checked for r in reports)
        errors = [r.max_amplitude_error for r in reports]
        leaks = [r.max_leakage for r in reports]
        assert abs(report.max_amplitude_error - max(errors)) <= 1e-14
        assert abs(report.max_leakage - max(leaks)) <= 1e-14
        scores = np.maximum(errors, leaks)
        first = int(np.argmax(scores >= scores.max() - STATE_TOL))
        assert report.worst_input is not None
        assert report.worst_input == reports[first].worst_input

    @pytest.mark.parametrize("target", [None, 13], ids=["z", "x:13"])
    @pytest.mark.parametrize("method", METHODS)
    def test_sweep_memory_is_bounded(self, method, target):
        # only one score per input outlives its block, so 2^14 inputs
        # trace well under 2 MiB
        result = decompose_cnz(DecompositionRequest(14, method, target_qubit=target))
        verify_decomposition(result, target_qubit=target)  # warm the plan's caches
        tracemalloc.start()
        try:
            report = verify_decomposition(result, target_qubit=target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed() and report.inputs_checked == 2**14
        assert peak < 2 * 2**20

    def test_failing_sweep_memory_does_not_grow_with_the_inputs(self):
        # one CZ on the first two of n two-level sites: off by 2 on every
        # input with both at 1 but the all-ones one. Only each block's
        # largest score outlives it, so 2^18 inputs trace barely more than
        # 2^14, where one score per input took 8 B each (2 MiB at 2^18)
        peaks = {}
        for n in (14, 18):
            register = QuditRegister((2,) * n)
            emap = EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n)))
            document = CircuitDocument(QuditCircuit(register, [TwoQuditCZ(0, 1, 1, 1, -1)]), emap)
            verify_decomposition(document)  # warm the plan's caches
            tracemalloc.start()
            try:
                report = verify_decomposition(document)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.max_amplitude_error == 2.0 and report.inputs_checked == 2**n
            assert report.worst_input == "11" + "0" * (n - 2)
        assert peaks[18] - peaks[14] < 2**18 - 2**14, peaks
        assert peaks[18] < 2**20, peaks

    @pytest.mark.parametrize("order,worst,runs", [
        # C raises the maximum past A but not past B, which holds the worst
        # input and is run again; in the other orders the block kept is
        # the one that holds it, and a passing sweep runs each block once
        ("ABC", "010", 4),
        ("CBA", "001", 3),
        ("BAC", "010", 3),
        ("000", None, 3),
    ])
    def test_one_block_is_re_run_only_when_a_later_one_outscores_it(
        self, order, worst, runs, monkeypatch
    ):
        # a phase on level 1 of qubit q's site: input A, B or C (only qubit
        # 0, 1 or 2 at 1) is off by 0.5, 0.5 + 0.6 STATE_TOL or
        # 0.5 + 1.2 STATE_TOL; each fills one block of 1,024 inputs
        errors = 0.5 + np.array([0, 0.6, 1.2]) * STATE_TOL
        result = decompose_cnz_qutrit(3)
        phases = [
            LevelPairGate(q, 0, 1, phase_shift(2 * np.arcsin(e / 2))) for q, e in enumerate(errors)
        ]
        bits = {"A": "100", "B": "010", "C": "001", "0": "000"}
        subset = [bits[block] for block in order for _ in range(1024)]
        calls = []
        propagate = decompose._propagate_sparse
        monkeypatch.setattr(
            decompose, "_propagate_sparse", lambda *args: calls.append(1) or propagate(*args)
        )
        report = verify_decomposition(
            with_gates(result, result.circuit.gates + phases), bits_subset=subset
        )
        assert report.worst_input == worst
        assert len(calls) == runs
        assert report.max_amplitude_error == pytest.approx(errors[2] if worst else 0.0, abs=1e-14)


def with_cz_sites_swapped(result):
    """The same circuit with every controlled phase naming its sites in the
    other order."""
    return with_gates(result, [
        TwoQuditCZ(g.site_b, g.site_a, g.j, g.i, g.phase) if isinstance(g, TwoQuditCZ) else g
        for g in result.circuit.gates
    ])


class TestLevelSwaps:
    """The sparse table runs each H / CZ(-1) / H controlled level swap as a
    move of keys: exact, with no merge, and only where the pattern stands."""

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []
        merge = core._merge_pairs

        def counted(keys, amps):
            calls.append(len(keys))
            return merge(keys, amps)

        monkeypatch.setattr(core, "_merge_pairs", counted)
        return calls

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize(
        "method,variant", [("qutrit", "single"), ("ququint", "single"), ("ququint", "neighbor")]
    )
    def test_qudit_phase_ladders_verify_exactly(self, n, method, variant):
        report = verify_decomposition(decompose_cnz(DecompositionRequest(n, method, variant)))
        assert report.max_amplitude_error == 0.0
        assert report.max_leakage == 0.0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_qubit_phase_ladders_verify_exactly(self, n):
        # each Toffoli block is one window: a permutation with phases 1
        report = verify_decomposition(decompose_cnz_qubit(n))
        assert report.max_amplitude_error == 0.0
        assert report.max_leakage == 0.0

    @pytest.mark.parametrize(
        "order", [lambda r: r, with_cz_sites_swapped], ids=["as-built", "sites-swapped"]
    )
    def test_ququint_ladder_needs_no_merge(self, merges, order):
        report = verify_decomposition(order(decompose_cnz_ququint(10)))
        assert report.passed() and report.max_amplitude_error == 0.0
        assert merges == []

    def test_fused_qubit_ladder_merges_once_per_mixing_gate(self, merges):
        # every Toffoli block runs as one move, and the plan keeps the
        # inversion target's two H's as they are, unfused: only they take
        # the merge path (16 inputs, one block)
        result = decompose_cnz(DecompositionRequest(4, "qubit", target_qubit=3))
        mixing = [
            g for g in _plan(result.circuit.register, result.circuit.gates)
            if isinstance(g, LevelPairGate) and (g.u.beta != 0 or g.u.gamma != 0)
        ]
        assert verify_decomposition(result, target_qubit=3).passed()
        assert len(merges) == len(mixing) == 2

    def test_qubit_phase_ladder_needs_no_merge(self, merges):
        assert verify_decomposition(decompose_cnz_qubit(4)).passed()
        assert merges == []


def cross_check_cases():
    """Name -> thunk returning (compiled result, target) for every method,
    layout and target at n = 2..10, and for FAIL mutants: the centre dropped
    (ququint neighbor and qutrit) and one T swapped for T^dagger (qubit)."""
    cases = {}
    for n in range(2, 11):
        layouts = [("ququint", "single"), ("qutrit", "single"), ("qubit", "single")]
        if n % 2:
            layouts.append(("ququint", "neighbor"))
        for method, variant in layouts:
            layout = method + ("-neighbor" if variant == "neighbor" else "")
            for target in (None, *range(n)):
                request = DecompositionRequest(n, method, variant, target)
                shape = "z" if target is None else f"x:{target}"
                cases[f"{layout} n={n} {shape}"] = (
                    lambda request=request: (decompose_cnz(request), request.target_qubit)
                )
    cases["ququint-neighbor n=9 drop-centre"] = lambda: (
        without_centre(decompose_cnz_ququint(9, "neighbor")), None
    )
    cases["qutrit n=9 drop-centre"] = lambda: (without_centre(decompose_cnz_qutrit(9)), None)
    for n in (5, 9):
        for qubit in range(n - 1):
            cases[f"qubit n={n} t-dagger:{qubit}"] = lambda n=n, qubit=qubit: (
                t_swapped_for_dagger(decompose_cnz_qubit(n), qubit), None
            )
    return cases


# Reports of every cross-check case from the verifier as it stood before
# same-site fusion, pair merging and 1,024-input blocks: one gate at a time
# in blocks of 256 inputs, equal keys summed with np.add.reduceat.
REFERENCE_REPORTS = json.loads(
    (Path(__file__).parent / "verify_reports.json").read_text(encoding="utf-8")
)
CROSS_CHECK_CASES = cross_check_cases()


@pytest.mark.parametrize("name", sorted(CROSS_CHECK_CASES))
def test_verify_matches_reference_reports(name):
    result, target = CROSS_CHECK_CASES[name]()
    report = verify_decomposition(result, target_qubit=target)
    expected = REFERENCE_REPORTS[name]
    assert report.passed() == expected["passed"]
    assert report.inputs_checked == expected["inputs_checked"]
    assert report.worst_input == expected["worst_input"]
    assert abs(report.max_amplitude_error - expected["max_amplitude_error"]) <= 1e-14
    assert abs(report.max_leakage - expected["max_leakage"]) <= 1e-14


class TestDecodeOnlyMisses:
    """An expected index is computational, so a verify block decodes only
    the rows that left theirs, and none on a passing phase ladder."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        rows = []
        decode = EmbeddingMap.decode

        def counted(emap, indices):
            rows.append(np.size(indices))
            return decode(emap, indices)

        monkeypatch.setattr(EmbeddingMap, "decode", counted)
        return rows

    @pytest.mark.parametrize("n", range(2, 11))
    def test_compiled_phase_ladders_decode_no_row(self, n, decoded):
        for method in METHODS:
            for variant in ("single", "neighbor") if method == "ququint" and n % 2 else ("single",):
                report = verify_decomposition(decompose_cnz(DecompositionRequest(n, method, variant)))
                assert report.passed() and report.max_leakage == 0.0, (method, variant)
        assert decoded == []

    def test_rows_off_their_index_are_decoded(self, decoded):
        # a final X leaves the first work site at level 1 on all 16 inputs
        result = decompose_cnz_qubit(4)
        leak = LevelPairGate(4, 0, 1, PAULI_X)
        report = verify_decomposition(with_gates(result, result.circuit.gates + [leak]))
        assert report.max_leakage == 1.0
        assert decoded == [16]


def decode_every_row(result, target):
    """The report of one table of every input, each row it ends with
    decoded, on its expected index or not."""
    emap, register = result.embedding, result.circuit.register
    n, size, full = emap.qubit_count, register.size, 2**emap.qubit_count - 1
    x = np.arange(full + 1)
    if target is None:
        wanted, signs = x, np.where(x == full, -1.0, 1.0)
    else:
        flip = 1 << (n - 1 - target)
        wanted, signs = np.where(x | flip == full, x ^ flip, x), np.ones(full + 1)
    bystanders = (0, 1) if emap.bystander_sites else (0,)

    def encode(v):  # bystander innermost
        return np.stack([emap.encode(v, b) for b in bystanders], axis=1).ravel()

    starts, expects, signs = encode(x), encode(wanted), np.repeat(signs, len(bystanders))
    m = len(starts)
    plan = _plan(register, result.circuit.gates)
    keys, amps = core._propagate_sparse(register, plan, np.arange(m) * size + starts, np.ones(m))
    owner, index = np.divmod(keys, size)
    hit = index == expects[owner]
    errors = np.zeros(m)
    np.maximum.at(errors, owner, np.abs(amps - np.where(hit, signs[owner], 0.0)))
    missed = ~np.isin(np.arange(m), owner[hit])
    errors[missed] = np.maximum(errors[missed], 1.0)
    _, computational = emap.decode(index)
    prob = np.where(computational, 0.0, np.abs(amps) ** 2)
    leaks = np.bincount(owner, weights=prob, minlength=m)
    report = VerificationReport(float(errors.max()), float(leaks.max()), m, None)
    if not report.passed():
        scores = np.maximum(errors, leaks)
        row = int(np.argmax(scores >= scores.max() - STATE_TOL))
        x, bystander = divmod(row, len(bystanders))
        report.worst_input = format(x, f"0{n}b") + (
            f"+bystander{bystander}" if emap.bystander_sites else ""
        )
    return report


def with_hadamard(request, at, site, i, j):
    """A compiled request with H on levels (i, j) of ``site`` inserted
    before gate ``at``: it leaks wherever a level left is not computational."""
    result = decompose_cnz(request)
    gates = list(result.circuit.gates)
    gates.insert(at, LevelPairGate(site, i, j, HADAMARD))
    return with_gates(result, gates), request.target_qubit


LEAKING_CASES = {
    "ququint n=7 mid-ladder H(1; 3,4)": lambda: with_hadamard(
        DecompositionRequest(7, "ququint", target_qubit=2), 9, 1, 3, 4
    ),
    "ququint-neighbor n=9 H(4; 2,4)": lambda: with_hadamard(
        DecompositionRequest(9, "ququint", "neighbor"), 0, 4, 2, 4
    ),
    "qutrit n=8 mid-ladder H(3; 1,2)": lambda: with_hadamard(
        DecompositionRequest(8, "qutrit", target_qubit=7), 20, 3, 1, 2
    ),
    "qubit n=5 H on a work site": lambda: with_hadamard(
        DecompositionRequest(5, "qubit"), 30, 6, 0, 1
    ),
}


@pytest.mark.parametrize(
    "name",
    sorted(name for name in CROSS_CHECK_CASES if not name.endswith(" z")) + sorted(LEAKING_CASES),
)
def test_inversion_and_mutant_reports_match_a_full_decode(name):
    # every field, bit for bit: the decode a block skips changes nothing
    result, target = {**CROSS_CHECK_CASES, **LEAKING_CASES}[name]()
    assert verify_decomposition(result, target_qubit=target) == decode_every_row(result, target)


def _every_request(n):
    layouts = [(method, "single") for method in METHODS]
    if n % 2:
        layouts.append(("ququint", "neighbor"))
    for method, variant in layouts:
        for target in (None, *range(n)):
            yield DecompositionRequest(n, method, variant, target)


@pytest.mark.parametrize("n", range(2, 15))
def test_every_ladder_plans_as_the_reference_planner(n):
    # the planner reads each gate once into flat lists; the reference builds
    # each window's key from the gates themselves, as the planner once did
    for request in _every_request(n):
        circuit = decompose_cnz(request).circuit
        assert_same_steps(
            _plan(circuit.register, circuit.gates), reference_plan(circuit.register, circuit.gates)
        )


class TestBlockEncoder:
    """The sweep encodes each block through the embedding's unchecked
    lookup; every index must be the per-qubit formula's, written out here
    apart from the embedding's tables: each qubit's bit times its site's
    stride, doubled on slot A, plus every bystander site's stride times the
    bystander bit, bystander innermost."""

    @staticmethod
    def encoded(emap, x):
        n, dims = emap.qubit_count, emap.register.dims
        strides = [int(np.prod(dims[site + 1 :])) for site in range(len(dims))]
        index = sum(
            (x >> (n - 1 - q) & 1) * strides[site] * (2 if slot is QubitSlot.A else 1)
            for q, (site, slot) in enumerate(emap.assignments)
        )
        slots = {}
        for site, slot in emap.assignments:
            slots.setdefault(site, set()).add(slot)
        offset = sum(strides[site] for site, on in slots.items() if on == {QubitSlot.A})
        bystanders = (0, 1) if offset else (0,)
        return np.stack([index + b * offset for b in bystanders], axis=1).ravel()

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Every (inputs, indices) pair the sweep's lookup returns."""
        seen = []
        lookup = EmbeddingMap._lookup

        def recording(emap, x):
            seen.append((x.copy(), lookup(emap, x)))
            return seen[-1][1]

        monkeypatch.setattr(EmbeddingMap, "_lookup", recording)
        return seen

    @pytest.mark.parametrize("n,method,variant", [
        *((n, method, "single") for n in range(11, 15) for method in ("qutrit", "ququint")),
        (11, "ququint", "neighbor"),
        (13, "ququint", "neighbor"),
    ])
    def test_every_block_of_a_sweep(self, n, method, variant, blocks):
        result = decompose_cnz(DecompositionRequest(n, method, variant))
        report = verify_decomposition(result)
        assert report.passed()
        width = 2 if result.embedding.bystander_sites else 1
        assert len(blocks) == 2**n * width // 1024 > 1
        inputs = np.concatenate([x for x, _ in blocks])
        assert np.array_equal(inputs, np.arange(2**n))
        for x, index in blocks:
            assert np.array_equal(index, self.encoded(result.embedding, x))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,method,variant", [
        (11, "ququint", "neighbor"), (14, "qubit", "single"), (16, "qutrit", "single"),
        (22, "ququint", "single"), (21, "ququint", "neighbor"),
    ])
    def test_random_subsets(self, n, method, variant, seed, blocks):
        # draws at or above 2^10 read the high bits' table too
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2**n, size=1500)
        x[:3] = 0, 2**10, 2**n - 1
        result = decompose_cnz(DecompositionRequest(n, method, variant))
        subset = [format(int(v), f"0{n}b") for v in x]
        assert verify_decomposition(result, bits_subset=subset).passed()
        assert np.array_equal(np.concatenate([v for v, _ in blocks]), x)
        for v, index in blocks:
            assert np.array_equal(index, self.encoded(result.embedding, v))
