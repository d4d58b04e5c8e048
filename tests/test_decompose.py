import itertools

import numpy as np
import pytest

from ququint import (
    PAULI_X,
    PAULI_Z,
    DecompositionRequest,
    DecompositionResult,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoQuditCZ,
    apply_circuit,
    build_cx,
    circuit_unitary,
    decompose_cnz,
    decompose_cnz_qubit,
    decompose_cnz_ququint,
    decompose_cnz_qutrit,
    embed_basis_state,
    reported_count,
    verify_decomposition,
)
from ququint.decompose import T_GATE, _propagate_basis, to_cnx


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
        result = decompose_cnz_qubit(5)
        gates = list(result.circuit.gates)
        pick = next(
            i for i, g in enumerate(gates)
            if isinstance(g, LevelPairGate) and g.site == qubit and g.u == T_GATE
        )
        gates[pick] = gates[pick].dagger()
        report = verify_decomposition(with_gates(result, gates))
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

    @pytest.mark.parametrize("subset", [["1"], ["102"], ["11", "1"]])
    def test_bits_subset_rejects_malformed(self, subset):
        with pytest.raises(ValueError):
            verify_decomposition(decompose_cnz_qutrit(2), bits_subset=subset)
