import math

import numpy as np
import pytest

from ququint import (
    HADAMARD,
    DecompositionRequest,
    DimensionTooLargeError,
    GroverSpec,
    LevelPairGate,
    QubitSlot,
    QuditCircuit,
    auto_iterations,
    circuit_unitary,
    decompose_cnz,
    embed_basis_state,
    run_grover,
)
from ququint import grover
from ququint.core import STATE_TOL
from ququint.embedding import _read_out_rows
from ququint.grover import BACKENDS, build_diffusion, build_oracle


def analytic_success(n, k):
    theta = math.asin(2 ** (-n / 2))
    return math.sin((2 * k + 1) * theta) ** 2


def steps_matrix(steps, n):
    """Dense matrix of a qubit-level step sequence (oracle for small n)."""
    dim = 2**n
    m = np.eye(dim, dtype=complex)
    for step in steps:
        if step[0] == "cnz":
            g = np.eye(dim, dtype=complex)
            g[dim - 1, dim - 1] = -1
        else:
            _, qubit, u = step
            g = np.eye(1, dtype=complex)
            for q in range(n):
                g = np.kron(g, u.matrix if q == qubit else np.eye(2))
        m = g @ m
    return m


class TestAutoIterations:
    def test_known_values(self):
        assert auto_iterations(2) == 1
        assert auto_iterations(5) == 4
        assert auto_iterations(10) == 25

    def test_minimum_one(self):
        assert auto_iterations(3) >= 1
        with pytest.raises(ValueError):
            auto_iterations(1)

    @pytest.mark.parametrize("n,bound", [(2, 3), (5, 9), (8, 26), (10, 51), (12, 101)])
    def test_explicit_counts_bounded_by_one_period(self, n, bound):
        assert grover._max_iterations(n) == bound
        assert 2 * auto_iterations(n) <= bound <= 2 * auto_iterations(n) + 2
        GroverSpec(n, "1" * n, "qubit", iterations=bound)
        for count in (bound + 1, 10**9):
            with pytest.raises(ValueError, match=f"at most {bound} "):
                GroverSpec(n, "1" * n, "qubit", iterations=count)


class TestOracle:
    def test_all_ones_needs_no_conjugation(self):
        assert build_oracle("1111") == [("cnz",)]

    def test_zero_positions_get_x(self):
        steps = build_oracle("10101")
        flips = [s[1] for s in steps if s[0] == "u"]
        assert flips == [1, 3, 1, 3]  # conjugation on both sides

    @pytest.mark.parametrize("omega", ["11", "01", "101", "0110"])
    def test_flips_only_omega(self, omega):
        n = len(omega)
        m = steps_matrix(build_oracle(omega), n)
        expect = np.eye(2**n, dtype=complex)
        expect[int(omega, 2), int(omega, 2)] = -1
        assert np.allclose(m, expect, atol=1e-12)

    @pytest.mark.parametrize("omega", ["10", "0011"])
    def test_involution(self, omega):
        n = len(omega)
        m = steps_matrix(build_oracle(omega) * 2, n)
        assert np.allclose(m, np.eye(2**n), atol=1e-12)

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            build_oracle("10", 3)
        with pytest.raises(ValueError):
            build_oracle("1x1")


class TestDiffusion:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_reflection_about_uniform_state(self, n):
        m = steps_matrix(build_diffusion(n), n)
        sym = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        expect = np.eye(2**n) - 2 * np.outer(sym, sym)
        assert np.allclose(m, expect, atol=1e-12)

    def test_uniform_state_is_flipped(self):
        n = 3
        m = steps_matrix(build_diffusion(n), n)
        sym = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        assert np.allclose(m @ sym, -sym, atol=1e-12)

    def test_orthogonal_states_are_fixed(self):
        n = 3
        m = steps_matrix(build_diffusion(n), n)
        v = np.zeros(2**n, dtype=complex)
        v[0], v[1] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.allclose(m @ v, v, atol=1e-12)

    def test_involution(self):
        n = 2
        m = steps_matrix(build_diffusion(n) * 2, n)
        assert np.allclose(m, np.eye(4), atol=1e-12)


class TestRunGrover:
    def test_fig3_instance_on_ququints(self):
        report = run_grover(GroverSpec(5, "10101", "ququint"))
        assert report.iterations == 4
        assert report.success_probability == pytest.approx(
            analytic_success(5, 4), abs=1e-9
        )
        assert report.top_outcome == "10101"
        assert report.two_particle_gate_count == 4 * 2 * 3
        assert report.leakage < 1e-10

    @pytest.mark.parametrize("method", ["reference", "qubit", "qutrit", "ququint"])
    def test_n2_is_exact(self, method):
        report = run_grover(GroverSpec(2, "11", method))
        assert report.success_probability == pytest.approx(1.0, abs=1e-12)
        assert report.iterations == 1

    def test_reference_and_ququint_agree(self):
        spec = {"n": 5, "omega": "10101"}
        a = run_grover(GroverSpec(method="reference", **spec))
        b = run_grover(GroverSpec(method="ququint", **spec))
        assert a.success_probability == pytest.approx(
            b.success_probability, abs=1e-9
        )

    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 3), (6, 2)])
    def test_success_matches_analytic_formula(self, n, k):
        report = run_grover(GroverSpec(n, "1" * n, "reference", iterations=k))
        assert report.success_probability == pytest.approx(
            analytic_success(n, k), abs=1e-9
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_marked_item_dominates_at_auto_iterations(self, n):
        rng = np.random.default_rng(n)
        omega = "".join(str(b) for b in rng.integers(0, 2, size=n))
        report = run_grover(GroverSpec(n, omega, "reference"))
        best = report.distribution[omega]
        assert all(
            best > p for key, p in report.distribution.items() if key != omega
        )

    def test_count_scales_with_iterations(self):
        report = run_grover(GroverSpec(4, "1010", "qutrit", iterations=2))
        assert report.two_particle_gate_count == 2 * 2 * 5

    def test_reference_reports_zero_two_particle_gates(self):
        report = run_grover(GroverSpec(3, "101", "reference"))
        assert report.two_particle_gate_count == 0

    def test_neighbor_variant_runs(self):
        report = run_grover(GroverSpec(5, "11111", "ququint", odd_variant="neighbor"))
        assert report.success_probability == pytest.approx(
            analytic_success(5, 4), abs=1e-9
        )
        assert report.two_particle_gate_count == 4 * 2 * 4

    def test_size_limits(self):
        with pytest.raises(DimensionTooLargeError):
            run_grover(GroverSpec(11, "1" * 11, "ququint"))
        with pytest.raises(DimensionTooLargeError):
            run_grover(GroverSpec(13, "1" * 13, "reference"))
        with pytest.raises(DimensionTooLargeError, match="supports n <= 12"):
            GroverSpec(13, "1" * 13, "qubit", iterations=3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GroverSpec(3, "10")
        with pytest.raises(ValueError):
            GroverSpec(3, "102")
        with pytest.raises(ValueError):
            GroverSpec(3, "101", "quhex")
        with pytest.raises(ValueError):
            GroverSpec(3, "101", iterations=0)

    def test_bool_iterations_rejected(self):
        # bool is an int subclass: True used to run one iteration
        with pytest.raises(ValueError, match="iterations"):
            GroverSpec(3, "101", "reference", iterations=True)

    def test_non_string_omega_rejected(self):
        # 101 used to construct, then fail in run_grover with KeyError: 101
        with pytest.raises(ValueError, match="omega"):
            GroverSpec(3, 101, "reference")


class TestMethodAgnosticism:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_distributions_agree_everywhere(self, n):
        rng = np.random.default_rng(40 + n)
        omega = "".join(str(b) for b in rng.integers(0, 2, size=n))
        reference = run_grover(GroverSpec(n, omega, "reference")).distribution
        for method in ("qubit", "qutrit", "ququint"):
            got = run_grover(GroverSpec(n, omega, method)).distribution
            assert got.keys() == reference.keys()
            for key in reference:
                assert got[key] == pytest.approx(reference[key], abs=1e-9), (
                    method,
                    key,
                )

    def test_prepared_registers_have_expected_shapes(self):
        from ququint.grover import _prepare_backend

        register, emap, gates, count = _prepare_backend(5, "ququint", "single")
        assert register.dims == (5, 5, 5) and count == 3
        register, emap, gates, count = _prepare_backend(5, "qubit", "single")
        assert register.dims == (2,) * 8 and count == 37
        register, emap, gates, count = _prepare_backend(5, "reference", "single")
        assert gates is None and count == 0
        assert all(slot is QubitSlot.SINGLE for _, slot in emap.assignments)


def _both_engines(n, method, gates_of=lambda gates: gates, k=None, omega=None):
    """Read-outs of one search from the dense and the sparse engine."""
    register, emap, cnz_gates, _ = grover._prepare_backend(n, method, "single")
    if cnz_gates is not None:
        cnz_gates = gates_of(cnz_gates)
    omega = omega or "1" * n
    runs = grover._compile([("u", q, HADAMARD) for q in range(n)], emap, cnz_gates)
    iteration = build_oracle(omega, n) + build_diffusion(n)
    runs += grover._compile(iteration, emap, cnz_gates) * (k or auto_iterations(n))
    flip = register.index(embed_basis_state("1" * n, emap))
    return tuple(
        _read_out_rows(*engine(register, runs, flip), emap)
        for engine in (grover._dense_probabilities, grover._sparse_probabilities)
    )


class TestEngines:
    @pytest.mark.parametrize("method", BACKENDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sparse_table_matches_dense_register(self, n, method):
        rng = np.random.default_rng(100 + n)
        omega = "".join(str(b) for b in rng.integers(0, 2, size=n))
        k = int(rng.integers(1, grover._max_iterations(n) + 1))
        dense, sparse = _both_engines(n, method, k=k, omega=omega)
        assert dense.probabilities.keys() == sparse.probabilities.keys()
        for key, p in dense.probabilities.items():
            assert abs(sparse.probabilities[key] - p) <= STATE_TOL, key
        assert dense.leakage <= STATE_TOL and sparse.leakage <= STATE_TOL

    @pytest.mark.parametrize(
        "method,n,engine",
        [("qutrit", 8, "dense"), ("qutrit", 9, "sparse"), ("qubit", 7, "dense"),
         ("ququint", 10, "dense"), ("reference", 12, "dense")],
    )
    def test_sparse_above_32_amplitudes_per_outcome(self, monkeypatch, method, n, engine):
        # qutrit n=8 / 9 span 25.6 / 38.4 amplitudes per outcome, qubit n=7 32
        used = []
        for name in ("dense", "sparse"):
            real = getattr(grover, f"_{name}_probabilities")
            monkeypatch.setattr(
                grover,
                f"_{name}_probabilities",
                lambda *args, name=name, real=real: used.append(name) or real(*args),
            )
        report = run_grover(GroverSpec(n, "1" * n, method, iterations=1))
        assert used == [engine]
        assert report.success_probability == pytest.approx(analytic_success(n, 1), abs=1e-9)

    def test_fused_qubit_ladder_keeps_its_unitary(self):
        circuit = decompose_cnz(DecompositionRequest(4, "qubit")).circuit
        fused = QuditCircuit(circuit.register, grover._fuse(circuit.gates))
        assert len(fused) < len(circuit)
        assert np.abs(circuit_unitary(fused) - circuit_unitary(circuit)).max() <= STATE_TOL

    def test_leaking_ladder_reports_the_same_leakage(self, monkeypatch):
        # a final Hadamard on the first work site; a final X would cancel,
        # since each iteration runs the ladder twice and nothing else
        # touches the work sites
        n = 4
        register, emap, gates, count = grover._prepare_backend(n, "qubit", "single")
        leaking = list(gates) + [LevelPairGate(emap.work_sites[0], 0, 1, HADAMARD)]
        dense, sparse = _both_engines(n, "qubit", lambda _: leaking)
        assert dense.leakage > 0.5
        assert sparse.leakage == pytest.approx(dense.leakage, abs=STATE_TOL)
        for key, p in dense.probabilities.items():
            assert abs(sparse.probabilities[key] - p) <= STATE_TOL, key
        monkeypatch.setattr(
            grover, "_prepare_backend", lambda *_: (register, emap, leaking, count)
        )
        with pytest.raises(RuntimeError, match="leakage"):
            run_grover(GroverSpec(n, "1" * n, "qubit"))
