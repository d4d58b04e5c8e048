import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ququint import (
    HADAMARD,
    DecompositionRequest,
    DimensionTooLargeError,
    EmbeddingMap,
    GroverSpec,
    LevelPairGate,
    QubitSlot,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoLevelUnitary,
    apply_circuit,
    auto_iterations,
    decompose_cnz,
    embed_basis_state,
    phase_shift,
    run_grover,
    verify_decomposition,
)
from ququint import grover
from ququint.core import PAULI_X, STATE_TOL, _apply_gate_inplace
from ququint.decompose import _MAX_SWEEP_N, METHODS
from ququint.embedding import ODD_VARIANTS, OutcomeView, lift_single_qubit_gate
from ququint.grover import BACKENDS, build_diffusion, build_oracle
from readout import dense_read_out


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

    # through run_grover on a compiled backend as well as the reference
    @pytest.mark.parametrize("iterations", ["auto", 5])
    @pytest.mark.parametrize("method", ["reference", "ququint"])
    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_success_matches_analytic_formula_at_wide_factors(self, n, method, iterations):
        report = run_grover(GroverSpec(n, "1" * n, method, iterations=iterations))
        assert report.success_probability == pytest.approx(
            analytic_success(n, report.iterations), abs=1e-13
        )

    @pytest.mark.parametrize("n", range(2, 21))
    def test_success_matches_analytic_formula_over_the_period(self, n):
        # every k of one period up to n = 12, then the automatic and the
        # largest count, past the n = 14 a GroverSpec admits; the 2^n - 1
        # unmarked outcomes stay bitwise equal, as they are in exact
        # arithmetic, and the outcomes sum to 1
        period = grover._max_iterations(n)
        counts = range(1, period + 1) if n <= 12 else (auto_iterations(n), period)
        omega = ("10" * n)[:n]
        for k in counts:
            probs = grover._search(n, omega, k)
            assert abs(probs[int(omega, 2)] - analytic_success(n, k)) <= 1e-13, k
            unmarked = np.delete(probs, int(omega, 2))
            assert (unmarked == unmarked[0]).all(), k
            assert abs(probs.sum() - 1.0) <= 1e-12, k

    def test_exact_tie_reports_the_first_outcome(self):
        # after six iterations at n = 4 the marked outcome is near 0 and the
        # other fifteen tie exactly: the first of them, not rounding, wins
        report = run_grover(GroverSpec(4, "1111", "reference", iterations=6))
        assert report.top_outcome == "0000"

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
            run_grover(GroverSpec(15, "1" * 15, "ququint"))
        with pytest.raises(DimensionTooLargeError):
            run_grover(GroverSpec(15, "1" * 15, "reference"))
        with pytest.raises(DimensionTooLargeError, match="supports n <= 14"):
            GroverSpec(15, "1" * 15, "qubit", iterations=3)

    @pytest.mark.parametrize("method", BACKENDS)
    def test_one_size_limit_for_every_backend(self, method):
        limit = _MAX_SWEEP_N
        assert GroverSpec(limit, "1" * limit, method).n == limit
        with pytest.raises(DimensionTooLargeError, match=f"supports n <= {limit},"):
            GroverSpec(limit + 1, "1" * (limit + 1), method)

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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_swap_ladders_are_exact(self, n):
        # the qutrit and ququint ladders are controlled level swaps around a
        # phase, the qubit ladder Toffoli blocks around one: each verifies as
        # exactly the multi-controlled Z, so its search is the reference's
        omega = ("10" * n)[:n]
        reference = run_grover(GroverSpec(n, omega, "reference")).distribution
        for method, variant in [
            ("qubit", "single"),
            ("qutrit", "single"),
            ("ququint", "single"),
            ("ququint", "neighbor"),
        ]:
            report = run_grover(GroverSpec(n, omega, method, odd_variant=variant))
            assert report.distribution == reference, (method, variant)
            assert report.leakage == 0.0, (method, variant)

    def test_prepared_registers_have_expected_shapes(self):
        # the registers the n=5 ladders are compiled and verified on, and
        # the two-particle gates one iteration's two ladders bill
        for method, dims, count in [("ququint", (5, 5, 5), 3), ("qubit", (2,) * 8, 37)]:
            result = decompose_cnz(DecompositionRequest(5, method))
            assert result.circuit.register.dims == dims
            assert result.two_particle_gate_count == count
            report = run_grover(GroverSpec(5, "11111", method, iterations=1))
            assert report.two_particle_gate_count == 2 * count
        report = run_grover(GroverSpec(5, "11111", "reference", iterations=1))
        assert report.two_particle_gate_count == 0


def _bad_keys(n):
    """Keys that are not n-character strings of 0s and 1s; those of length n
    are ones ``int(key, 2)`` alone would accept."""
    return ["0b01", "1_0", " 011", "+011", "0" * (n + 1), "1" * (n - 1), b"011", 3, None] + [
        head + "1" * (n - len(head)) for head in ("0b", "1_", " ", "+", "\uff11") if len(head) <= n
    ]


class TestDistributionView:
    @pytest.mark.parametrize("method", BACKENDS)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_view_reads_the_outcome_array(self, n, method):
        variant = "neighbor" if method == "ququint" and n % 2 else "single"
        omega = ("10" * n)[:n]
        report = run_grover(GroverSpec(n, omega, method, odd_variant=variant))
        view, probs = report.distribution, grover._search(n, omega, report.iterations)
        labels = [format(x, f"0{n}b") for x in range(2**n)]
        assert list(view) == list(view.keys()) == labels and len(view) == 2**n
        assert dict(view) == {format(x, f"0{n}b"): p for x, p in enumerate(probs.tolist())}
        assert omega in view and view.get(omega) == report.success_probability
        assert view[labels[-1]] == probs[-1] and type(view[omega]) is float
        for key in _bad_keys(n):
            assert key not in view and view.get(key, "absent") == "absent", key
            with pytest.raises(KeyError):
                view[key]
        with pytest.raises(TypeError):
            view[omega] = 1.0
        with pytest.raises(ValueError):
            view.probabilities[0] = 1.0
        assert report.top_outcome == labels[int(np.argmax(probs))] == omega

    def test_items_and_values_iterate_without_lookups(self, monkeypatch):
        report = run_grover(GroverSpec(6, "101101", "reference"))
        view = report.distribution
        lookups = []
        getitem = OutcomeView.__getitem__
        monkeypatch.setattr(
            OutcomeView, "__getitem__", lambda self, key: lookups.append(key) or getitem(self, key)
        )
        pairs = list(zip(view, view.probabilities.tolist()))
        assert list(view.items()) == pairs
        assert list(view.values()) == [p for _, p in pairs]
        assert lookups == []
        marked = ("101101", report.success_probability)
        assert marked in view.items() and ("101101", 0.5) not in view.items()
        assert view.items() & {marked, ("0", 1.0)} == {marked}
        assert report.success_probability in view.values() and len(view.values()) == 64

    def test_report_memory_is_bounded(self):
        # the report holds its 2^14 float64 outcome array (0.125 MiB) and no
        # bitstring per outcome, which took 0.77 MiB as a dict of 2^14 keys
        spec = GroverSpec(14, "1" * 14, "reference")
        run_grover(spec)  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_grover(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.4 * 2**20, held
        assert report.top_outcome == "1" * 14


def _backend(n, method, variant="single"):
    """Embedding and ladder gates of a backend: the compiled ladder's, or
    for the reference one two-level site per qubit and no ladder."""
    if method == "reference":
        register = QuditRegister((2,) * n)
        return EmbeddingMap(register, tuple((q, QubitSlot.SINGLE) for q in range(n))), None
    result = decompose_cnz(DecompositionRequest(n, method, variant))
    return result.embedding, result.circuit.gates


def _full_register_run(emap, ladder, omega, k):
    """Qubit outcome probabilities and leakage (:func:`dense_read_out`) of
    one search on a register-sized array, independent of ``run_grover``:
    every lifted one-qubit step and every ladder gate through the in-place
    stride applier, and for the reference (``ladder`` None) a numpy sign
    flip on |1...1>."""
    register, n = emap.register, emap.qubit_count
    arr = np.zeros(register.size, dtype=complex)
    arr[0] = 1.0
    flip = register.index(embed_basis_state("1" * n, emap))
    iteration = build_oracle(omega, n) + build_diffusion(n)
    for step in [("u", q, HADAMARD) for q in range(n)] + iteration * k:
        if step[0] == "u":
            gates = lift_single_qubit_gate(step[2], step[1], emap)
        elif ladder is None:
            arr[flip] *= -1.0
            continue
        else:
            gates = ladder
        for gate in gates:
            _apply_gate_inplace(arr, register.dims, gate)
    return dense_read_out(np.abs(arr) ** 2, emap)


def _assert_same_distribution(full, report):
    table, leakage = full
    assert len(report.distribution) == len(table)
    assert np.abs(np.array(list(report.distribution.values())) - table).max() <= STATE_TOL
    assert leakage <= STATE_TOL and report.leakage == 0.0


def _compile_with(extra):
    """``decompose_cnz`` with the gates ``extra`` appended to the ladder."""

    def compile_(request):
        result = decompose_cnz(request)
        circuit = result.circuit
        result.circuit = QuditCircuit(circuit.register, list(circuit.gates) + list(extra))
        return result

    return compile_


def _check_with(extra, n, method, variant="single"):
    """The verifier's report on the ladder with ``extra`` appended."""
    return verify_decomposition(_compile_with(extra)(DecompositionRequest(n, method, variant)))


# Every backend at n=2..7, then larger registers; the odd variant matters
# only at odd n.
_ENGINE_CASES = [
    pytest.param(n, method, "single", id=f"{n}-{method}")
    for n in range(2, 8)
    for method in BACKENDS
] + [
    pytest.param(n, method, variant, id=f"{n}-{method}-{variant}")
    for n, method, variant in [
        (8, "ququint", "single"), (9, "ququint", "single"), (9, "ququint", "neighbor"),
        (10, "ququint", "single"), (8, "qutrit", "single"),
        (11, "reference", "single"), (12, "reference", "single"),
    ]
]


class TestEngines:
    @pytest.mark.parametrize("n,method,variant", _ENGINE_CASES)
    def test_sparse_table_matches_dense_register(self, n, method, variant):
        # the search the verifier's sparse table admits, run with the exact
        # multi-controlled Z, equals the compiled ladder run gate by gate on
        # the whole register
        rng = np.random.default_rng(100 + n)
        omega = "".join(str(b) for b in rng.integers(0, 2, size=n))
        k = int(rng.integers(1, grover._max_iterations(n) + 1))
        emap, ladder = _backend(n, method, variant)
        report = run_grover(GroverSpec(n, omega, method, k, variant))
        _assert_same_distribution(_full_register_run(emap, ladder, omega, k), report)

    @pytest.mark.parametrize(
        "method,n,engine",
        [("qutrit", 8, "dense"), ("qutrit", 9, "sparse"), ("qubit", 7, "dense"),
         ("ququint", 10, "dense"), ("reference", 12, "dense")],
    )
    def test_sparse_above_32_amplitudes_per_outcome(self, method, n, engine):
        # ``engine`` names the engine an earlier register-size rule picked
        # for the case (qutrit n=8 / 9 span 25.6 / 38.4 amplitudes per
        # outcome, qubit n=7 32); every search now runs on one engine
        report = run_grover(GroverSpec(n, "1" * n, method, iterations=1))
        assert report.success_probability == pytest.approx(analytic_success(n, 1), abs=1e-9)

    def test_leaking_ladder_reports_the_same_leakage(self, monkeypatch):
        # a final Hadamard on the first work site: it leaves half of every
        # input on level 1 of that site, which the verifier reads and the
        # refusal names; the whole search run gate by gate leaks too
        for n in (4, 8):
            emap, ladder = _backend(n, "qubit")
            leak = [LevelPairGate(emap.work_sites[0], 0, 1, HADAMARD)]
            full = _full_register_run(emap, list(ladder) + leak, "1" * n, auto_iterations(n))
            assert full[1] > 0.5
            check = _check_with(leak, n, "qubit")
            assert check.max_leakage == pytest.approx(0.5, abs=STATE_TOL)
            with monkeypatch.context() as patch, pytest.raises(
                RuntimeError, match=re.escape(f", leakage {check.max_leakage}; ")
            ):
                patch.setattr(grover, "decompose_cnz", _compile_with(leak))
                run_grover(GroverSpec(n, "1" * n, "qubit"))

    def test_small_leak_is_refused_before_the_search(self, monkeypatch):
        # a small rotation from level 1 into the spare level 2 of qutrit
        # site 0 after the ladder: run gate by gate, the leakage rises and
        # falls from ladder to ladder and first passes STATE_TOL in the third
        # iteration; the verifier sees it in one ladder and no iteration runs
        emap, ladder = _backend(5, "qutrit")
        theta = 1.25e-5
        u = TwoLevelUnitary(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
        leak = [LevelPairGate(0, 1, 2, u)]
        full = [_full_register_run(emap, list(ladder) + leak, "10110", k)[1] for k in (1, 2, 3)]
        assert full[0] < STATE_TOL and full[1] < STATE_TOL < full[2]
        check = _check_with(leak, 5, "qutrit")
        assert check.max_leakage == pytest.approx(math.sin(theta) ** 2, rel=1e-6)
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(leak))
        with pytest.raises(
            RuntimeError,
            match=r"^the qutrit ladder is not exactly the multi-controlled Z \(worst input 10000\): "
            + re.escape(f"amplitude error {check.max_amplitude_error}, leakage {check.max_leakage}"),
        ):
            run_grover(GroverSpec(5, "10110", "qutrit", iterations=3))

    def test_work_site_leak_names_the_worst_input(self, monkeypatch):
        emap, ladder = _backend(4, "qubit")
        leak = [LevelPairGate(emap.work_sites[0], 0, 1, HADAMARD)]
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(leak))
        with pytest.raises(RuntimeError, match=r"\(worst input 0000\): amplitude error "):
            run_grover(GroverSpec(4, "1111", "qubit"))

    def test_passing_but_inexact_ladder_is_refused(self, monkeypatch):
        # a 1e-12 phase on level 1 of site 0: the ladder passes the
        # verifier's STATE_TOL, so it names no worst input, but the search
        # runs the exact multi-controlled Z and so admits only an exact one
        leak = [LevelPairGate(0, 0, 1, phase_shift(1e-12))]
        check = _check_with(leak, 4, "ququint")
        assert check.passed() and check.worst_input is None
        assert check.max_amplitude_error > 0.0
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(leak))
        with pytest.raises(RuntimeError, match=r"multi-controlled Z: amplitude error "):
            run_grover(GroverSpec(4, "1111", "ququint"))


@st.composite
def two_level_unitaries(draw):
    theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
    c, s, z = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    return draw(st.sampled_from([HADAMARD, TwoLevelUnitary(c, -s * z.conjugate(), s * z, c)]))


@given(st.sampled_from(METHODS), st.integers(3, 6), st.data())
def test_appended_level_pair_gate_matches_full_register(method, n, data):
    """Any level-pair gate after the ladder, leaking or mixing computational
    levels or not: ``run_grover`` refuses the search exactly when the
    verifier does not read the ladder as exactly the multi-controlled Z, and
    otherwise agrees with the full-register run."""
    variant = data.draw(st.sampled_from(ODD_VARIANTS)) if method == "ququint" else "single"
    emap, ladder = _backend(n, method, variant)
    site = data.draw(st.integers(0, emap.register.num_sites - 1))
    i, j = sorted(data.draw(st.lists(
        st.integers(0, emap.register.dims[site] - 1), min_size=2, max_size=2, unique=True
    )))
    extra = [LevelPairGate(site, i, j, data.draw(two_level_unitaries()))]
    omega = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
    k = data.draw(st.integers(1, auto_iterations(n)))
    check = _check_with(extra, n, method, variant)
    spec = GroverSpec(n, omega, method, k, variant)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grover, "decompose_cnz", _compile_with(extra))
        if check.max_amplitude_error != 0.0 or check.max_leakage != 0.0:
            with pytest.raises(RuntimeError, match="not exactly the multi-controlled Z"):
                run_grover(spec)
            return
        report = run_grover(spec)
    _assert_same_distribution(_full_register_run(emap, list(ladder) + extra, omega, k), report)


@st.composite
def appended_level_pair_gates(draw):
    """A compiled phase ladder at n = 3..5 (method, n, layout) and a random
    level-pair gate on any of its sites to append to it."""
    method = draw(st.sampled_from(METHODS))
    n = draw(st.integers(3, 5))
    variant = draw(st.sampled_from(ODD_VARIANTS)) if method == "ququint" else "single"
    dims = decompose_cnz(DecompositionRequest(n, method, variant)).circuit.register.dims
    site = draw(st.integers(0, len(dims) - 1))
    i, j = sorted(draw(st.lists(
        st.integers(0, dims[site] - 1), min_size=2, max_size=2, unique=True
    )))
    return method, n, variant, LevelPairGate(site, i, j, draw(two_level_unitaries()))


# a Hadamard between a computational level and a spare one splits each input
# on it between its expected index and a leaked one
@example(("ququint", 3, "single", LevelPairGate(0, 1, 4, HADAMARD)))
@example(("ququint", 5, "neighbor", LevelPairGate(2, 3, 4, HADAMARD)))
@example(("qutrit", 4, "single", LevelPairGate(3, 1, 2, HADAMARD)))
@example(("qubit", 4, "single", LevelPairGate(4, 0, 1, HADAMARD)))
@given(appended_level_pair_gates())
def test_leakage_matches_the_dense_applier(case):
    """The verifier's largest leakage equals the largest weight off the
    computational levels of any embedded basis input, every bystander value
    included, run through ``apply_circuit`` on the whole register."""
    method, n, variant, gate = case
    result = _compile_with([gate])(DecompositionRequest(n, method, variant))
    emap = result.embedding
    worst = 0.0
    for x in range(2**n):
        for bystander in (0, 1) if emap.bystander_sites else (0,):
            label = embed_basis_state(format(x, f"0{n}b"), emap, bystander)
            state = apply_circuit(StateVector.basis_state(emap.register, label), result.circuit)
            worst = max(worst, dense_read_out(np.abs(state.amplitudes) ** 2, emap)[1])
    assert abs(verify_decomposition(result).max_leakage - worst) <= 1e-12


def _compiled_layouts(n):
    yield from (("qubit", "single"), ("qutrit", "single"), ("ququint", "single"))
    if n % 2:
        yield "ququint", "neighbor"


class TestSetupPerSearch:
    def test_clean_search_leaves_no_stale_set_up_for_a_leaking_ladder(self, monkeypatch):
        # each search compiles and verifies its own ladder, so the same n
        # and method with a leaking ladder must not reuse a clean one
        run_grover(GroverSpec(4, "1111", "qubit"))
        emap, _ = _backend(4, "qubit")
        leak = [LevelPairGate(emap.work_sites[0], 0, 1, HADAMARD)]
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(leak))
        with pytest.raises(RuntimeError, match=r"^the qubit ladder is not exactly"):
            run_grover(GroverSpec(4, "1111", "qubit"))


class TestLadderStep:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_compiled_ladders_are_exactly_the_cz(self, n):
        # every input, with both bystander values where the layout has one,
        # ends where the multi-controlled Z sends it with exactly its sign,
        # so every compiled ladder is admitted to the search
        for method, variant in _compiled_layouts(n):
            result = decompose_cnz(DecompositionRequest(n, method, variant))
            check = verify_decomposition(result)
            assert (check.max_amplitude_error, check.max_leakage) == (0.0, 0.0), (method, variant)
            inputs = 2**n * (2 if result.embedding.bystander_sites else 1)
            assert check.inputs_checked == inputs, (method, variant)

    @pytest.mark.parametrize("method", METHODS)
    def test_mixing_ladder_is_refused(self, method, monkeypatch):
        # a Hadamard on levels (0, 1) of site 0 after the ladder mixes
        # computational levels: the search it would need is not the exact one
        mixing = [LevelPairGate(0, 0, 1, HADAMARD)]
        check = _check_with(mixing, 4, method)
        assert check.max_leakage == 0.0 and check.max_amplitude_error > 0.29
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(mixing))
        with pytest.raises(RuntimeError, match=r"Z \(worst input [01]{4}\): "):
            run_grover(GroverSpec(4, "1111", method))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_bystander_flip_is_not_leakage(self, n, monkeypatch):
        # X on levels (0, 1) and (2, 3) of the neighbor layout's bystander
        # site after the ladder: every input stays computational, so the
        # verifier reads no leakage, but it ends with the bystander flipped,
        # a full miss, and the search is refused
        emap, _ = _backend(n, "ququint", "neighbor")
        (site,) = emap.bystander_sites
        flip = [LevelPairGate(site, 0, 1, PAULI_X), LevelPairGate(site, 2, 3, PAULI_X)]
        check = _check_with(flip, n, "ququint", "neighbor")
        assert (check.max_amplitude_error, check.max_leakage) == (1.0, 0.0)
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(flip))
        with pytest.raises(
            RuntimeError,
            match=re.escape(f"(worst input {'0' * n}+bystander0): amplitude error 1.0, leakage 0.0;"),
        ):
            run_grover(GroverSpec(n, "1" * n, "ququint", odd_variant="neighbor"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("method", METHODS)
    def test_complex_phase_is_refused(self, method, n, monkeypatch):
        # a T-type phase on levels (0, 1) of site 0 after the ladder keeps
        # every input on one basis state, but with phase e^(i pi/4) where
        # site 0 ends at level 1
        t_phase = [LevelPairGate(0, 0, 1, phase_shift(math.pi / 4))]
        check = _check_with(t_phase, n, method)
        assert check.max_leakage == 0.0
        assert check.max_amplitude_error == pytest.approx(abs(cmath.exp(1j * math.pi / 4) - 1))
        monkeypatch.setattr(grover, "decompose_cnz", _compile_with(t_phase))
        with pytest.raises(RuntimeError, match="not exactly the multi-controlled Z"):
            run_grover(GroverSpec(n, "1" * n, method))


class TestVectorDtype:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_compiled_ladders_and_the_reference_run_in_float64(self, n):
        # the oracle and the diffusion are real reflections, so every
        # backend's search and report hold float64 only
        assert grover._search(n, "1" * n, 1).dtype == np.float64
        for method, variant in [("reference", "single")] + list(_compiled_layouts(n)):
            report = run_grover(GroverSpec(n, "1" * n, method, iterations=1, odd_variant=variant))
            assert report.distribution.probabilities.dtype == np.float64, (method, variant)


def _reflection_loop(n, omega, counts):
    """Outcome probabilities after each of ``counts`` iterations (ascending),
    from the two reflections run on the whole 2^n vector: negate omega's
    entry, then subtract twice the mean from every entry."""
    v = np.full(2**n, 2.0 ** (-n / 2))
    marked, done = int(omega, 2), 0
    for k in counts:
        for _ in range(k - done):
            v[marked] = -v[marked]
            v -= 2.0 * v.mean()
        done = k
        yield k, v * v


class TestTwoAmplitudes:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_search_matches_the_reflections_on_the_whole_vector(self, n):
        # every k of one period; only the order of the mean's sum differs
        period = grover._max_iterations(n)
        for omega in ("0" * n, ("10" * n)[:n]):
            for k, probs in _reflection_loop(n, omega, range(1, period + 1)):
                assert np.abs(grover._search(n, omega, k) - probs).max() <= 1e-14, (omega, k)

    def test_one_array_per_search(self):
        # the iterations run on two floats, so the 2^20 outcome array
        # (8 MiB) is the only allocation that grows with n
        grover._search(20, "1" * 20, auto_iterations(20))  # warm-up
        tracemalloc.start()
        try:
            probs = grover._search(20, "1" * 20, auto_iterations(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.nbytes == 8 * 2**20
        assert peak < probs.nbytes + 2**16, peak


class TestSearchMatchesTheCircuit:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_reflections_equal_the_steps_run_gate_by_gate(self, n):
        # the two reflections against the oracle and diffusion steps, each
        # lifted gate through the stride applier on the reference embedding
        emap, _ = _backend(n, "reference")
        period = grover._max_iterations(n)
        counts = range(1, period + 1) if n <= 8 else (auto_iterations(n), period)
        for omega in ("0" * n, "1" * n, "1" + "0" * (n - 1)):
            for k in counts:
                table, leakage = _full_register_run(emap, None, omega, k)
                assert np.abs(grover._search(n, omega, k) - table).max() <= 1e-12, (omega, k)
                assert leakage <= 1e-12
