import json
import sys
import time

import numpy as np
import pytest

from ququint import (
    HADAMARD,
    CircuitDocument,
    DecompositionRequest,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoQuditCZ,
    decompose_cnz,
    load_document,
    save_document,
)
from ququint import cli, core, decompose
from ququint.cli import _outcome_table, main
from ququint.core import _propagate_sparse, _sample_counts
from ququint.decompose import _WINDOW_SIZE, _plan
from readout import dense_read_out


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_writes_document_and_summary(self, tmp_path, capsys):
        out = tmp_path / "c4z.json"
        code, stdout, _ = run_cli(
            capsys, "decompose", "--n", "5", "--method", "ququint",
            "--odd-variant", "single", "--out", str(out),
        )
        assert code == 0
        assert "two_particle_gates=3" in stdout
        doc = load_document(out.read_text())
        kinds = [next(iter(g)) for g in json.loads(out.read_text())["gates"]]
        assert kinds.count("cz") == 3
        assert kinds.count("levelpair") == 4
        assert doc.embedding.qubit_count == 5

    def test_n4_has_exactly_one_cz(self, tmp_path, capsys):
        out = tmp_path / "c3z.json"
        code, stdout, _ = run_cli(
            capsys, "decompose", "--n", "4", "--method", "ququint", "--out", str(out)
        )
        assert code == 0
        kinds = [next(iter(g)) for g in json.loads(out.read_text())["gates"]]
        assert kinds == ["cz"]

    def test_stdout_mode_keeps_streams_separate(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "decompose", "--n", "3", "--method", "qutrit"
        )
        assert code == 0
        assert json.loads(stdout)["version"] == 1
        assert "two_particle_gates=3" in stderr

    def test_usage_error_on_small_n(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code, stdout, stderr = run_cli(
            capsys, "decompose", "--n", "1", "--method", "ququint", "--out", str(out)
        )
        assert code == 2
        assert "error" in stderr
        assert not out.exists()  # error paths must not create output files

    @pytest.mark.parametrize("n,method", [
        ("31", "qutrit"), ("2000000", "qubit"), ("100000000000000000000", "ququint"),
    ])
    def test_oversized_n_refused_up_front(self, capsys, n, method):
        code, stdout, stderr = run_cli(capsys, "decompose", "--n", n, "--method", method)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1

    def test_inversion_target(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "decompose", "--n", "3", "--method", "ququint", "--target", "x:2"
        )
        assert code == 0

    def test_bad_target_spec(self, capsys):
        code, _, stderr = run_cli(
            capsys, "decompose", "--n", "3", "--method", "ququint", "--target", "y"
        )
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "n,method", [("6", "ququint"), ("7", "qutrit"), ("5", "qubit")]
    )
    def test_compiled_circuits_pass(self, capsys, n, method):
        code, stdout, _ = run_cli(
            capsys, "verify", "--n", n, "--method", method, "--exhaustive"
        )
        assert code == 0
        assert "PASS" in stdout
        assert "max_amplitude_error" in stdout

    def test_document_mode(self, tmp_path, capsys):
        out = tmp_path / "good.json"
        run_cli(capsys, "decompose", "--n", "5", "--method", "ququint", "--out", str(out))
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out), "--exhaustive")
        assert code == 0
        assert "PASS" in stdout

    def test_corrupted_document_fails_with_input(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        run_cli(capsys, "decompose", "--n", "5", "--method", "ququint", "--out", str(out))
        # sabotage the central controlled phase: target the wrong level
        text = out.read_text().replace(
            '"cz": {"siteA": 1, "siteB": 2, "i": 4, "j": 1',
            '"cz": {"siteA": 1, "siteB": 2, "i": 4, "j": 0',
        )
        assert text != out.read_text()
        out.write_text(text)
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out), "--exhaustive")
        assert code == 1
        assert "FAIL input=" in stdout

    @pytest.mark.parametrize(
        "n,method,variant",
        [
            (n, method, variant)
            for n in range(2, 7)
            for method in ("ququint", "qutrit", "qubit")
            for variant in ("single", "neighbor")
            if variant == "single" or (method == "ququint" and n % 2)
        ],
    )
    def test_every_decomposed_document_verifies(self, tmp_path, capsys, n, method, variant):
        out = tmp_path / "doc.json"
        for target in ["z"] + [f"x:{k}" for k in range(n)]:
            code, _, _ = run_cli(
                capsys, "decompose", "--n", str(n), "--method", method,
                "--odd-variant", variant, "--target", target, "--out", str(out),
            )
            assert code == 0
            code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out), "--exhaustive")
            assert (code, stdout.splitlines()[-1]) == (0, "PASS"), (target, stdout)

    @pytest.mark.parametrize("method", ["ququint", "qutrit", "qubit"])
    def test_target_flag_matches_the_document_route(self, tmp_path, capsys, method):
        out = tmp_path / "doc.json"
        run_cli(capsys, "decompose", "--n", "5", "--method", method,
                "--target", "x:2", "--out", str(out))
        by_document = run_cli(capsys, "verify", "--circuit", str(out), "--exhaustive")
        by_flag = run_cli(
            capsys, "verify", "--n", "5", "--method", method, "--target", "x:2", "--exhaustive"
        )
        assert by_flag == by_document
        assert (by_flag[0], by_flag[1].splitlines()[-1]) == (0, "PASS")

    def test_target_flag_reaches_the_verifier(self, capsys, monkeypatch):
        # the phase gate checked as an inversion on qubit 0 must fail
        phase = decompose_cnz(DecompositionRequest(4, "qutrit"))
        monkeypatch.setattr("ququint.cli.decompose_cnz", lambda request: phase)
        code, stdout, _ = run_cli(
            capsys, "verify", "--n", "4", "--method", "qutrit", "--target", "x:0", "--exhaustive"
        )
        assert code == 1
        assert stdout.splitlines()[-1] == "FAIL input=0111"

    @pytest.mark.parametrize("target", ["x:5", "x:-1", "x:one", "y", ""])
    def test_bad_target_flag(self, capsys, target):
        code, stdout, stderr = run_cli(
            capsys, "verify", "--n", "5", "--method", "qutrit", "--target", target
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1

    def test_target_flag_refused_with_a_document(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        run_cli(capsys, "decompose", "--n", "3", "--method", "qutrit", "--out", str(out))
        for flags in (["--target", "x:0"], ["--n", "8"], ["--method", "qubit"],
                      ["--n", "8", "--method", "qubit"], ["--odd-variant", "neighbor"]):
            code, stdout, stderr = run_cli(capsys, "verify", "--circuit", str(out), *flags)
            assert (code, stdout) == (2, ""), flags
            assert stderr.startswith("error:"), flags

    def test_sampled_mode_on_large_n(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify", "--n", "9", "--method", "qutrit")
        assert code == 0
        assert "inputs_checked=64" in stdout

    @pytest.mark.parametrize("n,method", [
        ("100000000000000000000", "qutrit"), ("15", "qubit"), ("17", "qutrit"), ("23", "ququint"),
    ])
    def test_oversized_n_refused_before_compiling(self, capsys, monkeypatch, n, method):
        # the request refuses n > 30 before anything compiles; each method's
        # first size past the register budget is refused when its register
        # is built, the compiler's first step
        if int(n) > 30:
            monkeypatch.setattr("ququint.cli.decompose_cnz", lambda r: pytest.fail("compiled"))
        code, stdout, stderr = run_cli(capsys, "verify", "--n", n, "--method", method)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert int(n) > 30 or "exceeds the supported maximum 2^26" in stderr

    @pytest.mark.parametrize("inversion", [False, True], ids=["z", "x:last"])
    @pytest.mark.parametrize("n,method,variant", [
        (16, "qutrit", "single"),
        (15, "ququint", "single"),
        (15, "ququint", "neighbor"),
        (16, "ququint", "single"),
    ])
    def test_documents_above_n14_verify(self, tmp_path, capsys, n, method, variant, inversion):
        # the register budget is the only size rule: what decompose writes
        # past n = 14, verify accepts
        out = tmp_path / "doc.json"
        target = f"x:{n - 1}" if inversion else "z"
        code, _, _ = run_cli(
            capsys, "decompose", "--n", str(n), "--method", method,
            "--odd-variant", variant, "--target", target, "--out", str(out),
        )
        assert code == 0
        code, stdout, _ = run_cli(capsys, "verify", "--circuit", str(out), "--exhaustive")
        inputs = 2**n * (2 if variant == "neighbor" else 1)
        assert (code, stdout.splitlines()[-1]) == (0, "PASS"), stdout
        assert stdout.startswith(f"inputs_checked={inputs} ")

    def test_requires_some_target(self, capsys):
        code, _, stderr = run_cli(capsys, "verify")
        assert code == 2
        assert "error" in stderr


class TestSimulate:
    @pytest.fixture
    def document(self, tmp_path, capsys):
        out = tmp_path / "c4z.json"
        run_cli(capsys, "decompose", "--n", "5", "--method", "ququint", "--out", str(out))
        return out

    def test_diagonal_gate_keeps_input(self, document, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", str(document), "--input", "11111", "--probs"
        )
        assert code == 0
        assert "11111,1" in stdout
        assert "leakage,0" in stdout

    def test_other_input_unchanged(self, document, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", str(document), "--input", "11011", "--probs"
        )
        assert code == 0
        assert "11011,1" in stdout

    def test_shots_deterministic(self, document, capsys):
        args = ("simulate", str(document), "--input", "10101", "--shots", "1000", "--seed", "7")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "10101,1000" in out_a

    def test_shots_land_on_outcomes_with_probability(self, document, tmp_path, capsys):
        amps = [[0.0, 0.0]] * 125
        for index in (0, 91, 4):  # |00000>, |11111>, and site 2 on its spare level 4
            amps[index] = [3**-0.5, 0.0]
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"amplitudes": amps}))
        source = ("simulate", str(document), "--state", str(state))
        _, probs, _ = run_cli(capsys, *source, "--probs")
        live = [row.split(",")[0] for row in probs.splitlines()[1:] if float(row.split(",")[1]) > 0]
        code, stdout, _ = run_cli(capsys, *source, "--shots", "3000", "--seed", "5")
        assert code == 0
        rows = [row.split(",") for row in stdout.splitlines()[1:]]
        assert [outcome for outcome, _ in rows] == live == ["00000", "11111", "leakage"]
        assert sum(int(count) for _, count in rows) == 3000

    def test_huge_shot_count(self, document, capsys):
        start = time.perf_counter()
        code, stdout, _ = run_cli(
            capsys, "simulate", str(document), "--input", "10101", "--shots", "1000000000000000"
        )
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (0, "outcome,count\n10101,1000000000000000\n")

    @pytest.mark.parametrize("shots", ["0", "9223372036854775808"])
    def test_shots_out_of_range_are_usage_errors(self, document, capsys, shots):
        code, stdout, stderr = run_cli(
            capsys, "simulate", str(document), "--input", "10101", "--shots", shots
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: shots")

    def test_input_length_mismatch(self, document, capsys):
        code, _, stderr = run_cli(
            capsys, "simulate", str(document), "--input", "111", "--probs"
        )
        assert code == 2
        assert "error" in stderr

    def test_state_file_input(self, document, tmp_path, capsys):
        state = tmp_path / "state.json"
        amps = [[0.0, 0.0]] * 125
        amps[0] = [1.0, 0.0]
        state.write_text(json.dumps({"amplitudes": amps}))
        code, stdout, _ = run_cli(
            capsys, "simulate", str(document), "--state", str(state), "--probs"
        )
        assert code == 0
        assert "00000,1" in stdout

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        code, _, stderr = run_cli(capsys, "simulate", str(bad), "--input", "1", "--probs")
        assert code == 2

    @staticmethod
    def _embedded_case(method):
        """A four-qubit inversion of qubit 3, and a random state over its
        embedded basis; returns the document, the state and what
        ``--probs`` prints from input 1111 and from the state."""
        result = decompose_cnz(DecompositionRequest(4, method, target_qubit=3))
        emap, register = result.embedding, result.circuit.register
        index = emap.encode([[x >> (3 - q) & 1 for q in range(4)] for x in range(16)])
        rng = np.random.default_rng(11)
        amps = np.zeros(register.size, dtype=complex)
        amps[index] = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        flipped = [x ^ 1 if x >= 14 else x for x in range(16)]  # controls 111 flip qubit 3
        point = {format(x, "04b"): float(x == 14) for x in range(16)}
        moved = {format(x, "04b"): abs(amps[index[flipped[x]]]) ** 2 for x in range(16)}
        document = CircuitDocument(result.circuit, emap, 3)
        return document, amps, "1111", {**point, "leakage": 0.0}, {**moved, "leakage": 0.0}

    @staticmethod
    def _raw_case():
        """No embedding: H on levels (0, 2) of a qutrit, then a -1 phase on
        (2, 1); the state is 0.6|00> + 0.8|11>."""
        register = QuditRegister((3, 2))
        gates = [LevelPairGate(0, 0, 2, HADAMARD), TwoQuditCZ(0, 1, 2, 1)]
        amps = np.array([0.6, 0, 0, 0.8, 0, 0], dtype=complex)
        document = CircuitDocument(QuditCircuit(register, gates))
        return document, amps, "01", {"01": 0.5, "21": 0.5}, {"00": 0.18, "11": 0.64, "20": 0.18}

    @pytest.mark.parametrize("mode", ["input-probs", "input-shots", "state-probs"])
    @pytest.mark.parametrize("kind", ["ququint", "qutrit", "qubit", "raw"])
    def test_runs_without_a_dense_register(self, tmp_path, capsys, monkeypatch, kind, mode):
        """``simulate`` starts from rows, not a register-sized vector. Every
        module that binds the stride kernel gets a guard that refuses a call
        on the document register's own dims; the only calls it lets through
        are ``_monomial_prefix``'s window builds, a square matrix of at most
        ``_WINDOW_SIZE`` columns as the last axis (their cache is cleared
        first, so they run)."""
        case = self._raw_case() if kind == "raw" else self._embedded_case(kind)
        document, amps, bits, from_input, from_state = case
        doc, state = tmp_path / "doc.json", tmp_path / "state.json"
        doc.write_text(save_document(document))
        state.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in amps.tolist()]}))
        kernel = core._apply_gate_inplace
        register_dims, local_builds = document.circuit.register.dims, []

        def local_only(arr, dims, gate):
            size = dims[-1]
            if tuple(dims) == register_dims or size > _WINDOW_SIZE or arr.shape != (size, size):
                raise AssertionError(f"simulate ran the stride kernel on dims {dims}")
            local_builds.append(dims)
            kernel(arr, dims, gate)

        def refuse(*args, **kwargs):
            raise AssertionError("simulate used a dense register")

        binders = [
            module
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "ququint"
            and getattr(module, "_apply_gate_inplace", None) is kernel
        ]
        assert {core, decompose} <= set(binders)
        for module in binders:
            monkeypatch.setattr(module, "_apply_gate_inplace", local_only)
        monkeypatch.setattr(StateVector, "basis_state", classmethod(refuse))
        decompose._monomial_prefix.cache_clear()
        if mode == "input-shots":
            code, stdout, _ = run_cli(
                capsys, "simulate", str(doc), "--input", bits, "--shots", "1000", "--seed", "2"
            )
            outcomes = [o for o, p in from_input.items() if p]
            counts = np.random.default_rng(2).multinomial(1000, [from_input[o] for o in outcomes])
            rows = "".join(f"{o},{c}\n" for o, c in zip(outcomes, counts) if c)
            assert (code, stdout) == (0, "outcome,count\n" + rows)
            assert local_builds  # the guard saw the window builds
            return
        source = ["--input", bits] if mode == "input-probs" else ["--state", str(state)]
        code, stdout, _ = run_cli(capsys, "simulate", str(doc), *source, "--probs")
        expected = from_input if mode == "input-probs" else from_state
        lines = stdout.splitlines()
        assert (code, lines[0]) == (0, "outcome,probability")
        printed = dict(line.rsplit(",", 1) for line in lines[1:])
        assert list(printed) == list(expected)
        for outcome, prob in expected.items():
            assert abs(float(printed[outcome]) - prob) <= 1e-12
        assert local_builds


def _simulate_layouts():
    """Every method and layout at n = 2..8, as the phase gate and as the
    inversion of qubit 0."""
    for n in range(2, 9):
        layouts = [("ququint", "single"), ("qutrit", "single"), ("qubit", "single")]
        if n % 2:
            layouts.append(("ququint", "neighbor"))
        for method, variant in layouts:
            for target in (None, 0):
                yield pytest.param(
                    n, method, variant, target, id=f"{method}-{variant}-n{n}-{target}"
                )


@pytest.mark.parametrize("n,method,variant,target", _simulate_layouts())
def test_shots_draw_what_the_full_table_drew(n, method, variant, target):
    """``simulate --shots`` draws over the bitstrings its rows reach, then
    ``leakage``. The histograms equal those of one draw over every
    bitstring then ``leakage``, the table it drew from before, for four
    random inputs and two random states over the whole register, seeds
    0..19."""
    result = decompose_cnz(DecompositionRequest(n, method, variant, target))
    document = CircuitDocument(result.circuit, result.embedding, target)
    register, emap = result.circuit.register, result.embedding
    rng = np.random.default_rng(n)
    starts = [(emap.encode(rng.integers(0, 2, n)).reshape(1), np.ones(1)) for _ in range(4)]
    for _ in range(2):
        amps = rng.normal(size=register.size) + 1j * rng.normal(size=register.size)
        starts.append((np.arange(register.size), amps / np.linalg.norm(amps)))
    plan = _plan(register, result.circuit.gates)
    for rows in starts:
        keys, amps = _propagate_sparse(register, plan, *rows)
        outcomes, probs = _outcome_table(document, keys, amps)
        dense = np.zeros(register.size)
        dense[keys] = np.abs(amps) ** 2
        table, leakage = dense_read_out(dense, emap)
        every = [format(x, f"0{n}b") for x in range(2**n)] + ["leakage"]
        weights = table.tolist() + [leakage]
        for seed in range(20):
            live = _sample_counts(probs, seed, 1000)
            drawn = _sample_counts(weights, seed, 1000)
            assert {o: c for o, c in zip(outcomes, live) if c} == {
                o: c for o, c in zip(every, drawn) if c
            }


def cz_document(phase: str) -> str:
    return (
        '{"version": 1, "dims": [2, 2], "gates": [{"cz": {"siteA": 0, "siteB": 1, '
        f'"i": 1, "j": 1, "phase": {phase}}}}}]}}'
    )


class TestOutsideInput:
    """Malformed files are usage errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize("document,state", [
        pytest.param(
            '{"version": 1, "dims": [2], "gates": [{"levelpair": {"site": 0, "i": 0, '
            '"j": 1, "u": [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]]}}]}',
            None, id="unitary-entry-overflow",
        ),
        pytest.param(cz_document("[1" + "0" * 400 + ", 0]"), None, id="int-beyond-float"),
        pytest.param(cz_document("[1.7e308, 1.7e308]"), None, id="phase-modulus-overflow"),
        pytest.param(cz_document("[NaN, 0]"), None, id="nan-phase"),
        pytest.param("[" * 100_000 + "]" * 100_000, None, id="nested-document"),
        pytest.param(cz_document("[-1, 0]"), '{"amplitudes": 5}', id="amplitudes-number"),
        pytest.param(cz_document("[-1, 0]"), '{"amplitudes": ["ab"]}', id="amplitude-string"),
        pytest.param(cz_document("[-1, 0]"), '{"amplitudes": [[null, 0]]}', id="amplitude-null"),
        pytest.param(
            cz_document("[-1, 0]"), '{"amplitudes": ' + "[" * 100_000 + "]" * 100_000 + "}",
            id="nested-state",
        ),
    ])
    def test_rejected_with_message(self, tmp_path, capsys, document, state):
        doc = tmp_path / "doc.json"
        doc.write_text(document)
        source = ["--input", "11"]
        if state is not None:
            (tmp_path / "state.json").write_text(state)
            source = ["--state", str(tmp_path / "state.json")]
        code, _, stderr = run_cli(capsys, "simulate", str(doc), *source, "--probs")
        assert code == 2
        assert stderr.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("verify", "--circuit", "{doc}"),
        ("simulate", "{doc}", "--input", "", "--probs"),
    ], ids=["verify", "simulate"])
    def test_embedding_without_qubits_refused(self, tmp_path, capsys, argv):
        # verify printed FAIL input= with error 2.0, simulate the outcome 0
        doc = tmp_path / "doc.json"
        doc.write_text(
            '{"version": 1, "dims": [2, 2], "embedding": '
            '{"qubitCount": 0, "assignments": []}, "gates": []}'
        )
        code, stdout, stderr = run_cli(capsys, *(arg.format(doc=doc) for arg in argv))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestRawLevelInput:
    """Documents without an embedding take levels: one digit per site, or
    comma-separated as the read-out prints sites above 10 levels."""

    DOCUMENT = (
        '{"version": 1, "dims": [11, 2], "gates": [{"cz": {"siteA": 0, "siteB": 1, '
        '"i": 10, "j": 1, "phase": [-1, 0]}}]}'
    )

    def test_comma_separated_levels(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(self.DOCUMENT)
        code, stdout, _ = run_cli(capsys, "simulate", str(doc), "--input", "10,1", "--probs")
        assert (code, stdout) == (0, "outcome,probability\n10,1,1\n")

    def test_digit_per_site(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(self.DOCUMENT)
        code, stdout, _ = run_cli(capsys, "simulate", str(doc), "--input", "91", "--probs")
        assert (code, stdout) == (0, "outcome,probability\n9,1,1\n")

    def test_one_site_level_above_nine(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text('{"version": 1, "dims": [11], "gates": []}')
        code, stdout, _ = run_cli(capsys, "simulate", str(doc), "--input", "10", "--probs")
        assert (code, stdout) == (0, "outcome,probability\n10,1\n")

    @pytest.mark.parametrize("label", ["101", "1,x", "1,,0", "10,2"])
    def test_bad_labels_are_usage_errors(self, tmp_path, capsys, label):
        doc = tmp_path / "doc.json"
        doc.write_text(self.DOCUMENT)
        code, stdout, stderr = run_cli(capsys, "simulate", str(doc), "--input", label, "--probs")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1


class TestOddVariant:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "5", "--method", "qutrit"],
            ["verify", "--n", "5", "--method", "qubit", "--exhaustive"],
            ["verify", "--n", "4", "--method", "ququint"],
            ["grover", "--n", "4", "--method", "ququint", "--omega", "1111"],
            ["grover", "--n", "5", "--method", "reference", "--omega", "11111"],
            ["grover", "--n", "5", "--method", "qutrit", "--omega", "11111"],
            ["decompose", "--n", "5", "--method", "qubit"],
            ["decompose", "--n", "6", "--method", "ququint"],
        ],
        ids=" ".join,
    )
    def test_neighbor_refused_without_an_odd_ququint_layout(self, capsys, argv):
        code, stdout, stderr = run_cli(capsys, *argv, "--odd-variant", "neighbor")
        assert (code, stdout) == (2, "")
        assert stderr == "error: --odd-variant neighbor applies only to --method ququint with odd n\n"

    def test_neighbor_accepted_on_odd_ququint_and_by_count(self, capsys):
        for argv in (
            ["verify", "--n", "5", "--method", "ququint"],
            ["grover", "--n", "5", "--method", "ququint", "--omega", "11111"],
            ["decompose", "--n", "5", "--method", "ququint"],
            ["count", "--n-range", "2..6"],
        ):
            code, stdout, _ = run_cli(capsys, *argv, "--odd-variant", "neighbor")
            assert code == 0 and stdout, argv


class TestGrover:
    def test_fig3_instance(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "grover", "--n", "5", "--omega", "10101", "--method", "ququint"
        )
        assert code == 0
        assert "iterations=4" in stdout
        assert "success_probability=0.999182" in stdout
        assert "two_particle_gate_count=24" in stdout
        assert "top_outcome=10101" in stdout

    def test_json_report(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "grover", "--n", "2", "--omega", "11", "--report", "json"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["successProbability"] == pytest.approx(1.0, abs=1e-12)
        assert payload["topOutcome"] == "11"

    def test_explicit_iterations(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "grover", "--n", "4", "--omega", "0110", "--iterations", "2",
            "--method", "qutrit",
        )
        assert code == 0
        assert "iterations=2" in stdout

    def test_omega_length_mismatch(self, capsys):
        code, _, stderr = run_cli(capsys, "grover", "--n", "5", "--omega", "101")
        assert code == 2
        assert "error" in stderr

    @pytest.mark.parametrize("n", [2049, 2150])
    def test_oversized_n_is_usage_error(self, capsys, n):
        code, _, stderr = run_cli(capsys, "grover", "--n", str(n), "--omega", "1" * n)
        assert code == 2
        assert stderr.startswith("error:")

    def test_qubit_beyond_size_limit_is_usage_error(self, capsys, monkeypatch):
        # n=14 fills the qubit ladder's 2^26 register; n=15 is refused
        # before anything is compiled
        monkeypatch.setattr("ququint.grover.decompose_cnz", lambda request: pytest.fail("compiled"))
        code, _, stderr = run_cli(
            capsys, "grover", "--n", "15", "--omega", "1" * 15, "--method", "qubit"
        )
        assert code == 2
        assert "supports n <= 14" in stderr

    @pytest.mark.parametrize("n,count", [(2, 4), (10, 52), (10, 10**9)])
    def test_iterations_beyond_one_period_are_usage_error(self, capsys, n, count):
        code, stdout, stderr = run_cli(
            capsys, "grover", "--n", str(n), "--omega", "1" * n,
            "--method", "qubit", "--iterations", str(count),
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: iterations must be at most")


class TestCount:
    def test_csv_rows(self, capsys):
        code, stdout, _ = run_cli(capsys, "count", "--n-range", "2..10", "--format", "csv")
        assert code == 0
        lines = stdout.strip().split("\n")
        assert len(lines) == 10
        assert lines[4] == "5,4,37,7,3,296,56,24,12.333"

    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys, "count", "--n-range", "2..4", "--format", "json", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["n"] for row in payload["rows"]] == [2, 3, 4]

    def test_unsupported_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["count", "--n-range", "2..4", "--format", "xml"])
        assert err.value.code == 2

    def test_bad_range(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code, _, stderr = run_cli(
            capsys, "count", "--n-range", "5..40", "--out", str(out)
        )
        assert code == 2
        assert not out.exists()

    def test_malformed_range(self, capsys):
        code, _, stderr = run_cli(capsys, "count", "--n-range", "2-4")
        assert code == 2


class TestParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(capsys, "count", "--n-range", "2..3")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert calls == [1]

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--method", "ququint"])
        assert err.value.code == 2
