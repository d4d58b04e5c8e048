import json
import time

import pytest

from ququint import load_document
from ququint.cli import main


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

    def test_sampled_mode_on_large_n(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify", "--n", "9", "--method", "qutrit")
        assert code == 0
        assert "inputs_checked=64" in stdout

    @pytest.mark.parametrize("n,method", [("100000000000000000000", "qutrit"), ("14", "qubit")])
    def test_oversized_n_refused_before_compiling(self, capsys, monkeypatch, n, method):
        monkeypatch.setattr("ququint.cli.decompose_cnz", lambda request: pytest.fail("compiled"))
        code, stdout, stderr = run_cli(capsys, "verify", "--n", n, "--method", method)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1

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

    def test_qubit_beyond_size_limit_is_usage_error(self, capsys):
        # the qubit backend's sparse table takes about half a minute at
        # n=12; n=13 is refused before anything is compiled
        code, _, stderr = run_cli(
            capsys, "grover", "--n", "13", "--omega", "1" * 13, "--method", "qubit"
        )
        assert code == 2
        assert "supports n <= 12" in stderr

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
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["decompose", "--method", "ququint"])
        assert err.value.code == 2
