import dataclasses
import json

import pytest

from ququint import (
    GateCountReport,
    auto_iterations,
    count_table,
    decompose_cnz,
    emit_report,
    reported_count,
)
from ququint import counts
from ququint.decompose import METHODS


class TestCountTable:
    def test_n5_row(self):
        report = count_table(5, 5)
        row = report.rows[0]
        assert (row.qubit_per, row.qutrit_per, row.ququint_per) == (37, 7, 3)
        assert (row.qubit_total, row.qutrit_total, row.ququint_total) == (296, 56, 24)
        assert row.iterations == 4
        assert row.ratio == 12.333

    def test_n2_row_edge_cases(self):
        row = count_table(2, 2).rows[0]
        assert (row.qubit_per, row.qutrit_per, row.ququint_per) == (1, 1, 0)
        assert row.iterations == 1
        assert row.ratio is None

    def test_totals_identity(self):
        for row in count_table(2, 30).rows:
            assert row.qubit_total == row.iterations * 2 * row.qubit_per
            assert row.qutrit_total == row.iterations * 2 * row.qutrit_per
            assert row.ququint_total == row.iterations * 2 * row.ququint_per

    def test_ratio_shrinks_toward_twelve_within_each_parity(self):
        # (12n-23)/(n-3) = 12 + 13/(n-3) and (12n-23)/(n-2) = 12 + 1/(n-2)
        # are both strictly decreasing, so the advantage ratio falls toward
        # 12 along each parity class (and zigzags across classes).
        rows = count_table(4, 30).rows
        evens = [row.ratio for row in rows if row.n % 2 == 0]
        odds = [row.ratio for row in rows if row.n % 2 == 1]
        for seq in (evens, odds):
            assert all(b < a for a, b in zip(seq, seq[1:]))
            assert all(r > 12 for r in seq)

    def test_matches_constructed_circuits(self):
        # count_table cross-checks internally for n <= 14; also assert here
        for variant in ("single", "neighbor"):
            for row in count_table(2, 10, variant).rows:
                assert row.ququint_per == reported_count("ququint", row.n, variant)
                assert row.iterations == auto_iterations(row.n)

    @pytest.mark.parametrize("n", [9, 11, 15])
    def test_unknown_variant_rejected(self, n):
        # n=9 and n=11 are compiled and cross-checked, n=15 only looked up
        with pytest.raises(ValueError, match="odd variant"):
            count_table(n, n, "bogus")

    @pytest.mark.parametrize("variant", ["single", "neighbor"])
    def test_rows_up_to_the_sweep_limit_are_compiled(self, monkeypatch, variant):
        compiled = []

        def tally(request):
            compiled.append((request.n, request.method))
            return decompose_cnz(request)

        monkeypatch.setattr(counts, "decompose_cnz", tally)
        count_table(2, 30, variant)
        assert compiled == [(n, m) for n in range(2, 15) for m in METHODS]

    def test_neighbor_variant_changes_odd_rows(self):
        single = {r.n: r.ququint_per for r in count_table(2, 9).rows}
        neighbor = {r.n: r.ququint_per for r in count_table(2, 9, "neighbor").rows}
        for n in range(2, 10):
            if n % 2 and n > 2:
                assert neighbor[n] == single[n] + 1
            else:
                assert neighbor[n] == single[n]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            count_table(1, 5)
        with pytest.raises(ValueError):
            count_table(5, 31)
        with pytest.raises(ValueError):
            count_table(6, 5)


class TestEmitReport:
    def test_csv_layout(self):
        data = emit_report(count_table(2, 10), "csv").decode()
        lines = data.strip().split("\n")
        assert lines[0] == (
            "n,iterations,qubit_per,qutrit_per,ququint_per,"
            "qubit_total,qutrit_total,ququint_total,ratio"
        )
        assert len(lines) == 10  # header + 9 data rows
        assert lines[4] == "5,4,37,7,3,296,56,24,12.333"

    def test_empty_report_is_header_only(self):
        data = emit_report(GateCountReport("single", ()), "csv").decode()
        assert data.count("\n") == 1
        assert data.startswith("n,iterations,")

    def test_single_row_is_single_line(self):
        data = emit_report(count_table(4, 4), "csv").decode()
        assert len(data.strip().split("\n")) == 2

    def test_n2_ratio_cell_is_empty(self):
        data = emit_report(count_table(2, 2), "csv").decode()
        assert data.strip().split("\n")[1].endswith(",0,")

    def test_json_round_trip(self):
        report = count_table(2, 12, "neighbor")
        payload = json.loads(emit_report(report, "json"))
        assert payload["oddVariant"] == report.odd_variant
        assert payload["rows"] == [dataclasses.asdict(row) for row in report.rows]

    def test_deterministic_bytes(self):
        assert emit_report(count_table(2, 20), "csv") == emit_report(
            count_table(2, 20), "csv"
        )
        assert emit_report(count_table(2, 20), "json") == emit_report(
            count_table(2, 20), "json"
        )

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            emit_report(count_table(2, 3), "xml")
