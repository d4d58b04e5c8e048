"""Two-particle gate budgets of Grover runs across the lowering methods.

Per-gate costs come from :func:`ququint.decompose.reported_count`; totals
multiply by two multi-controlled gates per iteration times the optimal
iteration count. For sizes where the circuits are small enough to build,
the table construction re-compiles them and refuses to emit numbers that
disagree with the actual gate tally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .decompose import METHODS, DecompositionRequest, decompose_cnz, reported_count
from .grover import auto_iterations

COLUMNS = (
    "n",
    "iterations",
    "qubit_per",
    "qutrit_per",
    "ququint_per",
    "qubit_total",
    "qutrit_total",
    "ququint_total",
    "ratio",
)

_MAX_N = 30
_CROSS_CHECK_MAX_N = 10


@dataclass(frozen=True)
class CountRow:
    n: int
    iterations: int
    qubit_per: int
    qutrit_per: int
    ququint_per: int
    qubit_total: int
    qutrit_total: int
    ququint_total: int
    ratio: float | None  # qubit/ququint, 3 decimals; None when ququint is 0


@dataclass(frozen=True)
class GateCountReport:
    odd_variant: str
    rows: tuple[CountRow, ...]


def count_table(n_min: int, n_max: int, odd_variant: str = "single") -> GateCountReport:
    """Gate-count rows for every n in [n_min, n_max].

    Args:
        n_min: Smallest qubit count, >= 2.
        n_max: Largest qubit count, <= 30.
        odd_variant: Layout of the last qubit for odd n (ququint method).

    Raises:
        ValueError: Range out of bounds or inverted.
        RuntimeError: A compiled circuit's tally disagrees with the closed
            form (internal consistency check for n <= 10).
    """
    if not 2 <= n_min <= n_max <= _MAX_N:
        raise ValueError(
            f"need 2 <= n_min <= n_max <= {_MAX_N}, got ({n_min}, {n_max})"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        iterations = auto_iterations(n)
        per = {method: reported_count(method, n, odd_variant) for method in METHODS}
        if n <= _CROSS_CHECK_MAX_N:
            # decompose_cnz refuses a circuit whose tally leaves the closed form
            for method in METHODS:
                decompose_cnz(DecompositionRequest(n, method, odd_variant))
        ratio = round(per["qubit"] / per["ququint"], 3) if per["ququint"] else None
        rows.append(
            CountRow(
                n=n,
                iterations=iterations,
                qubit_per=per["qubit"],
                qutrit_per=per["qutrit"],
                ququint_per=per["ququint"],
                qubit_total=iterations * 2 * per["qubit"],
                qutrit_total=iterations * 2 * per["qutrit"],
                ququint_total=iterations * 2 * per["ququint"],
                ratio=ratio,
            )
        )
    return GateCountReport(odd_variant, tuple(rows))


def emit_report(report: GateCountReport, format: str) -> bytes:
    """Serialize a report deterministically as ``csv`` or ``json`` bytes."""
    if format == "csv":
        lines = [",".join(COLUMNS)]
        for row in report.rows:
            ratio = "" if row.ratio is None else f"{row.ratio:.3f}"
            lines.append(
                f"{row.n},{row.iterations},{row.qubit_per},{row.qutrit_per},"
                f"{row.ququint_per},{row.qubit_total},{row.qutrit_total},"
                f"{row.ququint_total},{ratio}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = {
            "oddVariant": report.odd_variant,
            "rows": [
                {column: getattr(row, column) for column in COLUMNS}
                for row in report.rows
            ],
        }
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unsupported format {format!r}, expected 'csv' or 'json'")


def parse_report(data) -> GateCountReport:
    """Inverse of :func:`emit_report` for the JSON format."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    rows = []
    for entry in payload["rows"]:
        ratio = entry["ratio"]
        rows.append(
            CountRow(
                **{column: entry[column] for column in COLUMNS if column != "ratio"},
                ratio=None if ratio is None else float(ratio),
            )
        )
    return GateCountReport(payload["oddVariant"], tuple(rows))
