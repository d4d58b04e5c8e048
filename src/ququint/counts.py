"""Two-particle gate budgets of Grover runs across the lowering methods.

Per-gate costs come from :func:`ququint.decompose.reported_count`; totals
multiply by two multi-controlled gates per iteration times the optimal
iteration count. For sizes where the circuits are small enough to build,
the table construction re-compiles them and refuses to emit numbers that
disagree with the actual gate tally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .decompose import (
    _MAX_N,
    _MAX_SWEEP_N,
    METHODS,
    DecompositionRequest,
    decompose_cnz,
    reported_count,
)
from .grover import auto_iterations


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


COLUMNS = tuple(field.name for field in fields(CountRow))


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
            form (internal consistency check for n <= 14, the sizes whose
            registers every method can build).
    """
    if not 2 <= n_min <= n_max <= _MAX_N:
        raise ValueError(
            f"need 2 <= n_min <= n_max <= {_MAX_N}, got ({n_min}, {n_max})"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        iterations = auto_iterations(n)
        per = {method: reported_count(method, n, odd_variant) for method in METHODS}
        if n <= _MAX_SWEEP_N:
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
            cells = (getattr(row, column) for column in COLUMNS)
            lines.append(",".join(
                "" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)
                for v in cells
            ))
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
