"""Re-record the error fields of the qubit rows of ``verify_reports.json``
by exact arithmetic, independent of the sparse table.

Every gate of a qubit ladder, of its inversion form and of its T-dagger
mutants is H, T, T^dagger or a -1 controlled phase on two-level sites. So
every amplitude the circuit produces from a basis input is z / sqrt(2)^k
with z = c0 + c1 w + c2 w^2 + c3 w^3 in Z[w], w = e^(i pi/4), and one
exponent k shared by every row. This script runs each qubit case of
``test_decompose.CROSS_CHECK_CASES`` on such rows with integer
coefficients, reduces the worst amplitude error and leakage exactly (in
Z[sqrt 2] / 2^k), and rounds each to the nearest float once, through a
60-digit square root. It writes back only ``max_amplitude_error`` and
``max_leakage`` of the qubit rows, and checks that every other field, the
verdict included, agrees with the exact result. Not collected by pytest.

Run from the root of the checkout::

    PYTHONPATH=src python tests/record_verify_reports.py
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np

from test_decompose import CROSS_CHECK_CASES  # the script runs from tests/

from ququint.core import HADAMARD, STATE_TOL, LevelPairGate, TwoQuditCZ
from ququint.decompose import T_DAGGER, T_GATE

REPORTS = Path(__file__).resolve().parent / "verify_reports.json"
getcontext().prec = 60
SQRT2 = Decimal(2).sqrt()
BOUND = 2**40  # coefficients stay far from int64 overflow between gates


def times_w(c: np.ndarray) -> np.ndarray:
    """Coefficient rows (c0, c1, c2, c3) times w, using w^4 = -1."""
    return np.stack((-c[:, 3], c[:, 0], c[:, 1], c[:, 2]), axis=1)


def times_w_conj(c: np.ndarray) -> np.ndarray:
    """Coefficient rows times w^-1 = -w^3."""
    return np.stack((c[:, 1], c[:, 2], c[:, 3], -c[:, 0]), axis=1)


def run(register, gates, starts):
    """Exact rows ``(key, coefficients)`` and the shared exponent k of the
    basis inputs at flat indices ``starts`` after ``gates``; a key is
    input * register.size + flat index."""
    size, strides = register.size, register.strides
    assert set(register.dims) == {2}
    keys = np.arange(len(starts), dtype=np.int64) * size + starts
    coefs = np.zeros((len(starts), 4), dtype=np.int64)
    coefs[:, 0] = 1
    k = 0
    for gate in gates:
        if isinstance(gate, TwoQuditCZ):
            assert gate.phase == -1 and (gate.i, gate.j) == (1, 1), gate
            hit = ((keys // strides[gate.site_a]) % 2 == 1) & ((keys // strides[gate.site_b]) % 2 == 1)
            coefs[hit] *= -1
            continue
        assert isinstance(gate, LevelPairGate) and (gate.i, gate.j) == (0, 1), gate
        stride = strides[gate.site]
        up = (keys // stride) % 2 == 1
        if gate.u == T_GATE:
            coefs[up] = times_w(coefs[up])
        elif gate.u == T_DAGGER:
            coefs[up] = times_w_conj(coefs[up])
        elif gate.u == HADAMARD:
            # level 0 row c: +c at its key, +c at the partner; level 1 row c:
            # +c at the partner, -c at its key; then 1/sqrt(2) into k
            own = np.where(up[:, None], -coefs, coefs)
            partner = keys + np.where(up, -stride, stride)
            merged, owner = np.unique(np.concatenate((keys, partner)), return_inverse=True)
            total = np.zeros((len(merged), 4), dtype=np.int64)
            np.add.at(total, owner, np.concatenate((own, coefs)))
            live = total.any(axis=1)
            keys, coefs = merged[live], total[live]
            k += 1
            while k >= 2 and not (coefs % 2).any():
                coefs //= 2
                k -= 2
        else:
            raise ValueError(f"not an H, T or T^dagger gate: {gate}")
        assert np.abs(coefs).max() < BOUND
    return keys, coefs, k


def norm2(c) -> tuple[int, int]:
    """|z|^2 = A + B sqrt(2) of z = c0 + c1 w + c2 w^2 + c3 w^3."""
    c0, c1, c2, c3 = (int(x) for x in c)
    return c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3, c0 * c1 + c1 * c2 + c2 * c3 - c0 * c3


def sqrt2_power(k: int) -> np.ndarray:
    """sqrt(2)^k as coefficients (sqrt 2 = w - w^3)."""
    base = np.array([2 ** (k // 2), 0, 0, 0], dtype=np.int64)
    return np.array([0, base[0], 0, -base[0]], dtype=np.int64) if k % 2 else base


def exact_report(result, target):
    """Worst amplitude error and leakage, each as a 60-digit Decimal, with
    the verifier's inputs, expectations and 1.0 for a missed output."""
    emap = result.embedding
    n = emap.qubit_count
    assert not emap.bystander_sites
    # every input in counting order, one row of bits each, qubit 0 first
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    expected = bits.copy()
    if target is None:
        signs = np.where(bits.all(axis=1), -1, 1)
    else:
        controls = np.delete(bits, target, axis=1).all(axis=1)
        expected[controls, target] ^= 1
        signs = np.ones(len(bits), dtype=np.int64)
    starts, expects = emap.encode(bits), emap.encode(expected)
    register = result.circuit.register
    keys, coefs, k = run(register, result.circuit.gates, starts)
    owner, index = np.divmod(keys, register.size)
    hit = index == expects[owner]
    wanted = np.where(hit, signs[owner], 0)[:, None] * sqrt2_power(k)
    scale = Decimal(2) ** k
    worst = max(
        (Decimal(a) + Decimal(b) * SQRT2 for a, b in map(norm2, (coefs - wanted)[(coefs != wanted).any(axis=1)])),
        default=Decimal(0),
    )
    error = (worst / scale).sqrt()
    if not np.all(np.isin(np.arange(len(starts)), owner[hit])):
        error = max(error, Decimal(1))
    _, computational = emap.decode(index)
    leaks: dict[int, list[int]] = {}
    for row in np.flatnonzero(~computational):
        a, b = norm2(coefs[row])
        total = leaks.setdefault(int(owner[row]), [0, 0])
        total[0] += a
        total[1] += b
    leakage = max((Decimal(a) + Decimal(b) * SQRT2 for a, b in leaks.values()), default=Decimal(0)) / scale
    return error, leakage, len(starts)


def main() -> int:
    reports = json.loads(REPORTS.read_text(encoding="utf-8"))
    names = [name for name in reports if name.startswith("qubit ")]
    for name in names:
        result, target = CROSS_CHECK_CASES[name]()
        error, leakage, inputs = exact_report(result, target)
        row = reports[name]
        passed = error < Decimal(STATE_TOL) and leakage < Decimal(STATE_TOL)
        assert (row["passed"], row["inputs_checked"]) == (passed, inputs), name
        row["max_amplitude_error"], row["max_leakage"] = float(error), float(leakage)
        print(f"{name}: max_amplitude_error={row['max_amplitude_error']!r} max_leakage={row['max_leakage']!r}")
    lines = [f"  {json.dumps(name)}: {json.dumps(row)}" for name, row in reports.items()]
    REPORTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"re-recorded {len(names)} qubit rows of {REPORTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
