"""Independent oracles for the benchmark's correctness checks.

Everything here is written out from the paper's formulas. Nothing is
imported from ququint, so a fault in the library cannot hide itself by
also corrupting the answer it is checked against.
"""

from __future__ import annotations

import math

METHODS = ("ququint", "qutrit", "qubit")
PROB_TOL = 1e-9
LEAK_TOL = 1e-10


def iterations(n: int) -> int:
    """Optimal Grover iteration count floor(pi / (4 asin 2^(-n/2))), >= 1."""
    return max(1, math.floor(math.pi / (4.0 * math.asin(2.0 ** (-n / 2)))))


def success_probability(n: int, k: int) -> float:
    """Analytic success probability sin^2((2k+1) asin 2^(-n/2))."""
    return math.sin((2 * k + 1) * math.asin(2.0 ** (-n / 2))) ** 2


def cost(method: str, n: int, odd_variant: str = "single") -> int:
    """Two-particle gates of one n-qubit controlled phase (the paper's table).

    ququint: 0 at n=2, n-3 for even n, n-2 (single) or n-1 (neighbor) for
    odd n; qutrit: 2n-3; qubit: 1 at n=2, 12n-23 otherwise; the exact
    reference backend compiles nothing and costs 0.
    """
    if method == "reference":
        return 0
    if method == "qubit":
        return 1 if n == 2 else 12 * n - 23
    if method == "qutrit":
        return 2 * n - 3
    if method == "ququint":
        if n == 2:
            return 0
        if n % 2 == 0:
            return n - 3
        return n - 2 if odd_variant == "single" else n - 1
    raise ValueError(f"unknown method {method!r}")


def grover_bill(method: str, n: int, odd_variant: str = "single") -> int:
    """Two-particle gates of a full search: two controlled phases per iteration."""
    return 2 * iterations(n) * cost(method, n, odd_variant)


def expected_output(bits: str, target: int | None) -> tuple[str, int]:
    """Basis output and sign of the phase gate (target None) or of the
    inversion of qubit ``target`` controlled by all other qubits."""
    if target is None:
        return bits, (-1 if set(bits) == {"1"} else 1)
    controls = all(b == "1" for q, b in enumerate(bits) if q != target)
    if not controls:
        return bits, 1
    flipped = "0" if bits[target] == "1" else "1"
    return bits[:target] + flipped + bits[target + 1 :], 1


def layout(method: str, n: int, odd_variant: str = "single") -> tuple[tuple[int, ...], list[tuple[int, str]]]:
    """Documented register dims and (site, slot) per qubit of each method.

    ququint: qubits 2k, 2k+1 on five-level site k as slots a, b; an odd
    last qubit sits alone ("single") or on slot a next to a bystander
    ("neighbor"). qutrit: one qubit per three-level site. qubit: one qubit
    per two-level site, then n-2 work sites.
    """
    if method == "ququint":
        assign = [(q // 2, "a" if q % 2 == 0 else "b") for q in range(n - n % 2)]
        sites = n // 2
        if n % 2:
            assign.append((sites, "single" if odd_variant == "single" else "a"))
            sites += 1
        return (5,) * sites, assign
    if method == "qutrit":
        return (3,) * n, [(q, "single") for q in range(n)]
    if method == "qubit":
        return (2,) * (n + max(n - 2, 0)), [(q, "single") for q in range(n)]
    raise ValueError(f"unknown method {method!r}")


def bystander_sites(assign: list[tuple[int, str]]) -> list[int]:
    """Sites that host slot a but not slot b of this circuit."""
    slots: dict[int, set[str]] = {}
    for site, slot in assign:
        slots.setdefault(site, set()).add(slot)
    return sorted(site for site, s in slots.items() if s == {"a"})


def embedded_index(bits: str, bystander: int, dims, assign) -> int:
    """Flat amplitude index of a qubit bitstring (site 0 most significant)."""
    levels = [0] * len(dims)
    for (site, slot), bit in zip(assign, bits):
        levels[site] += 2 * int(bit) if slot == "a" else int(bit)
    for site in bystander_sites(assign):
        levels[site] += bystander
    index = 0
    for level, dim in zip(levels, dims):
        index = index * dim + level
    return index


def count_rows(n_min: int, n_max: int, odd_variant: str = "single") -> list[dict]:
    """The per-method cost comparison table, one dict per n."""
    rows = []
    for n in range(n_min, n_max + 1):
        k = iterations(n)
        per = {m: cost(m, n, odd_variant) for m in METHODS}
        rows.append(
            {
                "n": n,
                "iterations": k,
                "qubit_per": per["qubit"],
                "qutrit_per": per["qutrit"],
                "ququint_per": per["ququint"],
                "qubit_total": 2 * k * per["qubit"],
                "qutrit_total": 2 * k * per["qutrit"],
                "ququint_total": 2 * k * per["ququint"],
                "ratio": round(per["qubit"] / per["ququint"], 3) if per["ququint"] else None,
            }
        )
    return rows


def check_grover(report: dict, n: int, omega: str, method: str, odd_variant: str = "single") -> list[str]:
    """Problems with one search outcome; an empty list means it is correct.

    ``report`` uses the CLI's JSON keys (iterations, successProbability,
    topOutcome, twoParticleGateCount, leakage, distribution).
    """
    problems = []
    k = iterations(n)
    if report["iterations"] != k:
        problems.append(f"iterations {report['iterations']} != {k}")
    p = success_probability(n, k)
    if abs(report["successProbability"] - p) > PROB_TOL:
        problems.append(f"success {report['successProbability']!r} != {p!r}")
    if report["topOutcome"] != omega:
        problems.append(f"top outcome {report['topOutcome']} != {omega}")
    other = (1.0 - p) / (2**n - 1)
    dist = report["distribution"]
    if len(dist) != 2**n:
        problems.append(f"{len(dist)} outcomes, expected {2**n}")
    for label, q in dist.items():
        want = p if label == omega else other
        if abs(q - want) > PROB_TOL:
            problems.append(f"P({label}) = {q!r}, expected {want!r}")
            break
    if not report["leakage"] <= LEAK_TOL:
        problems.append(f"leakage {report['leakage']!r}")
    bill = grover_bill(method, n, odd_variant)
    if report["twoParticleGateCount"] != bill:
        problems.append(f"gate bill {report['twoParticleGateCount']} != {bill}")
    return problems


def self_check() -> None:
    """Reproduce the flagship search from the formulas alone: n=5 on the
    single-qubit ququint layout takes 4 iterations, succeeds with
    probability 0.99918 and spends 24 two-particle gates."""
    k = iterations(5)
    p = success_probability(5, k)
    bill = grover_bill("ququint", 5)
    if (k, round(p, 5), bill) != (4, 0.99918, 24):
        raise AssertionError(f"flagship oracle gives k={k} p={p} gates={bill}")
