#!/usr/bin/env python3
"""Searching 32 items for the hidden string 10101.

Four iterations, each containing two multi-controlled gates (one in the
oracle, one in the diffusion reflection). The same search runs on every
backend; only the register shape and the two-particle gate bill change.
"""

import math

from ququint import GroverSpec, auto_iterations, run_grover

n, omega = 5, "10101"
print(f"searching {2**n} items for {omega}")
print("optimal iterations:", auto_iterations(n))
theta = math.asin(2 ** (-n / 2))
print(f"analytic success probability: {math.sin(9 * theta) ** 2:.6f}\n")

print(f"{'backend':10s} {'success':>10s} {'top':>7s} {'2-particle gates':>17s} {'leakage':>9s}")
for method in ("reference", "qubit", "qutrit", "ququint"):
    report = run_grover(GroverSpec(n, omega, method))
    print(
        f"{method:10s} {report.success_probability:10.6f} {report.top_outcome:>7s} "
        f"{report.two_particle_gate_count:17d} {report.leakage:9.1e}"
    )

# the distribution is sharply peaked on the marked item; the search treats
# every other outcome alike, so they share one probability
report = run_grover(GroverSpec(n, omega, "ququint"))
(other,) = {p for outcome, p in report.distribution.items() if outcome != omega}
print("\noutcomes on the ququint backend:")
print(f"  {omega}  {report.distribution[omega]:.6f}  <-- marked")
print(f"  each of the other {2**n - 1}  {other:.6f}")

# iterations matter: the success probability follows sin^2((2k+1) theta)
print("\nsuccess probability vs iteration count (reference backend):")
for k in range(1, 7):
    report = run_grover(GroverSpec(n, omega, "reference", iterations=k))
    print(f"  k={k}: simulated {report.success_probability:.6f} "
          f"analytic {math.sin((2 * k + 1) * theta) ** 2:.6f}")
