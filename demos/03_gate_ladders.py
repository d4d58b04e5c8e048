#!/usr/bin/env python3
"""Lowering the n-qubit controlled phase to two-particle gates.

The gate flips the sign of |1...1> and nothing else. Three strategies
compile it; this script prints the compiled sequences, their costs, and
runs the exhaustive basis sweep that proves each circuit exact.
"""

from ququint import (
    DecompositionRequest,
    LevelPairGate,
    decompose_cnz,
    decompose_cnz_qubit,
    decompose_cnz_ququint,
    decompose_cnz_qutrit,
    reported_count,
    verify_decomposition,
)
from ququint.decompose import to_cnx


def describe(gate):
    if isinstance(gate, LevelPairGate):
        return f"U({gate.i},{gate.j})@site{gate.site}"
    return f"CZ[{gate.i}<->{gate.j}]@sites({gate.site_a},{gate.site_b})"


# --- the five-qubit ladder, the smallest case with a working level -------
result = decompose_cnz_ququint(5, "single")
print("five qubits on three ququints:")
for gate in result.circuit.gates:
    print("  ", describe(gate))
print("two-particle gates:", result.two_particle_gate_count)

# The first controlled swap parks "first four bits all 1" in level 4 of the
# middle site, the central phase fires against the lone fifth qubit, and
# the swap is undone. Verify exactness over all 32 basis inputs:
report = verify_decomposition(result)
print(f"sweep: {report.inputs_checked} inputs, amplitude error "
      f"{report.max_amplitude_error:.2e}, leakage {report.max_leakage:.2e}")

# --- costs across methods and sizes ---------------------------------------
print("\ntwo-particle gate costs:")
print("  n   ququint  qutrit  qubit(+work sites)")
for n in range(2, 11):
    qq = decompose_cnz_ququint(n).two_particle_gate_count
    qt = decompose_cnz_qutrit(n).two_particle_gate_count
    qb = decompose_cnz_qubit(n)
    print(f"  {n:2d}  {qq:7d}  {qt:6d}  {qb.two_particle_gate_count:5d} (+{qb.ancilla_systems})")

# closed forms hold far beyond what we bother to simulate
print("\nat n=30:",
      reported_count('ququint', 30), "vs", reported_count('qutrit', 30),
      "vs", reported_count('qubit', 30))

# --- every method passes the same sweep -----------------------------------
print("\nexhaustive verification, n=7:")
for method in ("ququint", "qutrit", "qubit"):
    result = decompose_cnz(DecompositionRequest(7, method))
    report = verify_decomposition(result)
    status = "ok" if report.passed() else "FAILED"
    print(f"  {method:8s} count={result.two_particle_gate_count:3d} "
          f"err={report.max_amplitude_error:.2e} {status}")

# --- the inversion flavor --------------------------------------------------
# Hadamards around the target turn the phase gate into a controlled NOT;
# the two-particle cost is unchanged.
inv = to_cnx(decompose_cnz_ququint(4), target_qubit=3)
report = verify_decomposition(inv, target_qubit=3)
print("\ncontrolled inversion on qubit 3 of 4:",
      inv.two_particle_gate_count, "two-particle gates,",
      f"err={report.max_amplitude_error:.2e}")
