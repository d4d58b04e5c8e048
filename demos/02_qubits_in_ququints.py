#!/usr/bin/env python3
"""Two qubits in one five-level site.

Levels 0..3 of a ququint hold a qubit pair (level = 2a + b) and level 4
stays free as working space. This script walks through encoding, lifted
one-qubit gates, the free intra-site controlled-Z, and read-out with its
leakage column.
"""

import numpy as np

from ququint import (
    HADAMARD,
    PAULI_X,
    StateVector,
    default_embedding,
    embed_basis_state,
    gate_matrix,
    lift_single_qubit_gate,
)
from ququint.embedding import intra_ququint_cz

emap = default_embedding(2)
print("two qubits on", emap.register.dims, "->", emap.assignments)

# encoding: bit pair (a, b) lands on level 2a + b
for bits in ("00", "01", "10", "11"):
    print(f"|{bits}> encodes as level {embed_basis_state(bits, emap)[0]}")

# --- one-qubit gates lift to commuting level-pair gates ------------------
# Acting on qubit a means mixing levels {0,2} and {1,3}; acting on qubit b
# means mixing {0,1} and {2,3}. Level 4 is never touched.
for qubit, name in ((0, "a"), (1, "b")):
    gates = lift_single_qubit_gate(PAULI_X, qubit, emap)
    print(f"\nX on qubit {name} lifts to pairs:", [(g.i, g.j) for g in gates])

state = StateVector.basis_state(emap.register, (0,))
m = np.eye(5, dtype=complex)
for g in lift_single_qubit_gate(HADAMARD, 1, emap):
    m = gate_matrix(g, emap.register) @ m
print("\nH on qubit b maps level 0 to:", np.round(m @ state.amplitudes, 6))

# --- entangling the co-located pair costs no interaction at all ----------
cz = intra_ququint_cz(0, emap)
print("\nintra-site CZ is the single-site matrix:")
print(np.real(gate_matrix(cz, emap.register)).astype(int))

# --- read-out decodes levels back to bits --------------------------------
# decode gives each register index's bitstring and whether it lies on the
# computational levels; probability on any other level is leakage
outcome, computational = emap.decode(np.arange(emap.register.size))
print()
for level in range(emap.register.size):
    reads = format(int(outcome[level]), "02b") if computational[level] else "leakage"
    print(f"level {level} reads out as {reads}")

# --- odd qubit counts get one extra site ---------------------------------
for variant in ("single", "neighbor"):
    emap5 = default_embedding(5, variant)
    print(f"\nfive qubits, {variant!r} layout:", emap5.assignments)
    if emap5.bystander_sites:
        print("  bystander slot to preserve on site", emap5.bystander_sites[0])
