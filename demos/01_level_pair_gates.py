#!/usr/bin/env python3
"""Tour of the gate algebra: level-pair unitaries and two-qudit phases.

Every circuit in this package is built from just two gate kinds. This
script shows what they do to a five-level site (a "ququint") and to a pair
of them, at both the state-vector and the matrix level.
"""

import numpy as np

from ququint import (
    HADAMARD,
    PAULI_Z,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    StateVector,
    TwoQuditCZ,
    circuit_unitary,
    gate_matrix,
    measure_all,
)
from ququint.core import apply_level_pair, apply_two_qudit_cz

one_ququint = QuditRegister((5,))
two_ququints = QuditRegister((5, 5))

# --- a phase gate acting inside one site --------------------------------
# Z on the level pair (0, 3) leaves everything alone except level 3,
# which picks up a minus sign.
z03 = LevelPairGate(0, 0, 3, PAULI_Z)
print("Z on levels (0,3) of a ququint:")
print(np.real(gate_matrix(z03, one_ququint)).astype(int))

state = StateVector.basis_state(one_ququint, (3,))
print("\n|3> after the gate:", apply_level_pair(state, z03).amplitudes)

# --- a Hadamard window --------------------------------------------------
# The same mechanism embeds any 2x2 unitary. A Hadamard on levels (3, 4)
# splits |3> into an equal superposition of |3> and |4> and ignores the
# other levels entirely.
h34 = LevelPairGate(0, 3, 4, HADAMARD)
print("\nH on levels (3,4) applied to |3>:", apply_level_pair(state, h34).amplitudes)
print("H on levels (3,4) applied to |1>:",
      apply_level_pair(StateVector.basis_state(one_ququint, (1,)), h34).amplitudes)

# --- the only two-qudit primitive ---------------------------------------
# The controlled phase multiplies the amplitude of exactly one joint level
# pair by -1. Here: site 0 at level 3 and site 1 at level 1.
cz = TwoQuditCZ(0, 1, 3, 1)
print("\nCZ(3<->1) on |31>:",
      apply_two_qudit_cz(StateVector.basis_state(two_ququints, (3, 1)), cz)
      .amplitudes[two_ququints.index((3, 1))])
print("CZ(3<->1) on |30> leaves it alone:",
      apply_two_qudit_cz(StateVector.basis_state(two_ququints, (3, 0)), cz)
      .amplitudes[two_ququints.index((3, 0))])

# --- composing gates: the controlled level swap -------------------------
# Conjugating the controlled phase with Hadamards on the target's levels
# (3, 4) turns it into a controlled swap of those levels; this is the
# workhorse of the ladder decompositions.
swap = QuditCircuit(two_ququints, [
    LevelPairGate(1, 3, 4, HADAMARD),
    TwoQuditCZ(0, 1, 3, 4),
    LevelPairGate(1, 3, 4, HADAMARD),
])
m = circuit_unitary(swap)
print("\nH CZ H sends |33> to:", two_ququints.label(int(np.argmax(np.abs(m[:, two_ququints.index((3, 3))])))))
print("H CZ H sends |23> to:", two_ququints.label(int(np.argmax(np.abs(m[:, two_ququints.index((2, 3))])))))

# --- measurement --------------------------------------------------------
amps = np.zeros(5, dtype=complex)
amps[0] = amps[4] = 1 / np.sqrt(2)
cat = StateVector(one_ququint, amps)
print("\nexact probabilities of (|0>+|4>)/sqrt(2):", cat.probabilities())
print("1000 shots with seed 7:", measure_all(cat, seed=7, shots=1000))
