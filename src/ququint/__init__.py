"""Qudit circuits with ququint-embedded qubits.

A dense state-vector simulator over mixed-radix registers (the reference the
tests check against; the CLI runs circuits on a sparse table of live rows), a
compiler that lowers multi-controlled gates to two-particle gate ladders
(five-level, three-level, and plain-qubit backends), and a Grover pipeline
with gate-count reporting.
"""

from .core import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DimensionTooLargeError,
    GateError,
    LevelPairGate,
    QuditCircuit,
    QuditGate,
    QuditRegister,
    RegisterMismatchError,
    StateVector,
    TwoLevelUnitary,
    TwoQuditCZ,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    gate_matrix,
    phase_shift,
)
from .counts import CountRow, GateCountReport, count_table, emit_report
from .decompose import (
    DecompositionRequest,
    DecompositionResult,
    VerificationReport,
    build_cx,
    decompose_cnz,
    decompose_cnz_qubit,
    decompose_cnz_ququint,
    decompose_cnz_qutrit,
    reported_count,
    verify_decomposition,
)
from .embedding import (
    EmbeddingError,
    EmbeddingMap,
    QubitSlot,
    default_embedding,
    embed_basis_state,
    lift_single_qubit_gate,
)
from .grover import (
    GroverReport,
    GroverSpec,
    auto_iterations,
    run_grover,
)
from .serialize import CircuitDocument, load_document, save_document

__version__ = "0.1.0"

__all__ = [
    "HADAMARD",
    "PAULI_X",
    "PAULI_Z",
    "CircuitDocument",
    "CountRow",
    "DecompositionRequest",
    "DecompositionResult",
    "DimensionTooLargeError",
    "EmbeddingError",
    "EmbeddingMap",
    "GateCountReport",
    "GateError",
    "GroverReport",
    "GroverSpec",
    "LevelPairGate",
    "QubitSlot",
    "QuditCircuit",
    "QuditGate",
    "QuditRegister",
    "RegisterMismatchError",
    "StateVector",
    "TwoLevelUnitary",
    "TwoQuditCZ",
    "VerificationReport",
    "apply_circuit",
    "apply_gate",
    "auto_iterations",
    "build_cx",
    "circuit_unitary",
    "count_table",
    "decompose_cnz",
    "decompose_cnz_qubit",
    "decompose_cnz_ququint",
    "decompose_cnz_qutrit",
    "default_embedding",
    "embed_basis_state",
    "emit_report",
    "gate_matrix",
    "lift_single_qubit_gate",
    "load_document",
    "phase_shift",
    "reported_count",
    "run_grover",
    "save_document",
    "verify_decomposition",
]
