import numpy as np
import pytest

from ququint import (
    HADAMARD,
    CircuitDocument,
    EmbeddingError,
    LevelPairGate,
    QuditCircuit,
    QuditRegister,
    TwoQuditCZ,
    decompose_cnz_qubit,
    decompose_cnz_ququint,
    load_document,
    save_document,
)


def sample_document(target_qubit=None):
    result = decompose_cnz_ququint(5, "single")
    return CircuitDocument(result.circuit, result.embedding, target_qubit)


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self):
        text = save_document(sample_document())
        assert save_document(load_document(text)) == text

    def test_loaded_objects_match(self):
        doc = sample_document()
        loaded = load_document(save_document(doc))
        assert loaded.circuit.register == doc.circuit.register
        assert loaded.circuit.gates == doc.circuit.gates
        assert loaded.embedding == doc.embedding

    def test_target_qubit_round_trips(self):
        text = save_document(sample_document(target_qubit=4))
        assert '  },\n  "targetQubit": 4,\n  "gates": [' in text
        loaded = load_document(text)
        assert loaded.target_qubit == 4
        assert save_document(loaded) == text
        assert "targetQubit" not in save_document(sample_document())

    def test_without_embedding(self):
        reg = QuditRegister((5, 5))
        doc = CircuitDocument(QuditCircuit(reg, [TwoQuditCZ(0, 1, 3, 4)]))
        text = save_document(doc)
        loaded = load_document(text)
        assert loaded.embedding is None
        assert save_document(loaded) == text

    def test_empty_circuit(self):
        doc = CircuitDocument(QuditCircuit(QuditRegister((3, 3))))
        text = save_document(doc)
        assert '"gates": []' in text
        assert load_document(text).circuit.gates == []

    def test_qubit_method_document(self):
        result = decompose_cnz_qubit(4)
        text = save_document(CircuitDocument(result.circuit, result.embedding))
        assert save_document(load_document(text)) == text

    def test_irrational_entries_survive(self):
        gate = LevelPairGate(0, 1, 3, HADAMARD)
        doc = CircuitDocument(QuditCircuit(QuditRegister((5,)), [gate]))
        loaded = load_document(save_document(doc))
        assert loaded.circuit.gates[0].u.alpha == HADAMARD.alpha

    def test_negative_zero_is_normalized(self):
        gate = TwoQuditCZ(0, 1, 0, 0, complex(-1.0, -0.0))
        doc = CircuitDocument(QuditCircuit(QuditRegister((2, 2)), [gate]))
        text = save_document(doc)
        assert "-0" not in text.replace("-0.", "x")  # only -0.xyz floats allowed
        assert save_document(load_document(text)) == text

    def test_general_phase_round_trips(self):
        phase = np.exp(1j * 0.12345)
        gate = TwoQuditCZ(0, 1, 2, 2, phase)
        doc = CircuitDocument(QuditCircuit(QuditRegister((3, 3)), [gate]))
        loaded = load_document(save_document(doc))
        assert loaded.circuit.gates[0].phase == complex(phase)


class TestStrictLoading:
    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            load_document("{not json")

    def test_unknown_top_level_field(self):
        text = save_document(sample_document())
        bad = text.replace('"version": 1,', '"version": 1,\n  "comment": "hi",')
        with pytest.raises(ValueError, match="unknown fields"):
            load_document(bad)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            load_document('{"version": 1, "dims": [5]}')

    def test_unknown_version_rejected(self):
        text = save_document(sample_document())
        with pytest.raises(ValueError, match="version"):
            load_document(text.replace('"version": 1', '"version": 2'))

    def test_target_qubit_needs_embedding(self):
        with pytest.raises(ValueError, match="embedding"):
            load_document('{"version": 1, "dims": [5], "targetQubit": 0, "gates": []}')

    @pytest.mark.parametrize("value", ["5", "-1", "true", "null"])
    def test_bad_target_qubit_rejected(self, value):
        text = save_document(sample_document(target_qubit=4))
        with pytest.raises(ValueError, match="target"):
            load_document(text.replace('"targetQubit": 4', f'"targetQubit": {value}'))

    def test_non_integer_version_rejected(self):
        with pytest.raises(ValueError):
            load_document('{"version": "1", "dims": [5], "gates": []}')

    def test_unknown_gate_kind(self):
        with pytest.raises(ValueError, match="gate kind"):
            load_document(
                '{"version": 1, "dims": [5], "gates": [{"swap": {"site": 0}}]}'
            )

    def test_unknown_gate_field(self):
        text = (
            '{"version": 1, "dims": [5, 5], "gates": '
            '[{"cz": {"siteA": 0, "siteB": 1, "i": 0, "j": 0, '
            '"phase": [-1, 0], "label": "x"}}]}'
        )
        with pytest.raises(ValueError, match="unknown fields"):
            load_document(text)

    def test_gate_invariants_rechecked(self):
        # non-unitary matrix must be rejected by the gate's own validation
        text = (
            '{"version": 1, "dims": [5], "gates": '
            '[{"levelpair": {"site": 0, "i": 0, "j": 1, '
            '"u": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}}]}'
        )
        with pytest.raises(ValueError):
            load_document(text)

    def test_level_out_of_range_rejected(self):
        text = (
            '{"version": 1, "dims": [3, 3], "gates": '
            '[{"cz": {"siteA": 0, "siteB": 1, "i": 0, "j": 4, "phase": [-1, 0]}}]}'
        )
        with pytest.raises(ValueError):
            load_document(text)

    def test_unknown_slot_rejected(self):
        text = (
            '{"version": 1, "dims": [5], "embedding": '
            '{"qubitCount": 1, "assignments": [[0, "c"]]}, "gates": []}'
        )
        with pytest.raises(ValueError, match="slot"):
            load_document(text)

    def test_qubit_count_mismatch(self):
        text = (
            '{"version": 1, "dims": [5], "embedding": '
            '{"qubitCount": 2, "assignments": [[0, "single"]]}, "gates": []}'
        )
        with pytest.raises(ValueError, match="qubitCount"):
            load_document(text)

    def test_embedding_without_qubits_rejected(self):
        # an empty bitstring passed the phase gate's all-ones test vacuously
        text = (
            '{"version": 1, "dims": [2, 2], "embedding": '
            '{"qubitCount": 0, "assignments": []}, "gates": []}'
        )
        with pytest.raises(EmbeddingError, match="at least one qubit"):
            load_document(text)

    def test_embedding_register_mismatch(self):
        reg_a = QuditRegister((5,))
        reg_b = QuditRegister((5, 5))
        from ququint import EmbeddingMap, QubitSlot

        emap = EmbeddingMap(reg_b, ((0, QubitSlot.A), (0, QubitSlot.B)))
        with pytest.raises(ValueError):
            CircuitDocument(QuditCircuit(reg_a), emap)
