"""Document fuzzer: random JSON and one-field mutations of valid documents.

Every run of ``verify --circuit --exhaustive`` and ``simulate --input
--probs`` on such a file must end with exit 0, 1 or 2, and a 2 must carry
an ``error:`` line on stderr. An exception escaping ``main`` (a traceback)
fails the test. Gate edits that keep a document valid load, so they reach
both commands; there the verdict must match a dense check of the circuit's
unitary. Examples are derandomized by the profile in conftest.py.
"""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ququint import (
    CircuitDocument,
    DecompositionRequest,
    circuit_unitary,
    decompose_cnz,
    load_document,
    save_document,
)
from ququint.cli import main
from ququint.core import STATE_TOL


def valid_document(n, method, odd_variant="single", target=None):
    result = decompose_cnz(DecompositionRequest(n, method, odd_variant, target))
    doc = CircuitDocument(result.circuit, result.embedding, target)
    return json.loads(save_document(doc)), n


# small registers only: a mutated size still allocates at most a few MiB
BASES = [
    valid_document(4, "ququint"),
    valid_document(3, "ququint", "neighbor"),
    valid_document(5, "ququint", target=2),
    valid_document(3, "qutrit", target=1),
    valid_document(3, "qubit"),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

# far outside every field's range, or just past a level, site or count
OUT_OF_RANGE = st.sampled_from([-1, -(2**63), 2**31, 2**63, 10**30]) | st.integers(6, 12)


@st.composite
def mutated_documents(draw):
    """A valid document with one field dropped, retyped, put out of range,
    or one unknown key added to the nearest object. The field is found by
    a random descent that stops at each level with odds 1 in 4, so the few
    top-level fields are hit about as often as the many gate entries."""
    base, n = draw(st.sampled_from(BASES))
    doc = json.loads(json.dumps(base))
    parent, node, nearest = None, doc, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and draw(st.integers(0, 3)) == 0:
            break
        parent = node
        if isinstance(node, dict):
            nearest = node
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        node = node[key]
    kinds = ["retype", "add"] + (["drop"] if isinstance(parent, dict) else [])
    if type(node) is int:
        kinds.append("range")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(json_values.filter(lambda v: type(v) is not type(node)))
    elif kind == "range":
        parent[key] = draw(OUT_OF_RANGE)
    else:
        target = node if isinstance(node, dict) else nearest
        target[draw(st.text(min_size=1, max_size=8))] = draw(json_values)
    return doc, n


def level_swaps(gates):
    """``(position, cz level key)`` of each H on a pair (k, l), controlled
    phase naming that site at l, and the same H again: a controlled level
    swap as the compilers write it."""
    found = []
    for g in range(len(gates) - 2):
        h, cz, again = gates[g : g + 3]
        if "levelpair" in h and "cz" in cz and again == h:
            h, cz = h["levelpair"], cz["cz"]
            for site, level in (("siteA", "i"), ("siteB", "j")):
                if (cz[site], cz[level]) == (h["site"], h["j"]):
                    found.append((g, level))
    return found


@st.composite
def edited_documents(draw):
    """A valid document with one gate edited so that it still loads: a
    swap's phase moved from the target's level l to k, any controlled
    phase set to 1 or i, or one H of a swap moved to another level pair."""
    base, n = draw(st.sampled_from(BASES))
    doc = json.loads(json.dumps(base))
    dims, gates = doc["dims"], doc["gates"]
    swaps = level_swaps(gates)
    movable = [(g, level) for g, level in swaps if dims[gates[g]["levelpair"]["site"]] > 2]
    kinds = ["phase"] + (["level"] if swaps else []) + (["pair"] if movable else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "phase":
        cz = draw(st.sampled_from([gate["cz"] for gate in gates if "cz" in gate]))
        cz["phase"] = draw(st.sampled_from([[1, 0], [0, 1]]))
    elif kind == "level":
        g, level = draw(st.sampled_from(swaps))
        gates[g + 1]["cz"][level] = gates[g]["levelpair"]["i"]
    else:
        g, _ = draw(st.sampled_from(movable))
        h = gates[draw(st.sampled_from([g, g + 2]))]["levelpair"]
        pairs = itertools.combinations(range(dims[h["site"]]), 2)
        h["i"], h["j"] = draw(st.sampled_from([p for p in pairs if p != (h["i"], h["j"])]))
    return doc, n


def dense_verdict(document):
    """PASS/FAIL of a document from its full unitary: every embedded basis
    input must land on its expected index with its expected sign."""
    emap, target = document.embedding, document.target_qubit
    n, size = emap.qubit_count, document.circuit.register.size
    unitary = circuit_unitary(document.circuit)
    error, full = 0.0, 2**n - 1  # input x, qubit 0 its most significant bit
    for x in range(full + 1):
        want, sign = x, 1.0
        if target is None:
            sign = -1.0 if x == full else 1.0
        elif x | 1 << (n - 1 - target) == full:
            want = x ^ 1 << (n - 1 - target)
        for bystander in (0, 1) if emap.bystander_sites else (0,):
            column = np.zeros(size, dtype=complex)
            column[emap.encode(want, bystander)] = sign
            error = max(error, np.abs(unitary[:, emap.encode(x, bystander)] - column).max())
    return error < STATE_TOL


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def check_commands(path, text, bits):
    path.write_text(text, encoding="utf-8")
    for argv in (
        ("verify", "--circuit", str(path), "--exhaustive"),
        ("simulate", str(path), "--input", bits, "--probs"),
    ):
        code, stderr = run_cli(*argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert stderr.startswith("error: "), (argv, stderr)


@given(value=json_values, bits=st.text("01", min_size=1, max_size=5))
def test_random_json_is_refused_cleanly(path, value, bits):
    check_commands(path, json.dumps(value), bits)


@given(case=mutated_documents())
def test_mutated_documents_are_refused_or_run(path, case):
    doc, n = case
    check_commands(path, json.dumps(doc), "1" * n)


@given(case=edited_documents())
def test_edited_gates_get_the_dense_verdict(path, case):
    doc, n = case
    text = json.dumps(doc)
    passed = dense_verdict(load_document(text))
    path.write_text(text, encoding="utf-8")
    assert run_cli("verify", "--circuit", str(path), "--exhaustive")[0] == (0 if passed else 1)
    assert run_cli("simulate", str(path), "--input", "1" * n, "--probs")[0] == 0
