"""Document fuzzer: random JSON and one-field mutations of valid documents.

Every run of ``verify --circuit --exhaustive`` and ``simulate --input
--probs`` on such a file must end with exit 0, 1 or 2, and a 2 must carry
an ``error:`` line on stderr. An exception escaping ``main`` (a traceback)
fails the test. Examples are derandomized by the profile in conftest.py.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ququint import CircuitDocument, DecompositionRequest, decompose_cnz, save_document
from ququint.cli import main


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
