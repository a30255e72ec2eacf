"""Fuzzing the two readers of outside input: the identity parser and the
document loader must refuse malformed input with their typed errors,
ParseError and DocumentError, and raise nothing else."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import homsuper as hs

# --------------------------------------------------------------------------
# Identity parser

_TOKENS = ["x", "y", "z", "u", "a", "a2", "a0", "s", "cyc", "0", "1", "2",
           "1/2", "1/0", "(", ")", "[", "]", "{", "}", ",", ";", "=", "+",
           "-", "*", " "]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)))
@example("1" * 5000 + " x = x")
@example("x = 1/" + "3" * 5000 + " x")
@example("(" * 5000 + "x" + ")" * 5000)
@example("cyc[x,y,z; 1](" * 2000 + "x" + ")" * 2000)
def test_parser_raises_only_parse_errors(text):
    try:
        law = hs.parse_identity(text)
    except hs.ParseError:
        return
    assert isinstance(law.multilinear, bool)


def test_long_numbers_fail_at_their_position():
    for text, pos in (("1" * 5000 + " x = x", 0),
                      ("x = 1/" + "3" * 5000 + " x", 4)):
        with pytest.raises(hs.ParseError, match="number too long") as err:
            hs.parse_identity(text)
        assert err.value.pos == pos


# --------------------------------------------------------------------------
# Document loader

@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document.json"


def _load(path, data):
    path.write_bytes(data)
    try:
        hs.load_algebra(path)
    except hs.DocumentError:
        pass


_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(st.one_of(st.binary(max_size=60),
                 st.text(max_size=60).map(str.encode)))
@example(b"1" * 5000)
@example(b"[" * 100000)
@example(b'{"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, '
         + b"1" * 5000 + b"]]}")
@example(b"\xff\xfe{}")
@example(b'{"dims": {"even": 1000, "odd": 0}}')
@example(b'{"dims": {"even": true, "odd": false}}')
@example(b'{"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, '
         b'"1e300000"]]}')
def test_loader_on_text_raises_only_document_errors(document_path, data):
    _load(document_path, data)


_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 5),
              st.text("0123456789/-.e ", max_size=6)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=4), children,
                                               max_size=3)),
    max_leaves=10)
_index = st.integers(0, 3)
_rational = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "2", "1/0",
                                       "x", " 3 ", "1e2"]), _json)
_entry = st.one_of(
    st.tuples(_index, _index, _index, _rational).map(list),
    st.tuples(_index, _index, _index, _index, _rational).map(list),
    st.lists(st.one_of(_index, _rational), max_size=5))
# Dimensions stay small, so that most draws get past them: up to the
# loader's bound it builds dense views of size n^2.
_documents = st.fixed_dictionaries(
    {"dims": st.one_of(
        st.fixed_dictionaries({"even": st.integers(0, 2),
                               "odd": st.integers(0, 2)}),
        st.fixed_dictionaries({"even": st.integers(-1, 3) | _json,
                               "odd": st.integers(-1, 3) | _json}),
        _json)},
    optional={
        "name": st.one_of(st.text(max_size=6), _json),
        "kind": st.one_of(st.sampled_from(["hom_superalgebra",
                                           "binary_ternary", "other"]),
                          _json),
        "product": st.one_of(st.lists(_entry, max_size=4), _json),
        "ternary": st.one_of(st.lists(_entry, max_size=4), _json),
        "alpha": st.one_of(st.lists(st.lists(_rational, max_size=4),
                                    max_size=4),
                           st.lists(_entry, max_size=4), _json),
        "metadata": _json,
    })


@_SETTINGS
@given(st.one_of(_documents, _json))
def test_loader_on_json_documents_raises_only_document_errors(document_path,
                                                              doc):
    _load(document_path, json.dumps(doc).encode())
