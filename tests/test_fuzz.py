"""Fuzzing the two readers of outside input: the identity parser and the
document loader must refuse malformed input with their typed errors,
ParseError and DocumentError, and raise nothing else.  The loader must also
accept exactly the documents that an independent validator of the README's
document format accepts."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import serialize

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


# --------------------------------------------------------------------------
# Loader against an independent validator of the document format

def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_digits(text):
    return text != "" and all(c in "0123456789" for c in text)


def _rational(text):
    """The value of a rational string: an optional minus sign, then ASCII
    digits, digits "/" a nonzero denominator, or digits "." digits.  None
    for anything else."""
    if not isinstance(text, str):
        return None
    body = text[1:] if text.startswith("-") else text
    sign = -1 if body is not text else 1
    if "/" in body:
        num, _, den = body.partition("/")
        if _is_digits(num) and _is_digits(den) and int(den):
            return sign * Fraction(int(num), int(den))
        return None
    if "." in body:
        whole, _, frac = body.partition(".")
        if _is_digits(whole) and _is_digits(frac):
            return sign * Fraction(int(whole + frac), 10 ** len(frac))
        return None
    return sign * int(body) if _is_digits(body) else None


def _entries_problem(raw, arity, parity):
    """Why raw is not a list of sparse entries of an operation of this
    arity ([i, j, ..., k, "q"], 1-based, no index twice, each nonzero
    entry keeping the parity rule), or None."""
    if not isinstance(raw, list):
        return "not a list"
    seen = set()
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity + 2:
            return "entry shape"
        *index, value = entry
        if not all(_is_int(i) and 1 <= i <= len(parity) for i in index):
            return "index"
        q = _rational(value)
        if q is None:
            return "rational"
        if tuple(index) in seen:
            return "duplicate"
        seen.add(tuple(index))
        *inputs, output = (parity[i - 1] for i in index)
        if q and sum(inputs) % 2 != output:
            return "parity"
    return None


def _alpha_problem(raw, parity):
    """Why raw is neither a dense n x n matrix of rational strings nor a
    list of sparse [i, k, "q"] entries, or maps across the parity blocks;
    None if it is an even map."""
    n = len(parity)
    if not isinstance(raw, list):
        return "not a list"
    if len(raw) == n and all(isinstance(row, list) and len(row) == n
                             and all(_rational(v) is not None for v in row)
                             for row in raw):
        entries = [[i + 1, k + 1, v] for i, row in enumerate(raw)
                   for k, v in enumerate(row)]
    else:
        entries = raw
    # An even map is an arity-1 operation under the parity rule.
    return _entries_problem(entries, 1, parity)


def document_problem(doc):
    """Why doc is not an algebra document as the README describes it, or
    None.  Only "dims" is required; "name" defaults to "", "kind" to
    "hom_superalgebra", "product" to no entries, "alpha" to the identity
    and "metadata" to {}; "ternary" may be absent or null, except on a
    "binary_ternary" document.  Other fields are ignored."""
    if not isinstance(doc, dict):
        return "not an object"
    dims = doc.get("dims")
    if not (isinstance(dims, dict) and _is_int(dims.get("even"))
            and _is_int(dims.get("odd")) and dims["even"] >= 0
            and dims["odd"] >= 0):
        return "dims"
    if dims["even"] + dims["odd"] > 256:
        return "dimension above 256"
    parity = [0] * dims["even"] + [1] * dims["odd"]
    if not isinstance(doc.get("name", ""), str):
        return "name"
    kind = doc.get("kind", "hom_superalgebra")
    if not (isinstance(kind, str)
            and kind in ("hom_superalgebra", "binary_ternary")):
        return "kind"
    if not isinstance(doc.get("metadata", {}), dict):
        return "metadata"
    ternary = doc.get("ternary")
    if ternary is None and kind == "binary_ternary":
        return "no ternary"
    return (_entries_problem(doc.get("product", []), 2, parity)
            or (ternary is not None and _entries_problem(ternary, 3, parity))
            or ("alpha" in doc and _alpha_problem(doc["alpha"], parity))
            or None)


def _format_documents():
    """The corpus documents and the Lie-Yamaguti documents built from its
    Leibniz algebras, which carry a ternary product."""
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in hs.corpus_paths()]
    docs += [serialize.algebra_to_document(hs.build_hom_ly(
                 hs.load_algebra(path), verify=False))
             for path, doc in zip(hs.corpus_paths(), docs)
             if doc["metadata"]["expected"]["leibniz"]]
    return docs


_FORMAT_DOCUMENTS = _format_documents()

_KEYS = ("name", "kind", "dims", "product", "ternary", "alpha", "metadata",
         "even", "odd", "other")
_TEXTS = ("1", "-1", "0", "3/2", "-3/2", "0.5", "-0.25", "1/0", "0/0",
          " 3", "3 ", "+1", "1_0", "\u0663", "\uff11", ".5", "5.", "1.5/2",
          "1e2", "--1", "-", "", "x", "hom_superalgebra", "binary_ternary")
_values = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6), st.sampled_from(_TEXTS),
    st.sampled_from([0.0, 1.0, 2.5]), st.just([]), st.just({}),
    st.lists(st.one_of(st.integers(0, 5), st.booleans(),
                       st.sampled_from(_TEXTS)), min_size=1, max_size=6),
).map(copy.deepcopy)  # a mutation must not change a shared draw


def _containers(node):
    """Every (container, key) pair inside a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield node, key
        yield from _containers(child)


def _rational_places(doc):
    """(list, position) of every rational string of the document."""
    for field in ("product", "ternary", "alpha"):
        rows = doc.get(field)
        for row in rows if isinstance(rows, list) else ():
            if isinstance(row, list) and row:
                if field == "alpha" and isinstance(row[0], str):
                    yield from ((row, k) for k in range(len(row)))
                else:
                    yield row, len(row) - 1


@st.composite
def mutated_documents(draw):
    """A format document with one to three mutations: a value replaced
    (a wrong type, a bool for an int, an index out of range), a rational
    string replaced by another text, a key or element removed, an element
    or field added, or an entry added to an operation (on any slot, so
    possibly against the parity rule, or twice)."""
    doc = copy.deepcopy(draw(st.sampled_from(_FORMAT_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        places = list(_containers(doc))
        rationals = list(_rational_places(doc))
        action = draw(st.sampled_from(("replace", "remove", "add", "entry",
                                       "rational")))
        if action == "rational" and rationals:
            row, k = draw(st.sampled_from(rationals))
            row[k] = draw(st.sampled_from(_TEXTS))
        elif action == "entry":
            field, arity = draw(st.sampled_from((("product", 2),
                                                 ("ternary", 3))))
            if not isinstance(doc.get(field), list):
                doc[field] = []
            doc[field].append(draw(st.lists(st.integers(0, 5),
                                            min_size=arity + 1,
                                            max_size=arity + 1))
                              + [draw(st.sampled_from(_TEXTS[:6]))])
        elif action == "add" or not places:
            targets = [doc] + [c[k] for c, k in places
                               if isinstance(c[k], (dict, list))]
            target = draw(st.sampled_from(targets))
            if isinstance(target, dict):
                target[draw(st.sampled_from(_KEYS))] = draw(_values)
            elif target and draw(st.booleans()):
                target.append(copy.deepcopy(draw(st.sampled_from(target))))
            else:
                target.insert(draw(st.integers(0, len(target))),
                              draw(_values))
        else:
            container, key = draw(st.sampled_from(places))
            if action == "remove":
                del container[key]
            else:
                container[key] = draw(_values)
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
@example({"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, " 3"]]})
@example({"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, "\u0663"]]})
@example({"dims": {"even": 1, "odd": 0}, "alpha": [["1_0"]]})
@example({"dims": {"even": 1, "odd": 1}, "product": [[1, 2, 2, "+1"]]})
@example({"dims": {"even": 1, "odd": 1}, "product": [[2, 2, 2, "0"]]})
@example({"dims": {"even": 1, "odd": 0}, "ternary": None})
def test_loader_accepts_exactly_the_valid_documents(doc):
    problem = document_problem(doc)
    try:
        serialize.document_to_algebra(doc)
    except hs.DocumentError as exc:
        assert problem is not None, "refused a valid document: %s" % exc
    else:
        assert problem is None, "loaded a document with a bad %s" % problem


def test_validator_accepts_the_format_documents():
    assert [document_problem(doc) for doc in _FORMAT_DOCUMENTS] == \
        [None] * len(_FORMAT_DOCUMENTS)
