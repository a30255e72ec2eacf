"""JSON documents for algebras, and the packaged example corpus.

A document is UTF-8 JSON with canonical field order

    name, kind, dims, product, [ternary,] alpha, metadata

where the products are sparse entries with 1-based indices and exact
rational strings, sorted lexicographically by index, and alpha is a dense
matrix of rational strings (a sparse [i, k, "q"] triple list is also
accepted on input).  No other field is read, and a document with one is
refused, so a misspelt field never loads as its default.  kind is
"hom_superalgebra" (default) or "binary_ternary".  The kind decides how a
law reads the algebra (`identities.slot_op`): on a binary-ternary
algebra "[x, y]" is the binary operation itself, on any other the graded
commutator of the product.

A rational string is an optional minus sign and ASCII digits, then
optionally "/" and a nonzero denominator or "." and more digits: "1",
"-3/2", "0.5".  Nothing else is read as a number: no "+", space,
underscore, other digit or decimal exponent.

Loading validates indices, rationals and the parity rule, so a malformed or
ungraded document never becomes an algebra.  The JSON itself must be
unambiguous and plain: a name repeated in one object, the constants NaN,
Infinity and -Infinity, and a number too large to be finite ("1e400") are
refused, so no later duplicate silently wins and a loaded document never
saves as what is not JSON; saving refuses a float that is not finite
before it writes a byte.  Loading bounds what a short document can cost:
a dimension above MAX_DIM and a rational with a decimal exponent
("1e300000") are refused.  save(load(doc)) is the canonicalization; it is
byte-stable on canonical documents.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .kernel import (
    BilinearOp,
    BinaryTernaryAlgebra,
    EvenMap,
    HomSuperalgebra,
    ParityError,
    SuperSpace,
    TernaryOp,
    scalar,
)

# The largest dimension a document may declare: every alpha, given or the
# default identity, is built from a dense n x n matrix, and saving writes
# it as one, so a short document must not name a large n.
MAX_DIM = 256

# The fields of a document, in canonical order.
FIELDS = ("name", "kind", "dims", "product", "ternary", "alpha", "metadata")

# A rational string, as the module docstring describes it.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


class DocumentError(ValueError):
    pass


def _fail(where, message):
    raise DocumentError("%s: %s" % (where, message))


def _parse_rational(where, text):
    if not isinstance(text, str):
        _fail(where, "rational values must be strings, got %r" % (text,))
    if not _RATIONAL.fullmatch(text):
        _fail(where, "invalid rational %r" % text)
    try:
        return scalar(text)
    except (ValueError, ZeroDivisionError):
        _fail(where, "invalid rational %r" % text)


def _parse_index(where, value, n):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, "index must be an integer, got %r" % (value,))
    if not 1 <= value <= n:
        _fail(where, "basis index %d out of range 1..%d" % (value, n))
    return value - 1


def _parse_sparse(where, raw, n, width):
    entries = {}
    if not isinstance(raw, list):
        _fail(where, "expected a list of entries")
    for pos, entry in enumerate(raw):
        here = "%s[%d]" % (where, pos)
        if not isinstance(entry, list) or len(entry) != width + 1:
            _fail(here, "expected [indices..., rational] with %d indices"
                  % width)
        key = tuple(_parse_index(here, v, n) for v in entry[:width])
        value = _parse_rational(here, entry[width])
        if key in entries:
            _fail(here, "duplicate entry for index %s"
                  % (tuple(i + 1 for i in key),))
        entries[key] = value
    return entries


def _parse_alpha(where, raw, space):
    n = space.dim
    if not isinstance(raw, list):
        _fail(where, "expected a dense or sparse matrix")
    # Sparse entries are [i, k, "q"] with integer indices; dense rows hold
    # strings everywhere, so the first element always disambiguates.  An
    # empty list is the sparse zero map.
    sparse = not raw or all(isinstance(e, list) and len(e) == 3
                            and isinstance(e[0], int) for e in raw)
    if not raw and n == 0:
        sparse = False
    rows = [[Fraction(0)] * n for _ in range(n)]
    if sparse:
        seen = set()
        for pos, entry in enumerate(raw):
            here = "%s[%d]" % (where, pos)
            i = _parse_index(here, entry[0], n)
            k = _parse_index(here, entry[1], n)
            if (i, k) in seen:
                _fail(here, "duplicate entry for index (%d, %d)"
                      % (i + 1, k + 1))
            seen.add((i, k))
            rows[i][k] = _parse_rational(here, entry[2])
    else:
        if len(raw) != n:
            _fail(where, "dense matrix must have %d rows" % n)
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                _fail("%s[%d]" % (where, i), "row must have %d entries" % n)
            for k, value in enumerate(row):
                rows[i][k] = _parse_rational("%s[%d][%d]" % (where, i, k),
                                             value)
    try:
        return EvenMap(space, rows)
    except ParityError as exc:
        _fail(where, str(exc))


def document_to_algebra(doc, where="document"):
    if not isinstance(doc, dict):
        _fail(where, "expected a JSON object")
    unknown = [field for field in doc if field not in FIELDS]
    if unknown:
        _fail(where, "unknown field %r (the fields are %s)"
              % (unknown[0], ", ".join(FIELDS)))
    dims = doc.get("dims")
    # `type(...) is int` refuses booleans, which are ints too.
    if not isinstance(dims, dict) or not all(
            type(dims.get(part)) is int and dims[part] >= 0
            for part in ("even", "odd")):
        _fail(where + ".dims", 'expected {"even": E, "odd": O}')
    n = dims["even"] + dims["odd"]
    if n > MAX_DIM:
        _fail(where + ".dims", "dimension %d above the bound %d"
              % (n, MAX_DIM))
    space = SuperSpace(dims["even"], dims["odd"])
    product = BilinearOp(space, entries=_parse_sparse(
        where + ".product", doc.get("product", []), n, 3))
    ternary = None
    if doc.get("ternary") is not None:
        ternary = TernaryOp(space, entries=_parse_sparse(
            where + ".ternary", doc["ternary"], n, 4))
    if "alpha" in doc:
        alpha = _parse_alpha(where + ".alpha", doc["alpha"], space)
    else:
        alpha = EvenMap.identity(space)
    kind = doc.get("kind", "hom_superalgebra")
    name = doc.get("name", "")
    if not isinstance(name, str):
        _fail(where + ".name", "name must be a string")
    if kind == "binary_ternary":
        if ternary is None:
            _fail(where, "binary_ternary documents need a ternary product")
        algebra = BinaryTernaryAlgebra(space, product, ternary, alpha,
                                       name=name)
    elif kind == "hom_superalgebra":
        algebra = HomSuperalgebra(space, product, alpha, ternary=ternary,
                                  name=name)
    else:
        _fail(where + ".kind", "unknown kind %r" % kind)
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        _fail(where + ".metadata", "metadata must be an object")
    algebra.metadata = metadata
    bad = product.grading_violations()
    if ternary is not None:
        bad = bad + ternary.grading_violations()
    if bad:
        _fail(where, "structure constants break the parity rule at %s"
              % (bad[:4],))
    return algebra


def algebra_to_document(algebra):
    space = algebra.space
    doc = {
        "name": algebra.name,
        "kind": algebra.kind,
        "dims": {"even": space.dim_even, "odd": space.dim_odd},
        "product": _sparse_entries(algebra.product),
    }
    if algebra.ternary is not None:
        doc["ternary"] = _sparse_entries(algebra.ternary)
    doc["alpha"] = [[str(v) for v in row] for row in algebra.alpha.rows]
    doc["metadata"] = algebra.metadata
    return doc


def _sparse_entries(op):
    return [[i + 1 for i in index] + [l + 1, str(c)]
            for index, terms in op.constants.items() for l, c in terms]


def canonical_text(doc):
    """The document as JSON text; a float that is not finite, which only
    Python code can put in `metadata`, raises DocumentError."""
    try:
        text = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError as exc:
        raise DocumentError("not JSON: %s" % exc) from None
    return text + "\n"


def _unique_names(pairs):
    """A JSON object as a dict; a name given twice raises DocumentError."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise DocumentError("invalid JSON: name %r repeated in one "
                                "object" % name)
        obj[name] = value
    return obj


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise DocumentError("invalid JSON: number %s is not finite" % text)
    return value


def _no_constant(text):
    raise DocumentError("invalid JSON: %s is not a JSON number" % text)


def load_algebra(path):
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError("%s: %s" % (path, exc)) from None
    try:
        doc = json.loads(raw, object_pairs_hook=_unique_names,
                         parse_float=_finite_float,
                         parse_constant=_no_constant)
    except DocumentError as exc:
        raise DocumentError("%s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise DocumentError("%s: invalid JSON at line %d column %d"
                            % (path, exc.lineno, exc.colno)) from None
    except (ValueError, RecursionError) as exc:
        # An integer longer than int() accepts, or nesting deeper than the
        # decoder's recursion allows.
        raise DocumentError("%s: invalid JSON: %s" % (path, exc)) from None
    return document_to_algebra(doc, where=str(path))


def save_algebra(algebra, path):
    path = Path(path)
    path.write_text(canonical_text(algebra_to_document(algebra)),
                    encoding="utf-8")
    return path


def corpus_dir():
    return Path(__file__).parent / "corpus"


def corpus_paths():
    """The packaged example documents, in sorted (deterministic) order."""
    return sorted(corpus_dir().glob("*.json"))
