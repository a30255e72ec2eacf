import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import homsuper as hs
from homsuper import cli
from homsuper import identities as idn
from homsuper import serialize
from homsuper.serialize import (
    DocumentError,
    algebra_to_document,
    canonical_text,
    document_to_algebra,
)
from conftest import make_algebra


def test_save_load_round_trip_zero_algebra(tmp_path):
    zero = make_algebra(1, 1, {}, name="zero")
    zero.metadata = {"source": "test"}
    path = hs.save_algebra(zero, tmp_path / "zero.json")
    loaded = hs.load_algebra(path)
    assert algebra_to_document(loaded) == algebra_to_document(zero)


def test_corpus_fixture_loads_with_expected_dims():
    path = [p for p in hs.corpus_paths() if p.name == "leibniz_a2_b.json"][0]
    algebra = hs.load_algebra(path)
    assert (algebra.space.dim_even, algebra.space.dim_odd) == (2, 0)
    assert algebra.product.on_basis(0, 0) == algebra.space.basis_vector(1)


def test_corpus_byte_stability(tmp_path):
    for path in hs.corpus_paths():
        raw = path.read_text(encoding="utf-8")
        algebra = hs.load_algebra(path)
        assert canonical_text(algebra_to_document(algebra)) == raw


def test_malformed_rational_is_a_parse_error(tmp_path):
    doc = {"name": "bad", "dims": {"even": 1, "odd": 0},
           "product": [[1, 1, 1, "1/0"]], "alpha": [["1"]], "metadata": {}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DocumentError) as err:
        hs.load_algebra(path)
    assert "product[0]" in str(err.value)
    assert "1/0" in str(err.value)


def test_rational_with_a_decimal_exponent_is_refused():
    for text in ("1e300000", "2E3", "-1.5e-2"):
        doc = {"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, text]]}
        with pytest.raises(DocumentError, match="invalid rational") as err:
            document_to_algebra(doc)
        assert "product[0]" in str(err.value)
        assert text in str(err.value)
    doc = {"dims": {"even": 1, "odd": 0}, "product": [[1, 1, 1, "0.5"]],
           "alpha": [["-1.25"]]}
    algebra = document_to_algebra(doc)
    assert algebra.product.constants == {(0, 0): ((0, Fraction(1, 2)),)}
    assert algebra.alpha.rows == ((Fraction(-5, 4),),)


def test_boolean_dimensions_are_refused():
    # bool is an int in Python; a loader reading true as 1 would build a
    # (1|0) algebra.
    for dims in ({"even": True, "odd": False}, {"even": 1, "odd": False},
                 {"even": False, "odd": 0}):
        with pytest.raises(DocumentError, match=r"dims: expected"):
            document_to_algebra({"dims": dims})


def test_unknown_fields_are_refused():
    # A misspelt "product" would otherwise load as the zero product.
    doc = {"dims": {"even": 2, "odd": 0}, "prodcut": [[1, 1, 2, "1"]]}
    with pytest.raises(DocumentError, match=r"unknown field 'prodcut'"):
        document_to_algebra(doc)
    for field in ("seed", "Product", ""):
        with pytest.raises(DocumentError, match=r"unknown field"):
            document_to_algebra({"dims": {"even": 1, "odd": 0}, field: 1})
    # Every canonical field is accepted, and a saved document has no other.
    doc = {"name": "", "kind": "hom_superalgebra",
           "dims": {"even": 1, "odd": 0}, "product": [], "ternary": None,
           "alpha": [["1"]], "metadata": {}}
    assert tuple(doc) == serialize.FIELDS
    algebra = document_to_algebra(doc)
    assert algebra.product.is_zero()
    assert set(algebra_to_document(algebra)) <= set(serialize.FIELDS)


def test_dimension_above_the_bound_is_refused(monkeypatch):
    for dims in ({"even": serialize.MAX_DIM + 1, "odd": 0},
                 {"even": 1000, "odd": 0}, {"even": 200, "odd": 200}):
        with pytest.raises(DocumentError, match="above the bound 256"):
            document_to_algebra({"dims": dims})
    monkeypatch.setattr(serialize, "MAX_DIM", 3)
    assert document_to_algebra({"dims": {"even": 2, "odd": 1}}).space.dim == 3
    with pytest.raises(DocumentError, match=r"dims: dimension 4 above"):
        document_to_algebra({"dims": {"even": 2, "odd": 2}})


def test_index_out_of_range():
    doc = {"dims": {"even": 1, "odd": 0}, "product": [[1, 2, 1, "1"]],
           "alpha": [["1"]]}
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "out of range" in str(err.value)


def test_grading_violation_rejected_on_load():
    doc = {"dims": {"even": 1, "odd": 1}, "product": [[1, 2, 1, "1"]],
           "alpha": [["1", "0"], ["0", "1"]]}
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "parity" in str(err.value)


def test_duplicate_sparse_entry_rejected():
    doc = {"dims": {"even": 1, "odd": 0},
           "product": [[1, 1, 1, "1"], [1, 1, 1, "2"]], "alpha": [["1"]]}
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "duplicate" in str(err.value)


def test_alpha_accepts_sparse_form():
    doc = {"dims": {"even": 1, "odd": 1}, "product": [],
           "alpha": [[1, 1, "2"], [2, 2, "3"]]}
    algebra = document_to_algebra(doc)
    assert algebra.alpha == hs.EvenMap.diagonal(algebra.space, [2, 3])


def test_alpha_parity_violation_rejected():
    doc = {"dims": {"even": 1, "odd": 1}, "product": [],
           "alpha": [[1, 2, "1"]]}
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "parity" in str(err.value)


def test_missing_alpha_defaults_to_identity():
    doc = {"dims": {"even": 1, "odd": 1}, "product": []}
    algebra = document_to_algebra(doc)
    assert algebra.alpha.is_identity()
    assert algebra_to_document(algebra)["alpha"] == [["1", "0"], ["0", "1"]]
    # An explicit null is not a missing alpha.
    with pytest.raises(DocumentError, match="alpha"):
        document_to_algebra(dict(doc, alpha=None))


def test_fresh_algebras_have_empty_unshared_metadata(a2b, f2e):
    assert algebra_to_document(a2b)["metadata"] == {}
    a2b.metadata["note"] = "set on one algebra"
    assert f2e.metadata == {}
    assert algebra_to_document(f2e)["metadata"] == {}


def test_binary_ternary_kind_round_trip(tmp_path, f2e):
    derived = hs.build_hom_ly(f2e, verify=False)
    derived.metadata = {"expected": {"ly": True}}
    path = hs.save_algebra(derived, tmp_path / "ly.json")
    loaded = hs.load_algebra(path)
    assert isinstance(loaded, hs.BinaryTernaryAlgebra)
    assert idn.slot_op(loaded, "[,]") == loaded.binary
    assert algebra_to_document(loaded) == algebra_to_document(derived)


def test_binary_ternary_kind_requires_ternary():
    doc = {"kind": "binary_ternary", "dims": {"even": 1, "odd": 0},
           "product": [], "alpha": [["1"]]}
    with pytest.raises(DocumentError) as err:
        document_to_algebra(doc)
    assert "ternary" in str(err.value)


def test_unknown_kind_rejected():
    doc = {"kind": "mystery", "dims": {"even": 1, "odd": 0}, "product": [],
           "alpha": [["1"]]}
    with pytest.raises(DocumentError):
        document_to_algebra(doc)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError) as err:
        hs.load_algebra(path)
    assert "line" in str(err.value)


# JSON texts that the standard decoder reads but a document must not hold,
# each with what the error names: a repeated name, whose last value the
# decoder would keep, and NaN, the infinities and a number too large to be
# finite, which saving would write back as NaN or Infinity, not JSON.
_REFUSED_TEXTS = {
    "repeated field": ('{"dims": {"even": 1, "odd": 0}, '
                       '"product": [[1, 1, 1, "1"]], "product": []}',
                       "'product'"),
    "repeated dimension": ('{"dims": {"even": 1, "odd": 0, "odd": 1}}',
                           "'odd'"),
    "repeated metadata name": ('{"dims": {"even": 1, "odd": 0}, '
                               '"metadata": {"a": 1, "b": {"c": 2, "c": 2}}}',
                               "'c'"),
    "NaN": ('{"dims": {"even": 1, "odd": 0}, "metadata": {"a": NaN}}', "NaN"),
    "Infinity": ('{"dims": {"even": 1, "odd": 0}, "metadata": [Infinity]}',
                 "Infinity"),
    "-Infinity": ('{"dims": {"even": 1, "odd": 0}, "metadata": -Infinity}',
                  "-Infinity"),
    "1e400": ('{"dims": {"even": 1, "odd": 0}, "metadata": {"a": 1e400}}',
              "1e400"),
    "-1e400": ('{"dims": {"even": 1, "odd": 0}, "metadata": {"a": -1e400}}',
               "-1e400"),
}


@pytest.mark.parametrize("text, named", _REFUSED_TEXTS.values(),
                         ids=_REFUSED_TEXTS.keys())
def test_ambiguous_or_non_json_documents_are_refused(tmp_path, capsys, text,
                                                     named):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DocumentError) as err:
        hs.load_algebra(path)
    assert named in str(err.value)
    code = cli.main(["verify", str(path), "--suite", "LLSI"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: %s: " % path)
    assert captured.err.count("\n") == 1
    assert named in captured.err


def test_names_may_repeat_across_objects_and_finite_floats_load(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"dims": {"even": 1, "odd": 0}, "metadata": '
                    '{"a": {"x": 1e300}, "b": {"x": -0.5}}}', encoding="utf-8")
    algebra = hs.load_algebra(path)
    assert algebra.metadata == {"a": {"x": 1e300}, "b": {"x": -0.5}}
    saved = hs.save_algebra(algebra, tmp_path / "saved.json")
    assert hs.load_algebra(saved).metadata == algebra.metadata


def test_missing_file_is_a_document_error(tmp_path):
    with pytest.raises(DocumentError):
        hs.load_algebra(tmp_path / "absent.json")


def test_corpus_expected_verdicts_hold(corpus):
    for path, algebra in corpus:
        expected = algebra.metadata.get("expected", {})
        assert expected, path
        for suite, verdict in expected.items():
            got = all(r.passed for r in hs.check_suite(suite, algebra))
            assert got == verdict, (path.name, suite)


def _make_corpus():
    script = Path(__file__).resolve().parents[1] / "tools" / "make_corpus.py"
    spec = importlib.util.spec_from_file_location("make_corpus", script)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    return make_corpus


def test_corpus_regenerates_byte_for_byte(tmp_path, capsys):
    make_corpus = _make_corpus()
    make_corpus.write_corpus(tmp_path)
    packaged = hs.corpus_paths()
    assert [p.name for p in sorted(tmp_path.iterdir())] == \
        [p.name for p in packaged]
    for path in packaged:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), \
            path.name


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["out", "extra"]])
def test_corpus_script_refuses_options_and_extra_arguments(
        argv, tmp_path, monkeypatch, capsys):
    # An option is not an output directory: nothing is written, not even
    # a directory named after it.
    monkeypatch.chdir(tmp_path)
    assert _make_corpus().main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage: python tools/make_corpus.py [OUT_DIR]\n")
    assert list(tmp_path.iterdir()) == []
