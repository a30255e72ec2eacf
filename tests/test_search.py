import json
import random

import pytest

import homsuper as hs
from homsuper import identities, kernel
from homsuper.search import (SearchSpec, SearchSpaceError, _merge_chunks,
                              run_search)
from homsuper.serialize import algebra_to_document


def test_single_zero_candidate():
    spec = SearchSpec((1, 0), coeffs=("0",), suite="leibniz")
    outcome = run_search(spec)
    assert outcome.space_size == 1
    assert len(outcome.documents) == 1
    assert outcome.documents[0]["product"] == []
    assert not outcome.partial


def test_space_size_reported_before_running():
    spec = SearchSpec((2, 0), coeffs=("-1", "0", "1"))
    assert spec.space_size() == 3 ** 8
    spec11 = SearchSpec((1, 1), coeffs=("0", "1"))
    assert spec11.space_size() == 2 ** 4


def test_search_1_1_includes_odd_square(f2e):
    spec = SearchSpec((1, 1), coeffs=("0", "1"), suite="leibniz")
    outcome = run_search(spec)
    products = [tuple(tuple(e) for e in doc["product"])
                for doc in outcome.documents]
    assert ((2, 2, 1, "1"),) in products


def test_search_results_reverify_and_are_deterministic():
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), suite="leibniz")
    first = run_search(spec)
    second = run_search(spec)
    assert [d["name"] for d in first.documents] == \
        [d["name"] for d in second.documents]
    for doc in first.documents:
        algebra = spec.candidate(doc["metadata"]["candidate"])
        assert algebra_to_document(algebra)["product"] == doc["product"]
        assert all(r.passed for r in hs.check_suite("leibniz", algebra))


def test_search_respects_result_cap():
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), suite="leibniz",
                      max_results=2)
    outcome = run_search(spec)
    assert len(outcome.documents) == 2
    assert outcome.partial


def test_search_budget_flags_partial():
    spec = SearchSpec((2, 0), coeffs=("-1", "0", "1"), suite="leibniz",
                      budget_ms=0)
    outcome = run_search(spec)
    assert outcome.partial
    assert outcome.examined < spec.space_size()


def test_search_space_bound():
    spec = SearchSpec((2, 2), coeffs=("-1", "0", "1"), max_space=1000)
    with pytest.raises(SearchSpaceError):
        run_search(spec)


def test_diagonal_alpha_family_enumerates_maps():
    spec = SearchSpec((2, 0), coeffs=("0", "1"), alpha=("2", "4"),
                      suite="leibniz", max_results=10 ** 6)
    assert spec.space_size() == 4 * 2 ** 8
    outcome = run_search(spec)
    found = {(tuple(tuple(e) for e in doc["product"]),
              tuple(tuple(row) for row in doc["alpha"]))
             for doc in outcome.documents}
    # a*a=b is multiplicative under diag(d1,d2) iff d2 = d1*d1, so exactly
    # the diag(2,4) member of the family carries it.
    square = ((1, 1, 2, "1"),)
    assert (square, (("2", "0"), ("0", "4"))) in found
    assert (square, (("4", "0"), ("0", "2"))) not in found


@pytest.mark.parametrize("alpha", ["id", ("0", "2", "-1")])
def test_candidates_rebuild_the_same_in_any_order(alpha):
    spec = SearchSpec((1, 1), coeffs=("0", "1"), alpha=alpha)
    indices = list(range(spec.space_size()))
    random.Random(5).shuffle(indices)
    for index in indices:
        got = spec.candidate(index)
        want = SearchSpec((1, 1), coeffs=("0", "1"),
                          alpha=alpha).candidate(index)
        assert (got.alpha, got.product, got.name) == \
            (want.alpha, want.product, want.name), index
    # Candidates of one alpha block share one twisting map.
    assert spec.candidate(16).alpha is spec.candidate(17).alpha


def test_corpus_fixture_is_rediscoverable_from_its_index(corpus):
    fixture = dict(
        (path.name, algebra) for path, algebra in corpus
    )["leibniz_2_1_search.json"]
    spec = SearchSpec((2, 1), coeffs=("0", "1"), suite="leibniz")
    rebuilt = spec.candidate(fixture.metadata["candidate"])
    assert rebuilt.product == fixture.product
    assert rebuilt.alpha == fixture.alpha
    assert all(r.passed for r in hs.check_suite("leibniz", rebuilt))


def test_search_sound_and_complete_over_small_space():
    # Exhaustive audit: an assignment appears in the results iff it passes
    # the suite, over the whole 16-candidate space.
    spec = SearchSpec((1, 1), coeffs=("0", "1"), suite="leibniz")
    outcome = run_search(spec)
    returned = {doc["metadata"]["candidate"] for doc in outcome.documents}
    for index in range(spec.space_size()):
        algebra = spec.candidate(index)
        passes = all(r.passed for r in hs.check_suite("leibniz", algebra))
        assert (index in returned) == passes


def test_parallel_scan_matches_serial(monkeypatch):
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), suite="leibniz")
    serial = run_search(spec)
    monkeypatch.setenv("HOMSUPER_WORKERS", "2")
    parallel = run_search(spec)
    assert [d["product"] for d in serial.documents] == \
        [d["product"] for d in parallel.documents]


def _brute_force(spec):
    """Every passing candidate, from spec.candidate and check_suite on each
    index, as (index, document) pairs."""
    hits = []
    for index in range(spec.space_size()):
        algebra = spec.candidate(index)
        if all(r.passed for r in hs.check_suite(spec.suite, algebra,
                                                first_only=True)):
            algebra.metadata = {"source": "search", "candidate": index,
                                "expected": {spec.suite: True}}
            hits.append((index, algebra_to_document(algebra)))
    return hits


def _expected_outcome(spec, hits):
    """(documents, examined, partial) that run_search must report, with any
    number of workers."""
    size = spec.space_size()
    documents = [doc for _, doc in hits[:spec.max_results]]
    if len(hits) < spec.max_results:
        return documents, size, False
    examined = hits[spec.max_results - 1][0] + 1
    return documents, examined, examined < size


@pytest.mark.parametrize("dims,coeffs,alpha,max_results", [
    ((1, 1), ("-1", "0", "1"), ("0", "-1", "2", "1/2"), 1000),
    ((1, 1), ("1", "2"), ("0", "-1", "2", "1/2"), 1000),
    ((1, 1), ("0", "1", "0"), ("-1", "2"), 1000),
    ((2, 0), ("0", "1"), ("0", "2", "1/2"), 1000),
    ((2, 0), ("1", "-1"), ("-1", "2"), 1000),
    ((0, 2), ("0", "1"), ("0", "-1", "2", "1/2"), 1000),
    ((1, 1), ("-1", "0", "1"), ("0", "-1", "2", "1/2"), 5),
    ((1, 1), ("0", "1", "0"), "id", 3),
])
def test_slot_filtered_scan_matches_brute_force(monkeypatch, dims, coeffs,
                                                alpha, max_results):
    spec = SearchSpec(dims, coeffs=coeffs, alpha=alpha, suite="leibniz",
                      max_results=max_results)
    hits = _brute_force(spec)
    for workers in (1, 2):
        monkeypatch.setenv("HOMSUPER_WORKERS", str(workers))
        documents, examined, partial = _expected_outcome(spec, hits)
        outcome = run_search(spec)
        assert outcome.documents == documents, workers
        assert (outcome.examined, outcome.partial) == (examined, partial)


@pytest.mark.parametrize("dims,coeffs,alpha", [
    ((1, 1), ("-1", "0", "1"), "id"),
    ((2, 0), ("0", "1"), ("0", "-1", "2")),
    ((0, 2), ("1", "1/2"), ("-1", "2")),
])
def test_every_candidate_keeps_the_parity_rule(dims, coeffs, alpha):
    spec = SearchSpec(dims, coeffs=coeffs, alpha=alpha, suite="leibniz")
    for index in range(spec.space_size()):
        assert kernel.check_algebra_grading(spec.candidate(index)).passed, index


def test_scan_skips_the_parity_check(monkeypatch):
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), suite="leibniz")
    assert "grading" in spec.checks()
    hits = _brute_force(spec)

    def refuse(algebra):
        raise AssertionError("checked the parity rule")

    monkeypatch.setattr(kernel, "check_algebra_grading", refuse)
    monkeypatch.setenv("HOMSUPER_WORKERS", "1")
    outcome = run_search(spec)
    assert outcome.documents == [doc for _, doc in hits]
    assert outcome.examined == spec.space_size()


@pytest.mark.parametrize("suite,error", [
    ("bogus", hs.UnknownSuite),
    ("akivis", hs.MissingOpSlot),
])
def test_suite_is_resolved_even_when_every_candidate_is_skipped(suite,
                                                                 error):
    # Under diag(2,2) no slot satisfies d_k = d_i * d_j and the pool has no
    # zero, so the filter rejects every candidate before it is built.
    spec = SearchSpec((1, 1), coeffs=("1",), alpha=("2",), suite=suite)
    with pytest.raises(error):
        run_search(spec)
    assert run_search(SearchSpec((1, 1), coeffs=("1",), alpha=("2",),
                                 suite="leibniz")).examined == 1


def test_suite_passes_stops_at_the_first_failing_check(monkeypatch):
    algebra = SearchSpec((2, 0), coeffs=("0", "1"), alpha=("2", "3"),
                         suite="leibniz").candidate(2 ** 8 + 2 ** 7)
    assert not hs.check_multiplicativity(algebra).passed
    ran = []
    original = identities.check_identity
    monkeypatch.setattr(identities, "check_identity",
                        lambda *a, **k: ran.append(a) or original(*a, **k))
    assert not identities.suite_passes("leibniz", algebra)
    assert ran == []


def test_ternary_law_raises_even_when_no_candidate_reaches_it():
    with pytest.raises(hs.MissingOpSlot):
        run_search(SearchSpec((1, 1), coeffs=("1",), suite="akivis"))


def _hits(*indices):
    return [{"metadata": {"candidate": index}} for index in indices]


def test_parallel_merge_stops_after_the_chunk_that_hit_the_deadline():
    # Three chunks of 100 candidates; the middle one hit the deadline after
    # 40, so the last chunk's hits lie past the scanned prefix.
    starts = [0, 100, 200]
    chunks = [(_hits(5, 80), 100, False), (_hits(130), 40, True),
              (_hits(210, 290), 100, False)]
    assert _merge_chunks(starts, chunks, 10) == (_hits(5, 80, 130), 140, True)
    # A cap reached first ends the merge where a serial scan ends.
    assert _merge_chunks(starts, chunks, 3) == (_hits(5, 80, 130), 131, False)
    assert _merge_chunks(starts, chunks, 2) == (_hits(5, 80), 81, False)
    chunks[1] = (_hits(130), 100, False)
    assert _merge_chunks(starts, chunks, 10) == \
        (_hits(5, 80, 130, 210, 290), 300, False)
