import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import identities, kernel, search
from homsuper.search import SearchSpec, SearchSpaceError, run_search
from homsuper.serialize import algebra_to_document
import naive


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


def test_negative_budget_is_refused():
    with pytest.raises(SearchSpaceError, match="budget"):
        SearchSpec((1, 1), budget_ms=-5)
    with pytest.raises(SearchSpaceError, match="budget"):
        SearchSpec((1, 1), budget_ms=-0.5)
    assert SearchSpec((1, 1), budget_ms=0).budget_ms == 0


@pytest.mark.parametrize("budget_ms", ["5", True, False, 2.5, 1.0, [5]])
def test_non_integral_budgets_are_refused(budget_ms):
    with pytest.raises(SearchSpaceError, match="budget"):
        SearchSpec((1, 1), budget_ms=budget_ms)


def test_integral_budgets_are_kept():
    for budget_ms in (None, 0, 5, 10 ** 9):
        assert SearchSpec((1, 1), budget_ms=budget_ms).budget_ms == budget_ms


def test_search_space_bound(monkeypatch):
    monkeypatch.setattr(search, "DEFAULT_MAX_SPACE", 1000)
    spec = SearchSpec((2, 2), coeffs=("-1", "0", "1"))
    with pytest.raises(SearchSpaceError):
        run_search(spec)


def test_space_size_counts_the_allowed_slots(monkeypatch):
    monkeypatch.setattr(search, "DEFAULT_MAX_SPACE", 10 ** 30)
    for dims in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        slots = search._allowed_slots(hs.SuperSpace(*dims))
        spec = SearchSpec(dims, coeffs=("0", "1"), alpha=("1", "2", "3"))
        assert spec.space_size() == 3 ** sum(dims) * 2 ** len(slots), dims
        assert spec.slots == slots


@pytest.mark.parametrize("kwargs,message", [
    ({"coeffs": ("1/0",)}, "coefficient '1/0' is not a rational number"),
    ({"coeffs": ("x",)}, "coefficient 'x' is not a rational number"),
    ({"coeffs": (0.5,)}, "coefficient 0.5 is not a rational number"),
    ({"coeffs": ("1e5",)}, "coefficient '1e5' is not a rational number"),
    ({"coeffs": ()}, "empty coefficient list"),
    ({"alpha": ()}, "empty diagonal list"),
    ({"alpha": ("1/0",)}, "diagonal '1/0' is not a rational number"),
    ({"alpha": ("2", None)}, "diagonal None is not a rational number"),
    ({"coeffs": (True, 0)}, "coefficient True is not a rational number"),
    ({"alpha": ("1", False)}, "diagonal False is not a rational number"),
])
def test_malformed_pools_are_refused(kwargs, message):
    with pytest.raises(SearchSpaceError) as info:
        SearchSpec((1, 1), **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("dims,max_results", [
    ((1.5, 1), 1), ((True, 1), 1), ((1, "1"), 1), ((1, 1, 1), 1), ((1,), 1),
    ((1, 1), 2.7), ((1, 1), True), ((1, 1), "3"),
])
def test_non_integral_dimensions_and_caps_are_refused(dims, max_results):
    with pytest.raises(SearchSpaceError, match="integer"):
        SearchSpec(dims, max_results=max_results)


@pytest.mark.parametrize("suite,dims,max_results", [
    (suite, dims, max_results)
    for suite in ("leibniz", "lie", "all", "LLSI")
    for dims in ((1, 1), (2, 0))
    for max_results in (10 ** 6, 2)
])
def test_identity_alpha_is_the_diagonal_pool_of_one(suite, dims,
                                                    max_results):
    # With and without a cap that stops the scan mid-space.
    by_name, by_pool = (
        run_search(SearchSpec(dims, coeffs=("-1", "0", "1"), alpha=alpha,
                              suite=suite, max_results=max_results))
        for alpha in ("id", ("1",)))
    assert by_name.documents == by_pool.documents
    assert (by_name.examined, by_name.partial) == \
        (by_pool.examined, by_pool.partial)
    assert by_name.partial == (max_results == 2)


def test_oversize_space_is_refused_before_a_slot_is_built(monkeypatch):
    def refuse(space):
        raise AssertionError("built the slots of %r" % (space,))

    monkeypatch.setattr(search, "_allowed_slots", refuse)
    spec = SearchSpec((100, 0), coeffs=("-1", "0", "1"))
    with pytest.raises(SearchSpaceError, match="more than 10000000 cand"):
        spec.space_size()
    with pytest.raises(SearchSpaceError):
        spec.slots
    with pytest.raises(SearchSpaceError):
        run_search(spec)
    # One coefficient makes a single candidate, but it has 10^18 constants.
    spec = SearchSpec((10 ** 6, 0), coeffs=("0",))
    with pytest.raises(SearchSpaceError, match="free constants"):
        spec.space_size()


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
    last = spec.space_size() - 1
    assert spec.candidate(last - 1).alpha is spec.candidate(last).alpha


@pytest.mark.parametrize("alpha", ["id", ("0", "2", "-1")])
def test_candidate_refuses_an_index_outside_the_space(alpha):
    spec = SearchSpec((1, 0), coeffs=["0", "1"], alpha=alpha)
    size = spec.space_size()
    assert spec.candidate(size - 1).name == "search_1_0_%d" % (size - 1)
    for index in (-1, size, 99):
        with pytest.raises(IndexError, match=r"outside 0\.\.%d" % (size - 1)):
            spec.candidate(index)


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_candidate_refuses_an_index_that_is_not_an_int(index):
    spec = SearchSpec((1, 0), coeffs=["0", "1"])
    with pytest.raises(TypeError, match=r"^candidate index %s is not an "
                       r"integer$" % re.escape(repr(index))):
        spec.candidate(index)
    assert spec.candidate(1).name == "search_1_0_1"
    with pytest.raises(IndexError, match=r"^candidate index 2 is outside "
                       r"0\.\.1$"):
        spec.candidate(2)


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


def _brute_force(spec):
    """Every passing candidate, from spec.candidate and each check of the
    suite, stopping at its first counterexample, on each index, as (index,
    document) pairs."""
    hits = []
    for index in range(spec.space_size()):
        algebra = spec.candidate(index)
        if all(identities._run_check(check, algebra, first_only=True).passed
               for check in identities.resolve_suite(spec.suite, algebra)):
            algebra.metadata = {"source": "search", "candidate": index,
                                "expected": {spec.suite: True}}
            hits.append((index, algebra_to_document(algebra)))
    return hits


def _expected_outcome(spec, hits):
    """(documents, examined, partial) that run_search must report."""
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
def test_slot_filtered_scan_matches_brute_force(dims, coeffs, alpha,
                                                max_results):
    _assert_scan_matches_brute_force(SearchSpec(
        dims, coeffs=coeffs, alpha=alpha, suite="leibniz",
        max_results=max_results))


@pytest.mark.parametrize("suite,dims,coeffs,alpha,max_results", [
    ("lie", (1, 1), ("-1", "0", "1"), ("0", "-1", "2", "1/2"), 1000),
    ("lie", (2, 0), ("-1", "0", "1"), "id", 1000),
    ("lie", (1, 1), ("-1", "0", "1"), "id", 2),
    ("all", (1, 1), ("-1", "0", "1"), ("0", "-1", "2"), 1000),
    ("all", (2, 0), ("0", "1"), "id", 1000),
    ("all", (0, 2), ("1", "0"), ("-1", "2"), 3),
    ("leibniz", (2, 0), ("-1", "0", "1"), "id", 7),
    ("leibniz", (1, 1), ("-1", "0", "1"), "id", 1),
])
def test_witness_scan_matches_brute_force(suite, dims, coeffs, alpha,
                                          max_results):
    # The witnesses of every law of the suite, and the identity alpha,
    # with and without a cap that stops the scan mid-space.
    _assert_scan_matches_brute_force(SearchSpec(
        dims, coeffs=coeffs, alpha=alpha, suite=suite,
        max_results=max_results))


def _assert_scan_matches_brute_force(spec):
    documents, examined, partial = _expected_outcome(spec, _brute_force(spec))
    outcome = run_search(spec)
    assert outcome.documents == documents
    assert (outcome.examined, outcome.partial) == (examined, partial)


def _first_counterexample(law, algebra):
    """The binding of a law's first failing basis tuple, or None."""
    report = identities.check_identity(law, algebra, first_only=True)
    if report.passed:
        return None
    labels = algebra.space.labels
    return dict(zip(law.variables, (labels.index(label) for label in
                                    report.counterexamples[0]["tuple"])))


@pytest.mark.parametrize("suite,alpha", [
    ("leibniz", "id"), ("lie", "id"), ("all", ("0", "-1", "2")),
])
def test_witnesses_keep_every_verdict(suite, alpha):
    # One witness dict across the whole space, as run_search keeps it: the
    # verdict of every candidate is the verdict without witnesses, and a
    # law's witness is always the first counterexample of the candidate
    # that stored it.
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), alpha=alpha,
                      suite=suite)
    checks = [c for c in spec.checks() if c in identities.REGISTRY]
    witnesses = {}
    verdicts = set()
    for index in range(spec.space_size()):
        algebra = spec.candidate(index)
        before = dict(witnesses)
        verdict = identities.suite_passes(checks, algebra, witnesses)
        assert verdict == identities.suite_passes(checks, algebra), index
        verdicts.add(verdict)
        if verdict:
            assert witnesses == before, index
        for name, binding in witnesses.items():
            if before.get(name) != binding:
                assert binding == _first_counterexample(
                    identities.REGISTRY[name], algebra), index
    assert verdicts == {True, False}
    assert witnesses


def test_a_failing_scan_replaces_the_witness_and_a_hit_keeps_it(
        monkeypatch):
    space = hs.SuperSpace(2, 0)
    identity = hs.EvenMap.identity(space)

    def algebra(entries):
        return hs.HomSuperalgebra(space, hs.BilinearOp(space, entries=entries),
                                  identity)

    llsi = identities.REGISTRY["LLSI"]
    # b1*b1 = b1 + b2 fails LLSI first at (b1, b1, b1).
    first = algebra({(0, 0, 0): 1, (0, 0, 1): 1})
    witnesses = {}
    assert not identities.suite_passes(["LLSI"], first, witnesses)
    assert witnesses == {"LLSI": {"x": 0, "y": 0, "z": 0}}
    assert witnesses["LLSI"] == _first_counterexample(llsi, first)
    # b1*b1 = b2 passes: the witness tuple does not refute it, the scan
    # runs and finds nothing, and the witness stays.
    hit = algebra({(0, 0, 1): 1})
    assert identities.suite_passes(["LLSI"], hit, witnesses)
    assert witnesses == {"LLSI": {"x": 0, "y": 0, "z": 0}}
    # b2*b2 = b1 + b2 vanishes at (b1, b1, b1) but fails later: the scan
    # finds its first counterexample, which replaces the witness.
    later = algebra({(1, 1, 0): 1, (1, 1, 1): 1})
    assert identities.eval_identity_on_tuple(
        llsi, later, {"x": 0, "y": 0, "z": 0}).is_zero()
    assert not identities.suite_passes(["LLSI"], later, witnesses)
    assert witnesses["LLSI"] == _first_counterexample(llsi, later)
    assert witnesses["LLSI"] != {"x": 0, "y": 0, "z": 0}
    # Now the witness refutes the same candidate without a scan.
    ran = []
    original = identities.check_identity
    monkeypatch.setattr(identities, "check_identity",
                        lambda *a, **k: ran.append(a) or original(*a, **k))
    assert not identities.suite_passes(["LLSI"], later, witnesses)
    assert ran == []
    # A witness of a law outside the suite is not evaluated: b1*b1 = b2
    # fails SKEW_SUPER at (b1, b1) and passes LLSI.
    witnesses = {"SKEW_SUPER": {"x": 0, "y": 0}}
    assert identities.suite_passes(["LLSI"], hit, witnesses)
    assert not identities.suite_passes(["SKEW_SUPER"], hit, witnesses)


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
    outcome = run_search(spec)
    assert outcome.documents == [doc for _, doc in hits]
    assert outcome.examined == spec.space_size()


def test_filtered_scan_skips_the_multiplicativity_check(monkeypatch):
    # Under a diagonal alpha, multiplicativity is c_ijk (d_k - d_i d_j) = 0,
    # which the slot filter already guarantees for every candidate it builds.
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"),
                      alpha=("0", "-1", "2", "1/2"), suite="leibniz",
                      max_results=1000)
    assert "multiplicativity" in spec.checks()
    hits = _brute_force(spec)
    assert 0 < len(hits) < spec.space_size()

    def refuse(algebra):
        raise AssertionError("checked multiplicativity")

    monkeypatch.setattr(kernel, "check_multiplicativity", refuse)
    outcome = run_search(spec)
    assert outcome.documents == [doc for _, doc in hits]
    assert outcome.examined == spec.space_size()


def test_identity_alpha_scan_skips_the_multiplicativity_check(monkeypatch):
    # The identity map is an endomorphism of every product, so every
    # candidate of an id-alpha scan is multiplicative.
    spec = SearchSpec((1, 1), coeffs=("-1", "0", "1"), alpha="id",
                      suite="leibniz", max_results=1000)
    assert "multiplicativity" in spec.checks()
    hits = _brute_force(spec)
    assert 0 < len(hits) < spec.space_size()

    def refuse(algebra):
        raise AssertionError("checked multiplicativity")

    monkeypatch.setattr(kernel, "check_multiplicativity", refuse)
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


# Small pool values, with zero, so that both hits and misses occur.
_POOL = st.sampled_from(["-1", "0", "1", "2", "1/2", "-2"])


def _naive_multiplicative(table, rows):
    n = len(rows)
    return all(naive.amap(rows, naive.mul(table, naive.basis(n, i),
                                          naive.basis(n, j)))
               == naive.mul(table, naive.amap(rows, naive.basis(n, i)),
                            naive.amap(rows, naive.basis(n, j)))
               for i in range(n) for j in range(n))


def _naive_leibniz(algebra):
    n = algebra.space.dim
    return all(not any(naive.llsi_residual(algebra, i, j, k))
               for i, j, k in itertools.product(range(n), repeat=3))


def _naive_lie(algebra):
    n = algebra.space.dim
    return all(not any(naive.skew_residual(algebra, i, j))
               for i, j in itertools.product(range(n), repeat=2)) and all(
        not any(naive.jacobi_residual(algebra, i, j, k))
        for i, j, k in itertools.product(range(n), repeat=3))


# The naive verdict on the laws of each suite besides multiplicativity.
_NAIVE_SUITES = {"leibniz": _naive_leibniz, "lie": _naive_lie}


@st.composite
def _small_plans(draw):
    """(dims, coeffs, alpha, suite) over at most 2,304 candidates: (1|1)
    with pools of 2 or 3 values, (2|0) with 2 coefficients (3 make 6,561
    candidates per alpha, too many for the oracle here)."""
    dims = draw(st.sampled_from([(1, 1), (2, 0)]))
    coeffs = draw(st.lists(_POOL, min_size=2,
                           max_size=3 if dims == (1, 1) else 2))
    alpha = draw(st.one_of(st.just("id"),
                           st.lists(_POOL, min_size=2, max_size=3)))
    return dims, coeffs, alpha, draw(st.sampled_from(sorted(_NAIVE_SUITES)))


@settings(max_examples=15, deadline=None)
@given(_small_plans())
@example(((1, 1), ["0", "1", "-1"], ["0", "-1", "2"], "leibniz"))
@example(((2, 0), ["1", "0"], "id", "leibniz"))
@example(((1, 1), ["0", "1", "-1"], ["0", "-1", "2"], "lie"))
@example(((2, 0), ["0", "1"], ["1", "-1", "2"], "lie"))
def test_search_hits_are_the_candidates_the_naive_oracle_accepts(plan):
    # The witness path on SKEW_SUPER and HOM_SUPER_JACOBI (the lie suite)
    # and on LLSI, against oracles that share no code with the package.
    dims, coeffs, alpha, suite = plan
    spec = SearchSpec(dims, coeffs=coeffs, alpha=alpha, suite=suite,
                      max_results=10 ** 6)
    want = []
    for index in range(spec.space_size()):
        algebra = spec.candidate(index)
        table, rows = algebra.product.table, algebra.alpha.rows
        if (_naive_multiplicative(table, rows)
                and _NAIVE_SUITES[suite](algebra)):
            want.append(index)
    outcome = run_search(spec)
    assert [doc["metadata"]["candidate"] for doc in outcome.documents] == want
    assert (outcome.examined, outcome.partial) == (spec.space_size(), False)
