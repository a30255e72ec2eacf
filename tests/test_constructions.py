import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import constructions, identities
from homsuper.search import SearchSpec, run_search
from conftest import (
    RATIONALS,
    graded_algebras,
    make_algebra,
    non_admissible_witnesses,
)
import naive


def test_supercommutator_examples(a2b, f2e):
    zero = make_algebra(1, 1, {})
    assert hs.supercommutator(zero).is_zero()

    # Even diagonal square cancels.
    assert hs.supercommutator(a2b).is_zero()

    # Odd square doubles: [f,f] = f*f + f*f = 2e.
    bracket = hs.supercommutator(f2e)
    assert bracket.on_basis(1, 1) == f2e.space.basis_vector(0).scale(2)


def test_supercommutator_is_graded_skew(corpus):
    for _, algebra in corpus:
        if algebra.kind != "hom_superalgebra":
            continue
        sp = algebra.space
        bracket = hs.supercommutator(algebra)
        for i, j in itertools.product(range(sp.dim), repeat=2):
            sign = -1 if sp.parity(i) and sp.parity(j) else 1
            assert bracket.on_basis(i, j) == \
                bracket.on_basis(j, i).scale(-sign)


def test_hom_associator_examples(a2b):
    # A twisted-associative input has a vanishing associator.
    sp = hs.SuperSpace(2, 0)
    assoc_prod = hs.BilinearOp(sp, entries={(0, 0, 0): 1})
    associative = hs.HomSuperalgebra(sp, assoc_prod,
                                     hs.EvenMap.identity(sp))
    assert hs.hom_associator(associative).is_zero()

    # as(a,a,a) = b*a - a*b = 0 for a*a=b.
    assert hs.hom_associator(a2b).on_basis(0, 0, 0).is_zero()


def test_hom_associator_matches_naive_on_all_triples():
    algebra = make_algebra(1, 1, {(1, 1, 0): 1, (0, 1, 1): 1},
                           name="f2e_ef")
    assoc = hs.hom_associator(algebra)
    n = algebra.space.dim
    for combo in itertools.product(range(n), repeat=3):
        assert list(assoc.on_basis(*combo).coords) == \
            naive.associator(algebra, *combo)


def test_hom_super_jacobian_examples(a2b):
    zero = make_algebra(1, 1, {})
    assert hs.hom_super_jacobian(zero).is_zero()

    # The commutator of a*a=b is zero, so its Jacobian vanishes too.
    bracket_algebra = hs.HomSuperalgebra(a2b.space, hs.supercommutator(a2b),
                                         a2b.alpha)
    assert hs.hom_super_jacobian(bracket_algebra).is_zero()


def test_hom_super_jacobian_reduces_to_ungraded_on_even_part():
    algebra = make_algebra(2, 0, {(0, 1, 1): 1, (1, 0, 1): -1})
    jac = hs.hom_super_jacobian(algebra)
    n = algebra.space.dim
    for combo in itertools.product(range(n), repeat=3):
        assert list(jac.on_basis(*combo).coords) == \
            naive.jacobi_residual(algebra, *combo)


def test_hom_super_jacobian_matches_naive_with_odd_part():
    algebra = make_algebra(1, 1, {(1, 1, 0): 1, (0, 1, 1): 2},
                           alpha=[1, -1])
    jac = hs.hom_super_jacobian(algebra)
    n = algebra.space.dim
    for combo in itertools.product(range(n), repeat=3):
        assert list(jac.on_basis(*combo).coords) == \
            naive.jacobi_residual(algebra, *combo)


def test_build_hom_akivis_zero_and_basic(a2b):
    zero = make_algebra(1, 1, {})
    derived = hs.build_hom_akivis(zero)
    assert derived.binary.is_zero() and derived.ternary.is_zero()

    derived = hs.build_hom_akivis(a2b)
    assert all(r.passed for r in hs.check_suite("akivis", derived))


def test_build_hom_akivis_refuses_non_multiplicative():
    bad = make_algebra(2, 0, {(0, 0, 1): 1}, alpha=[2, 3])
    with pytest.raises(hs.PreconditionError):
        hs.build_hom_akivis(bad)


def test_build_hom_akivis_on_random_multiplicative_inputs():
    rng = random.Random(7)
    for _ in range(25):
        de, do = rng.choice([(1, 1), (2, 1), (2, 2)])
        sp = hs.SuperSpace(de, do)
        entries = {}
        for i, j, k in itertools.product(range(sp.dim), repeat=3):
            if (sp.parity(i) + sp.parity(j)) % 2 != sp.parity(k):
                continue
            value = rng.choice([-2, -1, 0, 0, 1, 2])
            if value:
                entries[(i, j, k)] = value
        algebra = hs.HomSuperalgebra(sp, hs.BilinearOp(sp, entries=entries),
                                     hs.EvenMap.identity(sp))
        derived = hs.build_hom_akivis(algebra, verify=False)
        assert all(r.passed for r in hs.check_suite("akivis", derived))


def test_check_lie_admissible_examples(a2b, corpus_leibniz):
    zero = make_algebra(1, 1, {})
    assert hs.check_lie_admissible(zero).passed
    assert hs.check_lie_admissible(a2b).passed

    for _, algebra in corpus_leibniz:
        verdict = hs.check_lie_admissible(algebra).passed
        bracket_algebra = hs.HomSuperalgebra(
            algebra.space, hs.supercommutator(algebra), algebra.alpha)
        jacobi = hs.check_identity(hs.REGISTRY["HOM_SUPER_JACOBI"],
                                   bracket_algebra).passed
        assert verdict == jacobi


def test_non_admissible_witnesses_fail_both_criteria():
    # Left Leibniz, not Lie admissible, and the commutator algebra fails
    # HOM_SUPER_JACOBI at the same tuple: the criterion agrees on a FAIL.
    source, twisted = non_admissible_witnesses()
    assert twisted.alpha == hs.EvenMap.diagonal(source.space, [4, 4, 8, 2])
    for algebra, residual in ((source, 6), (twisted, 384)):
        assert all(r.passed for r in hs.check_suite("leibniz", algebra))
        report = hs.check_lie_admissible(algebra)
        assert not report.passed and report.checked == 4 ** 3
        assert report.counterexamples == [
            {"tuple": ["b4", "b4", "b4"], "residual": {"b3": str(-residual)}}]
        bracket_algebra = hs.HomSuperalgebra(
            algebra.space, hs.supercommutator(algebra), algebra.alpha)
        jacobi = hs.check_identity(hs.REGISTRY["HOM_SUPER_JACOBI"],
                                   bracket_algebra)
        assert jacobi.counterexamples == [
            {"tuple": ["b4", "b4", "b4"], "residual": {"b3": str(residual)}}]


def test_check_lie_admissible_requires_leibniz():
    bad = make_algebra(2, 0, {(0, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(hs.PreconditionError):
        hs.check_lie_admissible(bad)


def test_left_to_right_examples():
    symmetric = make_algebra(2, 0, {(0, 0, 1): 1})
    assert hs.left_to_right(symmetric).product == symmetric.product

    skew = make_algebra(2, 0, {(0, 1, 1): 1, (1, 0, 1): -1})
    flipped = hs.left_to_right(skew)
    assert flipped.product.on_basis(0, 1) == \
        skew.space.basis_vector(1).scale(-1)
    assert hs.left_to_right(flipped).product == skew.product


def test_left_to_right_duality_on_corpus(corpus):
    for _, algebra in corpus:
        if algebra.kind != "hom_superalgebra":
            continue
        left = hs.check_identity(hs.REGISTRY["LLSI"], algebra).passed
        right = hs.check_identity(hs.REGISTRY["RLSI"],
                                  hs.left_to_right(algebra)).passed
        assert left == right


def test_build_hom_ly_examples(a2b):
    zero = make_algebra(1, 1, {})
    derived = hs.build_hom_ly(zero)
    assert derived.binary.is_zero() and derived.ternary.is_zero()

    derived = hs.build_hom_ly(a2b)
    # {a,a,.} = -(a*a)*alpha(.) = -b*(.) = 0 since b annihilates.
    n = a2b.space.dim
    for k in range(n):
        assert derived.ternary.on_basis(0, 0, k).is_zero()
    assert all(r.passed for r in hs.check_suite("ly", derived))


def test_repr_names_the_objects_own_class():
    zero = make_algebra(0, 0, {})
    assert repr(zero) == "HomSuperalgebra(SuperSpace(0, 0))"
    derived = hs.build_hom_ly(zero)
    assert repr(derived) == (
        "BinaryTernaryAlgebra(SuperSpace(0, 0), name='ly(?)')")


def test_build_hom_ly_on_twisted_input(a2b):
    twisted = hs.yau_twist(a2b, hs.EvenMap.diagonal(a2b.space, [2, 4]))
    derived = hs.build_hom_ly(twisted)
    assert all(r.passed for r in hs.check_suite("ly", derived))


def test_build_hom_ly_refuses_bad_input():
    non_leibniz = make_algebra(2, 0, {(0, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(hs.PreconditionError):
        hs.build_hom_ly(non_leibniz)
    non_mult = make_algebra(2, 0, {(0, 0, 1): 1}, alpha=[2, 3])
    with pytest.raises(hs.PreconditionError):
        hs.build_hom_ly(non_mult)


def test_ternary_matches_definition(corpus_leibniz):
    # {x,y,z} = -(x*y)*a(z) entry by entry against an independent route.
    for _, algebra in corpus_leibniz:
        derived = hs.build_hom_ly(algebra, verify=False)
        sp = algebra.space
        n = sp.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            xy = naive.mul(algebra.product.table, naive.basis(n, i),
                           naive.basis(n, j))
            want = naive.smul(Fraction(-1), naive.mul(
                algebra.product.table, xy,
                naive.amap(algebra.alpha.rows, naive.basis(n, k))))
            assert list(derived.ternary.on_basis(i, j, k).coords) == want


def test_check_ternary_equivalence_on_corpus(corpus_leibniz):
    zero = make_algebra(1, 1, {})
    assert hs.check_ternary_equivalence(zero).passed
    for _, algebra in corpus_leibniz:
        report = hs.check_ternary_equivalence(algebra)
        assert report.passed, report.summary()


def test_check_ternary_equivalence_refuses_non_leibniz():
    non_leibniz = make_algebra(2, 0, {(0, 0, 0): 1, (0, 0, 1): 1})
    assert not hs.check_identity(hs.REGISTRY["LLSI"], non_leibniz).passed
    with pytest.raises(hs.PreconditionError):
        hs.check_ternary_equivalence(non_leibniz)


def test_yau_twist_examples(a2b, f2e):
    unchanged = hs.yau_twist(a2b, hs.EvenMap.identity(a2b.space))
    assert unchanged.product == a2b.product

    twisted = hs.yau_twist(a2b, hs.EvenMap.diagonal(a2b.space, [2, 4]))
    assert twisted.product.on_basis(0, 0) == \
        a2b.space.basis_vector(1).scale(4)
    assert all(r.passed for r in hs.check_suite("leibniz", twisted))

    twisted_f = hs.yau_twist(f2e, hs.EvenMap.diagonal(f2e.space, [4, 2]))
    assert twisted_f.product.on_basis(1, 1) == \
        f2e.space.basis_vector(0).scale(4)
    assert all(r.passed for r in hs.check_suite("leibniz", twisted_f))


def test_yau_twist_rejects_non_endomorphism(a2b):
    with pytest.raises(hs.PreconditionError):
        hs.yau_twist(a2b, hs.EvenMap.diagonal(a2b.space, [2, 3]))


def test_yau_twist_rejects_twisted_source(a2b):
    twisted = hs.yau_twist(a2b, hs.EvenMap.diagonal(a2b.space, [2, 4]))
    with pytest.raises(hs.PreconditionError):
        hs.yau_twist(twisted, hs.EvenMap.identity(a2b.space))


def test_ly_with_zero_binary_is_triple_system_shape(a2b):
    # A commutator that vanishes leaves a pure ternary structure; the suite
    # still passes (binary axioms hold trivially).
    derived = hs.build_hom_ly(a2b)
    assert derived.binary.is_zero()
    assert all(r.passed for r in hs.check_suite("ly", derived))


def test_translation_laws_hold_on_every_leibniz_fixture(corpus_leibniz):
    # Symmetrized products kill alpha-translations, and left translations
    # act as twisted derivations of the bracket, on every Leibniz fixture.
    for _, algebra in corpus_leibniz:
        assert hs.check_identity(hs.REGISTRY["PROP32_I"], algebra).passed
        assert hs.check_identity(hs.REGISTRY["PROP32_II"], algebra).passed


def test_eq12_holds_on_leibniz_sources_only(corpus):
    for _, algebra in corpus:
        if algebra.kind != "hom_superalgebra":
            continue
        leibniz = all(r.passed for r in hs.check_suite("leibniz", algebra))
        eq12 = hs.check_identity(hs.REGISTRY["AKIVIS_LEIBNIZ_FORM"],
                                 algebra).passed
        if leibniz:
            assert eq12
        else:
            assert not eq12

def _basis_tables(algebra, arity, value):
    """value(i, j, ...) over every basis tuple, as naive vectors."""
    n = algebra.space.dim
    return {combo: value(*combo)
            for combo in itertools.product(range(n), repeat=arity)}


@settings(max_examples=60, deadline=None)
@given(st.one_of(graded_algebras(), graded_algebras(RATIONALS)))
def test_bracket_matches_the_naive_commutator(algebra):
    # The one bracket: the "[,]" slot of a plain algebra, built from the
    # COMMUTATOR template, against the commutator summed basis pair by
    # basis pair, on every parity sector and with rational constants.
    bracket = identities.Evaluator(algebra).op("[,]")
    assert bracket is hs.supercommutator(algebra)
    assert [[list(row) for row in block] for block in bracket.table] == \
        naive.commutator(algebra)


@settings(max_examples=40, deadline=None)
@given(graded_algebras())
def test_ternary_equivalence_lists_every_failing_triple(algebra):
    # The report merges the residuals of two laws.  On an algebra that is
    # not left Leibniz (its verdicts forced, to pass the precondition) it
    # lists, in order, every triple where either law fails.
    algebra._multiplicative = algebra._left_leibniz = True
    labels = algebra.space.labels
    n = algebra.space.dim
    expected = []
    for combo in itertools.product(range(n), repeat=3):
        env = dict(zip("xyz", combo))
        residual = hs.eval_identity_on_tuple(identities.TERNARY_EQ_DEF,
                                             algebra, env)
        half = hs.eval_identity_on_tuple(identities.TERNARY_EQ_HALF,
                                         algebra, env)
        if not (residual.is_zero() and half.is_zero()):
            expected.append({"tuple": [labels[i] for i in combo],
                             "residual": dict(residual.nonzero_items()),
                             "residual_half": dict(half.nonzero_items())})
    report = hs.check_ternary_equivalence(algebra)
    assert json.dumps(report.counterexamples) == json.dumps(expected)
    assert report.passed == (not expected) and report.checked == n ** 3


def _op_tables(op, arity):
    n = op.space.dim
    return {combo: list(op.on_basis(*combo).coords)
            for combo in itertools.product(range(n), repeat=arity)}


@settings(max_examples=40, deadline=None)
@given(graded_algebras())
def test_associator_and_jacobian_match_naive(algebra):
    assert _op_tables(hs.hom_associator(algebra), 3) == _basis_tables(
        algebra, 3, lambda *c: naive.associator(algebra, *c))
    assert _op_tables(hs.hom_super_jacobian(algebra), 3) == _basis_tables(
        algebra, 3, lambda *c: naive.jacobi_residual(algebra, *c))


@functools.lru_cache(maxsize=None)
def _twist_sources():
    """(left Leibniz algebra with the identity map, diagonal endomorphism)
    pairs: the untwisted Leibniz fixtures and the (2|0) search hits over
    -1, 0, 1, each with every diagonal endomorphism over -1, 0, 1, 2, 4.
    Most of these are nilpotent, so the second list keeps the pairs whose
    twist has a nonzero LY ternary."""
    sources = [hs.load_algebra(path) for path in hs.corpus_paths()]
    spec = SearchSpec((2, 0), coeffs=("-1", "0", "1"), max_results=10 ** 6)
    sources += [spec.candidate(doc["metadata"]["candidate"])
                for doc in run_search(spec).documents]
    pairs = []
    for source in sources:
        if not (source.alpha.is_identity()
                and all(r.passed for r in hs.check_suite("leibniz", source))):
            continue
        space = source.space
        for diagonal in itertools.product((-1, 0, 1, 2, 4), repeat=space.dim):
            beta = hs.EvenMap.diagonal(space, diagonal)
            probe = hs.HomSuperalgebra(space, source.product, beta)
            if hs.check_multiplicativity(probe).passed:
                pairs.append((source, beta))
    ternary = [pair for pair in pairs if not hs.build_hom_ly(
        hs.yau_twist(*pair), verify=False).ternary.is_zero()]
    return pairs, ternary


def _transvection(space, a, b, c):
    rows = [[int(i == k) for k in range(space.dim)] for i in range(space.dim)]
    rows[a][b] = c
    return hs.EvenMap(space, rows)


@st.composite
def twist_cases(draw):
    """A source and an endomorphism from _twist_sources, carried over by an
    even change of basis p: x *' y = p^-1(p(x) * p(y)), beta' = p^-1 beta p.
    Inside a parity block of size 2, beta' is in general not diagonal.
    Half the draws come from the pairs with a nonzero LY ternary."""
    pairs, ternary = _twist_sources()
    source, beta = draw(st.sampled_from(ternary if draw(st.booleans())
                                        else pairs))
    space = source.space
    pairs = [(a, b) for a, b in itertools.permutations(range(space.dim), 2)
             if space.parity(a) == space.parity(b)]
    p = q = hs.EvenMap.identity(space)
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3)
                     if pairs else st.just([])):
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        p = p.compose(_transvection(space, a, b, c))
        q = _transvection(space, a, b, -c).compose(q)
    n = space.dim
    entries = {}
    for i, j in itertools.product(range(n), repeat=2):
        image = q(source.product(p.on_basis(i), p.on_basis(j)))
        for k, c in enumerate(image.coords):
            entries[i, j, k] = c
    moved = hs.HomSuperalgebra(space, hs.BilinearOp(space, entries=entries),
                               source.alpha)
    return moved, q.compose(beta.compose(p))


def _assert_twist_matches_naive(source, beta):
    n = source.space.dim
    c = source.product.table
    twisted = hs.yau_twist(source, beta)
    assert _op_tables(twisted.product, 2) == _basis_tables(
        source, 2, lambda i, j: naive.amap(
            beta.rows, naive.mul(c, naive.basis(n, i), naive.basis(n, j))))
    # The twisted product is left Leibniz, with beta as its map.
    t = twisted.product.table
    ternary = hs.build_hom_ly(twisted, verify=False).ternary
    assert _op_tables(ternary, 3) == _basis_tables(
        source, 3, lambda i, j, k: naive.smul(-1, naive.mul(
            t, naive.mul(t, naive.basis(n, i), naive.basis(n, j)),
            naive.amap(beta.rows, naive.basis(n, k)))))


@settings(max_examples=40, deadline=None)
@given(twist_cases())
def test_yau_twist_and_ly_ternary_match_naive(case):
    _assert_twist_matches_naive(*case)


def test_yau_twist_by_a_swap_matches_naive():
    # Two copies of aff2 swapped by beta: beta^2 = id differs from beta on
    # the products, which no endomorphism of a 2-dimensional source shows.
    double = make_algebra(4, 0, {(0, 1, 1): 1, (1, 0, 1): -1,
                                 (2, 3, 3): 1, (3, 2, 3): -1})
    swap = hs.EvenMap(double.space, [[int(k == (i + 2) % 4)
                                      for k in range(4)] for i in range(4)])
    _assert_twist_matches_naive(double, swap)


def _llsi_counter(monkeypatch):
    """Count the LLSI evaluations per algebra object from now on: the
    constructions read every law from its tensor, `identities.residuals`.
    The counts are keyed by the object, not its id(), so that each counted
    algebra stays alive and no later one can reuse its id."""
    counts = Counter()
    original = identities.residuals

    def counting(identity, algebra, *args, **kwargs):
        if identity is hs.REGISTRY["LLSI"]:
            counts[algebra] += 1
        return original(identity, algebra, *args, **kwargs)

    monkeypatch.setattr(identities, "residuals", counting)
    return counts


def _derive_outcome(algebra, call):
    try:
        result = call(algebra)
    except hs.PreconditionError as exc:
        return "refused: %s" % exc
    if isinstance(result, hs.Report):
        return result.to_dict(cap=None)
    return (result.binary.constants, result.ternary.constants)


def test_left_leibniz_verdict_is_checked_once_per_algebra(monkeypatch):
    calls = (hs.build_hom_ly, hs.check_lie_admissible,
             hs.check_ternary_equivalence)
    paths = hs.corpus_paths()
    # Each call on a fresh algebra, before the cache exists.
    fresh = [[_derive_outcome(hs.load_algebra(path), call) for call in calls]
             for path in paths]
    counts = _llsi_counter(monkeypatch)
    for path, want in zip(paths, fresh):
        algebra = hs.load_algebra(path)
        if algebra.kind != "hom_superalgebra":
            continue
        assert algebra.left_leibniz is None
        assert [_derive_outcome(algebra, call) for call in calls] == want
        if algebra.left_leibniz:
            assert counts[algebra] == 1, path
        else:
            # A refusal checks again, to name its counterexample.
            assert algebra.left_leibniz is False
            assert all(out.startswith("refused") for out in want)


def test_supercommutator_is_the_cached_bracket(a2b):
    bracket = identities.Evaluator(a2b).op("[,]")
    assert hs.supercommutator(a2b) is bracket
    assert hs.build_hom_ly(a2b).binary is bracket


def _corpus_f2e():
    path, = [p for p in hs.corpus_paths() if p.name == "leibniz_f2_e.json"]
    return hs.load_algebra(path)


def test_binary_ternary_bracket_is_the_binary_operation(tmp_path):
    # The saved LY algebra of leibniz_f2_e: its "[,]" is the binary
    # operation itself, and what the constructions derive from it is the
    # commutator of its "*", which is twice the (supercommutative)
    # binary operation.
    saved = hs.save_algebra(hs.build_hom_ly(_corpus_f2e()),
                            tmp_path / "ly.json")
    algebra = hs.load_algebra(saved)
    assert algebra.kind == "binary_ternary"
    space = algebra.space
    twice = hs.BilinearOp(space, entries={
        (i, j, l): 2 * c for (i, j), terms in algebra.binary.constants.items()
        for l, c in terms})
    assert not twice.is_zero() and twice != algebra.binary
    assert identities.Evaluator(algebra).op("[,]") is algebra.binary
    assert hs.supercommutator(algebra) == twice
    assert hs.build_hom_akivis(algebra).binary == twice
    assert hs.build_hom_ly(algebra).binary is hs.supercommutator(algebra)
    law = hs.parse_identity("[x, y] = x*y")
    assert hs.check_identity(law, algebra).passed
    assert not hs.check_identity(law, _corpus_f2e()).passed


def test_bracket_is_graded_whatever_the_reading():
    # The "[,]" slot is the graded commutator even in a law read without
    # its signs: at (b2,b2), [f,f] = 2e while the classical right-hand
    # side is 0.  The classical text is checked first, so that no graded
    # check has built the bracket before.
    algebra = _corpus_f2e()
    law = hs.parse_identity("[x, y] = x*y - s(x,y) y*x")
    ungraded = hs.parse_identity("[x, y] = x*y - y*x")
    assert naive.classical(law) == ungraded
    report = hs.check_identity(ungraded, algebra)
    assert report.summary() == ("FAIL identity (checked 4) counterexamples:"
                                " (b2,b2) -> {'b1': '2'}")
    assert hs.check_identity(law, algebra).passed


def test_left_to_right_twice_keeps_the_algebra(corpus, f2e):
    plain = [algebra for _, algebra in corpus]
    derived = [hs.build_hom_ly(f2e), hs.build_hom_akivis(f2e)]
    for algebra in plain + derived:
        once = hs.left_to_right(algebra)
        twice = hs.left_to_right(once)
        for result in (once, twice):
            assert type(result) is type(algebra)
            assert result.kind == algebra.kind
            assert result.ternary == algebra.ternary
            assert result.alpha == algebra.alpha
        assert once.product == algebra.product.transpose()
        assert twice.product == algebra.product
        assert identities.Evaluator(twice).op("[,]") == \
            identities.Evaluator(algebra).op("[,]")


def _construction_outcomes(algebra, forced):
    """What each construction gives on a copy of the algebra: a report or
    the derived constants, or the text of its refusal (PreconditionError)
    or failed postcondition (RuntimeError).  yau_twist twists the product
    with the identity map by the algebra's map.  With forced, every copy
    is taken to be multiplicative and left Leibniz, so that the verdicts
    and postconditions run on algebras that break them."""
    space = algebra.space

    def copy(alpha=algebra.alpha):
        fresh = hs.HomSuperalgebra(space, algebra.product, alpha)
        if forced:
            fresh._multiplicative = fresh._left_leibniz = True
        return fresh

    calls = (lambda: hs.build_hom_ly(copy()),
             lambda: hs.build_hom_akivis(copy(), verify=True),
             lambda: hs.check_lie_admissible(copy()),
             lambda: hs.check_ternary_equivalence(copy()),
             lambda: hs.yau_twist(copy(hs.EvenMap.identity(space)),
                                  algebra.alpha))
    outcomes = []
    for call in calls:
        try:
            result = call()
        except (hs.PreconditionError, RuntimeError) as exc:
            outcomes.append("%s: %s" % (type(exc).__name__, exc))
            continue
        if isinstance(result, hs.Report):
            outcomes.append(result.to_dict(cap=None))
        elif isinstance(result, hs.BinaryTernaryAlgebra):
            outcomes.append((result.binary.constants,
                             result.ternary.constants))
        else:
            outcomes.append(result.product.constants)
    return outcomes


def _reference_check_suite(names, algebra, first_only=False):
    """check_suite, with first_only where _check_suite takes it."""
    return [identities._run_check(check, algebra, first_only)
            for check in identities.resolve_suite(names, algebra)]


@settings(max_examples=40, deadline=None)
@given(graded_algebras(), st.booleans())
def test_constructions_report_as_check_suite(algebra, forced):
    # The constructions read their laws from the tensor; their reports,
    # refusals and failed postconditions are those of check_suite.
    n = algebra.space.dim
    for first_only in (False, True):
        got = constructions._check_suite("all", algebra, first_only)
        want = _reference_check_suite("all", algebra, first_only)
        assert [r.to_dict(cap=None) for r in got] == \
            [r.to_dict(cap=None) for r in want]
    llsi, = constructions._check_suite("LLSI", algebra, first_only=True)
    if llsi.passed:
        assert llsi.checked == n ** 3
    else:
        first = [int(label[1:]) - 1
                 for label in llsi.counterexamples[0]["tuple"]]
        assert llsi.checked == functools.reduce(
            lambda rank, i: rank * n + i, first, 0) + 1
    admissible, = constructions._check_suite("LIE_ADMISSIBLE", algebra)
    assert admissible.checked == n ** 3

    got = _construction_outcomes(algebra, forced)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "_check_suite", _reference_check_suite)
        want = _construction_outcomes(algebra, forced)
    assert got == want


def test_constructions_evaluate_no_law_tuple_by_tuple(monkeypatch):
    seen = []
    evaluate = identities.Evaluator.eval

    def spy(self, node, env):
        if isinstance(node, identities.Identity):
            seen.append(node)
        return evaluate(self, node, env)

    monkeypatch.setattr(identities.Evaluator, "eval", spy)
    algebras = [hs.load_algebra(path) for path in hs.corpus_paths()]
    algebras = [algebra for algebra in algebras + non_admissible_witnesses()
                if algebra.metadata.get("expected", {}).get("leibniz", True)]
    assert len(algebras) == 9
    for algebra in algebras:
        hs.build_hom_ly(algebra)
        hs.build_hom_akivis(algebra, verify=True)
        hs.check_lie_admissible(algebra)
        hs.check_ternary_equivalence(algebra)
        if algebra.alpha.is_identity():
            hs.yau_twist(algebra, hs.EvenMap.identity(algebra.space))
    assert seen == []
    # The spy sees a per-tuple scan.
    hs.check_identity(hs.REGISTRY["LLSI"], algebras[0])
    assert seen
