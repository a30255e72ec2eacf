import hashlib
import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import freealg as fa
from homsuper import identities as idn
from conftest import RATIONALS, graded_algebras
import naive


def expand(text, parities, **kw):
    return fa.expand_template(hs.parse_identity(text), parities, **kw)


def distribute(expr):
    """The distribution pass alone: normal_form without the Leibniz rule."""
    return fa.normal_form([expr], [{}], False)[0]


def leibniz_form(expr, parities):
    """The one-sector normal form under the Leibniz rule."""
    return fa.normal_form([expr], [parities], True)[0]


def test_expand_trivial_identity_is_empty():
    assert expand("0 = 0", {}).is_zero()


def test_expand_commutator_skew_cancels_for_all_parities():
    for px, py in itertools.product((0, 1), repeat=2):
        residual = expand("[x, y] + s(x,y) [y, x] = 0",
                          {"x": px, "y": py})
        assert residual.is_zero()


def test_expand_llsi_residual_has_three_terms():
    residual = expand("a(x)*(y*z) = (x*y)*a(z) + s(x,y) a(y)*(x*z)",
                      {"x": 0, "y": 0, "z": 0})
    assert len(residual.terms()) == 3
    assert residual.rendered() == [
        "-1 ((x*y)*a(z))", "1 (a(x)*(y*z))", "-1 (a(y)*(x*z))"]


def test_expand_requires_parities():
    with pytest.raises(ValueError):
        expand("x*y = 0", {"x": 0})


def test_expand_refuses_an_unknown_structure():
    with pytest.raises(ValueError,
                       match=r"'foo'; known: None, 'akivis', 'ly'"):
        expand("x*y = 0", {"x": 0, "y": 0}, structure="foo")


def test_expand_refuses_a_slot_the_structure_lacks():
    # The free algebra itself has no ternary; the "ly" structure fills it.
    parities = dict.fromkeys("xyz", 0)
    with pytest.raises(hs.MissingOpSlot, match="'{,,}'"):
        expand("{x, y, z} = 0", parities)
    assert expand("{x, y, z} = 0", parities, structure="ly").rendered() == [
        "-1 ((x*y)*a(z))"]


def test_alpha_distribute_steps():
    x, y = fa.generator("x"), fa.generator("y")
    wrapped = fa.FreeExpr.of(fa.alpha_wrap(fa.product(x, y), 1))
    out = distribute(wrapped)
    assert out == fa.FreeExpr.of(fa.product(fa.generator("x", 1),
                                            fa.generator("y", 1)))

    double = fa.FreeExpr.of(fa.alpha_wrap(fa.product(x, y), 2))
    out = distribute(double)
    assert out == fa.FreeExpr.of(fa.product(fa.generator("x", 2),
                                            fa.generator("y", 2)))

    leaf = fa.FreeExpr.of(fa.generator("x", 3))
    assert distribute(leaf) == leaf


def test_alpha_wrap_merges_nested_wrappers():
    x = fa.generator("x")
    t = fa.alpha_wrap(fa.alpha_wrap(fa.product(x, x), 1), 2)
    assert t == ("a", 3, fa.product(x, x))


def test_leibniz_normalize_cancels_symmetrized_products():
    # (x*y)*a(z) + (-1)^{|x||y|}(y*x)*a(z) rewrites to zero in every sector.
    for combo in itertools.product((0, 1), repeat=3):
        parities = dict(zip("xyz", combo))
        residual = expand("(x*y)*a(z) + s(x,y) (y*x)*a(z) = 0", parities)
        assert not distribute(residual).is_zero()
        assert leibniz_form(residual, parities).is_zero()


def test_leibniz_normalize_leaves_normal_terms_alone():
    term = fa.product(fa.generator("x", 1),
                      fa.product(fa.generator("y"), fa.generator("z")))
    expr = fa.FreeExpr.of(term)
    assert leibniz_form(expr, {"x": 0, "y": 0, "z": 0}) == expr


@pytest.mark.parametrize("bad", [2, 3, -1])
def test_a_parity_other_than_0_or_1_is_refused(bad):
    # Both would read it: the expansion as a missing sign-table entry, the
    # rewriting as an odd parity.
    law = hs.parse_identity("x*y = s(x,y) y*x")
    with pytest.raises(ValueError, match=r"'x' has parity %d" % bad):
        fa.expand_template(law, {"x": bad, "y": 1})
    term = fa.product(fa.product(fa.generator("x"), fa.generator("y")),
                      fa.generator("z", 1))
    with pytest.raises(ValueError, match=r"'x' has parity %d" % bad):
        leibniz_form(fa.FreeExpr.of(term), {"x": bad, "y": 1, "z": 0})


def test_a_sector_lacking_a_generator_is_refused_before_saturating():
    expr = expand("(x*y)*a(z)", {"x": 0, "y": 0, "z": 0})
    every = {"x": 0, "y": 0, "z": 0}
    # The term names y and z, which the only sector lacks; and the second
    # sector lacks what the first one names.
    for exprs, sectors in [([expr], [{"x": 0}]),
                           ([expr, expr], [every, {"x": 0}])]:
        with pytest.raises(ValueError,
                           match=r"^no parity assigned to generator 'y'$"):
            fa.normal_form(exprs, sectors, True)
    # Distribution alone reads no parity.
    assert fa.normal_form([expr], [{}], False) == [expr]


def test_a_sector_count_other_than_the_expression_count_is_refused():
    term = fa.product(fa.product(fa.generator("x"), fa.generator("y")),
                      fa.generator("z", 1))
    expr = fa.FreeExpr.of(term)
    parities = {"x": 1, "y": 1, "z": 0}
    for exprs, sectors, counts in [([expr, expr], [parities], (2, 1)),
                                   ([expr], [parities] * 2, (1, 2)),
                                   ([expr], [], (1, 0))]:
        for assume_leibniz in (True, False):
            with pytest.raises(ValueError, match=r"^%d expressions but %d "
                               r"sectors$" % counts):
                fa.normal_form(exprs, sectors, assume_leibniz)


def test_rewrite_strips_one_alpha_layer():
    # ((x*y))*a2(z) rewrites with C = a(z), keeping one alpha on the leaf.
    term = fa.product(fa.product(fa.generator("x"), fa.generator("y")),
                      fa.generator("z", 2))
    out = leibniz_form(fa.FreeExpr.of(term), {"x": 0, "y": 0, "z": 0})
    expected = (fa.FreeExpr.of(fa.product(
        fa.generator("x", 1),
        fa.product(fa.generator("y"), fa.generator("z", 1))))
        - fa.FreeExpr.of(fa.product(
            fa.generator("y", 1),
            fa.product(fa.generator("x"), fa.generator("z", 1)))))
    assert out == expected


def test_parity_coherence_through_normalization():
    parities = {"x": 1, "y": 1, "z": 0}
    residual = expand("(x*y)*a(z) = 0", parities)
    before = distribute(residual)
    total = fa.term_parity(before.terms()[0], parities)
    after = leibniz_form(before, parities)
    for term in after.terms():
        assert fa.term_parity(term, parities) == total


def test_normalization_is_deterministic():
    parities = {"x": 1, "y": 0, "z": 1, "u": 1}
    ident = hs.REGISTRY["SHLY6"]
    one, = fa.normal_form([fa.expand_template(ident, parities, "ly")],
                          [parities], True)
    two, = fa.normal_form([fa.expand_template(ident, parities, "ly")],
                          [parities], True)
    assert one == two and one.is_zero()


@pytest.mark.parametrize("target", fa.PROOF_TARGETS)
def test_all_targets_prove(target):
    report = fa.prove_identity_free(target)
    assert report.extra["verdict"] == "PROVED"
    assert report.passed


@pytest.mark.parametrize("target", fa.PROOF_TARGETS)
def test_normalization_stays_within_step_bound(target):
    # Saturation terminates within the sum of squared term sizes for every
    # target obligation and parity sector.
    for identity, structure, assume_leibniz in fa.TARGETS[target]:
        if not assume_leibniz:
            continue
        names = idn.free_variables(identity)
        for combo in itertools.product((0, 1), repeat=len(names)):
            parities = dict(zip(names, combo))
            expr = distribute(fa.expand_template(
                identity, parities, structure))
            budget = sum(fa.term_size(t) ** 2 for t in expr.terms())
            with mock.patch.object(fa, "_STEP_LIMIT", budget):
                leibniz_form(expr, parities)


def test_prove_rejects_too_many_generators(monkeypatch):
    wide = hs.parse_identity("{x, y, z}*{u, v, p} + {x, y, z}*{u, v, q} = 0")
    monkeypatch.setitem(fa.TARGETS, "wide", [(wide, "ly", True)])
    with pytest.raises(ValueError):
        fa.prove_identity_free("wide")


def test_prove_unknown_target():
    with pytest.raises(KeyError):
        fa.prove_identity_free("nonsense")


def _inconclusive_survivors(monkeypatch, law):
    """The survivors of a law proved as a target under the Leibniz rule,
    which must leave it INCONCLUSIVE."""
    monkeypatch.setitem(fa.TARGETS, "law", [(law, None, True)])
    report = fa.prove_identity_free("law")
    assert not report.passed
    assert report.to_dict()["verdict"] == "INCONCLUSIVE"
    assert report.checked == 2 ** len(law.variables)
    return [(tuple(s["parities"].values()), s["surviving"])
            for s in report.counterexamples]


def test_inconclusive_lists_survivors(monkeypatch):
    # Skew-symmetry of the raw free product is simply not a theorem; the
    # prover must stay inconclusive and report the surviving terms.
    assert _inconclusive_survivors(monkeypatch, hs.REGISTRY["SKEW_SUPER"]) \
        == [((0, 0), ["1 (x*y)", "1 (y*x)"]),
            ((0, 1), ["1 (x*y)", "1 (y*x)"]),
            ((1, 0), ["1 (x*y)", "1 (y*x)"]),
            ((1, 1), ["1 (x*y)", "-1 (y*x)"])]


# The six terms of every LIE_ADMISSIBLE survivor, and their signs for each
# parity assignment of (x, y, z).
_CYCLIC_TERMS = ("(a(x)*(y*z))", "(a(x)*(z*y))", "(a(y)*(x*z))",
                 "(a(y)*(z*x))", "(a(z)*(x*y))", "(a(z)*(y*x))")
_LIE_ADMISSIBLE_SIGNS = {
    (0, 0, 0): "+--++-", (0, 0, 1): "+--++-", (0, 1, 0): "+--++-",
    (0, 1, 1): "++-+-+", (1, 0, 0): "+--++-", (1, 0, 1): "-++++-",
    (1, 1, 0): "+-+-++", (1, 1, 1): "------",
}


def test_lie_admissibility_is_inconclusive_under_leibniz(monkeypatch):
    # Not a theorem: the (2|2) witnesses in conftest are left Leibniz and
    # not Lie admissible.
    expected = [(parities, ["%s1 %s" % ("" if sign == "+" else "-", term)
                            for sign, term in zip(signs, _CYCLIC_TERMS)])
                for parities, signs in _LIE_ADMISSIBLE_SIGNS.items()]
    assert _inconclusive_survivors(
        monkeypatch, hs.REGISTRY["LIE_ADMISSIBLE"]) == expected


def _sectors(names):
    return [dict(zip(names, combo))
            for combo in itertools.product((0, 1), repeat=len(names))]


def _per_sector_forms(exprs, sectors):
    """Each sector's normal form, from `normal_form` one sector at a time
    and from the oracle in naive.py, which must agree."""
    forms = []
    for expr, parities in zip(exprs, sectors):
        distributed = distribute(expr)
        form = leibniz_form(distributed, parities)
        assert form == fa.FreeExpr(naive.leibniz_normal_form(
            dict(distributed.items()), parities))
        forms.append(form)
    return forms


# Every obligation of the targets, and every built-in law without {,,},
# normalized under the Leibniz rule (including the inconclusive ones).
_LEIBNIZ_LAWS = [
    pytest.param(law, structure, id="%s-%d" % (target, i))
    for target, obligations in fa.TARGETS.items()
    for i, (law, structure, _) in enumerate(obligations)] + [
    pytest.param(law, None, id=name) for name, law in hs.REGISTRY.items()
    if name not in idn.TERNARY_LAWS]


@pytest.mark.parametrize("law,structure", _LEIBNIZ_LAWS)
def test_one_pass_equals_per_sector_normalization(law, structure):
    sectors = _sectors(law.variables)
    exprs = [fa.expand_template(law, parities, structure)
             for parities in sectors]
    assert fa.normal_form(exprs, sectors, True) == _per_sector_forms(
        exprs, sectors)
    assert fa.normal_form(exprs, sectors, False) == [
        distribute(expr) for expr in exprs]


_GENERATORS = st.builds(fa.generator, st.sampled_from("xyz"),
                        st.integers(0, 2))
_DISTRIBUTED_TERMS = st.recursive(
    _GENERATORS, lambda sub: st.builds(fa.product, sub, sub), max_leaves=5)
_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.fractions(
    min_value=-2, max_value=2, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.lists(_DISTRIBUTED_TERMS, min_size=1, max_size=4, unique=True),
       st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=1,
                max_size=8),
       st.data())
def test_one_pass_equals_per_sector_on_random_expressions(terms, combos,
                                                         data):
    # Any set of sectors, repeats included, each with its own coefficients
    # (zero ones included) on a shared set of distributed terms.
    sectors = [dict(zip("xyz", combo)) for combo in combos]
    exprs = [fa.FreeExpr({t: data.draw(_COEFFICIENTS) for t in terms})
             for _ in sectors]
    assert fa.normal_form(exprs, sectors, True) == _per_sector_forms(
        exprs, sectors)


# sha256 of each law's prove_identity_free report under the Leibniz rule,
# recorded from the prover that normalized one sector at a time.
_INCONCLUSIVE_DIGESTS = {
    "SKEW_SUPER":
        "28e80e45a7f61549ffe5dacbab5f9163d8415334a194da2c35be76ded744c6d5",
    "LIE_ADMISSIBLE":
        "c0000f9bc6a9d247fc28be325b65d0e0de47e1a077e81364061fcf10e81e7809",
    "RLSI":
        "bec4f90de1bdb7b2bf9cb6fabff784f0c80b197b518c1a1ae52f72b89dd01fc9",
    "HOM_SUPER_JACOBI":
        "0dda0d1ef81dfa12076eb2b178cef80d4e0f429660cec9cd2aa27dad6b8329f5",
}


@pytest.mark.parametrize("name", sorted(_INCONCLUSIVE_DIGESTS))
def test_inconclusive_reports_are_unchanged(name, monkeypatch):
    monkeypatch.setitem(fa.TARGETS, "law", [(hs.REGISTRY[name], None, True)])
    report = fa.prove_identity_free("law")
    assert report.extra["verdict"] == "INCONCLUSIVE"
    text = json.dumps([report.name, report.passed, report.checked,
                       report.counterexamples, report.extra], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == _INCONCLUSIVE_DIGESTS[name]


def _steps(normalize):
    """The rule applications of a normalization: the least budget under
    which normalize(budget) raises no RewriteLimit."""
    def fits(budget):
        try:
            normalize(budget)
        except fa.RewriteLimit:
            return False
        return True

    high = 1
    while not fits(high):
        high *= 2
    low = 0
    while low < high:
        middle = (low + high) // 2
        if fits(middle):
            high = middle
        else:
            low = middle + 1
    return low


@pytest.mark.parametrize("target", fa.PROOF_TARGETS)
def test_one_pass_steps_lie_between_the_per_sector_max_and_sum(target):
    # The step limit counts the rule applications of one call: of all
    # sectors of an obligation at once.
    for law, structure, assume_leibniz in fa.TARGETS[target]:
        if not assume_leibniz:
            continue
        sectors = _sectors(law.variables)
        exprs = [fa.expand_template(law, parities, structure)
                 for parities in sectors]

        def one_pass(budget):
            with mock.patch.object(fa, "_STEP_LIMIT", budget):
                fa.normal_form(exprs, sectors, True)

        def one_sector(budget, expr, parities):
            with mock.patch.object(fa, "_STEP_LIMIT", budget):
                fa.normal_form([expr], [parities], True)

        per_sector = [_steps(lambda budget, expr=expr, parities=parities:
                             one_sector(budget, expr, parities))
                      for expr, parities in zip(exprs, sectors)]
        steps = _steps(one_pass)
        assert 0 < max(per_sector) <= steps <= sum(per_sector)


def test_proved_targets_hold_numerically(corpus_leibniz):
    # Soundness spot-check: the symbolic shly7 certificate transfers to the
    # derived structure of every Leibniz fixture (the full matrix runs in
    # the acceptance suite).
    assert fa.prove_identity_free("shly7").passed
    for _, algebra in corpus_leibniz:
        derived = hs.build_hom_ly(algebra, verify=False)
        assert hs.check_identity(hs.REGISTRY["SHLY7"], derived).passed


def test_free_expr_canonical_order_and_scale():
    x, y = fa.generator("x"), fa.generator("y")
    e = fa.FreeExpr.of(fa.product(x, y), 2) + fa.FreeExpr.of(x, 1)
    assert e.terms()[0] == x  # smaller tree first
    assert (e - e).is_zero()
    assert e.scale(0).is_zero()


def test_term_text_rendering():
    t = fa.product(fa.generator("x", 2),
                   fa.product(fa.generator("y"), fa.generator("z", 1)))
    assert fa.term_text(t) == "(a2(x)*(y*a(z)))"


def test_free_coefficients_compare_as_rationals():
    t = fa.product(fa.generator("x"), fa.generator("y"))
    two, two_q = fa.FreeExpr({t: 2}), fa.FreeExpr({t: Fraction(2)})
    assert two == two_q and hash(two) == hash(two_q)
    assert two.rendered() == two_q.rendered() == ["2 (x*y)"]
    assert repr(two) == repr(two_q)
    assert type(two_q._coeffs[t]) is int
    half = fa.FreeExpr.of(t, Fraction(1, 2))
    assert half.rendered() == ["1/2 (x*y)"]
    assert type((half + half)._coeffs[t]) is int
    assert type(half.scale(2)._coeffs[t]) is int
    assert type(fa.free_product(half, fa.FreeExpr.of(t, 2))
                ._coeffs[fa.product(t, t)]) is int
    with pytest.raises(TypeError):
        fa.FreeExpr({t: 0.5})


def _assert_free_coefficients(expr):
    """The coefficient rule of FreeExpr: an int when integral, otherwise a
    Fraction, never a float."""
    for c in expr._coeffs.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_exact(columns):
    """Every coefficient of a {key: {key: c}} dict is an int or a Fraction."""
    for column in columns.values():
        assert all(type(c) in (int, Fraction) for c in column.values())


def _checked(walk, check):
    """A walk (`identities._shape_tensor`, `freealg._free_value`) that
    checks every value it returns; patched into its module, it also checks
    the values of the inner walks."""
    def checked(*args):
        value = walk(*args)
        check(value)
        return value
    return checked


_OBLIGATIONS = [obligation for obligations in fa.TARGETS.values()
                for obligation in obligations]

# The obligations' laws, and two laws with a deferred sign: a sign on a
# variable that its subterm leaves unbound.
_TENSOR_LAWS = [law for law, _, _ in _OBLIGATIONS] + [
    hs.parse_identity("(s(x,z) x*y)*a(z) = 0"),
    hs.parse_identity("cyc[x,y,z; 1]((s(x,y) y*z)*a(x)) = 0")]


@settings(max_examples=15, deadline=None)
@given(graded_algebras(RATIONALS, ternary=True, max_dim=3), st.data())
def test_coefficients_are_never_floats(algebra, data):
    # Every value of every walk, over a random algebra with rational
    # constants and in the free algebra, for all nine targets' obligations;
    # the tensor walks are those of `_law_tensor`, and so are the rows.
    with mock.patch.object(idn, "_shape_tensor",
                           _checked(idn._shape_tensor, _assert_exact)):
        for law in _TENSOR_LAWS:
            _assert_exact(idn._law_tensor(law, algebra))
    for law, structure, assume_leibniz in _OBLIGATIONS:
        parities = {name: data.draw(st.integers(0, 1))
                    for name in law.variables}
        with mock.patch.object(fa, "_free_value", _checked(
                fa._free_value, _assert_free_coefficients)):
            expr = fa.expand_template(law, parities, structure)
        _assert_free_coefficients(expr.scale(data.draw(RATIONALS)))
        _assert_free_coefficients(fa.normal_form([expr], [parities],
                                                 assume_leibniz)[0])
