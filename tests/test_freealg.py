import itertools

import pytest

import homsuper as hs
from homsuper import freealg as fa
from homsuper import identities as idn


def expand(text, parities, **kw):
    return fa.expand_template(hs.parse_identity(text), parities, **kw)


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


def test_alpha_distribute_steps():
    x, y = fa.generator("x"), fa.generator("y")
    wrapped = fa.FreeExpr.of(fa.alpha_wrap(fa.product(x, y), 1))
    out = fa.alpha_distribute(wrapped)
    assert out == fa.FreeExpr.of(fa.product(fa.generator("x", 1),
                                            fa.generator("y", 1)))

    double = fa.FreeExpr.of(fa.alpha_wrap(fa.product(x, y), 2))
    out = fa.alpha_distribute(double)
    assert out == fa.FreeExpr.of(fa.product(fa.generator("x", 2),
                                            fa.generator("y", 2)))

    leaf = fa.FreeExpr.of(fa.generator("x", 3))
    assert fa.alpha_distribute(leaf) == leaf


def test_alpha_wrap_merges_nested_wrappers():
    x = fa.generator("x")
    t = fa.alpha_wrap(fa.alpha_wrap(fa.product(x, x), 1), 2)
    assert t == ("a", 3, fa.product(x, x))


def test_leibniz_normalize_cancels_symmetrized_products():
    # (x*y)*a(z) + (-1)^{|x||y|}(y*x)*a(z) rewrites to zero in every sector.
    for combo in itertools.product((0, 1), repeat=3):
        parities = dict(zip("xyz", combo))
        residual = expand("(x*y)*a(z) + s(x,y) (y*x)*a(z) = 0", parities)
        assert not fa.alpha_distribute(residual).is_zero()
        assert fa.normal_form(residual, parities, True).is_zero()


def test_leibniz_normalize_leaves_normal_terms_alone():
    term = fa.product(fa.generator("x", 1),
                      fa.product(fa.generator("y"), fa.generator("z")))
    expr = fa.FreeExpr.of(term)
    assert fa.leibniz_normalize(expr, {"x": 0, "y": 0, "z": 0}) == expr


def test_leibniz_normalize_requires_distribution():
    wrapped = fa.FreeExpr.of(fa.alpha_wrap(fa.product(fa.generator("x"),
                                                      fa.generator("y")), 1))
    with pytest.raises(ValueError):
        fa.leibniz_normalize(wrapped, {"x": 0, "y": 0})


def test_rewrite_strips_one_alpha_layer():
    # ((x*y))*a2(z) rewrites with C = a(z), keeping one alpha on the leaf.
    term = fa.product(fa.product(fa.generator("x"), fa.generator("y")),
                      fa.generator("z", 2))
    out = fa.leibniz_normalize(fa.FreeExpr.of(term),
                               {"x": 0, "y": 0, "z": 0})
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
    before = fa.alpha_distribute(residual)
    total = fa.term_parity(before.terms()[0], parities)
    after = fa.leibniz_normalize(before, parities)
    for term in after.terms():
        assert fa.term_parity(term, parities) == total


def test_normalization_is_deterministic():
    parities = {"x": 1, "y": 0, "z": 1, "u": 1}
    ident = hs.REGISTRY["SHLY6"]
    one = fa.normal_form(fa.expand_template(ident, parities, "ly"),
                         parities, True)
    two = fa.normal_form(fa.expand_template(ident, parities, "ly"),
                         parities, True)
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
            expr = fa.alpha_distribute(fa.expand_template(
                identity, parities, structure))
            budget = sum(fa.term_size(t) ** 2 for t in expr.terms())
            fa.leibniz_normalize(expr, parities, step_budget=budget)


def test_prove_rejects_too_many_generators(monkeypatch):
    wide = hs.parse_identity("{x, y, z}*{u, v, p} + {x, y, z}*{u, v, q} = 0")
    monkeypatch.setitem(fa.TARGETS, "wide", [(wide, "ly", True)])
    with pytest.raises(ValueError):
        fa.prove_identity_free("wide")


def test_prove_unknown_target():
    with pytest.raises(KeyError):
        fa.prove_identity_free("nonsense")


def test_inconclusive_lists_survivors():
    # Skew-symmetry of the raw free product is simply not a theorem; the
    # prover must stay inconclusive and report the surviving terms.
    ident = hs.REGISTRY["SKEW_SUPER"]
    names = idn.free_variables(ident)
    survivors = []
    for combo in itertools.product((0, 1), repeat=len(names)):
        parities = dict(zip(names, combo))
        expr = fa.normal_form(fa.expand_template(ident, parities),
                              parities, True)
        if not expr.is_zero():
            survivors.append(expr)
    assert survivors


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
