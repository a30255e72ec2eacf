import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import freealg as fa
from homsuper import identities as idn
from conftest import graded_algebras, make_algebra
import naive


# --------------------------------------------------------------------------
# Parsing

def test_parse_trivial_identity():
    ident = hs.parse_identity("0 = 0")
    assert ident == idn.Identity(idn.Zero(), idn.Zero())


def test_parse_llsi_shape():
    ident = hs.parse_identity(
        "a(x)*(y*z) = (x*y)*a(z) + s(x,y) a(y)*(x*z)")
    assert idn.free_variables(ident) == ["x", "y", "z"]
    assert ident.lhs == idn.Prod("*", idn.Alpha(1, idn.Var("x")),
                                 idn.Prod("*", idn.Var("y"), idn.Var("z")))
    rhs = ident.rhs
    assert isinstance(rhs, idn.Sum) and len(rhs.items) == 2
    signed = rhs.items[1]
    assert isinstance(signed, idn.Sign)
    assert signed.factors == ((("x",), ("y",)),)


def test_parse_missing_rhs_asserts_zero():
    ident = hs.parse_identity("x*y + s(x,y) y*x")
    assert ident.rhs == idn.Zero()


def test_parse_compound_sign_and_coefficients():
    ident = hs.parse_identity("1/2 s((x+y),u) [x, y]*a2(u) = 0")
    term = ident.lhs
    assert isinstance(term, idn.Scale) and term.coeff == Fraction(1, 2)
    assert isinstance(term.sub, idn.Sign)
    assert term.sub.factors == ((("x", "y"), ("u",)),)


def test_parse_cyclic_sum():
    ident = hs.parse_identity("cyc[x,y,z; s(x,z)]((x*y)*a(z)) = 0")
    cyc = ident.lhs
    assert isinstance(cyc, idn.Cyc)
    assert cyc.vars == ("x", "y", "z")
    assert cyc.factors == ((("x",), ("z",)),)
    plain = hs.parse_identity("cyc[x,y,z; 1](x*y) = 0")
    assert plain.lhs.factors == ()


@pytest.mark.parametrize("text,fragment", [
    ("x*y*z = 0", "chained product"),
    ("x* = 0", "expected an element"),
    ("0 x = 0", "zero coefficient"),
    ("s(x,y) = 0", "expected an element"),
    ("cyc[x,x,z; 1](x*y) = 0", "distinct"),
    ("a0(x) = 0", "alpha power"),
    ("[x, y = 0", "expected ]"),
    ("x + a = 0", "reserved"),
    ("x ? y", "unexpected character"),
    ("2 = 0", "expected an element"),
    ("x = y = z", "trailing input"),
    ("1/0 x*y = 0", "zero denominator"),
])
def test_parse_errors_carry_positions(text, fragment):
    with pytest.raises(hs.ParseError) as err:
        hs.parse_identity(text)
    assert fragment in str(err.value)
    assert "position" in str(err.value)


def test_registry_round_trips():
    for name, ident in hs.REGISTRY.items():
        assert hs.parse_identity(idn.pretty(ident)) == ident, name


def test_registry_matches_source_text():
    for name, text in idn.registry_text().items():
        assert hs.parse_identity(text) == hs.REGISTRY[name]


def test_parse_identity_file(tmp_path):
    path = tmp_path / "law.txt"
    path.write_text(idn.registry_text()["LLSI"], encoding="utf-8")
    assert hs.parse_identity_file(path) == hs.REGISTRY["LLSI"]


# --------------------------------------------------------------------------
# Printer round-trip under fuzzing

_names = st.sampled_from(["x", "y", "z", "u", "v", "w"])
_parity_group = st.lists(_names, min_size=1, max_size=3).map(tuple)
_sign_factors = st.lists(st.tuples(_parity_group, _parity_group),
                         min_size=1, max_size=2).map(tuple)
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=8).filter(
    lambda q: q not in (0, 1))


def _exprs(children):
    atoms = st.one_of(
        _names.map(idn.Var),
        st.just(idn.Zero()),
        st.builds(idn.Alpha, st.integers(1, 3), children),
        st.builds(lambda l, r: idn.Prod("*", l, r), children, children),
        st.builds(lambda l, r: idn.Prod("[,]", l, r), children, children),
        st.builds(idn.Ternary, children, children, children),
        st.builds(
            idn.Cyc,
            st.permutations(["x", "y", "z"]).map(tuple),
            st.one_of(st.just(()), _sign_factors),
            children),
        st.lists(children, min_size=2, max_size=3).map(
            lambda items: idn.Sum(tuple(items))),
    )
    signed = st.one_of(atoms, st.builds(idn.Sign, _sign_factors, atoms))
    return st.one_of(signed, st.builds(idn.Scale, _coeffs, signed))


_expr_strategy = st.recursive(
    st.one_of(_names.map(idn.Var), st.just(idn.Zero())),
    _exprs, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_pretty_parse_round_trip(ident):
    assert hs.parse_identity(idn.pretty(ident)) == ident


# --------------------------------------------------------------------------
# Evaluation on tuples

def test_eval_trivial_identity_is_zero(a2b):
    ident = hs.parse_identity("0 = 0")
    out = hs.eval_identity_on_tuple(ident, a2b, {})
    assert out.is_zero()


def test_eval_llsi_on_a2b_tuple(a2b):
    ident = hs.REGISTRY["LLSI"]
    out = hs.eval_identity_on_tuple(ident, a2b, {"x": 0, "y": 0, "z": 0})
    assert out.is_zero()


def test_eval_skew_residual_is_2b(a2b):
    ident = hs.REGISTRY["SKEW_SUPER"]
    out = hs.eval_identity_on_tuple(ident, a2b, {"x": 0, "y": 0})
    assert out == a2b.space.basis_vector(1).scale(2)


def test_eval_reports_unbound_variable(a2b):
    with pytest.raises(hs.UnboundVariable):
        hs.eval_identity_on_tuple(hs.REGISTRY["LLSI"], a2b, {"x": 0})


@pytest.mark.parametrize("sign_free", [False, True])
def test_eval_reports_variable_bound_only_in_a_sign(a2b, sign_free):
    # x is even, so s(x,u) is +1 whatever u is; u must still be bound.
    ident = hs.parse_identity("s(x,u) x*x = 0")
    assert idn.free_variables(ident) == ["x", "u"]
    with pytest.raises(hs.UnboundVariable):
        hs.eval_identity_on_tuple(ident, a2b, {"x": 0}, sign_free=sign_free)


def test_eval_reports_missing_ternary_slot(a2b):
    with pytest.raises(hs.MissingOpSlot):
        hs.eval_identity_on_tuple(hs.REGISTRY["SHLY4"], a2b,
                                  {"x": 0, "y": 0, "z": 0})


def test_eval_agrees_with_naive_llsi_everywhere(corpus):
    for _, algebra in corpus:
        if algebra.kind != "hom_superalgebra":
            continue
        n = algebra.space.dim
        for combo in itertools.product(range(n), repeat=3):
            env = dict(zip("xyz", combo))
            got = hs.eval_identity_on_tuple(hs.REGISTRY["LLSI"], algebra, env)
            want = naive.llsi_residual(algebra, *combo)
            assert list(got.coords) == want


# --------------------------------------------------------------------------
# Exhaustive checking

def test_check_identity_zero_algebra_passes_all_product_laws():
    zero = make_algebra(1, 1, {})
    for name in ("LLSI", "RLSI", "SKEW_SUPER", "HOM_SUPER_JACOBI",
                 "PROP32_I", "PROP32_II", "LIE_ADMISSIBLE"):
        assert hs.check_identity(hs.REGISTRY[name], zero, name=name).passed


def test_zero_dimensional_space_passes_vacuously():
    empty = make_algebra(0, 0, {})
    report = hs.check_identity(hs.REGISTRY["LLSI"], empty)
    assert report.passed and report.checked == 0
    assert all(r.passed for r in hs.check_suite("leibniz", empty))
    assert hs.build_hom_ly(empty).space.dim == 0


def test_check_identity_counterexample_payload(a2b):
    report = hs.check_identity(hs.REGISTRY["SKEW_SUPER"], a2b, name="skew")
    assert not report.passed
    assert report.checked == 4
    assert report.counterexamples[0] == {"tuple": ["b1", "b1"],
                                         "residual": {"b2": "2"}}


def test_check_identity_first_only_stops_early(a2b):
    report = hs.check_identity(hs.REGISTRY["SKEW_SUPER"], a2b,
                               first_only=True)
    assert not report.passed
    assert report.checked == 1
    assert len(report.counterexamples) == 1


def test_f2e_passes_lie_laws(f2e):
    assert hs.check_identity(hs.REGISTRY["LLSI"], f2e).passed
    assert hs.check_identity(hs.REGISTRY["SKEW_SUPER"], f2e).passed
    assert hs.check_identity(hs.REGISTRY["HOM_SUPER_JACOBI"], f2e).passed


def test_check_suite_leibniz_and_lie(a2b):
    reports = hs.check_suite("leibniz", a2b)
    assert [r.name for r in reports] == ["grading", "multiplicativity", "LLSI"]
    assert all(r.passed for r in reports)
    lie = {r.name: r.passed for r in hs.check_suite("lie", a2b)}
    assert lie == {"grading": True, "multiplicativity": True,
                   "SKEW_SUPER": False, "HOM_SUPER_JACOBI": True}


def test_check_suite_ly_on_derived(f2e):
    derived = hs.build_hom_ly(f2e, verify=False)
    reports = hs.check_suite("ly", derived)
    assert [r.name for r in reports] == [
        "grading", "SHLY1", "SHLY2", "SHLY3", "SHLY4", "SHLY5", "SHLY6",
        "SHLY7", "SHLY8"]
    assert all(r.passed for r in reports)


def test_check_suite_unknown_name(a2b):
    with pytest.raises(hs.UnknownSuite):
        hs.check_suite("nonsense", a2b)


def test_unknown_suite_names_itself(a2b):
    with pytest.raises(hs.UnknownSuite) as err:
        idn.resolve_suite("nonsense", a2b)
    assert str(err.value) == "unknown suite or law: nonsense"


def test_resolve_suite_rejects_ternary_law_without_ternary_slot(a2b):
    assert idn.resolve_suite("leibniz", a2b) == ["grading",
                                                 "multiplicativity", "LLSI"]
    with pytest.raises(hs.MissingOpSlot):
        idn.resolve_suite("akivis", a2b)
    derived = hs.build_hom_akivis(a2b, verify=False)
    assert "AKIVIS" in idn.resolve_suite("akivis", derived)


def test_check_suite_all_skips_ternary_laws_when_absent(a2b):
    names = [r.name for r in hs.check_suite("all", a2b)]
    assert "LLSI" in names and "SKEW_SUPER" in names
    assert not any(n.startswith("SHLY2") or n == "AKIVIS" for n in names)


def test_sign_free_mode_differs_on_odd_sectors(f2e):
    # Graded reading passes skew-symmetry thanks to the odd-odd sign;
    # the sign-free reading of the same law must fail on f*f = e.
    graded = hs.check_identity(hs.REGISTRY["SKEW_SUPER"], f2e)
    ungraded = hs.check_identity(hs.REGISTRY["SKEW_SUPER"], f2e,
                                 sign_free=True)
    assert graded.passed and not ungraded.passed


def test_cyclic_sum_rotates_leading_sign():
    # cyc[x,y,z; s(x,z)](x*y) at (f,f,e) over f*f=e, f*e=f expands to
    # +(f*f) + s(f,f)(f*e) + s(e,f)(e*f) = e - f: the leading sign is
    # evaluated with the substituted parities, so the middle rotation
    # carries -1.  A non-rotating sign would give e + f instead.
    algebra = make_algebra(1, 1, {(1, 1, 0): 1, (1, 0, 1): 1})
    ident = hs.parse_identity("cyc[x,y,z; s(x,z)](x*y) = 0")
    out = hs.eval_identity_on_tuple(ident, algebra, {"x": 1, "y": 1, "z": 0})
    assert list(out.coords) == [Fraction(1), Fraction(-1)]


def test_ternary_laws_are_the_registry_laws_with_a_ternary():
    assert idn.TERNARY_LAWS == {"AKIVIS", "SHLY2", "SHLY4", "SHLY5", "SHLY6",
                                "SHLY7", "SHLY8"}


def _free_value(expr, algebra, env):
    """A free expression evaluated in an algebra: the generator named g
    under k maps is alpha^k of basis element env[g], and a product node is
    the algebra's product."""
    def value(term):
        if term[0] == "g":
            base = algebra.space.basis_vector(env[term[1]])
            return algebra.alpha.power(term[2])(base)
        if term[0] == "a":
            return algebra.alpha.power(term[1])(value(term[2]))
        return algebra.product(value(term[1]), value(term[2]))

    total = algebra.space.zero_vector()
    for term, coeff in expr.items():
        total = total + value(term).scale(coeff)
    return total


@settings(max_examples=20, deadline=None)
@given(graded_algebras())
def test_numeric_and_free_evaluation_agree(algebra):
    # The two value domains of the one evaluator: on every basis tuple, the
    # residual over the algebra equals the free expansion for the tuple's
    # parities evaluated in the algebra.  The registry laws without {,,}
    # cover bare-variable products and maps, nested products, brackets,
    # signs and cyclic sums.
    space = algebra.space
    evaluator = idn.Evaluator(algebra)
    for name, law in hs.REGISTRY.items():
        if name in idn.TERNARY_LAWS:
            continue
        names = idn.free_variables(law)
        expansions = {}
        for combo in itertools.product(range(space.dim), repeat=len(names)):
            env = dict(zip(names, combo))
            parities = tuple(space.parity(i) for i in combo)
            if parities not in expansions:
                expansions[parities] = fa.expand_template(
                    law, dict(zip(names, parities)))
            assert evaluator.eval(law, env) == \
                _free_value(expansions[parities], algebra, env), (name, combo)
