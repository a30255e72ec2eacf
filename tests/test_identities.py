import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import constructions
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
    ("a99999(x) = 0", "alpha power must be <= %d" % idn.MAX_ALPHA_POWER),
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


def test_registry_law_variables_are_its_free_variables():
    for name, law in hs.REGISTRY.items():
        assert law.variables == tuple(idn.free_variables(law)), name


@settings(max_examples=200, deadline=None)
@given(st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_law_variables_are_cached_outside_eq_and_hash(ident):
    before = hash(ident)
    assert ident.variables == tuple(idn.free_variables(ident))
    assert ident.variables is ident.variables
    fresh = idn.Identity(ident.lhs, ident.rhs)
    assert ident == fresh and hash(ident) == hash(fresh) == before


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
@given(graded_algebras(), st.data())
def test_numeric_and_free_evaluation_agree(algebra, data):
    # The two value domains of the one evaluator: on every basis tuple, the
    # residual over the algebra equals the free expansion for the tuple's
    # parities evaluated in the algebra.  The registry laws without {,,}
    # cover bare-variable products and maps, nested products, brackets,
    # signs and cyclic sums.  For the derived structures, the laws of their
    # suites on {,,} are evaluated on the algebra that constructions build
    # from identities.DERIVED, and the free expansion fills the slots from
    # the same table; laws of more than three variables are checked on a
    # few drawn tuples.
    plain = {name: law for name, law in hs.REGISTRY.items()
             if name not in idn.TERNARY_LAWS}
    _assert_free_agrees(algebra, algebra, None, plain, data)
    for structure in ("akivis", "ly"):
        derived = constructions._derive(algebra, structure, False, "")
        laws = {name: hs.REGISTRY[name] for name in idn.SUITES[structure]
                if name in idn.TERNARY_LAWS}
        _assert_free_agrees(derived, algebra, structure, laws, data)


def _assert_free_agrees(target, source, structure, laws, data):
    n = source.space.dim
    evaluator = idn.Evaluator(target)
    for name, law in laws.items():
        names = law.variables
        combos = itertools.product(range(n), repeat=len(names))
        if len(names) > 3 and n:
            combos = data.draw(st.lists(
                st.tuples(*[st.integers(0, n - 1)] * len(names)),
                min_size=1, max_size=4), label=name)
        expansions = {}
        for combo in combos:
            env = dict(zip(names, combo))
            parities = tuple(source.space.parity(i) for i in combo)
            if parities not in expansions:
                expansions[parities] = fa.expand_template(
                    law, dict(zip(names, parities)), structure)
            assert evaluator.eval(law, env) == _free_value(
                expansions[parities], source, env), (structure, name, combo)


# --------------------------------------------------------------------------
# Multilinearity: the laws basis tuples decide

def test_alpha_power_bound_is_inclusive():
    law = hs.parse_identity("a%d(x) = x" % idn.MAX_ALPHA_POWER)
    assert law.lhs.power == idn.MAX_ALPHA_POWER
    # Very long digit strings fail as a ParseError, not in int().
    with pytest.raises(hs.ParseError):
        hs.parse_identity("a%s(x) = 0" % ("9" * 5000))


def test_square_law_is_rejected_not_passed():
    # On b1*b2 = b2*b1 = b1 the square vanishes on the basis, yet
    # (b1+b2)*(b1+b2) = 2 b1: basis tuples do not decide x*x = 0.
    algebra = make_algebra(2, 0, {(0, 1, 0): 1, (1, 0, 0): 1})
    law = hs.parse_identity("x*x = 0")
    with pytest.raises(hs.NonMultilinearLaw):
        hs.check_identity(law, algebra)
    total = algebra.space.basis_vector(0) + algebra.space.basis_vector(1)
    assert algebra.product(total, total) == \
        algebra.space.basis_vector(0).scale(2)
    # The per-tuple evaluator stays unrestricted.
    assert hs.eval_identity_on_tuple(law, algebra, {"x": 0}).is_zero()


def test_law_missing_a_variable_in_some_term_is_rejected(a2b):
    law = hs.parse_identity("x = x + y - y")
    assert not law.multilinear
    for first_only in (False, True):
        with pytest.raises(hs.NonMultilinearLaw):
            hs.check_identity(law, a2b, first_only=first_only)


def test_shipped_laws_and_templates_are_multilinear():
    laws = dict(hs.REGISTRY)
    laws.update(COMMUTATOR=idn.COMMUTATOR,
                ASSOCIATOR=idn.ASSOCIATOR,
                LY_TERNARY=idn.LY_TERNARY,
                YAU_TWIST=constructions.YAU_TWIST,
                TERNARY_EQ_DEF=idn.TERNARY_EQ_DEF,
                TERNARY_EQ_HALF=idn.TERNARY_EQ_HALF)
    for name, law in laws.items():
        assert law.multilinear, name


@pytest.mark.parametrize("text,multilinear", [
    ("0 = 0", True),
    ("x*0 = 0", True),
    ("(x + y*y)*0 = 0", True),
    ("cyc[x,y,z; 1]({x, y, z}) = 0", True),
    ("cyc[x,y,z; 1](u)*{x, y, z} = 0", True),
    ("x*y = 2 y*x", True),
    ("cyc[x,y,z; 1](x*y) = 0", False),
    ("s(x,u) x*y = 0", False),
    ("x*(y + z) = 0", False),
    ("x*y = x", False),
    ("a(x*x) = 0", False),
])
def test_multilinear_examples(text, multilinear):
    assert hs.parse_identity(text).multilinear is multilinear


def _naive_monomials(node):
    """Every monomial of the expansion, as a Counter of its variables."""
    if isinstance(node, idn.Var):
        return [Counter([node.name])]
    if isinstance(node, idn.Zero):
        return []
    if isinstance(node, (idn.Alpha, idn.Scale, idn.Sign)):
        return _naive_monomials(node.sub)
    if isinstance(node, (idn.Sum, idn.Identity)):
        children = node.items if isinstance(node, idn.Sum) else (node.lhs,
                                                                 node.rhs)
        return [m for child in children for m in _naive_monomials(child)]
    if isinstance(node, idn.Cyc):
        x, y, z = node.vars
        body = _naive_monomials(node.body)
        out = []
        for rename in ({}, {x: y, y: z, z: x}, {x: z, y: x, z: y}):
            out.extend(Counter({rename.get(v, v): d for v, d in m.items()})
                       for m in body)
        return out
    children = ((node.left, node.right) if isinstance(node, idn.Prod)
                else (node.a, node.b, node.c))
    return [sum(combo, Counter()) for combo in itertools.product(
        *(_naive_monomials(child) for child in children))]


@settings(max_examples=300, deadline=None)
@given(st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_multilinear_matches_the_expanded_monomials(ident):
    every_variable_once = Counter(ident.variables)
    assert ident.multilinear == all(
        m == every_variable_once for m in _naive_monomials(ident))


# --------------------------------------------------------------------------
# Laws on the operations that vanish

@st.composite
def zeroed_algebras(draw):
    """A graded_algebras draw with its product, its bracket (the product
    made supercommutative) or an attached ternary forced to zero.  The
    ternary is otherwise random, with constants in -2..2 on every slot the
    parity rule allows.  Dimension (2|2) is left out: SHLY8 alone would
    take 1024 tuples per check."""
    algebra = draw(graded_algebras().filter(lambda a: a.space.dim <= 3))
    space = algebra.space
    zero = draw(st.sampled_from(["*", "[,]", "{,,}"]))
    ternary = {}
    if zero != "{,,}":
        for key in itertools.product(range(space.dim), repeat=4):
            if sum(map(space.parity, key[:3])) % 2 == space.parity(key[3]):
                ternary[key] = draw(st.integers(-2, 2))
    product = algebra.product
    if zero == "*":
        product = hs.BilinearOp(space)
    elif zero == "[,]":
        entries = Counter()
        for (i, j), terms in product.constants.items():
            sign = -1 if space.parity(i) and space.parity(j) else 1
            for l, c in terms:
                entries[i, j, l] += c
                entries[j, i, l] += sign * c
        product = hs.BilinearOp(space, entries=entries)
    return zero, hs.HomSuperalgebra(space, product, algebra.alpha,
                                    ternary=hs.TernaryOp(space, ternary))


def _reference_counterexamples(law, algebra):
    """(tuple index, counterexample) for every failing tuple, by the
    per-tuple evaluator on every tuple."""
    names = law.variables
    labels = algebra.space.labels
    bad = []
    combos = itertools.product(range(algebra.space.dim), repeat=len(names))
    for index, combo in enumerate(combos):
        residual = hs.eval_identity_on_tuple(law, algebra,
                                             dict(zip(names, combo)))
        if not residual.is_zero():
            bad.append((index, {"tuple": [labels[i] for i in combo],
                                "residual": dict(residual.nonzero_items())}))
    return bad


# Every slot in each sum: whichever operation vanishes, part of each sum
# does not vanish with it, up to three terms of it.
_MIXED_LAW = hs.parse_identity(
    "a(x)*(y*z) - (x*y)*a(z) + [[x, y], a(z)] + {x, y, z}"
    " = s(x,y) {y, x, z} - [a(x), [y, z]]"
    " + 2 cyc[x,y,z; s(x,z)]((x*y)*a(z))")


def _assert_checks_match_the_per_tuple_evaluator(algebra):
    laws = dict(hs.REGISTRY, MIXED=_MIXED_LAW,
                TERNARY_EQ_DEF=idn.TERNARY_EQ_DEF,
                TERNARY_EQ_HALF=idn.TERNARY_EQ_HALF)
    for name, law in laws.items():
        bad = _reference_counterexamples(law, algebra)
        full = hs.check_identity(law, algebra, name=name)
        assert full.passed == (not bad), name
        assert full.checked == algebra.space.dim ** len(law.variables), name
        assert full.counterexamples == [c for _, c in bad], name
        first = hs.check_identity(law, algebra, name=name, first_only=True)
        assert first.passed == (not bad), name
        if bad:
            assert first.checked == bad[0][0] + 1, name
            assert first.counterexamples == [bad[0][1]], name
        else:
            assert first.checked == full.checked, name


@settings(max_examples=25, deadline=None)
@given(zeroed_algebras())
def test_folded_check_matches_the_per_tuple_evaluator(case):
    zero, algebra = case
    assert algebra.op_for_slot(zero).is_zero()
    _assert_checks_match_the_per_tuple_evaluator(algebra)


def test_law_folded_to_zero_passes_without_evaluating(monkeypatch):
    zero = make_algebra(2, 1, {}, alpha=[2, 3, 5])

    def refuse(*args):
        raise AssertionError("evaluated a tuple")

    monkeypatch.setattr(idn.Evaluator, "eval", refuse)
    for first_only in (False, True):
        report = hs.check_identity(hs.REGISTRY["LLSI"], zero,
                                   first_only=first_only)
        assert report.passed and report.checked == 27
        assert report.counterexamples == []


def test_zero_product_still_needs_the_ternary_slot():
    zero = make_algebra(2, 0, {})
    # Every operation of SHLY7 would be zero, yet {,,} is missing.
    with pytest.raises(hs.MissingOpSlot):
        hs.check_identity(hs.REGISTRY["SHLY7"], zero)


# --------------------------------------------------------------------------
# Scanning only the support of the law

@st.composite
def sparse_algebras(draw):
    """A 3-dimensional algebra with at most four nonzero constants in its
    product and in its ternary, so that the scans of the ternary laws are
    pruned, and a twisting map that is diagonal or, as in graded_algebras,
    a random even map."""
    space = hs.SuperSpace(*draw(st.sampled_from([(3, 0), (2, 1), (1, 2),
                                                  (0, 3)])))
    n, parity = space.dim, space.parity

    def sparse(arity):
        slots = [key for key in itertools.product(range(n), repeat=arity + 1)
                 if sum(map(parity, key[:-1])) % 2 == parity(key[-1])]
        if not slots:  # no even product on a purely odd space
            return {}
        keys = draw(st.lists(st.sampled_from(slots), max_size=4, unique=True))
        return {key: draw(st.sampled_from([-1, 1, 2])) for key in keys}

    if draw(st.booleans()):
        alpha = hs.EvenMap.diagonal(
            space, [draw(st.sampled_from([1, -1, 2])) for _ in range(n)])
    else:
        alpha = hs.EvenMap(space, [[draw(st.integers(-1, 1))
                                    if parity(i) == parity(k) else 0
                                    for k in range(n)] for i in range(n)])
    return hs.HomSuperalgebra(space, hs.BilinearOp(space, entries=sparse(2)),
                              alpha, ternary=hs.TernaryOp(space, sparse(3)))


@settings(max_examples=25, deadline=None)
@given(sparse_algebras())
def test_pruned_check_matches_the_per_tuple_evaluator(algebra):
    _assert_checks_match_the_per_tuple_evaluator(algebra)


def _tuples_evaluated(monkeypatch, law, algebra):
    """The report of check_identity and the tuples it evaluated."""
    seen = []
    evaluate = idn.Evaluator.eval

    def spy(self, node, env):
        if node is law:
            seen.append(tuple(env[name] for name in law.variables))
        return evaluate(self, node, env)

    monkeypatch.setattr(idn.Evaluator, "eval", spy)
    report = hs.check_identity(law, algebra)
    monkeypatch.undo()
    return report, seen


def test_sparse_ternary_law_scans_only_its_support(monkeypatch):
    # The Lie algebra b1*b3 = b3 plus a line: its Lie-Yamaguti ternary
    # {x,y,z} = -(x*y)*a(z) has two nonzero constants.
    lie = make_algebra(2, 1, {(0, 2, 2): 1, (2, 0, 2): -1})
    ly = constructions.build_hom_ly(lie)
    law = hs.REGISTRY["SHLY8"]
    assert not ly.ternary.is_zero()
    report, seen = _tuples_evaluated(monkeypatch, law, ly)
    n = ly.space.dim
    assert report.checked == n ** 5
    assert 0 < len(seen) < n ** 5 // 4
    assert seen == sorted(set(seen))
    bad = _reference_counterexamples(law, ly)
    assert report.counterexamples == [c for _, c in bad]


def test_binary_laws_keep_the_full_scan(monkeypatch):
    # Sparse enough to prune, but LLSI has no ternary operation.
    algebra = make_algebra(2, 1, {(0, 2, 2): 1, (2, 0, 2): -1})
    _, seen = _tuples_evaluated(monkeypatch, hs.REGISTRY["LLSI"], algebra)
    assert seen == list(itertools.product(range(3), repeat=3))


def _with_ternary(algebra, entries):
    return hs.HomSuperalgebra(algebra.space, algebra.product, algebra.alpha,
                              ternary=hs.TernaryOp(algebra.space, entries))


def test_zero_ternary_skips_the_ternary_laws(monkeypatch):
    # b1*b3 = b3 = -b3*b1, and every term of SHLY2, 4, 6, 7 and 8 uses
    # the zero ternary.
    algebra = _with_ternary(
        make_algebra(2, 1, {(0, 2, 2): 1, (2, 0, 2): -1}), {})
    n = algebra.space.dim
    for name in ("SHLY2", "SHLY4", "SHLY6", "SHLY7", "SHLY8"):
        law = hs.REGISTRY[name]
        report, seen = _tuples_evaluated(monkeypatch, law, algebra)
        assert seen == [], name
        assert report.passed and report.checked == n ** len(law.variables)
    # SHLY5 keeps its product term: (x*y)*a(z) is nonzero at (b1,b3,b1)
    # and (b3,b1,b1) only, so the tuples evaluated are their rotations.
    law = hs.REGISTRY["SHLY5"]
    report, seen = _tuples_evaluated(monkeypatch, law, algebra)
    assert seen == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert report.checked == n ** 3
    bad = _reference_counterexamples(law, algebra)
    assert report.counterexamples == [c for _, c in bad]


def test_zero_bracket_skips_the_akivis_jacobian(monkeypatch):
    # b1*b1 = b2 is commutative, so the bracket Jacobian on the left of
    # AKIVIS vanishes, and only the support of the ternary {b1,b2,b3} = b1
    # on the right is evaluated: the permutations of (b1, b2, b3).
    algebra = _with_ternary(make_algebra(3, 0, {(0, 0, 1): 1}),
                            {(0, 1, 2, 0): 1})
    assert algebra.bracket().is_zero()
    law = hs.REGISTRY["AKIVIS"]
    report, seen = _tuples_evaluated(monkeypatch, law, algebra)
    assert seen == sorted(itertools.permutations(range(3)))
    assert report.checked == 27
    bad = _reference_counterexamples(law, algebra)
    assert report.counterexamples == [c for _, c in bad]


def test_full_scan_when_no_used_slot_is_zero(monkeypatch, a2b):
    # The ternary is zero, but LLSI does not use it.
    algebra = _with_ternary(a2b, {})
    report, seen = _tuples_evaluated(monkeypatch, hs.REGISTRY["LLSI"],
                                     algebra)
    assert report.passed
    assert seen == list(itertools.product(range(2), repeat=3))


def test_support_follows_the_twisting_map_to_its_preimages():
    # a swaps b1 and b2, so a(x)*y, nonzero only at b1*b1 = b2, needs
    # x = b2 and y = b1, and then lies on b2.
    algebra = make_algebra(2, 0, {(0, 0, 1): 1},
                           alpha=hs.EvenMap(hs.SuperSpace(2, 0),
                                            [[0, 1], [1, 0]]))
    support = idn._Support(idn.Evaluator(algebra), 100)
    assert support.boxes(hs.parse_identity("a(x)*y = 0")) == {
        1: [{"x": {1}, "y": {0}}]}
    assert support.boxes(hs.parse_identity("a2(x)*y = x*a(y)")) == {
        1: [{"x": {0}, "y": {0}}, {"x": {0}, "y": {1}}]}


def test_support_follows_output_coordinates_through_operations():
    # x*y lies on b2 or b4, never on b1 or b3, so (x*y)*a(z) can only use
    # b2*b1 = -b2 and b4*b3 = -2 b4: 4 of the 64 tuples.
    algebra = make_algebra(4, 0, {(0, 1, 1): 1, (1, 0, 1): -1,
                                  (2, 3, 3): 2, (3, 2, 3): -2})
    support = idn._Support(idn.Evaluator(algebra), 100)
    assert support.boxes(hs.parse_identity("(x*y)*a(z) = 0")) == {
        1: [{"x": {0}, "y": {1}, "z": {0}}, {"x": {1}, "y": {0}, "z": {0}}],
        3: [{"x": {2}, "y": {3}, "z": {2}}, {"x": {3}, "y": {2}, "z": {2}}]}


def test_support_rotates_with_the_cyclic_sum():
    algebra = make_algebra(3, 0, {(0, 1, 2): 1})
    support = idn._Support(idn.Evaluator(algebra), 100)
    law = hs.parse_identity("cyc[x,y,z; 1](x*y) = 0")
    assert support.boxes(law) == {2: [{"x": {0}, "y": {1}},
                                      {"y": {0}, "z": {1}},
                                      {"z": {0}, "x": {1}}]}
    # Over its limit, a node gets one box allowing everything.
    assert idn._Support(idn.Evaluator(algebra), 2).boxes(law) == {
        0: [{}], 1: [{}], 2: [{}]}
