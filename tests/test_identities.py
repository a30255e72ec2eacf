import copy
import functools
import gc
import itertools
import pickle
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import homsuper as hs
from homsuper import constructions
from homsuper import freealg as fa
from homsuper import identities as idn
from homsuper.search import SearchSpec, run_search
from conftest import RATIONALS, graded_algebras, make_algebra
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


def test_ast_nodes_are_immutable_values():
    x = idn.Var("x")
    assert idn.Alpha(2, x) != idn.Scale(2, x)
    assert idn.Alpha(2, x) == idn.Alpha(2, idn.Var("x"))
    assert hash(idn.Alpha(2, x)) == hash(idn.Alpha(2, idn.Var("x")))
    assert idn.Zero() == idn.Zero() and hash(idn.Zero()) == hash(idn.Zero())
    assert repr(x) == "Var(name='x')"
    assert repr(idn.Zero()) == "Zero()"
    assert repr(hs.REGISTRY["SKEW_SUPER"]) == (
        "Identity(lhs=Prod(slot='*', left=Var(name='x'), right=Var(name='y')),"
        " rhs=Scale(coeff=Fraction(-1, 1), sub=Sign(factors=((('x',),"
        " ('y',)),), sub=Prod(slot='*', left=Var(name='y'),"
        " right=Var(name='x')))))")
    law = hs.REGISTRY["LLSI"]
    variables = law.variables
    for node, name in ((x, "name"), (law, "lhs"), (law, "variables")):
        with pytest.raises(AttributeError):
            setattr(node, name, idn.Zero())
    with pytest.raises(AttributeError):
        del x.name
    assert x.name == "x" and law.variables is variables
    with pytest.raises(ValueError):
        idn.Alpha(0, x)


@settings(max_examples=100, deadline=None)
@given(st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_ast_nodes_pickle_and_copy(ident):
    ident.multilinear  # cached values do not travel with the node
    for node in idn.walk(ident):
        for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node),
                     copy.copy(node)):
            assert twin == node and hash(twin) == hash(node)
            assert type(twin) is type(node) and repr(twin) == repr(node)
    twin = pickle.loads(pickle.dumps(ident))
    assert twin.variables == ident.variables
    assert twin.multilinear == ident.multilinear


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


def test_eval_reports_variable_bound_only_in_a_sign(a2b):
    # x is even, so s(x,u) is +1 whatever u is; u must still be bound.
    ident = hs.parse_identity("s(x,u) x*x = 0")
    assert idn.free_variables(ident) == ["x", "u"]
    with pytest.raises(hs.UnboundVariable):
        hs.eval_identity_on_tuple(ident, a2b, {"x": 0})


@pytest.mark.parametrize("text,binding", [
    ("x*0 = 0", {}), ("s(x,u) 0 = 0", {"x": 0}),
    ("cyc[x,y,z; 1](x*y)*0 = x*0", {"x": 0, "y": 0})])
def test_eval_reports_a_variable_bound_only_under_a_zero_factor(
        a2b, text, binding):
    # The lowering drops these terms, but the binding must still bind
    # every variable of the law.
    with pytest.raises(hs.UnboundVariable):
        hs.eval_identity_on_tuple(hs.parse_identity(text), a2b, binding)


def test_eval_reports_missing_ternary_slot(a2b):
    with pytest.raises(hs.MissingOpSlot):
        hs.eval_identity_on_tuple(hs.REGISTRY["SHLY4"], a2b,
                                  {"x": 0, "y": 0, "z": 0})


@pytest.mark.parametrize("value,error", [
    (-1, IndexError), (2, IndexError), (True, TypeError), (1.0, TypeError),
    ("1", TypeError),
])
def test_eval_refuses_a_binding_that_is_no_basis_index(value, error):
    # On (1|1), a(x) = x at x = -1 would wrap to b2, and x = True or 1.0
    # would read as b2.
    algebra = hs.load_algebra(hs.corpus_dir() / "leibniz_f2_e.json")
    law = hs.parse_identity("a(x) = x")
    with pytest.raises(error, match="'x'"):
        hs.eval_identity_on_tuple(law, algebra, {"x": value})
    for index in (0, 1):
        assert hs.eval_identity_on_tuple(law, algebra, {"x": index}).is_zero()


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


_BINARY_LAWS = ["LLSI", "RLSI", "ASSOC_FORM", "SKEW_SUPER",
                "HOM_SUPER_JACOBI", "AKIVIS_LEIBNIZ_FORM", "PROP32_I",
                "PROP32_II", "LIE_ADMISSIBLE", "SHLY1", "SHLY3"]
_TERNARY_LAWS = ["AKIVIS", "SHLY2", "SHLY4", "SHLY5", "SHLY6", "SHLY7",
                 "SHLY8"]
# The check lists of every suite on a binary-ternary algebra; on a plain
# algebra "all" drops the ternary laws and the other suites that name one
# are refused.
_SUITE_CHECKS = {
    "leibniz": ["grading", "multiplicativity", "LLSI"],
    "lie": ["grading", "multiplicativity", "SKEW_SUPER", "HOM_SUPER_JACOBI"],
    "akivis": ["grading", "multiplicativity", "SKEW_SUPER", "AKIVIS"],
    "ly": ["grading", "SHLY1", "SHLY2", "SHLY3", "SHLY4", "SHLY5", "SHLY6",
           "SHLY7", "SHLY8"],
    "all": ["grading", "multiplicativity", "LLSI", "RLSI", "ASSOC_FORM",
            "SKEW_SUPER", "HOM_SUPER_JACOBI", "AKIVIS", "AKIVIS_LEIBNIZ_FORM",
            "PROP32_I", "PROP32_II", "LIE_ADMISSIBLE", "SHLY1", "SHLY2",
            "SHLY3", "SHLY4", "SHLY5", "SHLY6", "SHLY7", "SHLY8"],
}


def test_resolve_suite_table(a2b):
    derived = hs.build_hom_akivis(a2b, verify=False)
    single = ["grading", "multiplicativity", *_BINARY_LAWS, *_TERNARY_LAWS]
    assert set(single) == {"grading", "multiplicativity", *idn.REGISTRY}
    for name, checks in _SUITE_CHECKS.items():
        assert idn.resolve_suite(name, derived) == checks, name
    for name in single:
        assert idn.resolve_suite(name, derived) == [name], name
    plain = {name: checks for name, checks in _SUITE_CHECKS.items()
             if name in ("leibniz", "lie")}
    plain["all"] = ["grading", "multiplicativity", *_BINARY_LAWS]
    plain.update((name, [name])
                 for name in ["grading", "multiplicativity", *_BINARY_LAWS])
    for name in [*_SUITE_CHECKS, *single]:
        if name in plain:
            assert idn.resolve_suite(name, a2b) == plain[name], name
        else:
            with pytest.raises(hs.MissingOpSlot):
                idn.resolve_suite(name, a2b)
    # A list resolves in order, each check once.
    assert idn.resolve_suite(["LLSI", "leibniz", "SKEW_SUPER"], a2b) == [
        "LLSI", "grading", "multiplicativity", "SKEW_SUPER"]


def test_a_refused_suite_runs_no_check(a2b, monkeypatch):
    ran = []
    kernel_checks = ("check_algebra_grading", "check_multiplicativity")
    for module, names in ((hs.kernel, kernel_checks),
                          (constructions, kernel_checks),
                          (idn, ("check_identity", "residuals"))):
        for name in names:
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, **k: ran.append(name))
    with pytest.raises(hs.MissingOpSlot):
        hs.check_suite("ly", a2b)
    with pytest.raises(hs.MissingOpSlot):
        idn.suite_passes("ly", a2b)
    with pytest.raises(hs.MissingOpSlot):
        constructions._check_suite("ly", a2b)
    assert ran == []


def test_suite_passes_resolves_the_suite_once(a2b, f2e, monkeypatch):
    calls = []
    resolve = idn.resolve_suite
    monkeypatch.setattr(idn, "resolve_suite",
                        lambda *args: calls.append(args) or resolve(*args))
    verdicts = set()
    for algebra in (a2b, f2e):
        for suite in ("leibniz", "lie", "all", "LLSI", ["grading", "lie"]):
            witnesses = {}
            for _ in range(2):  # the second call starts from the witnesses
                calls.clear()
                verdict = idn.suite_passes(suite, algebra, witnesses)
                assert len(calls) == 1
                assert verdict == all(
                    report.passed for report in hs.check_suite(suite, algebra))
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_classical_skew_symmetry_fails_on_odd_sectors(f2e):
    # Graded skew-symmetry passes thanks to the odd-odd sign; its
    # classical text, the same law without s(x,y), fails on f*f = e.
    law = hs.REGISTRY["SKEW_SUPER"]
    ungraded = hs.parse_identity("x*y = - y*x")
    assert naive.classical(law) == ungraded
    assert hs.check_identity(law, f2e).passed
    assert not hs.check_identity(ungraded, f2e).passed


@functools.cache
def _even_leibniz_algebras():
    """The (2|0) left Leibniz algebras with constants in -1, 0, 1 and a
    diagonal twisting map over 1, -1, 2, as the search finds them: 69, 16
    of them with a nonzero Lie-Yamaguti ternary."""
    spec = SearchSpec((2, 0), alpha=["1", "-1", "2"], max_results=10 ** 6)
    return [spec.candidate(doc["metadata"]["candidate"])
            for doc in run_search(spec).documents]


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    graded_algebras().filter(lambda algebra: algebra.space.dim_odd == 0),
    st.deferred(lambda: st.sampled_from(_even_leibniz_algebras()))))
def test_even_algebras_read_every_law_as_its_classical_text(algebra):
    # Every registry law names a variable before any sign factor, so its
    # classical text keeps its variable order and the two reports compare
    # tuple for tuple.
    algebras = [algebra]
    if all(report.passed for report in hs.check_suite("leibniz", algebra)):
        algebras += [hs.build_hom_ly(algebra, verify=False),
                     hs.build_hom_akivis(algebra, verify=False)]
    for candidate in algebras:
        for name, law in hs.REGISTRY.items():
            if candidate.ternary is None and name in idn.TERNARY_LAWS:
                continue
            ungraded = naive.classical(law)
            assert ungraded.variables == law.variables, name
            assert hs.check_identity(law, candidate, name=name).to_dict(
                cap=None) == hs.check_identity(
                ungraded, candidate, name=name).to_dict(cap=None), name


def test_cyclic_sum_rotates_leading_sign():
    # cyc[x,y,z; s(x,z)](x*y) at (f,f,e) over f*f=e, f*e=f expands to
    # +(f*f) + s(f,f)(f*e) + s(e,f)(e*f) = e - f: the leading sign is
    # evaluated with the substituted parities, so the middle rotation
    # carries -1.  A non-rotating sign would give e + f instead.
    algebra = make_algebra(1, 1, {(1, 1, 0): 1, (1, 0, 1): 1})
    ident = hs.parse_identity("cyc[x,y,z; s(x,z)](x*y) = 0")
    out = hs.eval_identity_on_tuple(ident, algebra, {"x": 1, "y": 1, "z": 0})
    assert list(out.coords) == [Fraction(1), Fraction(-1)]


def _koszul_by_definition(factors, parity):
    """The product of (-1)^{|P| |Q|} over the factors, |P| the sum of the
    parities of the names in P, straight from the definition."""
    sign = 1
    for p, q in factors:
        sign *= (-1) ** (sum(parity[name] for name in p)
                         * sum(parity[name] for name in q))
    return sign


# The (1|1) group algebra of Z2: b1 is even, b2 odd, and b_i*b_j is
# b_{i+j mod 2}, so every product of basis elements is one of them.
_Z2 = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}


def _assert_sign_table(factors):
    """The factors' sign table against the definition for every parity
    tuple, and the dense scan's sign read from it: the law "factors
    (x*y)*z", each of its variables bound to the basis element of its
    parity in the Z2 group algebra, has the residual sign times
    b_{x+y+z mod 2}."""
    names, signs = idn._sign_table(factors)
    assert names == tuple(dict.fromkeys(
        name for p, q in factors for name in p + q))
    assert idn._sign_table(factors) is idn._sign_table(factors)
    assert len(signs) == 2 ** len(names)
    for parities in itertools.product((0, 1), repeat=len(names)):
        env = dict(zip(names, parities))
        assert signs[parities] == _koszul_by_definition(factors, env), (
            factors, parities)
    x, y, z = map(idn.Var, "xyz")
    shape = idn.Prod("*", idn.Prod("*", x, y), z)
    law = idn.Identity(idn.Sign(factors, shape), idn.Zero())
    scan = dict(idn._tuple_residuals(law, make_algebra(1, 1, _Z2)))
    assert len(scan) == 2 ** len(law.variables)
    for combo, residual in scan.items():
        env = dict(zip(law.variables, combo))
        expected = [0, 0]
        expected[(env["x"] + env["y"] + env["z"]) % 2] = \
            _koszul_by_definition(factors, env)
        assert list(residual.coords) == expected, (factors, combo)


def test_sign_tables_of_the_shipped_laws_match_the_definition():
    laws = [*hs.REGISTRY.values(), idn.TERNARY_EQ_DEF, idn.TERNARY_EQ_HALF,
            *(template for slots in idn.DERIVED.values()
              for template in slots.values())]
    tuples = {node.factors for law in laws for node in idn.walk(law)
              if isinstance(node, (idn.Sign, idn.Cyc))}
    assert len(tuples) >= 7
    for factors in tuples:
        _assert_sign_table(factors)


_few_names = st.sampled_from(["x", "y", "z"])
_repeating_groups = st.lists(_few_names, min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_repeating_groups, _repeating_groups),
                max_size=4).map(tuple))
def test_sign_table_matches_the_definition(factors):
    # Names repeat within a group, across groups and across factors.
    _assert_sign_table(factors)


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


# No shrinking: a failure is reported at once, not after a minute of it.
@settings(max_examples=20, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(graded_algebras(), st.data())
def test_numeric_and_free_evaluation_agree(algebra, data):
    # The two value domains of the shape walks: on every basis tuple, the
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


def _vector_residual(law, algebra, env):
    """The law's residual at one binding as a Vector: its shapes walked by
    `_shape_vector`, each Koszul sign from the definition."""
    space = algebra.space
    basis = [space.basis_vector(i) for i in range(space.dim)]
    parity = {name: space.parity(i) for name, i in env.items()}
    total = space.zero_vector()
    for coeff, factors, shape in law.monomials:
        value = idn._shape_vector(shape, env, algebra, basis)
        total += value.scale(coeff * _koszul_by_definition(factors, parity))
    return total


def _assert_free_agrees(target, source, structure, laws, data):
    n = source.space.dim
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
            assert _vector_residual(law, target, env) == _free_value(
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


def test_a_law_above_the_monomial_bound_is_refused_up_front():
    # 3^30 monomials: counted, not built.
    law = hs.parse_identity("cyc[x,y,z;1](" * 30 + "(x*y)*z" + ")" * 30)
    started = time.perf_counter()
    with pytest.raises(idn.LawTooLarge, match="205891132094649 monomials"):
        law.multilinear
    assert time.perf_counter() - started < 1
    with pytest.raises(ValueError):
        hs.check_identity(law, make_algebra(1, 0, {}))
    laws = [*hs.REGISTRY.values(), idn.TERNARY_EQ_DEF, idn.TERNARY_EQ_HALF,
            constructions.YAU_TWIST,
            *(template for slots in idn.DERIVED.values()
              for template in slots.values())]
    assert max(len(law.monomials) for law in laws) == 9  # AKIVIS
    assert idn.MAX_MONOMIALS > 100 * 9


def test_the_monomial_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(idn, "MAX_MONOMIALS", 9)
    akivis = idn.registry_text()["AKIVIS"]
    assert len(hs.parse_identity(akivis).monomials) == 9
    with pytest.raises(idn.LawTooLarge):
        hs.parse_identity("x*y + " + akivis).monomials


@settings(max_examples=200, deadline=None)
@given(st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_monomials_are_counted_before_they_are_built(ident):
    assert idn._monomial_count(ident) == len(ident.monomials)
    for coeff, factors, shape in ident.monomials:
        assert coeff and type(coeff) in (int, Fraction)
        assert type(coeff) is int or coeff.denominator != 1
        assert all(isinstance(node, (idn.Var, idn.Alpha, idn.Prod,
                                     idn.Ternary)) for node in idn.walk(shape))
        assert set(idn._factor_names(factors)) <= set(ident.variables)


def test_equal_monomials_are_kept_apart():
    law = hs.parse_identity("x*y = x*y")
    assert [c for c, _, _ in law.monomials] == [1, -1]
    assert not hs.parse_identity("x = x + y - y").multilinear


@pytest.mark.parametrize("text,count", [
    ("a(x)", 1), ("0", 0), ("(x*y)*(z*u)", 4), ("(x*y)*{z, u, v}", 5)])
def test_template_op_refuses_other_than_2_or_3_variables(a2b, text, count):
    template = hs.parse_identity(text)
    with pytest.raises(ValueError, match="not %d$" % count):
        idn.template_op(template, a2b)


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
    assert idn.slot_op(algebra, zero).is_zero()
    _assert_checks_match_the_per_tuple_evaluator(algebra)


# No shrinking: a failure is reported at once, not after minutes of it.
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.one_of(graded_algebras(), graded_algebras(RATIONALS),
                 graded_algebras(st.sampled_from([0, 0, 0, 1, -1])))
       .filter(lambda algebra: not algebra.product.is_zero()))
# b3*b2 = b1 on (1|2): SKEW_SUPER first fails at the odd pair (b2, b3),
# where its residual b2*b3 + s(x,y) b3*b2 is -b1 only with the sign.
@example(make_algebra(1, 2, {(2, 1, 0): 1}))
def test_first_counterexample_matches_the_naive_interpreter(algebra):
    # A search's scan: the report stops at the first failing tuple that
    # the dense tables of tests/naive.py give.  Mostly zero constants let
    # the first failure fall past the even tuples, where signs show.
    labels = algebra.space.labels
    n = algebra.space.dim
    laws = dict({name: hs.REGISTRY[name] for name in _BINARY_LAWS},
                TERNARY_EQ_DEF=idn.TERNARY_EQ_DEF,
                TERNARY_EQ_HALF=idn.TERNARY_EQ_HALF)
    for name, law in laws.items():
        report = hs.check_identity(law, algebra, name=name, first_only=True)
        bad = naive.law_residuals(law, algebra)
        assert report.passed == (not bad), name
        if not bad:
            assert report.checked == n ** len(law.variables), name
            assert report.counterexamples == [], name
            continue
        combo, residual = bad[0]
        rank = functools.reduce(lambda r, i: r * n + i, combo, 0)
        assert report.checked == rank + 1, name
        assert report.counterexamples == [{
            "tuple": [labels[i] for i in combo],
            "residual": {labels[l]: str(c) for l, c in enumerate(residual)
                         if c}}], name


def test_law_folded_to_zero_passes_without_evaluating(monkeypatch):
    zero = make_algebra(2, 1, {}, alpha=[2, 3, 5])

    def refuse(*args):
        raise AssertionError("evaluated a tuple")

    monkeypatch.setattr(idn, "_shape_vector", refuse)
    monkeypatch.setattr(idn, "_shape_value", refuse)
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
    """The report of check_identity and the basis tuples it evaluated the
    law on one by one, each once, in order: the bindings that
    `_shape_vector` saw.  The tensor evaluation of a law, which walks its
    shapes only, counts as none."""
    seen = {}
    evaluate = idn._shape_vector

    def spy(shape, binding, *args):
        seen[tuple(binding[name] for name in law.variables)] = None
        return evaluate(shape, binding, *args)

    monkeypatch.setattr(idn, "_shape_vector", spy)
    report = hs.check_identity(law, algebra)
    monkeypatch.undo()
    return report, list(seen)


def _assert_reference_report(report, law, algebra):
    bad = _reference_counterexamples(law, algebra)
    assert report.checked == algebra.space.dim ** len(law.variables)
    assert report.counterexamples == [c for _, c in bad]


def test_sparse_ternary_law_scans_only_its_support(monkeypatch):
    # The Lie algebra b1*b3 = b3 plus a line: its Lie-Yamaguti ternary
    # {x,y,z} = -(x*y)*a(z) has two nonzero constants.  SHLY8 is evaluated
    # as a tensor, on no basis tuple.
    lie = make_algebra(2, 1, {(0, 2, 2): 1, (2, 0, 2): -1})
    ly = constructions.build_hom_ly(lie)
    law = hs.REGISTRY["SHLY8"]
    assert not ly.ternary.is_zero()
    report, seen = _tuples_evaluated(monkeypatch, law, ly)
    assert seen == []
    assert report.checked == ly.space.dim ** 5
    _assert_reference_report(report, law, ly)


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
    # the zero ternary.  SHLY5 keeps its product term, nonzero at
    # (b1,b3,b1) and (b3,b1,b1) only, whose rotations cancel.
    algebra = _with_ternary(
        make_algebra(2, 1, {(0, 2, 2): 1, (2, 0, 2): -1}), {})
    for name in ("SHLY2", "SHLY4", "SHLY5", "SHLY6", "SHLY7", "SHLY8"):
        law = hs.REGISTRY[name]
        report, seen = _tuples_evaluated(monkeypatch, law, algebra)
        assert seen == [], name
        assert report.passed, name
        _assert_reference_report(report, law, algebra)


def test_zero_bracket_skips_the_akivis_jacobian(monkeypatch):
    # b1*b1 = b2 is commutative, so the bracket Jacobian on the left of
    # AKIVIS vanishes, and only the ternary {b1,b2,b3} = b1 on the right
    # is left: it fails on the permutations of (b1, b2, b3).
    algebra = _with_ternary(make_algebra(3, 0, {(0, 0, 1): 1}),
                            {(0, 1, 2, 0): 1})
    assert idn.slot_op(algebra, "[,]").is_zero()
    law = hs.REGISTRY["AKIVIS"]
    report, seen = _tuples_evaluated(monkeypatch, law, algebra)
    assert seen == []
    assert [tuple(int(label[1:]) - 1 for label in c["tuple"])
            for c in report.counterexamples] == sorted(
        itertools.permutations(range(3)))
    _assert_reference_report(report, law, algebra)


def test_full_scan_when_no_used_slot_is_zero(monkeypatch, a2b):
    # The ternary is zero, but LLSI does not use it.
    algebra = _with_ternary(a2b, {})
    report, seen = _tuples_evaluated(monkeypatch, hs.REGISTRY["LLSI"],
                                     algebra)
    assert report.passed
    assert seen == list(itertools.product(range(2), repeat=3))


# --------------------------------------------------------------------------
# The tensor evaluation of a law

def _support(law, algebra):
    """Coordinate -> the bindings, in lexicographic order, of the rows of
    the law's tensor that are nonzero there, each binding a {variable:
    basis index} dict."""
    support = {}
    for combo, row in idn._law_tensor(law, algebra).items():
        for l in row:
            support.setdefault(l, []).append(dict(zip(law.variables, combo)))
    return support


def test_support_follows_the_twisting_map_to_its_preimages():
    # a swaps b1 and b2, so a(x)*y, nonzero only at b1*b1 = b2, needs
    # x = b2 and y = b1, and then lies on b2.
    algebra = make_algebra(2, 0, {(0, 0, 1): 1},
                           alpha=hs.EvenMap(hs.SuperSpace(2, 0),
                                            [[0, 1], [1, 0]]))
    assert _support(hs.parse_identity("a(x)*y = 0"), algebra) == {
        1: [{"x": 1, "y": 0}]}
    # a2 is the identity: b1*b1 - b1*a(b1) = b2, b1*b2 - b1*a(b2) = -b2.
    assert _support(hs.parse_identity("a2(x)*y = x*a(y)"), algebra) == {
        1: [{"x": 0, "y": 0}, {"x": 0, "y": 1}]}


def test_support_follows_output_coordinates_through_operations():
    # x*y lies on b2 or b4, never on b1 or b3, so (x*y)*a(z) can only use
    # b2*b1 = -b2 and b4*b3 = -2 b4: 4 of the 64 tuples.
    algebra = make_algebra(4, 0, {(0, 1, 1): 1, (1, 0, 1): -1,
                                  (2, 3, 3): 2, (3, 2, 3): -2})
    assert _support(hs.parse_identity("(x*y)*a(z) = 0"), algebra) == {
        1: [{"x": 0, "y": 1, "z": 0}, {"x": 1, "y": 0, "z": 0}],
        3: [{"x": 2, "y": 3, "z": 2}, {"x": 3, "y": 2, "z": 2}]}


def test_support_rotates_with_the_cyclic_sum():
    # b1*b2 = b3 and b3*b1 = b2, so (x*y)*z is nonzero at (b1, b2, b1)
    # only; each rotation of the body moves that tuple with the variables.
    algebra = make_algebra(3, 0, {(0, 1, 2): 1, (2, 0, 1): 1})
    law = hs.parse_identity("cyc[x,y,z; 1]((x*y)*z) = 0")
    assert _support(law, algebra) == {1: [{"x": 0, "y": 0, "z": 1},
                                          {"x": 0, "y": 1, "z": 0},
                                          {"x": 1, "y": 0, "z": 0}]}
    # Each rotation of x*y leaves one variable unbound: no tensor.
    with pytest.raises(hs.NonMultilinearLaw):
        idn._law_tensor(hs.parse_identity("cyc[x,y,z; 1](x*y) = 0"), algebra)


def test_cancelling_monomials_leave_no_zero_and_no_empty_row():
    # x*y - s(x,y) x*y is 2 x*y where x and y are both odd, and its two
    # monomials cancel wherever x or y is even.
    algebra = make_algebra(1, 2, {(0, 0, 0): 1, (0, 1, 1): 2, (1, 0, 2): 3,
                                  (1, 2, 0): 1, (2, 1, 0): -1, (2, 2, 0): 5})
    law = hs.parse_identity("x*y - s(x,y) x*y")
    rows = idn._law_tensor(law, algebra)
    assert rows == {combo: {l: c for l, c in enumerate(residual) if c}
                    for combo, residual in naive.law_residuals(law, algebra)}
    assert list(rows) == [(1, 2), (2, 1), (2, 2)]
    assert all(row and all(row.values()) for row in rows.values())


# Sign factors on variables that their subterm does not bind: the sign is
# decided once the product binds them.
_DEFERRED_SIGN_LAWS = [hs.parse_identity(text) for text in (
    "(s(x,z) x*y)*a(z) = 0",
    "(s(x,z) x*y)*a(z) = s(x,z) (x*y)*a(z)",
    "a(s((y+z),u) x)*(s(x,y) [y, z]*u) = (x*y)*(z*u)",
    "{s(z,u) x, s(y,(x+u)) y, z*u} = - s(x,y) {y, x, z*u}",
    "u*cyc[x,y,z; s(x,(y+u))]((x*y)*a(z)) = 0",
    "cyc[x,y,z; s(x,z)](s(u,y) a(u)*(x*[y, z])) = 0",
    # Inside a cyclic body the rotations read the deferred parity of each
    # of the three rotated variables in turn.
    "cyc[x,y,z; 1]((s(x,y) y*z)*a(x)) = 0",
    "u*cyc[x,y,z; s(x,(y+u))]((s(u,z) x*y)*a(z)) = 0",
)]


def _signed_algebra():
    """A (1|2) algebra whose product is nonzero on every parity sector,
    with a ternary and a twisting map that is not diagonal."""
    space = hs.SuperSpace(1, 2)
    product = hs.BilinearOp(space, entries={
        (0, 0, 0): 1, (1, 2, 0): 1, (2, 1, 0): 2, (1, 1, 0): -1,
        (0, 1, 2): 1, (2, 0, 1): -1, (0, 2, 1): 3})
    ternary = hs.TernaryOp(space, entries={
        (0, 1, 2, 0): 1, (1, 1, 0, 0): 2, (2, 0, 0, 1): -1, (0, 0, 0, 0): 1})
    alpha = hs.EvenMap(space, [[2, 0, 0], [0, 1, 1], [0, 0, -1]])
    return hs.HomSuperalgebra(space, product, alpha, ternary=ternary)


def _assert_tensor_matches_tuples(law, algebra):
    """residuals against the per-tuple scan; returns the residuals, or
    None when the algebra lacks a slot of the law.  Every coordinate of a
    residual is a Fraction, whatever the tensor held."""
    try:
        for slot in law.slots:
            idn.slot_op(algebra, slot)
    except hs.MissingOpSlot:
        with pytest.raises(hs.MissingOpSlot):
            list(idn.residuals(law, algebra))
        return None
    found = list(idn.residuals(law, algebra))
    assert found == list(idn._tuple_residuals(law, algebra)), idn.pretty(law)
    for _, residual in found:
        assert all(type(c) is Fraction for c in residual.coords)
    return found


def _by_binding(law, found):
    """Residuals keyed by the binding of each variable name, so that a
    law and its classical text compare whatever order they name their
    variables in."""
    return {tuple(sorted(zip(law.variables, combo))): list(residual.coords)
            for combo, residual in found}


@pytest.mark.parametrize("law", _DEFERRED_SIGN_LAWS, ids=idn.pretty)
def test_deferred_signs_match_the_per_tuple_scan(law):
    algebra = _signed_algebra()
    assert law.multilinear
    found = {}
    for text in (law, naive.classical(law)):
        found[text] = _assert_tensor_matches_tuples(text, algebra)
        report = hs.check_identity(text, algebra)
        assert [tuple(int(label[1:]) - 1 for label in c["tuple"])
                for c in report.counterexamples] == [
            combo for combo, _ in found[text]]
    graded, ungraded = (_by_binding(text, found[text]) for text in found)
    if law is _DEFERRED_SIGN_LAWS[1]:
        # The sign is a scalar, so where it stands makes no difference.
        assert graded == {}
    else:
        assert graded and graded != ungraded


def test_deferred_signs_inside_a_cyclic_body_rotate_all_three():
    # Each rotation renames the deferred sign with its body, so every
    # monomial carries the sign of the variables it binds.
    law = _DEFERRED_SIGN_LAWS[6]
    assert [factors for _, factors, _ in law.monomials] == [
        ((("x",), ("y",)),), ((("y",), ("z",)),), ((("z",), ("x",)),)]
    assert [idn.pretty(idn.Identity(shape, idn.Zero()))
            for _, _, shape in law.monomials] == [
        "(y*z)*a(x) = 0", "(z*x)*a(y) = 0", "(x*y)*a(z) = 0"]
    # The leading sign comes first, then the body's, both renamed.
    law = _DEFERRED_SIGN_LAWS[-1]
    assert [factors for _, factors, _ in law.monomials] == [
        ((("x",), ("y", "u")), (("u",), ("z",))),
        ((("y",), ("z", "u")), (("u",), ("x",))),
        ((("z",), ("x", "u")), (("u",), ("y",)))]
    assert {c for c, _, _ in law.monomials} == {1}


_COMMON_LAWS = dict(
    hs.REGISTRY,
    TERNARY_EQ_DEF=idn.TERNARY_EQ_DEF, TERNARY_EQ_HALF=idn.TERNARY_EQ_HALF,
    YAU_TWIST=constructions.YAU_TWIST,
    **{"%s %s" % (structure, slot): template
       for structure, slots in idn.DERIVED.items()
       for slot, template in slots.items()})


def test_one_walk_per_law(monkeypatch):
    # Every law, deferred signs included, is lowered once and walked once
    # as a tensor.
    algebra = _signed_algebra()
    idn.commutator(algebra)  # the "[,]" slot's own walk, once per algebra
    laws = dict(_COMMON_LAWS, **{"deferred %d" % i: law for i, law
                                 in enumerate(_DEFERRED_SIGN_LAWS)})
    for law in laws.values():
        list(idn.residuals(law, algebra))
    walks = Counter()
    law_tensor = idn._law_tensor

    def spy(law, algebra):
        walks[law] += 1
        return law_tensor(law, algebra)

    def refuse(node):
        raise AssertionError("a law lowered again")

    monkeypatch.setattr(idn, "_law_tensor", spy)
    monkeypatch.setattr(idn, "_lower", refuse)
    for name, law in laws.items():
        walks.clear()
        list(idn.residuals(law, algebra))
        assert walks == {law: 1}, name


def test_residuals_leave_no_reference_cycle(corpus):
    # Each evaluator is freed by reference counting as soon as its call
    # returns: its operation hooks hold the constants, not the evaluator.
    # So is all a one-tuple evaluation builds, as a search's witnesses
    # build it for every candidate, and all a free expansion builds, as
    # the prover builds it for every sector of an obligation.
    algebra = corpus[0][1]
    law = hs.REGISTRY["LLSI"]
    binding = {"x": 0, "y": 0, "z": 0}
    expansions = [(hs.REGISTRY[name], structure) for name, structure in (
        ("SHLY8", "ly"), ("AKIVIS", "akivis"), ("PROP32_II", None))]
    list(idn.residuals(law, algebra))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            list(idn.residuals(law, algebra))
            idn._residual_at(law, algebra, binding)
            hs.eval_identity_on_tuple(law, algebra, binding)
            for free_law, structure in expansions:
                fa.expand_template(free_law, dict.fromkeys(
                    free_law.variables, 0), structure)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Signs next to zero factors.  x*x repeats a variable, which a multilinear
# law allows under a zero factor only: the keys of its tensor bind nothing
# meaningful, and the sign on them is immaterial but must not fail.  In
# the last law the zero term 0*z names z, but no key of the sum binds it.
_ZERO_FACTOR_LAWS = [hs.parse_identity(text) for text in (
    "(s(x,y) x*x)*0 + x*y = 0",
    "(s(y,x) x*x)*0 + x*y = 0",
    "(s(x,y) x*x)*0 + 0*y + x*y = 0",
    "(s(z,x) (x*y + 0*z))*z = (x*y)*z",
)]

_DIFFERENTIAL_LAWS = dict(
    _COMMON_LAWS, MIXED=_MIXED_LAW,
    **{"deferred %d" % i: law for i, law in enumerate(_DEFERRED_SIGN_LAWS)},
    **{"classical deferred %d" % i: naive.classical(law)
       for i, law in enumerate(_DEFERRED_SIGN_LAWS)},
    **{"zero factor %d" % i: law for i, law in enumerate(_ZERO_FACTOR_LAWS)})


@settings(max_examples=30, deadline=None)
@given(st.one_of(graded_algebras(),
                 zeroed_algebras().map(lambda case: case[1]),
                 sparse_algebras()))
def test_tensor_residuals_match_the_per_tuple_scan(algebra):
    for name, law in _DIFFERENTIAL_LAWS.items():
        _assert_tensor_matches_tuples(law, algebra)


@settings(max_examples=30, deadline=None)
@given(graded_algebras(RATIONALS, ternary=True, max_dim=3))
def test_tensor_residuals_match_the_scan_over_rationals(algebra):
    # Non-integral constants and map entries meet the integral ones, in
    # the structure constants, the map powers and the laws' own 1/2.
    for law in _DIFFERENTIAL_LAWS.values():
        assert _assert_tensor_matches_tuples(law, algebra) is not None


def _assert_matches_the_naive_interpreter(law, algebra):
    """The dense scan (`_tuple_residuals`) and the one-tuple `_residual_at`
    against tests/naive.py on every basis tuple, the multilinearity verdict
    against the naive expansion, and for a multilinear law residuals
    against the naive scan.  `_residual_at` keeps no zero value, so its
    dict is empty exactly where the residual is zero, and where the
    constants and the law's coefficients are ints so is every value it
    gives."""
    value = naive.ast_evaluator(algebra)
    scan = dict(idn._tuple_residuals(law, algebra))
    names = law.variables
    n = algebra.space.dim
    integral = all(type(c) is int for c, _, _ in law.monomials) and all(
        c.denominator == 1
        for op in (algebra.product, algebra.alpha, algebra.ternary)
        if op is not None for terms in op.constants.values()
        for _, c in terms)
    for combo in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, combo))
        dense = scan.get(combo, algebra.space.zero_vector())
        got = idn._residual_at(law, algebra, env)
        where = (idn.pretty(law), combo)
        assert list(dense.coords) == value(law, env) == [
            got.get(l, 0) for l in range(n)], where
        assert all(got.values()) and (not got) == dense.is_zero(), where
        assert not integral or all(type(c) is int for c in got.values()), \
            where
        assert hs.eval_identity_on_tuple(law, algebra, env) == dense, where
    assert law.multilinear == naive.multilinear(law), idn.pretty(law)
    if law.multilinear:
        assert [(combo, list(residual.coords)) for combo, residual
                in idn.residuals(law, algebra)] == naive.law_residuals(
            law, algebra), idn.pretty(law)


# Integral and rational constants, and a twisting map that is neither
# diagonal nor multiplicative.
def _integral_or_rational_algebras(max_dim):
    return st.one_of(graded_algebras(ternary=True, max_dim=max_dim),
                     graded_algebras(RATIONALS, ternary=True,
                                     max_dim=max_dim))


@settings(max_examples=40, deadline=None)
@given(_integral_or_rational_algebras(2),
       st.builds(idn.Identity, _expr_strategy, _expr_strategy))
def test_drawn_laws_match_the_naive_interpreter(algebra, law):
    _assert_matches_the_naive_interpreter(law, algebra)


@settings(max_examples=8, deadline=None)
@given(_integral_or_rational_algebras(3))
def test_shipped_laws_match_the_naive_interpreter(algebra):
    for law in _DIFFERENTIAL_LAWS.values():
        _assert_matches_the_naive_interpreter(law, algebra)


def test_shipped_laws_match_the_naive_interpreter_on_binary_ternary_algebras(
        corpus):
    # "[,]" is the binary operation itself, and the ternary laws meet a2.
    sources = [algebra for _, algebra in corpus
               if algebra.metadata["expected"].get("leibniz")]
    sources += _even_leibniz_algebras()[::8]
    laws = [hs.REGISTRY[name] for name in ("SHLY2", "SHLY4", "SHLY5", "SHLY6",
                                           "SHLY7", "SHLY8", "AKIVIS",
                                           "PROP32_II")]
    for source in sources:
        for derived in (hs.build_hom_ly(source, verify=False),
                        hs.build_hom_akivis(source, verify=False)):
            for law in laws:
                _assert_matches_the_naive_interpreter(law, derived)


def test_tensor_path_raises_as_the_scan_does(a2b):
    law = hs.REGISTRY["SHLY7"]
    for first_only in (False, True):
        with pytest.raises(hs.MissingOpSlot):
            hs.check_identity(law, a2b, first_only=first_only)
    # Even on an empty space, where no tuple is evaluated.
    empty = make_algebra(0, 0, {})
    with pytest.raises(hs.MissingOpSlot):
        list(idn.residuals(law, empty))
    with pytest.raises(hs.NonMultilinearLaw):
        list(idn.residuals(hs.parse_identity("x*x = 0"), a2b))
