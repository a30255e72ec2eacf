import ast
import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import homsuper as hs
from conftest import RATIONALS, graded_algebras, make_algebra
import naive


@st.composite
def graded_entries(draw, arity):
    """A space of dimension up to (2|2) and structure constants in -3..3,
    zeros included, on every slot the parity rule allows."""
    space = hs.SuperSpace(draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    entries = {}
    for index in itertools.product(range(space.dim), repeat=arity + 1):
        if sum(map(space.parity, index[:-1])) % 2 == space.parity(index[-1]):
            entries[index] = draw(st.integers(-3, 3))
    return space, entries


def graded_bilinear_ops():
    return graded_entries(2).map(
        lambda drawn: (drawn[0], hs.BilinearOp(drawn[0], entries=drawn[1])))


def test_make_superspace_cases():
    empty = hs.SuperSpace(0, 0)
    assert empty.dim == 0 and empty.labels == ()
    even = hs.SuperSpace(2, 0)
    assert even.parities == (0, 0)
    mixed = hs.SuperSpace(1, 1)
    assert mixed.parities == (0, 1)
    assert mixed.labels == ("b1", "b2")


def test_superspace_rejects_negative_dims():
    with pytest.raises(ValueError, match="dimensions must be nonnegative"):
        hs.SuperSpace(-1, 0)


@pytest.mark.parametrize("dims", [(1.5, 0), (True, 1), (1, False), ("2", 1),
                                  (2, None), (-1.0, 0)])
def test_superspace_refuses_dimensions_that_are_not_ints(dims):
    # No dimension is truncated or read as a bool; the error names it.
    bad = next(d for d in dims if type(d) is not int)
    with pytest.raises(TypeError, match="dimension %s is not an integer"
                       % re.escape(repr(bad))):
        hs.SuperSpace(*dims)


@pytest.mark.parametrize("index", [1.0, True, False, "1", None, 0.5])
def test_superspace_refuses_indices_that_are_not_ints(index):
    # A float or bool is not read as a position.
    sp = hs.SuperSpace(1, 1)
    for method in (sp.parity, sp.basis_vector):
        with pytest.raises(TypeError, match="basis index %s is not an integer"
                           % re.escape(repr(index))):
            method(index)


@pytest.mark.parametrize("index", [-1, 2])
def test_superspace_refuses_indices_out_of_range(index):
    sp = hs.SuperSpace(1, 1)
    for method in (sp.parity, sp.basis_vector):
        with pytest.raises(IndexError,
                           match="basis index out of range: %d" % index):
            method(index)
    assert [sp.parity(i) for i in (0, 1)] == [0, 1]


def test_vector_arithmetic_and_homogeneity():
    sp = hs.SuperSpace(1, 1)
    e, f = sp.basis_vector(0), sp.basis_vector(1)
    assert (e + f).coords == (1, 1)
    assert (e - e).is_zero()
    assert e.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 0)
    assert e.is_homogeneous(0) and not e.is_homogeneous(1)
    assert f.is_homogeneous(1)
    assert sp.zero_vector().is_homogeneous(0)
    assert sp.zero_vector().is_homogeneous(1)
    assert not (e + f).is_homogeneous(0)


def test_vector_dimension_mismatch():
    sp = hs.SuperSpace(2, 0)
    other = hs.SuperSpace(1, 1)
    with pytest.raises(hs.DimensionMismatch):
        hs.Vector(sp, (1,))
    with pytest.raises(hs.DimensionMismatch):
        sp.basis_vector(0) + other.basis_vector(0)


def test_public_vector_coerces_and_refuses_inexact_entries():
    sp = hs.SuperSpace(1, 1)
    v = hs.Vector(sp, ["1/2", 3])
    assert v.coords == (Fraction(1, 2), Fraction(3))
    assert all(type(c) is Fraction for c in v.coords)
    with pytest.raises(TypeError):
        hs.Vector(sp, [0.5, 1])
    with pytest.raises(ValueError, match="exponent"):
        hs.Vector(sp, ["1e3", 1])
    with pytest.raises(TypeError):
        sp.basis_vector(0).scale(0.5)


def test_kernel_vectors_hold_fractions():
    # The kernel builds its results without coercing them again, so what
    # it hands out must already be exact Fractions.
    sp = hs.SuperSpace(2, 1)
    op = hs.BilinearOp(sp, entries={(0, 1, 1): 2, (2, 2, 0): "-1/3"})
    alpha = hs.EvenMap.diagonal(sp, [1, "1/2", 3])
    x = hs.Vector(sp, [1, 2, 3])
    # The stored constants 2 and 3 are ints; their images are not.
    for v in (op(x, x), op.on_basis(2, 2), op.on_basis(0, 1), alpha(x),
              alpha.on_basis(1), alpha.on_basis(2), x + x, x - x, -x,
              x.scale(2), 2 * x):
        assert len(v.coords) == 3
        assert all(type(c) is Fraction for c in v.coords), v
    assert op(x, x).coords == (Fraction(-3), Fraction(4), 0)
    assert op.on_basis(0, 1).coords == (0, 2, 0)
    assert op.table[0][1] == (0, 2, 0) and alpha.rows[2] == (0, 0, 3)
    for row in (*alpha.rows, *itertools.chain(*op.table)):
        assert all(type(c) is Fraction for c in row), row


def _assert_exact(op):
    """Every stored constant is nonzero and an int exactly where it is
    integral, as `kernel.exact` gives it."""
    for terms in op.constants.values():
        for _, c in terms:
            assert c != 0
            assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_every_operation_stores_its_constants_exactly(tmp_path):
    sp = hs.SuperSpace(2, 1)
    values = [2, "3", "-1/2", "4/2", "1.0", "0.5", Fraction(6, 3),
              Fraction(1, 3)]
    want = [2, 3, Fraction(-1, 2), 2, 1, Fraction(1, 2), 2, Fraction(1, 3)]
    slots = [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (0, 2, 2),
             (2, 0, 2), (2, 2, 0), (2, 2, 1)]
    product = hs.BilinearOp(sp, entries=dict(zip(slots, values)))
    assert {index + (l,): c for index, terms in product.constants.items()
            for l, c in terms} == dict(zip(slots, want))
    ternary = hs.TernaryOp(sp, entries={index[:-1] + (0,) + index[-1:]: v
                                        for index, v in zip(slots, values)})
    alpha = hs.EvenMap(sp, [["1/2", "2", 0], [Fraction(3), "-1", 0],
                            [0, 0, "4/2"]])
    algebra = hs.HomSuperalgebra(sp, product, alpha, ternary=ternary)
    ops = [product, ternary, alpha, product.transpose(),
           hs.EvenMap.diagonal(sp, ["2/1", "1/3", 5]),
           hs.EvenMap.identity(sp), alpha.compose(alpha),
           hs.hom_associator(algebra)]
    ops += [alpha.power(k) for k in range(5)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "dims": {"even": 2, "odd": 1},
        "product": [[1, 1, 1, "4/2"], [1, 2, 2, "1.0"], [1, 3, 3, "0.5"]],
        "ternary": [[1, 1, 1, 1, "-6/3"], [3, 3, 1, 1, "-1/3"]],
        "alpha": [["1", "0", "0"], ["0", "3/3", "0"], ["0", "0", "1/2"]]}),
        encoding="utf-8")
    loaded = hs.load_algebra(path)
    ops += [loaded.product, loaded.ternary, loaded.alpha]
    for corpus_path in hs.corpus_paths():
        algebra = hs.load_algebra(corpus_path)
        ops += [algebra.product, algebra.alpha]
    for op in ops:
        _assert_exact(op)
    # Both kinds of constant occur, including after composing.
    kinds = {type(c) for op in ops for terms in op.constants.values()
             for _, c in terms}
    assert kinds == {int, Fraction}
    assert {type(c) for terms in alpha.power(3).constants.values()
            for _, c in terms} == {int, Fraction}
    # The rule refuses what scalar refuses.
    for bad, error in ((0.5, TypeError), (1.0, TypeError),
                       ("1e3", ValueError)):
        with pytest.raises(error):
            hs.BilinearOp(sp, entries={(0, 0, 0): bad})
        with pytest.raises(error):
            hs.EvenMap.diagonal(sp, [bad, 1, 1])


def test_eval_bilinear_examples():
    sp = hs.SuperSpace(2, 0)
    zero_op = hs.BilinearOp(sp)
    a, b = sp.basis_vector(0), sp.basis_vector(1)
    assert zero_op(a, b).is_zero()

    prod = hs.BilinearOp(sp, entries={(0, 0, 1): 1})
    assert prod(a, a) == b
    assert prod(a, a.scale(2) + b) == b.scale(2)


def test_structure_constant_keys_must_be_in_range():
    sp = hs.SuperSpace(2, 0)
    for key in ((-1, 0, 0), (0, 2, 0), (0, 0, -2)):
        with pytest.raises(hs.DimensionMismatch):
            hs.BilinearOp(sp, entries={key: 1})
    with pytest.raises(hs.DimensionMismatch):
        hs.TernaryOp(sp, entries={(0, 0, 0, 5): 1})


def test_structure_constant_keys_must_have_one_index_per_slot():
    sp = hs.SuperSpace(2, 0)
    for key in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(hs.DimensionMismatch):
            hs.BilinearOp(sp, entries={key: 1})
    with pytest.raises(hs.DimensionMismatch):
        hs.TernaryOp(sp, entries={(0, 0, 1): 1})


def test_structure_constant_keys_must_be_ints():
    # 1.0 and True equal the index 1, but neither is one: a float would
    # be saved as "2.0", which loading refuses, and True would be stored.
    sp = hs.SuperSpace(2, 0)
    for op, width in ((hs.BilinearOp, 3), (hs.TernaryOp, 4)):
        for bad in (1.0, True, False):
            for slot in range(width):
                key = [0] * width
                key[slot] = bad
                with pytest.raises(hs.DimensionMismatch):
                    op(sp, entries={tuple(key): 1})


def test_eval_ternary_examples():
    sp = hs.SuperSpace(2, 0)
    zero_op = hs.TernaryOp(sp)
    b1, b2 = sp.basis_vector(0), sp.basis_vector(1)
    assert zero_op(b1, b1, b1).is_zero()

    t = hs.TernaryOp(sp, entries={(0, 0, 0, 1): 1})
    assert t(b1, b1, b1) == b2
    assert t(b1.scale(2), b1, b1) == b2.scale(2)


def test_even_map_action_and_powers():
    sp = hs.SuperSpace(2, 0)
    ident = hs.EvenMap.identity(sp)
    a, b = sp.basis_vector(0), sp.basis_vector(1)
    assert ident(a + b) == a + b

    diag = hs.EvenMap.diagonal(sp, [2, 4])
    assert diag(a) == a.scale(2)
    assert diag.power(2) == hs.EvenMap.diagonal(sp, [4, 16])
    assert diag.power(0) == ident


def test_even_map_power_composition_law():
    sp = hs.SuperSpace(1, 1)
    m = hs.EvenMap(sp, [["2", "0"], ["0", "-3"]])
    for j, k in itertools.product(range(4), repeat=2):
        assert m.power(j).compose(m.power(k)) == m.power(j + k)


@pytest.mark.parametrize("k", [1.5, 2.0, True, False, "2", None])
def test_even_map_power_refuses_a_non_integer(k):
    # Checked before the cache, so a float equal to a cached power is
    # refused as well.
    m = hs.EvenMap(hs.SuperSpace(1, 1), [["2", "0"], ["0", "-3"]])
    m.power(2)
    with pytest.raises(TypeError, match=r"^map power %s is not an integer$"
                       % re.escape(repr(k))):
        m.power(k)


def test_even_map_rejects_parity_violation():
    sp = hs.SuperSpace(1, 1)
    with pytest.raises(hs.ParityError):
        hs.EvenMap(sp, [["0", "1"], ["0", "0"]])


def test_even_map_dimension_mismatch():
    sp = hs.SuperSpace(1, 1)
    other = hs.SuperSpace(2, 0)
    m = hs.EvenMap.identity(sp)
    with pytest.raises(hs.DimensionMismatch):
        m(other.basis_vector(0))
    with pytest.raises(hs.DimensionMismatch):
        m.compose(hs.EvenMap.identity(other))


def test_algebras_refuse_operations_of_the_wrong_arity():
    # A ternary as the product once passed a first-counterexample check of
    # LLSI and failed a full one with a bare TypeError; a bilinear map as
    # alpha failed with an AttributeError.  Each is refused up front, with
    # the component named, in both kinds of algebra.
    sp = hs.SuperSpace(1, 0)
    binary, ternary = hs.BilinearOp(sp), hs.TernaryOp(sp, {(0, 0, 0, 0): 1})
    alpha = hs.EvenMap.identity(sp)
    cases = [
        (hs.HomSuperalgebra, (sp, ternary, alpha), "product"),
        (hs.HomSuperalgebra, (sp, None, alpha), "product"),
        (hs.HomSuperalgebra, (sp, binary, binary), "twisting map"),
        (hs.HomSuperalgebra, (sp, binary, object()), "twisting map"),
        (hs.HomSuperalgebra, (sp, binary, alpha, binary), "ternary product"),
        (hs.BinaryTernaryAlgebra, (sp, ternary, ternary, alpha), "product"),
        (hs.BinaryTernaryAlgebra, (sp, binary, binary, alpha),
         "ternary product"),
        (hs.BinaryTernaryAlgebra, (sp, binary, ternary, binary),
         "twisting map"),
    ]
    for kind, args, role in cases:
        with pytest.raises(TypeError, match="^%s: expected " % role):
            kind(*args)
    assert hs.BinaryTernaryAlgebra(sp, binary, ternary, alpha).ternary \
        is ternary


def test_check_grading_examples():
    sp = hs.SuperSpace(1, 1)
    assert hs.check_grading(hs.BilinearOp(sp)).passed

    odd_square = hs.BilinearOp(sp, entries={(1, 1, 0): 1})
    assert hs.check_grading(odd_square).passed

    bad = hs.BilinearOp(sp, entries={(0, 1, 0): 1})
    report = hs.check_grading(bad)
    assert not report.passed
    assert report.counterexamples == [{"index": [1, 2, 1]}]


def test_check_grading_ternary():
    sp = hs.SuperSpace(1, 1)
    good = hs.TernaryOp(sp, entries={(1, 1, 0, 0): 1})
    assert hs.check_grading(good).passed
    bad = hs.TernaryOp(sp, entries={(1, 1, 0, 1): 1})
    report = hs.check_grading(bad)
    assert not report.passed
    assert report.counterexamples == [{"index": [2, 2, 1, 2]}]


def test_check_multiplicativity_examples(a2b):
    assert hs.check_multiplicativity(a2b).passed
    assert a2b.multiplicative is True

    good = make_algebra(2, 0, {(0, 0, 1): 1}, alpha=[2, 4])
    assert hs.check_multiplicativity(good).passed

    bad = make_algebra(2, 0, {(0, 0, 1): 1}, alpha=[2, 3])
    report = hs.check_multiplicativity(bad)
    assert not report.passed
    assert report.counterexamples[0]["tuple"] == ["b1", "b1"]
    assert bad.multiplicative is False


def test_check_multiplicativity_covers_ternary():
    sp = hs.SuperSpace(2, 0)
    prod = hs.BilinearOp(sp)
    tern = hs.TernaryOp(sp, entries={(0, 0, 0, 1): 1})
    alpha = hs.EvenMap.diagonal(sp, [2, 4])
    algebra = hs.HomSuperalgebra(sp, prod, alpha, ternary=tern)
    # alpha(t(b1,b1,b1)) = 4 b2 but t(2b1,2b1,2b1) = 8 b2.
    report = hs.check_multiplicativity(algebra)
    assert not report.passed
    assert report.counterexamples[0]["tuple"] == ["b1", "b1", "b1"]


def test_grading_preserves_parity_exhaustively():
    # For every parity-respecting op and homogeneous basis inputs the result
    # is homogeneous of the summed parity; checked over all basis pairs of a
    # mixed-parity algebra with both sectors populated.
    algebra = make_algebra(1, 1, {(0, 0, 0): 2, (1, 1, 0): 1, (0, 1, 1): -1})
    sp = algebra.space
    assert hs.check_grading(algebra.product).passed
    for i, j in itertools.product(range(sp.dim), repeat=2):
        out = algebra.product.on_basis(i, j)
        assert out.is_homogeneous((sp.parity(i) + sp.parity(j)) % 2)


def test_even_map_preserves_parity():
    sp = hs.SuperSpace(2, 2)
    m = hs.EvenMap(sp, [["1", "2", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "3", "1"], ["0", "0", "0", "5"]])
    for i in range(sp.dim):
        assert m.on_basis(i).is_homogeneous(sp.parity(i))


@settings(max_examples=80, deadline=None)
@given(graded_bilinear_ops(), st.integers(-2, 2), st.integers(-2, 2))
def test_graded_products_preserve_parity(space_op, c1, c2):
    # Whenever the grading check passes, homogeneous inputs multiply to
    # homogeneous outputs of the summed parity, including linear
    # combinations within one parity sector.
    space, op = space_op
    assert hs.check_grading(op).passed
    sectors = {0: [i for i in range(space.dim) if space.parity(i) == 0],
               1: [i for i in range(space.dim) if space.parity(i) == 1]}
    for px, py in itertools.product((0, 1), repeat=2):
        for i in sectors[px]:
            x = space.basis_vector(i).scale(c1)
            if len(sectors[px]) > 1:
                x = x + space.basis_vector(sectors[px][-1]).scale(c2)
            for j in sectors[py]:
                y = space.basis_vector(j)
                assert op(x, y).is_homogeneous((px + py) % 2)


def test_bilinear_agrees_with_naive_oracle():
    algebra = make_algebra(2, 1, {(0, 0, 1): 2, (1, 2, 2): -1, (2, 2, 0): 3},
                           alpha=[1, 1, 1])
    n = algebra.space.dim
    for i, j in itertools.product(range(n), repeat=2):
        got = algebra.product.on_basis(i, j).coords
        want = naive.mul(algebra.product.table, naive.basis(n, i),
                         naive.basis(n, j))
        assert list(got) == want


_SMALL = st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                          Fraction(-1), Fraction(2), Fraction(1, 2)])


def _dense_table(n, entries, arity):
    """Nested tuples table[i][j]...[l] from {(i, j, ..., l): value}."""
    if arity == 0:
        return tuple(Fraction(entries.get((l,), 0)) for l in range(n))
    return tuple(_dense_table(n, {key[1:]: v for key, v in entries.items()
                                  if key[0] == i}, arity - 1)
                 for i in range(n))


@pytest.mark.parametrize("arity", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_ops_match_the_dense_oracle(arity, data):
    space, entries = data.draw(graded_entries(arity))
    n = space.dim
    op = {2: hs.BilinearOp, 3: hs.TernaryOp}[arity](space, entries=entries)
    table = _dense_table(n, entries, arity)
    assert op.table == table
    args = [data.draw(st.lists(_SMALL, min_size=n, max_size=n))
            for _ in range(arity)]
    naive_op = {2: naive.mul, 3: naive.tmul}[arity]
    got = op(*(hs.Vector(space, a) for a in args))
    assert list(got.coords) == naive_op(table, *args)
    # Explicit zeros, anywhere, and the order of the entries do not change
    # the operation.
    padded = dict.fromkeys(itertools.product(range(n), repeat=arity + 1), 0)
    padded.update(entries)
    same = type(op)(space, entries=padded)
    nonzero = type(op)(space, entries={k: v for k, v in
                                       reversed(entries.items()) if v})
    assert same == op == nonzero
    assert hash(same) == hash(op) == hash(nonzero)
    assert list(nonzero.constants.items()) == sorted(op.constants.items())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_even_map_matches_the_dense_oracle(data):
    space, entries = data.draw(graded_entries(1))
    n = space.dim
    rows = _dense_table(n, entries, 1)
    m = hs.EvenMap(space, rows)
    assert m.rows == rows
    for _ in range(3):
        v = data.draw(st.lists(_SMALL, min_size=n, max_size=n))
        assert list(m(hs.Vector(space, v)).coords) == naive.amap(rows, v)
    # m after p: the image of b_i is m applied to row i of p.
    p_rows = [[data.draw(_SMALL) if space.parity(i) == space.parity(k)
               else 0 for k in range(n)] for i in range(n)]
    composite = m.compose(hs.EvenMap(space, p_rows)).rows
    assert [list(row) for row in composite] == \
        [naive.amap(rows, p_row) for p_row in p_rows]
    # Zeros are never stored, however they are written.
    spelled = hs.EvenMap(space, [[str(c) if c else "0/3" for c in row]
                                 for row in rows])
    assert spelled == m and hash(spelled) == hash(m)
    assert all(c for terms in m.constants.values() for _, c in terms)


def test_parity_error_names_the_first_off_block_entry_by_rows():
    sp = hs.SuperSpace(2, 1)
    # Off-block at (2,3) and (3,1): the first by rows is (2,3), the first
    # by columns would be (3,1).
    rows = [["1", "0", "0"], ["0", "1", "5"], ["7", "0", "1"]]
    with pytest.raises(hs.ParityError) as err:
        hs.EvenMap(sp, rows)
    assert str(err.value) == "entry (2,3) crosses the parity blocks"


@st.composite
def twisted_algebras(draw):
    """A graded product with an even map that is the identity, diagonal or
    full within the parity blocks, and sometimes a ternary part."""
    space, product = draw(graded_bilinear_ops())
    n = space.dim
    shape = draw(st.sampled_from(["identity", "diagonal", "block"]))
    rows = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for i, k in itertools.product(range(n), repeat=2):
        if shape == "block" and space.parity(i) == space.parity(k) \
                or shape == "diagonal" and i == k:
            rows[i][k] = draw(_SMALL)
    ternary = None
    if draw(st.booleans()):
        ternary = hs.TernaryOp(space, entries={
            index: draw(_SMALL)
            for index in itertools.product(range(n), repeat=4)
            if sum(space.parity(i) for i in index[:3]) % 2
            == space.parity(index[3])})
    return hs.HomSuperalgebra(space, product, hs.EvenMap(space, rows),
                              ternary=ternary)


def _naive_multiplicativity(algebra):
    """(passed, checked, counterexamples) straight from the tables."""
    n = algebra.space.dim
    labels = algebra.space.labels
    rows = algebra.alpha.rows

    def image(i):
        return naive.amap(rows, naive.basis(n, i))

    def payload(index, lhs, rhs):
        return {"tuple": [labels[i] for i in index],
                "lhs": {labels[k]: str(c) for k, c in enumerate(lhs) if c},
                "rhs": {labels[k]: str(c) for k, c in enumerate(rhs) if c}}

    bad = []
    checked = 0
    table = algebra.product.table
    for i, j in itertools.product(range(n), repeat=2):
        checked += 1
        lhs = naive.amap(rows, naive.mul(table, naive.basis(n, i),
                                         naive.basis(n, j)))
        rhs = naive.mul(table, image(i), image(j))
        if lhs != rhs:
            bad.append(payload((i, j), lhs, rhs))
    if algebra.ternary is not None:
        table = algebra.ternary.table
        for i, j, k in itertools.product(range(n), repeat=3):
            checked += 1
            lhs = naive.amap(rows, naive.tmul(
                table, naive.basis(n, i), naive.basis(n, j),
                naive.basis(n, k)))
            rhs = naive.tmul(table, image(i), image(j), image(k))
            if lhs != rhs:
                bad.append(payload((i, j, k), lhs, rhs))
    return not bad, checked, bad


@settings(max_examples=150, deadline=None)
@given(twisted_algebras())
def test_check_multiplicativity_matches_naive_oracle(algebra):
    report = hs.check_multiplicativity(algebra)
    assert (report.passed, report.checked, report.counterexamples) == \
        _naive_multiplicativity(algebra)
    assert algebra.multiplicative is report.passed


def test_check_multiplicativity_identity_counts_every_tuple():
    sp = hs.SuperSpace(1, 1)
    tern = hs.TernaryOp(sp, entries={(0, 0, 1, 1): 1})
    algebra = hs.HomSuperalgebra(sp, hs.BilinearOp(sp, entries={
        (1, 1, 0): 1}), hs.EvenMap.identity(sp), ternary=tern)
    report = hs.check_multiplicativity(algebra)
    assert report.passed and report.checked == 2 ** 2 + 2 ** 3


def _naive_power_rows(rows, k):
    """The rows of the k-fold composite: each basis vector mapped k times
    through the dense rows."""
    n = len(rows)
    images = []
    for i in range(n):
        v = naive.basis(n, i)
        for _ in range(k):
            v = naive.amap(rows, v)
        images.append(tuple(v))
    return tuple(images)


@settings(max_examples=40, deadline=None)
@given(graded_algebras(RATIONALS).map(lambda algebra: algebra.alpha))
@example(hs.EvenMap(hs.SuperSpace(2, 1), [["1", "2", "0"], ["-1", "1/2", "0"],
                                          ["0", "0", "3"]]))
def test_even_map_power_is_repeated_composition(m):
    composed = hs.EvenMap.identity(m.space)
    for k in range(10):
        power = m.power(k)
        assert power == composed, k
        assert power.rows == _naive_power_rows(m.rows, k), k
        assert m.power(k) is power, k
        _assert_exact(power)
        composed = m.compose(composed)
    for _ in range(2):
        with pytest.raises(ValueError):
            m.power(-1)


def test_is_identity_only_for_the_identity():
    for dims in ((0, 0), (1, 0), (0, 2), (2, 1)):
        sp = hs.SuperSpace(*dims)
        assert hs.EvenMap.identity(sp).is_identity()
        assert hs.EvenMap.diagonal(sp, [1] * sp.dim).is_identity()
    sp = hs.SuperSpace(2, 1)
    assert not hs.EvenMap.diagonal(sp, [1, 1, 2]).is_identity()
    assert not hs.EvenMap.diagonal(sp, [0, 0, 0]).is_identity()
    assert not hs.EvenMap(sp, [["1", "1", "0"], ["0", "1", "0"],
                               ["0", "0", "1"]]).is_identity()


def test_is_identity_is_decided_when_the_map_is_built():
    # The verdict is kept with the map, not read again from its constants.
    sp = hs.SuperSpace(1, 1)
    identity = hs.EvenMap.identity(sp)
    other = hs.EvenMap.diagonal(sp, [1, 2])
    identity.constants, other.constants = {}, identity.constants
    assert identity.is_identity()
    assert not other.is_identity()


def test_scalar_refuses_decimal_exponents():
    for text in ("1e300000", "2E3", "1.5e-2"):
        with pytest.raises(ValueError, match="exponent"):
            hs.kernel.scalar(text)
    assert hs.kernel.scalar("0.5") == Fraction(1, 2)
    assert hs.kernel.scalar("-3/2") == Fraction(-3, 2)
    assert hs.kernel.scalar(4) == 4


def test_bools_are_no_rationals():
    # Python counts a bool as an int; the kernel does not take it as 0 or 1.
    sp = hs.SuperSpace(1, 1)
    for flag in (True, False):
        with pytest.raises(TypeError):
            hs.kernel.scalar(flag)
        with pytest.raises(TypeError):
            hs.kernel.exact(flag)
        with pytest.raises(TypeError):
            hs.BilinearOp(sp, entries={(0, 0, 0): flag})
        with pytest.raises(TypeError):
            hs.Vector(sp, [flag, 0])
        with pytest.raises(TypeError):
            sp.basis_vector(0).scale(flag)
    assert hs.kernel.exact(1) == 1 and hs.kernel.exact(Fraction(2, 1)) == 2


def test_kernel_knows_nothing_of_the_identity_language():
    # The kernel holds spaces, tensors, maps and algebras; the modules
    # above it, and the names of the identity language's operation slots,
    # stay out of it.  Docstrings may name them.
    tree = ast.parse(Path(hs.kernel.__file__).read_text(encoding="utf-8"))
    imported = set()
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(id(first.value))
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"identities", "constructions", "freealg"}
    slots = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in docstrings
             and node.value in ("[,]", "{,,}")]
    assert slots == []


def test_package_and_tools_import_the_standard_library_only():
    root = Path(hs.__file__).resolve().parents[2]
    paths = [*Path(hs.__file__).parent.rglob("*.py"),
             *(root / "tools").rglob("*.py")]
    assert len(paths) > 9
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "homsuper", \
                    (path.name, name)
