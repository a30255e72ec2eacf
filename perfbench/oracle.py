"""Independent oracles for the benchmark's correctness gate.

Everything here works on plain nested lists of Fractions and decides laws
with the brute-force residuals of tests/naive.py, so a verdict of the
package is never checked against the package itself.  Search candidates are
decoded from their index here too, without SearchSpec.
"""

import functools
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZERO = Fraction(0)
ONE = Fraction(1)


@functools.cache
def naive():
    """tests/naive.py, imported read-only from this checkout."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_naive", ROOT / "tests" / "naive.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Space:
    def __init__(self, dims):
        self.dim_even, self.dim_odd = dims
        self.dim = self.dim_even + self.dim_odd

    def parity(self, i):
        return 0 if i < self.dim_even else 1


class _Table:
    def __init__(self, table):
        self.table = table


class _Rows:
    def __init__(self, rows):
        self.rows = rows


class RawAlgebra:
    """Structure constants table[i][j][k] and twisting-map rows[i][k] as
    plain lists, shaped the way tests/naive.py reads an algebra."""

    def __init__(self, dims, table, alpha_rows):
        self.dims = (int(dims[0]), int(dims[1]))
        self.space = _Space(self.dims)
        self.product = _Table(table)
        self.alpha = _Rows(alpha_rows)

    @property
    def n(self):
        return self.space.dim

    @property
    def table(self):
        return self.product.table

    @property
    def rows(self):
        return self.alpha.rows

    def entries(self):
        """Nonzero constants as {(i, j, k): value}, 0-based."""
        n = self.n
        return {(i, j, k): self.table[i][j][k]
                for i in range(n) for j in range(n) for k in range(n)
                if self.table[i][j][k] != 0}

    def alpha_is_identity(self):
        return all(self.rows[i][k] == (ONE if i == k else ZERO)
                   for i in range(self.n) for k in range(self.n))


def empty_table(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def diagonal_rows(values):
    n = len(values)
    return [[Fraction(values[i]) if i == k else ZERO for k in range(n)]
            for i in range(n)]


def raw_from_document(doc):
    """RawAlgebra of a product document, parsed with json types only."""
    dims = (doc["dims"]["even"], doc["dims"]["odd"])
    n = dims[0] + dims[1]
    table = empty_table(n)
    for i, j, k, value in doc["product"]:
        table[i - 1][j - 1][k - 1] = Fraction(value)
    rows = [[Fraction(v) for v in row] for row in doc["alpha"]]
    return RawAlgebra(dims, table, rows)


# --------------------------------------------------------------------------
# Laws

def graded(raw):
    parity = raw.space.parity
    return all(parity(k) == (parity(i) + parity(j)) % 2
               for (i, j, k) in raw.entries())


def multiplicativity_failures(raw):
    nv = naive()
    n = raw.n
    bad = 0
    for i, j in itertools.product(range(n), repeat=2):
        x, y = nv.basis(n, i), nv.basis(n, j)
        lhs = nv.amap(raw.rows, nv.mul(raw.table, x, y))
        rhs = nv.mul(raw.table, nv.amap(raw.rows, x), nv.amap(raw.rows, y))
        if lhs != rhs:
            bad += 1
    return bad


def residual_failures(residual, raw, arity):
    """Number of basis tuples on which a naive residual is nonzero."""
    return sum(1 for combo in itertools.product(range(raw.n), repeat=arity)
               if any(v != 0 for v in residual(raw, *combo)))


def llsi_failures(raw):
    return residual_failures(naive().llsi_residual, raw, 3)


def is_leibniz(raw):
    """The "leibniz" suite: grading, multiplicativity and LLSI, stopping at
    the first failing tuple."""
    residual = naive().llsi_residual
    return (graded(raw) and multiplicativity_failures(raw) == 0
            and not any(any(v != 0 for v in residual(raw, *combo))
                        for combo in itertools.product(range(raw.n),
                                                       repeat=3)))


def commutator_table(raw):
    """[x,y] = x*y - (-1)^{|x||y|} y*x on the basis."""
    parity = raw.space.parity
    n = raw.n
    return [[[raw.table[i][j][k]
              - (-1 if parity(i) and parity(j) else 1) * raw.table[j][i][k]
              for k in range(n)] for j in range(n)] for i in range(n)]


def ly_ternary_table(raw):
    """{x,y,z} = -(x*y)*a(z) on the basis."""
    nv = naive()
    n = raw.n
    return [[[[-v for v in nv.mul(raw.table, nv.mul(raw.table, nv.basis(n, i),
                                                   nv.basis(n, j)),
                                   nv.amap(raw.rows, nv.basis(n, k)))]
              for k in range(n)] for j in range(n)] for i in range(n)]


def associator_table(raw):
    """(x*y)*a(z) - a(x)*(y*z) on the basis."""
    nv = naive()
    n = raw.n
    return [[[nv.associator(raw, i, j, k) for k in range(n)]
             for j in range(n)] for i in range(n)]


def lie_admissible(raw):
    """Criterion 4 of the acceptance suite: the signed cyclic product sum
    vanishes exactly when the commutator satisfies the twisted Jacobi law."""
    bracket = RawAlgebra(raw.dims, commutator_table(raw), raw.rows)
    return residual_failures(naive().jacobi_residual, bracket, 3) == 0


def shly5_shly7_hold(binary, ternary, rows):
    """Sign-free SHLY5 and SHLY7 on every basis tuple (purely even input)."""
    nv = naive()
    n = len(rows)
    for combo in itertools.product(range(n), repeat=3):
        if any(v != 0 for v in nv.hly5_residual_ungraded(binary, ternary,
                                                          rows, *combo)):
            return False
    for combo in itertools.product(range(n), repeat=4):
        if any(v != 0 for v in nv.hly7_residual_ungraded(binary, ternary,
                                                          rows, *combo)):
            return False
    return True


# --------------------------------------------------------------------------
# Search candidates

def allowed_slots(dims):
    space = _Space(dims)
    n = space.dim
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if space.parity(k) == (space.parity(i) + space.parity(j)) % 2]


def space_size(plan):
    dims = tuple(plan["dims"])
    size = len(plan["coeffs"]) ** len(allowed_slots(dims))
    if plan["alpha"] != "id":
        size *= len(plan["alpha"]) ** (dims[0] + dims[1])
    return size


def _digits(value, base, width):
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        value, digits[pos] = divmod(value, base)
    return digits


def decode_candidate(plan, index):
    """Candidate `index` of a search plan: the twisting-map choice is the
    outer digit string, the structure constants the inner one."""
    dims = tuple(plan["dims"])
    n = dims[0] + dims[1]
    coeffs = [Fraction(c) for c in plan["coeffs"]]
    slots = allowed_slots(dims)
    alpha_index, value_index = divmod(index, len(coeffs) ** len(slots))
    if plan["alpha"] == "id":
        rows = diagonal_rows([1] * n)
    else:
        pool = [Fraction(c) for c in plan["alpha"]]
        rows = diagonal_rows([pool[d] for d in
                              _digits(alpha_index, len(pool), n)])
    table = empty_table(n)
    for (i, j, k), d in zip(slots, _digits(value_index, len(coeffs),
                                           len(slots))):
        table[i][j][k] = coeffs[d]
    return RawAlgebra(dims, table, rows)
