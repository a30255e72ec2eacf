"""Exact kernel: Z2-graded coordinate spaces, parity-respecting multilinear
operations given by structure constants, and even linear maps.

All scalars are exact rationals (fractions.Fraction), so every check in this
package is an equality decision; there are no tolerances anywhere.  The basis
is canonically ordered even-then-odd, which makes parity bookkeeping pure
index arithmetic.  Kernel objects are immutable after construction (the only
mutation is monotone caching) and can be shared freely.

Index conventions: structure constants are 0-based internally; reports and
serialized documents use the 1-based labels b1..bn.
"""

import itertools
import math
from fractions import Fraction

from .report import Report


class DimensionMismatch(ValueError):
    pass


class ParityError(ValueError):
    pass


def scalar(x):
    """Coerce ints, rational strings like '-3/2' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


ZERO = Fraction(0)
ONE = Fraction(1)


class SuperSpace:
    """A finite-dimensional Z2-graded coordinate space.

    Basis elements b1..bn carry parity 0 (even) for the first dim_even
    indices and parity 1 (odd) for the rest.
    """

    def __init__(self, dim_even, dim_odd):
        if dim_even < 0 or dim_odd < 0:
            raise ValueError("dimensions must be nonnegative")
        self.dim_even = int(dim_even)
        self.dim_odd = int(dim_odd)
        self.dim = self.dim_even + self.dim_odd
        self.labels = tuple("b%d" % (i + 1) for i in range(self.dim))

    def parity(self, i):
        if not 0 <= i < self.dim:
            raise IndexError("basis index out of range: %d" % i)
        return 0 if i < self.dim_even else 1

    @property
    def parities(self):
        return tuple(self.parity(i) for i in range(self.dim))

    def basis_vector(self, i):
        if not 0 <= i < self.dim:
            raise IndexError("basis index out of range: %d" % i)
        return Vector(self, tuple(ONE if j == i else ZERO
                                  for j in range(self.dim)))

    def zero_vector(self):
        return Vector(self, (ZERO,) * self.dim)

    def __eq__(self, other):
        return (isinstance(other, SuperSpace)
                and self.dim_even == other.dim_even
                and self.dim_odd == other.dim_odd)

    def __hash__(self):
        return hash(("SuperSpace", self.dim_even, self.dim_odd))

    def __repr__(self):
        return "SuperSpace(%d, %d)" % (self.dim_even, self.dim_odd)


class Vector:
    """Coordinate vector over a SuperSpace basis, with exact entries."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        coords = tuple(scalar(c) for c in coords)
        if len(coords) != space.dim:
            raise DimensionMismatch(
                "vector of length %d over space of dimension %d"
                % (len(coords), space.dim))
        self.space = space
        self.coords = coords

    def __add__(self, other):
        self._check_same(other)
        return Vector(self.space, tuple(a + b for a, b
                                        in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_same(other)
        return Vector(self.space, tuple(a - b for a, b
                                        in zip(self.coords, other.coords)))

    def __neg__(self):
        return Vector(self.space, tuple(-a for a in self.coords))

    def scale(self, c):
        c = scalar(c)
        return Vector(self.space, tuple(c * a for a in self.coords))

    __rmul__ = scale

    def __eq__(self, other):
        return (isinstance(other, Vector) and self.space == other.space
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.space, self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_homogeneous(self, parity):
        """True iff every nonzero coordinate sits on a parity-`parity` slot."""
        return all(c == 0 or self.space.parity(i) == parity
                   for i, c in enumerate(self.coords))

    def nonzero_items(self):
        """(label, coefficient-string) pairs for the nonzero coordinates."""
        return [(self.space.labels[i], str(c))
                for i, c in enumerate(self.coords) if c != 0]

    def _check_same(self, other):
        if not isinstance(other, Vector) or other.space != self.space:
            raise DimensionMismatch("vectors over different spaces")

    def __repr__(self):
        items = self.nonzero_items()
        if not items:
            return "Vector<0>"
        return "Vector<%s>" % " + ".join(
            "%s %s" % (c, l) if c != "1" else l for l, c in items)


class EvenMap:
    """Parity-preserving linear map, stored as rows[i][k] = coefficient of
    b_{k+1} in the image of b_{i+1}.  Off-block entries are rejected at
    construction, so every EvenMap really is even.
    """

    def __init__(self, space, rows):
        rows = tuple(tuple(scalar(c) for c in row) for row in rows)
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise DimensionMismatch("matrix shape does not match space")
        for i in range(space.dim):
            for k in range(space.dim):
                if rows[i][k] != 0 and space.parity(i) != space.parity(k):
                    raise ParityError(
                        "entry (%d,%d) crosses the parity blocks" % (i + 1, k + 1))
        self.space = space
        self.rows = rows

    @classmethod
    def identity(cls, space):
        n = space.dim
        return cls(space, [[ONE if i == k else ZERO for k in range(n)]
                           for i in range(n)])

    @classmethod
    def diagonal(cls, space, entries):
        entries = [scalar(c) for c in entries]
        if len(entries) != space.dim:
            raise DimensionMismatch("need one diagonal entry per basis element")
        n = space.dim
        return cls(space, [[entries[i] if i == k else ZERO for k in range(n)]
                           for i in range(n)])

    def __call__(self, vec):
        if vec.space != self.space:
            raise DimensionMismatch("vector over a different space")
        n = self.space.dim
        out = [ZERO] * n
        for i, c in enumerate(vec.coords):
            if c == 0:
                continue
            row = self.rows[i]
            for k in range(n):
                if row[k] != 0:
                    out[k] += c * row[k]
        return Vector(self.space, out)

    def on_basis(self, i):
        return Vector(self.space, self.rows[i])

    def compose(self, other):
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if other.space != self.space:
            raise DimensionMismatch("maps over different spaces")
        n = self.space.dim
        rows = [[sum((other.rows[i][j] * self.rows[j][k] for j in range(n)),
                     ZERO) for k in range(n)] for i in range(n)]
        return EvenMap(self.space, rows)

    def power(self, k):
        """The k-fold composite, by repeated squaring (k >= 0)."""
        if k < 0:
            raise ValueError("negative power of a map")
        if k == 0:
            return EvenMap.identity(self.space)
        acc = None
        square = self
        while True:
            if k & 1:
                acc = square if acc is None else acc.compose(square)
            k >>= 1
            if not k:
                return acc
            square = square.compose(square)

    def is_identity(self):
        return all(c == (ONE if i == k else ZERO)
                   for i, row in enumerate(self.rows)
                   for k, c in enumerate(row))

    def __eq__(self, other):
        return (isinstance(other, EvenMap) and self.space == other.space
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.space, self.rows))

    def __repr__(self):
        return "EvenMap(%r, %r)" % (self.space, [list(map(str, r))
                                                 for r in self.rows])


class BilinearOp:
    """Bilinear product as structure constants c[i][j][k]:
    b_{i+1} * b_{j+1} = sum_k c[i][j][k] b_{k+1}.
    """

    arity = 2

    def __init__(self, space, table=None, entries=None):
        n = space.dim
        if table is None:
            c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
            for (i, j, k), v in (entries or {}).items():
                c[i][j][k] = scalar(v)
            table = c
        self.space = space
        self.table = tuple(tuple(tuple(scalar(v) for v in row)
                                 for row in plane) for plane in table)
        if len(self.table) != n or any(
                len(p) != n or any(len(r) != n for r in p)
                for p in self.table):
            raise DimensionMismatch("structure constant tensor has wrong shape")

    def on_basis(self, i, j):
        return Vector(self.space, self.table[i][j])

    def __call__(self, x, y):
        if x.space != self.space or y.space != self.space:
            raise DimensionMismatch("arguments over a different space")
        n = self.space.dim
        out = [ZERO] * n
        for i, a in enumerate(x.coords):
            if a == 0:
                continue
            for j, b in enumerate(y.coords):
                if b == 0:
                    continue
                ab = a * b
                row = self.table[i][j]
                for k in range(n):
                    if row[k] != 0:
                        out[k] += ab * row[k]
        return Vector(self.space, out)

    def grading_violations(self):
        """1-based index triples whose nonzero constant breaks the parity rule."""
        sp = self.space
        bad = []
        for i in range(sp.dim):
            for j in range(sp.dim):
                want = (sp.parity(i) + sp.parity(j)) % 2
                for k in range(sp.dim):
                    if self.table[i][j][k] != 0 and sp.parity(k) != want:
                        bad.append((i + 1, j + 1, k + 1))
        return bad

    def transpose(self):
        n = self.space.dim
        return BilinearOp(self.space, [[self.table[j][i] for j in range(n)]
                                       for i in range(n)])

    def graded_commutator(self):
        """Structure constants of [x,y] = x*y - (-1)^{|x||y|} y*x."""
        sp = self.space
        n = sp.dim
        c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                sign = -ONE if sp.parity(i) and sp.parity(j) else ONE
                for k in range(n):
                    c[i][j][k] = self.table[i][j][k] - sign * self.table[j][i][k]
        return BilinearOp(sp, c)

    def scale(self, c):
        c = scalar(c)
        return BilinearOp(self.space,
                          [[[c * v for v in row] for row in plane]
                           for plane in self.table])

    def is_zero(self):
        return all(v == 0 for plane in self.table for row in plane for v in row)

    def __eq__(self, other):
        return (isinstance(other, BilinearOp) and self.space == other.space
                and self.table == other.table)

    def __hash__(self):
        return hash((self.space, self.table))

    def __repr__(self):
        return "BilinearOp(%r, %d nonzero)" % (
            self.space, sum(1 for p in self.table for r in p for v in r if v))


class TernaryOp:
    """Trilinear product as structure constants t[i][j][k][l]."""

    arity = 3

    def __init__(self, space, table=None, entries=None):
        n = space.dim
        if table is None:
            t = [[[[ZERO] * n for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
            for (i, j, k, l), v in (entries or {}).items():
                t[i][j][k][l] = scalar(v)
            table = t
        self.space = space
        self.table = tuple(
            tuple(tuple(tuple(scalar(v) for v in row) for row in plane)
                  for plane in cube) for cube in table)
        if len(self.table) != n or any(
                len(c) != n or any(
                    len(p) != n or any(len(r) != n for r in p) for p in c)
                for c in self.table):
            raise DimensionMismatch("structure constant tensor has wrong shape")

    def on_basis(self, i, j, k):
        return Vector(self.space, self.table[i][j][k])

    def __call__(self, x, y, z):
        for v in (x, y, z):
            if v.space != self.space:
                raise DimensionMismatch("arguments over a different space")
        n = self.space.dim
        out = [ZERO] * n
        for i, a in enumerate(x.coords):
            if a == 0:
                continue
            for j, b in enumerate(y.coords):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(z.coords):
                    if c == 0:
                        continue
                    abc = ab * c
                    row = self.table[i][j][k]
                    for l in range(n):
                        if row[l] != 0:
                            out[l] += abc * row[l]
        return Vector(self.space, out)

    def grading_violations(self):
        sp = self.space
        bad = []
        for i in range(sp.dim):
            for j in range(sp.dim):
                for k in range(sp.dim):
                    want = (sp.parity(i) + sp.parity(j) + sp.parity(k)) % 2
                    for l in range(sp.dim):
                        if self.table[i][j][k][l] != 0 and sp.parity(l) != want:
                            bad.append((i + 1, j + 1, k + 1, l + 1))
        return bad

    def is_zero(self):
        return all(v == 0 for c in self.table for p in c for r in p for v in r)

    def __eq__(self, other):
        return (isinstance(other, TernaryOp) and self.space == other.space
                and self.table == other.table)

    def __hash__(self):
        return hash((self.space, self.table))

    def __repr__(self):
        nz = sum(1 for c in self.table for p in c for r in p for v in r if v)
        return "TernaryOp(%r, %d nonzero)" % (self.space, nz)


class HomSuperalgebra:
    """A graded space with a product, an optional ternary product and an even
    twisting map.  The multiplicativity status is cached tri-state: None
    (unchecked), True or False.

    Named operation slots (used by the identity language): "*" is the
    product, "[,]" is the graded commutator of the product (derived lazily),
    "{,,}" is the attached ternary product, if any.
    """

    kind = "hom_superalgebra"

    def __init__(self, space, product, alpha, ternary=None, name=""):
        if product.space != space or alpha.space != space:
            raise DimensionMismatch("components over different spaces")
        if ternary is not None and ternary.space != space:
            raise DimensionMismatch("components over different spaces")
        self.space = space
        self.product = product
        self.alpha = alpha
        self.ternary = ternary
        self.name = name
        self._multiplicative = None
        self._bracket = None

    @property
    def multiplicative(self):
        return self._multiplicative

    def bracket(self):
        if self._bracket is None:
            self._bracket = self.product.graded_commutator()
        return self._bracket

    def op_for_slot(self, slot):
        """Resolve a named operation slot, or return None if absent."""
        if slot == "*":
            return self.product
        if slot == "[,]":
            return self.bracket()
        if slot == "{,,}":
            return self.ternary
        raise KeyError("unknown operation slot: %r" % slot)

    def __repr__(self):
        return "HomSuperalgebra(%r%s)" % (
            self.space, ", name=%r" % self.name if self.name else "")


class BinaryTernaryAlgebra(HomSuperalgebra):
    """A binary-ternary graded algebra.  Its binary operation *is* the
    bracket: both the "*" and "[,]" slots resolve to it.  Constructed
    algebras (commutator/associator pairs and their kin) live here.
    """

    kind = "binary_ternary"

    def __init__(self, space, binary, ternary, alpha, name=""):
        if ternary is None:
            raise ValueError("a binary-ternary algebra needs a ternary product")
        super().__init__(space, binary, alpha, ternary=ternary, name=name)

    @property
    def binary(self):
        return self.product

    def op_for_slot(self, slot):
        if slot in ("*", "[,]"):
            return self.product
        if slot == "{,,}":
            return self.ternary
        raise KeyError("unknown operation slot: %r" % slot)


def check_grading(op, name="grading"):
    """Report whether every structure constant respects the parity rule."""
    bad = op.grading_violations()
    n = op.space.dim
    checked = n ** (op.arity + 1)
    return Report(name, not bad, checked,
                  [{"index": list(t)} for t in bad])


def check_algebra_grading(algebra):
    """Grading report covering the product and the ternary part if present."""
    reports = [check_grading(algebra.product, "grading(*)")]
    if algebra.ternary is not None:
        reports.append(check_grading(algebra.ternary, "grading({,,})"))
    bad = [c for r in reports for c in r.counterexamples]
    checked = sum(r.checked for r in reports)
    return Report("grading", not bad, checked, bad)


def check_multiplicativity(algebra):
    """Report whether alpha is an endomorphism of every operation, i.e.
    alpha(b_i * b_j) = alpha(b_i) * alpha(b_j) on all basis pairs (and the
    ternary analogue when a ternary product is present).  Updates the cached
    flag on the algebra.

    The identity map passes without evaluating anything; otherwise only the
    nonzero structure constants and map entries enter the sums.
    """
    sp = algebra.space
    n = sp.dim
    operations = [(algebra.product.table, 2)]
    if algebra.ternary is not None:
        operations.append((algebra.ternary.table, 3))
    checked = sum(n ** arity for _, arity in operations)
    bad = []
    if not algebra.alpha.is_identity():
        alpha = [[(k, c) for k, c in enumerate(row) if c != 0]
                 for row in algebra.alpha.rows]
        for table, arity in operations:
            bad.extend(_endomorphism_failures(sp, alpha, table, arity))
    report = Report("multiplicativity", not bad, checked, bad)
    algebra._multiplicative = report.passed
    return report


def _endomorphism_failures(space, alpha, table, arity):
    """Counterexamples to alpha(op(b_i, ...)) = op(alpha(b_i), ...) over all
    basis tuples, where alpha holds each row's nonzero (column, entry)
    pairs and table is the operation's structure constant tensor."""
    n = space.dim
    labels = space.labels
    constants = {}
    for index in itertools.product(range(n), repeat=arity):
        row = table
        for i in index:
            row = row[i]
        nonzero = [(k, c) for k, c in enumerate(row) if c != 0]
        if nonzero:
            constants[index] = nonzero
    bad = []
    for index in itertools.product(range(n), repeat=arity):
        lhs = [ZERO] * n
        for l, c in constants.get(index, ()):
            for k, a in alpha[l]:
                lhs[k] += c * a
        rhs = [ZERO] * n
        for image in itertools.product(*(alpha[i] for i in index)):
            terms = constants.get(tuple(p for p, _ in image))
            if terms:
                scale = math.prod(a for _, a in image)
                for k, c in terms:
                    rhs[k] += scale * c
        if lhs != rhs:
            bad.append({"tuple": [labels[i] for i in index],
                        "lhs": dict(Vector(space, lhs).nonzero_items()),
                        "rhs": dict(Vector(space, rhs).nonzero_items())})
    return bad
