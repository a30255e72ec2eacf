"""Exact kernel: Z2-graded coordinate spaces, parity-respecting multilinear
operations given by structure constants, and even linear maps.

All scalars are exact rationals, so every check in this package is an
equality decision; there are no tolerances anywhere.  Every public value,
and the kernel's own storage (`Vector` coordinates, structure constants),
is a fractions.Fraction.  The tensor engine (`identities._law_tensor`, a
law's monomials summed in place into rows keyed by basis tuple) and the
prover (`freealg.FreeExpr`) keep each integral coefficient they combine as
an int instead (`exact`), since int arithmetic is several times cheaper;
the tensor engine reads an operation's constants so converted from
`MultilinearOp.exact_constants`, built once per operation.  Ints and
Fractions only add and multiply, so no float ever arises.  The basis is
canonically ordered even-then-odd, which makes parity bookkeeping pure
index arithmetic.  Kernel objects are immutable after construction (the
only mutation is monotone caching: dense views, converted constants, map
powers) and can be shared freely.

The kernel knows nothing of the identity language: `identities` decides
what a law's operation names mean on an algebra, the graded commutator
included.

Index conventions: structure constants are 0-based internally; reports and
serialized documents use the 1-based labels b1..bn.

Storage: a multilinear operation is built from entries {(i, j[, k], l): c}
and keeps only its nonzero constants, {(i, j[, k]): ((l, c), ...)}; its
`table` is a dense view derived from them.  An even map is the arity-1
case: it is built from dense rows, keeps its nonzero entries {(i,): ((k,
c), ...)}, and its `rows` are the dense view.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

from .report import Report


class DimensionMismatch(ValueError):
    pass


class ParityError(ValueError):
    pass


def scalar(x):
    """Coerce ints, rational strings like '-3/2' or '0.5' and Fractions to
    Fraction.  A string with a decimal exponent raises ValueError: the cost
    of '1e300000' grows faster than its exponent.  A bool is no rational
    (TypeError), although Python counts it as an int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError("decimal exponents are not accepted: %r" % x)
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


def exact(c):
    """c as an int when it is integral, otherwise as the Fraction it is.
    Sums, differences and products of such values are exact and keep the
    same rule: int op int is an int, anything with a non-integral Fraction
    a Fraction, and they compare and hash as the rationals they stand for."""
    if type(c) is int:
        return c
    c = scalar(c)
    return c.numerator if c.denominator == 1 else c


ZERO = Fraction(0)
ONE = Fraction(1)
# The one type a basis index has (`MultilinearOp`).
_INT = frozenset((int,))


class SuperSpace:
    """A finite-dimensional Z2-graded coordinate space.

    Basis elements b1..bn carry parity 0 (even) for the first dim_even
    indices and parity 1 (odd) for the rest.
    """

    def __init__(self, dim_even, dim_odd):
        for dim in (dim_even, dim_odd):
            if type(dim) is not int:
                raise TypeError("dimension %r is not an integer" % (dim,))
        if dim_even < 0 or dim_odd < 0:
            raise ValueError("dimensions must be nonnegative")
        self.dim_even = dim_even
        self.dim_odd = dim_odd
        self.dim = self.dim_even + self.dim_odd
        self.labels = tuple("b%d" % (i + 1) for i in range(self.dim))

    def parity(self, i):
        self._check_index(i)
        return 0 if i < self.dim_even else 1

    @property
    def parities(self):
        return tuple(self.parity(i) for i in range(self.dim))

    def basis_vector(self, i):
        self._check_index(i)
        return Vector(self, tuple(ONE if j == i else ZERO
                                  for j in range(self.dim)))

    def zero_vector(self):
        return Vector(self, (ZERO,) * self.dim)

    def _check_index(self, i):
        if type(i) is not int:
            raise TypeError("basis index %r is not an integer" % (i,))
        if not 0 <= i < self.dim:
            raise IndexError("basis index out of range: %d" % i)

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

    @classmethod
    def _trusted(cls, space, coords):
        """A vector over coords as given: a tuple of space.dim Fractions,
        such as the kernel computes from Fractions."""
        vector = object.__new__(cls)
        vector.space = space
        vector.coords = coords
        return vector

    def __add__(self, other):
        self._check_same(other)
        return Vector._trusted(self.space, tuple(
            a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_same(other)
        return Vector._trusted(self.space, tuple(
            a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Vector._trusted(self.space, tuple(-a for a in self.coords))

    def scale(self, c):
        c = scalar(c)
        return Vector._trusted(self.space, tuple(c * a for a in self.coords))

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


class MultilinearOp:
    """Multilinear operation of a given arity, stored as its nonzero
    structure constants: constants[(i, j, ...)] = ((l, c), ...) means the
    product of b_{i+1}, b_{j+1}, ... is the sum of c b_{l+1}.  Keys and
    pairs are in index order; zero entries are never stored.
    """

    arity = None

    def __init__(self, space, entries=None):
        width = self.arity + 1
        indices = frozenset(range(space.dim))
        rows = {}
        for key, value in (entries or {}).items():
            # A float or bool equals an int index, so the types are checked.
            if (len(key) != width or not indices.issuperset(key)
                    or not _INT.issuperset(map(type, key))):
                raise DimensionMismatch(
                    "structure constant key %r is not %d integer indices "
                    "in 0..%d" % (key, width, space.dim - 1))
            value = scalar(value)
            if value:
                rows.setdefault(key[:-1], []).append((key[-1], value))
        self.space = space
        self.constants = {index: tuple(sorted(rows[index]))
                          for index in sorted(rows)}
        self._basis = {}

    def on_basis(self, *index):
        """The image of a basis tuple, built once."""
        vector = self._basis.get(index)
        if vector is None:
            vector = self._basis[index] = Vector._trusted(self.space,
                                                          self._row(index))
        return vector

    def _row(self, index):
        row = [ZERO] * self.space.dim
        for l, c in self.constants.get(index, ()):
            row[l] = c
        return tuple(row)

    def _apply(self, args):
        space = self.space
        nonzero = []
        for v in args:
            if v.space is not space and v.space != space:
                raise DimensionMismatch("arguments over a different space")
            nonzero.append([(i, a) for i, a in enumerate(v.coords) if a])
        constants = self.constants
        out = [ZERO] * space.dim
        for combo in itertools.product(*nonzero):
            index, values = zip(*combo)
            terms = constants.get(index)
            if terms:
                scale = functools.reduce(operator.mul, values)
                for l, c in terms:
                    out[l] += scale * c
        return Vector._trusted(space, tuple(out))

    @functools.cached_property
    def exact_constants(self):
        """`constants` with each coefficient as `exact` gives it (an int
        where integral), converted once per operation for the tensor
        engine."""
        return {index: tuple((l, exact(c)) for l, c in terms)
                for index, terms in self.constants.items()}

    @functools.cached_property
    def table(self):
        """Dense view: table[i][j]...[l] is the constant of b_{l+1} in the
        product of b_{i+1}, b_{j+1}, ..."""
        n = self.space.dim

        def block(index):
            if len(index) == self.arity:
                return self._row(index)
            return tuple(block(index + (i,)) for i in range(n))

        return block(())

    def grading_violations(self):
        """1-based index tuples whose nonzero constant breaks the parity
        rule, in lexicographic order."""
        parity = self.space.parity
        return [tuple(i + 1 for i in index) + (l + 1,)
                for index, terms in self.constants.items() for l, _ in terms
                if parity(l) != sum(map(parity, index)) % 2]

    def is_zero(self):
        return not self.constants

    def __eq__(self, other):
        return (isinstance(other, MultilinearOp) and self.arity == other.arity
                and self.space == other.space
                and self.constants == other.constants)

    def __hash__(self):
        return hash((self.arity, self.space, tuple(self.constants.items())))

    def __repr__(self):
        return "%s(%r, %d nonzero)" % (
            type(self).__name__, self.space,
            sum(len(terms) for terms in self.constants.values()))


class EvenMap(MultilinearOp):
    """Parity-preserving linear map, built from dense `rows` and stored as
    its nonzero entries: constants[(i,)] = ((k, c), ...) means b_{i+1}
    maps to the sum of c b_{k+1}.  Off-block entries are rejected at
    construction, so every EvenMap really is even.
    """

    arity = 1

    def __init__(self, space, rows):
        rows = [tuple(row) for row in rows]
        if len(rows) != space.dim or any(len(r) != space.dim for r in rows):
            raise DimensionMismatch("matrix shape does not match space")
        super().__init__(space, {(i, k): c for i, row in enumerate(rows)
                                 for k, c in enumerate(row)})
        bad = self.grading_violations()
        if bad:
            raise ParityError("entry (%d,%d) crosses the parity blocks"
                              % bad[0])
        self._powers = {}
        # Decided once: the map never changes after it is built.
        self._identity = (len(self.constants) == space.dim
                          and all(terms == ((i, ONE),) for (i,), terms
                                  in self.constants.items()))

    @classmethod
    def identity(cls, space):
        return cls.diagonal(space, [ONE] * space.dim)

    @classmethod
    def diagonal(cls, space, entries):
        entries = list(entries)
        if len(entries) != space.dim:
            raise DimensionMismatch("need one diagonal entry per basis element")
        return cls(space, [[c if i == k else ZERO for k in range(space.dim)]
                           for i, c in enumerate(entries)])

    @property
    def rows(self):
        """Dense view: rows[i][k] is the coefficient of b_{k+1} in the image
        of b_{i+1}."""
        return self.table

    def __call__(self, vec):
        return self._apply((vec,))

    def compose(self, other):
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if other.space != self.space:
            raise DimensionMismatch("maps over different spaces")
        return EvenMap(self.space, [self._apply((other.on_basis(i),)).coords
                                    for i in range(self.space.dim)])

    def power(self, k):
        """The k-fold composite (k >= 0), built once per map and k: a
        repeated call returns the same map.  A k that is not an int (a bool
        included) raises TypeError."""
        if type(k) is not int:
            raise TypeError("map power %r is not an integer" % (k,))
        if k < 0:
            raise ValueError("negative power of a map")
        if k == 1:
            return self  # not kept, or the map would hold itself
        power = self._powers.get(k)
        if power is None:
            power = self._powers[k] = self._composite(k)
        return power

    def _composite(self, k):
        """The k-fold composite, by repeated squaring."""
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
        return self._identity


class BilinearOp(MultilinearOp):
    """Bilinear product: b_{i+1} * b_{j+1} = sum of c b_{l+1} over the pairs
    (l, c) in constants[(i, j)]."""

    arity = 2

    def __call__(self, x, y):
        return self._apply((x, y))

    def transpose(self):
        return BilinearOp(self.space, entries={
            (j, i, l): c for (i, j), terms in self.constants.items()
            for l, c in terms})


class TernaryOp(MultilinearOp):
    """Trilinear product, constants[(i, j, k)] = ((l, c), ...)."""

    arity = 3

    def __call__(self, x, y, z):
        return self._apply((x, y, z))


class HomSuperalgebra:
    """A graded space with a product, an optional ternary product and an even
    twisting map.  The multiplicativity status (set by
    check_multiplicativity) and the left Leibniz status (set by the
    constructions that require it) are cached tri-state: None (unchecked),
    True or False.  `metadata` is a JSON-ready dict written with the
    algebra's document; it starts empty.  Other modules cache what they
    derive from the algebra on it the same way (`identities.commutator`).
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
        self.metadata = {}
        self._multiplicative = None
        self._left_leibniz = None

    @property
    def multiplicative(self):
        return self._multiplicative

    @property
    def left_leibniz(self):
        return self._left_leibniz

    def __repr__(self):
        return "%s(%r%s)" % (type(self).__name__, self.space,
                             ", name=%r" % self.name if self.name else "")


class BinaryTernaryAlgebra(HomSuperalgebra):
    """A binary-ternary graded algebra: a binary operation, kept as the
    product, and a ternary one.  The identity language reads its bracket as
    the binary operation itself, not as a derived commutator.  Constructed
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
    operations = [algebra.product]
    if algebra.ternary is not None:
        operations.append(algebra.ternary)
    checked = sum(sp.dim ** op.arity for op in operations)
    bad = []
    if not algebra.alpha.is_identity():
        alpha = [algebra.alpha.constants.get((i,), ()) for i in range(sp.dim)]
        for op in operations:
            bad.extend(_endomorphism_failures(alpha, op))
    report = Report("multiplicativity", not bad, checked, bad)
    algebra._multiplicative = report.passed
    return report


def _endomorphism_failures(alpha, op):
    """Counterexamples to alpha(op(b_i, ...)) = op(alpha(b_i), ...) over all
    basis tuples, where alpha[i] holds the nonzero (k, entry) pairs of the
    image of b_{i+1}."""
    space = op.space
    n = space.dim
    labels = space.labels
    constants = op.constants
    bad = []
    for index in itertools.product(range(n), repeat=op.arity):
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
