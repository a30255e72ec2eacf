"""Bounded exhaustive search over structure constants for small algebras
satisfying a given law suite.

Candidates are enumerated in lexicographic order: the twisting-map choice is
the outer digit string (diagonal entries over a pool), the parity-allowed
structure constants the inner one, both in the order the coefficient lists
were given.  The identity is the diagonal family of the one value 1, one
alpha block like any other.  The search space size is computed up front, by
counting rather than by building the slots, and refused when it exceeds
DEFAULT_MAX_SPACE; an optional time budget stops the scan early with the
partial flag set.  Results are re-buildable from their candidate index, so
the output is deterministic.

For a diagonal twisting map diag(d), multiplicativity splits into one
condition per structure constant: c_ijk * (d_k - d_i * d_j) = 0.  So when
the suite checks multiplicativity, the scan works out, per alpha digit
string, which slots (i,j,k) satisfy d_k = d_i * d_j and walks only the
candidates holding a zero coefficient on every other slot, in index order;
under the identity every slot passes.  The rest are rejected unbuilt.
`examined` counts every index the scan passed, built or not: a full scan
reports the whole space, and a capped scan stops at the same index as a
scan that builds every candidate.  The time budget is checked before each
candidate that is built.  The scan does not check the parity rule, which
every candidate keeps by construction, nor multiplicativity, which the slot
filter guarantees for every candidate it builds.

A candidate is decided by `identities.suite_passes`, with one witness per
law kept for the whole scan: the basis tuple of the last counterexample
that law gave.  Consecutive candidates usually fail at the same tuple, so
each candidate is first evaluated at the remembered tuples, straight from
the law's monomials and the candidate's exact constants, and only one
that none of them refutes is scanned in full.  A nonzero residual at any
basis tuple refutes a multilinear law, so the hits are the same as
without witnesses.

The scan is one serial pass in one process, so its results are always those
of a scanned prefix of the index order.
"""

import functools
import itertools
import time

from . import identities as idn
from . import serialize
from .kernel import (ONE, BilinearOp, EvenMap, HomSuperalgebra, SuperSpace,
                     scalar)


class SearchSpaceError(ValueError):
    pass


DEFAULT_MAX_SPACE = 10 ** 7


class SearchSpec:
    """What to enumerate: dimensions, coefficient pool, twisting-map family
    (diagonal over a pool; "id" is the pool of the one value 1), the suite
    to satisfy, a result cap and an optional time budget in ms.  A
    malformed pool, dimension, cap or budget raises SearchSpaceError."""

    def __init__(self, dims, coeffs=("-1", "0", "1"), alpha="id",
                 suite="leibniz", max_results=100, budget_ms=None):
        self.dims = tuple(dims)
        if len(self.dims) != 2 or any(type(d) is not int for d in self.dims):
            raise SearchSpaceError("dimensions must be two integers, got %r"
                                   % (dims,))
        if min(self.dims) < 0:
            raise SearchSpaceError("dimensions must be nonnegative, got %d,%d"
                                   % self.dims)
        self.coeffs = _pool(coeffs, "coefficient")
        self.alpha_pool = (ONE,) if alpha == "id" else _pool(alpha, "diagonal")
        self.suite = suite
        if type(max_results) is not int:
            raise SearchSpaceError("the result cap must be an integer, got %r"
                                   % (max_results,))
        if max_results < 1:
            raise SearchSpaceError("the result cap must be at least 1, got %d"
                                   % max_results)
        self.max_results = max_results
        if budget_ms is not None and type(budget_ms) is not int:
            raise SearchSpaceError("the time budget must be an integer "
                                   "number of ms, got %r" % (budget_ms,))
        if budget_ms is not None and budget_ms < 0:
            raise SearchSpaceError("the time budget must be nonnegative, "
                                   "got %s ms" % budget_ms)
        self.budget_ms = budget_ms
        self._last_alpha = (None, None)

    @functools.cached_property
    def space(self):
        self.space_size()  # refuses an oversize space first
        return SuperSpace(*self.dims)

    @functools.cached_property
    def slots(self):
        return _allowed_slots(self.space)

    def alpha_count(self):
        return len(self.alpha_pool) ** sum(self.dims)

    def space_size(self):
        """The number of candidates.  Raises SearchSpaceError when it, or
        the number of free constants, is above DEFAULT_MAX_SPACE (read at
        each call); both are counted without building a slot, and the size
        is computed only up to the bound."""
        bound = DEFAULT_MAX_SPACE
        even, odd = self.dims
        # Products b_i*b_j and b_k of one parity: even*even or odd*odd
        # onto an even b_k, even*odd or odd*even onto an odd one.
        slots = (even * even + odd * odd) * even + 2 * even * odd * odd
        if slots > bound:
            raise SearchSpaceError(
                "search space has more than %d free constants" % bound)
        size = 1
        for base, exponent in ((len(self.coeffs), slots),
                               (len(self.alpha_pool), even + odd)):
            if base > 1:
                # At most log2(bound) + 1 factors before the bound.
                for _ in range(exponent):
                    size *= base
                    if size > bound:
                        raise SearchSpaceError(
                            "search space has more than %d candidates"
                            % bound)
        return size

    def checks(self):
        """The checks the suite expands to on this space.  Raises
        UnknownSuite or MissingOpSlot without building a candidate."""
        space = self.space
        return idn.resolve_suite(self.suite, HomSuperalgebra(
            space, BilinearOp(space), EvenMap.identity(space)))

    @functools.cached_property
    def _sizes(self):
        """The candidates of one alpha block, and of the whole space."""
        block = len(self.coeffs) ** len(self.slots)
        return block, block * self.alpha_count()

    def candidate(self, index):
        """Rebuild candidate number `index` (0-based, lexicographic); an
        index that is not an int (a bool is none) raises TypeError, and one
        outside 0..space_size()-1 IndexError."""
        if type(index) is not int:
            raise TypeError("candidate index %r is not an integer" % (index,))
        constants_count, size = self._sizes
        if not 0 <= index < size:
            raise IndexError("candidate index %d is outside 0..%d"
                             % (index, size - 1))
        alpha_index, value_index = divmod(index, constants_count)
        alpha = self._alpha(alpha_index)
        digits = _digits(value_index, len(self.coeffs), len(self.slots))
        entries = {}
        for slot, digit in zip(self.slots, digits):
            value = self.coeffs[digit]
            if value != 0:
                entries[slot] = value
        product = BilinearOp(self.space, entries=entries)
        name = "search_%d_%d_%d" % (self.dims[0], self.dims[1], index)
        return HomSuperalgebra(self.space, product, alpha, name=name)

    def _diagonal(self, alpha_index):
        """The diagonal entries of the twisting map of an alpha block."""
        return [self.alpha_pool[digit] for digit in _digits(
            alpha_index, len(self.alpha_pool), self.space.dim)]

    def _alpha(self, alpha_index):
        """The twisting map of an alpha block.  The scan visits a block's
        candidates one after another, so the map last built (with its
        cached basis images) is kept and shared by them."""
        if self._last_alpha[0] != alpha_index:
            alpha = EvenMap.diagonal(self.space, self._diagonal(alpha_index))
            self._last_alpha = (alpha_index, alpha)
        return self._last_alpha[1]


def _pool(values, what):
    """A pool as a tuple of Fractions, or SearchSpaceError."""
    pool = []
    for value in values:
        try:
            pool.append(scalar(value))
        except (TypeError, ValueError, ZeroDivisionError):
            raise SearchSpaceError("%s %r is not a rational number"
                                   % (what, value)) from None
    if not pool:
        raise SearchSpaceError("empty %s list" % what)
    return tuple(pool)


def _allowed_slots(space):
    slots = []
    n = space.dim
    for i in range(n):
        for j in range(n):
            want = (space.parity(i) + space.parity(j)) % 2
            for k in range(n):
                if space.parity(k) == want:
                    slots.append((i, j, k))
    return slots


def _digits(value, base, width):
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        value, digits[pos] = divmod(value, base)
    return digits


class SearchOutcome:
    def __init__(self, spec, documents, examined, partial):
        self.spec = spec
        self.documents = documents
        self.examined = examined
        self.partial = partial
        self.space_size = spec.space_size()


def _indices(spec, filtered):
    """The candidate indices whose digits the slot filter allows, in
    increasing order.  With the filter on, a slot (i,j,k) of an alpha
    block diag(d) where d_k != d_i * d_j only keeps the digits of zero
    coefficients: a nonzero constant there breaks multiplicativity,
    c_ijk * (d_k - d_i * d_j) = 0."""
    base = len(spec.coeffs)
    weights = [base ** power for power in range(len(spec.slots) - 1, -1, -1)]
    constants_count = base ** len(spec.slots)
    every = range(base)
    zeros = [digit for digit, value in enumerate(spec.coeffs) if value == 0]
    for alpha_index in range(spec.alpha_count()):
        offset = alpha_index * constants_count
        allowed = [every] * len(spec.slots)
        if filtered:
            d = spec._diagonal(alpha_index)
            allowed = [every if d[k] == d[i] * d[j] else zeros
                       for i, j, k in spec.slots]
        # Each slot's digits ascend, so the product runs in index order.
        for digits in itertools.product(*allowed):
            yield offset + sum(digit * weight
                               for digit, weight in zip(digits, weights))


def run_search(spec):
    """Enumerate the whole space (subject to cap and budget) and keep the
    candidates passing the suite.  Raises SearchSpaceError when the space
    exceeds DEFAULT_MAX_SPACE.  Indices the slot filter rejects are
    counted as examined without being built.  The laws' witnesses
    (`suite_passes`) live for this call only."""
    size = spec.space_size()
    checks = spec.checks()
    filtered = "multiplicativity" in checks
    # Every candidate keeps the parity rule: `candidate` fills only the
    # slots `_allowed_slots` allows, with a diagonal alpha.  Every
    # candidate built is multiplicative too: with the slot filter on, the
    # nonzero constants sit on slots with d_k = d_i * d_j.
    checks = [check for check in checks
              if check not in ("grading", "multiplicativity")]
    deadline = None
    if spec.budget_ms is not None:
        deadline = time.monotonic() + spec.budget_ms / 1000.0
    documents = []
    witnesses = {}
    for index in _indices(spec, filtered):
        if deadline is not None and time.monotonic() > deadline:
            return SearchOutcome(spec, documents, index, True)
        algebra = spec.candidate(index)
        if idn.suite_passes(checks, algebra, witnesses):
            algebra.metadata = {"source": "search", "candidate": index,
                                "expected": {spec.suite: True}}
            documents.append(serialize.algebra_to_document(algebra))
            if len(documents) >= spec.max_results:
                return SearchOutcome(spec, documents, index + 1,
                                     index + 1 < size)
    return SearchOutcome(spec, documents, size, False)
