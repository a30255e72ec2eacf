"""Bounded exhaustive search over structure constants for small algebras
satisfying a given law suite.

Candidates are enumerated in lexicographic order: the twisting-map choice is
the outer digit string (identity only, or diagonal entries over a pool), the
parity-allowed structure constants the inner one, both in the order the
coefficient lists were given.  The search space size is computed up front
and refused when it exceeds the configured bound; an optional time budget
stops the scan early with the partial flag set.  Results are re-buildable
from their candidate index, so the output is deterministic.

For a diagonal twisting map diag(d), multiplicativity splits into one
condition per structure constant: c_ijk * (d_k - d_i * d_j) = 0.  So when
the suite checks multiplicativity and alpha comes from a diagonal pool, the
scan works out, per alpha digit string, which slots (i,j,k) satisfy
d_k = d_i * d_j and walks only the candidates holding a zero coefficient on
every other slot, in index order.  The rest are rejected without being
built.  `examined` counts every index the scan passed, built or not: a full
scan reports the whole space, and a capped scan stops at the same index as
a scan that builds every candidate.  The time budget is checked before each
candidate that is built.  The scan does not check the parity rule, which
every candidate keeps by construction.

The candidate space can be partitioned across worker processes (the
HOMSUPER_WORKERS environment variable); chunks are merged back in index
order, so the result order does not depend on the worker count.  The merge
ends at the result cap or after the first chunk that ran out of time, so
the results are always those of a scanned prefix of the index order.
"""

import itertools
import os
import time

from . import identities as idn
from . import serialize
from .kernel import BilinearOp, EvenMap, HomSuperalgebra, SuperSpace, scalar


class SearchSpaceError(ValueError):
    pass


DEFAULT_MAX_SPACE = 10 ** 7


class SearchSpec:
    """What to enumerate: dimensions, coefficient pool, twisting-map family
    (identity or diagonal over a pool), the suite to satisfy, a result cap
    and an optional time budget."""

    def __init__(self, dims, coeffs=("-1", "0", "1"), alpha="id",
                 suite="leibniz", max_results=100, budget_ms=None,
                 max_space=DEFAULT_MAX_SPACE):
        self.dims = (int(dims[0]), int(dims[1]))
        if min(self.dims) < 0:
            raise SearchSpaceError("dimensions must be nonnegative, got %d,%d"
                                   % self.dims)
        self.coeffs = tuple(scalar(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("empty coefficient set")
        if alpha == "id":
            self.alpha_pool = None
        else:
            self.alpha_pool = tuple(scalar(c) for c in alpha)
            if not self.alpha_pool:
                raise ValueError("empty diagonal pool")
        self.suite = suite
        self.max_results = int(max_results)
        if self.max_results < 1:
            raise SearchSpaceError("the result cap must be at least 1, got %d"
                                   % self.max_results)
        self.budget_ms = budget_ms
        self.max_space = int(max_space)
        self.space = SuperSpace(*self.dims)
        self.slots = _allowed_slots(self.space)
        self._last_alpha = (None, None)

    def alpha_count(self):
        if self.alpha_pool is None:
            return 1
        return len(self.alpha_pool) ** self.space.dim

    def space_size(self):
        return self.alpha_count() * len(self.coeffs) ** len(self.slots)

    def checks(self):
        """The checks the suite expands to on this space.  Raises
        UnknownSuite or MissingOpSlot without building a candidate."""
        space = self.space
        return idn.resolve_suite(self.suite, HomSuperalgebra(
            space, BilinearOp(space), EvenMap.identity(space)))

    def candidate(self, index):
        """Rebuild candidate number `index` (0-based, lexicographic)."""
        constants_count = len(self.coeffs) ** len(self.slots)
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

    def _alpha(self, alpha_index):
        """The twisting map of an alpha block.  The scan visits a block's
        candidates one after another, so the map last built (with its
        cached basis images) is kept and shared by them."""
        if self._last_alpha[0] != alpha_index:
            if self.alpha_pool is None:
                alpha = EvenMap.identity(self.space)
            else:
                digits = _digits(alpha_index, len(self.alpha_pool),
                                 self.space.dim)
                alpha = EvenMap.diagonal(self.space,
                                         [self.alpha_pool[d] for d in digits])
            self._last_alpha = (alpha_index, alpha)
        return self._last_alpha[1]

    def to_data(self):
        return {
            "dims": self.dims,
            "coeffs": [str(c) for c in self.coeffs],
            "alpha": "id" if self.alpha_pool is None
                     else [str(c) for c in self.alpha_pool],
            "suite": self.suite,
            "max_results": self.max_results,
            "budget_ms": self.budget_ms,
            "max_space": self.max_space,
        }

    @classmethod
    def from_data(cls, data):
        return cls(data["dims"], data["coeffs"], data["alpha"], data["suite"],
                   data["max_results"], data["budget_ms"], data["max_space"])


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


def _slot_digits(spec, alpha_index, filtered):
    """Per slot, the coefficient digits a candidate of this alpha block may
    hold.  With the slot filter on, a slot (i,j,k) where d_k != d_i * d_j
    only keeps the digits of zero coefficients: a nonzero constant there
    breaks multiplicativity, c_ijk * (d_k - d_i * d_j) = 0."""
    every = range(len(spec.coeffs))
    if not filtered:
        return [every] * len(spec.slots)
    zeros = [digit for digit, value in enumerate(spec.coeffs) if value == 0]
    d = [spec.alpha_pool[digit] for digit in
         _digits(alpha_index, len(spec.alpha_pool), spec.space.dim)]
    return [every if d[k] == d[i] * d[j] else zeros
            for i, j, k in spec.slots]


def _block_indices(spec, alpha_index, lo, hi, filtered):
    """The candidate indices of one alpha block whose value index lies in
    [lo, hi) and whose digits the slot filter allows, in increasing order."""
    base = len(spec.coeffs)
    weights = [base ** power for power in range(len(spec.slots) - 1, -1, -1)]
    offset = alpha_index * base ** len(spec.slots)
    # Each slot's digits ascend, so the product runs in index order.
    for digits in itertools.product(*_slot_digits(spec, alpha_index,
                                                  filtered)):
        value = sum(digit * weight for digit, weight in zip(digits, weights))
        if value >= hi:
            return
        if value >= lo:
            yield offset + value


def _scan(spec, start, end, deadline, cap, filtered):
    """Scan candidate indices [start, end); returns (documents, examined,
    hit_deadline).  Indices the slot filter rejects are counted as examined
    without being built."""
    documents = []
    # Every candidate keeps the parity rule: `candidate` fills only the
    # slots `_allowed_slots` allows, with an identity or diagonal alpha.
    checks = [check for check in spec.checks() if check != "grading"]
    constants_count = len(spec.coeffs) ** len(spec.slots)
    for alpha_index in range(start // constants_count,
                             (end - 1) // constants_count + 1):
        block = alpha_index * constants_count
        for index in _block_indices(spec, alpha_index,
                                    max(start - block, 0),
                                    min(end - block, constants_count),
                                    filtered):
            if deadline is not None and time.monotonic() > deadline:
                return documents, index - start, True
            algebra = spec.candidate(index)
            if idn.suite_passes(checks, algebra):
                algebra.metadata = {"source": "search", "candidate": index,
                                    "expected": {spec.suite: True}}
                documents.append(serialize.algebra_to_document(algebra))
                if cap is not None and len(documents) >= cap:
                    return documents, index + 1 - start, False
    return documents, end - start, False


def _scan_worker(args):
    data, start, end, deadline, filtered = args
    spec = SearchSpec.from_data(data)
    return _scan(spec, start, end, deadline, spec.max_results, filtered)


def worker_count():
    try:
        return max(1, int(os.environ.get("HOMSUPER_WORKERS", "1")))
    except ValueError:
        return 1


def run_search(spec):
    """Enumerate the whole space (subject to cap and budget) and keep the
    candidates passing the suite.  Raises SearchSpaceError when the space
    exceeds spec.max_space."""
    size = spec.space_size()
    if size > spec.max_space:
        raise SearchSpaceError(
            "search space has %d candidates, above the bound %d"
            % (size, spec.max_space))
    checks = spec.checks()
    filtered = spec.alpha_pool is not None and "multiplicativity" in checks
    deadline = None
    if spec.budget_ms is not None:
        deadline = time.monotonic() + spec.budget_ms / 1000.0
    workers = worker_count()
    if workers <= 1 or size < 2 * workers:
        documents, examined, hit = _scan(spec, 0, size, deadline,
                                         spec.max_results, filtered)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (size + workers - 1) // workers
        starts = range(0, size, chunk)
        jobs = [(spec.to_data(), start, min(start + chunk, size), deadline,
                 filtered) for start in starts]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_worker, jobs))
        documents, examined, hit = _merge_chunks(starts, chunks,
                                                 spec.max_results)
    return SearchOutcome(spec, documents, examined, hit or examined < size)


def _merge_chunks(starts, chunks, cap):
    """Merge the (documents, examined, hit_deadline) results of chunks
    starting at `starts`, in index order, into the outcome of one serial
    scan: (documents, examined, hit_deadline).  The merge ends at the
    cap-th document, or after the first chunk that hit the deadline, so
    the documents are those of a scanned prefix of the index order."""
    documents = []
    examined = 0
    for start, (docs, count, hit) in zip(starts, chunks):
        for doc in docs:
            documents.append(doc)
            if len(documents) >= cap:
                return documents, doc["metadata"]["candidate"] + 1, False
        examined = start + count
        if hit:
            return documents, examined, True
    return documents, examined, False
