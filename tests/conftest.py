import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import homsuper as hs

sys.path.insert(0, str(Path(__file__).parent))


def make_algebra(dim_even, dim_odd, entries, alpha=None, name=""):
    space = hs.SuperSpace(dim_even, dim_odd)
    product = hs.BilinearOp(space, entries=entries)
    if alpha is None:
        alpha = hs.EvenMap.identity(space)
    elif not isinstance(alpha, hs.EvenMap):
        alpha = hs.EvenMap.diagonal(space, alpha)
    return hs.HomSuperalgebra(space, product, alpha, name=name)


def non_admissible_witnesses():
    """Two left Leibniz algebras that are not Lie admissible, kept out of
    the corpus: the (2|2) algebra b1*b4 = b3, b2*b4 = b3, b4*b2 = b3,
    b4*b4 = b1 + b2 with the identity map, and its Yau twist by
    diag(4, 4, 8, 2).  Both fail LIE_ADMISSIBLE at (b4,b4,b4)."""
    source = make_algebra(2, 2, {(0, 3, 2): 1, (1, 3, 2): 1, (3, 1, 2): 1,
                                 (3, 3, 0): 1, (3, 3, 1): 1},
                          name="witness_2_2")
    twisted = hs.yau_twist(source,
                           hs.EvenMap.diagonal(source.space, [4, 4, 8, 2]))
    return [source, twisted]


# Integers and a few non-integral rationals, for the paths that combine
# integral and non-integral coefficients.
RATIONALS = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2),
                             Fraction(3, 2), Fraction(1, 3)])


@st.composite
def graded_algebras(draw, values=st.integers(-2, 2), ternary=False,
                    max_dim=4):
    """A random algebra of dimension up to (2|2), and at most max_dim:
    structure constants drawn from `values` (-2..2 by default) on every
    slot the parity rule allows, and an even twisting map with entries from
    `values` anywhere inside the parity blocks, so in general neither
    diagonal nor multiplicative.  With ternary=True it also carries a
    ternary product, its constants drawn the same way."""
    space = hs.SuperSpace(*draw(st.tuples(st.integers(0, 2), st.integers(0, 2))
                                .filter(lambda dims: sum(dims) <= max_dim)))
    n = space.dim

    def constants(arity):
        return {key: draw(values)
                for key in itertools.product(range(n), repeat=arity + 1)
                if sum(map(space.parity, key[:-1])) % 2
                == space.parity(key[-1])}

    product = hs.BilinearOp(space, entries=constants(2))
    rows = [[draw(values) if space.parity(i) == space.parity(k)
             else 0 for k in range(n)] for i in range(n)]
    return hs.HomSuperalgebra(
        space, product, hs.EvenMap(space, rows),
        ternary=hs.TernaryOp(space, constants(3)) if ternary else None)


@pytest.fixture
def a2b():
    return make_algebra(2, 0, {(0, 0, 1): 1}, name="a2b")


@pytest.fixture
def f2e():
    return make_algebra(1, 1, {(1, 1, 0): 1}, name="f2e")


@pytest.fixture(scope="session")
def corpus():
    """All packaged fixtures as (path, algebra) pairs."""
    paths = hs.corpus_paths()
    assert paths, "packaged corpus is missing"
    return [(path, hs.load_algebra(path)) for path in paths]


@pytest.fixture(scope="session")
def corpus_leibniz(corpus):
    return [(path, algebra) for path, algebra in corpus
            if algebra.metadata["expected"].get("leibniz")]
