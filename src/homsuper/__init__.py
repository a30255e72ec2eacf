"""homsuper: exact-arithmetic workbench for twisted Z2-graded algebras.

Represents finite-dimensional graded algebras by rational structure
constants together with an even twisting map, checks graded multilinear laws
exhaustively over homogeneous basis tuples, derives the classical
binary-ternary structures (graded commutator, twisted associator, the
Lie-Yamaguti-style triple product of a left Leibniz product), and certifies
universally valid laws symbolically over the free graded magma.
"""

from .kernel import (
    BilinearOp,
    BinaryTernaryAlgebra,
    DimensionMismatch,
    EvenMap,
    HomSuperalgebra,
    ParityError,
    SuperSpace,
    TernaryOp,
    Vector,
    check_grading,
    check_multiplicativity,
    scalar,
)
from .identities import (
    REGISTRY,
    SUITES,
    MissingOpSlot,
    NonMultilinearLaw,
    ParseError,
    UnboundVariable,
    UnknownSuite,
    check_identity,
    check_suite,
    eval_identity_on_tuple,
    parse_identity,
    parse_identity_file,
    pretty,
)
from .constructions import (
    PreconditionError,
    build_hom_akivis,
    build_hom_ly,
    check_lie_admissible,
    check_ternary_equivalence,
    hom_associator,
    hom_super_jacobian,
    left_to_right,
    supercommutator,
    yau_twist,
)
from .freealg import (
    PROOF_TARGETS,
    FreeExpr,
    expand_template,
    normal_form,
    prove_identity_free,
)
from .report import Report
from .serialize import DocumentError, corpus_dir, corpus_paths, load_algebra, save_algebra
from .search import SearchSpec, run_search

__version__ = "0.1.0"
