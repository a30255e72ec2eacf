"""Derived structures on a twisted graded algebra: the graded commutator,
the twisted associator and Jacobian, the induced binary-ternary algebras of
commutator/associator type and of Lie-Yamaguti type carried by a left
Leibniz product, admissibility and equivalence checks, the left/right
conversion, and a twist generator used to produce test fixtures.

Every derived operation is a template in the identity language, evaluated
by `identities.Evaluator` on each basis tuple: its values are the structure
constants.  The laws the checks need are templates too, so no formula is
written twice.

Constructions are pure: they return fresh immutable objects.  Preconditions
are enforced (a refused input raises PreconditionError); the classical
theorems backing each construction are re-verified as postconditions, so a
sign error here cannot survive unnoticed.
"""

import itertools

from . import identities as idn
from .kernel import (
    BilinearOp,
    BinaryTernaryAlgebra,
    HomSuperalgebra,
    TernaryOp,
    check_algebra_grading,
    check_multiplicativity,
)
from .report import Report

# Templates of the derived operations; each reads "template = 0", and its
# residual is the operation's value.
ASSOCIATOR = idn.parse_identity("(x*y)*a(z) - a(x)*(y*z)")
LY_TERNARY = idn.parse_identity("- (x*y)*a(z)")
YAU_TWIST = idn.parse_identity("a(x*y)")


class PreconditionError(ValueError):
    pass


def _require_grading(algebra):
    report = check_algebra_grading(algebra)
    if not report.passed:
        raise PreconditionError("structure constants break the parity rule: "
                                + report.summary())


def _require_multiplicative(algebra):
    if algebra.multiplicative is None:
        check_multiplicativity(algebra)
    if not algebra.multiplicative:
        raise PreconditionError("twisting map is not an endomorphism")


def _require_leibniz(algebra):
    _require_grading(algebra)
    _require_multiplicative(algebra)
    report = idn.check_identity(idn.REGISTRY["LLSI"], algebra, name="LLSI",
                                first_only=True)
    if not report.passed:
        raise PreconditionError("product is not left Leibniz: "
                                + report.summary())


def _ensure_passed(reports, prefix):
    """A postcondition: raise RuntimeError, the prefix followed by the
    summaries of the failed reports, if any report failed."""
    failed = [r.summary() for r in reports if not r.passed]
    if failed:
        raise RuntimeError(prefix + "; ".join(failed))


def _template_op(template, algebra):
    """The multilinear operation a template defines on an algebra: its
    residual on every basis tuple, one argument per free variable, in
    order of first occurrence."""
    space = algebra.space
    evaluator = idn.Evaluator(algebra)
    names = template.variables
    entries = {}
    for combo in itertools.product(range(space.dim), repeat=len(names)):
        value = evaluator.eval(template, dict(zip(names, combo)))
        for k, c in enumerate(value.coords):
            if c:
                entries[combo + (k,)] = c
    op = {2: BilinearOp, 3: TernaryOp}[len(names)]
    return op(space, entries=entries)


def supercommutator(algebra):
    """Structure constants of [x,y] = x*y - (-1)^{|x||y|} y*x."""
    _require_grading(algebra)
    return algebra.product.graded_commutator()


def hom_associator(algebra):
    """Twisted associator (x*y)*a(z) - a(x)*(y*z) as a ternary tensor."""
    _require_grading(algebra)
    return _template_op(ASSOCIATOR, algebra)


def hom_super_jacobian(algebra):
    """Signed cyclic sum (x*y)*a(z) + (-1)^{|x|(|y|+|z|)}(y*z)*a(x)
    + (-1)^{|z|(|x|+|y|)}(z*x)*a(y) as a ternary tensor."""
    _require_grading(algebra)
    return _template_op(idn.REGISTRY["HOM_SUPER_JACOBI"], algebra)


def build_hom_akivis(algebra, verify=True):
    """The commutator/associator binary-ternary algebra of a multiplicative
    input.  The result always satisfies the AKIVIS suite; this is re-checked
    unless verify=False."""
    _require_grading(algebra)
    _require_multiplicative(algebra)
    derived = BinaryTernaryAlgebra(
        algebra.space,
        supercommutator(algebra),
        hom_associator(algebra),
        algebra.alpha,
        name="akivis(%s)" % (algebra.name or "?"))
    if verify:
        _ensure_passed(idn.check_suite("akivis", derived),
                       "commutator/associator structure failed its own law: ")
    return derived


def build_hom_ly(algebra, verify=True):
    """The binary-ternary algebra carried by a left Leibniz product:
    binary [x,y] = x*y - (-1)^{|x||y|} y*x, ternary {x,y,z} = -(x*y)*a(z).
    The eight SHLY axioms are re-verified as a postcondition."""
    _require_leibniz(algebra)
    derived = BinaryTernaryAlgebra(
        algebra.space, supercommutator(algebra),
        _template_op(LY_TERNARY, algebra), algebra.alpha,
        name="ly(%s)" % (algebra.name or "?"))
    if verify:
        _ensure_passed(idn.check_suite("ly", derived),
                       "derived Lie-Yamaguti structure failed an axiom: ")
    return derived


def check_lie_admissible(algebra):
    """Whether the signed cyclic product sum vanishes, i.e. whether the
    graded commutator of a left Leibniz product is a twisted Lie bracket.
    When the verdict is a pass, the commutator algebra is re-checked against
    the full "lie" suite."""
    _require_leibniz(algebra)
    report = idn.check_identity(idn.REGISTRY["LIE_ADMISSIBLE"], algebra,
                                name="LIE_ADMISSIBLE")
    if report.passed:
        bracket_algebra = HomSuperalgebra(
            algebra.space, supercommutator(algebra), algebra.alpha,
            name="commutator(%s)" % (algebra.name or "?"))
        _ensure_passed(idn.check_suite("lie", bracket_algebra),
                       "admissible verdict disagrees with the bracket laws: ")
    return report


def left_to_right(algebra):
    """The opposite algebra x.y = y*x (transposed structure constants).
    Applying it twice gives back an equal algebra."""
    return HomSuperalgebra(algebra.space, algebra.product.transpose(),
                           algebra.alpha, ternary=algebra.ternary,
                           name="opposite(%s)" % (algebra.name or "?"))


def check_ternary_equivalence(algebra):
    """Three-way equality of the Lie-Yamaguti ternary operation on a left
    Leibniz product, on every basis triple:

        (-1)^{|x||y|} as(y,x,z) - as(x,y,z)  =  -(x*y)*a(z)
                                             =  -1/2 [x,y]*a(z)

    The Koszul factor on the transposed associator is forced by the graded
    setting; without it the first expression differs on odd-odd sectors.
    """
    _require_leibniz(algebra)
    space = algebra.space
    evaluator = idn.Evaluator(algebra)
    bad = []
    for combo in itertools.product(range(space.dim), repeat=3):
        env = dict(zip("xyz", combo))
        residual = evaluator.eval(idn.TERNARY_EQ_DEF, env)
        residual_half = evaluator.eval(idn.TERNARY_EQ_HALF, env)
        if not (residual.is_zero() and residual_half.is_zero()):
            bad.append({"tuple": [space.labels[i] for i in combo],
                        "residual": dict(residual.nonzero_items()),
                        "residual_half": dict(residual_half.nonzero_items())})
    return Report("ternary_equivalence", not bad, space.dim ** 3, bad)


def yau_twist(algebra, beta):
    """Twist an untwisted left Leibniz product by an endomorphism:
    x *' y = beta(x*y) with twisting map beta.  The output is verified to be
    multiplicative and left Leibniz before it is returned."""
    if not algebra.alpha.is_identity():
        raise PreconditionError("twist source must have the identity map")
    _require_leibniz(algebra)
    if beta.space != algebra.space:
        raise PreconditionError("endomorphism over a different space")
    endo_probe = HomSuperalgebra(algebra.space, algebra.product, beta)
    if not check_multiplicativity(endo_probe).passed:
        raise PreconditionError("beta is not an algebra endomorphism")
    twisted = HomSuperalgebra(algebra.space,
                              _template_op(YAU_TWIST, endo_probe), beta,
                              name="twist(%s)" % (algebra.name or "?"))
    _ensure_passed(idn.check_suite("leibniz", twisted),
                   "twisted product lost the Leibniz law: ")
    return twisted
