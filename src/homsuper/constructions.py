"""Derived structures on a twisted graded algebra: the graded commutator,
the twisted associator and Jacobian, the induced binary-ternary algebras of
commutator/associator type and of Lie-Yamaguti type carried by a left
Leibniz product, admissibility and equivalence checks, the left/right
conversion, and a twist generator used to produce test fixtures.

Every derived operation is a template in the identity language, declared
once in `identities.DERIVED` for the constructions and the prover alike;
`identities.template_op` reads its structure constants straight off the
rows of the template's tensor, and the commutator is the "[,]" of a
plain algebra (`identities.commutator`).
The laws the checks need are templates too, so no formula is written twice.
Every law a construction checks (its preconditions, its verdict and its
postconditions) is read from the same tensor evaluation, through
`_check_suite`: a construction checks laws it expects to hold, so a scan
that stops at the first failing tuple would scan every tuple anyway, and
the tensor evaluates them all in one walk.  The reports are those of
`identities.check_suite`, whose binary laws `check_identity` still scans
tuple by tuple for `verify` and `search` (ROADMAP item 1 says why).

Constructions are pure: they return fresh immutable objects.  Preconditions
are enforced (a refused input raises PreconditionError); the classical
theorems backing each construction are re-verified as postconditions, so a
sign error here cannot survive unnoticed.
"""

from . import identities as idn
from .kernel import (
    BinaryTernaryAlgebra,
    HomSuperalgebra,
    check_algebra_grading,
    check_multiplicativity,
)
from .report import Report

# The twisted product x *' y = a(x*y) of yau_twist, read "template = 0".
YAU_TWIST = idn.parse_identity("a(x*y)")


class PreconditionError(ValueError):
    pass


def _check_suite(names, algebra, first_only=False):
    """The reports of identities.check_suite(names, algebra, first_only),
    with every law from its tensor (`identities.residuals`) and the other
    checks run as check_suite runs them (`identities._run_check`)."""
    reports = []
    for check in idn.resolve_suite(names, algebra):
        law = idn.REGISTRY.get(check)
        if law is None:
            reports.append(idn._run_check(check, algebra))
        else:
            reports.append(idn.residual_report(
                check, law, algebra, idn.residuals(law, algebra), first_only))
    return reports


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
    """The cached left Leibniz verdict, checked once per algebra; a failing
    verdict is checked again to give its counterexample."""
    _require_grading(algebra)
    _require_multiplicative(algebra)
    if algebra.left_leibniz:
        return
    report, = _check_suite("LLSI", algebra, first_only=True)
    algebra._left_leibniz = report.passed
    if not report.passed:
        raise PreconditionError("product is not left Leibniz: "
                                + report.summary())


def _ensure_passed(reports, prefix):
    """A postcondition: raise RuntimeError, the prefix followed by the
    summaries of the failed reports, if any report failed."""
    failed = [r.summary() for r in reports if not r.passed]
    if failed:
        raise RuntimeError(prefix + "; ".join(failed))


def supercommutator(algebra):
    """Structure constants of [x,y] = x*y - (-1)^{|x||y|} y*x on every
    algebra, built once per algebra (`identities.commutator`)."""
    _require_grading(algebra)
    return idn.commutator(algebra)


def hom_associator(algebra):
    """Twisted associator (x*y)*a(z) - a(x)*(y*z) as a ternary tensor."""
    _require_grading(algebra)
    return idn.template_op(idn.ASSOCIATOR, algebra)


def hom_super_jacobian(algebra):
    """Signed cyclic sum (x*y)*a(z) + (-1)^{|x|(|y|+|z|)}(y*z)*a(x)
    + (-1)^{|z|(|x|+|y|)}(z*x)*a(y) as a ternary tensor."""
    _require_grading(algebra)
    return idn.template_op(idn.REGISTRY["HOM_SUPER_JACOBI"], algebra)


def _derive(algebra, structure, verify, failure):
    """The binary-ternary algebra of a structure in identities.DERIVED:
    the graded commutator and the structure's ternary template.  With
    verify, the suite of the same name is a postcondition."""
    derived = BinaryTernaryAlgebra(
        algebra.space, supercommutator(algebra),
        idn.template_op(idn.DERIVED[structure]["{,,}"], algebra),
        algebra.alpha, name="%s(%s)" % (structure, algebra.name or "?"))
    if verify:
        _ensure_passed(_check_suite(structure, derived), failure)
    return derived


def build_hom_akivis(algebra, verify=True):
    """The commutator/associator binary-ternary algebra of a multiplicative
    input.  The result always satisfies the AKIVIS suite; this is re-checked
    unless verify=False."""
    _require_grading(algebra)
    _require_multiplicative(algebra)
    return _derive(algebra, "akivis", verify,
                   "commutator/associator structure failed its own law: ")


def build_hom_ly(algebra, verify=True):
    """The binary-ternary algebra carried by a left Leibniz product:
    binary [x,y] = x*y - (-1)^{|x||y|} y*x, ternary {x,y,z} = -(x*y)*a(z).
    The eight SHLY axioms are re-verified as a postcondition."""
    _require_leibniz(algebra)
    return _derive(algebra, "ly", verify,
                   "derived Lie-Yamaguti structure failed an axiom: ")


def check_lie_admissible(algebra):
    """Whether the signed cyclic product sum vanishes, i.e. whether the
    graded commutator of a left Leibniz product is a twisted Lie bracket.
    When the verdict is a pass, the commutator algebra is re-checked against
    the full "lie" suite."""
    _require_leibniz(algebra)
    report, = _check_suite("LIE_ADMISSIBLE", algebra)
    if report.passed:
        bracket_algebra = HomSuperalgebra(
            algebra.space, supercommutator(algebra), algebra.alpha,
            name="commutator(%s)" % (algebra.name or "?"))
        _ensure_passed(_check_suite("lie", bracket_algebra),
                       "admissible verdict disagrees with the bracket laws: ")
    return report


def left_to_right(algebra):
    """The opposite algebra x.y = y*x (transposed structure constants), of
    the input's kind, with the ternary product unchanged.  Applying it
    twice gives back an equal algebra."""
    opposite = algebra.product.transpose()
    name = "opposite(%s)" % (algebra.name or "?")
    if isinstance(algebra, BinaryTernaryAlgebra):
        return BinaryTernaryAlgebra(algebra.space, opposite, algebra.ternary,
                                    algebra.alpha, name=name)
    return HomSuperalgebra(algebra.space, opposite, algebra.alpha,
                           ternary=algebra.ternary, name=name)


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
    found = {}
    for key, law in (("residual", idn.TERNARY_EQ_DEF),
                     ("residual_half", idn.TERNARY_EQ_HALF)):
        for combo, value in idn.residuals(law, algebra):
            residuals = found.setdefault(combo, {"residual": {},
                                                 "residual_half": {}})
            residuals[key] = dict(value.nonzero_items())
    bad = [{"tuple": [space.labels[i] for i in combo], **found[combo]}
           for combo in sorted(found)]
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
                              idn.template_op(YAU_TWIST, endo_probe), beta,
                              name="twist(%s)" % (algebra.name or "?"))
    _ensure_passed(_check_suite("leibniz", twisted),
                   "twisted product lost the Leibniz law: ")
    return twisted
