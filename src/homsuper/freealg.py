"""Symbolic engine over the free graded magma: identity templates are
expanded over formal generators with chosen parities, normalized by directed
rewriting, and certified when every residual cancels to the zero expression.
The expansion is the package's one identity evaluator, `identities.Evaluator`,
with formal expressions as its values.

Terms are binary product trees whose leaves are generators carrying an
exponent of the twisting map; an `("a", k, t)` wrapper marks a not yet
distributed application of the map to a whole subterm.  Two rewrite passes
produce normal forms:

  * alpha distribution uses multiplicativity, a(t*s) -> a(t)*a(s), until
    exponents live only on leaves.  Each step removes one wrapper over a
    product, so this terminates.
  * the left Leibniz rule is oriented as
        (A*B)*a(C) -> a(A)*(B*C) - (-1)^{|A||B|} a(B)*(A*C)
    and applied at every position whose right factor is a distributed image
    (all leaf exponents >= 1).  Each application replaces a redex by redexes
    with strictly smaller left subtrees, so saturation terminates; a step
    counter guards the loop anyway.

The prover is sound but deliberately not complete: a certificate only ever
says PROVED (all residuals vanished) or INCONCLUSIVE (some normal form
survived, listed in the report).  A surviving term may still vanish as a
consequence of rule instances outside the chosen orientation, so refutation
is left to the exhaustive numeric checker.
"""

import itertools
from fractions import Fraction

from . import identities as idn
from .report import Report

ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

_STEP_LIMIT = 200000


class RewriteLimit(RuntimeError):
    pass


# --------------------------------------------------------------------------
# Terms

def generator(name, power=0):
    return ("g", name, power)


def product(left, right):
    return ("p", left, right)


def alpha_wrap(term, k):
    if k == 0:
        return term
    if term[0] == "g":
        return ("g", term[1], term[2] + k)
    if term[0] == "a":
        return ("a", term[1] + k, term[2])
    return ("a", k, term)


def term_parity(term, parities):
    if term[0] == "g":
        return parities[term[1]]
    if term[0] == "a":
        return term_parity(term[2], parities)
    return (term_parity(term[1], parities)
            + term_parity(term[2], parities)) % 2


def term_size(term):
    if term[0] == "g":
        return 1
    if term[0] == "a":
        return term_size(term[2])
    return term_size(term[1]) + term_size(term[2])


def term_text(term):
    if term[0] == "g":
        name, k = term[1], term[2]
        if k == 0:
            return name
        return ("a(%s)" if k == 1 else "a%d(%%s)" % k) % name
    if term[0] == "a":
        head = "a" if term[1] == 1 else "a%d" % term[1]
        return "%s(%s)" % (head, term_text(term[2]))
    return "(%s*%s)" % (term_text(term[1]), term_text(term[2]))


def term_key(term):
    return (term_size(term), term_text(term))


def is_distributed(term):
    if term[0] == "g":
        return True
    if term[0] == "a":
        return False
    return is_distributed(term[1]) and is_distributed(term[2])


def distribute_term(term, k=0):
    """Push map applications down to the leaves (multiplicativity)."""
    if term[0] == "g":
        return ("g", term[1], term[2] + k)
    if term[0] == "a":
        return distribute_term(term[2], k + term[1])
    return ("p", distribute_term(term[1], k), distribute_term(term[2], k))


def min_leaf_power(term):
    if term[0] == "g":
        return term[2]
    return min(min_leaf_power(term[1]), min_leaf_power(term[2]))


def shift_leaves(term, delta):
    if term[0] == "g":
        power = term[2] + delta
        if power < 0:
            raise ValueError("negative map power")
        return ("g", term[1], power)
    return ("p", shift_leaves(term[1], delta), shift_leaves(term[2], delta))


# --------------------------------------------------------------------------
# Expressions

class FreeExpr:
    """Formal rational combination of free terms, in canonical order:
    no zero coefficients, terms sorted by size then by rendering."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for term, c in (coeffs or {}).items():
            if c != 0:
                clean[term] = c
        self._coeffs = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, term, coeff=ONE):
        return cls({term: Fraction(coeff)})

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: term_key(kv[0]))

    def terms(self):
        return [t for t, _ in self.items()]

    def is_zero(self):
        return not self._coeffs

    def __add__(self, other):
        coeffs = dict(self._coeffs)
        for t, c in other._coeffs.items():
            coeffs[t] = coeffs.get(t, Fraction(0)) + c
        return FreeExpr(coeffs)

    def __sub__(self, other):
        return self + other.scale(MINUS_ONE)

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return FreeExpr()
        return FreeExpr({t: c * v for t, v in self._coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, FreeExpr) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if self.is_zero():
            return "FreeExpr<0>"
        parts = []
        for t, c in self.items():
            parts.append("%s %s" % (c, term_text(t)))
        return "FreeExpr<%s>" % " + ".join(parts)

    def rendered(self):
        """Stable human/JSON form: list of "coeff term" strings."""
        return ["%s %s" % (c, term_text(t)) for t, c in self.items()]


def free_product(e1, e2):
    coeffs = {}
    for t1, c1 in e1._coeffs.items():
        for t2, c2 in e2._coeffs.items():
            t = product(t1, t2)
            coeffs[t] = coeffs.get(t, Fraction(0)) + c1 * c2
    return FreeExpr(coeffs)


def alpha_expr(e, k):
    if k == 0:
        return e
    return FreeExpr({alpha_wrap(t, k): c for t, c in e._coeffs.items()})


def commutator_expr(e1, e2, parities):
    """Graded commutator, expanded termwise with Koszul signs."""
    coeffs = {}
    for t1, c1 in e1._coeffs.items():
        p1 = term_parity(t1, parities)
        for t2, c2 in e2._coeffs.items():
            p2 = term_parity(t2, parities)
            c = c1 * c2
            t = product(t1, t2)
            coeffs[t] = coeffs.get(t, Fraction(0)) + c
            t = product(t2, t1)
            sign = MINUS_ONE if p1 and p2 else ONE
            coeffs[t] = coeffs.get(t, Fraction(0)) - sign * c
    return FreeExpr(coeffs)


def associator_expr(e1, e2, e3):
    """Twisted associator (x*y)*a(z) - a(x)*(y*z)."""
    return (free_product(free_product(e1, e2), alpha_expr(e3, 1))
            - free_product(alpha_expr(e1, 1), free_product(e2, e3)))


def ly_ternary_expr(e1, e2, e3):
    """The ternary operation -(x*y)*a(z) carried by a left Leibniz product."""
    return -free_product(free_product(e1, e2), alpha_expr(e3, 1))


# --------------------------------------------------------------------------
# Template expansion

class _FreeEvaluator(idn.Evaluator):
    """The identity evaluator over formal expressions: a variable is bound
    to its own name and becomes that generator, parities come from the
    assignment, and the operation slots from `ops`."""

    basis_shortcuts = False

    def __init__(self, parities, ops):
        self.parities = parities
        self.ops = ops

    def leaf(self, bound):
        return FreeExpr.of(generator(bound))

    def zero(self):
        return FreeExpr.zero()

    def alpha(self, k):
        return lambda expr: alpha_expr(expr, k)

    def op(self, slot):
        op = self.ops[slot]
        if op is None:
            raise idn.MissingOpSlot("no %r operation bound" % slot)
        return op

    def parity(self, bound):
        return self.parities[bound]


def expand_template(node, parities, ops=None):
    """Interpret an identity AST over the free algebra.

    Variables become generators named after themselves; sign factors are
    evaluated to +-1 using `parities`; cyclic sums are expanded.  For an
    Identity the residual lhs - rhs is returned.  `ops` may rebind the
    operation slots; the defaults are the free product for "*", the graded
    commutator for "[,]" and no ternary operation.
    """
    bindings = {
        "*": free_product,
        "[,]": lambda a, b: commutator_expr(a, b, parities),
        "{,,}": None,
    }
    bindings.update(ops or {})
    env = {name: name for name in idn.free_variables(node)}
    for name in env:
        if name not in parities:
            raise ValueError("no parity assigned to generator %r" % name)
    return _FreeEvaluator(parities, bindings).eval(node, env)


# --------------------------------------------------------------------------
# Normalization

def alpha_distribute(expr):
    """Push every map application down to generator leaves."""
    coeffs = {}
    for t, c in expr._coeffs.items():
        t = distribute_term(t)
        coeffs[t] = coeffs.get(t, Fraction(0)) + c
    return FreeExpr(coeffs)


def _rewrite_once(term, parities):
    """One leftmost-outermost left-Leibniz step, or None if term is normal."""
    if term[0] == "g":
        return None
    left, right = term[1], term[2]
    if left[0] == "p" and min_leaf_power(right) >= 1:
        a, b = left[1], left[2]
        c = shift_leaves(right, -1)
        sign = (MINUS_ONE if term_parity(a, parities)
                and term_parity(b, parities) else ONE)
        return [(ONE, product(shift_leaves(a, 1), product(b, c))),
                (-sign, product(shift_leaves(b, 1), product(a, c)))]
    sub = _rewrite_once(left, parities)
    if sub is not None:
        return [(c, product(t, right)) for c, t in sub]
    sub = _rewrite_once(right, parities)
    if sub is not None:
        return [(c, product(left, t)) for c, t in sub]
    return None


def leibniz_normalize(expr, parities, step_budget=None):
    """Saturate the oriented left Leibniz rule on a distributed expression.

    step_budget caps the number of rule applications (RewriteLimit beyond
    it); the default cap is far above the sum of squared term sizes, which
    bounds every saturation seen in practice.
    """
    stack = [(t, c) for t, c in expr._coeffs.items()]
    for t, _ in stack:
        if not is_distributed(t):
            raise ValueError("expression must be alpha-distributed first")
    limit = _STEP_LIMIT if step_budget is None else step_budget
    out = {}
    steps = 0
    while stack:
        term, coeff = stack.pop()
        rewritten = _rewrite_once(term, parities)
        if rewritten is None:
            out[term] = out.get(term, Fraction(0)) + coeff
            continue
        steps += 1
        if steps > limit:
            raise RewriteLimit("rewrite step limit exceeded")
        for c, t in rewritten:
            stack.append((t, coeff * c))
    return FreeExpr(out)


def normal_form(expr, parities, assume_leibniz):
    expr = alpha_distribute(expr)
    if assume_leibniz:
        expr = leibniz_normalize(expr, parities)
    return expr


# --------------------------------------------------------------------------
# Proof targets

def _obligation(identity, ops_builder, assume_leibniz):
    return {"identity": identity, "ops": ops_builder,
            "leibniz": assume_leibniz}


def _ops_commutator(parities):
    return {}


def _ops_akivis(parities):
    return {"{,,}": associator_expr}


def _ops_ly(parities):
    # The binary operation of the derived binary-ternary structure is the
    # graded commutator; the ternary one is -(x*y)*a(z) over the source
    # product.
    return {"*": lambda a, b: commutator_expr(a, b, parities),
            "{,,}": ly_ternary_expr}


def _targets():
    reg = idn.REGISTRY
    return {
        "akivis-free": [_obligation(reg["AKIVIS"], _ops_akivis, False)],
        "eq12": [_obligation(reg["AKIVIS_LEIBNIZ_FORM"], _ops_commutator,
                             True)],
        "prop32-i": [_obligation(reg["PROP32_I"], _ops_commutator, True)],
        "prop32-ii": [_obligation(reg["PROP32_II"], _ops_commutator, True)],
        "ternary-equiv": [
            _obligation(idn.TERNARY_EQ_DEF, _ops_commutator, True),
            _obligation(idn.TERNARY_EQ_HALF, _ops_commutator, True),
        ],
        "shly5": [_obligation(reg["SHLY5"], _ops_ly, True)],
        "shly6": [_obligation(reg["SHLY6"], _ops_ly, True)],
        "shly7": [_obligation(reg["SHLY7"], _ops_ly, True)],
        "shly8": [_obligation(reg["SHLY8"], _ops_ly, True)],
    }


PROOF_TARGETS = tuple(_targets().keys())


def prove_identity_free(target):
    """Try to certify a target identity in the free setting, for every
    parity assignment of its generators.

    Returns a Report whose verdict is PROVED when every residual normalizes
    to the zero expression, INCONCLUSIVE otherwise (with the surviving
    normal-form terms).  The rewriting is sound but not complete, so
    INCONCLUSIVE is never a refutation.
    """
    targets = _targets()
    if target not in targets:
        raise KeyError("unknown proof target: %r" % target)
    survivors = []
    checked = 0
    for obligation in targets[target]:
        identity = obligation["identity"]
        names = idn.free_variables(identity)
        if len(names) > 6:
            raise ValueError("proof scope is limited to 6 generators")
        for combo in itertools.product((0, 1), repeat=len(names)):
            parities = dict(zip(names, combo))
            checked += 1
            expr = expand_template(identity, parities,
                                   obligation["ops"](parities))
            expr = normal_form(expr, parities, obligation["leibniz"])
            if not expr.is_zero():
                survivors.append({
                    "parities": {n: parities[n] for n in names},
                    "surviving": expr.rendered(),
                })
    verdict = "PROVED" if not survivors else "INCONCLUSIVE"
    return Report(target, not survivors, checked, survivors,
                  extra={"verdict": verdict})
