"""Symbolic engine over the free graded magma: identity templates are
expanded over formal generators with chosen parities, normalized by directed
rewriting, and certified when every residual cancels to the zero expression.
The expansion (`_free_value`) walks a law's monomials as the numeric
engines of `identities` walk them, with formal expressions as its values,
and sums them with the same helper (`identities._accumulate`).  Each proof
obligation names the structure whose operations fill the law's slots
(`_free_ops`); a derived operation is the template that
`identities.DERIVED` declares for it, evaluated on the formal values of its
arguments over the free product, so the prover and the constructions share
one definition of every operation.

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

A law is expanded once per sector (parity assignment of its generators),
and the residuals of all sectors are normalized in one pass: a sector
changes the Koszul signs, never which terms the rewriting visits.  A term
carries a column, one coefficient per sector; a generator's parity is a
bitmask over the sectors, and a term's parity the XOR of its leaves' masks.
A Leibniz step gives its second term the sign +1 in the sectors of
mask(A) & mask(B) and -1 in all others.  The step limit counts the rule
applications of one such call.  `normal_form` is the one entry to both
passes, and it refuses with ValueError what it would misread: a sector
list whose length differs from the expressions', a parity other than 0
or 1, and, when it saturates, a sector that lacks a generator.

The prover is sound but deliberately not complete: a certificate only ever
says PROVED (all residuals vanished) or INCONCLUSIVE (some normal form
survived, listed in the report).  A surviving term may still vanish as a
consequence of rule instances outside the chosen orientation, so refutation
is left to the exhaustive numeric checker.
"""

import itertools

from . import identities as idn
from .identities import (Alpha, Identity, Prod, Var, _accumulate,
                         _sign_table)
from .kernel import exact
from .report import Report

ONE = 1

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
    """The XOR of the leaves' parities: a term's parity, or its parity mask
    over sectors when `parities` maps generators to masks."""
    if term[0] == "g":
        return parities[term[1]]
    if term[0] == "a":
        return term_parity(term[2], parities)
    return term_parity(term[1], parities) ^ term_parity(term[2], parities)


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
    no zero coefficients, terms sorted by size then by rendering.  Each
    coefficient follows `kernel.exact`: an int when it is integral,
    otherwise a Fraction."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for term, c in (coeffs or {}).items():
            if c != 0:
                clean[term] = exact(c)
        self._coeffs = clean

    @classmethod
    def _trusted(cls, coeffs):
        """An expression over coeffs as given: nonzero coefficients that
        already follow `kernel.exact`."""
        expr = object.__new__(cls)
        expr._coeffs = coeffs
        return expr

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def of(cls, term, coeff=ONE):
        return cls({term: coeff})

    def items(self):
        return sorted(self._coeffs.items(), key=lambda kv: term_key(kv[0]))

    def terms(self):
        return [t for t, _ in self.items()]

    def is_zero(self):
        return not self._coeffs

    def __add__(self, other):
        if not other._coeffs:
            return self
        coeffs = dict(self._coeffs)
        for t, c in other._coeffs.items():
            if t in coeffs:
                c += coeffs[t]
                if not c:
                    del coeffs[t]
                    continue
                c = exact(c)
            coeffs[t] = c
        return FreeExpr._trusted(coeffs)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FreeExpr._trusted({t: -c for t, c in self._coeffs.items()})

    def scale(self, c):
        c = exact(c)
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
    # Distinct pairs of terms have distinct products, so nothing merges.
    return FreeExpr._trusted({product(t1, t2): exact(c1 * c2)
                              for t1, c1 in e1._coeffs.items()
                              for t2, c2 in e2._coeffs.items()})


def alpha_expr(e, k):
    if k == 0:
        return e
    # alpha_wrap is injective, so nothing merges.
    return FreeExpr._trusted({alpha_wrap(t, k): c
                              for t, c in e._coeffs.items()})


# --------------------------------------------------------------------------
# Template expansion

def _free_ops(structure, parities):
    """The operations over the free algebra that fill the slots of a
    structure, a key of `identities.DERIVED`: "*" is the free product, and
    each slot the structure declares evaluates its template on the argument
    values over the free algebra's own ops, so a structure may also
    replace "*"."""
    ops = {"*": free_product}
    source = ops if structure is None else _free_ops(None, parities)
    for slot, template in idn.DERIVED[structure].items():
        ops[slot] = _template_op(template, source, parities)
    return ops


def _template_op(template, ops, parities):
    """The operation a template defines over ops: its value with one
    argument per variable, in order of first occurrence."""
    names = template.variables
    return lambda *args: _free_value(template, dict(zip(names, args)), ops,
                                     parities)


def _free_value(node, env, ops, parities):
    """The value of a law (its residual lhs - rhs) or of a shape over the
    free algebra.  env binds each variable to its value, an expression;
    ops fills the slots (`_free_ops`), and a slot it lacks raises
    MissingOpSlot.  The monomials are summed by `identities._accumulate`,
    each with its Koszul sign, for which a variable's parity is that of the
    first term of its value under parities: the values of a multilinear law
    are homogeneous, all their terms hold the same generators, and every
    operation is even."""
    kind = type(node)
    if kind is Var:
        return env[node.name]
    if kind is Alpha:
        return alpha_expr(_free_value(node.sub, env, ops, parities),
                          node.power)
    if kind is Identity:
        total = None
        for coeff, factors, shape in node.monomials:
            if factors:
                names, signs = _sign_table(factors)
                coeff *= signs[tuple(_parity(env[name], parities)
                                     for name in names)]
            total = _accumulate(total, coeff,
                                _free_value(shape, env, ops, parities))
        return FreeExpr.zero() if total is None else total
    op = ops.get(node.slot)
    if op is None:
        raise idn.MissingOpSlot("no %r operation bound" % node.slot)
    if kind is Prod:
        return op(_free_value(node.left, env, ops, parities),
                  _free_value(node.right, env, ops, parities))
    return op(_free_value(node.a, env, ops, parities),
              _free_value(node.b, env, ops, parities),
              _free_value(node.c, env, ops, parities))


def _parity(expr, parities):
    """The parity of an expression's terms under parities, 0 for zero."""
    for term in expr._coeffs:
        return term_parity(term, parities)
    return 0


def expand_template(identity, parities, structure=None):
    """The residual lhs - rhs of a multilinear law over the free algebra,
    each variable bound to the generator named after it; any other law
    raises NonMultilinearLaw.  Sign factors are evaluated with `parities`
    and cyclic sums expanded.  `structure`, a key of `identities.DERIVED`,
    fills its slots with its templates over the free product; "*" is the
    free product unless the structure fills it; any other structure raises
    ValueError.
    """
    if structure not in idn.DERIVED:
        raise ValueError("unknown structure %r; known: %s" % (
            structure, ", ".join(map(repr, idn.DERIVED))))
    if not identity.multilinear:
        raise idn.NonMultilinearLaw("not multilinear: %s"
                                    % idn.pretty(identity))
    env = {}
    for name in identity.variables:
        if name not in parities:
            raise ValueError("no parity assigned to generator %r" % name)
        env[name] = FreeExpr.of(generator(name))
    _require_parities(parities)
    return _free_value(identity, env, _free_ops(structure, parities),
                       parities)


def _require_parities(parities):
    """Refuse, with ValueError, a parity other than 0 or 1."""
    for name, parity in parities.items():
        if parity not in (0, 1):
            raise ValueError("generator %r has parity %r, not 0 or 1"
                             % (name, parity))


# --------------------------------------------------------------------------
# Normalization

def _columns(exprs):
    """The alpha-distributed terms of exprs, each with its column: its
    coefficient in every expression.  All-zero columns are dropped."""
    columns = {}
    for s, expr in enumerate(exprs):
        for t, c in expr._coeffs.items():
            t = distribute_term(t)
            column = columns.get(t)
            if column is None:
                column = columns[t] = [0] * len(exprs)
            column[s] += c
    return {t: column for t, column in columns.items() if any(column)}


def _split(columns, size):
    """One expression per sector, read off the columns."""
    return [FreeExpr({t: column[s] for t, column in columns.items()})
            for s in range(size)]


def _rewrite_once(term, masks):
    """One leftmost-outermost left-Leibniz step, or None if term is normal.
    The step rewrites term to first - (-1)^{|A||B|} second; it returns
    (first, second, plus), where plus masks the sectors in which |A||B| is
    odd, that is, in which second enters with sign +1."""
    if term[0] == "g":
        return None
    left, right = term[1], term[2]
    if left[0] == "p" and min_leaf_power(right) >= 1:
        a, b = left[1], left[2]
        c = shift_leaves(right, -1)
        return (product(shift_leaves(a, 1), product(b, c)),
                product(shift_leaves(b, 1), product(a, c)),
                term_parity(a, masks) & term_parity(b, masks))
    sub = _rewrite_once(left, masks)
    if sub is not None:
        return product(sub[0], right), product(sub[1], right), sub[2]
    sub = _rewrite_once(right, masks)
    if sub is not None:
        return product(left, sub[0]), product(left, sub[1]), sub[2]
    return None


def _saturate(columns, sectors):
    """Saturate the oriented left Leibniz rule on distributed columns, one
    entry per sector (a parity assignment in `sectors`).  The module
    constant _STEP_LIMIT caps the rule applications of the call
    (RewriteLimit beyond it)."""
    masks = {name: sum(1 << s for s, parities in enumerate(sectors)
                       if parities[name]) for name in set().union(*sectors)}
    stack = list(columns.items())
    out = {}
    steps = 0
    while stack:
        term, column = stack.pop()
        rewritten = _rewrite_once(term, masks)
        if rewritten is None:
            old = out.get(term)
            out[term] = column if old is None else [
                a + b for a, b in zip(old, column)]
            continue
        steps += 1
        if steps > _STEP_LIMIT:
            raise RewriteLimit("rewrite step limit exceeded")
        first, second, plus = rewritten
        stack.append((first, column))
        stack.append((second, [c if plus >> s & 1 else -c
                               for s, c in enumerate(column)]))
    return out


def normal_form(exprs, sectors, assume_leibniz):
    """The normal forms of exprs[s] under the parities sectors[s], rewritten
    in one pass: the map distributed, then, if assume_leibniz, the left
    Leibniz rule saturated; with assume_leibniz false, distribution alone.
    Raises ValueError for a sector count other than len(exprs), for a
    parity other than 0 or 1, and, if assume_leibniz, for a sector that
    assigns no parity to a generator that a term or another sector names.
    _STEP_LIMIT caps the rule applications of the call (RewriteLimit beyond
    it); it is far above the sum of squared term sizes, which bounds every
    saturation seen in practice.
    """
    if len(sectors) != len(exprs):
        raise ValueError("%d expressions but %d sectors"
                         % (len(exprs), len(sectors)))
    for parities in sectors:
        _require_parities(parities)
    columns = _columns(exprs)
    if assume_leibniz:
        names = set().union(*sectors, *map(_generators, columns))
        for parities in sectors:
            missing = names.difference(parities)
            if missing:
                raise ValueError("no parity assigned to generator %r"
                                 % min(missing))
        columns = _saturate(columns, sectors)
    return _split(columns, len(exprs))


def _generators(term):
    """The names of a distributed term's leaves."""
    if term[0] == "g":
        return {term[1]}
    return _generators(term[1]) | _generators(term[2])


# --------------------------------------------------------------------------
# Proof targets

# Each target's obligations: a law, the structure whose operations fill its
# slots (see expand_template), and whether the left Leibniz rule may be
# assumed.
TARGETS = {
    "akivis-free": [(idn.REGISTRY["AKIVIS"], "akivis", False)],
    "eq12": [(idn.REGISTRY["AKIVIS_LEIBNIZ_FORM"], None, True)],
    "prop32-i": [(idn.REGISTRY["PROP32_I"], None, True)],
    "prop32-ii": [(idn.REGISTRY["PROP32_II"], None, True)],
    "ternary-equiv": [(idn.TERNARY_EQ_DEF, None, True),
                      (idn.TERNARY_EQ_HALF, None, True)],
    "shly5": [(idn.REGISTRY["SHLY5"], "ly", True)],
    "shly6": [(idn.REGISTRY["SHLY6"], "ly", True)],
    "shly7": [(idn.REGISTRY["SHLY7"], "ly", True)],
    "shly8": [(idn.REGISTRY["SHLY8"], "ly", True)],
}

PROOF_TARGETS = tuple(TARGETS)


def prove_identity_free(target):
    """Try to certify a target identity in the free setting, for every
    parity assignment of its generators.

    Returns a Report whose verdict is PROVED when every residual normalizes
    to the zero expression, INCONCLUSIVE otherwise (with the surviving
    normal-form terms).  The rewriting is sound but not complete, so
    INCONCLUSIVE is never a refutation.
    """
    if target not in TARGETS:
        raise KeyError("unknown proof target: %r" % target)
    survivors = []
    checked = 0
    for identity, structure, assume_leibniz in TARGETS[target]:
        names = identity.variables
        if len(names) > 6:
            raise ValueError("proof scope is limited to 6 generators")
        sectors = [dict(zip(names, combo))
                   for combo in itertools.product((0, 1), repeat=len(names))]
        exprs = [expand_template(identity, parities, structure)
                 for parities in sectors]
        checked += len(sectors)
        for parities, expr in zip(sectors, normal_form(exprs, sectors,
                                                       assume_leibniz)):
            if not expr.is_zero():
                survivors.append({
                    "parities": {n: parities[n] for n in names},
                    "surviving": expr.rendered(),
                })
    verdict = "PROVED" if not survivors else "INCONCLUSIVE"
    return Report(target, not survivors, checked, survivors,
                  extra={"verdict": verdict})
