"""A small language for graded multilinear laws, with a parser, a canonical
printer and an exhaustive checker over homogeneous basis tuples.

Grammar (one identity per string; "LHS = RHS", or a bare expression asserted
to vanish):

    identity  := expr ("=" expr)?
    expr      := ("+"|"-")? term (("+"|"-") term)*
    term      := coeff? signfactor* product
    coeff     := NUMBER                      # nonzero rational, e.g. 2, 1/2
    signfactor:= "s(" parity "," parity ")"  # (-1)^{parity * parity}
    parity    := IDENT | "(" IDENT ("+" IDENT)* ")"
    product   := primary ("*" primary)?      # a single star; parenthesize more
    primary   := "0" | IDENT
               | "a(" expr ")" | "a2(" expr ")" | "a3(" expr ")" | ...
               | "(" expr ")"
               | "[" expr "," expr "]"
               | "{" expr "," expr "," expr "}"
               | "cyc[" IDENT "," IDENT "," IDENT ";" signspec "](" expr ")"
    signspec  := "1" | signfactor+

Identifiers name universally quantified homogeneous variables; their parities
are never declared, they are induced by the basis elements bound to them.
"a" applies the twisting map once, "a2" twice, and so on; "aN" and "s" are
reserved and cannot be variables.  "*", "[x,y]" and "{x,y,z}" are operation
slots resolved against the algebra under test ("[,]" is the derived graded
commutator on a plain algebra and the binary operation itself on a
binary-ternary algebra).  "cyc[x,y,z; SIGN](body)" is the cyclic sum: the
three variables are rotated through the body *and* through the leading sign,
which is evaluated with the substituted parities.

Checking an identity iterates over all homogeneous basis tuples.  Because
every law here is multilinear once the parities of its arguments are fixed,
a pass over basis tuples decides the law for all homogeneous elements.

`Evaluator` is the one interpreter of the language.  Over an algebra it
gives the residual vectors of the checker and the structure constants of the
derived operations in `constructions`, which are templates in this language;
the free expansion of the prover in `freealg` is a subclass of it over
formal expressions.  Structural questions about an AST (its variables,
whether it needs "{,,}") are answered from `walk`, which visits every node.
"""

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .report import Report


class ParseError(ValueError):
    """Syntax error with a position into the source text."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class MissingOpSlot(LookupError):
    pass


class UnboundVariable(LookupError):
    pass


class UnknownSuite(KeyError):
    def __str__(self):
        return "unknown suite or law: %s" % self.args[0]


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Alpha:
    power: int
    sub: object

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("alpha power must be >= 1")


@dataclass(frozen=True)
class Prod:
    slot: str  # "*" or "[,]"
    left: object
    right: object


@dataclass(frozen=True)
class Ternary:
    a: object
    b: object
    c: object


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    sub: object


@dataclass(frozen=True)
class Sign:
    # ((P, Q), ...): each factor contributes (-1)^{|P| |Q|} where |P| is the
    # sum of the parities of the named variables.
    factors: tuple
    sub: object


@dataclass(frozen=True)
class Sum:
    items: tuple


@dataclass(frozen=True)
class Cyc:
    vars: tuple    # three distinct variable names
    factors: tuple # leading sign factors; empty tuple means "1"
    body: object


@dataclass(frozen=True)
class Identity:
    lhs: object
    rhs: object

    @functools.cached_property
    def variables(self):
        """free_variables of the law, walked once; not a field, so it
        takes no part in == or hash."""
        return tuple(free_variables(self))


def walk(node):
    """Every node of an AST, each parent before its children, children left
    to right."""
    yield node
    if isinstance(node, (Var, Zero)):
        return
    if isinstance(node, (Alpha, Scale, Sign)):
        children = (node.sub,)
    elif isinstance(node, Prod):
        children = (node.left, node.right)
    elif isinstance(node, Ternary):
        children = (node.a, node.b, node.c)
    elif isinstance(node, Sum):
        children = node.items
    elif isinstance(node, Cyc):
        children = (node.body,)
    elif isinstance(node, Identity):
        children = (node.lhs, node.rhs)
    else:
        raise TypeError("not an identity node: %r" % (node,))
    for child in children:
        yield from walk(child)


def free_variables(node):
    """Variable names in first-occurrence order, including the names used
    only inside sign factors or as cyclic-sum variables."""
    seen = {}
    for n in walk(node):
        if isinstance(n, Var):
            names = (n.name,)
        elif isinstance(n, Sign):
            names = _factor_names(n.factors)
        elif isinstance(n, Cyc):
            names = n.vars + _factor_names(n.factors)
        else:
            continue
        for name in names:
            seen.setdefault(name)
    return list(seen)


def _factor_names(factors):
    return tuple(name for p, q in factors for name in p + q)


# --------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)"
                    r"|([()\[\]{},;=+\-*]))")
_ALPHA_NAME = re.compile(r"a([0-9]*)$")

RESERVED = ("s", "cyc")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos], pos)
        number, ident, sym = m.groups()
        start = m.start(1) if number else m.start(2) if ident else m.start(3)
        if number:
            tokens.append(("num", number, start))
        elif ident:
            tokens.append(("ident", ident, start))
        else:
            tokens.append(("sym", sym, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset=0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "end":
            self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError("expected %s" % (value or kind), tok[2])
        return tok

    def at_sym(self, value):
        tok = self.peek()
        return tok[0] == "sym" and tok[1] == value

    # identity := expr ("=" expr)?
    def identity(self):
        lhs = self.expr()
        if self.at_sym("="):
            self.next()
            rhs = self.expr()
        else:
            rhs = Zero()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return Identity(lhs, rhs)

    def expr(self):
        negate = False
        if self.at_sym("+"):
            self.next()
        elif self.at_sym("-"):
            self.next()
            negate = True
        items = [self.term(negate)]
        while self.at_sym("+") or self.at_sym("-"):
            neg = self.next()[1] == "-"
            items.append(self.term(neg))
        if len(items) == 1:
            return items[0]
        return Sum(tuple(items))

    def term(self, negate):
        coeff = Fraction(-1) if negate else Fraction(1)
        explicit = False
        tok = self.peek()
        if tok[0] == "num" and not self._number_is_zero_element():
            self.next()
            try:
                value = Fraction(tok[1])
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok[2]) from None
            if value == 0:
                raise ParseError("zero coefficient", tok[2])
            coeff *= value
            explicit = True
        factors = []
        while self._at_sign_factor():
            factors.append(self.sign_factor())
        if (explicit or factors) and self.peek()[0] == "end":
            raise ParseError("expected an element", self.peek()[2])
        node = self.product()
        if factors:
            node = Sign(tuple(factors), node)
        if coeff != 1:
            node = Scale(coeff, node)
        return node

    def _number_is_zero_element(self):
        # A bare "0" (not followed by anything that starts a primary) is the
        # zero element, not a coefficient.
        tok = self.peek()
        if tok[0] != "num" or tok[1] != "0":
            return False
        nxt = self.peek(1)
        if nxt[0] in ("ident", "num"):
            return False
        return not (nxt[0] == "sym" and nxt[1] in "([{")

    def _at_sign_factor(self):
        tok = self.peek()
        nxt = self.peek(1)
        return (tok[0] == "ident" and tok[1] == "s"
                and nxt[0] == "sym" and nxt[1] == "(")

    def sign_factor(self):
        self.expect("ident", "s")
        self.expect("sym", "(")
        p = self.parity_group()
        self.expect("sym", ",")
        q = self.parity_group()
        self.expect("sym", ")")
        return (p, q)

    def parity_group(self):
        if self.at_sym("("):
            self.next()
            names = [self.variable_name()]
            while self.at_sym("+"):
                self.next()
                names.append(self.variable_name())
            self.expect("sym", ")")
            return tuple(names)
        return (self.variable_name(),)

    def variable_name(self):
        tok = self.next()
        if tok[0] != "ident":
            raise ParseError("expected a variable name", tok[2])
        if tok[1] in RESERVED or _ALPHA_NAME.match(tok[1]):
            raise ParseError("reserved identifier %r" % tok[1], tok[2])
        return tok[1]

    def product(self):
        left = self.primary()
        if self.at_sym("*"):
            self.next()
            right = self.primary()
            if self.at_sym("*"):
                raise ParseError("chained product is ambiguous; parenthesize",
                                 self.peek()[2])
            return Prod("*", left, right)
        return left

    def primary(self):
        tok = self.peek()
        if tok[0] == "num":
            if tok[1] != "0":
                raise ParseError("a bare number is not an element", tok[2])
            self.next()
            return Zero()
        if tok[0] == "sym" and tok[1] == "(":
            self.next()
            node = self.expr()
            self.expect("sym", ")")
            return node
        if tok[0] == "sym" and tok[1] == "[":
            self.next()
            left = self.expr()
            self.expect("sym", ",")
            right = self.expr()
            self.expect("sym", "]")
            return Prod("[,]", left, right)
        if tok[0] == "sym" and tok[1] == "{":
            self.next()
            a = self.expr()
            self.expect("sym", ",")
            b = self.expr()
            self.expect("sym", ",")
            c = self.expr()
            self.expect("sym", "}")
            return Ternary(a, b, c)
        if tok[0] == "ident":
            if tok[1] == "cyc":
                return self.cyclic_sum()
            m = _ALPHA_NAME.match(tok[1])
            if m and self.peek(1)[0] == "sym" and self.peek(1)[1] == "(":
                self.next()
                k = int(m.group(1) or "1")
                if k < 1:
                    raise ParseError("alpha power must be >= 1", tok[2])
                self.expect("sym", "(")
                sub = self.expr()
                self.expect("sym", ")")
                return Alpha(k, sub)
            return Var(self.variable_name())
        raise ParseError("expected an element", tok[2])

    def cyclic_sum(self):
        self.expect("ident", "cyc")
        self.expect("sym", "[")
        names = [self.variable_name()]
        self.expect("sym", ",")
        names.append(self.variable_name())
        self.expect("sym", ",")
        names.append(self.variable_name())
        if len(set(names)) != 3:
            raise ParseError("cyclic variables must be distinct", self.peek()[2])
        self.expect("sym", ";")
        factors = []
        tok = self.peek()
        if tok[0] == "num" and tok[1] == "1":
            self.next()
        else:
            while self._at_sign_factor():
                factors.append(self.sign_factor())
            if not factors:
                raise ParseError("expected a leading sign or 1", tok[2])
        self.expect("sym", "]")
        self.expect("sym", "(")
        body = self.expr()
        self.expect("sym", ")")
        return Cyc(tuple(names), tuple(factors), body)


def parse_identity(text):
    """Parse one identity; a missing right-hand side defaults to 0."""
    return _Parser(text).identity()


def parse_identity_file(path):
    """Parse a UTF-8 file holding one identity."""
    with open(path, encoding="utf-8") as handle:
        return parse_identity(handle.read())


# --------------------------------------------------------------------------
# Printer (parse . pretty == identity on ASTs)

def pretty(node):
    if isinstance(node, Identity):
        return "%s = %s" % (pretty(node.lhs), pretty(node.rhs))
    terms = node.items if isinstance(node, Sum) else (node,)
    parts = []
    for idx, term in enumerate(terms):
        negative, body = _term_text(term)
        if idx == 0:
            parts.append("- " + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def _term_text(term):
    coeff = Fraction(1)
    if isinstance(term, Scale):
        coeff = term.coeff
        term = term.sub
    factors = ()
    if isinstance(term, Sign):
        factors = term.factors
        term = term.sub
    pieces = []
    if abs(coeff) != 1:
        pieces.append(str(abs(coeff)))
    pieces.extend(_sign_text(f) for f in factors)
    pieces.append(_atom_text(term))
    return coeff < 0, " ".join(pieces)


def _sign_text(factor):
    p, q = factor
    return "s(%s,%s)" % (_parity_text(p), _parity_text(q))


def _parity_text(names):
    if len(names) == 1:
        return names[0]
    return "(" + "+".join(names) + ")"


def _atom_text(node):
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Zero):
        return "0"
    if isinstance(node, Alpha):
        head = "a" if node.power == 1 else "a%d" % node.power
        return "%s(%s)" % (head, pretty(node.sub))
    if isinstance(node, Prod):
        if node.slot == "[,]":
            return "[%s, %s]" % (pretty(node.left), pretty(node.right))
        return "%s*%s" % (_star_arg(node.left), _star_arg(node.right))
    if isinstance(node, Ternary):
        return "{%s, %s, %s}" % (pretty(node.a), pretty(node.b),
                                 pretty(node.c))
    if isinstance(node, Cyc):
        sign = " ".join(_sign_text(f) for f in node.factors) or "1"
        return "cyc[%s; %s](%s)" % (",".join(node.vars), sign,
                                    pretty(node.body))
    # Sum, Scale or Sign in an atom position needs grouping parentheses.
    return "(%s)" % pretty(node)


def _star_arg(node):
    if isinstance(node, (Var, Zero, Alpha, Ternary, Cyc)):
        return _atom_text(node)
    if isinstance(node, Prod) and node.slot == "[,]":
        return _atom_text(node)
    return "(%s)" % pretty(node)


# --------------------------------------------------------------------------
# Evaluation

class Evaluator:
    """The interpreter of identity ASTs.

    `eval` walks a node once and takes every value from a few hooks: `leaf`
    (the value of a bound variable), `zero`, `alpha(k)`, `op(slot)` and
    `parity` (of a bound variable).  This class evaluates over an algebra,
    with variables bound to basis indices; the free expansion in `freealg`
    is a subclass over formal expressions.

    A product of two bare variables, and the map on a bare variable, are
    read off the structure constants instead of being computed from basis
    vectors.

    With sign_free=True every parity reads as 0, so every Koszul factor is
    +1; this is the ungraded reading of the same law, used to cross-check
    the purely even case against the graded machinery.
    """

    basis_shortcuts = True

    def __init__(self, algebra, sign_free=False):
        self.algebra = algebra
        self.space = algebra.space
        self.sign_free = sign_free
        self.basis = [self.space.basis_vector(i)
                      for i in range(self.space.dim)]
        self._alpha_powers = {}

    def leaf(self, bound):
        return self.basis[bound]

    def zero(self):
        return self.space.zero_vector()

    def alpha(self, k):
        maps = self._alpha_powers
        if k not in maps:
            maps[k] = self.algebra.alpha.power(k)
        return maps[k]

    def op(self, slot):
        op = self.algebra.op_for_slot(slot)
        if op is None:
            raise MissingOpSlot("algebra has no %r operation" % slot)
        return op

    def parity(self, bound):
        return 0 if self.sign_free else self.space.parity(bound)

    def eval(self, node, env):
        """The value of a node under env, which maps variable names to
        bound values; for an Identity, the residual lhs - rhs."""
        if isinstance(node, Var):
            return self.leaf(_bound(node.name, env))
        if isinstance(node, Zero):
            return self.zero()
        if isinstance(node, Alpha):
            alpha = self.alpha(node.power)
            if self.basis_shortcuts and isinstance(node.sub, Var):
                return alpha.on_basis(_bound(node.sub.name, env))
            return alpha(self.eval(node.sub, env))
        if isinstance(node, Prod):
            op = self.op(node.slot)
            left, right = node.left, node.right
            if (self.basis_shortcuts and isinstance(left, Var)
                    and isinstance(right, Var)):
                return op.on_basis(_bound(left.name, env),
                                   _bound(right.name, env))
            return op(self.eval(left, env), self.eval(right, env))
        if isinstance(node, Ternary):
            op = self.op("{,,}")
            return op(self.eval(node.a, env), self.eval(node.b, env),
                      self.eval(node.c, env))
        if isinstance(node, Scale):
            return self.eval(node.sub, env).scale(node.coeff)
        if isinstance(node, Sign):
            value = self.eval(node.sub, env)
            if self.koszul_sign(node.factors, env) < 0:
                value = -value
            return value
        if isinstance(node, Sum):
            total = self.zero()
            for item in node.items:
                total = total + self.eval(item, env)
            return total
        if isinstance(node, Cyc):
            total = self.zero()
            for rotated in _rotations(env, node.vars):
                value = self.eval(node.body, rotated)
                if node.factors and \
                        self.koszul_sign(node.factors, rotated) < 0:
                    value = -value
                total = total + value
            return total
        if isinstance(node, Identity):
            return self.eval(node.lhs, env) - self.eval(node.rhs, env)
        raise TypeError("not an identity node: %r" % (node,))

    def koszul_sign(self, factors, env):
        """The product of (-1)^{|P| |Q|} over the factors; both sides of
        every factor are evaluated, so an unbound name always raises."""
        sign = 1
        for p, q in factors:
            pp = self._parity_sum(p, env)
            qq = self._parity_sum(q, env)
            if pp and qq:
                sign = -sign
        return sign

    def _parity_sum(self, names, env):
        return sum(self.parity(_bound(name, env)) for name in names) % 2


def _bound(name, env):
    try:
        return env[name]
    except KeyError:
        raise UnboundVariable(name) from None


def _rotations(env, names):
    """The three environments of a cyclic sum: the body is evaluated as
    written, then with (x,y,z) replaced by (y,z,x), then by (z,x,y)."""
    x, y, z = names
    yield env
    first = dict(env)
    first[x], first[y], first[z] = env[y], env[z], env[x]
    yield first
    second = dict(env)
    second[x], second[y], second[z] = env[z], env[x], env[y]
    yield second


def eval_identity_on_tuple(identity, algebra, binding, sign_free=False):
    """Residual lhs - rhs of an identity at one basis-element binding.

    binding maps variable names to 0-based basis indices.
    """
    return Evaluator(algebra, sign_free).eval(identity, binding)


def check_identity(identity, algebra, name="identity", sign_free=False,
                   first_only=False):
    """Exhaustively check an identity over all homogeneous basis tuples.

    For k variables over an n-dimensional space this examines n^k bindings;
    by multilinearity per parity sector this decides the law for all
    homogeneous elements.  With first_only=True the scan stops at the first
    counterexample (used by the search, where only the verdict matters).
    """
    evaluator = Evaluator(algebra, sign_free)
    variables = identity.variables
    n = algebra.space.dim
    labels = algebra.space.labels
    checked = 0
    bad = []
    for combo in itertools.product(range(n), repeat=len(variables)):
        env = dict(zip(variables, combo))
        checked += 1
        residual = evaluator.eval(identity, env)
        if not residual.is_zero():
            bad.append({"tuple": [labels[i] for i in combo],
                        "residual": dict(residual.nonzero_items())})
            if first_only:
                break
    return Report(name, not bad, checked, bad)


# --------------------------------------------------------------------------
# Builtin registry

_REGISTRY_TEXT = {
    # Left Leibniz rule for the twisted product.
    "LLSI": "a(x)*(y*z) = (x*y)*a(z) + s(x,y) a(y)*(x*z)",
    # Right-sided Leibniz rule; the opposite product of an LLSI algebra
    # satisfies it.
    "RLSI": "(x*y)*a(z) = a(x)*(y*z) + s(y,z) (x*z)*a(y)",
    # LLSI rewritten as a constraint on the twisted associator.
    "ASSOC_FORM": "(x*y)*a(z) - a(x)*(y*z) = - s(x,y) a(y)*(x*z)",
    # Graded skew-symmetry of the product.
    "SKEW_SUPER": "x*y = - s(x,y) y*x",
    # Graded twisted Jacobi identity.
    "HOM_SUPER_JACOBI": "(x*y)*a(z) + s(x,(y+z)) (y*z)*a(x)"
                        " + s(z,(x+y)) (z*x)*a(y) = 0",
    # The binary-ternary compatibility law tying the bracket Jacobian to the
    # signed cyclic combinations of the ternary operation.
    "AKIVIS": "cyc[x,y,z; s(x,z)]([[x, y], a(z)])"
              " = cyc[x,y,z; s(x,z)]({x, y, z})"
              " - cyc[x,y,z; s(x,(y+z))]({y, x, z})",
    # Specialization of AKIVIS when the product is left Leibniz: the bracket
    # Jacobian collapses to a signed cyclic sum over the product itself.
    "AKIVIS_LEIBNIZ_FORM": "cyc[x,y,z; s(x,z)]([[x, y], a(z)])"
                           " = cyc[x,y,z; s(x,z)]((x*y)*a(z))",
    # Symmetrized products act as zero on the left of alpha-translations.
    "PROP32_I": "(x*y)*a(z) + s(x,y) (y*x)*a(z) = 0",
    # Twisted derivation property of left translations over the bracket.
    "PROP32_II": "a(x)*[y, z] = [x*y, a(z)] + s(x,y) [a(y), x*z]",
    # Vanishing of the signed cyclic product sum; equivalent to the bracket
    # satisfying HOM_SUPER_JACOBI when the product is left Leibniz.
    "LIE_ADMISSIBLE": "cyc[x,y,z; s(x,z)]((x*y)*a(z)) = 0",
    # The eight binary-ternary axioms.
    "SHLY1": "a(x*y) = a(x)*a(y)",
    "SHLY2": "a({x, y, z}) = {a(x), a(y), a(z)}",
    "SHLY3": "x*y = - s(x,y) y*x",
    "SHLY4": "{x, y, z} = - s(x,y) {y, x, z}",
    "SHLY5": "cyc[x,y,z; s(x,z)]((x*y)*a(z) + {x, y, z}) = 0",
    "SHLY6": "cyc[x,y,z; s(x,z)]({x*y, a(z), a(u)}) = 0",
    "SHLY7": "{a(x), a(y), u*v} = {x, y, u}*a2(v)"
             " + s(u,(x+y)) a2(u)*{x, y, v}",
    "SHLY8": "{a2(x), a2(y), {u, v, w}} = {{x, y, u}, a2(v), a2(w)}"
             " + s(u,(x+y)) {a2(u), {x, y, v}, a2(w)}"
             " + s((u+v),(x+y)) {a2(u), a2(v), {x, y, w}}",
}

REGISTRY = {name: parse_identity(text)
            for name, text in _REGISTRY_TEXT.items()}

# The registry laws that need the "{,,}" slot.
TERNARY_LAWS = frozenset(name for name, law in REGISTRY.items()
                         if any(isinstance(n, Ternary) for n in walk(law)))

# The three readings of the Lie-Yamaguti ternary of a left Leibniz product,
#     (-1)^{|x||y|} as(y,x,z) - as(x,y,z) = -(x*y)*a(z) = -1/2 [x,y]*a(z)
# with as(x,y,z) = (x*y)*a(z) - a(x)*(y*z), as two residuals: the first
# reading minus the second, and the second minus the third.  They hold on
# left Leibniz products only, so they belong to no suite.
TERNARY_EQ_DEF = parse_identity(
    "s(x,y) ((y*x)*a(z) - a(y)*(x*z)) - ((x*y)*a(z) - a(x)*(y*z))"
    " + (x*y)*a(z)")
TERNARY_EQ_HALF = parse_identity("- (x*y)*a(z) + 1/2 [x, y]*a(z)")


def registry_text():
    """The raw source strings of the builtin identities."""
    return _REGISTRY_TEXT.copy()


SUITES = {
    "leibniz": ("grading", "multiplicativity", "LLSI"),
    "lie": ("grading", "multiplicativity", "SKEW_SUPER", "HOM_SUPER_JACOBI"),
    "akivis": ("grading", "multiplicativity", "SKEW_SUPER", "AKIVIS"),
    "ly": ("grading", "SHLY1", "SHLY2", "SHLY3", "SHLY4", "SHLY5", "SHLY6",
           "SHLY7", "SHLY8"),
}


def _expand_suite(names, algebra):
    if isinstance(names, str):
        names = [names]
    checks = []
    for name in names:
        if name in SUITES:
            checks.extend(_expand_suite(SUITES[name], algebra))
        elif name == "all":
            checks.extend(["grading", "multiplicativity"])
            ternary = algebra.op_for_slot("{,,}") is not None
            checks.extend(key for key in REGISTRY
                          if ternary or key not in TERNARY_LAWS)
        elif name in ("grading", "multiplicativity") or name in REGISTRY:
            checks.append(name)
        else:
            raise UnknownSuite(name)
    deduped = []
    for c in checks:
        if c not in deduped:
            deduped.append(c)
    return deduped


def resolve_suite(names, algebra):
    """The checks that `names` expands to on `algebra`, in order.  Raises
    UnknownSuite for a name that is neither a suite nor a check, and
    MissingOpSlot for a law needing an operation the algebra lacks."""
    checks = _expand_suite(names, algebra)
    if algebra.op_for_slot("{,,}") is None:
        for check in checks:
            if check in TERNARY_LAWS:
                raise MissingOpSlot("algebra has no %r operation" % "{,,}")
    return checks


def check_suite(names, algebra, sign_free=False, first_only=False):
    """Run the named checks (suite names, registry names, or "grading" /
    "multiplicativity") and return their reports in deterministic order."""
    reports = []
    for check in _expand_suite(names, algebra):
        if check == "grading":
            reports.append(kernel.check_algebra_grading(algebra))
        elif check == "multiplicativity":
            reports.append(kernel.check_multiplicativity(algebra))
        else:
            reports.append(check_identity(REGISTRY[check], algebra,
                                          name=check, sign_free=sign_free,
                                          first_only=first_only))
    return reports


def suite_passes(names, algebra):
    """True iff every check of the suite passes; stops at the first check
    that fails, and each law at its first counterexample."""
    return all(check_suite([check], algebra, first_only=True)[0].passed
               for check in _expand_suite(names, algebra))
