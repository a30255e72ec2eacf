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

Checking an identity iterates over all homogeneous basis tuples.  That
decides the law for all homogeneous elements only when the law is
multilinear once the parities of its arguments are fixed: every monomial of
its expansion (sums and cyclic sums multiplied out) has degree exactly 1 in
every variable.  `check_identity` refuses any other law with
NonMultilinearLaw; `Identity.multilinear` holds the verdict.

`residuals` evaluates a law on every basis tuple at once: `_TensorEvaluator`
walks it once over sparse tensors keyed by (binding, output coordinate),
contracting with the nonzero structure constants only, so a zero or sparse
operation costs little, and the nonzero keys are the failing tuples, in
lexicographic order.  `residual_report` turns them into a `Report`.

Every law `constructions` uses is read from the tensor: the derived
operations (templates declared once in `DERIVED`), the ternary-equivalence
reports, and every law a construction checks, through its own suite runner
and `residual_report`.  `check_identity`, which serves `verify`,
`construct`'s checks of its output and `search`, reports from the same
tensor on the laws with a "{,,}" slot or a zero operation.  The other laws,
binary laws on nonzero operations, it evaluates tuple by tuple
(`_tuple_residuals`): a search decides its candidates with them and stops
at the first failing tuple, which is cheaper there than the whole tensor.
Its full scans of these laws wait for the benchmark to keep one
fingerprint per input (ROADMAP item 1) before they move to the tensor.

`Evaluator` is the one interpreter of the language: the per-tuple scan
evaluates over the algebra, the tensor evaluator and the prover's free
expansion in `freealg` are subclasses of it with other values.
Structural questions about an AST (its variables, whether it needs "{,,}")
are answered from `walk`, which visits every node.
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


class NonMultilinearLaw(ValueError):
    """A law that basis tuples do not decide: some monomial of its expansion
    lacks a variable of the law or repeats one."""


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

    slot = "{,,}"  # a class constant, not a field


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

    # The cached properties below are computed once per law; they are not
    # fields, so they take no part in == or hash.

    @functools.cached_property
    def variables(self):
        """free_variables of the law, walked once."""
        return tuple(free_variables(self))

    @functools.cached_property
    def slots(self):
        """The operation slots the law uses, in order of first use."""
        return tuple(dict.fromkeys(n.slot for n in walk(self)
                                   if isinstance(n, (Prod, Ternary))))

    @functools.cached_property
    def multilinear(self):
        """Whether every monomial of the expanded law (sums and cyclic sums
        multiplied out, monomials with a zero factor dropped) has degree
        exactly 1 in every variable of the law: the laws that basis tuples
        decide."""
        names = _monomial_variables(self)
        return names is not None and names in (frozenset(),
                                               frozenset(self.variables))


def _children(node):
    if isinstance(node, (Var, Zero)):
        return ()
    if isinstance(node, (Alpha, Scale, Sign)):
        return (node.sub,)
    if isinstance(node, Prod):
        return (node.left, node.right)
    if isinstance(node, Ternary):
        return (node.a, node.b, node.c)
    if isinstance(node, Sum):
        return node.items
    if isinstance(node, Cyc):
        return (node.body,)
    if isinstance(node, Identity):
        return (node.lhs, node.rhs)
    raise TypeError("not an identity node: %r" % (node,))


def walk(node):
    """Every node of an AST, each parent before its children, children left
    to right."""
    yield node
    for child in _children(node):
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


def _monomial_variables(node):
    """The variable set shared by every monomial of the node's expansion:
    frozenset() when the expansion is empty (every term has a zero factor),
    None when two monomials differ in their variables or one repeats a
    variable.  In a multilinear law every subterm that is not multiplied
    by a vanishing one has such a set, so one None there decides."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Zero):
        return frozenset()
    if isinstance(node, (Alpha, Scale, Sign)):
        return _monomial_variables(node.sub)
    if isinstance(node, Cyc):
        # The rotations of a set agree iff it holds all or none of the
        # rotated variables.
        names = _monomial_variables(node.body)
        if names and not (names.isdisjoint(node.vars)
                          or names.issuperset(node.vars)):
            return None
        return names
    parts = [_monomial_variables(child) for child in _children(node)]
    if isinstance(node, (Sum, Identity)):
        sets = {names for names in parts if names != frozenset()}
        if len(sets) > 1 or None in sets:
            return None
        return sets.pop() if sets else frozenset()
    if frozenset() in parts:
        return frozenset()
    if None in parts:
        return None
    union = frozenset().union(*parts)
    return union if len(union) == sum(map(len, parts)) else None


# --------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)"
                    r"|([()\[\]{},;=+\-*]))")
_ALPHA_NAME = re.compile(r"a([0-9]*)$")

RESERVED = ("s", "cyc")

# The largest power "aN(...)" the parser accepts; evaluating a power costs
# a number of digits that grows with it.
MAX_ALPHA_POWER = 64


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
            except ValueError:
                # int() refuses very long digit strings.
                raise ParseError("number too long", tok[2]) from None
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
                digits = m.group(1) or "1"
                # Compare lengths first: int() refuses very long strings.
                if len(digits.lstrip("0")) > len(str(MAX_ALPHA_POWER)) or \
                        int(digits) > MAX_ALPHA_POWER:
                    raise ParseError("alpha power must be <= %d"
                                     % MAX_ALPHA_POWER, tok[2])
                k = int(digits)
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
    parser = _Parser(text)
    try:
        return parser.identity()
    except RecursionError:
        raise ParseError("expression nested too deeply",
                         parser.peek()[2]) from None


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
    (the value of a bound variable), `zero`, `alpha(k)`, `op(slot)`,
    `parity` (of a bound variable) and `signed` (a value times a Koszul
    sign).  This class evaluates over an algebra, with variables bound to
    basis indices; the free expansion in `freealg` is a subclass over
    formal expressions, and `_TensorEvaluator` one over sparse tensors.

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
        self._alpha_powers = {}

    @functools.cached_property
    def basis(self):
        return [self.space.basis_vector(i) for i in range(self.space.dim)]

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
            op = self.op(node.slot)
            return op(self.eval(node.a, env), self.eval(node.b, env),
                      self.eval(node.c, env))
        if isinstance(node, Scale):
            return self.eval(node.sub, env).scale(node.coeff)
        if isinstance(node, Sign):
            return self.signed(node.factors, env, self.eval(node.sub, env))
        if isinstance(node, Sum):
            first, *rest = (self.eval(item, env) for item in node.items)
            return sum(rest, first)
        if isinstance(node, Cyc):
            total = self.zero()
            for rotated in _rotations(env, node.vars):
                total = total + self.signed(node.factors, rotated,
                                            self.eval(node.body, rotated))
            return total
        if isinstance(node, Identity):
            return self.eval(node.lhs, env) - self.eval(node.rhs, env)
        raise TypeError("not an identity node: %r" % (node,))

    def signed(self, factors, env, value):
        """value times the Koszul sign of the factors under env."""
        return -value if self.koszul_sign(factors, env) < 0 else value

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


class _Tensor:
    """A value of `_TensorEvaluator`: a sparse tensor over the bindings of
    the law's variables.  entries[l][code] = c (never zero) contributes
    c b_l at every binding that the key `code` matches.

    A key packs a partial binding into base-(n+3) digits, one per variable
    of the law, the first variable the most significant: digit 0 leaves the
    variable unbound, 1..n bind it to b_1..b_n, and n+1 and n+2 leave it
    unbound but require an even or an odd element (from a sign factor on a
    variable that its subterm does not bind).  A key that binds every
    variable is its basis tuple, and such keys order as their tuples do.
    Bit p of `mask` is set when some key constrains variable p, so the keys
    of two tensors with disjoint masks join by adding them.  A tensor is
    never changed once built, so tensors share columns freely.
    """

    __slots__ = ("entries", "mask")

    def __init__(self, entries, mask):
        self.entries = entries
        self.mask = mask

    def __add__(self, other):
        entries = dict(self.entries)
        for l, column in other.entries.items():
            mine = entries.get(l)
            if mine is None:
                entries[l] = column
                continue
            mine = dict(mine)
            for code, c in column.items():
                c += mine.get(code, kernel.ZERO)
                if c:
                    mine[code] = c
                else:
                    del mine[code]
            if mine:
                entries[l] = mine
            else:
                del entries[l]
        return _Tensor(entries, self.mask | other.mask)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        if not c:
            return _Tensor({}, self.mask)
        return _Tensor({l: {code: c * v for code, v in column.items()}
                        for l, column in self.entries.items()}, self.mask)


def _nonzero(entries):
    """entries without its zero coefficients and empty columns."""
    kept = {}
    for l, column in entries.items():
        column = {code: c for code, c in column.items() if c}
        if column:
            kept[l] = column
    return kept


class _TensorEvaluator(Evaluator):
    """The evaluator over sparse tensors (see `_Tensor`): one walk of a law
    evaluates it on every basis tuple at once.  `env` binds each variable
    to its position among the law's variables, and a variable's value is
    the identity tensor of its position.  The map and every operation
    contract their arguments with their nonzero structure constants, so a
    zero or sparse operation leaves few keys; a sign is applied key by
    key.  This is sparse tensor algebra (Kjolstad et al., "The Tensor
    Algebra Compiler", OOPSLA 2017), interpreted rather than compiled.
    """

    basis_shortcuts = False

    def __init__(self, algebra, variables, sign_free=False):
        super().__init__(algebra, sign_free)
        n = self.space.dim
        self.base = n + 3
        self.weights = [self.base ** p
                        for p in range(len(variables) - 1, -1, -1)]
        self.env = {name: p for p, name in enumerate(variables)}
        # The parity each digit requires; None for an unbound variable.
        self._parity = [None, *self.space.parities, 0, 1]
        self._leaves = {}
        self._linear = {}

    def _meet_digits(self, a, b):
        """The digit both digits allow, or None when they conflict."""
        if not a or a == b:
            return b
        if not b:
            return a
        if a > b:
            a, b = b, a
        n = self.space.dim
        if a <= n < b and self._parity[a] == self._parity[b]:
            return a
        return None

    def binding(self, code):
        """The basis tuple of a key that binds every variable."""
        return tuple(code // weight % self.base - 1
                     for weight in self.weights)

    def leaf(self, position):
        tensor = self._leaves.get(position)
        if tensor is None:
            weight = self.weights[position]
            tensor = self._leaves[position] = _Tensor(
                {i: {(i + 1) * weight: kernel.ONE}
                 for i in range(self.space.dim)}, 1 << position)
        return tensor

    def zero(self):
        return _Tensor({}, 0)

    def alpha(self, k):
        hook = self._linear.get(k)
        if hook is None:
            power = super().alpha(k)
            hook = self._linear[k] = ((lambda tensor: tensor)
                                      if power.is_identity()
                                      else self._contraction(power))
        return hook

    def op(self, slot):
        hook = self._linear.get(slot)
        if hook is None:
            hook = self._linear[slot] = self._contraction(super().op(slot))
        return hook

    def _contraction(self, op):
        constants = op.constants
        return lambda *args: self._contract(constants, args)

    def _contract(self, constants, args):
        """The operation with these structure constants on tensors: a key
        of the value joins one key of each argument."""
        mask = 0
        disjoint = True
        for arg in args:
            disjoint = disjoint and not mask & arg.mask
            mask |= arg.mask
        first, *rest = [arg.entries for arg in args]
        join = self._join
        out = {}
        for index, terms in constants.items():
            pairs = first.get(index[0])
            if not pairs:
                continue
            pairs = pairs.items()
            for i, entries in zip(index[1:], rest):
                column = entries.get(i)
                if not column:
                    pairs = ()
                    break
                if disjoint:
                    pairs = [(a + b, v * w) for a, v in pairs
                             for b, w in column.items()]
                else:
                    pairs = [(code, v * w) for a, v in pairs
                             for b, w in column.items()
                             if (code := join(a, b)) is not None]
            if not pairs:
                continue
            for l, c in terms:
                target = out.setdefault(l, {})
                for code, v in pairs:
                    target[code] = target.get(code, kernel.ZERO) + c * v
        return _Tensor(_nonzero(out), mask)

    def _join(self, a, b):
        """The key both keys match, or None when they conflict."""
        code = 0
        for weight in self.weights:
            da, a = divmod(a, weight)
            db, b = divmod(b, weight)
            digit = self._meet_digits(da, db)
            if digit is None:
                return None
            code += digit * weight
        return code

    def parity(self, bound):
        # `signed` evaluates Koszul signs under an env of parities.
        return bound

    def signed(self, factors, env, value):
        """The Koszul sign of the factors applied key by key.  A key that
        leaves a named variable unbound splits into one that requires it
        even and one that requires it odd, each with its own sign."""
        if self.sign_free or not factors:
            return value
        names = tuple(dict.fromkeys(_factor_names(factors)))
        positions = [_bound(name, env) for name in names]
        signs = {parities: self.koszul_sign(factors, dict(zip(names,
                                                               parities)))
                 for parities in itertools.product((0, 1), repeat=len(names))}
        out = {}
        for l, column in value.entries.items():
            target = out.setdefault(l, {})
            for code, c in column.items():
                for key, parities in self._parity_splits(code, positions):
                    if signs[parities] < 0:
                        target[key] = target.get(key, kernel.ZERO) - c
                    else:
                        target[key] = target.get(key, kernel.ZERO) + c
        return _Tensor(_nonzero(out),
                       value.mask | sum(1 << p for p in positions))

    def _parity_splits(self, code, positions):
        """(key, parities of the variables at `positions`) for the key
        `code`: once for each parity of the variables it leaves unbound, the
        key that requires those parities."""
        parities = [self._parity[code // self.weights[p] % self.base]
                    for p in positions]
        free = [i for i, parity in enumerate(parities) if parity is None]
        for choice in itertools.product((0, 1), repeat=len(free)):
            key = code
            for i, q in zip(free, choice):
                parities[i] = q
                key += (self.space.dim + 1 + q) * self.weights[positions[i]]
            yield key, tuple(parities)


def _require_multilinear(identity):
    if not identity.multilinear:
        raise NonMultilinearLaw(
            "not multilinear, so basis tuples do not decide it: %s"
            % pretty(identity))


def check_identity(identity, algebra, name="identity", sign_free=False,
                   first_only=False):
    """Exhaustively check a multilinear law over all homogeneous basis
    tuples.

    For k variables over an n-dimensional space this decides the n^k
    bindings in lexicographic order; because every monomial of the law has
    degree 1 in every variable, this decides the law for all homogeneous
    elements.  Any other law raises NonMultilinearLaw, and a law on an
    operation the algebra lacks MissingOpSlot.  With first_only=True the
    scan stops at the first counterexample (used by the search, where only
    the verdict matters).  `checked` counts the tuples decided, so it is
    n^k, or with first_only the position of the first counterexample, as
    in a full scan.

    A law with a "{,,}" slot or a zero operation is evaluated once as a
    tensor (`residuals`), which costs little where its operations are zero
    or sparse.  Every other law is evaluated tuple by tuple
    (`_tuple_residuals`), which stops at once on a failing search
    candidate.  The constructions read all their laws from the tensor
    instead; the full checks here would be faster as tensors too, but they
    wait for ROADMAP item 1, the benchmark's one fingerprint per input.
    """
    _require_multilinear(identity)
    evaluator = Evaluator(algebra, sign_free)
    ops = [evaluator.op(slot) for slot in identity.slots]
    if "{,,}" in identity.slots or any(op.is_zero() for op in ops):
        found = residuals(identity, algebra, sign_free)
    else:
        found = _tuple_residuals(identity, evaluator)
    return residual_report(name, identity, algebra, found, first_only)


def residual_report(name, identity, algebra, found, first_only=False):
    """The Report of a law from its failing (tuple, residual) pairs, `found`
    in lexicographic order as `residuals` yields them: every pair is a
    counterexample, or with first_only the first one only, and `checked`
    is n^k, or with first_only the rank of the first counterexample plus
    one, as in a scan that stops there."""
    labels = algebra.space.labels
    n = algebra.space.dim
    checked = n ** len(identity.variables)
    bad = []
    for combo, residual in found:
        bad.append({"tuple": [labels[i] for i in combo],
                    "residual": dict(residual.nonzero_items())})
        if first_only:
            # Every tuple before this one passed.
            checked = functools.reduce(lambda rank, i: rank * n + i,
                                       combo, 0) + 1
            break
    return Report(name, not bad, checked, bad)


def residuals(identity, algebra, sign_free=False):
    """Yield (tuple of basis indices, residual Vector) for every basis
    tuple, in lexicographic order, where a multilinear law does not vanish;
    any other law raises NonMultilinearLaw, and a law on an operation the
    algebra lacks MissingOpSlot.  The law is evaluated once, as a tensor
    over all tuples (`_TensorEvaluator`)."""
    _require_multilinear(identity)
    evaluator = _TensorEvaluator(algebra, identity.variables, sign_free)
    rows = {}
    for l, column in evaluator.eval(identity, evaluator.env).entries.items():
        for code, c in column.items():
            rows.setdefault(code, {})[l] = c
    space = algebra.space
    for code in sorted(rows):
        coords = [kernel.ZERO] * space.dim
        for l, c in rows[code].items():
            coords[l] = c
        yield evaluator.binding(code), kernel.Vector(space, coords)


def _tuple_residuals(identity, evaluator):
    """What `residuals` yields, found by evaluating the law on every basis
    tuple in turn."""
    variables = identity.variables
    for combo in itertools.product(range(evaluator.space.dim),
                                   repeat=len(variables)):
        residual = evaluator.eval(identity, dict(zip(variables, combo)))
        if not residual.is_zero():
            yield combo, residual


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
                         if "{,,}" in law.slots)

# The three readings of the Lie-Yamaguti ternary of a left Leibniz product,
#     (-1)^{|x||y|} as(y,x,z) - as(x,y,z) = -(x*y)*a(z) = -1/2 [x,y]*a(z)
# with as(x,y,z) = (x*y)*a(z) - a(x)*(y*z), as two residuals: the first
# reading minus the second, and the second minus the third.  They hold on
# left Leibniz products only, so they belong to no suite.
TERNARY_EQ_DEF = parse_identity(
    "s(x,y) ((y*x)*a(z) - a(y)*(x*z)) - ((x*y)*a(z) - a(x)*(y*z))"
    " + (x*y)*a(z)")
TERNARY_EQ_HALF = parse_identity("- (x*y)*a(z) + 1/2 [x, y]*a(z)")

# The derived operations, each a template read "template = 0": its residual
# is the operation's value on its arguments, one per variable in order of
# first occurrence.  kernel.BilinearOp.graded_commutator is the one other
# copy of COMMUTATOR; a test pins the two equal.
COMMUTATOR = parse_identity("x*y - s(x,y) y*x")
ASSOCIATOR = parse_identity("(x*y)*a(z) - a(x)*(y*z)")
LY_TERNARY = parse_identity("- (x*y)*a(z)")

# The slots of each derived structure (None: the algebra itself), filled by
# templates over the source algebra; constructions and the prover read it.
DERIVED = {
    None: {"[,]": COMMUTATOR},
    "akivis": {"*": COMMUTATOR, "[,]": COMMUTATOR, "{,,}": ASSOCIATOR},
    "ly": {"*": COMMUTATOR, "[,]": COMMUTATOR, "{,,}": LY_TERNARY},
}


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
