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
slots, and `slot_op` is the one place that resolves them against the
algebra under test: "[,]" is the binary operation itself on a binary-ternary
algebra, and on a plain algebra the graded commutator that `DERIVED[None]`
declares, built once per algebra from its template (`commutator`).
"cyc[x,y,z; SIGN](body)" is the cyclic sum: the three variables are rotated
through the body *and* through the leading sign, which is evaluated with
the substituted parities.

Every law is lowered once to signed multilinear monomials
(`Identity.monomials`, at most `MAX_MONOMIALS`): lhs - rhs is a sum of
coefficient times Koszul sign times shape, a tree of variables, map
powers and operation slots.  Checking an identity iterates over all
homogeneous basis tuples.  That decides the law for all homogeneous
elements only when the law is multilinear once the parities of its
arguments are fixed: every monomial holds every variable of the law
exactly once.  `check_identity` refuses any other law with
NonMultilinearLaw; `Identity.multilinear` holds the verdict.

`residuals` evaluates a law on every basis tuple at once: a law's tensor
(`_law_tensor`) is its monomials summed in place into rows keyed by basis
tuple.  `_shape_tensor` walks each shape once over sparse tensors,
contracting with the nonzero structure constants only, so a zero or sparse
operation costs little; a monomial binds every variable, so its Koszul
sign is read once per tuple.  The rows left nonzero are the failing
tuples, in lexicographic order, and `residual_report` turns them into a
`Report`.

Every law `constructions` uses is read from the tensor: the derived
operations (templates declared once in `DERIVED`), the ternary-equivalence
reports, and every law a construction checks, through its own suite runner
and `residual_report`.  `check_identity`, which serves `verify`,
`construct`'s checks of its output and `search`, reports from the same
tensor on the laws with a "{,,}" slot or a zero operation.  The other laws,
binary laws on nonzero operations, it evaluates tuple by tuple.  A search
decides its candidates with them and stops at the first failing tuple,
which is cheaper there than the whole tensor: its scans read each tuple
off the law's monomials (`_monomial_residuals`), as its witnesses are read.
Before it scans a candidate, `suite_passes` evaluates each law at the
tuple that refuted it last (its witness), which rejects most candidates
without a scan: consecutive candidates usually fail at the same tuple.
Only the full scans of these laws still go tuple by tuple through Vectors
(`_tuple_residuals`); they wait for the benchmark to keep one fingerprint
per input (ROADMAP item 1) before they move to the tensor.

Three functions walk shapes over an algebra, each dispatching on the node
type in the same way: `_shape_vector` over Vectors, for the full
per-tuple scans only; `_shape_value` at one tuple, with which
`_residual_at` reads a witness, a search's scan and any one tuple
(`eval_identity_on_tuple`); and `_shape_tensor` on every tuple at once.
The last two read exact constants.  The prover's free expansion
(`freealg._free_value`) walks laws the same way over formal expressions,
and it sums monomials with `_accumulate`, as `_tuple_residuals` does.
Structural questions about an AST (its variables, whether it needs "{,,}")
come from `walk`.
"""

import functools
import itertools
import math
import re
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


class LawTooLarge(ValueError):
    """A law whose expansion has more than MAX_MONOMIALS monomials."""


class UnknownSuite(KeyError):
    def __str__(self):
        return "unknown suite or law: %s" % self.args[0]


# --------------------------------------------------------------------------
# AST

class _Node:
    """The base of the AST nodes: immutable values whose fields, named in
    `_fields`, are set once by the constructor, positionally.  Equality,
    hash and repr read the fields in order, as a frozen dataclass's do: two
    nodes are equal when they are of one class with equal fields, and a
    node's repr is `Var(name='x')`.  A node pickles and copies through its
    constructor."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, not %d"
                            % (type(self).__name__, len(self._fields),
                               len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values()


class Var(_Node):
    __slots__ = _fields = ("name",)


class Zero(_Node):
    __slots__ = ()


class Alpha(_Node):
    __slots__ = _fields = ("power", "sub")

    def __init__(self, power, sub):
        if power < 1:
            raise ValueError("alpha power must be >= 1")
        super().__init__(power, sub)


class Prod(_Node):
    __slots__ = _fields = ("slot", "left", "right")  # slot: "*" or "[,]"


class Ternary(_Node):
    __slots__ = _fields = ("a", "b", "c")

    slot = "{,,}"  # a class constant, not a field


class Scale(_Node):
    __slots__ = _fields = ("coeff", "sub")  # coeff: a Fraction


class Sign(_Node):
    # ((P, Q), ...): each factor contributes (-1)^{|P| |Q|} where |P| is the
    # sum of the parities of the named variables.
    __slots__ = _fields = ("factors", "sub")


class Sum(_Node):
    __slots__ = _fields = ("items",)


class Cyc(_Node):
    # vars: three distinct variable names; factors: the leading sign
    # factors, the empty tuple meaning "1".
    __slots__ = _fields = ("vars", "factors", "body")


class Identity(_Node):
    _fields = ("lhs", "rhs")
    __slots__ = _fields + ("__dict__",)  # __dict__ holds the cached values

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
    def monomials(self):
        """lhs - rhs lowered to signed multilinear monomials: (coeff,
        factors, shape) triples that sum to it as coeff * sign * shape,
        with coeff a `kernel.exact` rational, factors in the `Sign.factors`
        format and shape a tree of Var, Alpha, Prod and Ternary nodes.
        Equal monomials are kept apart.  A law of more than MAX_MONOMIALS
        monomials, counted before any is built, raises LawTooLarge."""
        count = _monomial_count(self)
        if count > MAX_MONOMIALS:
            raise LawTooLarge("the law expands to %d monomials, more than "
                              "%d: %s" % (count, MAX_MONOMIALS, pretty(self)))
        return tuple(_lower(self))

    @functools.cached_property
    def multilinear(self):
        """Whether every monomial holds every variable of the law exactly
        once: the laws that basis tuples decide."""
        once = sorted(self.variables)
        return all(sorted(n.name for n in walk(shape)
                          if isinstance(n, Var)) == once
                   for _, _, shape in self.monomials)


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


def _monomial_count(node):
    """The number of monomials `_lower` gives the node, in one pass over
    it: products multiply, sums add, a cyclic sum triples."""
    if isinstance(node, (Var, Zero)):
        return int(isinstance(node, Var))
    counts = [_monomial_count(child) for child in _children(node)]
    if isinstance(node, (Prod, Ternary)):
        return math.prod(counts)
    return sum(counts) * (3 if isinstance(node, Cyc) else 1)


def _lower(node):
    """The (coeff, factors, shape) monomials of a node, in the order of its
    terms (`Identity.monomials`)."""
    if isinstance(node, Var):
        return [(1, (), node)]
    if isinstance(node, Zero):
        return []
    if isinstance(node, Scale):
        return [(kernel.exact(node.coeff * c), factors, shape)
                for c, factors, shape in _lower(node.sub)]
    if isinstance(node, Sign):
        return [(c, node.factors + factors, shape)
                for c, factors, shape in _lower(node.sub)]
    if isinstance(node, Sum):
        return [monomial for item in node.items for monomial in _lower(item)]
    if isinstance(node, Identity):
        return _lower(node.lhs) + _lower(Scale(-1, node.rhs))
    if isinstance(node, Cyc):
        x, y, z = node.vars
        body = _lower(node.body)
        return [(c, _renamed(node.factors + factors, rename),
                 _renamed(shape, rename))
                for rename in ({}, {x: y, y: z, z: x}, {x: z, y: x, z: y})
                for c, factors, shape in body]
    # Alpha, Prod or Ternary: a shape per choice of an argument monomial.
    head = node._values()[:-len(_children(node))]
    return [(kernel.exact(math.prod(c for c, _, _ in parts)),
             sum((factors for _, factors, _ in parts), ()),
             type(node)(*head, *(shape for _, _, shape in parts)))
            for parts in itertools.product(*map(_lower, _children(node)))]


def _renamed(value, rename):
    """A shape or a factor tuple with its variable names renamed."""
    if isinstance(value, Var):
        return Var(rename.get(value.name, value.name))
    if isinstance(value, _Node):
        return type(value)(*(_renamed(v, rename) for v in value._values()))
    if isinstance(value, tuple):
        return tuple(_renamed(v, rename) for v in value)
    return rename.get(value, value) if isinstance(value, str) else value


# --------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z0-9_]*)"
                    r"|([()\[\]{},;=+\-*]))")
_ALPHA_NAME = re.compile(r"a([0-9]*)$")

RESERVED = ("s", "cyc")

# The largest power "aN(...)" the parser accepts; evaluating a power costs
# a number of digits that grows with it.
MAX_ALPHA_POWER = 64

# The most monomials a law may expand to (`Identity.monomials`); the
# largest shipped law, AKIVIS, has 9.
MAX_MONOMIALS = 10000


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

def slot_op(algebra, slot):
    """The operation a slot names on the algebra, the one place that
    resolves slots: "*" is its product, "{,,}" its ternary product, and
    "[,]" the binary operation itself on a binary-ternary algebra and the
    graded commutator of the product (`commutator`) on any other."""
    if slot == "*":
        return algebra.product
    if slot == "[,]":
        if isinstance(algebra, kernel.BinaryTernaryAlgebra):
            return algebra.product
        return commutator(algebra)
    if slot == "{,,}":
        if algebra.ternary is None:
            raise MissingOpSlot("algebra has no %r operation" % slot)
        return algebra.ternary
    raise KeyError("unknown operation slot: %r" % slot)


def _accumulate(total, coeff, value):
    """total + coeff * value, where a total of None stands for zero: the
    value is subtracted when coeff is -1, negated when it is -1 and total
    is None, added when it is 1, and scaled otherwise.  Values are Vectors
    (`_tuple_residuals`) or free expressions (`freealg`)."""
    if total is not None and coeff == -1:
        return total - value
    if coeff != 1:
        value = -value if coeff == -1 else value.scale(coeff)
    return value if total is None else total + value


@functools.cache
def _sign_table(factors):
    """(names, signs) for a tuple of sign factors: the names the factors
    use, in order of first occurrence, and signs[parities], the product of
    (-1)^{|P| |Q|} over the factors when the names have those parities (a
    tuple of 0s and 1s in the order of names), for every parity tuple.
    Built once per factor tuple."""
    names = tuple(dict.fromkeys(_factor_names(factors)))
    signs = {}
    for parities in itertools.product((0, 1), repeat=len(names)):
        parity = dict(zip(names, parities))
        sign = 1
        for p, q in factors:
            if sum(map(parity.get, p)) % 2 and sum(map(parity.get, q)) % 2:
                sign = -sign
        signs[parities] = sign
    return names, signs


def _residual_at(identity, algebra, binding, tables=None):
    """The residual lhs - rhs of a law at one basis tuple, as {l: c} over
    its nonzero coordinates.  Each monomial's shape is contracted with the
    `exact_constants` of its map powers and of the operations `slot_op`
    resolves (`_shape_value`), so integral constants stay ints and no
    Vector is built; the Koszul sign is read from `_sign_table`.  binding
    must bind every variable of the law to a basis index.  tables, when
    given, keeps the resolved constants across calls on one algebra, as a
    scan of every tuple (`_monomial_residuals`) passes it."""
    even = algebra.space.dim_even
    if tables is None:
        tables = {}
    total = {}
    for coeff, factors, shape in identity.monomials:
        if factors:
            names, signs = _sign_table(factors)
            coeff *= signs[tuple(int(binding[name] >= even) for name in names)]
        for l, c in _shape_value(shape, binding, algebra, tables):
            total[l] = total.get(l, 0) + coeff * c
    return {l: c for l, c in total.items() if c}


_IDENTITY = object()


def _constants(key, algebra, tables):
    """The `exact_constants` of map power key (an int), or _IDENTITY if it
    is the identity, or of the operation slot key names (`slot_op`), kept
    in tables, the dict of one walk; a walk calls this on a miss only."""
    if type(key) is int:
        power = algebra.alpha.power(key)
        table = _IDENTITY if power.is_identity() else power.exact_constants
    else:
        table = slot_op(algebra, key).exact_constants
    tables[key] = table
    return table


def _shape_value(shape, binding, algebra, tables):
    """The (l, c) pairs of a shape's value at a binding, each l once.
    tables keeps the constants of each map power and slot once resolved.
    A module function, not a closure, so that a call leaves no cycle."""
    kind = type(shape)
    if kind is Var:
        return ((binding[shape.name], 1),)
    key = shape.power if kind is Alpha else shape.slot
    table = tables.get(key)
    if table is None:
        table = _constants(key, algebra, tables)
    args = binding, algebra, tables
    out = {}
    if kind is Alpha:
        sub = shape.sub
        if table is _IDENTITY:
            return _shape_value(sub, *args)
        if type(sub) is Var:
            return table.get((binding[sub.name],), ())
        for i, a in _shape_value(sub, *args):
            for l, c in table.get((i,), ()):
                out[l] = out.get(l, 0) + a * c
    elif kind is Prod:
        left, right = shape.left, shape.right
        if type(left) is Var and type(right) is Var:
            return table.get((binding[left.name], binding[right.name]), ())
        right = _shape_value(right, *args)
        for i, a in _shape_value(left, *args):
            for j, b in right:
                for l, c in table.get((i, j), ()):
                    out[l] = out.get(l, 0) + a * b * c
    else:  # Ternary
        for combo in itertools.product(*(_shape_value(arg, *args) for arg
                                         in (shape.a, shape.b, shape.c))):
            scale = math.prod(c for _, c in combo)
            for l, c in table.get(tuple(i for i, _ in combo), ()):
                out[l] = out.get(l, 0) + scale * c
    return out.items()


def eval_identity_on_tuple(identity, algebra, binding):
    """Residual lhs - rhs of an identity at one basis-element binding, read
    off the law's monomials (`_residual_at`), as the search's witnesses are.

    binding maps variable names to 0-based basis indices; a value that is
    not an int raises TypeError, and one outside 0..n-1 IndexError.  A
    variable of the law left unbound raises UnboundVariable, even where
    only a zero factor uses it.
    """
    n = algebra.space.dim
    for name, index in binding.items():
        if type(index) is not int:
            raise TypeError("variable %r is bound to %r, not a basis index"
                            % (name, index))
        if not 0 <= index < n:
            raise IndexError("variable %r is bound to %d, outside 0..%d"
                             % (name, index, n - 1))
    for name in identity.variables:
        if name not in binding:
            raise UnboundVariable(name)
    residual = _residual_at(identity, algebra, binding)
    return kernel.Vector(algebra.space, [residual.get(l, 0) for l in range(n)])


def _shape_tensor(shape, leaves, algebra, tables):
    """A shape's value on every basis tuple at once: a sparse tensor {l:
    {code: c}} with no zero c and no empty column, c b_l at every binding
    that the key `code` matches (`_law_tensor`).  A variable's value is
    leaves[name], the identity tensor of its position.  An identity map
    power passes its argument through; any other power and every operation
    contract their arguments with their nonzero constants (`_contract`),
    so a zero or sparse operation leaves few keys, and coefficients follow
    `kernel.exact`.  Values are never changed once built, so they share
    columns freely."""
    kind = type(shape)
    if kind is Var:
        return leaves[shape.name]
    key = shape.power if kind is Alpha else shape.slot
    table = tables.get(key)
    if table is None:
        table = _constants(key, algebra, tables)
    args = leaves, algebra, tables
    if kind is Alpha:
        value = _shape_tensor(shape.sub, *args)
        return value if table is _IDENTITY else _contract(table, (value,))
    if kind is Prod:
        return _contract(table, (_shape_tensor(shape.left, *args),
                                 _shape_tensor(shape.right, *args)))
    return _contract(table, (_shape_tensor(shape.a, *args),
                             _shape_tensor(shape.b, *args),
                             _shape_tensor(shape.c, *args)))


def _contract(constants, args):
    """The operation with these structure constants on tensors: a key of
    the value is the sum of one key of each argument."""
    first, *rest = args
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
            pairs = [(a + b, v * w) for a, v in pairs
                     for b, w in column.items()]
        if not pairs:
            continue
        for l, c in terms:
            target = out.setdefault(l, {})
            for code, v in pairs:
                target[code] = target.get(code, 0) + c * v
    kept = {}
    for l, column in out.items():
        column = {code: c for code, c in column.items() if c}
        if column:
            kept[l] = column
    return kept


def _require_multilinear(identity):
    if not identity.multilinear:
        raise NonMultilinearLaw(
            "not multilinear, so basis tuples do not decide it: %s"
            % pretty(identity))


def check_identity(identity, algebra, name="identity", first_only=False):
    """Exhaustively check a multilinear law over all homogeneous basis
    tuples.

    For k variables over an n-dimensional space this decides the n^k
    bindings in lexicographic order; because every monomial of the law has
    degree 1 in every variable, this decides the law for all homogeneous
    elements.  Any other law raises NonMultilinearLaw, and a law on an
    operation the algebra lacks MissingOpSlot.  With first_only=True the
    scan stops at the first counterexample; the search, where only the
    verdict matters, reaches it through `suite_passes`.  `checked` counts
    the tuples decided, so it is n^k, or with first_only the position of
    the first counterexample, as in a full scan.

    A law with a "{,,}" slot or a zero operation is evaluated once as a
    tensor (`residuals`), which costs little where its operations are zero
    or sparse.  Every other law is evaluated tuple by tuple, which stops at
    once on a failing search candidate: with first_only each tuple is read
    off the law's monomials (`_monomial_residuals`), and a full scan walks
    each tuple's shapes over Vectors (`_tuple_residuals`, `_shape_vector`).
    The constructions read all their laws from the tensor instead; the full
    checks here would be faster as tensors too, but they wait for ROADMAP
    item 1, the benchmark's one fingerprint per input.
    """
    _require_multilinear(identity)
    ops = [slot_op(algebra, slot) for slot in identity.slots]
    if "{,,}" in identity.slots or any(op.is_zero() for op in ops):
        found = residuals(identity, algebra)
    elif first_only:
        found = _monomial_residuals(identity, algebra)
    else:
        found = _tuple_residuals(identity, algebra)
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


def residuals(identity, algebra):
    """Yield (tuple of basis indices, residual Vector) for every basis
    tuple, in lexicographic order, where a multilinear law does not vanish;
    any other law raises NonMultilinearLaw, and a law on an operation the
    algebra lacks MissingOpSlot.  The law is evaluated once, as a tensor
    over all tuples (`_law_tensor`)."""
    space = algebra.space
    for combo, row in _law_tensor(identity, algebra).items():
        coords = [kernel.ZERO] * space.dim
        for l, c in row.items():
            coords[l] = c
        yield combo, kernel.Vector(space, coords)


def _law_tensor(identity, algebra):
    """The law evaluated over every basis tuple in one walk: {basis tuple:
    {l: c}}, in lexicographic order, with no zero c and no empty row.  Each
    monomial's shape is walked by `_shape_tensor`, its Koszul sign read key
    by key from `_sign_table`, and coeff * sign * value summed in place
    into one dict of rows keyed by code; each key is decoded once.  Any law
    that is not multilinear raises NonMultilinearLaw.

    A key packs a binding into base-n digits, one per variable of the law,
    the first variable the most significant: digit d binds the variable to
    b_{d+1}, and a variable that the subterm does not bind reads digit 0.
    The arguments of an operation in a multilinear law bind disjoint
    variables, so two keys join by adding them (`_contract`).  A shape of
    a multilinear law binds every variable, so its keys are its basis
    tuples, and they order as their tuples do.  This is sparse tensor
    algebra (Kjolstad et al., "The Tensor Algebra Compiler", OOPSLA 2017),
    interpreted rather than compiled."""
    _require_multilinear(identity)
    variables = identity.variables
    n = algebra.space.dim
    weights = {name: n ** (len(variables) - 1 - p)
               for p, name in enumerate(variables)}
    leaves = {name: {i: {i * w: 1} for i in range(n)}
              for name, w in weights.items()}
    tables = {}
    parities = algebra.space.parities
    rows = {}
    for coeff, factors, shape in identity.monomials:
        if factors:
            names, signs = _sign_table(factors)
            reads = [weights[name] for name in names]
        for l, column in _shape_tensor(shape, leaves, algebra,
                                       tables).items():
            for code, c in column.items():
                if factors and signs[tuple(parities[code // weight % n]
                                           for weight in reads)] < 0:
                    c = -c
                row = rows.setdefault(code, {})
                c = row.get(l, 0) + coeff * c
                if c:
                    row[l] = c
                else:
                    del row[l]
    return {tuple(code // weight % n for weight in weights.values()): row
            for code, row in sorted(rows.items()) if row}


def _monomial_residuals(identity, algebra):
    """What `residuals` yields, found tuple by tuple in lexicographic
    order, each residual read off the law's monomials (`_residual_at`) with
    the constants of its map powers and slots resolved once for the scan.
    A Vector is built for a failing tuple only."""
    variables = identity.variables
    space = algebra.space
    tables = {}
    for combo in itertools.product(range(space.dim), repeat=len(variables)):
        residual = _residual_at(identity, algebra,
                                dict(zip(variables, combo)), tables)
        if residual:
            yield combo, kernel.Vector(space, [residual.get(l, 0)
                                               for l in range(space.dim)])


def _tuple_residuals(identity, algebra):
    """What `residuals` yields, found by evaluating the law on every basis
    tuple in turn over Vectors: each monomial's shape through
    `_shape_vector`, times its coefficient and its Koszul sign, read from
    `_sign_table`, summed by `_accumulate`."""
    variables = identity.variables
    space = algebra.space
    basis = [space.basis_vector(i) for i in range(space.dim)]
    parities = space.parities
    for combo in itertools.product(range(space.dim), repeat=len(variables)):
        binding = dict(zip(variables, combo))
        total = None
        for coeff, factors, shape in identity.monomials:
            if factors:
                names, signs = _sign_table(factors)
                coeff *= signs[tuple(parities[binding[name]]
                                     for name in names)]
            total = _accumulate(total, coeff, _shape_vector(
                shape, binding, algebra, basis))
        if total is not None and not total.is_zero():
            yield combo, total


def _shape_vector(shape, binding, algebra, basis):
    """A shape's value at a binding as a Vector: a variable is the basis
    vector basis[index] of its index, and each map power and operation
    (`slot_op`) is applied to its arguments' values.  A product of two bare
    variables, and a map power of a bare variable, are read off the
    structure constants (`on_basis`) instead."""
    kind = type(shape)
    if kind is Var:
        return basis[binding[shape.name]]
    if kind is Alpha:
        alpha = algebra.alpha.power(shape.power)
        sub = shape.sub
        if type(sub) is Var:
            return alpha.on_basis(binding[sub.name])
        return alpha(_shape_vector(sub, binding, algebra, basis))
    op = slot_op(algebra, shape.slot)
    if kind is Prod:
        left, right = shape.left, shape.right
        if type(left) is Var and type(right) is Var:
            return op.on_basis(binding[left.name], binding[right.name])
        return op(_shape_vector(left, binding, algebra, basis),
                  _shape_vector(right, binding, algebra, basis))
    return op(_shape_vector(shape.a, binding, algebra, basis),
              _shape_vector(shape.b, binding, algebra, basis),
              _shape_vector(shape.c, binding, algebra, basis))


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
# first occurrence (`template_op`).  COMMUTATOR is the only copy of the
# graded commutator: it is also the "[,]" slot of a plain algebra.
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


def template_op(template, algebra):
    """The multilinear operation a template defines on an algebra: its
    residual on every basis tuple, one argument per free variable, in
    order of first occurrence.  Its structure constants are read straight
    off the template's tensor (`_law_tensor`), one per nonzero entry.  A
    template of other than 2 or 3 variables raises ValueError."""
    arity = len(template.variables)
    if arity not in (2, 3):
        raise ValueError("a template defines an operation of 2 or 3 "
                         "variables, not %d" % arity)
    entries = {combo + (l,): c
               for combo, row in _law_tensor(template, algebra).items()
               for l, c in row.items()}
    op = kernel.BilinearOp if arity == 2 else kernel.TernaryOp
    return op(algebra.space, entries=entries)


def commutator(algebra):
    """The graded commutator of the algebra's product, the operation that
    DERIVED[None] declares for "[,]", built once and kept on the algebra."""
    op = getattr(algebra, "_commutator", None)
    if op is None:
        op = algebra._commutator = template_op(DERIVED[None]["[,]"], algebra)
    return op


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


def resolve_suite(names, algebra):
    """The checks that `names` (suite names, registry names, "grading",
    "multiplicativity" or "all") expand to on `algebra`, in order, each
    once.  Raises UnknownSuite for a name that is neither a suite nor a
    check, and MissingOpSlot for a law needing an operation the algebra
    lacks, so a suite runner refuses a suite before any check runs."""
    ternary = algebra.ternary is not None
    checks = []
    for name in [names] if isinstance(names, str) else names:
        if name == "all":
            checks += ["grading", "multiplicativity"]
            checks += [law for law in REGISTRY
                       if ternary or law not in TERNARY_LAWS]
        elif name in SUITES:
            checks += SUITES[name]
        elif name in ("grading", "multiplicativity") or name in REGISTRY:
            checks.append(name)
        else:
            raise UnknownSuite(name)
    checks = list(dict.fromkeys(checks))
    if not ternary and not TERNARY_LAWS.isdisjoint(checks):
        raise MissingOpSlot("algebra has no %r operation" % "{,,}")
    return checks


def check_suite(names, algebra):
    """Run the named checks (`resolve_suite`) and return their reports in
    deterministic order."""
    return [_run_check(check, algebra)
            for check in resolve_suite(names, algebra)]


def _run_check(check, algebra, first_only=False):
    """The report of one resolved check."""
    if check == "grading":
        return kernel.check_algebra_grading(algebra)
    if check == "multiplicativity":
        return kernel.check_multiplicativity(algebra)
    return check_identity(REGISTRY[check], algebra, name=check,
                          first_only=first_only)


def suite_passes(names, algebra, witnesses=None):
    """True iff every check of the suite passes; stops at the first check
    that fails, and each law at its first counterexample.

    `witnesses`, when given, is a dict the caller keeps across calls on
    algebras over one space (`run_search` keeps one per scan): it maps a
    law of the suite to the binding of the last counterexample the law
    gave.  Every remembered binding is evaluated first, straight from the
    law's monomials (`_residual_at`); a nonzero residual there refutes a
    multilinear law, so the verdict is False without a scan.  Otherwise
    the checks run in order, and a law that fails remembers its first
    counterexample.  The verdict is the same with or without witnesses."""
    checks = resolve_suite(names, algebra)
    if witnesses:
        if any(_residual_at(REGISTRY[name], algebra, binding)
               for name, binding in witnesses.items() if name in checks):
            return False
    for check in checks:
        report = _run_check(check, algebra, first_only=True)
        if not report.passed:
            if witnesses is not None and check in REGISTRY:
                labels = algebra.space.labels
                witnesses[check] = dict(zip(
                    REGISTRY[check].variables,
                    (labels.index(label)
                     for label in report.counterexamples[0]["tuple"])))
            return False
    return True
