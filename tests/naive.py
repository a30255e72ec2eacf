"""Independent brute-force oracles.

Residuals here are computed straight from structure-constant tables with
nested loops, deliberately bypassing the package's identity evaluator and
its lowering of laws to monomials, so the two routes can be compared.
Vectors are plain lists of Fractions.
"""

import itertools
from fractions import Fraction

ZERO = Fraction(0)


def zero(n):
    return [ZERO] * n


def basis(n, i):
    v = zero(n)
    v[i] = Fraction(1)
    return v


def add(x, y):
    return [a + b for a, b in zip(x, y)]


def sub(x, y):
    return [a - b for a, b in zip(x, y)]


def smul(c, x):
    return [c * a for a in x]


def mul(table, x, y):
    n = len(x)
    out = zero(n)
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            for k in range(n):
                out[k] += c * table[i][j][k]
    return out


def tmul(table, x, y, z):
    n = len(x)
    out = zero(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = x[i] * y[j] * z[k]
                if c == 0:
                    continue
                for l in range(n):
                    out[l] += c * table[i][j][k][l]
    return out


def amap(rows, x):
    n = len(x)
    out = zero(n)
    for i in range(n):
        if x[i] == 0:
            continue
        for k in range(n):
            out[k] += x[i] * rows[i][k]
    return out


def parity_sign(p, q):
    return Fraction(-1) if (p % 2) and (q % 2) else Fraction(1)


def commutator(algebra):
    """Dense table of [x,y] = x*y - (-1)^{|x||y|} y*x: entry [i][j] is the
    commutator of the basis pair (i, j)."""
    sp = algebra.space
    n = sp.dim
    c = algebra.product.table
    return [[sub(mul(c, basis(n, i), basis(n, j)),
                 smul(parity_sign(sp.parity(i), sp.parity(j)),
                      mul(c, basis(n, j), basis(n, i))))
             for j in range(n)] for i in range(n)]


def llsi_residual(algebra, i, j, k):
    """a(x)*(y*z) - (x*y)*a(z) - (-1)^{|x||y|} a(y)*(x*z) on basis (i,j,k)."""
    sp = algebra.space
    n = sp.dim
    c = algebra.product.table
    al = algebra.alpha.rows
    x, y, z = basis(n, i), basis(n, j), basis(n, k)
    lhs = mul(c, amap(al, x), mul(c, y, z))
    rhs = add(mul(c, mul(c, x, y), amap(al, z)),
              smul(parity_sign(sp.parity(i), sp.parity(j)),
                   mul(c, amap(al, y), mul(c, x, z))))
    return sub(lhs, rhs)


def skew_residual(algebra, i, j):
    """x*y + (-1)^{|x||y|} y*x on basis (i,j)."""
    sp = algebra.space
    n = sp.dim
    c = algebra.product.table
    x, y = basis(n, i), basis(n, j)
    return add(mul(c, x, y),
               smul(parity_sign(sp.parity(i), sp.parity(j)), mul(c, y, x)))


def jacobi_residual(algebra, i, j, k):
    """(x*y)*a(z) + (-1)^{|x|(|y|+|z|)}(y*z)*a(x)
    + (-1)^{|z|(|x|+|y|)}(z*x)*a(y) on basis (i,j,k)."""
    sp = algebra.space
    n = sp.dim
    c = algebra.product.table
    al = algebra.alpha.rows
    x, y, z = basis(n, i), basis(n, j), basis(n, k)
    px, py, pz = sp.parity(i), sp.parity(j), sp.parity(k)
    out = mul(c, mul(c, x, y), amap(al, z))
    out = add(out, smul(parity_sign(px, py + pz),
                        mul(c, mul(c, y, z), amap(al, x))))
    out = add(out, smul(parity_sign(pz, px + py),
                        mul(c, mul(c, z, x), amap(al, y))))
    return out


def associator(algebra, i, j, k):
    """(x*y)*a(z) - a(x)*(y*z) on basis (i,j,k)."""
    n = algebra.space.dim
    c = algebra.product.table
    al = algebra.alpha.rows
    x, y, z = basis(n, i), basis(n, j), basis(n, k)
    return sub(mul(c, mul(c, x, y), amap(al, z)),
               mul(c, amap(al, x), mul(c, y, z)))


def hly5_residual_ungraded(binary, ternary, alpha_rows, i, j, k):
    """Sign-free cyclic law: sum over cyclic (x,y,z) of
    (x*y)*a(z) + {x,y,z}."""
    n = len(alpha_rows)
    out = zero(n)
    triple = (i, j, k)
    for r in range(3):
        a, b, c = triple[r % 3], triple[(r + 1) % 3], triple[(r + 2) % 3]
        x, y, z = basis(n, a), basis(n, b), basis(n, c)
        out = add(out, mul(binary, mul(binary, x, y), amap(alpha_rows, z)))
        out = add(out, tmul(ternary, x, y, z))
    return out


def hly7_residual_ungraded(binary, ternary, alpha_rows, i, j, k, l):
    """Sign-free: {a(x),a(y),u*v} - {x,y,u}*a2(v) - a2(u)*{x,y,v}."""
    n = len(alpha_rows)
    x, y, u, v = (basis(n, t) for t in (i, j, k, l))

    def a1(w):
        return amap(alpha_rows, w)

    def a2(w):
        return amap(alpha_rows, amap(alpha_rows, w))

    lhs = tmul(ternary, a1(x), a1(y), mul(binary, u, v))
    rhs = add(mul(binary, tmul(ternary, x, y, u), a2(v)),
              mul(binary, a2(u), tmul(ternary, x, y, v)))
    return sub(lhs, rhs)


# --------------------------------------------------------------------------
# Identity ASTs, interpreted node by node on the dense tables, and the
# variable sets of their expansions.  Nodes are told apart by class name.

def ast_evaluator(algebra):
    """value(node, env): the value of an identity AST (lhs - rhs for an
    Identity) with its variables bound to basis indices by env.  A sign
    factor reads the parities of the bound basis elements; a cyclic sum
    evaluates its body and its leading sign under the three rotations of
    the binding.  "[,]" is the binary operation of a binary-ternary
    algebra and the graded commutator of any other."""
    sp = algebra.space
    n = sp.dim
    tables = {"*": algebra.product.table,
              "[,]": (algebra.product.table
                      if algebra.kind == "binary_ternary"
                      else commutator(algebra))}

    def sign(factors, env):
        out = 1
        for p, q in factors:
            out *= parity_sign(sum(sp.parity(env[name]) for name in p),
                               sum(sp.parity(env[name]) for name in q))
        return out

    def value(node, env):
        kind = type(node).__name__
        if kind == "Var":
            return basis(n, env[node.name])
        if kind == "Zero":
            return zero(n)
        if kind == "Alpha":
            out = value(node.sub, env)
            for _ in range(node.power):
                out = amap(algebra.alpha.rows, out)
            return out
        if kind == "Prod":
            return mul(tables[node.slot], value(node.left, env),
                       value(node.right, env))
        if kind == "Ternary":
            return tmul(algebra.ternary.table, value(node.a, env),
                        value(node.b, env), value(node.c, env))
        if kind == "Scale":
            return smul(node.coeff, value(node.sub, env))
        if kind == "Sign":
            return smul(sign(node.factors, env), value(node.sub, env))
        if kind == "Sum":
            out = zero(n)
            for item in node.items:
                out = add(out, value(item, env))
            return out
        if kind == "Cyc":
            x, y, z = node.vars
            out = zero(n)
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                rotated = dict(env)
                rotated[x], rotated[y], rotated[z] = env[a], env[b], env[c]
                out = add(out, smul(sign(node.factors, rotated),
                                    value(node.body, rotated)))
            return out
        return sub(value(node.lhs, env), value(node.rhs, env))

    return value


def law_residuals(law, algebra):
    """(tuple, residual) for every basis tuple of the law's variables, in
    lexicographic order, where `ast_evaluator` does not give zero."""
    value = ast_evaluator(algebra)
    out = []
    for combo in itertools.product(range(algebra.space.dim),
                                   repeat=len(law.variables)):
        residual = value(law, dict(zip(law.variables, combo)))
        if any(residual):
            out.append((combo, residual))
    return out


def monomial_variables(node):
    """The variable set shared by every monomial of the node's expansion:
    frozenset() when the expansion is empty (every term has a zero factor),
    None when two monomials differ in their variables or one repeats a
    variable.  In a multilinear law every subterm that is not multiplied
    by a vanishing one has such a set, so one None there decides."""
    kind = type(node).__name__
    if kind == "Var":
        return frozenset((node.name,))
    if kind == "Zero":
        return frozenset()
    if kind in ("Alpha", "Scale", "Sign"):
        return monomial_variables(node.sub)
    if kind == "Cyc":
        # The rotations of a set agree iff it holds all or none of the
        # rotated variables.
        names = monomial_variables(node.body)
        if names and not (names.isdisjoint(node.vars)
                          or names.issuperset(node.vars)):
            return None
        return names
    children = (node.items if kind == "Sum"
                else (node.lhs, node.rhs) if kind == "Identity"
                else (node.left, node.right) if kind == "Prod"
                else (node.a, node.b, node.c))
    parts = [monomial_variables(child) for child in children]
    if kind in ("Sum", "Identity"):
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


def multilinear(law):
    """Whether every monomial of the law's expansion holds each of its
    variables exactly once."""
    names = monomial_variables(law)
    return names is not None and names in (frozenset(),
                                           frozenset(law.variables))


# --------------------------------------------------------------------------
# The prover's left-Leibniz normal form, one parity sector at a time.
# Terms are the prover's tuples: ("g", name, power) for a generator under a
# power of the twisting map, ("p", left, right) for a product.

def _leaves(term):
    if term[0] == "g":
        return [term]
    return _leaves(term[1]) + _leaves(term[2])


def _shifted(term, delta):
    if term[0] == "g":
        return ("g", term[1], term[2] + delta)
    return ("p", _shifted(term[1], delta), _shifted(term[2], delta))


def _leibniz_step(term, parities):
    """[(sign, term), ...] after rewriting the leftmost-outermost redex
    (A*B)*a(C) -> a(A)*(B*C) - (-1)^{|A||B|} a(B)*(A*C), or None."""
    if term[0] == "g":
        return None
    left, right = term[1], term[2]
    if left[0] == "p" and all(leaf[2] >= 1 for leaf in _leaves(right)):
        a, b, c = left[1], left[2], _shifted(right, -1)
        odd_a = sum(parities[leaf[1]] for leaf in _leaves(a)) % 2
        odd_b = sum(parities[leaf[1]] for leaf in _leaves(b)) % 2
        return [(1, ("p", _shifted(a, 1), ("p", b, c))),
                (1 if odd_a and odd_b else -1,
                 ("p", _shifted(b, 1), ("p", a, c)))]
    for side in (1, 2):
        inner = _leibniz_step(term[side], parities)
        if inner is not None:
            return [(sign, ("p", t, right) if side == 1 else ("p", left, t))
                    for sign, t in inner]
    return None


def leibniz_normal_form(coeffs, parities):
    """The normal form of {term: coefficient} under the left Leibniz rule in
    the sector `parities` ({generator: 0 or 1}), without zero entries."""
    out = {}

    def add_normal(term, coeff):
        rewritten = _leibniz_step(term, parities)
        if rewritten is None:
            out[term] = out.get(term, 0) + coeff
        else:
            for sign, t in rewritten:
                add_normal(t, sign * coeff)

    for term, coeff in coeffs.items():
        add_normal(term, coeff)
    return {t: c for t, c in out.items() if c != 0}


# --------------------------------------------------------------------------
# The classical (ungraded) text of a law.

def classical(node):
    """The law with its Koszul signs deleted: every sign factor replaced by
    its operand and every cyclic sum's leading sign set to 1.  Rebuilt node
    by node from the AST, not from the package's lowering.  A law that
    opens with a sign factor can name its variables in another order in
    this text (`TERNARY_EQ_DEF` reads x, y, z and its classical text y, x,
    z), and reports list their tuples in that order."""
    kind = type(node).__name__
    if kind in ("Var", "Zero"):
        return node
    if kind == "Sign":
        return classical(node.sub)
    if kind == "Cyc":
        return type(node)(node.vars, (), classical(node.body))
    if kind == "Sum":
        return type(node)(tuple(classical(item) for item in node.items))
    if kind in ("Alpha", "Scale"):
        return type(node)(node._values()[0], classical(node.sub))
    if kind == "Prod":
        return type(node)(node.slot, classical(node.left),
                          classical(node.right))
    children = ((node.a, node.b, node.c) if kind == "Ternary"
                else (node.lhs, node.rhs))
    return type(node)(*map(classical, children))
