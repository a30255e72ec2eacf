"""Independent brute-force oracles.

Residuals here are computed straight from structure-constant tables with
nested loops, deliberately bypassing the package's identity evaluator, so
the two routes can be compared.  Vectors are plain lists of Fractions.
"""

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
