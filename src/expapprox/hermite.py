"""Exact Hermite approximation points for tuples of rational numbers.

Everything here is exact rational arithmetic.  For distinct alpha_1..alpha_s
and non-negative integer orders n = (n_1..n_s) we build

    f_n(z) = prod_i (z - alpha_i)^{n_i},
    P_n(z) = sum of all derivatives of f_n,

and the approximation point  a_n = (P_n(alpha_1), ..., P_n(alpha_s)).
The convention for any tuple with a negative entry is f_n = P_n = 0 and
a_n = (0,...,0), which makes the recurrences below hold on all of Z^s.

Polynomials are dense coefficient lists over Fraction, low degree first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Rat = Fraction
Poly = list[Fraction]

# ---------------------------------------------------------------------------
# dense univariate polynomials over Q
# ---------------------------------------------------------------------------


def poly_zero() -> Poly:
    return []


def poly_const(c) -> Poly:
    c = Fraction(c)
    return [c] if c else []


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_deriv(p: Poly) -> Poly:
    return [k * c for k, c in enumerate(p)][1:]


def poly_eval(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deg(p: Poly) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(p) - 1


# ---------------------------------------------------------------------------
# alpha tuples and multi-indices
# ---------------------------------------------------------------------------


def check_alphas(alphas: Sequence) -> tuple[Fraction, ...]:
    a = tuple(Fraction(x) for x in alphas)
    if not a:
        raise ValueError("need at least one alpha")
    if len(set(a)) != len(a):
        raise ValueError("alphas must be pairwise distinct")
    return a


def _check_pair(alphas, orders):
    a = check_alphas(alphas)
    n = tuple(int(k) for k in orders)
    if len(a) != len(n):
        raise ValueError(f"length mismatch: {len(a)} alphas vs {len(n)} orders")
    return a, n


def factor_poly(alphas: Sequence, orders: Sequence[int]) -> Poly:
    """f_n(z) = prod (z - alpha_i)^{n_i}; the zero polynomial off N^s."""
    a, n = _check_pair(alphas, orders)
    if any(k < 0 for k in n):
        return poly_zero()
    p = poly_const(1)
    for ai, ni in zip(a, n):
        lin = [-ai, Fraction(1)]
        for _ in range(ni):
            p = poly_mul(p, lin)
    return p


def derivative_sum_poly(alphas: Sequence, orders: Sequence[int]) -> Poly:
    """P_n(z): the sum of all derivatives of f_n (zero off N^s)."""
    p = factor_poly(alphas, orders)
    total = list(p)
    while p:
        p = poly_deriv(p)
        total = poly_add(total, p)
    return total


def hermite_point(alphas: Sequence, orders: Sequence[int]) -> tuple[Fraction, ...]:
    """a_n = (P_n(alpha_1), ..., P_n(alpha_s)); the zero point off N^s."""
    a, n = _check_pair(alphas, orders)
    p = derivative_sum_poly(a, n)
    return tuple(poly_eval(p, ai) for ai in a)


def _factor_values(a, n):
    # (f_n(alpha_1), ..., f_n(alpha_s)) without building the polynomial.
    # Nonzero in coordinate i only when n_i = 0.
    out = []
    for i, ai in enumerate(a):
        if n[i] > 0:
            out.append(Fraction(0))
            continue
        v = Fraction(1)
        for j, aj in enumerate(a):
            if j != i:
                v *= (ai - aj) ** n[j]
        out.append(v)
    return tuple(out)


def hermite_point_rec(alphas: Sequence, orders: Sequence[int], cache: dict | None = None) -> tuple[Fraction, ...]:
    """Same value as hermite_point, via the derivative recurrence

        a_n = (f_n(alpha_1),...,f_n(alpha_s)) + sum_j n_j a_{n-e_j},

    memoized over the lattice of multi-indices below n.
    """
    a, n = _check_pair(alphas, orders)
    if cache is None:
        cache = {}
    s = len(a)
    zero = tuple(Fraction(0) for _ in range(s))

    def rec(m: tuple[int, ...]) -> tuple[Fraction, ...]:
        if any(k < 0 for k in m):
            return zero
        got = cache.get(m)
        if got is not None:
            return got
        acc = list(_factor_values(a, m))
        for j in range(s):
            if m[j]:
                sub = rec(m[:j] + (m[j] - 1,) + m[j + 1:])
                for i in range(s):
                    acc[i] += m[j] * sub[i]
        val = tuple(acc)
        cache[m] = val
        return val

    return rec(n)


# ---------------------------------------------------------------------------
# neighbouring-point matrices and the Mahler determinant
# ---------------------------------------------------------------------------


def hermite_matrix(alphas: Sequence, orders: Sequence[int]) -> list[list[Fraction]]:
    """s x s matrix whose row l is the point at n - e_l; needs all n_i >= 1."""
    a, n = _check_pair(alphas, orders)
    if any(k < 1 for k in n):
        raise ValueError("all orders must be >= 1")
    rows = []
    for ell in range(len(a)):
        m = n[:ell] + (n[ell] - 1,) + n[ell + 1:]
        rows.append(list(hermite_point(a, m)))
    return rows


def step_matrix(alphas: Sequence, orders: Sequence[int], ell: int) -> list[list[Fraction]]:
    """M with entry (k,j) = n_j + (alpha_k - alpha_ell) [j=k]; ell is 1-based.

    Satisfies hermite_matrix(n + e_ell) = M . hermite_matrix(n).
    """
    a, n = _check_pair(alphas, orders)
    s = len(a)
    if not 1 <= ell <= s:
        raise ValueError(f"ell out of range: {ell}")
    if any(k < 1 for k in n):
        raise ValueError("all orders must be >= 1")
    al = a[ell - 1]
    return [[Fraction(n[j]) + ((a[k] - al) if j == k else 0) for j in range(s)]
            for k in range(s)]


def mahler_det(alphas: Sequence, orders: Sequence[int]) -> Fraction:
    """Closed form prod_i ((n_i - 1)! prod_{k != i} (alpha_i - alpha_k)^{n_k})."""
    a, n = _check_pair(alphas, orders)
    if any(k < 1 for k in n):
        raise ValueError("all orders must be >= 1")
    out = Fraction(1)
    for i, ai in enumerate(a):
        out *= math.factorial(n[i] - 1)
        for k, ak in enumerate(a):
            if k != i:
                out *= (ai - ak) ** n[k]
    return out


def mat_mul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def mat_det(A: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(A)
    m = [row[:] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def diagonal_product_matrix(alpha, n: int) -> list[list[Fraction]]:
    """(n-1)! C_n ... C_1 for the pair (0, alpha), equal to hermite_matrix((n,n)).

    C_i = ((2i-1-alpha, 2i-1), (2i-1, 2i-1+alpha)).
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for i in range(1, n + 1):
        w = Fraction(2 * i - 1)
        acc = mat_mul([[w - alpha, w], [w, w + alpha]], acc)
    fac = math.factorial(n - 1)
    return [[fac * x for x in row] for row in acc]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def rat_str(x: Fraction) -> str:
    """"num/den" with "/1" dropped."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def point_json(alphas, orders) -> dict:
    a, n = _check_pair(alphas, orders)
    pt = hermite_point(a, n)
    return {"alphas": [rat_str(x) for x in a], "n": list(n),
            "point": [rat_str(x) for x in pt]}


def poly_json(alphas, orders) -> dict:
    """Coefficients of the derivative-sum polynomial, low degree first."""
    a, n = _check_pair(alphas, orders)
    p = derivative_sum_poly(a, n)
    return {"alphas": [rat_str(x) for x in a], "n": list(n),
            "coeffs": [rat_str(c) for c in p]}


def matrix_json(alphas, orders) -> dict:
    a, n = _check_pair(alphas, orders)
    mat = hermite_matrix(a, n)
    return {"alphas": [rat_str(x) for x in a], "n": list(n),
            "matrix": [[rat_str(x) for x in row] for row in mat],
            "det": rat_str(mat_det(mat))}
