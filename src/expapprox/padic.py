"""Exact p-adic valuations, exponential residues, and ultrametric bounds.

Absolute values |x|_p = p^{-v} are carried as rational exponents v (class
LogAbs), never as floats, so comparisons against the convergence radius
delta = p^{-1/(p-1)} are exact.  Bounds of the shape  |x|_p <= c * p^{-q}
with an integer scale c are decided by exact integer power comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import Undecided
from .hermite import check_alphas, derivative_sum_poly, poly_eval


class DivergenceError(ValueError):
    """Exponential series does not converge at the requested point."""


class PrecisionExhausted(Undecided):
    """A comparison needs more p-adic precision than is available."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def val_factorial(p: int, k: int) -> int:
    """Legendre valuation of k!: sum of floor(k / p^l)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    m = 0
    q = p
    while q <= k:
        m += k // q
        q *= p
    return m


def val_int(p: int, n: int) -> int | float:
    if n == 0:
        return float("inf")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_rational(p: int, x) -> int | float:
    """v with x = p^v * unit; +inf for x = 0."""
    x = Fraction(x)
    if x == 0:
        return float("inf")
    return val_int(p, x.numerator) - val_int(p, x.denominator)


# ---------------------------------------------------------------------------
# exact absolute values p^{-exponent}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogAbs:
    """An absolute value p^{-exponent}, or 0 when zero is set."""

    exponent: Fraction = Fraction(0)
    zero: bool = False

    @classmethod
    def of_rational(cls, p: int, x) -> "LogAbs":
        v = val_rational(p, x)
        if v == float("inf"):
            return cls(zero=True)
        return cls(Fraction(v))

    @classmethod
    def of_valuation(cls, v) -> "LogAbs":
        if v == float("inf"):
            return cls(zero=True)
        return cls(Fraction(v))

    def __mul__(self, other: "LogAbs") -> "LogAbs":
        if self.zero or other.zero:
            return LogAbs(zero=True)
        return LogAbs(self.exponent + other.exponent)

    def __pow__(self, k: int) -> "LogAbs":
        if self.zero:
            if k <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return self
        return LogAbs(self.exponent * k)

    def __le__(self, other: "LogAbs") -> bool:
        if self.zero:
            return True
        if other.zero:
            return False
        return self.exponent >= other.exponent

    def __lt__(self, other: "LogAbs") -> bool:
        return self <= other and self != other


def logabs_max(a: LogAbs, b: LogAbs) -> LogAbs:
    return b if a <= b else a


def delta_exponent(p: int) -> Fraction:
    """Exponent of the convergence radius delta = p^{-1/(p-1)}."""
    return Fraction(1, p - 1)


def delta_compare(p: int, e) -> int:
    """Order p^{-e} against delta: -1 below (series converges), 0 on it, +1 above."""
    d = Fraction(e) * (p - 1)
    return -1 if d > 1 else (0 if d == 1 else 1)


def bounded_by(p: int, lhs: LogAbs, rhs: LogAbs, scale: int = 1) -> bool:
    """Exact test of  lhs <= scale * rhs  with an integer scale >= 1.

    Reduces to p^d <= scale with d = rhs.exponent - lhs.exponent, decided by
    integer exponentiation.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if lhs.zero:
        return True
    if rhs.zero:
        return False
    d = rhs.exponent - lhs.exponent
    if d <= 0:
        return True
    return p ** d.numerator <= scale ** d.denominator


# ---------------------------------------------------------------------------
# p-adic exponential residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PAdicContext:
    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 1:
            raise ValueError("precision k must be >= 1")


@dataclass(frozen=True)
class PAdicApprox:
    """Residue modulo p^k.  exact_valuation is None when only >= k is known."""

    p: int
    k: int
    residue: int

    @property
    def exact_valuation(self) -> int | None:
        if self.residue % self.p ** self.k == 0:
            return None
        return int(val_int(self.p, self.residue % self.p ** self.k))

    def logabs(self) -> LogAbs:
        """Largest possible absolute value; exact when the residue is nonzero."""
        v = self.exact_valuation
        return LogAbs(Fraction(self.k if v is None else v))

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "residue": str(self.residue)}


def padic_exp(ctx: PAdicContext, alpha) -> PAdicApprox:
    """Residue of sum alpha^m / m! modulo p^k.

    The term count comes from the exact tail bound: every dropped term has
    valuation m*v - val_p(m!) >= m*(v - 1/(p-1)) >= k.
    """
    p, k = ctx.p, ctx.k
    alpha = Fraction(alpha)
    if alpha == 0:
        return PAdicApprox(p, k, 1 % p ** k)
    v = val_rational(p, alpha)
    if delta_compare(p, Fraction(v)) >= 0:
        raise DivergenceError(f"exp series diverges at {alpha} for p={p}")
    gap = Fraction(v) - delta_exponent(p)  # > 0
    m_max = int(Fraction(k) / gap) + 1
    while m_max * v - val_factorial(p, m_max) < k:
        m_max += 1
    total = Fraction(0)
    term = Fraction(1)
    for m in range(m_max):
        total += term
        term = term * alpha / (m + 1)
    # total is p-integral: its reduced denominator is prime to p
    mod = p ** k
    den_inv = pow(total.denominator % mod, -1, mod)
    return PAdicApprox(p, k, (total.numerator % mod) * den_inv % mod)


# ---------------------------------------------------------------------------
# ultrametric bounds on derivative-sum values
# ---------------------------------------------------------------------------

HOLDS = "holds"
SKIPPED = "skipped"


@dataclass
class UltrametricBoundsReport:
    p: int
    k: int
    plain: str          # |P_n(a_i)| <= p^2 N prod max{|a_i-a_k|, delta}^{n_k}
    factorial: str      # |P_n(a_i)| <= |n_i!|  (when all |a_i-a_k| <= 1)
    mixed: str          # |P_n(a_i) e^{a_j-a_i} - P_n(a_j)| bound (when 0<rho<delta)

    @property
    def all_hold(self) -> bool:
        return all(s in (HOLDS, SKIPPED) for s in (self.plain, self.factorial, self.mixed))


def check_ultrametric_bounds(alphas: Sequence, orders: Sequence[int],
                             i: int, j: int, ctx: PAdicContext) -> UltrametricBoundsReport:
    """Verify the three ultrametric estimates for the pair (i, j), 1-based.

    All comparisons are exact in LogAbs arithmetic.  The mixed bound needs the
    p-adic exponential of alpha_j - alpha_i; when the left side's valuation is
    only known as ">= k", and that is not enough to decide the bound, raises
    PrecisionExhausted so the caller can retry with a larger k.
    """
    a = check_alphas(alphas)
    n = tuple(int(x) for x in orders)
    if len(a) != len(n):
        raise ValueError("length mismatch")
    if any(x < 0 for x in n):
        raise ValueError("orders must be non-negative")
    s = len(a)
    if not (1 <= i <= s and 1 <= j <= s and i != j):
        raise ValueError("need distinct 1-based indices i, j")
    p, k = ctx.p, ctx.k
    i -= 1
    j -= 1
    N = sum(n)
    dexp = delta_exponent(p)
    delta = LogAbs(dexp)

    pn = derivative_sum_poly(a, n)
    pi_val = poly_eval(pn, a[i])
    pj_val = poly_eval(pn, a[j])
    lhs_plain = LogAbs.of_rational(p, pi_val)

    # plain bound: scale p^2 N, product of max{|a_i-a_k|, delta}^{n_k}
    rhs = LogAbs(Fraction(0))
    for t in range(s):
        rhs = rhs * logabs_max(LogAbs.of_rational(p, a[i] - a[t]), delta) ** n[t]
    rhs = rhs * LogAbs(Fraction(-2))  # p^2
    plain = HOLDS if bounded_by(p, lhs_plain, rhs, scale=max(N, 1)) else "violated"

    # factorial bound, applicable when all |a_i - a_k| <= 1
    if all(LogAbs.of_rational(p, a[i] - a[t]) <= LogAbs(Fraction(0)) for t in range(s) if t != i):
        fact = HOLDS if bounded_by(p, lhs_plain, LogAbs(Fraction(val_factorial(p, n[i])))) else "violated"
    else:
        fact = SKIPPED

    # mixed bound, applicable when 0 < rho < delta
    rho = LogAbs.of_rational(p, a[i] - a[j])
    if rho.zero or not rho < delta:
        mixed = SKIPPED
    else:
        expo = padic_exp(ctx, a[j] - a[i])
        # rescale by p^{-shift} so both P values become p-integral; the residue
        # of the difference is then known modulo p^k, i.e. the true value
        # modulo p^{k+shift}
        shift = min(0, val_rational(p, pi_val), val_rational(p, pj_val))
        shift = 0 if shift == float("inf") else int(shift)
        scale_pow = Fraction(p) ** (-shift)
        mod = p ** k
        vals = []
        for val in (pi_val, pj_val):
            q = val * scale_pow
            vals.append(q.numerator * pow(q.denominator % mod, -1, mod) % mod)
        num = (vals[0] * expo.residue - vals[1]) % mod
        if num:
            lhs_mixed = LogAbs(Fraction(int(val_int(p, num)) + shift))
            exact = True
        else:
            lhs_mixed = LogAbs(Fraction(k + shift))
            exact = False
        rhs = LogAbs(rho.exponent - dexp)  # rho / delta
        for t in range(s):
            best = logabs_max(LogAbs.of_rational(p, a[i] - a[t]),
                              LogAbs.of_rational(p, a[j] - a[t]))
            rhs = rhs * best ** n[t]
        rhs = rhs * LogAbs(Fraction(-2))
        if bounded_by(p, lhs_mixed, rhs, scale=max(N, 1)):
            mixed = HOLDS
        elif not exact:
            raise PrecisionExhausted(f"mixed bound undecided at precision k={k}")
        else:
            mixed = "violated"

    return UltrametricBoundsReport(p=p, k=k, plain=plain, factorial=fact, mixed=mixed)


def check_ultrametric_bounds_auto(alphas, orders, i, j, p: int,
                                  k0: int = 8, k_max: int = 512) -> UltrametricBoundsReport:
    """check_ultrametric_bounds with automatic precision escalation."""
    k = k0
    while True:
        try:
            return check_ultrametric_bounds(alphas, orders, i, j, PAdicContext(p, k))
        except PrecisionExhausted:
            k *= 2
            if k > k_max:
                raise
