"""Rational intervals: the interval exponential and rational powers.

``exp_interval`` encloses e^alpha for rational alpha by binary splitting of
the Taylor series with an explicit tail bound; ``root_pow_interval`` encloses
base**expo for rational expo by integer Newton roots.  Both round outward to
dyadic endpoints.  Shared by the continued-fraction checks (``cf``) and the
lattice minima (``minima``); this module imports only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RealInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.mid)

    def rounded(self, bits: int = 48) -> "RealInterval":
        return _round_interval(self.lo, self.hi, bits)

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}


def _round_interval(lo: Fraction, hi: Fraction, bits: int) -> RealInterval:
    # outward rounding to denominators 2^bits keeps later arithmetic light
    scale = 1 << bits
    return RealInterval(Fraction(math.floor(lo * scale), scale),
                        Fraction(math.ceil(hi * scale), scale))


def _series_split(alpha: Fraction, a: int, b: int) -> tuple[Fraction, Fraction]:
    """(R, F) with R = sum_{k=a}^{b-1} alpha^{k-a} a!/k!  and  F = alpha^{b-a} a!/b!."""
    if b - a == 1:
        return Fraction(1), alpha / b
    m = (a + b) // 2
    r1, f1 = _series_split(alpha, a, m)
    r2, f2 = _series_split(alpha, m, b)
    return r1 + f1 * r2, f1 * f2


def exp_interval(alpha, bits: int = 64) -> RealInterval:
    """Interval of width <= 2^-bits around e^alpha, by binary splitting.

    Negative alpha goes through the reciprocal with outward rounding.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        return RealInterval(Fraction(1), Fraction(1))
    if alpha < 0:
        inv = exp_interval(-alpha, bits)
        return _round_interval(1 / inv.hi, 1 / inv.lo, bits + 2)
    # term count: tail after M terms is < 2 * alpha^M / M! once M >= 2 alpha
    eps_log = -(bits + 2) * math.log(2.0)
    la = math.log(float(alpha)) if alpha > 1 else math.log(float(alpha) + 1e-12)
    m = max(8, 2 * math.ceil(alpha) + 2)
    while m * la - math.lgamma(m + 1) + math.log(2.0) > eps_log:
        m += max(4, m // 8)
    total, _ = _series_split(alpha, 0, m)
    tail = 2 * alpha ** m / math.factorial(m)
    return _round_interval(total, total + tail, bits + 2)


def nth_root_int(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0 by Newton iteration on integers."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << (x.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def root_pow_interval(base: int, expo: Fraction, bits: int = 64) -> RealInterval:
    """Interval around base**expo for rational expo >= 0."""
    expo = Fraction(expo)
    if expo < 0:
        inv = root_pow_interval(base, -expo, bits)
        return _round_interval(1 / inv.hi, 1 / inv.lo, bits + 2)
    a, b = expo.numerator, expo.denominator
    scale = 1 << bits
    lo = nth_root_int(base ** a * scale ** b, b)
    return RealInterval(Fraction(lo, scale), Fraction(lo + 1, scale))
