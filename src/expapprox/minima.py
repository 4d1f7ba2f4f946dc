"""Lattice minima and convex-body volumes for exponential approximation.

The central family (for e^3): bodies

    C_n = {(x,y): |x| <= (2n)!/(n! 3^{n/2}),  |x e^3 - y| <= (3/2)^{2n}/(n! 3^{n/2})}

against the lattices  L_n = {(x,y) in Z^2 : x e^3 = y mod 3^n}.  All minima
comparisons are exact: the basis reduction and the window gauges are
integers over one common denominator, and the window scores only the half
of its points before (0, 0), along arithmetic progressions, as the gauge is
centrally symmetric.  e^3 enters only as an interval that is refined until
every comparison separates.  Internally the bodies are rescaled by 3^{n/2}
so that all bounds are rational.

The interval type and the interval exponential live in ``interval``.  Also
here: the rescaled adelic body of the diagonal case, Archimedean body specs
with quadrature form bounds, and hit-or-miss Monte-Carlo volume estimates
with a pair-form importance region.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import Undecided
from .hermite import check_alphas, mahler_det
from .interval import RealInterval, exp_interval, root_pow_interval
from .padic import PAdicContext, delta_exponent, padic_exp, val_rational


class PrecisionExhausted(Undecided):
    """The minima or the sandwich need more precision than is available."""


class WindowChanged(PrecisionExhausted):
    """The minima of the window differ from those of the doubled window."""


# ---------------------------------------------------------------------------
# the e^3 body/lattice family and two-dimensional minima
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Body2:
    """Centrally symmetric body max(|x|/X, |x E - y|/Y) <= 1, rescaled rational.

    The true bounds are scaled_x / root^{power/2} and scaled_form / root^{power/2};
    keeping the common factor root^{power/2} out makes both bounds rational.
    """

    scaled_x: Fraction
    scaled_form: Fraction
    root: int = 3
    power: int = 0

    def bound_x(self, bits: int = 64) -> RealInterval:
        r = root_pow_interval(self.root, Fraction(self.power, 2), bits)
        return RealInterval(self.scaled_x / r.hi, self.scaled_x / r.lo)

    def bound_form(self, bits: int = 64) -> RealInterval:
        r = root_pow_interval(self.root, Fraction(self.power, 2), bits)
        return RealInterval(self.scaled_form / r.hi, self.scaled_form / r.lo)

    @property
    def scaled_area(self) -> Fraction:
        return 4 * self.scaled_x * self.scaled_form


def e3_body(n: int) -> Body2:
    """The n-th body of the e^3 family, rescaled by 3^{n/2}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fac = math.factorial(n)
    return Body2(scaled_x=Fraction(math.factorial(2 * n), fac),
                 scaled_form=Fraction(9, 4) ** n / fac,
                 root=3, power=n)


@dataclass(frozen=True)
class Lattice2:
    """{(x, y) in Z^2 : x * e^alpha = y mod p^n}, basis (1, residue), (0, p^n)."""

    p: int
    n: int
    residue: int

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    @property
    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (1, self.residue), (0, self.modulus)

    def contains(self, x: int, y: int) -> bool:
        return (x * self.residue - y) % self.modulus == 0


def exp_lattice(n: int, p: int, alpha) -> Lattice2:
    res = padic_exp(PAdicContext(p, n), Fraction(alpha)).residue
    return Lattice2(p=p, n=n, residue=res)


@dataclass
class Minima2Result:
    lam1: RealInterval
    lam2: RealInterval
    witness1: tuple[int, int]
    witness2: tuple[int, int]
    bits: int


def _gauss_reduce(body: Body2, lat: Lattice2, m: Fraction):
    """Gauss-reduced basis of the lattice under the body gauge at E = m.

    With X = Xn/Xd, Y = Yn/Yd and m = mn/md, the gauge times Xn md Yn is the
    integer max(|x| Xd md Yn, |x mn - y md| Yd Xn), and the shift candidates
    are integer floor and ceiling quotients, so every step compares integers.
    """
    X, Y = body.scaled_x, body.scaled_form
    mn, md = m.numerator, m.denominator
    cx, cy = X.denominator * md * Y.numerator, Y.denominator * X.numerator

    def gauge(v):
        return max(abs(v[0]) * cx, abs(v[0] * mn - v[1] * md) * cy)

    a, b = lat.basis
    for _ in range(128):
        if gauge(a) > gauge(b):
            a, b = b, a
        # integer shifts minimizing either defining form of b - q a
        cands = {0}
        for num, den in ((b[0], a[0]), (b[0] * mn - b[1] * md, a[0] * mn - a[1] * md)):
            if den:
                cands.update((num // den, -(-num // den)))
        best_q, best_n = 0, gauge(b)
        for q0 in cands:
            for q in (q0 - 1, q0, q0 + 1):
                if q == 0:
                    continue
                nv = gauge((b[0] - q * a[0], b[1] - q * a[1]))
                if nv < best_n:
                    best_q, best_n = q, nv
        if best_q == 0:
            return a, b
        b = (b[0] - best_q * a[0], b[1] - best_q * a[1])
    raise PrecisionExhausted("basis reduction did not settle")


def _select_minima(den: int, pts):
    """lam1, lam2 enclosures and witnesses from scored points in loop order.

    Each witness is the first point with the least (hi, lo) gauge; the lower
    ends are the least lo over the candidates.  Gauges are integers over den.
    """
    hi1, _, x1, y1, _ = min(pts, key=operator.itemgetter(0, 1))
    lo1 = min(t[1] for t in pts)
    # second minimum: points independent from the first witness
    indep = [t for t in pts if t[2] * y1 - t[3] * x1 != 0]
    hi2, _, x2, y2, _ = min(indep, key=operator.itemgetter(0, 1))
    lo2 = min(t[1] for t in indep)  # >= lo1, as indep is a subset of pts
    return (RealInterval(Fraction(lo1, den), Fraction(hi1, den)),
            RealInterval(Fraction(lo2, den), Fraction(hi2, den)), (x1, y1), (x2, y2))


def _enumerate_minima(body: Body2, lat: Lattice2, E: RealInterval, *windows: int):
    """(lam1, lam2, witness1, witness2) for each coefficient window in windows.

    The largest window is scored once around the reduced basis; a smaller
    window reads its answer from the inner points, whose loop order is a
    sub-order of the outer one, so its witnesses and ties are its own.
    Every gauge is an exact integer over den = Xn D Yn, with X = Xn/Xd,
    Y = Yn/Yd and D the common denominator of E.lo and E.hi:

        |x|/X -> |x| Xd D Yn,    |x E - y|/Y -> |x e - y D| Yd Xn  (e = E D).

    The gauge is centrally symmetric and in loop order each point before
    (0, 0) comes before its mirror, so only that half is scored: it holds the
    first least gauges and least lower ends of every window.  Along pb, x, y
    and the scaled ends of x e - y D are progressions: each point is additions.
    """
    (a0, a1), (b0, b1) = _gauss_reduce(body, lat, E.mid)
    X, Y = body.scaled_x, body.scaled_form
    d = math.lcm(E.lo.denominator, E.hi.denominator)
    e_lo = E.lo.numerator * (d // E.lo.denominator)
    e_hi = E.hi.numerator * (d // E.hi.denominator)
    cx, cy = X.denominator * d * Y.numerator, Y.denominator * X.numerator
    # steps along pb of x Xd D Yn and of (x e - y D) Yd Xn at both ends of E
    sx, s_lo, s_hi = b0 * cx, (b0 * e_lo - b1 * d) * cy, (b0 * e_hi - b1 * d) * cy
    w = max(windows)
    pts = []  # (hi, lo, x, y, max(|pa|, |pb|)) in loop order, pa < 0 or pa = 0 > pb
    for pa in range(-w, 1):
        x, y = pa * a0 - w * b0, pa * a1 - w * b1
        gx, t_lo, t_hi = x * cx, (x * e_lo - y * d) * cy, (x * e_hi - y * d) * cy
        for pb in range(-w, w + 1 if pa else 0):
            lo, hi = (t_lo, t_hi) if x >= 0 else (t_hi, t_lo)
            if hi <= 0:
                lo, hi = -hi, -lo
            elif lo < 0:
                lo, hi = 0, max(-lo, hi)
            g = abs(gx)
            pts.append((max(g, hi), max(g, lo), x, y, max(-pa, abs(pb))))
            x, y, gx, t_lo, t_hi = x + b0, y + b1, gx + sx, t_lo + s_lo, t_hi + s_hi
    den = X.numerator * d * Y.numerator
    return [_select_minima(den, pts if v == w else [t for t in pts if t[4] <= v])
            for v in windows]


def minima2(body: Body2, lat: Lattice2, E: RealInterval,
            window: int = 32, bits: int = 192) -> Minima2Result:
    """First and second minima of the body with respect to the lattice.

    Reduces the basis under the body gauge, scores the doubled coefficient
    window around it once, in exact integers, and returns interval
    enclosures of the minima with the witness points.  The window's answer
    is read from the inner points and the doubled window's answer is its
    sufficiency re-check; a changing answer raises WindowChanged, so the
    caller can retry with a narrower E.
    """
    (l1, l2, w1, w2), (l1d, l2d, _, _) = _enumerate_minima(body, lat, E, window, 2 * window)
    if l1d.hi != l1.hi or l2d.hi != l2.hi:
        raise WindowChanged("minima enumeration window answer changed")
    return Minima2Result(l1, l2, w1, w2, bits)


@dataclass
class SandwichRow:
    n: int
    lam1: float           # true minima (unscaled body)
    lam2: float
    product: float        # lam1 * lam2 * area / covolume
    trend_low: float      # lam1 * n^2
    trend_high: float     # lam2 / n^2
    witness1: tuple[int, int]
    witness2: tuple[int, int]
    ok: bool
    lam1_scaled: RealInterval | None = None   # enclosures for the rescaled body
    lam2_scaled: RealInterval | None = None


@dataclass
class SandwichTable:
    rows: list[SandwichRow]
    lower: float = 2.0
    upper: float = 4.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def bounding_constant(self) -> float:
        """Smallest c with (c n^2)^{-1} <= lam1 <= lam2 <= c n^2 across the rows."""
        return max(max(1.0 / r.trend_low for r in self.rows),
                   max(r.trend_high for r in self.rows))


def sandwich_row(n: int, bits: int = 192) -> SandwichRow:
    """Exact minima of the n-th e^3 body with the Minkowski check

        2 <= lam1 * lam2 * area(C_n) / covol(L_n) <= 4.

    The product is evaluated as an interval.  The bits of e^3 start at
    max(bits, 8n) and double until minima2 answers and the comparison
    separates.
    """
    body = e3_body(n)
    lat = exp_lattice(n, 3, 3)
    mu = body.scaled_area / Fraction(3) ** n  # area/covol, scaling cancels
    b = max(bits, 8 * n)
    while True:
        try:
            res = minima2(body, lat, exp_interval(Fraction(3), b), bits=b)
        except WindowChanged:
            pass
        else:
            prod_lo = res.lam1.lo * res.lam2.lo * mu
            prod_hi = res.lam1.hi * res.lam2.hi * mu
            ok = prod_lo >= 2 and prod_hi <= 4
            if ok or prod_hi < 2 or prod_lo > 4:
                break
        b *= 2
        if b > 1 << 16:
            raise PrecisionExhausted(f"sandwich undecided at n={n}")
    scale = root_pow_interval(3, Fraction(n, 2), 64)
    lam1 = float(res.lam1.mid * scale.mid)
    lam2 = float(res.lam2.mid * scale.mid)
    return SandwichRow(
        n=n, lam1=lam1, lam2=lam2,
        product=float((prod_lo + prod_hi) / 2),
        trend_low=lam1 * n * n, trend_high=lam2 / (n * n),
        witness1=res.witness1, witness2=res.witness2, ok=ok,
        lam1_scaled=res.lam1, lam2_scaled=res.lam2)


def minima_sandwich(nmax: int, bits: int = 192) -> SandwichTable:
    """The sandwich rows n = 1..nmax of the e^3 family (see sandwich_row)."""
    return SandwichTable([sandwich_row(n, bits) for n in range(1, nmax + 1)])


# ---------------------------------------------------------------------------
# the rescaled adelic body of the diagonal case
# ---------------------------------------------------------------------------


@dataclass
class ScaledAdelicBody:
    """Component bounds of the rescaled diagonal body for (0, alpha).

    g counts the Archimedean place plus the primes where |alpha|_p != 1;
    B = prod B_p^{-1} is kept as exact prime powers with rational exponents.
    """

    alpha: Fraction
    n: int
    g: int
    b_exponents: dict[int, Fraction]      # B = prod p^{e_p}, e_p >= 0
    convergent_primes: list[int]          # primes with |alpha|_p < p^{-1/(p-1)}
    unit_primes: list[int]                # remaining primes of E

    def log_b(self) -> float:
        return sum(float(e) * math.log(p) for p, e in self.b_exponents.items())

    def arch_bounds(self) -> tuple[float, float]:
        """(bound on |x|, bound on |x e^alpha - y|) at the real place."""
        n, g = self.n, self.g
        bn = math.exp(n * self.log_b())
        aa = abs(float(self.alpha))
        box = n ** (g - 1) * bn * math.factorial(2 * n) / (aa ** n * math.factorial(n))
        form = n ** g * bn * aa ** n / (4.0 ** n * math.factorial(n))
        return box, form

    def ultra_bound(self, p: int) -> Fraction:
        """Exponent e with |x e^alpha - y|_p <= p^e on the convergent component."""
        if p not in self.convergent_primes:
            raise ValueError(f"{p} is not a convergent prime for alpha={self.alpha}")
        return 2 * self.n * -self.b_exponents[p]


def scaled_adelic_body(alpha, n: int) -> ScaledAdelicBody:
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = set()
    for m in (alpha.numerator, alpha.denominator):
        m = abs(m)
        d = 2
        while d * d <= m:
            if m % d == 0:
                primes.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.add(m)
    b_exponents: dict[int, Fraction] = {}
    convergent, units = [], []
    for p in sorted(primes):
        v = Fraction(val_rational(p, alpha))
        # B_p = min(1, p^{1/(p-1)} |alpha|_p) = p^{min(0, 1/(p-1) - v)}
        e = min(Fraction(0), delta_exponent(p) - v)
        if e < 0:
            b_exponents[p] = -e
            convergent.append(p)
        else:
            units.append(p)
    g = 1 + len(primes)
    return ScaledAdelicBody(alpha=alpha, n=n, g=g, b_exponents=b_exponents,
                            convergent_primes=convergent, unit_primes=units)


# ---------------------------------------------------------------------------
# Archimedean bodies and Monte-Carlo volume
# ---------------------------------------------------------------------------


@dataclass
class ArchBodySpec:
    """Real body: |x_i| <= box_bounds[i] and |x_i e^{a_j - a_i} - x_j| <= forms[i,j]."""

    alphas: tuple[float, ...]
    orders: tuple[int, ...]
    box_bounds: tuple[float, ...]
    forms: dict[tuple[int, int], float]
    e_values: dict[tuple[int, int], float]
    e_intervals: dict[tuple[int, int], RealInterval] = field(default_factory=dict)

    @property
    def s(self) -> int:
        return len(self.alphas)


def _descent_factor_value(alphas, orders, drop, z):
    w = 1.0
    for t, (a, m) in enumerate(zip(alphas, orders)):
        w *= (z - a) ** (m - (1 if t == drop else 0))
    return w


def archimedean_body(alphas: Sequence, orders: Sequence[int], bits: int = 64) -> ArchBodySpec:
    """Pair-form bounds by adaptive quadrature along each segment [a_i, a_j].

    b_ij = max_k | integral of f_{n-e_k}(z) e^{a_j - z} dz |; box bounds are
    e^R (N-1)! with R the largest pairwise distance.
    """
    from scipy.integrate import quad  # imported here: no other command needs scipy

    a = check_alphas(alphas)
    n = tuple(int(x) for x in orders)
    if any(x < 1 for x in n):
        raise ValueError("orders must be >= 1")
    s = len(a)
    N = sum(n)
    af = [float(x) for x in a]
    R = max(abs(x - y) for x in af for y in af)
    if R + math.lgamma(N) >= math.log(sys.float_info.max):
        raise ValueError(f"box bound e^R (N-1)! for R={R:g}, N={N} exceeds the float range")
    box = math.exp(R) * math.factorial(N - 1)
    forms: dict[tuple[int, int], float] = {}
    evals: dict[tuple[int, int], float] = {}
    eints: dict[tuple[int, int], RealInterval] = {}
    for i in range(s):
        for j in range(s):
            if i == j:
                continue
            best = 0.0
            for k in range(s):
                val, err = quad(
                    lambda z: _descent_factor_value(af, n, k, z) * math.exp(af[j] - z),
                    af[i], af[j], limit=200)
                if err > 1e-8 * (abs(val) + 1.0):
                    raise ArithmeticError(f"quadrature failed on segment ({i},{j})")
                best = max(best, abs(val))
            forms[(i, j)] = best
            eints[(i, j)] = exp_interval(a[j] - a[i], bits)
            evals[(i, j)] = float(eints[(i, j)])
    return ArchBodySpec(alphas=tuple(af), orders=n, box_bounds=(box,) * s,
                        forms=forms, e_values=evals, e_intervals=eints)


@dataclass
class MCVolume:
    estimate: float
    stderr: float
    hits: int
    samples: int
    region_volume: float
    seed: int

    def three_sigma(self) -> tuple[float, float]:
        return self.estimate - 3 * self.stderr, self.estimate + 3 * self.stderr


# fixed, so the derived chunk seeds (and the hits) do not depend on the workers
MC_CHUNKS = 16


def mc_volume(spec: ArchBodySpec, samples: int = 1_000_000, seed: int = 42) -> MCVolume:
    """Hit-or-miss estimate of the body volume.

    Samples uniformly in the parallelepiped cut out by |x_1| <= box_1 and the
    chain forms |x_i e^{a_{i+1} - a_i} - x_{i+1}| <= b_{i,i+1} (unimodular in
    the coordinates, and a superset of the body), then tests full membership.
    Sampling splits into MC_CHUNKS derived-seed chunks whatever the worker
    count, so the result is independent of it.  EXPAPPROX_THREADS asks for
    workers; at most min(MC_CHUNKS, os.cpu_count()) run.
    """
    import numpy as np  # imported here: only volume needs numpy in this module

    s = spec.s
    if s < 2:
        raise ValueError("need s >= 2")
    chain = [(i, i + 1) for i in range(s - 1)]
    widths = [spec.box_bounds[0]] + [spec.forms[e] for e in chain]
    if any(w <= 0 for w in widths):
        raise ValueError("degenerate sampling region")
    region = 1.0
    for w in widths:
        region *= 2.0 * w

    v = os.environ.get("EXPAPPROX_THREADS", "1")
    try:
        threads = max(1, int(v))
    except ValueError:
        raise ValueError(f"EXPAPPROX_THREADS must be an integer, got {v!r}") from None
    workers = min(threads, MC_CHUNKS, os.cpu_count() or 1)
    base = samples // MC_CHUNKS
    sizes = [base + (1 if c < samples % MC_CHUNKS else 0) for c in range(MC_CHUNKS)]

    def run_chunk(c: int, size: int) -> int:
        if size == 0:
            return 0
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        u = rng.uniform(-1.0, 1.0, size=(size, s))
        x = np.empty((size, s))
        x[:, 0] = u[:, 0] * widths[0]
        for idx, (i, j) in enumerate(chain):
            x[:, j] = x[:, i] * spec.e_values[(i, j)] - u[:, idx + 1] * widths[idx + 1]
        ok = np.ones(size, dtype=bool)
        for i in range(s):
            ok &= np.abs(x[:, i]) <= spec.box_bounds[i]
        for (i, j), b in spec.forms.items():
            ok &= np.abs(x[:, i] * spec.e_values[(i, j)] - x[:, j]) <= b
        return int(ok.sum())

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            hits = sum(ex.map(run_chunk, range(MC_CHUNKS), sizes))
    else:
        hits = sum(run_chunk(c, sz) for c, sz in enumerate(sizes))

    p = hits / samples
    est = region * p
    err = region * math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return MCVolume(estimate=est, stderr=err, hits=hits, samples=samples,
                    region_volume=region, seed=seed)


def volume_sandwich(alphas: Sequence, orders: Sequence[int]) -> tuple[float, float]:
    """[(s!)^{-1} |D_n|, c N^{2s-2} |D_n|] with the explicit Archimedean constant

        c = 2^s e^{sR} (2 pi R^s)^{s-1} / |D_1|,

    where D_n is the closed-form determinant of the neighbouring-point matrix.
    """
    a = check_alphas(alphas)
    n = tuple(int(x) for x in orders)
    s = len(a)
    N = sum(n)
    d_n = abs(float(mahler_det(a, n)))
    d_1 = abs(float(mahler_det(a, (1,) * s)))
    af = [float(x) for x in a]
    R = max(abs(x - y) for x in af for y in af)
    c = 2.0 ** s * math.exp(s * R) * (2.0 * math.pi * R ** s) ** (s - 1) / d_1
    return d_n / math.factorial(s), c * N ** (2 * s - 2) * d_n
