"""Streaming continued fraction of e^a for rational a > 0.

The engine multiplies the 2x2 integer cascade matrices

    C_i = b * ((2i-1-a/b, 2i-1), (2i-1, 2i-1+a/b)),   alpha = a/b,

whose running product has rows proportional to neighbouring Hermite
approximation points for the pair (0, alpha).  Both row ratios t/u and t'/u'
converge to e^{-alpha}, so the shared leading partial quotients of the two
ratios are partial quotients of e^{-alpha} = [0, a_1, a_2, ...], equivalently
of e^{alpha} = [a_1, a_2, ...].  Quotients are peeled off whenever the two
floor divisions agree, keeping only a small "reduced" remainder matrix.

Matrices live in the domain  0 <= t < u, 0 <= t' < u', t u' != t' u,  which
is closed under multiplication and under quotient peeling.  The iteration
starts at the first index where the accumulated product enters the domain
(the very first factors may have a negative entry).

Two devices keep the big-integer work small (the matrix streaming of Gosper,
HAKMEM item 101, with Lehmer-style peeling):

* Batched cascade: each `step` multiplies a batch of cascade factors into one
  small product, multiplies that into the remainder, and strips the content
  once.  The batch grows with the cascade index, up to MAX_BATCH factors.
* Windowed peel: once the entries are wider than WINDOW_GATE_BITS,
  `extract_quotients` reads the top WINDOW_BITS bits of all four entries.
  They bound each row ratio u/t in an open interval, and every quotient on
  which all four bounding ratios agree is a shared quotient of the exact rows.
  Those quotients are applied to the big entries as one 2x2 transform; when
  the window certifies none, one exact step decides.  Either way the peeled
  quotients are exactly those of the shared-floor rule.

`stream_cf` carries the one ln(q) recurrence of the package and yields
(n, a_n, ln q_{n-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .interval import exp_interval

Mat2 = tuple[int, int, int, int]  # rows (t, u), (t', u')

IDENT: Mat2 = (1, 0, 0, 1)

MAX_BATCH = 64          # cascade factors multiplied per step, at most
WINDOW_BITS = 62        # leading bits read by the windowed peel
# Entries no wider than this are peeled exactly; it must exceed WINDOW_BITS.
# The window is already faster at 512 bits; 4096 keeps a perfbench cf_long
# pass above the floor its fixed pass count sets (ROADMAP item 6).
WINDOW_GATE_BITS = 4096


def cascade_matrix(i: int, alpha) -> Mat2:
    """Denominator-cleared cascade factor b*C_i; needs alpha > 0."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a, b = alpha.numerator, alpha.denominator
    w = b * (2 * i - 1)
    return (w - a, w, w, w + a)


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def in_domain(m: Mat2) -> bool:
    t, u, tp, up = m
    return 0 <= t < u and 0 <= tp < up and t * up != tp * u


def strip_content(m: Mat2) -> tuple[Mat2, int]:
    g = gcd(*m)
    if g > 1:
        return (m[0] // g, m[1] // g, m[2] // g, m[3] // g), g
    return m, 1


def is_reduced(m: Mat2) -> bool:
    """No shared leading quotient: t = 0 or t' = 0 or the floors differ."""
    if not in_domain(m):
        raise ValueError("matrix outside the reduction domain")
    t, u, tp, up = m
    return t == 0 or tp == 0 or u // t != up // tp


def _window_quotients(t: int, u: int, tp: int, up: int) -> tuple[list[int], Mat2]:
    """Quotients shared by every ratio of rows whose leading bits are (t, u), (t', u').

    With the dropped bits unknown, u/t lies strictly inside
    (u/(t+1), (u+1)/t), and likewise for the second row.  The quotients on
    which the lowest and the highest of these four bounds agree are shared by
    both exact rows.  Returns them with (A, B, C, D) such that peeling them
    maps a row (t, u) to (C u + D t, A u + B t).
    """
    if t == 0 or tp == 0:
        return [], IDENT
    # the hull of both intervals as fractions ln/ld < hn/hd
    if u * (tp + 1) <= up * (t + 1):
        ln, ld = u, t + 1
    else:
        ln, ld = up, tp + 1
    if (u + 1) * tp >= (up + 1) * t:
        hn, hd = u + 1, t
    else:
        hn, hd = up + 1, tp
    A, B, C, D = IDENT
    out: list[int] = []
    while True:
        a = ln // ld
        if hn // hd != a:
            break
        out.append(a)
        A, B, C, D = C, D, A - a * C, B - a * D
        r = ln - a * ld
        if r == 0:  # the hull now reaches infinity
            break
        # x -> 1/(x - a) is decreasing: the ends swap
        ln, ld, hn, hd = hd, hn - a * hd, ld, r
    return out, (A, B, C, D)


def extract_quotients(m: Mat2) -> tuple[Mat2, list[int]]:
    """Peel shared quotients:  m = reduced * (0 1 / 1 a_k) ... (0 1 / 1 a_1)."""
    if not in_domain(m):
        raise ValueError("matrix outside the reduction domain")
    t, u, tp, up = m
    out: list[int] = []
    guard = 4 * max(u, up).bit_length() + 8
    while t > 0 and tp > 0:
        guard -= 1
        assert guard > 0, "quotient peeling failed to terminate"
        bits = max(u, up).bit_length()
        if bits > WINDOW_GATE_BITS:
            s = bits - WINDOW_BITS
            qs, (A, B, C, D) = _window_quotients(t >> s, u >> s, tp >> s, up >> s)
            if qs:
                t, u, tp, up = C * u + D * t, A * u + B * t, C * up + D * tp, A * up + B * tp
                out += qs
                continue
        a = u // t
        if a != up // tp:
            break
        t, u, tp, up = u - a * t, t, up - a * tp, tp
        out.append(a)
    return (t, u, tp, up), out


def quotient_matrix_product(quotients: list[int]) -> Mat2:
    """(0 1 / 1 a_k) ... (0 1 / 1 a_1) for reconstruction checks."""
    acc = IDENT
    for a in reversed(quotients):
        acc = mat_mul(acc, (0, 1, 1, a))
    return acc


@dataclass
class CFState:
    """Reduced remainder after the cascade factors 1..n."""

    reduced: Mat2
    n: int  # cascade index consumed so far


def batch_size(n: int) -> int:
    """Cascade factors the step after index n multiplies in."""
    return min(MAX_BATCH, 1 + n // 8)


def initial_state(alpha) -> tuple[CFState, list[int]]:
    """Accumulate cascade factors until the product enters the domain.

    Returns the state and the quotients the product already releases.
    """
    alpha = Fraction(alpha)
    m: Mat2 = IDENT
    n = 0
    while True:
        n += 1
        m, _ = strip_content(mat_mul(cascade_matrix(n, alpha), m))
        if in_domain(m):
            break
        if n > 4 * int(alpha) + 64:
            raise AssertionError("cascade product never entered the domain")
    m, quotients = extract_quotients(m)
    return CFState(reduced=m, n=n), quotients


def step(state: CFState, alpha) -> list[int]:
    """Multiply in the next batch of cascade factors; returns the quotients released."""
    n0 = state.n
    state.n += batch_size(n0)
    batch = IDENT
    for i in range(n0 + 1, state.n + 1):
        batch = mat_mul(cascade_matrix(i, alpha), batch)
    m, _ = strip_content(mat_mul(batch, state.reduced))
    state.reduced, quotients = extract_quotients(m)
    return quotients


def stream_cf(alpha, count: int | None = None,
              log_q_bound: float | None = None) -> Iterator[tuple[int, int, float]]:
    """(n, a_n, ln q_{n-1}) for the partial quotients a_0, a_1, ... of e^alpha.

    q_n is the denominator of the n-th convergent, and ln q_{-1} is taken as
    0.0.  Stops after `count` quotients, or before the first quotient whose
    ln q_{n-1} exceeds log_q_bound.
    """
    if count is None and log_q_bound is None:
        raise ValueError("need a count or a log_q bound")
    if count is not None and count < 0:
        raise ValueError("count must be non-negative")
    if log_q_bound is not None and math.isnan(log_q_bound):
        raise ValueError("log_q bound must be a number")
    if count == 0:
        return
    bound = math.inf if log_q_bound is None else log_q_bound
    alpha = Fraction(alpha)
    state, quotients = initial_state(alpha)
    n = 0
    log_q, ratio = 0.0, 0.0  # ln q_{n-1} and q_{n-2}/q_{n-1}
    while True:
        for a in quotients:
            if log_q > bound:
                return
            yield n, a, log_q
            if n >= 1:  # a_0 contributes q_0 = 1
                log_q += math.log(a + ratio)
                ratio = 1.0 / (a + ratio)
            n += 1
            if n == count:
                return
        quotients = step(state, alpha)


def _check_bound(qmax_log: float) -> None:
    if not (math.isfinite(qmax_log) and qmax_log > 0):
        raise ValueError("qmax_log must be positive and finite")


@dataclass(frozen=True)
class RecordRow:
    n: int              # quotient index, a_0 excluded from the running max
    a_n: int
    log_q_prev: float   # ln(q_{n-1}), truncated to one decimal downstream


def truncate1(x: float) -> float:
    return math.floor(x * 10.0) / 10.0


def record_scan(alpha, qmax_log: float) -> list[RecordRow]:
    """Rows (n, a_n, ln q_{n-1}) at which a_n = max(a_1..a_n), for q_{n-1} <= bound.

    qmax_log is the natural log of the denominator bound.  a_0 starts the
    expansion but is excluded from the running maximum.
    """
    _check_bound(qmax_log)
    rows: list[RecordRow] = []
    best = 0
    for n, a, log_q_prev in stream_cf(alpha, log_q_bound=qmax_log):
        if n >= 1 and a > best:
            best = a
            rows.append(RecordRow(n, a, log_q_prev))
    return rows


def psi_of_log(log_x: float) -> float:
    """psi(x) = 3 log x loglog x, taken as a function of log x."""
    return 3.0 * log_x * math.log(log_x)


@dataclass
class MeasureReport:
    alpha: Fraction
    qmax_log: float
    checked: int                      # indices n >= 2 examined
    min_ratio: float                  # min over n >= 10 of psi(q_{n-1})/(a_n+2)
    small_ratios: list[tuple[int, float]]   # n = 2..9
    direct_small_x: list[tuple[int, float]]  # (x, psi(x) x ||x e^alpha||) for x = 4..10
    violations: list[tuple[int, int, float]]

    @property
    def ok(self) -> bool:
        return (not self.violations
                and all(r >= 1.0 for _, r in self.small_ratios)
                and all(v >= 1.0 for _, v in self.direct_small_x))


def verify_measure(alpha=Fraction(3), qmax_log: float | None = None,
                   qmax_log10: float = 2000.0) -> MeasureReport:
    """Check psi(q_{n-1})/(a_n+2) >= 1 for every index n >= 10 in range.

    Also runs the direct small checks: the same ratio for n = 2..9, and
    psi(x) * x * |x e^alpha - nearest integer| >= 1 for x = 4..10.
    Together with Lagrange's convergent bound these give
    |x| |x e^alpha - y| >= 1/psi(|x|) on 4 <= |x| <= exp(qmax_log).
    """
    alpha = Fraction(alpha)
    if qmax_log is None:
        qmax_log = qmax_log10 * math.log(10.0)
    _check_bound(qmax_log)
    if qmax_log <= math.log(1e4):
        raise ValueError("bound too small to be meaningful")
    checked = 0
    min_ratio = math.inf
    small: list[tuple[int, float]] = []
    violations: list[tuple[int, int, float]] = []
    for n, a, log_q_prev in stream_cf(alpha, log_q_bound=qmax_log):
        if n < 2:
            continue
        checked += 1
        r = psi_of_log(log_q_prev) / (a + 2) if log_q_prev > 1.0 else -math.inf
        if n <= 9:
            small.append((n, r))
        else:
            min_ratio = min(min_ratio, r)
            if not r >= 1.0:
                violations.append((n, a, r))

    iv = exp_interval(alpha, bits=96)
    direct: list[tuple[int, float]] = []
    for x in range(4, 11):
        p = round(x * iv.mid)
        dist = abs(x * iv.mid - p) - x * iv.width  # conservative lower bound
        val = 3.0 * math.log(x) * math.log(math.log(x)) * x * float(dist)
        direct.append((x, val))
    return MeasureReport(alpha, qmax_log, checked, min_ratio, small, direct, violations)
