"""Steepest descent paths of |f| for complex polynomials, and the root tree.

Paths gamma with f(gamma(t)) = t f(beta) are traced from each critical value
down to t -> 0 by an adaptive predictor (dz = f(beta) dt / f') with Newton
correction back onto the level constraint.  Near the start the m(beta)+1
locally distinct branches are seeded from the local normal form
f(z) = f(beta) (1 + c (z - beta)^l + ...) with l = m(beta)+1: the descent
directions are the l-th roots of -1/c.  Each trace necessarily terminates at
a root of f; joining the branch endpoints through beta yields one tree edge
per unit of multiplicity, and the union over all critical points is a tree
on the distinct roots.

Everything is double precision; tolerances live in TraceConfig.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import Undecided


class NumericalFailure(Undecided):
    """Path tracing failed; the instance should be reported and excluded."""


@dataclass(frozen=True)
class TraceConfig:
    capture_rel: float = 1e-8        # arrival radius |z - root| < capture_rel*(1+|root|)
    corrector_tol: float = 1e-12     # Newton residual target, relative to |f(beta)|
    path_tol: float = 1e-9          # sample invariant |f - t f(beta)| <= path_tol*|f(beta)|
    newton_iters: int = 5
    seed_fraction: float = 0.05      # seed radius as a fraction of the local gap
    cluster_tol: float = 1e-5        # critical-point clustering radius
    jitter_limit: int = 50
    max_steps: int = 200_000


@dataclass
class ComplexPoly:
    """Monic polynomial given by distinct roots with multiplicities."""

    roots: list[complex]
    mults: list[int]

    def __post_init__(self):
        if len(self.roots) != len(self.mults):
            raise ValueError("roots and multiplicities differ in length")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be >= 1")
        self.roots = [complex(r) for r in self.roots]
        for i in range(len(self.roots)):
            for j in range(i + 1, len(self.roots)):
                if self.roots[i] == self.roots[j]:
                    raise ValueError("roots must be distinct (use multiplicities)")

    @property
    def degree(self) -> int:
        return sum(self.mults)

    @property
    def s(self) -> int:
        return len(self.roots)

    def coefficients(self) -> np.ndarray:
        """Dense coefficients, highest degree first."""
        full = []
        for r, m in zip(self.roots, self.mults):
            full.extend([r] * m)
        return np.atleast_1d(np.poly(np.array(full)))

    def __call__(self, z: complex) -> complex:
        w = 1.0 + 0.0j
        for r, m in zip(self.roots, self.mults):
            w *= (z - r) ** m
        return w

    def deriv(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for r, m in zip(self.roots, self.mults):
            d = z - r
            if d == 0:
                # f'(root) is finite; fall back to the coefficient form
                return complex(np.polyval(np.polyder(self.coefficients()), z))
            acc += m / d
        return self(z) * acc


@dataclass
class CriticalSet:
    betas: list[complex]
    mults: list[int]


def critical_points(f: ComplexPoly, cfg: TraceConfig = TraceConfig()) -> CriticalSet:
    """Zeros of f'/f with multiplicities; their count with multiplicity is s-1.

    Works on g(z) = sum_k n_k prod_{i != k}(z - a_i), which drops the forced
    factors (z - a_i)^{n_i - 1} of f' exactly, then clusters the numerical
    roots of g.
    """
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    s = f.s
    if s == 1:
        return CriticalSet([], [])
    simple = np.poly(np.array(f.roots))
    g = np.zeros(s, dtype=complex)
    for k in range(s):
        qk, rem = np.polydiv(simple, np.array([1.0, -f.roots[k]]))
        g += f.mults[k] * qk
    raw = np.roots(g)
    scale = 1.0 + max(abs(r) for r in f.roots)
    used = [False] * len(raw)
    betas: list[complex] = []
    mults: list[int] = []
    for i in range(len(raw)):
        if used[i]:
            continue
        cluster = [raw[i]]
        used[i] = True
        for j in range(i + 1, len(raw)):
            if not used[j] and abs(raw[j] - raw[i]) < cfg.cluster_tol * scale:
                cluster.append(raw[j])
                used[j] = True
        beta = complex(sum(cluster) / len(cluster))
        gap = min(abs(beta - r) for r in f.roots)
        if gap < cfg.cluster_tol * scale:
            raise NumericalFailure(f"critical point {beta} ambiguous against the roots")
        betas.append(beta)
        mults.append(len(cluster))
    assert sum(mults) == s - 1, "critical multiplicities do not sum to s-1"
    return CriticalSet(betas, mults)


@dataclass
class PathTrace:
    """Samples of one branch, t decreasing from ~1 to arrival at a root."""

    beta: complex
    ts: list[float]
    zs: list[complex]
    endpoint_index: int
    arc_length: float
    jitters: int = 0

    def to_json(self) -> list[list[float]]:
        return [[t, z.real, z.imag] for t, z in zip(self.ts, self.zs)]


def _local_order(f: ComplexPoly, beta: complex, kmax: int) -> tuple[int, complex]:
    """(l, c_l) of the normal form f(beta+w)/f(beta) = 1 + c_l w^l + O(w^{l+1})."""
    S = [sum(m / (beta - r) ** k for r, m in zip(f.roots, f.mults))
         for k in range(1, kmax + 1)]
    logc = [0j] + [(-1) ** (k + 1) * S[k - 1] / k for k in range(1, kmax + 1)]
    c = [1.0 + 0j] + [0j] * kmax
    for k in range(1, kmax + 1):
        c[k] = sum(j * logc[j] * c[k - j] for j in range(1, k + 1)) / k
    top = max(abs(x) for x in c[1:]) or 1.0
    ell = next(k for k in range(1, kmax + 1) if abs(c[k]) > 1e-8 * top)
    return ell, c[ell]


def trace_descent(f: ComplexPoly, beta: complex,
                  rng: np.random.Generator | None = None,
                  cfg: TraceConfig = TraceConfig()) -> list[PathTrace]:
    """The m(beta)+1 descent branches from beta, each ending at a root of f."""
    beta = complex(beta)
    fb = f(beta)
    if fb == 0:
        raise ValueError("beta must not be a root of f")
    if rng is None:
        rng = np.random.default_rng(0)
    ell, cl = _local_order(f, beta, kmax=f.degree + 1)
    gap = min(abs(beta - r) for r in f.roots)
    r0 = cfg.seed_fraction * gap
    u0 = abs(cl) * r0 ** ell
    t0 = 1.0 - u0
    traces = []
    for j in range(ell):
        w = r0 * cmath.exp(1j * (math.pi + 2 * math.pi * j - cmath.phase(cl)) / ell)
        traces.append(_continue_branch(f, beta, fb, beta + w, t0, rng, cfg))
    ends = [tr.endpoint_index for tr in traces]
    if len(set(ends)) != len(ends):
        raise NumericalFailure(f"branches from {beta} merged: endpoints {ends}")
    return traces


def _newton_project(f: ComplexPoly, z: complex, target: complex,
                    tol: float, iters: int) -> tuple[complex, bool]:
    for _ in range(iters):
        res = f(z) - target
        if abs(res) <= tol:
            return z, True
        fp = f.deriv(z)
        if fp == 0:
            return z, False
        step = res / fp
        z -= step
        if abs(step) < 1e-16 * (1.0 + abs(z)):
            return z, abs(f(z) - target) <= tol
    return z, abs(f(z) - target) <= tol


def _continue_branch(f, beta, fb, z_seed, t0, rng, cfg) -> PathTrace:
    tol = cfg.corrector_tol * abs(fb)
    # capture radii: the nominal relative radius, widened to the corrector's
    # spatial resolution near each root (|f| ~ lead * |z-r|^mult there)
    capture = []
    for r, m in zip(f.roots, f.mults):
        lead = 1.0
        for r2, m2 in zip(f.roots, f.mults):
            if r2 != r:
                lead *= abs(r - r2) ** m2
        capture.append(max(cfg.capture_rel * (1.0 + abs(r)),
                           3.0 * (tol / lead) ** (1.0 / m)))
    z, ok = _newton_project(f, z_seed, t0 * fb, tol, 30)
    if not ok:
        raise NumericalFailure("seed projection did not converge")
    ts = [1.0, t0]
    zs = [beta, z]
    arc = abs(z - beta)
    t = t0
    dt = t0 / 50.0
    jitters = 0
    gap0 = min(abs(beta - r) for r in f.roots)
    for _ in range(cfg.max_steps):
        hit = None
        for idx, r in enumerate(f.roots):
            if abs(z - r) < capture[idx]:
                hit = idx
                break
        if hit is not None:
            arc += abs(f.roots[hit] - z)
            zs.append(f.roots[hit])
            ts.append(0.0)
            return PathTrace(beta=beta, ts=ts, zs=zs, endpoint_index=hit,
                             arc_length=arc, jitters=jitters)
        if t < 5e-324 * 1e10:
            raise NumericalFailure("t underflow before root capture")
        step = min(dt, 0.5 * t)
        accepted = False
        for _attempt in range(60):
            tn = t - step
            fp = f.deriv(z)
            if fp == 0:
                break
            zp = z - fb * step / fp
            zn, good = _newton_project(f, zp, tn * fb, tol, cfg.newton_iters)
            if good:
                accepted = True
                break
            step *= 0.4
            if step < 1e-18 * t:
                break
        if not accepted:
            # ramification encountered: lower t slightly and re-lift
            jitters += 1
            if jitters > cfg.jitter_limit:
                raise NumericalFailure(f"corrector stalled at t={t:.3e}")
            t *= 1.0 - 1e-3 * rng.random()
            z += complex(rng.random() - 0.5, rng.random() - 0.5) * 1e-6 * gap0
            z, _ = _newton_project(f, z, t * fb, tol, 30)
            dt = 0.1 * t
            continue
        arc += abs(zn - z)
        z, t = zn, tn
        ts.append(t)
        zs.append(z)
        dt = min(step * 1.7, 0.2 * t)
    raise NumericalFailure("step budget exhausted")


@dataclass
class TreeEdge:
    i: int                 # root index of the anchor branch endpoint
    j: int                 # root index of the partner branch endpoint
    beta_index: int
    anchor: PathTrace
    partner: PathTrace


@dataclass
class AscentTree:
    poly: ComplexPoly
    critical: CriticalSet
    edges: list[TreeEdge]

    def edge_between(self, i: int, j: int) -> TreeEdge:
        for e in self.edges:
            if {e.i, e.j} == {i, j}:
                return e
        raise KeyError(f"no edge between roots {i} and {j}")


def build_ascent_tree(f: ComplexPoly, seed: int = 0,
                      cfg: TraceConfig = TraceConfig()) -> AscentTree:
    """Trace all branches and join them into the tree on the distinct roots."""
    if f.s < 2:
        raise ValueError("need at least two distinct roots")
    rng = np.random.default_rng(seed)
    crit = critical_points(f, cfg)
    edges: list[TreeEdge] = []
    for b_idx, beta in enumerate(crit.betas):
        traces = trace_descent(f, beta, rng, cfg)
        anchor = traces[0]
        for tr in traces[1:]:
            edges.append(TreeEdge(i=anchor.endpoint_index, j=tr.endpoint_index,
                                  beta_index=b_idx, anchor=anchor, partner=tr))
    if len(edges) != f.s - 1:
        raise NumericalFailure(f"{len(edges)} edges for {f.s} roots")
    # connectivity and tag multiplicities
    seen = {0}
    stack = [0]
    adj: dict[int, list[int]] = {}
    for e in edges:
        adj.setdefault(e.i, []).append(e.j)
        adj.setdefault(e.j, []).append(e.i)
    while stack:
        v = stack.pop()
        for w in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != f.s:
        raise NumericalFailure("edge set is not connected")
    for b_idx, m in enumerate(crit.mults):
        assert sum(1 for e in edges if e.beta_index == b_idx) == m
    return AscentTree(poly=f, critical=crit, edges=edges)


@dataclass
class JoinedPath:
    """Concatenated edge path alpha -> beta -> alpha', parametrized on [0,1]."""

    ts: list[float]
    zs: list[complex]
    arc_length: float
    max_abs_f: float
    argmax_index: int
    beta: complex


def path_between(tree: AscentTree, i: int, j: int) -> JoinedPath:
    """Edge path through the tagging critical point; |f| peaks at the middle."""
    e = tree.edge_between(i, j)
    first, second = (e.anchor, e.partner) if e.anchor.endpoint_index == i else (e.partner, e.anchor)
    ts = [ft / 2.0 for ft in reversed(first.ts)] + [1.0 - st / 2.0 for st in second.ts[1:]]
    zs = list(reversed(first.zs)) + list(second.zs[1:])
    f = tree.poly
    vals = [abs(f(z)) for z in zs]
    arg = int(np.argmax(vals))
    return JoinedPath(ts=ts, zs=zs,
                      arc_length=first.arc_length + second.arc_length,
                      max_abs_f=vals[arg], argmax_index=arg,
                      beta=e.anchor.beta)


# ---------------------------------------------------------------------------
# semi-resultant and bound verification
# ---------------------------------------------------------------------------


def semiresultant(f: ComplexPoly, cfg: TraceConfig = TraceConfig()) -> tuple[complex, complex, float]:
    """(N^N prod f(beta)^m,  prod_i n_i^{n_i} prod_{k != i}(a_i - a_k)^{n_k},  rel dev)."""
    crit = critical_points(f, cfg)
    N = f.degree
    lhs = complex(N) ** N
    for beta, m in zip(crit.betas, crit.mults):
        lhs *= f(beta) ** m
    rhs = 1.0 + 0j
    for i, (ai, ni) in enumerate(zip(f.roots, f.mults)):
        rhs *= complex(ni) ** ni
        for k, (ak, nk) in enumerate(zip(f.roots, f.mults)):
            if k != i:
                rhs *= (ai - ak) ** nk
    dev = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, dev


def factorial_bound_sides(f: ComplexPoly, cfg: TraceConfig = TraceConfig()) -> tuple[float, float]:
    """(N! prod |f(beta)|^m,  prod_i n_i! prod_{k != i} |a_i - a_k|^{n_k})."""
    crit = critical_points(f, cfg)
    lhs = float(math.factorial(f.degree))
    for beta, m in zip(crit.betas, crit.mults):
        lhs *= abs(f(beta)) ** m
    rhs = 1.0
    for i, (ai, ni) in enumerate(zip(f.roots, f.mults)):
        rhs *= math.factorial(ni)
        for k, (ak, nk) in enumerate(zip(f.roots, f.mults)):
            if k != i:
                rhs *= abs(ai - ak) ** nk
    return lhs, rhs


def convex_hull(points: Sequence[complex]) -> list[complex]:
    """Monotone chain; collinear sets come back as their two extreme points."""
    pts = sorted(set((p.real, p.imag) for p in points))
    if len(pts) <= 2:
        return [complex(*p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return [complex(*p) for p in hull]


def _seg_dist(z: complex, a: complex, b: complex) -> float:
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0:
        return abs(z - a)
    t = max(0.0, min(1.0, ((z - a) * d.conjugate()).real / L2))
    return abs(z - (a + t * d))


def dist_to_hull(z: complex, hull: list[complex]) -> float:
    """0 inside the hull; otherwise distance to its boundary."""
    if len(hull) == 1:
        return abs(z - hull[0])
    if len(hull) == 2:
        return _seg_dist(z, hull[0], hull[1])
    inside = True
    for a, b in zip(hull, hull[1:] + hull[:1]):
        cr = ((b - a).conjugate() * (z - a)).imag
        if cr < 0:
            inside = False
            break
    if inside:
        return 0.0
    return min(_seg_dist(z, a, b) for a, b in zip(hull, hull[1:] + hull[:1]))


def min_enclosing_radius(points: Sequence[complex]) -> float:
    """Smallest enclosing disk radius, brute force over pairs and triples."""
    pts = [complex(p) for p in points]
    if len(pts) == 1:
        return 0.0
    best = math.inf
    eps = 1e-12 * (1.0 + max(abs(p) for p in pts))

    def covers(c: complex, r: float) -> bool:
        return all(abs(p - c) <= r + eps for p in pts)

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            c = (pts[i] + pts[j]) / 2
            r = abs(pts[i] - c)
            if r < best and covers(c, r):
                best = r
            for k in range(j + 1, len(pts)):
                a, b, d = pts[i], pts[j], pts[k]
                det = 2 * ((b - a).conjugate() * (d - a)).imag
                if abs(det) < 1e-14 * (1 + abs(a) + abs(b) + abs(d)) ** 2:
                    continue
                ux = (abs(b - a) ** 2 * (d - a).imag - abs(d - a) ** 2 * (b - a).imag) / det
                uy = (abs(d - a) ** 2 * (b - a).real - abs(b - a) ** 2 * (d - a).real) / det
                c = a + complex(ux, uy)
                r = abs(a - c)
                if r < best and covers(c, r):
                    best = r
    return best


@dataclass
class BoundsReport:
    lengths_ok: bool
    hull_ok: bool
    peak_ok: bool
    factorial_ok: bool
    max_length_ratio: float     # max over edges of length / (2 pi R N)
    max_hull_excess: float
    max_peak_dev: float
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.lengths_ok and self.hull_ok and self.peak_ok and self.factorial_ok


def verify_bounds(tree: AscentTree, rel_tol: float = 1e-6) -> BoundsReport:
    """Check, for every edge path of the tree:

      * arc length <= 2 pi R N (R = smallest enclosing radius of the roots),
      * containment in the convex hull of the roots (inflated by rel_tol),
      * max |f| along the path attained at the tagging critical point,

    plus the factorial-side inequality of the semi-resultant.
    """
    f = tree.poly
    N = f.degree
    R = min_enclosing_radius(f.roots)
    hull = convex_hull(f.roots)
    scale = 1.0 + max(abs(r) for r in f.roots)
    violations = []
    max_len_ratio = 0.0
    max_excess = 0.0
    max_peak = 0.0
    for e in tree.edges:
        path = path_between(tree, e.i, e.j)
        bound = 2 * math.pi * R * N
        max_len_ratio = max(max_len_ratio, path.arc_length / bound)
        if path.arc_length > bound * (1 + rel_tol):
            violations.append(f"edge ({e.i},{e.j}): length {path.arc_length:.3g} > {bound:.3g}")
        excess = max(dist_to_hull(z, hull) for z in path.zs) / scale
        max_excess = max(max_excess, excess)
        if excess > rel_tol:
            violations.append(f"edge ({e.i},{e.j}): leaves hull by {excess:.2e}")
        peak_at_beta = abs(f(path.beta))
        dev = abs(path.max_abs_f - peak_at_beta) / peak_at_beta
        max_peak = max(max_peak, dev)
        if dev > rel_tol:
            violations.append(f"edge ({e.i},{e.j}): |f| peak off beta by {dev:.2e}")
    lhs, rhs = factorial_bound_sides(f)
    fact_ok = lhs <= rhs * (1 + 1e-9)
    if not fact_ok:
        violations.append(f"factorial bound: {lhs:.6g} > {rhs:.6g}")
    return BoundsReport(
        lengths_ok=max_len_ratio <= 1 + rel_tol,
        hull_ok=max_excess <= rel_tol,
        peak_ok=max_peak <= rel_tol,
        factorial_ok=fact_ok,
        max_length_ratio=max_len_ratio,
        max_hull_excess=max_excess,
        max_peak_dev=max_peak,
        violations=violations)
