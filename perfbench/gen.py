"""Seeded inputs for the three workloads.

A request is a JSON-ready dict: ``kind`` names it, ``argv`` (when present) is
passed to ``expapprox.cli.main``, and ``lib`` (when present) names a library
call with string-encoded arguments.  The program sees only these inputs.

``cf_long`` and ``minima_sandwich`` are the paper's fixed headline checks, so
their inputs do not depend on the seed; every request of theirs runs in a
fresh process (run.py), so nothing the program keeps between calls can be
reused.  ``mixed_small`` draws from a fixed pool: the pool has SLOTS[kind]
slots per kind and VARIANTS inputs per slot, all variants of a slot sharing
one shape (sizes, orders, prime).  The run seed fixes the order of the slots
and, per slot, an order of its variants: pass p runs variant p of every slot,
and the warm-up runs the last, so no request repeats within a run.  Costs then
vary little from seed to seed and from pass to pass, and every pool entry has
a stdout digest recorded in ``digests.json``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

POOL_SEED = 20190506
VARIANTS = 8

# "ops" is the op count of a request: the quotients a cf_long stream yields
# (a_0 and the quotient that crosses the bound included), the rows of a minima
# table, and 1 for every mixed_small request.
CF_LONG = [
    {"kind": "records", "ops": 77455,
     "argv": ["records", "--alpha", "3", "--qmax-log10", "40000"]},
    {"kind": "verify_measure", "ops": 3803, "argv": ["verify-measure", "--qmax-log10", "2000"]},
]

MINIMA_NMAX = 20
MINIMA = [{"kind": "minima", "ops": MINIMA_NMAX, "argv": ["minima", "--nmax", str(MINIMA_NMAX)]}]
# passes a fixed workload may run; far more than fit in a run
FIXED_PASSES = 64
# untimed requests that load the code paths of a fixed workload's request
FIXED_WARMUP = {
    "records": {"kind": "records", "argv": ["records", "--qmax-log10", "50"]},
    "verify_measure": {"kind": "verify_measure", "argv": ["verify-measure", "--qmax-log10", "50"]},
    "minima": {"kind": "minima", "argv": ["minima", "--nmax", "2"]},
}

KINDS = ("cf", "hermite", "mahler", "forest", "padic", "ascent", "semires", "volume")
# Slots per pass, sized so that each kind takes 11-15% of a mixed_small pass
# (a 2x change in any one kind moves wall_s by more than its bound of 0.1)
# and a pass has 1026 requests, so that ten of them lie beyond its p99.
SLOTS = {"cf": 165, "hermite": 126, "mahler": 73, "forest": 93, "padic": 416,
         "ascent": 17, "semires": 105, "volume": 31}
CF_COUNT = 40
VOLUME_SAMPLES = "2e5"


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rats(xs) -> str:
    return ",".join(rat(Fraction(x)) for x in xs)


def cplx(z: complex) -> str:
    return repr(complex(z)).strip("()")


def distinct(values) -> list[Fraction]:
    """Order-preserving dedupe after Fraction normalisation (2/2 == 1)."""
    return list(dict.fromkeys(Fraction(v) for v in values))


def ints(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


# -- one generator per kind: shape(rng) fixes a slot, value(shape, rng) a variant


def _cf_shape(slot, rng):
    # slot 0 is e itself, checked against the Euler pattern
    return {"b": rng.randint(1, 6)} if slot else {"b": 0}


def _cf_value(shape, rng):
    alpha = Fraction(1) if shape["b"] == 0 else Fraction(rng.randint(1, 24), shape["b"])
    return {"argv": ["cf", f"--alpha={rat(alpha)}", "--count", str(CF_COUNT)]}


def _alphas(rng, s):
    vals: list[Fraction] = []
    while len(vals) < s:
        vals = distinct(vals + [Fraction(rng.randint(-12, 12), rng.randint(1, 9))])
    return vals


def _hermite_shape(slot, rng):
    s = rng.randint(1, 4)
    return {"n": [rng.randint(1, 6) for _ in range(s)]}


def _hermite_value(shape, rng):
    n = shape["n"]
    return {"argv": ["hermite", f"--alphas={rats(_alphas(rng, len(n)))}", "--n", ints(n)]}


def _mahler_shape(slot, rng):
    s = rng.randint(1, 4)
    return {"n": [rng.randint(1, 6) for _ in range(s)]}


def _mahler_value(shape, rng):
    n = shape["n"]
    return {"argv": ["mahler", f"--alphas={rats(_alphas(rng, len(n)))}", "--n", ints(n)]}


def _forest_shape(slot, rng):
    return {"p": rng.choice([2, 3, 5]), "s": rng.randint(1, 8)}


def _forest_value(shape, rng):
    # criterion 8: points with small p-power denominators, a delta exponent
    # that is 1/(p-1) most of the time, orders and random form weights
    p, s = shape["p"], shape["s"]
    pts: list[Fraction] = []
    while len(pts) < s:
        pts = distinct(pts + [Fraction(rng.randint(-40, 40),
                                       rng.choice([1, 1, 2, 3, 7]) * p ** rng.randint(0, 2))])
    dexp = Fraction(1, p - 1) if rng.random() < 0.7 else \
        Fraction(rng.randint(-2, 3), rng.randint(1, 3))
    n = [rng.randint(0, 4) for _ in range(s)]
    phi = [rng.randint(-3, 3) for _ in range(s)]
    return {"argv": ["forest", f"--points={rats(pts)}", "--p", str(p),
                     f"--delta-exp={rat(dexp)}"],
            "lib": {"call": "forest", "points": [rat(x) for x in pts], "p": p,
                    "delta_exp": rat(dexp), "n": n, "phi": phi}}


def _padic_shape(slot, rng):
    s = rng.randint(2, 4)
    return {"p": rng.choice([2, 3, 5, 7]), "s": s, "n": [rng.randint(0, 4) for _ in range(s)]}


def _padic_value(shape, rng):
    # criterion 9: points clustered p-adically around a base
    p, s = shape["p"], shape["s"]
    step = 4 if p == 2 else p
    base = Fraction(rng.randint(-6, 6))
    pts = [base]
    while len(pts) < s:
        off = step * rng.randint(1, 9) if rng.random() < 0.6 else rng.randint(1, 9)
        pts = distinct(pts + [base + off])
    i, j = rng.sample(range(1, s + 1), 2)
    return {"lib": {"call": "padic", "alphas": [rat(x) for x in pts], "n": shape["n"],
                    "i": i, "j": j, "p": p}}


def _disk_points(rng: np.random.Generator, s: int) -> list[complex]:
    # criterion 7: s distinct points of the unit disk, pairwise >= 0.05 apart
    while True:
        pts = [complex(z) for z in rng.uniform(-1, 1, s) + 1j * rng.uniform(-1, 1, s)
               if abs(z) <= 1]
        if len(pts) == s and min(abs(a - b) for i, a in enumerate(pts)
                                 for b in pts[i + 1:]) >= 0.05:
            return pts


def _square_points(rng: np.random.Generator, s: int) -> list[complex]:
    # criterion 6: s points of the square, pairwise >= 0.05 apart
    while True:
        pts = [complex(z) for z in rng.uniform(-1, 1, s) + 1j * rng.uniform(-1, 1, s)]
        if s == 1 or min(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:]) >= 0.05:
            return pts


def _ascent_shape(slot, rng):
    return {"s": rng.randint(2, 10)}


def _ascent_value(shape, rng):
    g = np.random.default_rng(rng.getrandbits(32))
    pts = _disk_points(g, shape["s"])
    return {"argv": ["ascent", f"--roots={','.join(cplx(z) for z in pts)}",
                     "--seed", str(rng.randint(0, 999))]}


def _semires_shape(slot, rng):
    s = rng.randint(1, 6)
    mults = [rng.randint(1, 3) for _ in range(s)]
    while sum(mults) > 12:
        mults[rng.randrange(s)] = 1
    return {"mults": mults}


def _semires_value(shape, rng):
    g = np.random.default_rng(rng.getrandbits(32))
    pts = _square_points(g, len(shape["mults"]))
    return {"argv": ["semires", f"--roots={','.join(cplx(z) for z in pts)}",
                     "--mults", ints(shape["mults"])]}


def _volume_shape(slot, rng):
    s = 2 + slot % 2
    return {"n": [rng.randint(1, 2) for _ in range(s)]}


def _volume_value(shape, rng):
    alphas = sorted(rng.sample(range(0, 4), len(shape["n"])))
    return {"argv": ["volume", f"--alphas={rats(alphas)}", "--n", ints(shape["n"]),
                     "--samples", VOLUME_SAMPLES, "--seed", str(rng.randint(0, 9999))]}


_GEN = {k: (globals()[f"_{k}_shape"], globals()[f"_{k}_value"]) for k in KINDS}


def pool() -> dict[str, list[list[dict]]]:
    """pool[kind][slot][variant] -> request; fixed, independent of the run seed."""
    out = {}
    for kind in KINDS:
        shape_fn, value_fn = _GEN[kind]
        rng = random.Random(f"{POOL_SEED}:{kind}")
        slots = []
        for slot in range(SLOTS[kind]):
            shape = shape_fn(slot, rng)
            slots.append([dict(kind=kind, key=f"{kind}/{slot}/{v}", **value_fn(shape, rng))
                          for v in range(VARIANTS)])
        out[kind] = slots
    return out


def mixed_small(seed: int) -> tuple[list[list[dict]], list[dict]]:
    """VARIANTS - 1 passes of mixed_small and a warm-up of one request per kind.

    Every pass runs every slot once, in one seeded interleaved order, so that
    position i is the same slot in every pass; the variant differs per pass.
    """
    rng = random.Random(seed)
    slots = [(kind, variants) for kind, kslots in pool().items() for variants in kslots]
    rng.shuffle(slots)
    orders = [rng.sample(range(VARIANTS), VARIANTS) for _ in slots]
    passes = [[variants[order[p]] for (_, variants), order in zip(slots, orders)]
              for p in range(VARIANTS - 1)]
    warmup = {}
    for (kind, variants), order in zip(slots, orders):
        warmup.setdefault(kind, variants[order[-1]])
    return passes, list(warmup.values())


def workload(name: str, seed: int) -> tuple[list[list[dict]], list[dict]]:
    """(the passes a run may make, in order; the untimed warm-up requests)."""
    if name == "mixed_small":
        return mixed_small(seed)
    fixed = {"cf_long": CF_LONG, "minima_sandwich": MINIMA}.get(name)
    if fixed is None:
        raise ValueError(f"unknown workload {name!r}")
    return [list(fixed)] * FIXED_PASSES, [FIXED_WARMUP[r["kind"]] for r in fixed]
