"""References that do not come from the program under test, and the output checks.

* the paper's record table of e^3 through n = 9437;
* the Euler pattern e = [2; 1, 2, 1, 1, 4, 1, ...];
* mpmath's continued fraction of exp(a/b) at two precisions, used only on the
  prefix where the two agree;
* verdict lines and exit codes, every minima sandwich product in [2, 4], and
  the p-adic volume products recomputed from valuations;
* per-request stdout digests recorded in ``digests.json`` (the byte-identical
  output contract).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

# (n, a_n, ln q_{n-1} truncated to one decimal) as printed in the paper
RECORD_TABLE = [
    (1, 11, 0.0), (10, 16, 9.4), (31, 68, 34.5), (87, 189, 97.9),
    (133, 492, 151.1), (211, 739, 256.6), (244, 2566, 297.6),
    (388, 5885, 475.0), (2708, 6384, 3307.2), (8055, 10409, 9614.8),
    (9437, 19362, 11258.4),
]


def euler_pattern(count: int) -> list[int]:
    out = [2]
    k = 1
    while len(out) < count:
        out += [1, 2 * k, 1]
        k += 1
    return out[:count]


def mpmath_cf(alpha: Fraction, count: int) -> list[int]:
    """Leading quotients of exp(alpha) on which 256- and 1024-bit runs agree."""
    import mpmath

    runs = []
    for prec in (256, 1024):
        with mpmath.workprec(prec):
            x = mpmath.exp(mpmath.mpf(alpha.numerator) / alpha.denominator)
            qs = []
            for _ in range(count):
                a = int(mpmath.floor(x))
                qs.append(a)
                x = 1 / (x - a)
            runs.append(qs)
    prefix = []
    for a, b in zip(*runs):
        if a != b:
            break
        prefix.append(a)
    return prefix


def load_digests() -> dict[str, str]:
    """Recorded digests by request key ("records", "cf/3/5" = kind/slot/variant)."""
    try:
        data = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}
    out = dict(data["fixed"])
    for kind, slots in data["pool"].items():
        for slot, variants in enumerate(slots):
            for v, d in enumerate(variants):
                out[f"{kind}/{slot}/{v}"] = d
    return out


def save_digests(digests: dict[str, str]) -> None:
    data: dict = {"fixed": {}, "pool": {}}
    for key, d in digests.items():
        if "/" not in key:
            data["fixed"][key] = d
            continue
        kind, slot, v = key.split("/")
        slots = data["pool"].setdefault(kind, [])
        while len(slots) <= int(slot):
            slots.append([])
        slots[int(slot)].append(d)
    DIGESTS.write_text("{\"fixed\": " + json.dumps(data["fixed"], sort_keys=True)
                       + ",\n\"pool\": {\n" + ",\n".join(
                           f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                           for k, v in data["pool"].items()) + "}}\n")


def _body(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def _arg(argv: list[str], flag: str) -> str:
    for i, a in enumerate(argv):
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
        if a == flag:
            return argv[i + 1]
    raise KeyError(flag)


def _val(p: int, x: Fraction):
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _forest_products(spec: dict, roots, edges) -> tuple[Fraction, Fraction]:
    """Exponents of the two distance products (|x| = p^-e, max = min exponent)."""
    p, pts, n = spec["p"], [Fraction(x) for x in spec["points"]], spec["n"]
    dexp = Fraction(spec["delta_exp"])

    def vmin(*vals):
        return min(v for v in vals if v is not None)

    root = sum(n[g] * vmin(_val(p, pts[b] - pts[g]), dexp)
               for b in roots for g in range(len(pts)))
    edge = sum(n[g] * vmin(_val(p, pts[a] - pts[g]), _val(p, pts[b] - pts[g]))
               for a, b in edges for g in range(len(pts)))
    return Fraction(root), Fraction(edge)


def check_forest_lib(spec: dict, lib: dict) -> str | None:
    roots, edges = lib["roots"], [tuple(e) for e in lib["edges"]]
    root, edge = _forest_products(spec, roots, edges)
    if [Fraction(lib["root_prod"][0]), Fraction(lib["edge_prod"][0])] != [root, edge]:
        return "volume products differ from the valuation recomputation"
    order, mat = lib["order"], [[Fraction(x) for x in row] for row in lib["mat"]]
    if sorted(order) != list(range(len(spec["points"]))):
        return "form order is not a permutation of the vertices"
    pos = {v: i for i, v in enumerate(order)}
    parent = {c: a for a, c in edges}
    want = [[Fraction(int(r == c)) for c in range(len(order))] for r in range(len(order))]
    for c, a in parent.items():
        if pos[a] >= pos[c]:
            return "form order puts a child before its parent"
        want[pos[c]][pos[a]] = -Fraction(spec["phi"][c])
    return None if mat == want else "form matrix is not the unit lower-triangular forest matrix"


def is_abort(req: dict, res: dict) -> bool:
    """An ascent request that ended without a verdict: a failed op, not a wrong one.

    The program gives up on a numerical path by raising NumericalFailure, or,
    once that maps to an exit code of its own, by exiting with a code other
    than 0, 1 (bounds violated) and 2 (bad input) before printing the
    ``bounds_ok`` line.  Either way it is the same abort.
    """
    if req["kind"] != "ascent":
        return False
    if res["exc"]:
        return res["exc"].startswith("NumericalFailure")
    return res["code"] not in (0, 1, 2) and '"bounds_ok"' not in res["out"]


def check(req: dict, res: dict, cf_refs: dict) -> str | None:
    """Why the output of one request is wrong, or None when it is right."""
    if res["exc"]:
        return f"raised {res['exc']}"
    if "argv" in req and res["code"] != 0:
        return f"exit code {res['code']}"
    kind, body = req["kind"], _body(res["out"])
    try:
        if kind == "records":
            rows = [(int(n), int(a), float(lq)) for n, a, lq in (ln.split("\t") for ln in body)]
            if rows[:len(RECORD_TABLE)] != RECORD_TABLE:
                return "record table differs from the paper"
        elif kind == "verify_measure":
            if body[-1] != "all checks passed":
                return "measure verdict is not 'all checks passed'"
        elif kind == "minima":
            rows = [ln.split("\t") for ln in body]
            nmax = int(_arg(req["argv"], "--nmax"))
            if [int(r[0]) for r in rows] != list(range(1, nmax + 1)):
                return "minima rows missing"
            if not all(2.0 <= float(r[3]) <= 4.0 and r[6] == "1" for r in rows):
                return "a sandwich product is outside [2, 4]"
        elif kind == "cf":
            got = [int(ln.split("\t")[1]) for ln in body]
            want = cf_refs[_arg(req["argv"], "--alpha")]
            if len(want) < 10:
                return "the two mpmath precisions agree on fewer than 10 quotients"
            if got[:len(want)] != want:
                return "quotients differ from the reference"
        elif kind == "mahler":
            data = json.loads(body[0])
            if data["det"] != data["closed_form"]:
                return "determinant differs from the closed form"
        elif kind == "forest":
            if json.loads(body[0])["verified"] is not True:
                return "forest not verified"
            return check_forest_lib(req["lib"], res["lib"])
        elif kind == "padic":
            if not res["lib"]["all_hold"]:
                return "an ultrametric bound does not hold"
        elif kind == "ascent":
            data = json.loads(body[0])
            roots = _arg(req["argv"], "--roots").split(",")
            if not data["bounds_ok"] or len(data["edges"]) != len(roots) - 1:
                return "ascent tree bounds fail"
        elif kind in ("semires", "volume"):
            if json.loads(body[0])["ok"] is not True:
                return f"{kind} verdict is not ok"
        elif kind == "hermite":
            if len(body[0].split("\t")) != len(_arg(req["argv"], "--n").split(",")):
                return "point has the wrong length"
    except (IndexError, KeyError, ValueError, TypeError) as e:
        return f"unparsable output: {type(e).__name__}: {e}"
    return None


def cf_references(reqs: list[dict]) -> dict[str, list[int]]:
    """Reference quotients for every cf request, by alpha string."""
    refs = {}
    for req in reqs:
        if req["kind"] == "cf":
            alpha = _arg(req["argv"], "--alpha")
            if alpha in refs:
                continue
            count = int(_arg(req["argv"], "--count"))
            a = Fraction(alpha)
            ref = mpmath_cf(a, count)
            if a == 1 and ref != euler_pattern(count):
                raise RuntimeError("mpmath disagrees with the Euler pattern")
            refs[alpha] = euler_pattern(count) if a == 1 else ref
    return refs
