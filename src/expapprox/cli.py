"""Command line front end.

Every run prints one header line (version, subcommand, echoed config, seed)
followed by TSV or JSON output.  Exit codes: 0 success, 1 a verification
subcommand found a violation, 2 usage error (malformed or unsupported input),
3 undecided (an ``errors.Undecided``: a numerical path failed or the
precision ran out; also a float that left the double range).  A subcommand
that fails prints one ``error:`` line on stderr.  Output is
byte-identical for identical config and seed; no timestamps are emitted.

``main`` may be called repeatedly in one process; it builds its parser once.
Each command imports only its own layer, on its first call: ``cf``,
``records`` and ``verify-measure`` load ``cf`` and ``interval``; ``hermite``
and ``mahler`` load ``hermite``; ``forest`` and ``minima`` load their module
with what it builds on.  Only ``ascent``, ``semires`` and ``volume`` import
numpy (and ``volume`` scipy), so the exact commands start without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import Undecided


def _rat(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {s!r}: {e}")


def _pos_rat(s: str) -> Fraction:
    x = _rat(s)
    if x <= 0:
        raise argparse.ArgumentTypeError(f"{s!r} is not positive")
    return x


def _pos_int(s: str) -> int:
    """An integer >= 1, also in float notation with an integral value (2e5)."""
    try:
        x = int(s)
    except ValueError:
        try:
            f = float(s)
        except ValueError:
            f = math.nan
        if not f.is_integer():
            raise argparse.ArgumentTypeError(f"bad integer {s!r}")
        x = int(f)
    if x < 1:
        raise argparse.ArgumentTypeError(f"{s!r} is not at least 1")
    return x


def _pos_float(s: str) -> float:
    try:
        x = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {s!r}")
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"{s!r} is not positive and finite")
    return x


# records to 10^100000 takes about 1 s and to 10^1000000 about 80 s on a
# 2-core Xeon VM, as does verify-measure: the cost grows about quadratically
QMAX_LOG10_MAX = 1e6


def _qmax_log10(s: str) -> float:
    x = _pos_float(s)
    if x > QMAX_LOG10_MAX:
        raise argparse.ArgumentTypeError(f"{s!r} is above the ceiling {QMAX_LOG10_MAX:.0f}")
    return x


def _rat_list(s: str) -> list[Fraction]:
    return [_rat(x) for x in s.split(",") if x]


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x]


def _order_list(s: str) -> list[int]:
    n = _int_list(s)
    if any(k < 0 for k in n):
        raise argparse.ArgumentTypeError(f"{s!r} has a negative order")
    return n


def _complex_list(s: str) -> list[complex]:
    try:
        zs = [complex(x) for x in s.split(",") if x]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad complex list {s!r}: {e}")
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
        raise argparse.ArgumentTypeError(f"{s!r} has a non-finite entry")
    return zs


def _fmt_val(v) -> str:
    # str of a Fraction is "num/den", or "num" when it is whole
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt_val(x) for x in v)
    return str(v)


def _header(args: argparse.Namespace, **extra) -> str:
    skip = {"format", "command"}
    fields = [f"{k}={_fmt_val(v)}" for k, v in sorted(vars(args).items())
              if k not in skip and v is not None]
    fields += [f"{k}={_fmt_val(v)}" for k, v in extra.items()]
    return f"# expapprox {__version__} {args.command} " + " ".join(fields)


def cmd_hermite(args, out) -> int:
    from . import hermite as hmod

    data = hmod.point_json(args.alphas, args.n)
    print(_header(args), file=out)
    if args.format == "json":
        print(json.dumps(data), file=out)
    else:
        print("\t".join(data["point"]), file=out)
    return 0


def cmd_mahler(args, out) -> int:
    from . import hermite as hmod

    data = hmod.matrix_json(args.alphas, args.n)
    closed = hmod.mahler_det(args.alphas, args.n)
    data["closed_form"] = hmod.rat_str(closed)
    print(_header(args), file=out)
    print(json.dumps(data), file=out)
    return 0 if data["det"] == data["closed_form"] else 1


def cmd_cf(args, out) -> int:
    from . import cf as cfmod

    print(_header(args), file=out)
    # row n prints ln q_n, which the stream carries with the quotient after it
    items = list(cfmod.stream_cf(args.alpha, count=args.count + 1))
    for (n, a, _), (_, _, lq) in zip(items, items[1:]):
        if args.format == "json":
            print(json.dumps({"n": n, "a": str(a), "log_q": round(lq, 10)}), file=out)
        else:
            print(f"{n}\t{a}\t{lq:.6f}", file=out)
    return 0


def cmd_records(args, out) -> int:
    from . import cf as cfmod

    qmax_log = args.qmax_log10 * math.log(10.0)
    rows = cfmod.record_scan(args.alpha, qmax_log)
    print(_header(args), file=out)
    for r in rows:
        lq = cfmod.truncate1(r.log_q_prev)
        if args.format == "json":
            print(json.dumps({"n": r.n, "a": str(r.a_n), "log_q_prev": lq}), file=out)
        else:
            print(f"{r.n}\t{r.a_n}\t{lq:.1f}", file=out)
    return 0


def cmd_verify_measure(args, out) -> int:
    from . import cf as cfmod

    rep = cfmod.verify_measure(alpha=args.alpha, qmax_log10=args.qmax_log10)
    print(_header(args), file=out)
    print(f"checked {rep.checked} quotient indices, min ratio (n>=10) "
          f"{rep.min_ratio:.4f}", file=out)
    for n, r in rep.small_ratios:
        print(f"n={n}\tratio={r:.4f}", file=out)
    for x, v in rep.direct_small_x:
        print(f"x={x}\tpsi(x)*x*dist={v:.4f}", file=out)
    for n, a, r in rep.violations:
        print(f"VIOLATION n={n} a={a} ratio={r:.4f}", file=out)
    print("all checks passed" if rep.ok else "FAILED", file=out)
    return 0 if rep.ok else 1


def cmd_minima(args, out) -> int:
    from . import minima as mmod

    if args.alpha != Fraction(3) or args.p != 3:
        raise ValueError("only the alpha=3, p=3 family is implemented")
    table = mmod.minima_sandwich(args.nmax)
    print(_header(args), file=out)
    for r in table.rows:
        if args.format == "json":
            print(json.dumps({"n": r.n, "lam1": r.lam1, "lam2": r.lam2,
                              "lam1_scaled": r.lam1_scaled.rounded().to_json(),
                              "lam2_scaled": r.lam2_scaled.rounded().to_json(),
                              "product": r.product, "lam1_n2": r.trend_low,
                              "lam2_over_n2": r.trend_high,
                              "witness1": list(r.witness1),
                              "witness2": list(r.witness2), "ok": r.ok}), file=out)
        else:
            print(f"{r.n}\t{r.lam1:.6g}\t{r.lam2:.6g}\t{r.product:.6f}"
                  f"\t{r.trend_low:.6g}\t{r.trend_high:.6g}\t{int(r.ok)}", file=out)
    print(f"# bounding constant c: {table.bounding_constant:.6g}", file=out)
    return 0 if table.ok else 1


def cmd_volume(args, out) -> int:
    from . import minima as mmod

    spec = mmod.archimedean_body(args.alphas, args.n)
    est = mmod.mc_volume(spec, samples=args.samples, seed=args.seed)
    lo, hi = mmod.volume_sandwich(args.alphas, args.n)
    a, b = est.three_sigma()
    ok = a <= hi and b >= lo
    print(_header(args), file=out)
    print(json.dumps({"estimate": est.estimate, "stderr": est.stderr,
                      "hits": est.hits, "samples": est.samples,
                      "region_volume": est.region_volume,
                      "sandwich": [lo, hi], "seed": est.seed, "ok": ok}), file=out)
    return 0 if ok else 1


def cmd_forest(args, out) -> int:
    from . import forest as fmod

    oracle = fmod.PAdicDistance(args.p)
    delta_exp = args.delta_exp if args.delta_exp is not None else Fraction(1, args.p - 1)
    forest = fmod.build_forest(args.points, delta_exp, oracle)
    ok = fmod.verify_forest(forest, delta_exp, oracle)
    print(_header(args, delta_exp=delta_exp), file=out)
    data = forest.to_json()
    data["verified"] = bool(ok)
    print(json.dumps(data), file=out)
    return 0 if ok else 1


def _poly_from_args(args):
    from . import ascent as asc

    mults = args.mults if args.mults else [1] * len(args.roots)
    return asc.ComplexPoly(list(args.roots), list(mults))


def cmd_ascent(args, out) -> int:
    from . import ascent as asc

    f = _poly_from_args(args)
    tree = asc.build_ascent_tree(f, seed=args.seed)
    rep = asc.verify_bounds(tree)
    print(_header(args), file=out)
    edges = [{"i": e.i, "j": e.j,
              "beta": [e.anchor.beta.real, e.anchor.beta.imag]} for e in tree.edges]
    print(json.dumps({"edges": edges, "bounds_ok": rep.ok,
                      "max_length_ratio": rep.max_length_ratio,
                      "violations": rep.violations}), file=out)
    if args.svg:
        _write_svg(args.svg, tree)
    if args.csv:
        _write_csv(args.csv, tree)
    return 0 if rep.ok else 1


def _write_csv(path: str, tree) -> None:
    from . import ascent as asc

    with open(path, "w") as fh:
        fh.write("edge_i,edge_j,t,re,im\n")
        for e in tree.edges:
            p = asc.path_between(tree, e.i, e.j)
            for t, z in zip(p.ts, p.zs):
                fh.write(f"{e.i},{e.j},{t:.8g},{z.real:.12g},{z.imag:.12g}\n")


def _write_svg(path: str, tree) -> None:
    from . import ascent as asc

    pts = [z for e in tree.edges for z in asc.path_between(tree, e.i, e.j).zs]
    pts += tree.poly.roots
    xs = [z.real for z in pts]
    ys = [z.imag for z in pts]
    pad = 0.1 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    x0, y0, x1, y1 = min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad
    scale = 600.0 / max(x1 - x0, y1 - y0)

    def sx(z):
        return (z.real - x0) * scale

    def sy(z):
        return (y1 - z.imag) * scale

    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{(x1-x0)*scale:.0f}" height="{(y1-y0)*scale:.0f}">\n')
        for e in tree.edges:
            p = asc.path_between(tree, e.i, e.j)
            coords = " ".join(f"{sx(z):.2f},{sy(z):.2f}" for z in p.zs)
            fh.write(f'<polyline points="{coords}" fill="none" '
                     f'stroke="steelblue" stroke-width="1.5"/>\n')
        for r in tree.poly.roots:
            fh.write(f'<circle cx="{sx(r):.2f}" cy="{sy(r):.2f}" r="4" fill="crimson"/>\n')
        for b in tree.critical.betas:
            fh.write(f'<circle cx="{sx(b):.2f}" cy="{sy(b):.2f}" r="3" fill="black"/>\n')
        fh.write("</svg>\n")


def cmd_semires(args, out) -> int:
    from . import ascent as asc

    f = _poly_from_args(args)
    lhs, rhs, dev = asc.semiresultant(f)
    flhs, frhs = asc.factorial_bound_sides(f)
    ok = dev <= 1e-8 and flhs <= frhs * (1 + 1e-9)
    print(_header(args), file=out)
    print(json.dumps({"critical_side": [lhs.real, lhs.imag],
                      "root_side": [rhs.real, rhs.imag],
                      "rel_dev": dev,
                      "factorial_sides": [flhs, frhs], "ok": ok}), file=out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="expapprox", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        return p

    p = add("hermite", help="approximation point at a multi-index")
    p.add_argument("--alphas", type=_rat_list, required=True)
    p.add_argument("--n", type=_order_list, required=True)

    p = add("mahler", help="neighbouring-point matrix vs closed-form determinant")
    p.add_argument("--alphas", type=_rat_list, required=True)
    p.add_argument("--n", type=_int_list, required=True)

    p = add("cf", help="partial quotients of e^alpha")
    p.add_argument("--alpha", type=_pos_rat, default=Fraction(3))
    p.add_argument("--count", type=_pos_int, required=True)

    p = add("records", help="running-maximum partial quotients")
    p.add_argument("--alpha", type=_pos_rat, default=Fraction(3))
    p.add_argument("--qmax-log10", dest="qmax_log10", type=_qmax_log10, required=True)

    p = add("verify-measure", help="irrationality-measure inequality at reduced range")
    p.add_argument("--alpha", type=_pos_rat, default=Fraction(3))
    p.add_argument("--qmax-log10", dest="qmax_log10", type=_qmax_log10, default=2000.0)

    p = add("minima", help="successive minima sandwich for the e^3 family")
    p.add_argument("--alpha", type=_rat, default=Fraction(3))
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--nmax", type=_pos_int, default=20)

    p = add("volume", help="Monte-Carlo volume vs the determinant sandwich")
    p.add_argument("--alphas", type=_rat_list, required=True)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--samples", type=_pos_int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)

    p = add("forest", help="rooted forest on a p-adic point set")
    p.add_argument("--points", type=_rat_list, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--delta-exp", dest="delta_exp", type=_rat, default=None)

    p = add("ascent", help="steepest-ascent tree between polynomial roots")
    p.add_argument("--roots", type=_complex_list, required=True)
    p.add_argument("--mults", type=_int_list, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", default=None)
    p.add_argument("--csv", default=None)

    p = add("semires", help="semi-resultant two-sided identity")
    p.add_argument("--roots", type=_complex_list, required=True)
    p.add_argument("--mults", type=_int_list, default=None)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # resolved per call, so a replaced cmd_* (a test's, a tracer's) is the one run
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return cmd(args, sys.stdout)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Undecided as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:  # a float path left the double range
        print(f"error: floating-point overflow ({e})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
