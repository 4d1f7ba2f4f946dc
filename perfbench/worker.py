"""Runs one workload: a closed loop, one client, one thread.

Reads a job as JSON on stdin and writes one JSON result line on stdout.  The
job holds the passes that may run, in order, the untimed warm-up requests, and
one or more phases, each a time budget, traced or not (see tracer.py).  A
phase runs the next passes of the list until the next one would overrun its
budget or the list ends, and at least one.  The program's own stdout and
stderr are captured per request, and every request's full output, digest and
host-speed normalised latency (speed.py) is returned.

Requests run in-process, one after another, after one warm-up; or, with
``fresh`` set, each in a child forked from a process that has imported the
program and run nothing, as if it were a CLI call of its own (the import is
what ``setup_s`` times).  A fresh child runs the warm-up request of its kind
first, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

import speed
import tracer


def _lib_call(spec: dict) -> dict:
    """The library calls of criteria 8 and 9, by the names their tests use."""
    if spec["call"] == "padic":
        from expapprox import padic
        rep = padic.check_ultrametric_bounds_auto(
            [Fraction(x) for x in spec["alphas"]], spec["n"], spec["i"], spec["j"], spec["p"])
        return {"plain": rep.plain, "factorial": rep.factorial, "mixed": rep.mixed,
                "all_hold": bool(rep.all_hold)}
    if spec["call"] == "forest":
        from expapprox import forest
        pts = [Fraction(x) for x in spec["points"]]
        dexp = Fraction(spec["delta_exp"])
        oracle = forest.PAdicDistance(spec["p"])
        fo = forest.build_forest(pts, dexp, oracle)
        root_prod, edge_prod = forest.volume_products(fo, spec["n"], oracle, dexp)
        phi = spec["phi"]
        mat, order = forest.triangular_forms(fo, lambda a, b: Fraction(phi[b]))
        return {"roots": list(fo.roots), "edges": [list(e) for e in fo.edges],
                "root_prod": [str(root_prod.exponent), root_prod.zero],
                "edge_prod": [str(edge_prod.exponent), edge_prod.zero],
                "order": list(order), "mat": [[str(x) for x in row] for row in mat]}
    raise ValueError(f"unknown library call {spec['call']!r}")


def execute(req: dict, cli) -> dict:
    """One request: the CLI call and/or the library call; never raises."""
    res = {"code": None, "exc": None, "out": "", "err": "", "lib": None}
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in req:
                res["code"] = cli.main(list(req["argv"]))
            if "lib" in req:
                res["lib"] = _lib_call(req["lib"])
    except (Exception, SystemExit) as e:  # counted as a failed op by the caller
        res["exc"] = f"{type(e).__name__}: {e}"
    res["out"], res["err"] = out.getvalue(), err.getvalue()
    res["digest"] = digest(res)
    return res


def digest(res: dict) -> str:
    h = hashlib.sha256(res["out"].encode())
    if res["lib"] is not None:
        h.update(json.dumps(res["lib"], sort_keys=True).encode())
    return h.hexdigest()[:12]


def in_process(reqs, cli, probe) -> tuple[list[dict], list[float]]:
    """The requests one after another; (results, latencies in ms)."""
    spans, results = [], []
    for req in reqs:
        spent, t0 = probe.spent, time.perf_counter()
        results.append(execute(req, cli))
        t1 = time.perf_counter()
        spans.append((t0, t1, t1 - t0 - (probe.spent - spent)))
    for r, (t0, t1, d) in zip(results, spans):
        r["dt"] = d
    return results, [d * probe.scale(t0, t1) * 1e3 for t0, t1, d in spans]


def _fresh_request(req, warmup, cli, traced) -> dict:
    for w in warmup:
        execute(w, cli)
    tr = tracer.Tracer() if traced else None
    if tr is not None:
        tr.install()
    probe = speed.Probe()
    probe.start()
    spent, t0 = probe.spent, time.perf_counter()
    res = execute(req, cli)
    t1 = time.perf_counter()
    probe.stop()
    if tr is not None:
        tr.uninstall()
    res["dt"] = t1 - t0 - (probe.spent - spent)
    res["ms"] = res["dt"] * probe.scale(t0, t1) * 1e3
    res["tracer"] = tr.state() if tr is not None else None
    return res


def in_child(fn):
    """fn()'s JSON-ready value, computed in a forked child."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "w") as f:
                json.dump(fn(), f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked request ended with wait status {status}")
    return json.loads(data)


def fresh(reqs, cli, warm, traced, tracers) -> tuple[list[dict], list[float]]:
    """Each request in a fresh child; (results, latencies in ms)."""
    results = []
    for req in reqs:
        warmup = [warm[req["kind"]]] if req["kind"] in warm else []
        res = in_child(lambda: _fresh_request(req, warmup, cli, traced))
        state = res.pop("tracer")
        if state is not None:
            tracers.append(state)
        results.append(res)
    return results, [r.pop("ms") for r in results]


def run_phase(passes, run_pass, budget) -> list[dict]:
    """Closed loop over the passes until the next one would overrun ``budget``.

    Each pass is {"dt": seconds in requests, "lat": [ms per request], "results": [...]}.
    """
    out = []
    start = time.perf_counter()
    for reqs in passes:
        t_pass = time.perf_counter()
        results, lat = run_pass(reqs)
        out.append({"dt": sum(r.pop("dt") for r in results), "lat": lat, "results": results})
        now = time.perf_counter()
        if now - start + (now - t_pass) > budget:
            break
    return out


def main() -> None:
    job = json.load(sys.stdin)
    from expapprox import cli
    passes = iter(job["passes"])
    phases, tracers = [], []
    if job["fresh"]:
        warm = {w["kind"]: w for w in job["warmup"]}
        for phase in job["phases"]:
            phases.append(run_phase(
                passes, lambda reqs: fresh(reqs, cli, warm, phase["traced"], tracers),
                phase["seconds"]))
    else:
        for req in job["warmup"]:
            execute(req, cli)
        tr = None
        probe = speed.Probe()
        probe.start()
        for phase in job["phases"]:
            if phase["traced"] and tr is None:
                tr = tracer.Tracer()
                tr.install()
            phases.append(run_phase(passes, lambda reqs: in_process(reqs, cli, probe),
                                    phase["seconds"]))
        probe.stop()
        if tr is not None:
            tr.uninstall()
            tracers.append(tr.state())
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    sys.stdout.write(json.dumps({"phases": phases, "tracers": tracers, "maxrss_kb": rss}) + "\n")


if __name__ == "__main__":
    main()
