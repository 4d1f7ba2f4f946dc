"""expapprox benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload cf_long --seed 1 --seconds 20 --trace 0

Workloads (why each is here):

* ``cf_long`` - ``records --qmax-log10 40000`` then ``verify-measure
  --qmax-log10 2000``: the long bigint cascade of the continued fraction of
  e^3, where remainder growth dominates.  An op is a streamed quotient.
* ``minima_sandwich`` - ``minima --nmax 20``, the paper's range for the
  successive-minima sandwich; almost all of it is ``minima.minima2``.  An op
  is a sandwich row.
* ``mixed_small`` - a seeded stream of small verification requests of eight
  kinds (cf prefixes, hermite, mahler, forest with its volume products and
  form matrix, p-adic bounds, ascent, semires, volume).  It runs the hermite,
  padic, forest, ascent and volume code that the other two never touch, and
  cf with per-stream set-up rather than bigint growth.  An op is a request.

Each workload runs as a closed loop with one client and one thread
(``EXPAPPROX_THREADS=1``, because Monte-Carlo seeds depend on the thread
count), repeating passes until ``--seconds`` is spent.  In ``cf_long`` and
``minima_sandwich`` every request runs in a fresh process, forked from a
worker that has only imported the program, as a user's CLI call does, so
nothing the program keeps between calls is reused.  ``mixed_small`` is a
stream of requests in one worker process, and each pass runs fresh variants
of its slots (gen.py).  Every time is normalised to a reference host speed
(speed.py), and a request's latency is its median over the passes (over a
slot's variants in ``mixed_small``).  ``wall_s`` is the sum of those medians
over one pass.  A request, from the client's side, is one call in
``mixed_small``, and ``op_p50_ms`` and ``op_p99_ms`` are percentiles of every
call of every pass; it is one whole verdict (a pass) in the other two, so
there they are the pass latency.  ``ok_ratio`` is one minus the failed share
of ops; an op fails when its output mismatches a reference or its recorded
digest (refs.py), its exit code is not 0, or it raises, an ascent abort
included.  ``setup_s`` is the median of SETUP_RUNS fresh-interpreter imports
of ``expapprox.cli`` that also build its parser.  Inputs and references are
made before the worker starts, outside the timed window.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced and prints the per-layer metrics (tracer.py).  The
last stdout line is the JSON result; a run environment summary goes to stderr.

``--record-digests`` rewrites digests.json from the current program: every
mixed_small pool entry and both fixed workloads, run once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import gen
import refs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 11
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT = 150
# fresh-interpreter set-up: import expapprox.cli and build its parser.  The
# time is raw: the host-speed probe (speed.py) is no good here, because the
# import's page faults and cache misses slow the probe's kernel too, so the
# scale swings by 2x from one import to the next.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import expapprox.cli
expapprox.cli.build_parser()
print(time.perf_counter() - t0)
"""


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + e["PYTHONPATH"] if e.get("PYTHONPATH") else "")
    e["EXPAPPROX_THREADS"] = "1"
    return e


def run_worker(job: dict, timeout: float = WORKER_TIMEOUT) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, cwd=ROOT, env=env(), timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_times(runs: int) -> list[float]:
    """Import expapprox.cli and build its parser, each in a fresh interpreter."""
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                              text=True, cwd=ROOT, env=env(), timeout=60, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def import_times(runs: int) -> dict[str, float]:
    """Median -X importtime figures: numpy, scipy.integrate, expapprox's own modules."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy_integrate": [], "expapprox": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import expapprox.cli"],
                              capture_output=True, text=True, cwd=ROOT, env=env(),
                              timeout=60, check=True)
        got = {"numpy": 0.0, "scipy_integrate": 0.0, "expapprox": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line[12:]:
                continue
            self_us, cum_us, name = (x.strip() for x in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            if name == "numpy":
                got["numpy"] = int(cum_us) / 1e6
            elif name == "scipy.integrate":
                got["scipy_integrate"] = int(cum_us) / 1e6
            elif name == "expapprox" or name.startswith("expapprox."):
                got["expapprox"] += int(self_us) / 1e6
        for k, v in got.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def measure(workload: str, passes, warmup, seconds: float, trace: bool) -> dict:
    """Run the workload: the worker's result, each pass with its requests under "reqs"."""
    budgets = [(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]
    res = run_worker({"passes": passes, "warmup": warmup, "fresh": workload != "mixed_small",
                      "phases": [{"traced": t, "seconds": b} for t, b in budgets]})
    schedule = iter(passes)
    for ph in res["phases"]:
        for p in ph:
            p["reqs"] = next(schedule)
    if not all(res["phases"]):
        raise SystemExit("a phase ran no pass: the pass list is too short")
    return res


def verdict(req: dict, res: dict, cf_refs: dict, digests: dict) -> tuple[str | None, bool]:
    """(why the request failed or None, whether it is an ascent abort)."""
    if refs.is_abort(req, res):
        return f"ascent abort: {res['exc'] or 'exit code %s' % res['code']}", True
    why = refs.check(req, res, cf_refs)
    key = req.get("key", req["kind"])
    if why is None and digests.get(key) != res["digest"]:
        why = f"stdout digest {res['digest']} differs from the recorded {digests.get(key)}"
    return why, False


def tally(phases, cf_refs, digests):
    """(attempted ops, failed ops, wrong outputs other than ascent aborts, messages)."""
    attempted = failed = wrong = 0
    msgs = []
    for p in (p for ph in phases for p in ph):
        for req, res in zip(p["reqs"], p["results"]):
            w = req.get("ops", 1)
            attempted += w
            why, abort = verdict(req, res, cf_refs, digests)
            if why:
                failed += w
                wrong += not abort
                msgs.append(f"{req.get('key', req['kind'])}: {why}")
    return attempted, failed, wrong, msgs


def request_latencies(passes) -> list[float]:
    """Each request's (slot's) median latency (ms, host-speed normalised) over the passes."""
    return [statistics.median(x) for x in zip(*(p["lat"] for p in passes))]


def end_to_end(workload, passes, setups, attempted, failed, maxrss_kb):
    per_req = request_latencies(passes)
    wall = sum(per_req) / 1e3
    ops_per_pass = sum(r.get("ops", 1) for r in passes[0]["reqs"])
    # a mixed_small client waits for each request, over all passes; a cf_long
    # or minima_sandwich client for the whole verdict
    lat = [x for p in passes for x in p["lat"]] if workload == "mixed_small" else [wall * 1e3]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (ops_per_pass / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p99_ms": (pct(lat, 99), "ms"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
    }


def per_layer(untraced, traced, tr, imports):
    layer, missing = tracer.layer_metrics(tr, len(traced))
    aborts = sum(refs.is_abort(req, res) for p in traced for req, res in zip(p["reqs"], p["results"]))
    layer["ascent.numerical_failures.count"] = (aborts / len(traced), "count")
    for k, v in imports.items():
        layer[f"setup.import.{k}_s"] = (v, "s")
    per_req = request_latencies(untraced)
    wall = sum(per_req) / 1e3
    kinds = [r["kind"] for r in untraced[0]["reqs"]]
    for kind in gen.KINDS:
        got = [ms for k, ms in zip(kinds, per_req) if k == kind]
        layer[f"req.{kind}.p50_ms"] = (statistics.median(got) if got else 0.0, "ms")
        layer[f"req.{kind}.share"] = (sum(got) / 1e3 / wall, "ratio")
    # the layer times are means per traced pass, so their base is the mean pass
    layer["trace.wall_s"] = (statistics.mean(p["dt"] for p in traced), "s")
    layer["trace.overhead_s"] = (sum(request_latencies(traced)) / 1e3 - wall, "s")
    return layer, sorted(set(missing + tr.missing))


def environment(args) -> dict:
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "EXPAPPROX_THREADS": "1"}
    for mod in ("numpy", "scipy", "mpmath"):
        try:
            info[mod] = __import__(mod).__version__
        except ImportError:
            info[mod] = None
    info["commit"] = commit()
    return info


def commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (nothing outside it is read)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def record_digests() -> None:
    reqs = list(gen.CF_LONG) + list(gen.MINIMA)
    for slots in gen.pool().values():
        reqs += [r for variants in slots for r in variants]
    res = run_worker({"passes": [reqs], "warmup": [], "fresh": False,
                      "phases": [{"traced": False, "seconds": 0}]}, timeout=1800)
    cf_refs = refs.cf_references(reqs)
    out = {}
    for req, r in zip(reqs, res["phases"][0][0]["results"]):
        why = refs.check(req, r, cf_refs)
        if why:
            print(f"{req.get('key', req['kind'])}: {why}", file=sys.stderr)
        out[req.get("key", req["kind"])] = r["digest"]
    refs.save_digests(out)
    print(f"recorded {len(out)} digests in {refs.DIGESTS}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("cf_long", "minima_sandwich", "mixed_small"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "expapprox" / "cli.py").is_file():
        print(f"error: no expapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    passes, warmup = gen.workload(args.workload, args.seed)
    cf_refs = refs.cf_references([r for reqs in passes for r in reqs])
    res = measure(args.workload, passes, warmup, args.seconds, bool(args.trace))
    attempted, failed, wrong, msgs = tally(res["phases"], cf_refs, refs.load_digests())
    for m in msgs[:20]:
        print(f"FAIL {m}", file=sys.stderr)
    untraced = res["phases"][0]
    if args.trace:
        metrics, missing = per_layer(untraced, res["phases"][1],
                                     tracer.Tracer.merged(res["tracers"]),
                                     import_times(IMPORTTIME_RUNS))
        if missing:
            print(f"missing per-layer metrics: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics = end_to_end(args.workload, untraced, setup_times(SETUP_RUNS), attempted,
                             failed, res["maxrss_kb"])
    info = environment(args)
    info.update(passes=[len(ph) for ph in res["phases"]])
    print(json.dumps({"environment": info}), file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
