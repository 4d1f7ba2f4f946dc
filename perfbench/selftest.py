"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs the benchmark on a pool of TINY slots per kind.  Checks that every
metric BENCHMARK.json names is printed with its unit, that no mixed_small
request repeats within a run, that the fresh-process mode of the fixed
workloads returns every pass and its spans, that corrupted outputs (a flipped cf quotient,
a changed stdout digest) and raised requests count as failures, that an
ascent abort, raised or as an exit code, counts as a failed op but not as a
wrong output, that a vanished program name drops its metrics instead of
crashing the traced run, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import gen
import refs
import run
import tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


TINY = dict.fromkeys(gen.KINDS, 2)


def bench(*args: str) -> dict:
    """run.main in-process on the tiny pool; its last stdout line as JSON."""
    out = io.StringIO()
    with mock.patch.dict(gen.SLOTS, TINY), contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def check_metric_names() -> None:
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        got = bench("--workload", "mixed_small", "--seed", "3", "--seconds", "0.2",
                    "--trace", trace)
        assert set(got) == {"correct", "attempted", "failed", "metrics"}, got.keys()
        assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, got
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        emitted = {k: v["unit"] for k, v in got["metrics"].items()}
        assert emitted == want, (set(emitted) ^ set(want),
                                 {k for k in want if emitted.get(k) != want[k]})
        assert all(isinstance(v["value"], (int, float)) for v in got["metrics"].values())


def check_fresh_variants() -> None:
    with mock.patch.dict(gen.SLOTS, TINY):
        passes, warmup = gen.workload("mixed_small", 7)
    keys = [r["key"] for reqs in passes for r in reqs] + [r["key"] for r in warmup]
    assert len(keys) == len(set(keys)), "a mixed_small request repeats within a run"
    slots = {tuple(r["key"].rsplit("/", 1)[0] for r in reqs) for reqs in passes}
    assert len(slots) == 1, "a position holds different slots in different passes"


def check_fresh_processes() -> None:
    req = {"kind": "records", "argv": ["records", "--qmax-log10", "30"]}
    res = run.measure("cf_long", [[req]] * 4, [gen.FIXED_WARMUP["records"]], 0, True)
    assert [len(ph) for ph in res["phases"]] == [1, 1], res["phases"]
    assert all(p["results"][0]["code"] == 0 for ph in res["phases"] for p in ph)
    tr = tracer.Tracer.merged(res["tracers"])
    metrics, _ = tracer.layer_metrics(tr, 1)
    assert metrics["cli.requests.count"][0] == 1 and metrics["cf.step.calls"][0] > 0, metrics


def check_failures_are_counted() -> None:
    with mock.patch.dict(gen.SLOTS, TINY):
        passes, _ = gen.workload("mixed_small", 5)
    cf_refs = refs.cf_references(passes[0])
    phases = run.measure("mixed_small", passes[:1], [], 0, False)["phases"]
    digests = refs.load_digests()
    assert run.tally(phases, cf_refs, digests)[1:3] == (0, 0)
    results = phases[0][0]["results"]

    def tally_with(index, **change):
        bad = json.loads(json.dumps(phases))
        bad[0][0]["results"][index].update(change)
        return run.tally(bad, cf_refs, digests)

    kinds = [r["kind"] for r in passes[0]]
    i = kinds.index("cf")
    lines = results[i]["out"].splitlines()
    n, a, lq = lines[3].split("\t")
    lines[3] = "\t".join([n, str(int(a) + 1), lq])  # one flipped quotient
    _, failed, wrong, msgs = tally_with(i, out="\n".join(lines) + "\n")
    assert failed == 1 and wrong == 1 and "differ from the reference" in msgs[0], msgs

    h = kinds.index("hermite")
    _, failed, wrong, msgs = tally_with(h, digest="0" * 12)
    assert failed == 1 and wrong == 1 and "digest" in msgs[0], msgs

    _, failed, wrong, _ = tally_with(h, exc="ZeroDivisionError: boom")
    assert failed == 1 and wrong == 1

    asc = kinds.index("ascent")
    _, failed, wrong, _ = tally_with(asc, exc="NumericalFailure: corrector stalled")
    assert failed == 1 and wrong == 0

    _, failed, wrong, _ = tally_with(asc, code=3, out="", err="undecided")
    assert failed == 1 and wrong == 0

    _, failed, wrong, _ = tally_with(asc, code=1)
    assert failed == 1 and wrong == 1


def check_vanished_name() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from expapprox import cf

    saved = cf.strip_content
    del cf.strip_content
    try:
        tr = tracer.Tracer()
        tr.install()
        tr.uninstall()
    finally:
        cf.strip_content = saved
    metrics, missing = tracer.layer_metrics(tr, 1)
    assert "cf.strip_content" in tr.missing
    assert "cf.strip_content.s" in missing and "cf.content_bits.sum" in missing
    assert "cf.strip_content.s" not in metrics and "cf.extract_quotients.s" in metrics


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-selftest-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "mixed_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=tmp, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    for test in (check_metric_names, check_fresh_variants, check_fresh_processes,
                 check_failures_are_counted, check_vanished_name, check_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
