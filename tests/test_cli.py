import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import expapprox
from expapprox import ascent as asc
from expapprox import cli
from expapprox import minima as mmod
from expapprox import padic as pmod
from expapprox.cli import main
from expapprox.errors import Undecided


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = [l for l in out.splitlines() if l.startswith("#")]
    return code, header, lines


def test_cf_prefix(capsys):
    code, header, lines = run(capsys, "cf", "--alpha", "3", "--count", "11")
    assert code == 0
    assert header and "cf" in header[0]
    assert [int(l.split("\t")[1]) for l in lines] == [20, 11, 1, 2, 4, 3, 1, 5, 1, 2, 16]


def test_cf_json_format(capsys):
    code, _, lines = run(capsys, "cf", "--alpha", "1", "--count", "3", "--format", "json")
    assert code == 0
    rows = [json.loads(l) for l in lines]
    assert [int(r["a"]) for r in rows] == [2, 1, 2]


def test_records_small(capsys):
    code, _, lines = run(capsys, "records", "--alpha", "3", "--qmax-log10", "20")
    assert code == 0
    rows = [l.split("\t") for l in lines]
    assert rows[0] == ["1", "11", "0.0"]
    assert rows[1] == ["10", "16", "9.4"]


def test_verify_measure_small(capsys):
    code, _, lines = run(capsys, "verify-measure", "--qmax-log10", "50")
    assert code == 0
    assert lines[-1] == "all checks passed"


def test_hermite_and_mahler(capsys):
    code, _, lines = run(capsys, "hermite", "--alphas", "0,3", "--n", "1,1",
                         "--format", "json")
    assert code == 0
    assert json.loads(lines[0])["point"] == ["-1", "5"]
    # order 0 is valid: P_0 = 1
    code, header, lines = run(capsys, "hermite", "--alphas", "0,3", "--n", "0,0")
    assert code == 0 and lines == ["1\t1"]
    assert header == ["# expapprox 0.1.0 hermite alphas=0,3 n=0,0"]

    code, _, lines = run(capsys, "mahler", "--alphas", "0,3", "--n", "2,2")
    assert code == 0
    data = json.loads(lines[0])
    assert data["det"] == data["closed_form"] == "81"


def test_forest_subcommand(capsys):
    code, _, lines = run(capsys, "forest", "--points", "0,3,6,1", "--p", "3")
    assert code == 0
    data = json.loads(lines[0])
    assert data["roots"] == [0, 3]
    assert data["verified"] is True


def test_minima_small(capsys):
    code, _, lines = run(capsys, "minima", "--nmax", "3")
    assert code == 0
    assert len([l for l in lines if not l.startswith("# ")]) == 3


@pytest.mark.parametrize("argv, digest", [
    (["minima", "--nmax", "20"],
     "ef70149d785a4fe65f31799b78e2155008aa9b424ccc5c2afefd39558fb6af19"),
    (["minima", "--nmax", "8", "--format", "json"],
     "cc67b69ebf250a82f0da353f92ecc4e1d0daf8e99a73d463453c1fc11a8554ee"),
])
def test_minima_stdout_pinned(capsys, argv, digest):
    # sha256 of the whole stdout, recorded with the Fraction-gauge enumeration
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("tsv", "a60f9fcb7c6867982e238614335fb43da12be3ebc441103dd3a0b11453211b1d"),
    ("json", "af83222bff34f9709e2c25db60a6179021f96f4049d8cf2b7555e2fcc43e2836"),
])
def test_minima_escalated_rows_pinned(capsys, deadline, fmt, digest):
    # rows 35-51 settle only at doubled bits of e^3; recorded with the Fraction-gauge reduction
    with deadline(60):
        assert main(["minima", "--nmax", "51", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_volume_subcommand(capsys):
    code, _, lines = run(capsys, "volume", "--alphas", "0,3", "--n", "2,2",
                         "--samples", "5e4", "--seed", "5")
    assert code == 0
    data = json.loads(lines[0])
    assert data["ok"] is True and data["seed"] == 5


def test_ascent_and_semires(capsys, tmp_path):
    svg = tmp_path / "tree.svg"
    csv = tmp_path / "tree.csv"
    code, _, lines = run(capsys, "ascent", "--roots", "1,1j,-1,-1j",
                         "--svg", str(svg), "--csv", str(csv))
    assert code == 0
    data = json.loads(lines[0])
    assert len(data["edges"]) == 3 and data["bounds_ok"] is True
    assert svg.read_text().startswith("<svg")
    assert csv.read_text().startswith("edge_i")

    code, _, lines = run(capsys, "semires", "--roots", "0,3")
    assert code == 0
    data = json.loads(lines[0])
    assert data["ok"] is True
    assert abs(data["critical_side"][0] + 9) < 1e-9


def test_deterministic_output(capsys):
    # one parser serves every call: no parsed value may leak into the next call
    calls = [
        ["forest", "--points", "0,3,6,1", "--p", "3", "--delta-exp", "1/3"],
        ["forest", "--points", "0,3,6,1", "--p", "3"],
        ["ascent", "--roots", "1,1j,-1,-1j", "--mults", "2,1,1,1"],
        ["ascent", "--roots", "1,1j,-1,-1j"],
        ["volume", "--alphas", "0,3", "--n", "1,1", "--samples", "2e4", "--seed", "11"],
        ["volume", "--alphas", "0,3", "--n", "1,1", "--samples", "2e4"],
        ["volume", "--alphas", "0,3", "--n", "1,1", "--samples", "2e4", "--seed", "12"],
        ["cf", "--count", "5", "--format", "json"],
        ["cf", "--count", "5"],
    ]
    first = {}
    for argv in calls + calls[::-1]:
        code = main(argv)
        got = (code, capsys.readouterr().out)
        assert got == first.setdefault(tuple(argv), got), argv
    assert len(set(first.values())) == len(calls)


def test_parser_built_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    for argv in (["cf", "--count", "3"], ["hermite", "--alphas", "0,3", "--n", "1,1"],
                 ["nosuchcommand"], ["cf", "--count", "3"]):
        main(argv)
    capsys.readouterr()
    assert len(built) == 1


def test_command_resolved_per_call(monkeypatch, capsys):
    assert main(["cf", "--count", "3"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_cf", lambda args, out: seen.append(args.count) or 7)
    assert main(["cf", "--count", "5"]) == 7
    assert seen == [5]
    assert capsys.readouterr().out.count("\n") == 4


def test_usage_errors(capsys):
    assert main(["cf"]) == 2                       # missing --count
    capsys.readouterr()
    assert main(["nosuchcommand"]) == 2
    capsys.readouterr()
    assert main(["forest", "--points", "0,x", "--p", "3"]) == 2
    capsys.readouterr()
    assert main(["minima", "--alpha", "2", "--p", "3", "--nmax", "2"]) == 2
    capsys.readouterr()


def test_cf_count_below_one_rejected(capsys, deadline):
    for count in ("0", "-1"):
        with deadline(10):
            assert main(["cf", "--count", count]) == 2
        assert capsys.readouterr().out == ""


def test_bad_bound_and_alpha_rejected(capsys, deadline):
    # each of these ran forever (a nan or inf bound) or printed a header first
    cases = [["records", "--qmax-log10", v] for v in ("nan", "inf", "-inf", "0", "-5", "x")]
    cases += [["verify-measure", "--qmax-log10", v] for v in ("nan", "inf", "0")]
    # above the ceiling: 1e300 ran forever
    cases += [[cmd, "--qmax-log10", v] for cmd in ("records", "verify-measure")
              for v in ("1e300", "1000001")]
    for alpha in ("0", "-1/2"):
        cases += [["cf", "--alpha", alpha, "--count", "3"],
                  ["records", "--alpha", alpha, "--qmax-log10", "5"],
                  ["verify-measure", "--alpha", alpha]]
    for argv in cases:
        with deadline(10):
            assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv
    # the ceiling itself and the benchmark's bounds parse
    for v in ("1e6", "40000", "2000"):
        assert cli._parser().parse_args(["records", "--qmax-log10", v]).qmax_log10 == float(v)


def test_float_overflow_has_no_traceback(capsys, deadline):
    # the box bound e^R (N-1)! is known from the input: a usage error
    with deadline(10):
        assert main(["volume", "--alphas", "0,1", "--n", "100,100", "--samples", "1000"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: box bound") and cap.err.count("\n") == 1
    # the path tracer's float range is not: undecided
    with deadline(10):
        assert main(["ascent", "--roots", "0,1e300"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: floating-point overflow (complex exponentiation)\n"


def test_numerical_failure_is_exit_3(deadline):
    assert issubclass(asc.NumericalFailure, Undecided)
    # run as a program, so an escaping exception would show as a traceback
    env = {**os.environ, "PYTHONPATH": str(Path(expapprox.__file__).parents[1])}
    with deadline(60):
        proc = subprocess.run([sys.executable, "-m", "expapprox.cli", "ascent",
                               "--roots", "0,1e-7,1"], capture_output=True, text=True,
                              env=env)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: critical point") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("exc", [mmod.PrecisionExhausted, pmod.PrecisionExhausted])
def test_precision_exhausted_is_exit_3(monkeypatch, capsys, deadline, exc):
    assert issubclass(exc, Undecided)
    def give_up(nmax):
        raise exc("sandwich undecided")

    monkeypatch.setattr(mmod, "minima_sandwich", give_up)
    with deadline(10):
        assert main(["minima", "--nmax", "2"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: sandwich undecided\n"


def test_malformed_counts_rejected(capsys, deadline):
    cases = [["minima", "--nmax", v] for v in ("0", "-1", "2.5")]
    cases += [["volume", "--alphas", "0,3", "--n", "1,1", "--samples", v]
              for v in ("0", "-5", "1.5", "nan", "inf", "x")]
    # a negative order, in both spellings
    cases += [["hermite", "--alphas", "0,1", *n] for v in ("-1,0", "2,-1", "-3,0")
              for n in ([f"--n={v}"], ["--n", v])]
    for argv in cases:
        with deadline(10):
            assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.out == "" and "Traceback" not in cap.err, argv


@pytest.mark.parametrize("plain, glued", [
    ("hermite --alphas -1,2 --n 1,1", "hermite --alphas=-1,2 --n 1,1"),
    ("mahler --alphas -1,2 --n 1,1", "mahler --alphas=-1,2 --n 1,1"),
    ("ascent --roots -1,1", "ascent --roots=-1,1"),
    ("forest --points -1,3 --p 3", "forest --points=-1,3 --p 3"),
    ("forest --points 0,3 --p 3 --delta-exp -1/3", "forest --points 0,3 --p 3 --delta-exp=-1/3"),
], ids=["hermite", "mahler", "ascent", "forest", "forest-delta-exp"])
def test_negative_value_plain_spelling(capsys, plain, glued):
    # argparse alone reads "-1,2" as an option; it must mean the same as "--alphas=-1,2"
    assert main(glued.split()) == 0
    want = capsys.readouterr().out
    assert main(plain.split()) == 0
    assert capsys.readouterr().out == want


def _some(good, bad):
    """Mostly a value from good, one time in five from bad."""
    return st.integers(0, 4).flatmap(lambda k: st.sampled_from(bad if k == 0 else good))


def _csv(good, bad, max_size=3):
    return st.one_of(st.lists(st.sampled_from(good), min_size=1, max_size=max_size, unique=True),
                     st.lists(_some(good, bad), max_size=max_size)).map(",".join)


_RAT, _BAD_RAT = ["0", "1", "-1", "3", "1/2", "-2/3", "5/7"], ["x", "1/0", ""]
_INT, _BAD_INT = ["1", "2", "3"], ["-1", "0", "2.5", "x"]
_COMPLEX, _BAD_COMPLEX = ["0", "1", "-1", "1j", "-1j", "2+1j"], ["nan", "x"]
# each command's options: (required, small values)
_OPTIONS = {
    "hermite": {"--alphas": (True, _csv(_RAT, _BAD_RAT)),
                "--n": (True, _csv(_INT + ["0"], _BAD_INT))},
    "mahler": {"--alphas": (True, _csv(_RAT, _BAD_RAT)), "--n": (True, _csv(_INT, _BAD_INT))},
    "cf": {"--alpha": (False, _some(_RAT, _BAD_RAT)),
           "--count": (True, _some(_INT + ["30"], _BAD_INT))},
    "records": {"--alpha": (False, _some(_RAT, _BAD_RAT)),
                "--qmax-log10": (True, _some(["5", "20", "100"], ["-1", "0", "nan"]))},
    "verify-measure": {"--alpha": (False, _some(_RAT, _BAD_RAT)),
                       "--qmax-log10": (True, _some(["5", "50"], ["0", "inf"]))},
    "minima": {"--alpha": (False, _some(["3"], _RAT)), "--p": (False, _some(["3"], _INT)),
               "--nmax": (False, _some(_INT, _BAD_INT))},
    # volume's default 10^6 samples is not a small run
    "volume": {"--alphas": (True, _csv(_RAT, _BAD_RAT)), "--n": (True, _csv(_INT, _BAD_INT)),
               "--samples": (True, _some(["100", "1e3"], ["0", "x"])),
               "--seed": (False, _some(_INT, ["x"]))},
    "forest": {"--points": (True, _csv(_RAT, _BAD_RAT, 4)),
               "--p": (True, _some(["2", "3", "5"], _BAD_INT)),
               "--delta-exp": (False, _some(_RAT, _BAD_RAT))},
    "ascent": {"--roots": (True, _csv(_COMPLEX, _BAD_COMPLEX)),
               "--mults": (False, _csv(_INT, _BAD_INT)), "--seed": (False, _some(_INT, ["x"]))},
    "semires": {"--roots": (True, _csv(_COMPLEX, _BAD_COMPLEX)),
                "--mults": (False, _csv(_INT, _BAD_INT))},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, (required, values) in _OPTIONS[command].items():
        if draw(st.integers(0, 9)) < (9 if required else 4):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(_some(["tsv", "json"], ["xml"]))]
    if draw(st.integers(0, 9)) == 0:  # a stray token anywhere
        stray = draw(st.sampled_from(["--bogus", "-1,2", "x"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_cli_fuzz_exit_codes(deadline, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with deadline(30):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


VOLUME = ["volume", "--alphas", "0,1,3", "--n", "1,1,1", "--samples", "2e5", "--seed", "42"]


def test_volume_independent_of_threads(monkeypatch, capsys, deadline):
    outs = set()
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("EXPAPPROX_THREADS", threads)
        with deadline(30):
            assert main(VOLUME) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
    header, line = outs.pop().splitlines()
    assert "samples=200000" in header.split()
    assert json.loads(line)["hits"] == 9322


def test_volume_workers_capped(monkeypatch, capsys, deadline):
    workers = []
    real = concurrent.futures.ThreadPoolExecutor

    def spy(max_workers):
        workers.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("EXPAPPROX_THREADS", "8")
    with deadline(30):
        assert main(["volume", "--alphas", "0,1,3", "--n", "1,1,1", "--samples", "2e4"]) == 0
    capsys.readouterr()
    assert workers == [2]


def test_bad_thread_count(monkeypatch, capsys, deadline):
    for value in ("two", "1.5"):
        monkeypatch.setenv("EXPAPPROX_THREADS", value)
        with deadline(10):
            assert main(VOLUME) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == f"error: EXPAPPROX_THREADS must be an integer, got {value!r}\n"


MINIMA_SET = {"minima", "interval", "hermite", "padic"}
# each command with the layer modules (and numpy, scipy) it alone loads
COMMAND_LOADS = [
    (["cf", "--count", "5"], {"cf", "interval"}),
    (["records", "--qmax-log10", "20"], {"cf", "interval"}),
    (["verify-measure", "--qmax-log10", "50"], {"cf", "interval"}),
    (["hermite", "--alphas", "0,3", "--n", "1,1"], {"hermite"}),
    (["mahler", "--alphas", "0,3", "--n", "1,1"], {"hermite"}),
    (["forest", "--points", "0,3,6", "--p", "3"], {"forest", "hermite", "padic"}),
    (["minima", "--nmax", "2"], MINIMA_SET),
    (["ascent", "--roots", "0,1"], {"ascent", "numpy"}),
    (["semires", "--roots", "0,1"], {"ascent", "numpy"}),
    (["volume", "--alphas", "0,3", "--n", "1,1", "--samples", "100"],
     MINIMA_SET | {"numpy", "scipy"}),
]
USAGE_ERRORS = [
    ["cf", "--count", "0"], ["records", "--qmax-log10", "nan"], ["minima", "--nmax", "-1"],
    ["hermite", "--alphas", "1", "--n", "-1"], ["mahler", "--alphas", "x", "--n", "1"],
    ["forest", "--p", "3"], ["ascent", "--roots", "inf"], ["semires", "--roots", "0,x"],
    ["volume", "--alphas", "0,3", "--n", "1,1", "--samples", "0"], ["nosuchcommand"],
]
_LOADED = """
import contextlib, io, sys
import expapprox.cli
LAYERS = ("cf", "minima", "hermite", "padic", "forest", "ascent", "interval")
def loaded():
    return sorted({m for m in LAYERS if "expapprox." + m in sys.modules}
                  | {m for m in ("numpy", "scipy") if m in sys.modules})
"""


def _fresh(script: str, deadline) -> str:
    # a fresh interpreter: this process has loaded every layer already
    env = {**os.environ, "PYTHONPATH": str(Path(expapprox.__file__).parents[1])}
    with deadline(60):
        proc = subprocess.run([sys.executable, "-c", _LOADED + script], capture_output=True,
                              text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_each_command_loads_only_its_layer(deadline):
    # the parser and any usage error load no layer module, numpy or scipy
    out = _fresh(f"""
expapprox.cli.build_parser()
print(loaded())
for argv in {USAGE_ERRORS!r}:
    with contextlib.redirect_stderr(io.StringIO()):
        assert expapprox.cli.main(argv) == 2, argv
print(loaded())
""", deadline)
    assert out == "[]\n[]\n"
    for argv, loads in COMMAND_LOADS:
        out = _fresh(f"""
with contextlib.redirect_stdout(io.StringIO()):
    assert expapprox.cli.main({argv!r}) == 0
print(loaded())
""", deadline)
        assert out == f"{sorted(loads)}\n", argv


def test_non_finite_roots_rejected(deadline):
    env = {**os.environ, "PYTHONPATH": str(Path(expapprox.__file__).parents[1])}
    for cmd in ("ascent", "semires"):
        for root in ("inf", "-inf", "nan", "1+infj"):
            with deadline(60):
                proc = subprocess.run([sys.executable, "-m", "expapprox.cli", cmd,
                                       f"--roots={root},1"], capture_output=True,
                                      text=True, env=env)
            assert proc.returncode == 2, (cmd, root)
            assert proc.stdout == ""
            assert "non-finite entry" in proc.stderr.splitlines()[-1]
            assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_basis_reduction_failure_is_exit_3(monkeypatch, capsys, deadline):
    def reduce_52(nmax):
        return mmod.minima2(mmod.e3_body(52), mmod.exp_lattice(52, 3, 3),
                            mmod.exp_interval(3, 832))

    monkeypatch.setattr(mmod, "minima_sandwich", reduce_52)
    with deadline(10):
        assert main(["minima", "--nmax", "2"]) == 3
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: basis reduction did not settle\n"
