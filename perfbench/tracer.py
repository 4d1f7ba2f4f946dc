"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the expapprox modules at the names their
callers resolve them by: a function imported with ``from .hermite import ...``
is wrapped in every module that holds it, and ``cli.cmd_*`` is wrapped before
``cli.main`` builds its parser.  Each wrapper records a span; the tracer keeps,
per name, the call count, the summed span time and the summed self time (span
time minus the time of wrapped spans it caused).  A generator is timed per
resumption.  A name the program no longer has is reported as missing, and the
metrics that depend on it are left out rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "expapprox"
MODULES = ("cf", "minima", "hermite", "padic", "forest", "ascent", "cli")


def _content_bits(r, ctr):
    ctr["cf.content_bits.sum"] += r[1].bit_length()


def _remainder_bits(r, ctr):
    ctr.maximum("cf.remainder_bits.max", max(int(x).bit_length() for x in r[0]))


def _mc_samples(r, ctr):
    ctr["minima.mc_volume.samples"] += r.samples


def _sandwich_rows(r, ctr):
    ctr["minima.rows"] += len(r.rows)


def _path_points(r, ctr):
    ctr["ascent.path_points.sum"] += sum(len(t.zs) for t in r)
    ctr["ascent.jitters.sum"] += sum(t.jitters for t in r)


def _interval_bits(bound, ctr):
    ctr.maximum("minima.exp_interval.bits_max", bound.arguments["bits"])


# (module, attribute, hook): the spans the per-layer metrics are built from.
# A hook sees the return value, or the bound call arguments when it is listed
# in CALL_HOOKS.
TARGETS = [
    ("cf", "initial_state", None), ("cf", "step", None), ("cf", "cascade_matrix", None),
    ("cf", "mat_mul", None), ("cf", "strip_content", _content_bits),
    ("cf", "extract_quotients", _remainder_bits), ("cf", "stream_cf", None),
    ("cf", "record_scan", None), ("cf", "verify_measure", None),
    ("minima", "minima_sandwich", _sandwich_rows), ("minima", "minima2", None),
    ("minima", "exp_interval", _interval_bits), ("minima", "root_pow_interval", None),
    ("minima", "archimedean_body", None), ("minima", "mc_volume", _mc_samples),
    ("minima", "volume_sandwich", None),
    ("hermite", "factor_poly", None), ("hermite", "poly_mul", None),
    ("hermite", "derivative_sum_poly", None), ("hermite", "poly_eval", None),
    ("hermite", "hermite_point", None), ("hermite", "hermite_matrix", None),
    ("hermite", "mat_det", None), ("hermite", "mahler_det", None),
    ("padic", "check_ultrametric_bounds", None),
    ("padic", "check_ultrametric_bounds_auto", None), ("padic", "padic_exp", None),
    ("forest", "build_forest", None), ("forest", "verify_forest", None),
    ("forest", "volume_products", None), ("forest", "triangular_forms", None),
    ("forest", "PAdicDistance.dist", None),
    ("ascent", "critical_points", None), ("ascent", "trace_descent", _path_points),
    ("ascent", "build_ascent_tree", None), ("ascent", "verify_bounds", None),
    ("ascent", "semiresultant", None), ("ascent", "factorial_bound_sides", None),
    ("cli", "main", None), ("cli", "build_parser", None),
] + [("cli", f"cmd_{c}", None) for c in (
    "hermite", "mahler", "cf", "records", "verify_measure", "minima", "volume",
    "forest", "ascent", "semires")]


CALL_HOOKS = {_interval_bits}


class Counters(defaultdict):
    def __init__(self):
        super().__init__(float)

    def maximum(self, name, value):
        self[name] = max(self.get(name, value), value)


def _bind(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.ctr = Counters()
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans

    def _enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return time.perf_counter(), frame

    def _exit(self, name, t0, frame):
        dt = time.perf_counter() - t0
        self.stack.pop()
        st = self.stats[name]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0, frame = self._enter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, t0, frame)
                    self.ctr[name + ".yields"] += 1
                    yield value
            return gen_wrapper

        sig = inspect.signature(fn) if hook in CALL_HOOKS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                self._hook(name, hook, lambda: _bind(sig, args, kwargs))
            t0, frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, t0, frame)
            if hook is not None and sig is None:
                self._hook(name, hook, lambda: result)
            return result
        return wrapper

    def _hook(self, name, hook, value):
        try:
            hook(value(), self.ctr)
        except Exception:  # a changed signature or return shape drops the metric, not the run
            self.hook_errors.add(name)

    # -- installation

    def install(self):
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"{PACKAGE}.{m}")
            except ImportError:
                pass
        for modname, attr, hook in TARGETS:
            name = f"{modname}.{attr.split('.')[-1]}"
            mod = mods.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn, hook)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            # patch every module that resolves the same function object
            for other in mods.values():
                for key, val in list(vars(other).items()):
                    if val is fn:
                        self._patch(other, key, wrapped)

    def _patch(self, obj, attr, new):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def uninstall(self):
        for obj, attr, old in reversed(self._patched):
            setattr(obj, attr, old)
        self._patched.clear()

    # -- transfer between processes

    def state(self) -> dict:
        return {"stats": dict(self.stats), "ctr": dict(self.ctr), "missing": self.missing,
                "hook_errors": sorted(self.hook_errors)}

    @classmethod
    def merged(cls, states: list[dict]) -> "Tracer":
        """One tracer holding the spans and counters of several (one per process)."""
        tr = cls()
        for st in states:
            for name, (calls, total, self_t) in st["stats"].items():
                acc = tr.stats[name]
                acc[0] += calls
                acc[1] += total
                acc[2] += self_t
            for name, value in st["ctr"].items():
                if name.endswith("max"):
                    tr.ctr.maximum(name, value)
                else:
                    tr.ctr[name] += value
            tr.missing = sorted(set(tr.missing) | set(st["missing"]))
            tr.hook_errors |= set(st["hook_errors"])
        return tr


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(tr: Tracer, passes: int) -> tuple[dict, list[str]]:
    """Per-pass per-layer metrics {name: (value, unit)} and the names left out."""
    present = {f"{m}.{a.split('.')[-1]}" for m, a, _ in TARGETS} - set(tr.missing)
    out: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    per = 1.0 / max(passes, 1)

    def need(*names):
        return all(n in present for n in names)

    def calls(n):
        return tr.stats[n][0] * per if n in tr.stats else 0.0

    def self_s(n):
        return tr.stats[n][2] * per if n in tr.stats else 0.0

    def total_s(n):
        return tr.stats[n][1] * per if n in tr.stats else 0.0

    def put(metric, deps, fn, unit, hook_of=()):
        if need(*deps) and not any(h in tr.hook_errors for h in hook_of):
            out[metric] = (fn(), unit)
        else:
            missing.append(metric)

    # self time of each wrapped function ("s" and "self_s" alike)
    for metric, src in [
        ("cf.initial_state.s", "cf.initial_state"), ("cf.step.self_s", "cf.step"),
        ("cf.cascade_matrix.s", "cf.cascade_matrix"), ("cf.mat_mul.s", "cf.mat_mul"),
        ("cf.strip_content.s", "cf.strip_content"),
        ("cf.extract_quotients.s", "cf.extract_quotients"),
        ("cf.stream_cf.self_s", "cf.stream_cf"),
        ("minima.minima_sandwich.self_s", "minima.minima_sandwich"),
        ("minima.minima2.s", "minima.minima2"), ("minima.exp_interval.s", "minima.exp_interval"),
        ("minima.root_pow_interval.s", "minima.root_pow_interval"),
        ("minima.archimedean_body.s", "minima.archimedean_body"),
        ("minima.mc_volume.s", "minima.mc_volume"),
        ("minima.volume_sandwich.s", "minima.volume_sandwich"),
        ("hermite.factor_poly.s", "hermite.factor_poly"),
        ("hermite.derivative_sum_poly.s", "hermite.derivative_sum_poly"),
        ("hermite.poly_eval.s", "hermite.poly_eval"),
        ("hermite.hermite_point.s", "hermite.hermite_point"),
        ("hermite.hermite_matrix.s", "hermite.hermite_matrix"),
        ("hermite.mat_det.s", "hermite.mat_det"), ("hermite.mahler_det.s", "hermite.mahler_det"),
        ("padic.check_ultrametric_bounds.self_s", "padic.check_ultrametric_bounds"),
        ("padic.padic_exp.s", "padic.padic_exp"),
        ("forest.build_forest.s", "forest.build_forest"),
        ("forest.verify_forest.s", "forest.verify_forest"),
        ("forest.volume_products.s", "forest.volume_products"),
        ("forest.triangular_forms.s", "forest.triangular_forms"),
        ("ascent.critical_points.s", "ascent.critical_points"),
        ("ascent.trace_descent.s", "ascent.trace_descent"),
        ("ascent.build_ascent_tree.self_s", "ascent.build_ascent_tree"),
        ("ascent.verify_bounds.s", "ascent.verify_bounds"),
        ("ascent.semiresultant.s", "ascent.semiresultant"),
        ("ascent.factorial_bound_sides.s", "ascent.factorial_bound_sides"),
    ]:
        put(metric, [src], lambda src=src: self_s(src), "s")

    for metric, src in [
        ("cf.step.calls", "cf.step"), ("minima.minima2.calls", "minima.minima2"),
        ("minima.exp_interval.calls", "minima.exp_interval"),
        ("hermite.poly_mul.calls", "hermite.poly_mul"),
        ("hermite.derivative_sum_poly.calls", "hermite.derivative_sum_poly"),
        ("padic.check_ultrametric_bounds.calls", "padic.check_ultrametric_bounds"),
        ("padic.check_ultrametric_bounds_auto.calls", "padic.check_ultrametric_bounds_auto"),
        ("padic.padic_exp.calls", "padic.padic_exp"), ("forest.dist.calls", "forest.dist"),
        ("ascent.trace_descent.calls", "ascent.trace_descent"),
        ("cli.requests.count", "cli.main"),
    ]:
        put(metric, [src], lambda src=src: calls(src), "count")

    c = tr.ctr
    consumers = ["cf.record_scan", "cf.verify_measure", "cli.cmd_cf"]
    put("cf.consumer.self_s", consumers, lambda: sum(self_s(n) for n in consumers), "s")
    put("cf.quotients.count", ["cf.stream_cf"], lambda: c["cf.stream_cf.yields"] * per, "count")
    put("cf.quotients_per_step", ["cf.stream_cf", "cf.step"],
        lambda: c["cf.stream_cf.yields"] * per / calls("cf.step") if calls("cf.step") else 0.0,
        "ratio")
    put("cf.content_bits.sum", ["cf.strip_content"], lambda: c["cf.content_bits.sum"] * per,
        "bits", ["cf.strip_content"])
    put("cf.remainder_bits.max", ["cf.extract_quotients"],
        lambda: c.get("cf.remainder_bits.max", 0.0), "bits", ["cf.extract_quotients"])
    put("minima.escalations.count", ["minima.minima2", "minima.minima_sandwich"],
        lambda: calls("minima.minima2") - c["minima.rows"] * per, "count",
        ["minima.minima_sandwich"])
    put("minima.exp_interval.bits_max", ["minima.exp_interval"],
        lambda: c.get("minima.exp_interval.bits_max", 0.0), "bits", ["minima.exp_interval"])
    put("minima.mc_volume.samples_per_s", ["minima.mc_volume"],
        lambda: (c["minima.mc_volume.samples"] * per / total_s("minima.mc_volume")
                 if total_s("minima.mc_volume") else 0.0), "1/s", ["minima.mc_volume"])
    attempts = "padic.check_ultrametric_bounds"
    auto = "padic.check_ultrametric_bounds_auto"
    put("padic.k_escalations.count", [attempts, auto],
        lambda: calls(attempts) - calls(auto), "count")
    put("padic.decided_per_attempt", [attempts, auto],
        lambda: calls(auto) / calls(attempts) if calls(attempts) else 0.0, "ratio")
    put("ascent.path_points.sum", ["ascent.trace_descent"],
        lambda: c["ascent.path_points.sum"] * per, "count", ["ascent.trace_descent"])
    put("ascent.jitters.sum", ["ascent.trace_descent"],
        lambda: c["ascent.jitters.sum"] * per, "count", ["ascent.trace_descent"])
    put("cli.parse.self_s", ["cli.main", "cli.build_parser"],
        lambda: self_s("cli.main") + total_s("cli.build_parser"), "s")
    cmds = [f"{m}.{a}" for m, a, _ in TARGETS if m == "cli" and a.startswith("cmd_")
            and a != "cmd_cf" and f"{m}.{a}" in present]
    put("cli.cmd.self_s", ["cli.main"], lambda: sum(self_s(n) for n in cmds), "s")
    return out, missing
