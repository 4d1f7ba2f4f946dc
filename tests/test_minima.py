import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expapprox import interval
from expapprox import minima as mm


# reference gauge: the body norm of a point as a Fraction interval, E an interval

def _abs_interval(lo, hi):
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def _norm_interval(x, y, body, E):
    b1 = abs(Fraction(x)) / body.scaled_x
    w_lo, w_hi = (x * E.lo - y, x * E.hi - y) if x >= 0 else (x * E.hi - y, x * E.lo - y)
    a_lo, a_hi = _abs_interval(w_lo, w_hi)
    return max(b1, a_lo / body.scaled_form), max(b1, a_hi / body.scaled_form)


def _window_points(body, lat, E, window):
    a, b = mm._gauss_reduce(body, lat, E.mid)
    return [(pa * a[0] + pb * b[0], pa * a[1] + pb * b[1])
            for pa in range(-window, window + 1) for pb in range(-window, window + 1)
            if (pa, pb) != (0, 0)]


def _enumerate_reference(body, lat, E, window):
    """The minima of one window by Fraction gauges and a stable sort."""
    best = []
    for v in _window_points(body, lat, E, window):
        lo, hi = _norm_interval(v[0], v[1], body, E)
        best.append((hi, lo, v))
    best.sort(key=lambda t: (t[0], t[1]))
    hi1, _, w1 = best[0]
    lo1 = min(t[1] for t in best)
    indep = [t for t in best if t[2][0] * w1[1] - t[2][1] * w1[0] != 0]
    hi2, _, w2 = indep[0]
    lo2 = max(min(t[1] for t in indep), lo1)
    return mm.RealInterval(lo1, hi1), mm.RealInterval(lo2, hi2), w1, w2


def _assert_matches_reference(body, lat, E, windows):
    got = mm._enumerate_minima(body, lat, E, *windows)
    assert len(got) == len(windows)
    for w, res in zip(windows, got):
        assert res == _enumerate_reference(body, lat, E, w), w


def test_exp_interval_basics():
    assert mm.exp_interval(0).lo == 1 == mm.exp_interval(0).hi
    iv = mm.exp_interval(3, bits=40)
    assert iv.width <= Fraction(1, 2 ** 40)
    assert abs(float(iv.mid) - math.exp(3.0)) < 1e-11
    iv1 = mm.exp_interval(1, bits=30)
    assert abs(float(iv1.mid) - math.e) < 1e-8


def test_exp_interval_negative():
    iv = mm.exp_interval(-3, bits=50)
    pos = mm.exp_interval(3, bits=50)
    assert iv.lo <= 1 / pos.hi and 1 / pos.lo <= iv.hi
    assert iv.width <= Fraction(1, 2 ** 50)


@pytest.mark.parametrize("bits", [16, 64, 256, 1024])
def test_exp_interval_width_scales(bits):
    assert mm.exp_interval(Fraction(7, 2), bits).width <= Fraction(1, 2 ** bits)


def test_exp_interval_consistency_with_series():
    # independent plain-sum oracle at modest precision
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, 60):
        total += term
        term = term * 3 / k
    iv = mm.exp_interval(3, bits=64)
    assert abs(total - iv.mid) < Fraction(1, 2 ** 40)


def test_root_pow_interval():
    iv = mm.root_pow_interval(3, Fraction(1, 2), 40)
    assert iv.lo ** 2 <= 3 <= iv.hi ** 2
    assert interval.nth_root_int(3 ** 10, 2) == 3 ** 5
    assert interval.nth_root_int(2 ** 30 + 5, 3) == 2 ** 10


def test_lattice_family():
    lat1 = mm.exp_lattice(1, 3, 3)
    assert lat1.basis == ((1, 1), (0, 3))
    lat2 = mm.exp_lattice(2, 3, 3)
    assert lat2.basis == ((1, 4), (0, 9))
    assert lat2.contains(3, 12)
    assert not lat2.contains(1, 5)
    # refinement: residues are compatible across precisions
    assert mm.exp_lattice(6, 3, 3).residue % 9 == lat2.residue


def test_e3_body_bounds():
    b = mm.e3_body(1)
    assert b.scaled_x == 2 and b.scaled_form == Fraction(9, 4)
    bx = b.bound_x(64)
    assert abs(float(bx.mid) - 2.0 / math.sqrt(3.0)) < 1e-12
    assert b.scaled_area == 18


def test_minima_first_witness():
    # lambda_1 at n=1 is attained at +-(1, 19) with scaled norm exactly 1/2
    res = mm.minima2(mm.e3_body(1), mm.exp_lattice(1, 3, 3), mm.exp_interval(3, 128))
    x, y = res.witness1
    assert (abs(x), abs(y)) == (1, 19)
    assert res.lam1.lo <= Fraction(1, 2) <= res.lam1.hi
    assert res.lam1.hi <= res.lam2.hi


def test_minima_witnesses_live_in_lattice():
    for n in (1, 2, 5):
        body = mm.e3_body(n)
        lat = mm.exp_lattice(n, 3, 3)
        E = mm.exp_interval(3, 256)
        res = mm.minima2(body, lat, E)
        # witnesses lie in the lattice and, substituted back, land in the
        # claimed dilation
        for w, lam in ((res.witness1, res.lam1), (res.witness2, res.lam2)):
            assert lat.contains(*w)
            lo, hi = _norm_interval(w[0], w[1], body, E)
            assert lo <= lam.hi and hi >= lam.lo
        (x1, y1), (x2, y2) = res.witness1, res.witness2
        assert x1 * y2 - x2 * y1 != 0


@pytest.mark.parametrize("n", range(1, 13))
def test_integer_gauge_matches_reference(n):
    body, lat = mm.e3_body(n), mm.exp_lattice(n, 3, 3)
    for bits in (24, max(192, 8 * n)):
        E = mm.exp_interval(3, bits)
        _assert_matches_reference(body, lat, E, (2, 4, 8))
        # one window alone, and the windows in another order
        for w in (2, 4, 8):
            assert mm._enumerate_minima(body, lat, E, w) == [_enumerate_reference(body, lat, E, w)]
        assert mm._enumerate_minima(body, lat, E, 8, 2) == [
            _enumerate_reference(body, lat, E, 8), _enumerate_reference(body, lat, E, 2)]


_WIDE = mm.RealInterval(Fraction(-1, 2), Fraction(7, 3))


@pytest.mark.parametrize("body, lat, E, features", [
    # E = 0 on Z^2: the gauge is max(|x|, |y|)
    (mm.Body2(Fraction(1), Fraction(1)), mm.Lattice2(2, 0, 0),
     mm.RealInterval(Fraction(0), Fraction(0)), {"x=0", "tie"}),
    # a wide E: x E - y straddles 0 for many points
    (mm.Body2(Fraction(3, 2), Fraction(5, 7)), mm.Lattice2(3, 2, 4), _WIDE, {"straddle", "tie"}),
    (mm.Body2(Fraction(3, 2), Fraction(5, 7)), mm.Lattice2(2, 3, 4), _WIDE, {"x=0", "straddle"}),
    # a negative, narrow E with a large box bound
    (mm.Body2(Fraction(100), Fraction(1, 9)), mm.Lattice2(5, 1, 3),
     mm.RealInterval(Fraction(-22, 7), Fraction(-311, 99)), {"straddle"}),
])
def test_integer_gauge_edge_cases(body, lat, E, features):
    pts = _window_points(body, lat, E, 4)
    gauges = [_norm_interval(x, y, body, E) for x, y in pts]
    least = min(hi for _, hi in gauges)
    (x1, y1), *rest = [v for v, (_, hi) in zip(pts, gauges) if hi == least]
    seen = {
        "x=0": any(x == 0 for x, _ in pts),
        "straddle": any(min(x * E.lo - y, x * E.hi - y) < 0 < max(x * E.lo - y, x * E.hi - y)
                        for x, y in pts),
        # independent points share the least upper gauge
        "tie": any(x * y1 - y * x1 != 0 for x, y in rest),
    }
    assert any(x < 0 for x, _ in pts)
    assert {k for k, v in seen.items() if v} >= features
    _assert_matches_reference(body, lat, E, (1, 2, 4))


def _fractions(lo, hi, max_den):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


@st.composite
def _minima_inputs(draw):
    body = mm.Body2(draw(_fractions(1, 10 ** 6, 10 ** 4)), draw(_fractions(1, 10 ** 6, 10 ** 4)))
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(0, 6))
    lat = mm.Lattice2(p, n, draw(st.integers(0, p ** n - 1)))
    lo = draw(_fractions(-10 ** 4, 10 ** 4, 2 ** 20))
    E = mm.RealInterval(lo, lo + draw(_fractions(0, 10 ** 4, 2 ** 20)))
    return body, lat, E


@settings(max_examples=150, deadline=None)
@given(_minima_inputs(), st.integers(1, 3))
def test_integer_gauge_matches_reference_random(inputs, window):
    body, lat, E = inputs
    try:
        want = [_enumerate_reference(body, lat, E, w) for w in (window, 2 * window)]
    except mm.PrecisionExhausted:
        with pytest.raises(mm.PrecisionExhausted):
            mm._enumerate_minima(body, lat, E, window, 2 * window)
        return
    assert mm._enumerate_minima(body, lat, E, window, 2 * window) == want


def test_gauss_reduce_gives_up_with_precision_exhausted():
    # 128 reduction steps do not settle at n = 52 with 16 n bits of e^3
    with pytest.raises(mm.PrecisionExhausted, match="basis reduction did not settle"):
        mm._gauss_reduce(mm.e3_body(52), mm.exp_lattice(52, 3, 3), mm.exp_interval(3, 832).mid)


@pytest.mark.parametrize("n", [35, 50])
def test_sandwich_rows_past_34_escalate_bits(n, deadline):
    # at the starting 8 n bits the window answer changes; doubled bits settle it
    body, lat = mm.e3_body(n), mm.exp_lattice(n, 3, 3)
    with pytest.raises(mm.WindowChanged):
        mm.minima2(body, lat, mm.exp_interval(3, 8 * n))
    with deadline(5):
        row = mm.sandwich_row(n)
    assert row.ok and 2.0 <= row.product <= 4.0
    assert lat.contains(*row.witness1) and lat.contains(*row.witness2)


def test_sandwich_row_does_not_escalate_reduction_failure(deadline):
    # more bits of e^3 do not help the reduction at n = 52: it fails at once
    with deadline(5), pytest.raises(mm.PrecisionExhausted, match="basis reduction did not settle"):
        mm.sandwich_row(52)


def test_sandwich_small_range():
    table = mm.minima_sandwich(6)
    assert table.ok
    for row in table.rows:
        assert 2.0 <= row.product <= 4.0
        assert row.lam1 <= row.lam2 * (1 + 1e-12)
    assert table.rows[0].lam1 <= 1.0  # witnessed by (1, 19)
    assert table.bounding_constant < 100


def test_scaled_adelic_body_cases():
    b3 = mm.scaled_adelic_body(3, 4)
    assert b3.g == 2 and b3.b_exponents == {3: Fraction(1, 2)}
    assert b3.convergent_primes == [3]
    assert b3.ultra_bound(3) == -4  # |x e^3 - y|_3 <= 3^{-2n}

    b1 = mm.scaled_adelic_body(1, 2)
    assert b1.g == 1 and b1.b_exponents == {}

    b4 = mm.scaled_adelic_body(4, 2)
    assert b4.g == 2 and b4.b_exponents == {2: Fraction(1)}

    with pytest.raises(ValueError):
        mm.scaled_adelic_body(0, 1)


def test_scaled_adelic_body_matches_e3_family():
    # the alpha=3 rescaled bounds coincide with n * X_n and n^2 * Y_n
    for n in (1, 2, 3, 7):
        body = mm.e3_body(n)
        box, form = mm.scaled_adelic_body(3, n).arch_bounds()
        scale = float(mm.root_pow_interval(3, Fraction(n, 2), 64).mid)
        assert abs(box - n * float(body.scaled_x) / scale) < 1e-9 * box
        assert abs(form - n * n * float(body.scaled_form) / scale) < 1e-9 * form


def test_archimedean_body_quadrature():
    spec = mm.archimedean_body((0, 3), (1, 1))
    e3 = math.exp(3.0)
    assert abs(spec.forms[(0, 1)] - (2 * e3 + 1)) < 1e-8
    assert abs(spec.box_bounds[0] - e3) < 1e-10
    # the k=1 competitor integral e^3 - 4 is dominated
    assert spec.forms[(0, 1)] > e3 - 4


def test_mc_volume_box_sanity():
    spec = mm.ArchBodySpec(alphas=(0.0, 0.0), orders=(1, 1),
                           box_bounds=(1.0, 1.0),
                           forms={(0, 1): 10.0, (1, 0): 10.0},
                           e_values={(0, 1): 1.0, (1, 0): 1.0})
    est = mm.mc_volume(spec, samples=200_000, seed=1)
    assert abs(est.estimate - 4.0) <= 4 * est.stderr + 1e-9
    assert est.stderr < 0.2


def test_mc_volume_converges_with_samples():
    spec = mm.ArchBodySpec(alphas=(0.0, 0.0), orders=(1, 1),
                           box_bounds=(1.0, 1.0),
                           forms={(0, 1): 10.0, (1, 0): 10.0},
                           e_values={(0, 1): 1.0, (1, 0): 1.0})
    errs = []
    for samples in (10_000, 160_000):
        est = mm.mc_volume(spec, samples=samples, seed=3)
        errs.append(abs(est.estimate - 4.0))
    # 16x the samples should shrink the error noticeably (stochastic, seed-pinned)
    assert errs[1] < errs[0]


def test_mc_volume_seed_determinism():
    spec = mm.archimedean_body((0, 3), (2, 2))
    a = mm.mc_volume(spec, samples=50_000, seed=9)
    b = mm.mc_volume(spec, samples=50_000, seed=9)
    c = mm.mc_volume(spec, samples=50_000, seed=10)
    assert a.estimate == b.estimate and a.hits == b.hits
    assert c.estimate != a.estimate


def test_volume_sandwich_intersection():
    for alphas, orders, seed in (((0, 3), (2, 2), 42), ((0, 1, 3), (2, 2, 2), 7)):
        spec = mm.archimedean_body(alphas, orders)
        est = mm.mc_volume(spec, samples=300_000, seed=seed)
        lo, hi = mm.volume_sandwich(alphas, orders)
        a, b = est.three_sigma()
        assert a <= hi and b >= lo
        assert est.hits > 100
