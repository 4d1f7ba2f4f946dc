import math
from fractions import Fraction

import pytest

from expapprox import cf
from expapprox.interval import exp_interval

E3_PREFIX = [20, 11, 1, 2, 4, 3, 1, 5, 1, 2, 16]


def test_cascade_matrix_values():
    assert cf.cascade_matrix(1, 3) == (-2, 1, 1, 4)
    assert cf.cascade_matrix(2, 3) == (0, 3, 3, 6)
    assert cf.cascade_matrix(1, Fraction(1, 2)) == (1, 2, 2, 3)
    with pytest.raises(ValueError):
        cf.cascade_matrix(1, 0)


def test_domain_membership():
    assert cf.in_domain((0, 1, 1, 4))
    assert not cf.in_domain((-2, 1, 1, 4))
    assert not cf.in_domain((1, 2, 2, 4))  # t u' = t' u


def test_is_reduced():
    assert cf.is_reduced((0, 1, 1, 4))
    assert cf.is_reduced((3, 12, 0, 27))
    assert not cf.is_reduced((2, 5, 3, 7))
    with pytest.raises(ValueError):
        cf.is_reduced((5, 2, 3, 7))


def test_extract_quotients():
    red, qs = cf.extract_quotients((2, 5, 3, 7))
    assert red == (1, 2, 1, 3) and qs == [2]
    red, qs = cf.extract_quotients((3, 12, 0, 27))
    assert red == (3, 12, 0, 27) and qs == []
    # reconstruction: original = reduced * (0 1 / 1 a_k) ... (0 1 / 1 a_1)
    m = (8, 21, 13, 34)
    red, qs = cf.extract_quotients(m)
    assert cf.mat_mul(red, cf.quotient_matrix_product(qs)) == m


def test_domain_closed_under_multiplication():
    ms = [(2, 5, 3, 7), (0, 1, 1, 4), (1, 4, 0, 9), (8, 21, 13, 34)]
    for a in ms:
        for b in ms:
            assert cf.in_domain(cf.mat_mul(a, b))


def _quotients(alpha, count):
    return [a for _, a, _ in cf.stream_cf(alpha, count=count)]


def test_stream_prefixes():
    assert _quotients(3, 11) == E3_PREFIX
    assert _quotients(1, 10) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1]
    # e^{1/2} = [1; 1,1,1,5,1,1,9,...] (Hurwitz pattern)
    assert _quotients(Fraction(1, 2), 11) == [1, 1, 1, 1, 5, 1, 1, 9, 1, 1, 13]


def test_stream_count_and_bound_edges(deadline):
    assert list(cf.stream_cf(3, count=0)) == []
    assert [n for n, _, _ in cf.stream_cf(3, count=3)] == [0, 1, 2]
    with deadline(10):
        for kwargs in ({"count": -1}, {"log_q_bound": math.nan}, {}):
            with pytest.raises(ValueError):
                list(cf.stream_cf(3, **kwargs))
    # the stream stops before the first quotient whose ln q_{n-1} passes the bound
    items = list(cf.stream_cf(3, log_q_bound=30.0))
    assert all(lq <= 30.0 for _, _, lq in items)
    nxt = list(cf.stream_cf(3, count=len(items) + 1))[-1]
    assert nxt[2] > 30.0


def _cf_of_interval(lo: Fraction, hi: Fraction, count: int) -> list[int]:
    """Shared partial quotients of every number in [lo, hi]: an independent oracle."""
    out = []
    for _ in range(count):
        flo, fhi = math.floor(lo), math.floor(hi)
        if flo != fhi:
            break
        out.append(flo)
        lo, hi = 1 / (hi - fhi), 1 / (lo - flo)
        if lo > hi:
            lo, hi = hi, lo
    return out


@pytest.mark.parametrize("alpha,count", [(Fraction(2), 25), (Fraction(3), 25),
                                         (Fraction(1, 3), 25), (Fraction(5, 2), 20),
                                         (Fraction(5), 20), (Fraction(7, 2), 20),
                                         (Fraction(3), None), (Fraction(1, 2), None),
                                         (Fraction(7, 3), None)])
def test_stream_against_interval_oracle(alpha, count, monkeypatch):
    # count None: every quotient a 6000-bit interval certifies (about 900 to
    # 1800), through multi-factor batches, with the windowed peel off and on
    iv = exp_interval(alpha, bits=220 if count else 6000)
    oracle = _cf_of_interval(iv.lo, iv.hi, count or 10**6)
    assert len(oracle) >= (count or 900)
    count = count or len(oracle)
    for gate in (cf.WINDOW_GATE_BITS, 64):
        monkeypatch.setattr(cf, "WINDOW_GATE_BITS", gate)
        assert _quotients(alpha, count) == oracle[:count]


def _peel_exact(m):
    """The shared-floor rule one quotient at a time, with no window."""
    t, u, tp, up = m
    out = []
    while t > 0 and tp > 0 and u // t == up // tp:
        a = u // t
        t, u, tp, up = u - a * t, t, up - a * tp, tp
        out.append(a)
    return (t, u, tp, up), out


def test_window_quotients_edges():
    # a zero leading t' certifies nothing
    assert cf._window_quotients(0, 5, 3, 7) == ([], cf.IDENT)
    # hull (23/17, 24/16) shares 1; its image (2, 17/6) has the integer 2 as its
    # lower end, so 2 is certified and nothing after it
    qs, tr = cf._window_quotients(16, 23, 18, 26)
    assert qs == [1, 2] and tr == (1, -1, -2, 3)
    A, B, C, D = tr
    assert (C * 23 + D * 16, A * 23 + B * 16) == (2, 7)  # 23/16 = [1; 2, 7/2]
    # bounds (7/4, 8/3) and (9/5, 10/4) share no quotient
    assert cf._window_quotients(3, 7, 4, 9)[0] == []


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(1, 2), Fraction(7, 3)])
def test_windowed_peel_matches_exact_peel(alpha, monkeypatch):
    m = cf.IDENT
    for i in range(1, 3001):
        m = cf.mat_mul(cf.cascade_matrix(i, alpha), m)
    m, _ = cf.strip_content(m)
    assert max(m).bit_length() > cf.WINDOW_GATE_BITS
    windows = []
    window = cf._window_quotients

    def counted(*args):
        qs, tr = window(*args)
        windows.append(len(qs))
        return qs, tr

    monkeypatch.setattr(cf, "_window_quotients", counted)
    assert cf.extract_quotients(m) == _peel_exact(m)
    assert sum(windows) > 1000 and max(windows) > 1


def test_step_reconstruction_200():
    alpha = Fraction(3)
    state, emitted = cf.initial_state(alpha)
    raw = cf.IDENT
    for i in range(1, state.n + 1):
        raw = cf.mat_mul(cf.cascade_matrix(i, alpha), raw)
    quot = cf.quotient_matrix_product(emitted)
    for k in range(200):
        n0 = state.n
        released = cf.step(state, alpha)
        emitted += released
        for i in range(n0 + 1, state.n + 1):
            raw = cf.mat_mul(cf.cascade_matrix(i, alpha), raw)
        quot = cf.mat_mul(cf.quotient_matrix_product(released), quot)
        assert cf.in_domain(state.reduced) and cf.is_reduced(state.reduced)
        assert math.gcd(*state.reduced) == 1
        if k % 20 == 19:
            # raw = content * reduced * (0 1 / 1 a_k) ... (0 1 / 1 a_1), with the
            # stripped content recomputed from the raw product
            scaled = cf.mat_mul(state.reduced, quot)
            content = math.gcd(*raw)
            assert tuple(content * x for x in scaled) == raw
    assert len(emitted) > 5000 and max(state.reduced).bit_length() > cf.WINDOW_GATE_BITS


def test_batching_independence(monkeypatch):
    # batched steps, one factor per step, and one product of every factor
    # release the same quotients from the same cascade factors, with the
    # windowed peel off and on
    alpha = Fraction(3)
    for gate in (cf.WINDOW_GATE_BITS, 64):
        monkeypatch.setattr(cf, "WINDOW_GATE_BITS", gate)
        state, stepped = cf.initial_state(alpha)
        for _ in range(80):
            stepped += cf.step(state, alpha)
        assert state.n > 80 * 8
        single: list[int] = []
        m = product = cf.IDENT
        for i in range(1, state.n + 1):
            m, _ = cf.strip_content(cf.mat_mul(cf.cascade_matrix(i, alpha), m))
            product = cf.mat_mul(cf.cascade_matrix(i, alpha), product)
            if cf.in_domain(m):
                m, qs = _peel_exact(m)
                single += qs
        product, _ = cf.strip_content(product)
        reduced, batched = cf.extract_quotients(product)
        assert stepped == single == batched and len(stepped) > 2000
        assert reduced == m == state.reduced


def test_quotient_count_monotone():
    alpha = Fraction(3)
    state, released = cf.initial_state(alpha)
    total = len(released)
    for _ in range(60):
        n0 = state.n
        total += len(cf.step(state, alpha))
        assert state.n - n0 == cf.batch_size(n0) <= cf.MAX_BATCH
    assert cf.batch_size(10**6) == cf.MAX_BATCH
    assert total == len(list(cf.stream_cf(alpha, count=total)))


def test_log_q_drift_against_exact():
    # the stream's float ln(q_{n-1}) stays within 1e-6 * n of the exact value
    q_prev, q_prev2 = 1, 0
    for n, a, log_q in cf.stream_cf(3, count=3002):
        if n >= 1:
            if n % 1000 == 1:
                assert abs(log_q - math.log(q_prev)) <= 1e-6 * n
            q_prev, q_prev2 = a * q_prev + q_prev2, q_prev


def test_record_scan_small():
    rows = cf.record_scan(3, 40 * math.log(10))
    got = [(r.n, r.a_n, cf.truncate1(r.log_q_prev)) for r in rows]
    assert got[:3] == [(1, 11, 0.0), (10, 16, 9.4), (31, 68, 34.5)]


def test_record_scan_rejects_bad_bound(deadline):
    # a nan or inf bound never stopped the stream
    with deadline(10):
        for bound in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cf.record_scan(3, bound)


def test_verify_measure_rejects_bad_bound(deadline):
    with deadline(10):
        for bound in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                cf.verify_measure(qmax_log10=bound)
            with pytest.raises(ValueError):
                cf.verify_measure(qmax_log=bound)


def test_verify_measure_reduced_range():
    rep = cf.verify_measure(qmax_log10=120.0)
    assert rep.ok
    assert rep.min_ratio >= 1.0
    assert [n for n, _ in rep.small_ratios] == list(range(2, 10))
    assert all(r >= 1.0 for _, r in rep.small_ratios)
    assert all(v >= 1.0 for _, v in rep.direct_small_x)
