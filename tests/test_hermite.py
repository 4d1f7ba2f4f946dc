import random
from fractions import Fraction

import pytest

from expapprox import hermite as h

A03 = (Fraction(0), Fraction(3))


def test_factor_poly_expands():
    assert h.factor_poly(A03, (1, 1)) == [Fraction(0), Fraction(-3), Fraction(1)]
    assert h.factor_poly((Fraction(0),), (2,)) == [0, 0, 1]


def test_factor_poly_zero_off_lattice():
    assert h.factor_poly(A03, (1, -1)) == []
    assert h.hermite_point(A03, (-2, 1)) == (0, 0)


def test_factor_poly_length_mismatch():
    with pytest.raises(ValueError):
        h.factor_poly(A03, (1,))


def test_derivative_sum_small_cases():
    assert h.derivative_sum_poly(A03, (1, 0)) == [1, 1]          # z + 1
    assert h.derivative_sum_poly(A03, (0, 1)) == [-2, 1]         # z - 2
    assert h.derivative_sum_poly(A03, (1, 1)) == [-1, -1, 1]     # z^2 - z - 1


def test_hermite_point_values():
    assert h.hermite_point(A03, (1, 0)) == (1, 4)
    assert h.hermite_point(A03, (0, 1)) == (-2, 1)
    assert h.hermite_point(A03, (1, 1)) == (-1, 5)


def test_point_rec_base_cases():
    assert h.hermite_point_rec(A03, (0, 0)) == (1, 1)
    assert h.hermite_point_rec(A03, (-1, 2)) == (0, 0)
    assert h.hermite_point_rec(A03, (1, 1)) == h.hermite_point(A03, (1, 1))


def test_hermite_matrix_values():
    assert h.hermite_matrix(A03, (1, 1)) == [[-2, 1], [1, 4]]
    assert h.hermite_matrix(A03, (2, 2)) == [[3, 12], [0, 27]]
    assert h.mat_det(h.hermite_matrix(A03, (2, 2))) == 81


def test_hermite_matrix_requires_positive_orders():
    with pytest.raises(ValueError):
        h.hermite_matrix(A03, (1, 0))


def test_step_matrix_values():
    assert h.step_matrix(A03, (1, 1), 1) == [[1, 1], [1, 4]]
    assert h.step_matrix(A03, (1, 1), 2) == [[-2, 1], [1, 1]]
    with pytest.raises(ValueError):
        h.step_matrix(A03, (1, 1), 3)


def test_step_matrix_advances_the_matrix():
    lhs = h.mat_mul(h.step_matrix(A03, (1, 1), 1), h.hermite_matrix(A03, (1, 1)))
    assert lhs == h.hermite_matrix(A03, (2, 1))


def test_mahler_det_values():
    assert h.mahler_det(A03, (1, 1)) == -9
    assert h.mahler_det(A03, (2, 2)) == 81
    assert h.mahler_det((Fraction(5),), (4,)) == 6  # s=1: (m-1)!


def test_degree_and_difference_identities():
    # deg f = deg P = N, and P - P' = f
    alphas = (Fraction(0), Fraction(1, 2), Fraction(-2))
    n = (2, 1, 3)
    f = h.factor_poly(alphas, n)
    p = h.derivative_sum_poly(alphas, n)
    assert h.poly_deg(f) == sum(n) == h.poly_deg(p)
    pp = h.poly_deriv(p)
    diff = h.poly_add(p, [-c for c in pp])
    assert diff == f


def _random_alphas(rng, s):
    vals = set()
    while len(vals) < s:
        vals.add(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
    return tuple(sorted(vals))


@pytest.mark.parametrize("seed", range(12))
def test_random_identities(seed):
    rng = random.Random(seed)
    s = rng.randint(1, 4)
    alphas = _random_alphas(rng, s)
    n = tuple(rng.randint(1, 6) for _ in range(s))

    assert h.mat_det(h.hermite_matrix(alphas, n)) == h.mahler_det(alphas, n)

    cache = {}
    assert h.hermite_point_rec(alphas, n, cache) == h.hermite_point(alphas, n)

    ell = rng.randint(1, s)
    stepped = h.mat_mul(h.step_matrix(alphas, n, ell), h.hermite_matrix(alphas, n))
    bumped = tuple(k + (1 if i == ell - 1 else 0) for i, k in enumerate(n))
    assert stepped == h.hermite_matrix(alphas, bumped)


@pytest.mark.parametrize("alpha,n", [(Fraction(3), 1), (Fraction(3), 4),
                                     (Fraction(1, 2), 3), (Fraction(-5, 3), 2)])
def test_diagonal_product_formula(alpha, n):
    assert h.diagonal_product_matrix(alpha, n) == h.hermite_matrix((0, alpha), (n, n))


def test_rat_str_normalization():
    assert h.rat_str(Fraction(-4)) == "-4"
    assert h.rat_str(Fraction(3, 7)) == "3/7"


def test_json_shapes():
    assert h.poly_json(A03, (1, 1)) == {"alphas": ["0", "3"], "n": [1, 1],
                                        "coeffs": ["-1", "-1", "1"]}
    mj = h.matrix_json(A03, (1, 1))
    assert mj["matrix"] == [["-2", "1"], ["1", "4"]] and mj["det"] == "-9"
