"""Coefficient sequences, boundary tables and integrals against frozen values.

The frozen rationals were computed by a separate direct transcription of the
recursions (no memoization, no shared code) before this package was written.
"""

from fractions import Fraction as F
from math import prod

import pytest

from sgortho.coeffs import TABLE, CoeffTable
from sgortho.poly import Poly

FROZEN_ALPHA = {0: F(1), 1: F(1, 6), 2: F(1, 180), 3: F(1, 16200),
                4: F(1, 3013200), 5: F(1, 979290000),
                6: F(829, 413005764600000)}
FROZEN_BETA = {0: F(-1, 2), 1: F(-2, 45), 2: F(-49, 48600),
               3: F(-29, 3389850), 4: F(-9169, 237967470000),
               5: F(-51478, 522710420821875)}
FROZEN_ETA = {0: F(0), 1: F(1, 2), 2: F(1, 36), 3: F(1, 2430),
              4: F(37, 13559400), 5: F(47, 4759349400)}


@pytest.mark.parametrize("j,value", sorted(FROZEN_ALPHA.items()))
def test_alpha_frozen(j, value):
    assert TABLE.alpha(j) == value


@pytest.mark.parametrize("j,value", sorted(FROZEN_BETA.items()))
def test_beta_frozen(j, value):
    assert TABLE.beta(j) == value


@pytest.mark.parametrize("j,value", sorted(FROZEN_ETA.items()))
def test_eta_frozen(j, value):
    assert TABLE.eta(j) == value


def test_initial_data():
    assert TABLE.alpha(0) == 1 and TABLE.alpha(1) == F(1, 6)
    assert TABLE.beta(0) == F(-1, 2) and TABLE.eta(0) == 0
    assert TABLE.alpha_prime(0) == F(1, 2)
    for j in range(1, 8):
        assert TABLE.alpha_prime(j) == TABLE.alpha(j)


def test_gamma_is_shifted_alpha():
    for j in range(12):
        assert TABLE.gamma(j) == 3 * TABLE.alpha(j + 1)


def test_negative_indices_are_zero():
    for fn in (TABLE.alpha, TABLE.beta, TABLE.gamma, TABLE.eta, TABLE.alpha_prime):
        assert fn(-1) == 0
        assert fn(-7) == 0


def test_beta_never_vanishes_up_to_50():
    nonzero = [j for j in range(51) if TABLE.beta(j) != 0]
    assert len(nonzero) == 51


def test_boundary_values():
    assert TABLE.value(0, 1, 0) == 1
    assert TABLE.value(3, 1, 0) == 0
    assert TABLE.value(2, 1, 1) == TABLE.alpha(2)
    assert TABLE.value(2, 1, 2) == TABLE.alpha(2)
    assert TABLE.value(2, 2, 1) == TABLE.beta(2)
    assert TABLE.value(2, 3, 1) == TABLE.gamma(2)
    assert TABLE.value(2, 3, 2) == -TABLE.gamma(2)


def test_boundary_normals():
    assert TABLE.normal(0, 2, 0) == 1
    assert TABLE.normal(1, 1, 0) == 0
    assert TABLE.normal(0, 2, 1) == F(-1, 2)
    assert TABLE.normal(0, 2, 2) == F(-1, 2)
    for j in range(1, 6):
        assert TABLE.normal(j, 2, 1) == -TABLE.alpha(j)
    for j in range(6):
        assert TABLE.normal(j, 1, 1) == TABLE.eta(j)
        assert TABLE.normal(j, 3, 1) == 3 * TABLE.eta(j + 1)
        assert TABLE.normal(j, 3, 2) == -3 * TABLE.eta(j + 1)


def test_boundary_rejections():
    assert TABLE.value(0, 1, 0) == 1
    assert TABLE.normal(0, 2, 1) == F(-1, 2)
    for fn in (TABLE.value, TABLE.normal):
        with pytest.raises(ValueError):
            fn(0, 1, 3)
        with pytest.raises(ValueError):
            fn(0, 4, 1)
        with pytest.raises(ValueError):
            fn(-1, 1, 1)


@pytest.mark.parametrize("vertex", [3, -1, 7])
def test_corner_index_checked(vertex):
    # vertex 1 and 2 share alpha_j and eta_j; other numbers name no corner
    for fn in (TABLE.value, TABLE.normal):
        with pytest.raises(ValueError, match="vertex"):
            fn(2, 1, vertex)
    p = Poly.monomial(2, 1)
    with pytest.raises(ValueError, match="vertex"):
        p.boundary_value(vertex)
    with pytest.raises(ValueError, match="vertex"):
        p.normal_derivative(vertex)


def test_integrals():
    assert TABLE.integral(0, 1) == 1
    assert TABLE.integral(0, 2) == F(-1, 3)
    assert TABLE.integral(2, 1) == F(1, 1215)  # = 2 eta_3
    for j in range(6):
        assert TABLE.integral(j, 3) == 0
        assert TABLE.integral(j, 1) == 2 * TABLE.eta(j + 1)
        assert TABLE.integral(j, 2) == -2 * TABLE.alpha(j + 1)


def test_harmonic_integral_equals_corner_mean():
    # independent cross-check: a harmonic function integrates to the mean of
    # its three corner values
    for k in (1, 2, 3):
        mean = sum(TABLE.value(0, k, v) for v in (0, 1, 2)) / 3
        assert TABLE.integral(0, k) == mean


def test_sum_of_normals_vanishes_for_harmonics():
    for k in (1, 2, 3):
        assert sum(TABLE.normal(0, k, v) for v in (0, 1, 2)) == 0


def _per_term_sequences(n):
    """Oracle: the recursions of the module docstring term by term in
    Fraction arithmetic, one Fraction per product."""
    a, b, e = [F(1), F(1, 6)], [F(-1, 2)], [F(0)]
    for j in range(2, n + 1):
        a.append(F(4, 5**j - 5) * sum((a[j - l] * a[l] for l in range(1, j)), F(0)))
    for j in range(1, n + 1):
        b.append(F(2, 15 * (5**j - 1)) * sum(
            ((3 * 5**(j - l) - 5**(l + 1) + 6) * a[j - l] * b[l]
             for l in range(j)), F(0)))
    for j in range(1, n + 1):
        e.append(F(5**j + 1, 2) * a[j] + 2 * sum((e[l] * b[j - l] for l in range(j)),
                                                 F(0)))
    return a, b, e


def test_integer_sums_match_per_term_recursion():
    a, b, e = _per_term_sequences(64)
    table = CoeffTable()
    assert [table.alpha(j) for j in range(65)] == a
    assert [table.beta(j) for j in range(65)] == b
    assert [table.eta(j) for j in range(65)] == e


def _five_factorial(n):
    """F_n = prod_{i=1..n} (5^i - 1)."""
    return prod(5**i - 1 for i in range(1, n + 1))


def test_closed_form_denominators_clear_the_sequences():
    # H_j = 6^j prod_{i=2..j} (5^i - 5) and K_j = 2 * 90^j prod_{i=1..j} (5^i - 1)
    # are built here from their closed forms, not read from the table
    table = CoeffTable()
    for j in range(41):
        h = 6**j * prod(5**i - 5 for i in range(2, j + 1))
        k = 2 * 90**j * _five_factorial(j)
        for value, den, nums in ((table.alpha(j), h, table._a),
                                 (table.beta(j), k, table._b),
                                 (table.eta(j), k, table._e)):
            scaled = den * value
            assert scaled.denominator == 1
            assert scaled.numerator == nums[j]


def test_five_binomials_are_five_factorial_quotients():
    # the q-Pascal rows against [n, k]_5 = F_n / (F_k F_{n-k}), which is exact
    table = CoeffTable()
    table._extend(20)
    for n in range(21):
        quotients = [F(_five_factorial(n), _five_factorial(k) * _five_factorial(n - k))
                     for k in range(n + 1)]
        assert table._binom[n] == quotients


def test_concurrent_readers():
    import sys
    import threading

    reference = CoeffTable()
    want = {j: (reference.alpha(j), reference.beta(j), reference.eta(j))
            for j in range(61)}
    table = CoeffTable()
    errors = []

    def worker(seed):
        try:
            for j in range(40):
                idx = (j * 7 + seed) % 61
                assert (table.alpha(idx), table.beta(idx), table.eta(idx)) == want[idx]
                assert table.gamma(idx) == 3 * table.alpha(idx + 1)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
