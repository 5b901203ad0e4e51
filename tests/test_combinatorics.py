import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rational_oracle import (
    f_bruteforce,
    f_generating_function,
    max_run_length,
    p_compromise_m,
    p_success_given_m,
)

from qkdnet import (
    CapExceededError,
    ValidationError,
    binomial,
    f_inclusion_exclusion,
    p_success_approx,
    p_success_exact,
)
from qkdnet.combinatorics import regime_bound


def pascal(a, b):
    """Pascal-triangle oracle for C(a, b)."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def oracle_run_count(n, m, c):
    """Direct enumeration oracle, independent of the package internals."""
    count = 0
    for mask in combinations(range(n - 2), m):
        run = best = 0
        prev = None
        for pos in mask:
            run = run + 1 if prev == pos - 1 else 1
            best = max(best, run)
            prev = pos
        if best >= c:
            count += 1
    return count


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(18, 9) == 48620 == pascal(18, 9)
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0


@given(a=st.integers(0, 40), b=st.integers(-2, 42))
def test_binomial_matches_pascal(a, b):
    assert binomial(a, b) == pascal(a, b)


def test_f_fig3_values():
    assert f_inclusion_exclusion(6, 2, 2) == 3
    assert f_generating_function(6, 2, 2) == 3
    assert f_bruteforce(6, 2, 2) == 3 == oracle_run_count(6, 2, 2)


def test_f_trivial_cases():
    assert f_inclusion_exclusion(10, 1, 2) == 0  # m < c
    assert f_inclusion_exclusion(6, 4, 2) == 1  # all interior compromised
    assert f_generating_function(6, 0, 2) == 0
    assert f_bruteforce(6, 3, 2) == 4
    assert f_bruteforce(10, 1, 2) == 0


def test_f_cross_form_larger_case():
    assert f_generating_function(20, 5, 3) == f_inclusion_exclusion(20, 5, 3)


def test_f_rejects_bad_ranges():
    with pytest.raises(ValidationError):
        f_inclusion_exclusion(6, 2, 5)
    with pytest.raises(ValidationError):
        f_inclusion_exclusion(6, 7, 2)
    with pytest.raises(ValidationError):
        f_generating_function(2, 0, 1)


def test_f_bruteforce_cap():
    with pytest.raises(CapExceededError):
        f_bruteforce(40, 19, 3, cap=1000)


@pytest.mark.parametrize("n", range(4, 13))
def test_three_way_agreement_small(n):
    for c in range(1, n - 1):
        for m in range(0, n - 1):
            expected = oracle_run_count(n, m, c)
            assert f_inclusion_exclusion(n, m, c) == expected
            assert f_generating_function(n, m, c) == expected
            assert f_bruteforce(n, m, c) == expected


@given(n=st.integers(4, 14), data=st.data())
@settings(max_examples=80)
def test_f_bounds_and_monotonicity(n, data):
    c = data.draw(st.integers(1, n - 2))
    m = data.draw(st.integers(0, n - 2))
    value = f_inclusion_exclusion(n, m, c)
    assert 0 <= value <= binomial(n - 2, m)
    if c < n - 2:
        assert value >= f_inclusion_exclusion(n, m, c + 1)
    if m < c:
        assert value == 0


def test_max_run_length():
    assert max_run_length([]) == 0
    assert max_run_length([3]) == 1
    assert max_run_length([1, 2, 4, 5, 6]) == 3


def test_p_compromise_m_values():
    assert p_compromise_m(10, 0, 0.0) == 1.0
    assert p_compromise_m(6, 2, 0.5) == pytest.approx(0.375, abs=0)
    assert sum(p_compromise_m(20, m, 0.3) for m in range(0, 19)) == pytest.approx(1.0, rel=1e-12)


def test_p_success_given_m():
    assert p_success_given_m(6, 2, 2) == 0.5
    assert p_success_given_m(8, 6, 3) == 1.0  # all interior compromised
    assert p_success_given_m(9, 2, 3) == 0.0  # m < c


def test_p_success_exact_endpoints():
    assert p_success_exact(12, 3, 0.0) == 0.0
    assert p_success_exact(12, 3, 1.0) == 1.0


def test_p_success_exact_definition_consistency():
    # mixture over m equals the weighted sum of the exact counts
    n, c, p = 11, 2, 0.23
    expected = sum(
        p_success_given_m(n, m, c) * p_compromise_m(n, m, p) for m in range(0, n - 1)
    )
    assert p_success_exact(n, c, p) == pytest.approx(expected, rel=1e-12)


def test_p_success_exact_monotone_in_p_and_c():
    grid = [i / 20 for i in range(21)]
    values = [p_success_exact(20, 3, p) for p in grid]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    for p in (0.05, 0.2, 0.5, 0.9):
        assert p_success_exact(20, 5, p) <= p_success_exact(20, 3, p)


def test_p_success_approx_values():
    res = p_success_approx(20, 3, 0.01)
    assert res.approx == pytest.approx(16e-6, rel=1e-12)
    assert res.regime_valid
    assert regime_bound(20, 3) == pytest.approx((1 / 16) ** (1 / 3), rel=1e-12)
    zero = p_success_approx(20, 3, 0.0)
    assert zero.approx == zero.exact == 0.0


def test_approximation_quality_geometric_ladder():
    # lowest-order term dominates: |exact - approx| <= approx well inside
    # the regime, with relative error shrinking as p -> 0
    for n, c in [(10, 2), (20, 3), (30, 4)]:
        cutoff = regime_bound(n, c) / 4
        prev_rel = None
        p = cutoff
        while p > cutoff / 64:
            approx = (n - c - 1) * p**c
            exact = p_success_exact(n, c, p)
            rel = abs(exact - approx) / approx
            assert rel <= 1.0
            if prev_rel is not None:
                assert rel <= prev_rel + 1e-9
            prev_rel = rel
            p /= 4


def test_exact_uses_rational_arithmetic():
    # values tiny enough to underflow naive summation orderings stay exact
    value = p_success_exact(25, 5, 1e-6)
    expected = Fraction(19) * Fraction(1e-6) ** 5
    assert value == pytest.approx(float(expected), rel=1e-3)
    assert math.isfinite(value) and value > 0
