"""The float attack-probability kernels against the exact rational oracles
and, at large N, against 40-digit decimal runs of their chains; and the
guards that keep their cost bounded."""

import sys
import time
from fractions import Fraction

import pytest
from rational_oracle import (
    epsilon2_decimal,
    epsilon2_rational,
    p_success_decimal,
    p_success_rational,
)

from qkdnet import CapExceededError, epsilon2_exact, make_segment, p_success_exact
from qkdnet.cli import main
from qkdnet.security import MAX_WINDOW_DENSITY

GRID_N = (3, 4, 5, 8, 12, 20, 40)
# p <= 1e-4 is where a complement formed as 1 - (1 - x) loses its digits;
# p near 1 is where 1 - survival would.
GRID_P = (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 3e-4, 1e-3, 0.01, 0.1, 0.3, 0.5,
          0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-9, 1.0)
REL = Fraction(1e-12)
# Below the smallest normal float relative accuracy is not representable;
# there the bound is 1e-12 of that float in absolute terms.
TINY = Fraction(sys.float_info.min)


def assert_close(got: float, want: Fraction, where) -> None:
    err = abs(Fraction(got) - want)
    assert err <= REL * max(want, TINY), (where, got, float(want))


@pytest.mark.parametrize("n", GRID_N)
def test_p_success_exact_matches_rational_oracle(n):
    for c in range(1, n - 1):
        for p in GRID_P:
            assert_close(p_success_exact(n, c, p), p_success_rational(n, c, p), (n, c, p))


@pytest.mark.parametrize("n", GRID_N)
def test_epsilon2_exact_matches_rational_oracle(n):
    for c in range(1, min(n - 1, 8) + 1):
        seg = make_segment(n, c)
        for q in GRID_P:
            got = epsilon2_exact(seg, q)
            assert_close(got, epsilon2_rational(n, c, q), (n, c, q))


# N beyond the rational oracles' reach, where a naive float running sum
# drifts linearly in N (2.5e-12 at N=1e5, c=5, p=1e-6).
LONG_N = (10**3, 10**4, 10**5)


@pytest.mark.parametrize("n", LONG_N)
def test_p_success_exact_matches_decimal_chain(n):
    for c, p in ((2, 1e-3), (3, 0.01), (5, 1e-6), (6, 0.1), (8, 0.05)):
        want = Fraction(p_success_decimal(n, c, p))
        assert_close(p_success_exact(n, c, p), want, (n, c, p))


@pytest.mark.parametrize("n", LONG_N)
def test_epsilon2_exact_matches_decimal_chain(n):
    for c, q in ((1, 1e-6), (2, 1e-4), (3, 1e-3), (3, 0.05)):
        want = Fraction(epsilon2_decimal(n, c, q))
        assert_close(epsilon2_exact(make_segment(n, c), q), want, (n, c, q))


def test_exact_kernels_scale_polynomially():
    # The rational forms took 11.9 s and more than 9 minutes for these.
    start = time.perf_counter()
    p_success_exact(1000, 5, 0.1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    epsilon2_exact(make_segment(300, 10), 0.1)
    assert time.perf_counter() - start < 1.0


def test_window_density_cap(capsys):
    # Raised before any state array exists: never run a density above the
    # cap to watch it allocate.
    c = MAX_WINDOW_DENSITY + 1
    with pytest.raises(CapExceededError):
        epsilon2_exact(make_segment(c + 2, c), 0.1)
    code = main(["analyze", "--n", str(c + 2), "--c", str(c), "--eps-auth", "0.1",
                 "--eps-qkd", "0.1", "--mode", "exact"])
    assert code == 3
    assert "window states" in capsys.readouterr().err
