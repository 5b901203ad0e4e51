"""The float attack-probability kernels against the exact rational oracles,
at large N against 40-digit decimal runs of their chains and, for eps1 up
to N = 1e300, against Feller's success-runs asymptotic; the rule that stops
the chains once they have settled; and the guards that keep their cost
bounded."""

import math
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

from qkdnet import (
    CapExceededError,
    ValidationError,
    epsilon2_exact,
    make_segment,
    p_success_exact,
)
from qkdnet import chains
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


# Slow-mixing chains: the stop rule needs 9 to 10 checks to settle here.
@pytest.mark.parametrize("c, q", [(3, 0.5), (8, 0.3)])
def test_epsilon2_exact_settles_where_mixing_is_slow(c, q):
    n = 10**4
    want = Fraction(epsilon2_decimal(n, c, q))
    assert_close(epsilon2_exact(make_segment(n, c), q), want, (n, c, q))


# Where the chain mixes fast, the first check that agrees with the one
# before it (to about 2^-46 = 1.4e-14) leaves the state far closer to
# settled than that, while the check before it may be just outside:
# stopping one check early costs 6.6e-15 to 9.9e-15 here, against at most
# 6.9e-16 for the rule.  The gate is a literal, so a looser rule fails it.
@pytest.mark.parametrize("c, p", [(3, 0.01), (5, 0.1), (7, 0.2)])
def test_p_success_exact_waits_for_agreement(c, p):
    n = 3000
    want = Fraction(p_success_decimal(n, c, p))
    err = abs(Fraction(p_success_exact(n, c, p)) - want) / want
    assert err <= 2e-15, (c, p, float(err))


def p_success_feller(n_nodes: int, c: int, p: float) -> float:
    """Feller's asymptotic for the chance of a run of c successes in
    n = N - 2 Bernoulli(p) trials (An Introduction to Probability Theory,
    vol. I, XIII.7): 1 - A x^-(n+1), with x = 1 + d the root nearest 1 of
    d = (1 - p) p^c (1 + d)^(c + 1) and A = (1 - p d / (1 - p)) / (1 - c d).
    The other roots contribute terms that vanish geometrically in n, far
    below 1e-16 at the N it is used for.  The fixed point is found by
    iteration, which converges where (c + 1) d / (1 + d) < 1."""
    base = (1 - p) * p**c
    d = 0.0
    for _ in range(10_000):
        d, prev = base * (1 + d) ** (c + 1), d
        if d == prev:
            break
    else:
        raise AssertionError(("no fixed point", c, p))
    log_a = math.log1p(-p * d / (1 - p)) - math.log1p(-c * d)
    return -math.expm1(log_a - (n_nodes - 1) * math.log1p(d))


# For each N the grid puts N p^c at 1e-6, 1e-2, 1 and 5, where the
# probability is neither 0 nor 1 in floats, besides fixed p values.
@pytest.mark.parametrize("n", [10**6, 10**12, 10**300], ids=["1e6", "1e12", "1e300"])
def test_p_success_exact_matches_feller_asymptotic(n):
    for c in (1, 2, 3, 5, 8, 13):
        scaled = [(t / n) ** (1 / c) for t in (1e-6, 1e-2, 1.0, 5.0)]
        for p in (*scaled, 1e-6, 1e-3, 0.01, 0.1, 0.3):
            want = p_success_feller(n, c, p)
            assert abs(p_success_exact(n, c, p) - want) <= 1e-12 * want, (n, c, p)


def test_exact_kernels_scale_polynomially():
    # The rational forms took 11.9 s and more than 9 minutes for these.
    start = time.perf_counter()
    p_success_exact(1000, 5, 0.1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    epsilon2_exact(make_segment(300, 10), 0.1)
    assert time.perf_counter() - start < 1.0


def test_exact_kernels_take_the_same_time_at_every_n():
    # Stepping N times took about 1 s at N = 1e6 and never returned at 1e300.
    n = 10**300
    start = time.perf_counter()
    p_success_exact(n, 5, 0.1)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    epsilon2_exact(make_segment(n, 8), 0.3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "kernel,args",
    [
        (p_success_exact, (2000, 5, 0.9)),
        (p_success_exact, (10**300, 300, 0.99)),
        (p_success_exact, (10**300, 50, 0.9)),
        (epsilon2_exact, (make_segment(10**300, 16), 0.3)),
    ],
)
def test_exact_kernels_never_exceed_one(kernel, args):
    # Unclamped, rounding of the chain's mass put these a few units of
    # 2^-52 above 1; each true value is within 2^-53 of 1.
    assert kernel(*args) == 1.0


def test_exact_kernels_check_n_converts_to_float():
    n = 10**400
    with pytest.raises(ValidationError, match="finite float"):
        p_success_exact(n, 5, 0.1)
    with pytest.raises(ValidationError, match="finite float"):
        epsilon2_exact(make_segment(n, 3), 0.1)


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


@pytest.mark.parametrize(
    "n,c,eps_auth,eps_qkd",
    [
        # the eps1 chain's list would not fit an index: OverflowError
        (10**20, 2**63 + 1, 0.5, 0.0),
        # about 1.4 s of eps1 chain
        (10**6, 3000, 0.9, 0.1),
        # about 8 GB of eps1 chain state
        (10**13, 10**9, 0.5, 0.5),
        (MAX_WINDOW_DENSITY + 3, MAX_WINDOW_DENSITY + 1, 0.1, 0.1),
    ],
)
def test_exact_analysis_checks_the_density_cap_before_the_eps1_chain(
    capsys, monkeypatch, n, c, eps_auth, eps_qkd
):
    def refuse(*args):
        raise AssertionError("the eps1 chain was built before the density cap was checked")

    monkeypatch.setattr(chains, "RunsChain", refuse)
    code = main(["analyze", "--n", str(n), "--c", str(c), "--eps-auth", str(eps_auth),
                 "--eps-qkd", str(eps_qkd), "--mode", "exact"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: density {c} needs 2^{c} window states")
    assert "Traceback" not in err


def test_exact_analysis_reports_eps1_argument_errors_before_the_density_cap(capsys):
    # c = N - 1 is above the density cap as well
    code = main(["analyze", "--n", "25", "--c", "24", "--eps-auth", "0.5", "--eps-qkd", "0.1",
                 "--mode", "exact"])
    assert code == 2
    assert capsys.readouterr().err == "error: c must be in [1, 23], got 24\n"
