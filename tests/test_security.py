import itertools
import math
import random
from fractions import Fraction

import pytest
from rational_oracle import epsilon2_rational

from qkdnet import (
    SecurityParams,
    ValidationError,
    epsilon1_approx,
    epsilon1_exact,
    epsilon2_approx,
    epsilon2_exact,
    epsilon_qn,
    hash_reduction_factor,
    make_segment,
    optimal_c_integer,
    optimal_c_root,
    p_success_approx,
)
from qkdnet.combinatorics import regime_bound
from qkdnet.security import optimal_c_root_approx


def oracle_link_cover_probability(seg, q):
    """Exhaustive subset enumeration oracle for epsilon2_exact.

    Sums the probability of every intercepted-link subset that leaves no
    clean path from node 1 to node N (reachability recomputed here from
    scratch).
    """
    edges = seg.edges()
    qf = Fraction(q)
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(edges)):
        intercepted = {e for e, hit in zip(edges, bits) if hit}
        reach = {1}
        for j in range(2, seg.n_nodes + 1):
            for i in range(max(j - seg.density, 1), j):
                if i in reach and (i, j) not in intercepted:
                    reach.add(j)
                    break
        if seg.n_nodes not in reach:
            k = len(intercepted)
            total += qf**k * (1 - qf) ** (len(edges) - k)
    return float(total)


def test_epsilon1_approx_values():
    assert epsilon1_approx(make_segment(20, 3), 1e-3) == pytest.approx(16e-9, rel=1e-12)
    assert epsilon1_approx(make_segment(9, 2), 0.0) == 0.0
    assert epsilon1_approx(make_segment(5, 1), 0.01) == pytest.approx(0.03, rel=1e-12)


def test_epsilon1_rejects_density_above_interior():
    with pytest.raises(ValidationError):
        epsilon1_approx(make_segment(6, 5), 0.01)
    with pytest.raises(ValidationError):
        epsilon1_exact(make_segment(6, 5), 0.01)


@pytest.mark.parametrize(
    "n,c,p", [(6, 5, 0.01), (6, 2, 1.5), (10**400, 2, 0.1)], ids=["c=N-1", "p=1.5", "N=1e400"]
)
def test_epsilon1_and_p_success_share_one_set_of_guards(n, c, p):
    # one lowest-order term with one set of checks serves both modules
    with pytest.raises(ValidationError) as from_combinatorics:
        p_success_approx(n, c, p)
    with pytest.raises(ValidationError) as from_security:
        epsilon1_approx(make_segment(n, c), p)
    assert str(from_security.value) == str(from_combinatorics.value)


def test_optimal_c_integer_n_range():
    with pytest.raises(ValidationError, match=r"^N must be >= 5, got 4$"):
        optimal_c_integer(4)
    with pytest.raises(ValidationError, match=r"^N must be at most about 2.556e305, "):
        optimal_c_integer(10**306)


def test_epsilon1_exact_endpoints_and_regime():
    seg = make_segment(20, 3)
    assert epsilon1_exact(seg, 0.0) == 0.0
    assert epsilon1_exact(seg, 1.0) == 1.0
    ratio = epsilon1_exact(seg, 1e-4) / epsilon1_approx(seg, 1e-4)
    assert 0.5 <= ratio <= 2.0


def test_epsilon1_lowest_order_dominance_grid():
    for n in range(6, 26, 4):
        for c in range(1, min(6, n - 1)):
            eps = regime_bound(n, c) / 10
            ratio = epsilon1_exact(make_segment(n, c), eps) / epsilon1_approx(
                make_segment(n, c), eps
            )
            assert 0.5 <= ratio <= 1.5


def test_epsilon2_approx_values():
    assert epsilon2_approx(make_segment(6, 2), 1e-3) == pytest.approx(2e-6, rel=1e-12)
    assert epsilon2_approx(make_segment(6, 1), 1e-3) == pytest.approx(5e-3, rel=1e-12)
    assert epsilon2_approx(make_segment(6, 2), 0.0) == 0.0


def test_epsilon2_exact_serial_chain_closed_form():
    for n in (3, 5, 9):
        for q in (0.0, 1e-3, 0.2, 1.0):
            assert epsilon2_exact(make_segment(n, 1), q) == pytest.approx(
                1 - (1 - q) ** (n - 1), abs=1e-15
            )


def test_epsilon2_exact_endpoints():
    seg = make_segment(6, 2)
    assert epsilon2_exact(seg, 1.0) == 1.0
    assert epsilon2_exact(seg, 0.0) == 0.0


def test_epsilon2_exact_matches_subset_enumeration():
    for n, c in [(4, 1), (5, 2), (6, 2), (4, 3)]:
        seg = make_segment(n, c)
        for q in (0.05, 0.2, 0.5):
            assert epsilon2_exact(seg, q) == pytest.approx(
                oracle_link_cover_probability(seg, q), rel=1e-12
            )


def test_rational_oracle_matches_subset_enumeration():
    # the window-DP oracle that gates epsilon2_exact, checked exhaustively
    for n, c in [(4, 1), (5, 2), (6, 2), (4, 3), (6, 3)]:
        seg = make_segment(n, c)
        for q in (1e-9, 0.2, 0.5, 0.99):
            assert float(epsilon2_rational(n, c, q)) == oracle_link_cover_probability(seg, q)


def test_epsilon2_exact_leading_order_and_lower_bound():
    seg = make_segment(6, 2)
    q = 1e-3
    exact = epsilon2_exact(seg, q)
    assert exact == pytest.approx(2e-6, rel=0.01)
    # both minimal cuts contribute at least q^c (1-q)^(E-c) each
    assert exact >= 2 * q**seg.density * (1 - q) ** (seg.edge_count - seg.density)


def test_epsilon2_exact_edge_cap():
    # 54 edges: only the window density limits exact evaluation
    assert 0 < epsilon2_exact(make_segment(20, 3), 0.1) < 1


def test_epsilon_qn_composition():
    seg = make_segment(20, 3)
    params = SecurityParams(eps_auth=1e-3, eps_qkd=1e-3)
    report = epsilon_qn(seg, params, mode="approx")
    assert report.eps_qn == pytest.approx(16e-9 + 2e-9, rel=1e-12)
    assert report.eps1_exact is None and report.eps2_exact is None
    assert report.regime_flags == (True, True)
    assert not report.saturated

    exact_report = epsilon_qn(make_segment(6, 2), params, mode="exact")
    assert exact_report.eps_qn == pytest.approx(
        exact_report.eps1_exact + exact_report.eps2_exact, rel=1e-12
    )


def test_epsilon_qn_zero_and_saturation():
    seg = make_segment(6, 2)
    zero = epsilon_qn(seg, SecurityParams(0.0, 0.0), mode="exact")
    assert zero.eps_qn == 0.0
    sat = epsilon_qn(make_segment(10, 1), SecurityParams(0.9, 0.9))
    assert sat.saturated and sat.eps_qn == 1.0


def test_epsilon_qn_rejects_bad_mode():
    with pytest.raises(ValidationError):
        epsilon_qn(make_segment(6, 2), SecurityParams(0.1, 0.1), mode="bogus")


def test_security_params_validation():
    with pytest.raises(ValidationError):
        SecurityParams(eps_auth=1.5, eps_qkd=0.1)


def test_optimal_c_root_n20():
    root = optimal_c_root(20)
    assert 12 < root < 13
    rem = 20 - root - 1
    assert abs(rem * math.log(rem) - root) < 1e-8


def test_optimal_c_root_small_n():
    root = optimal_c_root(4)
    assert 1 <= root <= 2
    rem = 4 - root - 1
    assert abs(rem * math.log(rem) - root) < 1e-8
    with pytest.raises(ValidationError):
        optimal_c_root(3)


def test_root_approximation_tracks_root():
    # the closed-form estimate stays within +-1.5 only up to N ~ 25 and
    # then drifts (about -6.3 at N=100); relative deviation stays under 10%
    for n in range(6, 26):
        assert abs(optimal_c_root_approx(n) - optimal_c_root(n)) <= 1.5
    for n in range(6, 101):
        root = optimal_c_root(n)
        assert abs(optimal_c_root_approx(n) - root) / root <= 0.10


def test_hash_reduction_factor():
    assert hash_reduction_factor(20, 1) == pytest.approx(1.0, rel=1e-12)
    assert hash_reduction_factor(20, 3) == pytest.approx(
        3 * math.log(16) / math.log(18), rel=1e-12
    )
    with pytest.raises(ValidationError):
        hash_reduction_factor(20, 18)


def scan_optimal_c(n):
    """Every integer density scanned in order; the first strict maximum wins."""
    best_c, best_factor = 1, hash_reduction_factor(n, 1)
    for c in range(2, n - 2):
        factor = hash_reduction_factor(n, c)
        if factor > best_factor:
            best_c, best_factor = c, factor
    return best_c


def test_optimal_c_integer_matches_scan():
    for n in (5, 8, 20, 50):
        best = min(
            range(1, n - 2),
            key=lambda c: (-hash_reduction_factor(n, c), c),
        )
        assert optimal_c_integer(n) == best
        assert 1 <= optimal_c_integer(n) < n - 2
    assert all(hash_reduction_factor(12, c) > 0 for c in range(1, 10))
    rng = random.Random(14)
    for n in [*range(5, 1001), *rng.sample(range(1001, 10**5 + 1), 8), 10**5]:
        assert optimal_c_integer(n) == scan_optimal_c(n), n


def bisect_to_absolute_tol(n, tol=1e-9):
    """optimal_c_root's loop with only the width test, which never ends
    once adjacent floats near the root are more than tol apart."""

    def g(c):
        rem = n - c - 1
        return rem * math.log(rem) - c

    lo, hi = 1.0, float(n - 2)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_optimal_c_root_unchanged_where_width_test_ends():
    for n in range(4, 2001):
        assert optimal_c_root(n) == bisect_to_absolute_tol(n), n
