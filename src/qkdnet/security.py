"""Segment-level security scaling and optimal-density analysis.

Combines the per-node authentication failure probability and the per-link
QKD failure probability into a bound on the whole segment, in both
lowest-order and exact form, and solves for the connection density that
maximizes the hash-output reduction factor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .combinatorics import lowest_order_term, p_success_exact, regime_bound
from .errors import CapExceededError, ValidationError, check_float_size, check_probability
from .topology import NetworkSegment

# epsilon2_exact keeps 2^c window states; at c = 20 its work arrays take
# about 80 MB, and each further unit of c doubles that.
MAX_WINDOW_DENSITY = 20
ROOT_TOL = 1e-9


class _Params(NamedTuple):
    eps_auth: float
    eps_qkd: float


class SecurityParams(_Params):
    """Per-element failure probabilities."""

    __slots__ = ()

    def __new__(cls, eps_auth: float, eps_qkd: float) -> SecurityParams:
        check_probability(eps_auth, "eps_auth")
        check_probability(eps_qkd, "eps_qkd")
        return super().__new__(cls, eps_auth, eps_qkd)


class SecurityReport(NamedTuple):
    """Segment failure bound and its two components.

    Exact fields are None in approx mode.  ``eps_qn`` is the sum of the
    pairing selected by ``mode``, clamped to 1 with ``saturated`` set when
    the raw sum exceeds 1.
    """

    mode: str
    eps1_approx: float
    eps2_approx: float
    eps1_exact: float | None
    eps2_exact: float | None
    eps_qn: float
    regime_flags: tuple[bool, bool]
    saturated: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "eps1_approx": self.eps1_approx,
            "eps2_approx": self.eps2_approx,
            "eps1_exact": self.eps1_exact,
            "eps2_exact": self.eps2_exact,
            "eps_qn": self.eps_qn,
            "regime_auth_valid": self.regime_flags[0],
            "regime_qkd_valid": self.regime_flags[1],
            "saturated": self.saturated,
        }


def epsilon1_approx(seg: NetworkSegment, eps_auth: float) -> float:
    """Lowest-order node-attack bound (N-c-1) * eps_auth^c, an upper bound
    on epsilon1_exact; see combinatorics.lowest_order_term."""
    return lowest_order_term(seg.n_nodes, seg.density, eps_auth)


def epsilon1_regime_valid(seg: NetworkSegment, eps_auth: float) -> bool:
    """True when the lowest-order term (N-c-1) eps_auth^c is <= 1.

    This is the ``regime_auth_valid`` field of the security report.  It is
    not an accuracy flag: the term's relative gap to the exact value is
    bounded by eps_auth + approx / 2 and can be large while the flag is
    true (see combinatorics.regime_bound).
    """
    return eps_auth <= regime_bound(seg.n_nodes, seg.density)


def epsilon1_exact(seg: NetworkSegment, eps_auth: float) -> float:
    """Exact node-attack probability via the success-runs chain of
    combinatorics.p_success_exact."""
    return p_success_exact(seg.n_nodes, seg.density, eps_auth)


def epsilon2_approx(seg: NetworkSegment, eps_qkd: float) -> float:
    """Lowest-order link-attack bound: 2 * eps_qkd^c for c > 1, and the
    serial-chain value (N-1) * eps_qkd for c = 1.  2 * q^c is the lowest-order
    term only for 2 <= c <= N-3, where node 1's out-links and node N's in-links
    are the only cuts of c links; at c >= N-2, N-1 cuts have c links and it
    understates epsilon2_exact (2e-10 against 1.088e-9 at N=12, c=10, q=0.1)."""
    check_probability(eps_qkd, "eps_qkd")
    if seg.density == 1:
        return (seg.n_nodes - 1) * eps_qkd
    return 2.0 * eps_qkd ** seg.density


def epsilon2_regime_valid(seg: NetworkSegment, eps_qkd: float) -> bool:
    """True for c = 1 and when 2 * eps_qkd^c <= 1; not an accuracy flag, and that
    term is the lowest-order one only for 2 <= c <= N-3 (see epsilon2_approx)."""
    return seg.density == 1 or eps_qkd <= 0.5 ** (1.0 / seg.density)


def epsilon2_exact(seg: NetworkSegment, eps_qkd: float) -> float:
    """Exact probability that independently intercepted links cover every
    route (no clean first-to-last path survives).

    Evaluated in floats by a Markov chain over the reachability of the
    trailing window of c nodes (chains.ReachChain), with 2^c states.  A
    node with r reachable predecessors in the window is missed with
    probability q^r; the reached mass is formed as mass minus missed
    mass, so each step conserves the mass up to one rounding per state.
    The subtraction costs q^r / (1 - q^r) roundings of the reached mass,
    which is large only for q near 1, where the result, at least q^c, is
    near 1 as well.  State 0 (nothing in the window reachable) is
    absorbing, and its mass is summed with Neumaier's compensation.  The
    chain stops stepping once it has settled, under the stop rule and
    error bound of p_success_exact; the closed form then adds the
    remaining absorption and the surviving mass whose node N is
    unreached (the second min cut: node N's in-links).

    The tests gate the result at 1e-12 relative against the exact
    rational window DP for N <= 40, q in [0, 1], and a 40-digit decimal
    run of the chain for N = 1e3, 1e4, 1e5 and at slow-mixing points
    (worst measured 2.3e-16).  Time grows as 2^c times the steps taken,
    which stop growing with N once the chain has settled.  Densities
    above MAX_WINDOW_DENSITY raise CapExceededError before any state
    array is allocated.
    """
    check_probability(eps_qkd, "eps_qkd")
    c = seg.density
    if c > MAX_WINDOW_DENSITY:
        raise CapExceededError(
            f"density {c} needs 2^{c} window states, above the exact-evaluation "
            f"cap 2^{MAX_WINDOW_DENSITY}; use the Monte Carlo simulator instead"
        )
    if eps_qkd == 0:
        return 0.0
    from . import chains

    return chains.absorbed(chains.ReachChain(c, eps_qkd), seg.n_nodes - 1)


def epsilon_qn(
    seg: NetworkSegment, params: SecurityParams, mode: str = "approx"
) -> SecurityReport:
    """Composed segment failure bound eps_qn = eps1 + eps2 for the chosen mode."""
    if mode not in ("approx", "exact"):
        raise ValidationError(f"mode must be 'approx' or 'exact', got {mode!r}")
    eps1a = epsilon1_approx(seg, params.eps_auth)
    eps2a = epsilon2_approx(seg, params.eps_qkd)
    eps1e = eps2e = None
    if mode == "exact":
        # eps2 first: its density cap refuses before the eps1 chain runs
        eps2e = epsilon2_exact(seg, params.eps_qkd)
        eps1e = epsilon1_exact(seg, params.eps_auth)
        raw_sum = eps1e + eps2e
    else:
        raw_sum = eps1a + eps2a
    saturated = raw_sum > 1.0
    return SecurityReport(
        mode=mode,
        eps1_approx=eps1a,
        eps2_approx=eps2a,
        eps1_exact=eps1e,
        eps2_exact=eps2e,
        eps_qn=min(raw_sum, 1.0),
        regime_flags=(
            epsilon1_regime_valid(seg, params.eps_auth),
            epsilon2_regime_valid(seg, params.eps_qkd),
        ),
        saturated=saturated,
    )


def optimal_c_root(n_nodes: int) -> float:
    """Real root c* of (N-c-1) ln(N-c-1) = c in [1, N-2], by bisection.

    The left side decreases and the right side increases in c, so the root
    is unique, and [1, N-2] brackets it for every N >= 4: the difference
    is (N-2) ln(N-2) - 1 > 0 at c = 1 and -(N-2) < 0 at c = N-2.  Bisection
    stops at width ROOT_TOL or, once the root is large enough that adjacent
    floats are further apart than ROOT_TOL, when the bracket can shrink no
    more.
    """
    if n_nodes < 4:
        raise ValidationError(f"N must be >= 4, got {n_nodes}")
    check_float_size(n_nodes, "N")

    def g(c: float) -> float:
        rem = n_nodes - c - 1
        return rem * math.log(rem) - c

    lo, hi = 1.0, float(n_nodes - 2)
    while hi - lo > ROOT_TOL:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:  # adjacent floats: ROOT_TOL is below their spacing
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def optimal_c_root_approx(n_nodes: int) -> float:
    """Closed-form estimate (N-1) ln(N-1) / (ln(N-1) + 2) of the root.

    With L = ln(N-1), expanding ln(N-c-1) ~ L - c/(N-1) turns the root
    equation into (N-1)L - c(L+2) + c^2/(N-1) = 0; dropping the c^2 term
    gives this estimate.  It always lies below the root: with
    x = c/(N-1) at the estimate, (N-c-1) ln(N-c-1) - c equals
    (N-1)(x + (1-x) ln(1-x)) > 0 there, and the left side decreases in
    c.  Because c* is a large share of N, the dropped term grows with N:
    the estimate is 8-9% below the root for N in [6, 100] (-6.3 at
    N=100) and 7.3% below at N=1000.
    """
    if n_nodes < 4:
        raise ValidationError(f"N must be >= 4, got {n_nodes}")
    check_float_size(n_nodes, "N")
    log_term = math.log(n_nodes - 1)
    return (n_nodes - 1) * log_term / (log_term + 2)


def hash_reduction_factor(n_nodes: int, c: int) -> float:
    """Hash-output reduction factor c * log_{N-2}(N-c-1) at density c."""
    if n_nodes < 5:
        raise ValidationError(f"N must be >= 5, got {n_nodes}")
    if not 1 <= c < n_nodes - 2:
        raise ValidationError(f"c must be in [1, {n_nodes - 3}], got {c}")
    return c * math.log(n_nodes - c - 1) / math.log(n_nodes - 2)


def optimal_c_integer(n_nodes: int) -> int:
    """Integer density in [1, N-3] maximizing the hash-reduction factor;
    ties break toward smaller c (fewer QKD links for equal security).

    f(c) = c ln(N-c-1) is strictly concave on [1, N-3], since
    f''(c) = -2/(N-c-1) - c/(N-c-1)^2 < 0, and f'(c) = 0 is the root
    equation (N-c-1) ln(N-c-1) = c.  The integer argmax is therefore
    floor or ceil of optimal_c_root; one more integer on each side absorbs
    the bisection tolerance.

    N must be at least 5, and at most about 2.556e305: above that
    (N-1) ln(N-1), which bounds the products of both the factor and
    optimal_c_root_approx, leaves the float range and they are inf.
    """
    if n_nodes < 5:
        raise ValidationError(f"N must be >= 5, got {n_nodes}")
    root = optimal_c_root(n_nodes)
    if math.isinf((n_nodes - 1) * math.log(n_nodes - 1)):
        raise ValidationError(
            f"N must be at most about 2.556e305, where (N-1) ln(N-1) leaves "
            f"the float range, got {float(n_nodes):.6g}"
        )
    lo = max(1, math.floor(root) - 1)
    hi = min(n_nodes - 3, math.ceil(root) + 1)
    # max keeps the first, so the smallest, c among equal factors
    return max(range(lo, hi + 1), key=lambda c: hash_reduction_factor(n_nodes, c))
