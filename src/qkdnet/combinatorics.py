"""Exact counting of break-the-segment compromise configurations.

A node attack succeeds when at least c consecutive interior nodes (out of
the N-2 interior positions) are compromised.  f(N, m, c) counts the m-node
configurations with that property; p_success_* turn it into exact and
lowest-order attack probabilities under independent per-node compromise
with mean probability p.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, check_float_size, check_probability


class AttackProbability(NamedTuple):
    """Exact and lowest-order attack success probabilities for one (N, c, p)."""

    exact: float
    approx: float
    regime_valid: bool


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range b yields 0."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_nmc(n_nodes: int, m: int, c: int) -> None:
    if n_nodes < 3:
        raise ValidationError(f"N must be >= 3, got {n_nodes}")
    if not 1 <= c <= n_nodes - 2:
        raise ValidationError(f"c must be in [1, {n_nodes - 2}], got {c}")
    if not 0 <= m <= n_nodes - 2:
        raise ValidationError(f"m must be in [0, {n_nodes - 2}], got {m}")


def f_inclusion_exclusion(n_nodes: int, m: int, c: int) -> int:
    """Count of m-node interior configurations containing a run of >= c.

    Alternating sum over the number j of disjoint length-c runs placed
    among the interior positions.
    """
    _check_nmc(n_nodes, m, c)
    total = 0
    for j in range(1, m // c + 1):
        term = binomial(n_nodes - m - 1, j) * binomial(n_nodes - 2 - c * j, m - c * j)
        total += term if j % 2 == 1 else -term
    return total


def p_success_exact(n_nodes: int, c: int, p: float) -> float:
    """Exact attack success probability: the chance that some c consecutive
    of the N-2 interior nodes are all compromised, each independently with
    probability p.

    Evaluated in floats by the success-runs chain (chains.RunsChain):
    live[k] is the mass whose current run of compromised nodes has length
    k < c, and a run that reaches c is absorbed.  The result is the
    absorbed mass, never 1 - survival, summed with Neumaier's
    compensation, so it keeps full relative accuracy for p near 0 and
    near 1.  The chain stops stepping once it has settled
    (chains.absorbed): every max(c, 8) steps its normalised state is
    compared with the previous check's, and once each component agrees to
    about 2^-46 relative, the remaining steps, each absorbing the same
    share of the surviving mass, are added in closed form.  The chain is
    non-negative, so a state within a share d of settled moves the result
    by at most about 3d; the chains module bounds d.  Neither time nor
    error grows with N once the chain has settled.

    The tests gate the result at 1e-12 relative against the rational
    mixture of f_inclusion_exclusion for N <= 40, a 40-digit decimal run
    of the chain for N = 1e3, 1e4, 1e5 (worst measured 5.8e-16), and
    Feller's success-runs asymptotic for N = 1e6, 1e12, 1e300 (worst
    measured 2.1e-15).  Below the smallest normal float the bound is
    1e-12 of that float in absolute terms; a subnormal p^c carries fewer
    digits, which a large N passes on to a result that is not.
    """
    _check_nmc(n_nodes, 0, c)
    check_float_size(n_nodes, "N")
    check_probability(p)
    from . import chains

    return chains.absorbed(chains.RunsChain(c, p), n_nodes - 2)


def regime_bound(n_nodes: int, c: int) -> float:
    """The p at which the lowest-order term (N-c-1) p^c reaches 1.

    Beyond it the term exceeds 1 and bounds nothing.  It is not
    an accuracy boundary: the relative gap of the term depends on p itself
    (see lowest_order_term), so below this p it can still exceed 10%.  The
    ``regime_valid`` flags derived from it (``p_success_approx``, the sweep
    CSV column, ``regime_auth_valid`` in ``analyze``) therefore mean "the
    lowest-order term is <= 1", not "the term is accurate": at N=20, c=5,
    p=regime_bound the flag is true with approx 1.0 against exact 0.412.
    """
    return (1.0 / (n_nodes - c - 1)) ** (1.0 / c)


def lowest_order_term(n_nodes: int, c: int, p: float) -> float:
    """The lowest-order attack probability (N-c-1) p^c, for 1 <= c <= N-2,
    N that converts to a finite float, and p in [0, 1].

    It is the union bound over the N-c-1 windows of c consecutive
    interior nodes, so it is an upper bound on the exact value.
    Bonferroni's lower bound limits the relative gap:
    0 <= approx - exact <= approx * (p + approx / 2); to first order the
    gap is (N-c-2)/(N-c-1) * p.
    """
    _check_nmc(n_nodes, 0, c)
    check_float_size(n_nodes, "N")
    check_probability(p)
    return (n_nodes - c - 1) * p ** c


def p_success_approx(n_nodes: int, c: int, p: float) -> AttackProbability:
    """lowest_order_term alongside the exact value."""
    approx = lowest_order_term(n_nodes, c, p)
    exact = p_success_exact(n_nodes, c, p)
    return AttackProbability(
        exact=exact,
        approx=approx,
        regime_valid=p <= regime_bound(n_nodes, c),
    )
