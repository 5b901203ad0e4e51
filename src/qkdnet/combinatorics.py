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


def max_run_length(positions) -> int:
    """Longest run of consecutive integers in a sorted iterable."""
    best = 0
    run = 0
    prev = None
    for pos in positions:
        run = run + 1 if prev is not None and pos == prev + 1 else 1
        best = max(best, run)
        prev = pos
    return best


def p_success_exact(n_nodes: int, c: int, p: float) -> float:
    """Exact attack success probability: the chance that some c consecutive
    of the N-2 interior nodes are all compromised, each independently with
    probability p.

    Evaluated by the success-runs chain in floats: live[k] is the mass
    whose current run of compromised nodes has length k < c, and a run
    that reaches c is absorbed.  The result is the accumulated absorbed
    mass, never 1 - survival, so every term is a sum of non-negative
    products and it keeps full relative accuracy for p near 0 and near 1.
    Two rounding errors would otherwise grow linearly in N.  The absorbed
    mass is summed with Neumaier's compensation.  And a rounded 1 - p
    would shrink the live mass by the same relative error at every step,
    so the clean share is formed as s - s * p; its rounding error varies
    from step to step.  The result agrees to 1e-12 relative with the
    rational mixture of f_inclusion_exclusion over the binomial
    distribution of m for N <= 40, and with a 40-digit decimal run of the
    same chain for N <= 1e5 (the tests gate both at 1e-12; the worst
    measured error at N = 1e5 is 1.3e-13).  Below the smallest normal
    float the bound is 1e-12 of that float in absolute terms.
    """
    _check_nmc(n_nodes, 0, c)
    check_probability(p)
    live = [1.0] + [0.0] * (c - 1)
    absorbed = lost = 0.0  # Neumaier sum: absorbed + lost is the total
    for _ in range(n_nodes - 2):
        step = live[-1] * p
        total = absorbed + step
        lost += (absorbed - total) + step if absorbed >= step else (step - total) + absorbed
        absorbed = total
        s = math.fsum(live)
        live = [s - s * p] + [mass * p for mass in live[:-1]]
    return absorbed + lost


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
