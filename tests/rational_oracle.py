"""Exact oracles for the library's counts and attack probabilities.

has_run_of_c and reaches_last score one trial by the definitions of
the attacks: a run of c compromised interior nodes, and no clean route
from the first node to the last.  The probability oracles return a
Fraction evaluated at Fraction(p), the exact value of the float argument,
so a float kernel can be held to a relative error bound.  f_bruteforce
counts run configurations by enumerating every subset, and
f_generating_function counts them through the complement.  The decimal
chains run the float kernels' recurrences at 40 significant digits, for N
too large for the rational oracles.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np

from qkdnet import CapExceededError
from qkdnet.combinatorics import _check_nmc, binomial, f_inclusion_exclusion
from qkdnet.errors import ValidationError, check_probability

DEFAULT_ENUM_CAP = 1 << 22


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


def has_run_of_c(seg, compromised) -> bool:
    """True iff some c consecutive interior nodes are all in ``compromised``."""
    return max_run_length(sorted(compromised)) >= seg.density


def reaches_last(seg, is_open) -> bool:
    """Forward reachability from node 1 to node N, taking the link from i
    to j only where ``is_open(i, j)``."""
    reachable = [False] * (seg.n_nodes + 1)
    reachable[1] = True
    for j in range(2, seg.n_nodes + 1):
        lo = max(j - seg.density, 1)
        reachable[j] = any(reachable[i] and is_open(i, j) for i in range(lo, j))
    return reachable[seg.n_nodes]


def f_bruteforce(n_nodes: int, m: int, c: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Independent oracle: enumerate every m-subset of the interior
    positions and test for a run of >= c consecutive positions."""
    _check_nmc(n_nodes, m, c)
    interior = n_nodes - 2
    if binomial(interior, m) > cap:
        raise CapExceededError(
            f"C({interior},{m}) exceeds enumeration cap {cap}"
        )
    count = 0
    for mask in combinations(range(interior), m):
        if max_run_length(mask) >= c:
            count += 1
    return count


def p_success_rational(n_nodes: int, c: int, p: float) -> Fraction:
    """Node-attack probability as the mixture of p(s|m) = f(N,m,c)/C(N-2,m)
    over the binomial distribution of the number m of compromised interior
    nodes (the C(N-2,m) factors cancel)."""
    pf = Fraction(p)
    interior = n_nodes - 2
    return sum(
        (
            f_inclusion_exclusion(n_nodes, m, c) * pf**m * (1 - pf) ** (interior - m)
            for m in range(c, interior + 1)
        ),
        Fraction(0),
    )


@functools.cache
def epsilon2_polynomial(n_nodes: int, c: int) -> tuple[int, ...]:
    """Integer coefficients, lowest degree first, of the link-attack
    probability as a polynomial in the interception probability q.

    The reachability window DP over 2^c states (newest node in bit 0) with
    each state's mass kept as a polynomial in q: a node with r reachable
    predecessors in the window multiplies it by q^r when missed and by
    1 - q^r when reached.  One pass serves every q; a Fraction DP at a
    single q costs 3-6 s at N=40, c=8.
    """
    size, half = 1 << c, 1 << (c - 1)
    degree = c * (n_nodes - 1)
    mass = np.zeros((size, degree + 1), dtype=object)  # mass[s, k]: coefficient of q^k
    mass[1, 0] = 1  # only node 1 is reachable before the first step
    for _ in range(n_nodes - 1):
        missed = np.zeros_like(mass)
        for state in range(size):
            r = bin(state).count("1")
            missed[state, r:] = mass[state, : degree + 1 - r]
        reached = mass - missed
        mass = np.empty_like(mass)
        mass[0::2] = missed[:half] + missed[half:]
        mass[1::2] = reached[:half] + reached[half:]
    return tuple(int(k) for k in mass[0::2].sum(axis=0))


def epsilon2_rational(n_nodes: int, c: int, q: float) -> Fraction:
    """Link-attack probability: epsilon2_polynomial evaluated exactly at q."""
    coeffs = epsilon2_polynomial(n_nodes, c)
    a, d = Fraction(q).as_integer_ratio()
    degree = len(coeffs) - 1
    return Fraction(
        sum(k * a**j * d ** (degree - j) for j, k in enumerate(coeffs)), d**degree
    )


def f_generating_function(n_nodes: int, m: int, c: int) -> int:
    """Same count as f_inclusion_exclusion via the complement: C(N-2, m)
    minus the number of run-free configurations, read off as the x^m
    coefficient of (1 + x + ... + x^(c-1))^(N-m-1)."""
    _check_nmc(n_nodes, m, c)
    coeff = _poly_power_coefficient(c, n_nodes - m - 1, m)
    return binomial(n_nodes - 2, m) - coeff


def _poly_power_coefficient(c: int, exponent: int, degree: int) -> int:
    """Coefficient of x^degree in (sum_{k=0}^{c-1} x^k)^exponent, exactly."""
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for _ in range(exponent):
        nxt = [0] * (degree + 1)
        for d, a in enumerate(coeffs):
            if a == 0:
                continue
            for k in range(min(c - 1, degree - d) + 1):
                nxt[d + k] += a
        coeffs = nxt
    return coeffs[degree]


def p_compromise_m(n_nodes: int, m: int, p: float) -> float:
    """Bernoulli mass: probability that exactly m of the N-2 interior
    nodes are compromised when each falls independently with probability p."""
    if n_nodes < 3:
        raise ValidationError(f"N must be >= 3, got {n_nodes}")
    if not 0 <= m <= n_nodes - 2:
        raise ValidationError(f"m must be in [0, {n_nodes - 2}], got {m}")
    check_probability(p)
    interior = n_nodes - 2
    return float(binomial(interior, m) * Fraction(p) ** m * (1 - Fraction(p)) ** (interior - m))


def p_success_given_m(n_nodes: int, m: int, c: int) -> float:
    """Conditional attack success probability f(N,m,c) / C(N-2, m)."""
    _check_nmc(n_nodes, m, c)
    return float(Fraction(f_inclusion_exclusion(n_nodes, m, c), binomial(n_nodes - 2, m)))


DIGITS = 40


def p_success_decimal(n_nodes: int, c: int, p: float) -> Decimal:
    """Node-attack probability by the success-runs chain of
    p_success_exact, at DIGITS significant digits from the exact value of
    p: live[k] is the mass whose current run has length k < c."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        pd = Decimal(p)
        clean = 1 - pd
        live = [Decimal(1)] + [Decimal(0)] * (c - 1)
        absorbed = Decimal(0)
        for _ in range(n_nodes - 2):
            absorbed += live[-1] * pd
            live = [sum(live) * clean] + [mass * pd for mass in live[:-1]]
        return absorbed


def epsilon2_decimal(n_nodes: int, c: int, q: float) -> Decimal:
    """Link-attack probability by the reachability-window chain of
    epsilon2_exact, at DIGITS significant digits from the exact value of
    q.  Each state moves on its own: shifting in the next node, which is
    reached (bit 0 set) with probability 1 - q^r for r reachable
    predecessors in the window."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        qd = Decimal(q)
        size = 1 << c
        miss = [qd ** bin(state).count("1") for state in range(size)]
        mass = [Decimal(0)] * size
        mass[1] = Decimal(1)  # only node 1 is reachable before the first step
        for _ in range(n_nodes - 1):
            nxt = [Decimal(0)] * size
            for state, m in enumerate(mass):
                shifted = (state << 1) & (size - 1)
                missed = m * miss[state]
                nxt[shifted] += missed
                nxt[shifted | 1] += m - missed
            mass = nxt
        return sum(mass[0::2])
