"""Exact oracles for the library's counts and attack probabilities.

The probability oracles return a Fraction evaluated at Fraction(p), the
exact value of the float argument, so a float kernel can be held to a
relative error bound.  f_bruteforce counts run configurations by
enumerating every subset.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations

import numpy as np

from qkdnet import CapExceededError
from qkdnet.combinatorics import _check_nmc, binomial, f_inclusion_exclusion, max_run_length

DEFAULT_ENUM_CAP = 1 << 22


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
