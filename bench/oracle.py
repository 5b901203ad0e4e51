"""Float reference values for everything the benchmarked CLI ops print.

This module never imports qkdnet: the rational code paths it stands in for
are planned to leave the library, and an oracle must not share code with
what it checks.

Both exact attack probabilities are banded sliding-window Markov chains.
Every transition probability is formed directly (a miss as ``q**r``, a hit
as ``-expm1(r*log q)``) and the attack probability is accumulated from the
absorbed or failed mass, never as ``1 - survival``, so the values keep full
relative accuracy for p close to 0 and close to 1.
"""

from __future__ import annotations

import math

import numpy as np


def eps1(n: int, c: int, p: float) -> float:
    """Probability that some c consecutive interior nodes (of the n-2) are
    all compromised, each independently with probability p.

    Run-length chain: live[k] is the mass whose current run of compromised
    nodes has length k < c; a run reaching c is absorbed.
    """
    live = [1.0] + [0.0] * (c - 1)
    clean = 1.0 - p
    absorbed = 0.0
    for _ in range(n - 2):
        absorbed += live[-1] * p
        live = [math.fsum(live) * clean] + [m * p for m in live[:-1]]
    return absorbed


def eps2(n: int, c: int, q: float) -> float:
    """Probability that links intercepted independently with probability q
    leave no clean route from node 1 to node n.

    The state is the reachability of the last c nodes, newest in bit 0. A
    node with r reachable predecessors in the window is missed (unreachable)
    with probability q**r.
    """
    if q == 0.0:
        return 0.0
    size = 1 << c
    states = np.arange(size)
    reach = np.array([bin(s).count("1") for s in range(size)], dtype=float)
    miss = q**reach
    hit = -np.expm1(reach * math.log(q))
    shifted = (states << 1) & (size - 1)
    mass = np.zeros(size)
    mass[1] = 1.0  # only node 1 is reachable before the first step
    for _ in range(n - 1):
        mass = np.bincount(shifted | 1, weights=mass * hit, minlength=size) + np.bincount(
            shifted, weights=mass * miss, minlength=size
        )
    return float(mass[0::2].sum())


def eps1_approx(n: int, c: int, p: float) -> float:
    return (n - c - 1) * p**c


def eps2_approx(n: int, c: int, q: float) -> float:
    return (n - 1) * q if c == 1 else 2.0 * q**c


def regime_bound_auth(n: int, c: int) -> float:
    return (1.0 / (n - c - 1)) ** (1.0 / c)


def regime_bound_qkd(c: int) -> float:
    return 1.0 if c == 1 else 0.5 ** (1.0 / c)


def cannacci(n: int, c: int) -> int:
    """Number of node-1-to-node-n routes: compositions of n-1 into parts of
    size 1..c, by a running window sum."""
    ways = [1]
    window = 1
    for d in range(1, n):
        ways.append(window)
        window += ways[d]
        if d >= c:
            window -= ways[d - c]
    return ways[n - 1]


def hash_factor(n: int, c: int) -> float:
    return c * math.log(n - c - 1) / math.log(n - 2)


def optimal_c_integer(n: int) -> int:
    """Argmax of the hash-reduction factor over c in [1, n-3], ties to the
    smaller c."""
    return max(range(1, n - 2), key=lambda c: (hash_factor(n, c), -c))


def optimal_c_root(n: int) -> float:
    """Root of (n-c-1) ln(n-c-1) = c on [1, n-2] by bisection to 1e-12."""
    lo, hi = 1.0, float(n - 2)
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2
        rem = n - mid - 1
        if rem * math.log(rem) > mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def optimal_c_root_approx(n: int) -> float:
    log_term = math.log(n - 1)
    return (n - 1) * log_term / (log_term + 2)
