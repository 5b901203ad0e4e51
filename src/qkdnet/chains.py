"""One driver for the absorbing chains behind the exact attack probabilities.

Both exact kernels run an absorbing Markov chain one step per node:
``p_success_exact`` over the length of the current run of compromised
nodes (``RunsChain``), ``epsilon2_exact`` over the reachability of the
trailing window of c nodes (``ReachChain``).  ``absorbed`` steps either
chain, sums the absorbed mass with Neumaier's compensation, and stops
stepping once the chain has settled.

Settling.  Normalised to unit mass, the transient state of an absorbing
chain converges geometrically to its quasi-stationary distribution, the
dominant eigenvector of the transient block (Darroch & Seneta 1965).
From then on each step absorbs the same share delta of the surviving mass
S, so the remaining r steps absorb S * (1 - (1 - delta)^r), computed as
S * -expm1(r * log1p(-delta)): no term cancels, so the sum keeps its
relative accuracy for p near 0 and near 1.

The stop rule.  Every K = max(c, 8) steps the normalised state is
compared with the one at the previous check, and the chain counts as
settled once every component agrees to SETTLED relative to itself, plus
c units of 2^-52 for the rounding noise of a state whose components each
carry up to c roundings.  The comparison is per component because the
states that feed absorption hold a share of order p^(c-1) of the mass,
which a tolerance relative to the largest component would not see.  K is
at least c so that a check sees every component renewed, and at least 8
because checking more often slows small chains.

Why it bounds the error.  Let every component of the normalised state be
within a share d of its quasi-stationary value.  The chain and its
transitions are non-negative, so the deviation changes the mass absorbed
at each later step by at most a share d, and likewise the share delta
and the end term of ``ReachChain``: the result is off by at most about
3d relative.  Two checks K steps apart differ by about
d (1 - rho^K) / rho^K, rho being the ratio of the second to the first
eigenvalue of the transient block, so agreement within a tolerance t
leaves d below t rho^K / (1 - rho^K).  Over c in 1..12 and p from 1e-8
to 0.999 (eps1), and c in 1..8 and q from 1e-8 to 0.99 (eps2), rho^K is
at most 0.78, so d < 4t.
"""

from __future__ import annotations

import math

# Relative agreement of each component at two checks that counts as
# settled, before the allowance for rounding noise.
SETTLED = 2.0**-46


def absorbed(chain, steps: int) -> float:
    """Mass that ``chain`` absorbs in ``steps`` steps, plus the mass its
    ``end()`` counts as absorbed after the last one.

    ``chain.step()`` advances one step and returns the mass absorbed in
    it, ``chain.mass()`` is the surviving mass S, ``chain.shape(S)`` the
    state normalised to unit mass, ``chain.agree(a, b, tol)`` tells
    whether every component of shape a is within tol * a of b, and
    ``chain.share(S)`` is the share of S that the next step absorbs.
    Steps are taken in blocks of max(chain.c, 8); at the end of a block
    whose shape agrees with the previous block's, the remaining steps are
    added in closed form.  A chain whose surviving mass is 0 stops at
    once.  The chains conserve mass only up to rounding, so a result near
    1 can come out a few units of 2^-52 above it; the result is clamped
    to 1.
    """
    step, every = chain.step, max(chain.c, 8)
    tol = SETTLED + chain.c * 2.0**-52
    dead = lost = 0.0  # Neumaier sum: dead + lost is the total
    previous = None  # the shape at the previous check
    while steps:
        block = min(every, steps)
        steps -= block
        for _ in range(block):
            x = step()
            total = dead + x
            lost += (dead - total) + x if dead >= x else (x - total) + dead
            dead = total
        if not steps or previous is None and steps <= every:
            continue  # no check is due, or none would follow to agree with it
        alive = chain.mass()
        if alive == 0:
            break
        shape = chain.shape(alive)
        if previous is None or not chain.agree(shape, previous, tol):
            previous = shape
            continue
        # log of the share of the mass that survives the remaining steps
        decay = steps * math.log1p(-chain.share(alive))
        tail = alive * -math.expm1(decay) + math.exp(decay) * chain.end()
        return min(dead + (lost + tail), 1.0)
    return min(dead + (lost + chain.end()), 1.0)


class RunsChain:
    """Success-runs chain: live[k] is the mass whose current run of
    compromised nodes has length k < c; a run that reaches c is absorbed.

    The clean share is formed as s - s * p, never from a rounded 1 - p,
    whose relative error would shrink the live mass alike at every step.
    """

    def __init__(self, c: int, p: float):
        self.c, self.p = c, p
        self.live = [1.0] + [0.0] * (c - 1)

    def step(self) -> float:
        live, p = self.live, self.p
        s = math.fsum(live)
        self.live = [s - s * p, *map(p.__mul__, live[:-1])]
        return live[-1] * p

    def mass(self) -> float:
        return math.fsum(self.live)

    def shape(self, mass: float) -> list[float]:
        return [m / mass for m in self.live]

    @staticmethod
    def agree(a: list[float], b: list[float], tol: float) -> bool:
        return all(abs(x - y) <= tol * x for x, y in zip(a, b))

    def share(self, mass: float) -> float:
        return self.live[-1] * self.p / mass

    @staticmethod
    def end() -> float:
        return 0.0


class ReachChain:
    """Reachability of the trailing window of c nodes, newest node in
    bit 0, over 2^c states.  State 0 (nothing in the window reachable) is
    absorbing; it is kept empty, and the mass entering it is the step's
    absorbed mass.

    A node with r reachable predecessors in the window is missed with
    probability q^r; the reached mass is formed as mass minus missed mass,
    so each step conserves the mass up to one rounding per state.  Each
    step writes into preallocated buffers: two state arrays that swap
    roles every step, the missed and reached masses, and slice views made
    once.
    """

    def __init__(self, c: int, q: float):
        import numpy as np

        self.np, self.c = np, c
        size = 1 << c
        self.half = half = size >> 1
        reach = np.zeros(1)
        for _ in range(c):  # popcount of every state
            reach = np.concatenate((reach, reach + 1))
        self.miss = q**reach
        self.missed = missed = np.empty(size)
        self.reached = reached = np.empty(size)
        self.folds = (missed[:half], missed[half:], reached[:half], reached[half:])
        state, spare = np.zeros(size), np.empty(size)
        state[1] = 1.0  # only node 1 is reachable before the first step
        # (array, its even states, its odd states) of the current state and
        # of the buffer the next step writes
        self.now = (state, state[0::2], state[1::2])
        self.next = (spare, spare[0::2], spare[1::2])

    def step(self) -> float:
        np, missed, reached = self.np, self.missed, self.reached
        mass = self.now[0]
        np.multiply(mass, self.miss, out=missed)
        np.subtract(mass, missed, out=reached)
        # Shifting in the new node drops the oldest bit, which folds the
        # upper half of the states onto the lower half; missing the new
        # node from state `half` (only the oldest node reachable) is the
        # one move into state 0.
        nxt, even, odd = self.next
        missed_lo, missed_hi, reached_lo, reached_hi = self.folds
        np.add(missed_lo, missed_hi, out=even)
        np.add(reached_lo, reached_hi, out=odd)
        nxt[0] = 0.0
        self.now, self.next = self.next, self.now
        return float(missed[self.half])

    def mass(self) -> float:
        return float(self.now[0].sum())

    def shape(self, mass: float):
        return self.now[0] / mass

    @staticmethod
    def agree(a, b, tol: float) -> bool:
        return bool((abs(a - b) <= tol * a).all())

    def share(self, mass: float) -> float:
        return float(self.now[0][self.half] * self.miss[self.half]) / mass

    def end(self) -> float:
        """Mass whose newest node, node N after the last step, is unreached."""
        return float(self.now[0][2::2].sum())
