"""Monte Carlo validation of the node- and link-attack probabilities.

Each trial independently compromises interior nodes and intercepts links,
then applies the structural success predicates.  Node and link attacks are
sampled in the same trial loop but scored independently; a joint counter
is kept only as a diagnostic.

Trials run in blocks of ``max(1, BLOCK_ELEMENTS // (interior + edges))``,
so a block holds at most ``BLOCK_ELEMENTS`` draws (8 MB as float64, 1 MB
as masks) whatever ``trials`` is, unless a single trial needs more; only
running counts carry over from one block to the next.  Each block draws its node
rows, then its link rows, from one PCG64 stream (see ``run_trials``), and
one sliding-window pass over the band scores both attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import max_run_length
from .errors import InconsistencyError, ValidationError, check_probability
from .topology import Link, NetworkSegment

RNG_ALGORITHM = "numpy-pcg64"
# Draws per trial block; see the module docstring.
BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class CompromiseScenario:
    """One session's adversary holdings: interior nodes and links."""

    compromised_nodes: frozenset[int]
    intercepted_links: frozenset[Link]

    @staticmethod
    def of(seg: NetworkSegment, nodes=(), links=()) -> "CompromiseScenario":
        nodes = frozenset(nodes)
        links = frozenset(Link(*l) for l in links)
        if not nodes <= set(seg.interior_nodes):
            raise ValidationError(
                f"compromised nodes must be interior (2..{seg.n_nodes - 1}), got {sorted(nodes)}"
            )
        if not links <= set(seg.edges()):
            raise ValidationError("intercepted links must be edges of the segment")
        return CompromiseScenario(nodes, links)


@dataclass(frozen=True)
class TrialStats:
    trials: int
    successes_auth: int
    successes_link: int
    successes_joint: int
    estimate_auth: float
    estimate_link: float
    stderr_auth: float
    stderr_link: float
    # (trials done, auth successes, link successes) after each tenth of the
    # run, the last entry being the whole run; not part of to_dict().
    progress: tuple[tuple[int, int, int], ...]
    seed: int
    rng: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes_auth": self.successes_auth,
            "successes_link": self.successes_link,
            "successes_joint": self.successes_joint,
            "estimate_auth": self.estimate_auth,
            "estimate_link": self.estimate_link,
            "stderr_auth": self.stderr_auth,
            "stderr_link": self.stderr_link,
            "seed": self.seed,
            "rng": self.rng,
        }


def _has_run_of_c(seg: NetworkSegment, compromised: frozenset[int]) -> bool:
    return max_run_length(sorted(compromised)) >= seg.density


def _has_clean_path(seg: NetworkSegment, blocked_nodes: frozenset[int]) -> bool:
    """Forward reachability from node 1 to node N avoiding blocked nodes."""
    reachable = [False] * (seg.n_nodes + 1)
    reachable[1] = True
    for j in range(2, seg.n_nodes + 1):
        if j in blocked_nodes:
            continue
        lo = max(j - seg.density, 1)
        reachable[j] = any(reachable[i] for i in range(lo, j))
    return reachable[seg.n_nodes]


def node_attack_succeeds(seg: NetworkSegment, compromised) -> bool:
    """True iff c consecutive interior nodes are all compromised.

    Both the run-of-c check and the path-based check are evaluated; they
    must agree (this is a topology theorem, so disagreement means a bug).
    """
    compromised = frozenset(compromised)
    if not compromised <= set(seg.interior_nodes):
        raise ValidationError("compromised nodes must be interior")
    by_run = _has_run_of_c(seg, compromised)
    by_path = not _has_clean_path(seg, compromised)
    if by_run != by_path:
        raise InconsistencyError(
            f"run-of-c check ({by_run}) disagrees with path check ({by_path}) "
            f"for {seg.to_dict()}, nodes {sorted(compromised)}"
        )
    return by_run


def link_attack_succeeds(seg: NetworkSegment, intercepted) -> bool:
    """True iff every first-to-last route contains an intercepted link."""
    intercepted = frozenset(Link(*l) for l in intercepted)
    if not intercepted <= set(seg.edges()):
        raise ValidationError("intercepted links must be edges of the segment")
    reachable = [False] * (seg.n_nodes + 1)
    reachable[1] = True
    for j in range(2, seg.n_nodes + 1):
        lo = max(j - seg.density, 1)
        reachable[j] = any(
            reachable[i] and Link(i, j) not in intercepted for i in range(lo, j)
        )
    return not reachable[seg.n_nodes]


def _score_block(
    seg: NetworkSegment, hits: np.ndarray, clean: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (node attack, link attack) verdicts of one block.

    ``hits`` has one row per interior node 2..N-1, True where compromised;
    ``clean`` has one row per link in ascending (dst, src) order, True
    where not intercepted; columns are trials.  One pass over the band
    runs both forward reachability chains from node 1: node j is reached
    when one of its (up to c) predecessors is reached and, in the node
    chain, j is not compromised or, in the link chain, the link from that
    predecessor is clean.  An attack succeeds where node N is not
    reached.  Listing links by (dst, src) makes the in-links of j
    consecutive rows, aligned with the predecessor rows.
    """
    n, c = seg.n_nodes, seg.density
    size = hits.shape[1]
    # Row j-1 holds node j.
    node_reach = np.empty((n, size), dtype=bool)
    link_reach = np.empty((n, size), dtype=bool)
    window = np.empty((c, size), dtype=bool)
    node_reach[0] = link_reach[0] = True
    row = 0
    for j in range(2, n + 1):
        lo = max(j - c, 1)
        k = j - lo
        np.logical_or.reduce(node_reach[lo - 1 : j - 1], axis=0, out=node_reach[j - 1])
        if j < n:
            # reached and not compromised: a & ~b is a > b on bools
            np.greater(node_reach[j - 1], hits[j - 2], out=node_reach[j - 1])
        np.logical_and(link_reach[lo - 1 : j - 1], clean[row : row + k], out=window[:k])
        np.logical_or.reduce(window[:k], axis=0, out=link_reach[j - 1])
        row += k
    return ~node_reach[n - 1], ~link_reach[n - 1]


def run_trials(
    seg: NetworkSegment,
    p_node: float,
    p_link: float,
    trials: int,
    seed: int,
) -> TrialStats:
    """Vectorized Monte Carlo over independent sessions.

    Deterministic for a given seed.  Trials run in blocks of
    ``B = max(1, BLOCK_ELEMENTS // (interior + edges))``, the last block
    taking the remainder.  For each block a single PCG64 stream draws a
    C-order float64 array of shape (interior, B), one row per interior
    node 2..N-1, then one of shape (edges, B), one row per link in
    ascending (dst, src) order; a node is compromised when its draw is
    < ``p_node`` and a link intercepted when its draw is < ``p_link``.
    Memory is bounded by the block, about ``8 * BLOCK_ELEMENTS`` bytes of
    draws, and does not grow with ``trials``.  The running counts in
    ``progress`` come from the same draw as the totals.
    """
    check_probability(p_node, "p_node")
    check_probability(p_link, "p_link")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    interior, edges = seg.n_nodes - 2, seg.edge_count
    block = max(1, BLOCK_ELEMENTS // (interior + edges))
    # np.unique would import numpy.ma, which costs about 1.3 MB of RSS.
    marks = sorted({k * trials // 10 for k in range(1, 11)} - {0})
    progress = []
    successes_auth = successes_link = successes_joint = 0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        hits = rng.random((interior, size)) < p_node
        clean = rng.random((edges, size)) >= p_link
        auth, link = _score_block(seg, hits, clean)
        while marks and marks[0] <= start + size:
            done = marks.pop(0) - start
            progress.append(
                (
                    start + done,
                    successes_auth + int(np.count_nonzero(auth[:done])),
                    successes_link + int(np.count_nonzero(link[:done])),
                )
            )
        successes_auth += int(np.count_nonzero(auth))
        successes_link += int(np.count_nonzero(link))
        successes_joint += int(np.count_nonzero(auth & link))

    est_auth = successes_auth / trials
    est_link = successes_link / trials
    return TrialStats(
        trials=trials,
        successes_auth=successes_auth,
        successes_link=successes_link,
        successes_joint=successes_joint,
        estimate_auth=est_auth,
        estimate_link=est_link,
        stderr_auth=float(np.sqrt(est_auth * (1 - est_auth) / trials)),
        stderr_link=float(np.sqrt(est_link * (1 - est_link) / trials)),
        progress=tuple(progress),
        seed=seed,
    )
