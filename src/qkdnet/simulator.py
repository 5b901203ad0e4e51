"""Monte Carlo validation of the node- and link-attack probabilities.

Each trial independently compromises interior nodes and intercepts links,
then applies the structural success predicates.  Node and link attacks are
sampled in the same trial loop but scored independently; a joint counter
is kept only as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import max_run_length
from .errors import InconsistencyError, ValidationError, check_probability
from .topology import Link, NetworkSegment

RNG_ALGORITHM = "numpy-pcg64"


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


def run_trials(
    seg: NetworkSegment,
    p_node: float,
    p_link: float,
    trials: int,
    seed: int,
) -> TrialStats:
    """Vectorized Monte Carlo over independent sessions.

    Deterministic for a given seed: a single PCG64 stream draws the node
    matrix first, then the link matrix.  The running counts in
    ``progress`` come from the same draw as the totals.
    """
    check_probability(p_node, "p_node")
    check_probability(p_link, "p_link")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    n, c = seg.n_nodes, seg.density
    interior = n - 2

    node_hits = rng.random((trials, interior)) < p_node
    link_clean = rng.random((trials, seg.edge_count)) >= p_link

    # Node attack: any window of c consecutive interior positions fully hit.
    if c <= interior:
        window = np.lib.stride_tricks.sliding_window_view(node_hits, c, axis=1)
        auth_success = window.all(axis=2).any(axis=1)
    else:
        auth_success = np.zeros(trials, dtype=bool)

    # Link attack: forward reachability of node N over clean links.
    edge_index = {link: k for k, link in enumerate(seg.edges())}
    reachable = np.zeros((trials, n + 1), dtype=bool)
    reachable[:, 1] = True
    for j in range(2, n + 1):
        acc = np.zeros(trials, dtype=bool)
        for i in range(max(j - c, 1), j):
            acc |= reachable[:, i] & link_clean[:, edge_index[Link(i, j)]]
        reachable[:, j] = acc
    link_success = ~reachable[:, n]

    # np.unique would import numpy.ma, which costs about 1.3 MB of RSS.
    marks = sorted({k * trials // 10 for k in range(1, 11)} - {0})
    ends = [m - 1 for m in marks]
    auth_done = np.cumsum(auth_success)[ends].tolist()
    link_done = np.cumsum(link_success)[ends].tolist()
    successes_auth = auth_done[-1]
    successes_link = link_done[-1]
    est_auth = successes_auth / trials
    est_link = successes_link / trials
    return TrialStats(
        trials=trials,
        successes_auth=successes_auth,
        successes_link=successes_link,
        successes_joint=int((auth_success & link_success).sum()),
        estimate_auth=est_auth,
        estimate_link=est_link,
        stderr_auth=float(np.sqrt(est_auth * (1 - est_auth) / trials)),
        stderr_link=float(np.sqrt(est_link * (1 - est_link) / trials)),
        progress=tuple(zip(marks, auth_done, link_done)),
        seed=seed,
    )
