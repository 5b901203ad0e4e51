"""Monte Carlo validation of the node- and link-attack probabilities.

Each trial independently compromises interior nodes and intercepts links,
then applies the structural success predicates.  Node and link attacks are
sampled in the same trial loop but scored independently; a joint counter
is kept only as a diagnostic.

Trials are bit-sliced: bit t of a ``uint64`` word (little-endian bit
order) is trial t of that word, so one bitwise operation scores 64
trials.  Every node and link has one row of words per block.  A lane is
hit with probability p by an exact-Bernoulli draw on raw PCG64 bytes: it
hits when its byte is below floor(256p), and a byte equal to floor(256p)
is refined by one float64 compared with the fraction 256p - floor(256p)
(the lazy binary-expansion comparison of Knuth and Yao).  A block holds
at most ``BLOCK_BYTES`` of packed node and link words, and its rows are
drawn in chunks of at most ``CHUNK_LANES`` lanes, so memory does not grow
with ``trials``; only running counts carry over from one block to the
next.  One sliding-window pass over the band scores both attacks.  See
``run_trials`` for the draw order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import max_run_length
from .errors import InconsistencyError, ValidationError, check_probability
from .topology import Link, NetworkSegment

RNG_ALGORITHM = "numpy-pcg64"
# Packed node and link words per trial block, in bytes (2^23 lanes), and
# the most lanes drawn at once; both fix the draw order, see run_trials.
BLOCK_BYTES = 1 << 20
CHUNK_LANES = 1 << 19


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


def _draw_hits(rng: np.random.Generator, p: float, rows: int, words: int) -> np.ndarray:
    """A (rows, words) ``uint64`` array whose bits are independent
    Bernoulli(p) lanes, bit t of a word being lane t (little-endian).

    p = 0 and p = 1 draw nothing.  Otherwise rows are drawn in order, in
    chunks of as many whole rows as fit in ``CHUNK_LANES`` lanes (at least
    one).  A chunk of k rows takes ``8 * words * k`` raw PCG64 outputs,
    read as little-endian bytes, one byte per lane in row-major order; a
    lane hits when its byte is below t = floor(256p).  Then the lanes whose
    byte equals t, in the same order, each take one ``rng.random()``
    float and hit when it is below 256p - t.  So P(hit) = p to within the
    2^-53 resolution of the float draw.
    """
    if p == 0.0:
        return np.zeros((rows, words), dtype=np.uint64)
    if p == 1.0:
        return np.full((rows, words), ~np.uint64(0))
    scaled = 256.0 * p  # exact: a power-of-two scaling
    threshold = int(scaled)
    out = np.empty((rows, words), dtype=np.uint64)
    step = max(1, CHUNK_LANES // (64 * words))
    for row in range(0, rows, step):
        k = min(step, rows - row)
        lanes = rng.bit_generator.random_raw(8 * words * k).astype("<u8", copy=False)
        lanes = lanes.view(np.uint8)
        hit = lanes < threshold
        ties = np.flatnonzero(lanes == threshold)
        hit[ties] = rng.random(ties.size) < scaled - threshold
        out[row : row + k] = np.packbits(hit, bitorder="little").view(np.uint64).reshape(k, words)
    return out


def _score_block(
    seg: NetworkSegment, hits: np.ndarray, clean: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (node attack, link attack) verdicts of one block.

    ``hits`` has one row per interior node 2..N-1, True where compromised;
    ``clean`` has one row per link in ascending (dst, src) order, True
    where not intercepted; columns are trials.  The masks are either bool
    arrays, one trial per element, or ``uint64`` words, one trial per bit;
    only bitwise operations are used, so the verdicts come back in the
    same form.  One pass over the band
    runs both forward reachability chains from node 1: node j is reached
    when one of its (up to c) predecessors is reached and, in the node
    chain, j is not compromised or, in the link chain, the link from that
    predecessor is clean.  An attack succeeds where node N is not
    reached.  Listing links by (dst, src) makes the in-links of j
    consecutive rows, aligned with the predecessor rows.
    """
    n, c = seg.n_nodes, seg.density
    size = hits.shape[1]
    safe = ~hits
    # Row j-1 holds node j.
    node_reach = np.empty((n, size), dtype=hits.dtype)
    link_reach = np.empty((n, size), dtype=hits.dtype)
    window = np.empty((c, size), dtype=hits.dtype)
    node_reach[0] = link_reach[0] = ~hits.dtype.type(0)
    row = 0
    for j in range(2, n + 1):
        lo = max(j - c, 1)
        k = j - lo
        np.bitwise_or.reduce(node_reach[lo - 1 : j - 1], axis=0, out=node_reach[j - 1])
        if j < n:
            np.bitwise_and(node_reach[j - 1], safe[j - 2], out=node_reach[j - 1])
        np.bitwise_and(link_reach[lo - 1 : j - 1], clean[row : row + k], out=window[:k])
        np.bitwise_or.reduce(window[:k], axis=0, out=link_reach[j - 1])
        row += k
    return ~node_reach[n - 1], ~link_reach[n - 1]


def run_trials(
    seg: NetworkSegment,
    p_node: float,
    p_link: float,
    trials: int,
    seed: int,
) -> TrialStats:
    """Bit-sliced Monte Carlo over independent sessions.

    Deterministic for a given seed.  Trials run in blocks of 64 * W, the
    last block taking the remainder rounded up to whole words, where
    ``W = max(1, min(BLOCK_BYTES // (8 * (interior + edges)),
    CHUNK_LANES // 64))`` words per row.  For each block a single PCG64
    stream draws, with ``_draw_hits``, the node rows (one per interior
    node 2..N-1, compromised with probability ``p_node``), then the link
    rows (one per link in ascending (dst, src) order, intercepted with
    probability ``p_link``): raw bytes in chunks of at most
    ``CHUNK_LANES`` lanes, each chunk followed by the floats that refine
    its ties; a probability of 0 or 1 draws nothing.  Bits past the last trial are drawn and scored but not
    counted.  Memory is bounded by the block, ``BLOCK_BYTES`` (1 MB) of
    packed words, plus about 3 bytes per lane of one chunk (1.5 MB) of
    temporaries, and does not grow with ``trials``.  The running counts in
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
    words = max(1, min(BLOCK_BYTES // (8 * (interior + edges)), CHUNK_LANES // 64))
    block = 64 * words
    # np.unique would import numpy.ma, which costs about 1.3 MB of RSS.
    marks = sorted({k * trials // 10 for k in range(1, 11)} - {0})
    progress = []
    successes_auth = successes_link = successes_joint = 0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        used = -(-size // 64)
        hits = _draw_hits(rng, p_node, interior, used)
        clean = ~_draw_hits(rng, p_link, edges, used)
        # unpack the verdict words to one bool per trial, dropping spare bits
        auth, link = (
            np.unpackbits(v.view(np.uint8), count=size, bitorder="little").view(bool)
            for v in _score_block(seg, hits, clean)
        )
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
