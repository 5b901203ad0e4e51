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
at most ``BLOCK_BYTES`` of packed node and link words, or one word per row
when a segment has more rows than that, and its rows are drawn in chunks
of at most ``CHUNK_LANES`` lanes, so memory does not grow with ``trials``;
only running counts carry over from one block to the next.  The node
attack is scored by its definition, a run of c compromised interior
nodes (``_node_verdicts``), and the link attack by one reachability chain
over the band (``_link_verdicts``).  See ``run_trials`` for the draw order
and the memory bound.

``node_attack_succeeds`` and ``link_attack_succeeds`` score one trial
from explicit sets: they validate the sets, mark them in a one-trial mask
and call the same verdict functions as ``run_trials``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_probability
from .topology import CompromiseScenario, NetworkSegment

RNG_ALGORITHM = "numpy-pcg64"
# Packed node and link words per trial block, in bytes (2^23 lanes), and
# the most lanes drawn at once; both fix the draw order, see run_trials.
BLOCK_BYTES = 1 << 20
CHUNK_LANES = 1 << 19


class TrialStats(NamedTuple):
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
        fields = self._asdict()
        del fields["progress"]
        return fields


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


def _node_verdicts(seg: NetworkSegment, hits: np.ndarray) -> np.ndarray:
    """Per-trial node attack verdicts: set where some c consecutive
    interior nodes are all compromised.

    ``hits`` has one row per interior node 2..N-1, set where compromised;
    columns are trials, either bools, one trial per element, or ``uint64``
    words, one trial per bit.  Row k of ``run`` starts as node k + c + 1
    and takes c - 1 ANDs with the rows before it, so it ends as the AND of
    the window of c nodes k + 2 .. k + c + 1; the verdict is the OR over
    the N - c - 1 windows.  At c = N - 1 there is no window and the
    verdict is 0.
    """
    c = seg.density
    run = hits[c - 1 :].copy()
    for shift in range(c - 1):
        run &= hits[shift : shift + len(run)]
    return np.bitwise_or.reduce(run, axis=0)


def _link_verdicts(seg: NetworkSegment, clean: np.ndarray) -> np.ndarray:
    """Per-trial link attack verdicts: set where no route from node 1 to
    node N is clean.

    ``clean`` has one row per link in ascending (dst, src) order, set
    where not intercepted, in the column forms of ``_node_verdicts``.  A
    forward reachability chain from node 1 reaches node j when the link
    from one of its (up to c) reached predecessors is clean; listing links
    by (dst, src) makes the in-links of j consecutive rows, aligned with
    the predecessor rows.  The attack succeeds where node N is not
    reached.
    """
    n, c = seg.n_nodes, seg.density
    size = clean.shape[1]
    # Row j-1 holds node j.
    reach = np.empty((n, size), dtype=clean.dtype)
    window = np.empty((c, size), dtype=clean.dtype)
    reach[0] = ~clean.dtype.type(0)
    row = 0
    for j in range(2, n + 1):
        lo = max(j - c, 1)
        k = j - lo
        np.bitwise_and(reach[lo - 1 : j - 1], clean[row : row + k], out=window[:k])
        np.bitwise_or.reduce(window[:k], axis=0, out=reach[j - 1])
        row += k
    return ~reach[n - 1]


def node_attack_succeeds(seg: NetworkSegment, compromised) -> bool:
    """True iff c consecutive interior nodes are all compromised."""
    compromised = CompromiseScenario.of(seg, nodes=compromised).compromised_nodes
    rows = (node in compromised for node in seg.interior_nodes)
    hits = np.fromiter(rows, dtype=bool, count=seg.n_nodes - 2).reshape(-1, 1)
    return bool(_node_verdicts(seg, hits)[0])


def link_attack_succeeds(seg: NetworkSegment, intercepted) -> bool:
    """True iff every first-to-last route contains an intercepted link."""
    intercepted = CompromiseScenario.of(seg, links=intercepted).intercepted_links
    n, c = seg.n_nodes, seg.density
    rows = ((i, j) not in intercepted for j in range(2, n + 1) for i in range(max(j - c, 1), j))
    clean = np.fromiter(rows, dtype=bool, count=seg.edge_count).reshape(-1, 1)
    return bool(_link_verdicts(seg, clean)[0])


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
    counted.  Memory does not grow with ``trials``.  Up to
    ``BLOCK_BYTES // 8`` = 131,072 node and link rows it is bounded by the
    block, ``BLOCK_BYTES`` (1 MB) of packed words, plus about 3 bytes per
    lane of one chunk (1.5 MB) of temporaries.  Past that W stays 1, so
    memory grows with the rows, N - 2 + c(2N - c - 1)/2: 8 bytes per row
    for the block's words and 8 bytes per node for the window ANDs of
    ``_node_verdicts`` or the reachability chain of ``_link_verdicts``,
    at most about 12 bytes per row, plus the chunk temporaries (32 MB at
    N = 1e6, c = 2).  The running counts in ``progress`` come from the
    same draw as the totals.
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
            for v in (_node_verdicts(seg, hits), _link_verdicts(seg, clean))
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
