"""Monte Carlo validation of the node- and link-attack probabilities.

Each trial independently compromises interior nodes and intercepts links,
then applies the structural success predicates.  Node and link attacks are
sampled in the same trial loop but scored independently; a joint counter
is kept only as a diagnostic.

Trials are bit-sliced: bit t of a ``uint64`` word (little-endian bit
order) is trial t of that word, so one bitwise operation scores 64
trials.  Every node and link has one row of words per block.  Each byte
of a row, 8 lanes, is one exact draw from the law of its 256 hit
patterns, P(b) = p^k (1 - p)^(8 - k) for k = popcount(b), by table-lookup
sampling (Marsaglia, Tsang and Wang): 16 bits of raw PCG64 output pick
the pattern from a 65,536-entry table, and the few cells of the table
that a boundary of the law crosses take 56 more bits (the lazy
binary-expansion comparison of Knuth and Yao), so each pattern's
probability is within 2^-72 of exact (``_draw_hits``).  A block spans
at most ``BLOCK_BYTES`` of packed node and link words, or one word per row
when a segment has more rows than that.  Its rows are drawn in chunks of
at most ``CHUNK_LANES`` lanes, and each chunk is scored as it is drawn,
so memory grows with neither ``trials`` nor N: the scorers carry O(c)
rows from one chunk to the next, and only running counts carry over from
one block to the next.  The node attack is scored by its definition, a
run of c compromised interior nodes (``_node_verdicts``), and the link
attack by one reachability chain over the band (``_link_verdicts``).
See ``run_trials`` for the draw order, the memory bound and the work
cap.  The byte draw is the seeded stream's third change, after blocks
and bit-slicing: a seed gives other, equally valid, estimates than in
earlier versions.

``node_attack_succeeds`` and ``link_attack_succeeds`` score one trial
from explicit sets: they validate the sets, mark them in a one-trial mask
and call the same verdict functions as ``run_trials``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import CapExceededError, ValidationError, check_probability
from .topology import CompromiseScenario, NetworkSegment

RNG_ALGORITHM = "numpy-pcg64"
# Packed node and link words per trial block, in bytes (2^23 lanes), and
# the most lanes drawn at once; both fix the draw order, see run_trials.
BLOCK_BYTES = 1 << 20
CHUNK_LANES = 1 << 19
# The most work run_trials accepts, in units of one node step of a block
# (the link chain's pass over one node) or WORDS_PER_WORK_UNIT drawn words.
# A unit took 3-6 us on a 2-vCPU x86-64 host, so an accepted run takes
# at most about 3 minutes there even at 10 us a unit.
MAX_TRIAL_WORK = 18_000_000
WORDS_PER_WORK_UNIT = 100


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


# A cell holds the top 16 of the 72 bits that settle one output byte; the
# other 56 come from one more raw output when the cell needs them.  Cells
# are looked up _TAKE_CELLS at a time.
_REFINE_BITS = 56
_TAKE_CELLS = 1 << 15


@functools.lru_cache(maxsize=2)
def _byte_law(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table of ``_draw_hits`` for 0 < p < 1: ``(table, keys, base)``.

    With p = m/2^s, pattern b (bit t set where lane t hits) has mass
    m^k (2^s - m)^(8-k) / 2^(8s), k = popcount(b).  Its cumulative
    boundaries, floored to 2^-72, are B_b = floor(2^72 * sum of the masses
    of 0..b) for b < 255, with B_-1 = 0 and B_255 = 2^72, so a uniform
    72-bit x picks the b with B_(b-1) <= x < B_b.  ``table[u]`` is that b
    for every x in cell u, [u * 2^56, (u + 1) * 2^56), when no boundary
    lies strictly inside the cell.  The at most 255 cells that hold one
    are numbered j = 0, 1, ... in order and hold 256 + j; there b is
    ``base[j]`` plus the number of ``keys`` at most j * 2^56 + (x mod 2^56),
    where ``keys`` lists each inside boundary as j * 2^56 + (B_b mod 2^56).
    """
    m, den = p.as_integer_ratio()
    mass = [m**k * (den - m) ** (8 - k) for k in range(9)]
    shift = 8 * (den.bit_length() - 1)
    totals = itertools.accumulate(mass[b.bit_count()] for b in range(255))
    bounds = [(total << 72) >> shift for total in totals]
    cell = np.array([x >> _REFINE_BITS for x in bounds])
    low = np.array([x & ((1 << _REFINE_BITS) - 1) for x in bounds], dtype=np.uint64)
    inside = low != 0
    # table[u] counts the boundaries at or below u * 2^56
    firsts = np.append(cell + inside, 1 << 16)
    table = np.repeat(np.arange(256, dtype=np.uint16), np.diff(firsts, prepend=0))
    inside_cell = cell[inside]
    first = np.diff(inside_cell, prepend=-1) != 0  # first boundary in its cell
    refined = inside_cell[first]
    keys = (np.cumsum(first) - 1).astype(np.uint64) << np.uint64(_REFINE_BITS) | low[inside]
    base = table[refined] - np.flatnonzero(first)
    table[refined] = 256 + np.arange(refined.size)
    law = table, keys, base
    for array in law:
        array.flags.writeable = False
    return law


def _draw_hits(
    rng: np.random.Generator, p: float, rows: int, words: int
) -> Iterator[np.ndarray]:
    """Yields the rows of a (rows, words) ``uint64`` array whose bits are
    independent Bernoulli(p) lanes, bit t of a word being lane t
    (little-endian), in order, as chunks of as many whole rows as fit in
    ``CHUNK_LANES`` lanes (at least one).  Each chunk is a new array, drawn
    only when the consumer asks for it.

    p = 0 and p = 1 draw nothing.  Otherwise each output byte holds 8
    lanes of one row, bit t being lane t, and is one draw from the law of
    the 256 byte patterns, P(b) = p^k (1 - p)^(8 - k) for k = popcount(b).
    A chunk of k rows takes ``2 * words * k`` raw PCG64 outputs, read as
    little-endian ``uint16`` cells, one per output byte in row-major order;
    cell u is the top 16 bits of a 72-bit uniform and maps through the
    table of ``_byte_law`` to its pattern.  Then the cells with a pattern
    boundary strictly inside them, in the same order, each take one more
    raw output, whose top 56 bits are the low bits of the uniform.  Each
    pattern's probability is within 2^-72 of exact.
    """
    step = max(1, CHUNK_LANES // (64 * words))
    if p in (0.0, 1.0):
        fill = ~np.uint64(0) if p else np.uint64(0)
        for row in range(0, rows, step):
            yield np.full((min(step, rows - row), words), fill)
        return
    table, keys, base = _byte_law(p)
    for row in range(0, rows, step):
        k = min(step, rows - row)
        raw = rng.bit_generator.random_raw(2 * words * k)
        patterns = raw.astype("<u8", copy=False).view("<u2")
        # cells to patterns in place, a slice at a time, since the indices
        # are copied to intp, 8 bytes a cell; a cell is always a valid
        # index, and "clip" skips the bounds check and an output buffer
        for at in range(0, patterns.size, _TAKE_CELLS):
            cells = patterns[at : at + _TAKE_CELLS]
            np.take(table, cells.astype(np.intp), out=cells, mode="clip")
        refine = np.flatnonzero(patterns > 255)
        j = patterns[refine] - 256
        low = rng.bit_generator.random_raw(refine.size) >> np.uint64(64 - _REFINE_BITS)
        x = j.astype(np.uint64) << np.uint64(_REFINE_BITS) | low
        patterns[refine] = base[j] + np.searchsorted(keys, x, side="right")
        yield patterns.astype(np.uint8).view(np.uint64).reshape(k, words)


def _node_verdicts(seg: NetworkSegment, chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Per-trial node attack verdicts: set where some c consecutive
    interior nodes are all compromised.

    ``chunks`` yields the rows, one per interior node 2..N-1, set where
    compromised, in order, as arrays of one or more rows; columns are
    trials, either bools, one trial per element, or ``uint64`` words, one
    trial per bit.  Each chunk is scored after the last c - 1 rows before
    it: row k of ``run`` starts as the row c - 1 places after row k and
    takes c - 1 ANDs with the rows before it, so it ends as the AND of a
    window of c nodes; each of the N - c - 1 windows is scored once, in
    the chunk that holds its last node.  The verdict is the OR over
    the windows; at c = N - 1 there is no window and it is 0.
    """
    keep = seg.density - 1
    verdict = carry = None
    for chunk in chunks:
        if verdict is None:
            verdict = np.zeros(chunk.shape[1:], dtype=chunk.dtype)
            carry = chunk[:0]
        rows = np.concatenate((carry, chunk)) if len(carry) else chunk
        run = rows[keep:].copy()
        for shift in range(keep):
            run &= rows[shift : shift + len(run)]
        verdict |= np.bitwise_or.reduce(run, axis=0)
        carry = rows[max(0, len(rows) - keep) :].copy()
    return verdict


def _link_verdicts(seg: NetworkSegment, chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Per-trial link attack verdicts: set where no route from node 1 to
    node N is clean.

    ``chunks`` yields the rows, one per link in ascending (dst, src)
    order, set where not intercepted, in the forms of ``_node_verdicts``.
    A forward reachability chain from node 1 reaches node j when the link
    from one of its (up to c) reached predecessors is clean; listing links
    by (dst, src) makes the in-links of j consecutive rows, aligned with
    the predecessor rows.  Node j <= c has j - 1 in-links and the nodes
    after it c each.  The reached rows live in a ring of 2c rows whose
    rows i .. i + c - 1 hold the last c nodes: node j goes to row i + c,
    and when i reaches c the last c rows move to the front.  The in-link
    rows of a node that a chunk boundary splits, at most c - 1, wait for
    the next chunk.  The attack succeeds where node N is not reached.
    """
    c = seg.density
    reach = None
    for chunk in chunks:
        if reach is None:
            reach = np.empty((2 * c, *chunk.shape[1:]), dtype=chunk.dtype)
            window = np.empty_like(reach[:c])
            lasts = [reach[i : i + c] for i in range(c)]
            nexts = [reach[i + c] for i in range(c)]
            reach[0] = ~chunk.dtype.type(0)
            j, i, held = 2, 0, chunk[:0]
        rows = np.concatenate((held, chunk)) if len(held) else chunk
        row = 0
        while j <= c and row + j - 1 <= len(rows):
            k = j - 1
            np.bitwise_and(reach[:k], rows[row : row + k], out=window[:k])
            np.bitwise_or.reduce(window[:k], axis=0, out=reach[k])
            j, row = j + 1, row + k
        if j > c:
            nodes = (len(rows) - row) // c
            for links in rows[row : row + nodes * c].reshape(nodes, *window.shape):
                if i == c:
                    reach[:c] = reach[c:]
                    i = 0
                np.bitwise_and(lasts[i], links, out=window)
                np.bitwise_or.reduce(window, axis=0, out=nexts[i])
                i += 1
            row += nodes * c
        held = rows[row:].copy()
    return ~reach[i + c - 1]


def node_attack_succeeds(seg: NetworkSegment, compromised) -> bool:
    """True iff c consecutive interior nodes are all compromised."""
    compromised = CompromiseScenario.of(seg, nodes=compromised).compromised_nodes
    rows = (node in compromised for node in seg.interior_nodes)
    hits = np.fromiter(rows, dtype=bool, count=seg.n_nodes - 2).reshape(-1, 1)
    return bool(_node_verdicts(seg, [hits])[0])


def link_attack_succeeds(seg: NetworkSegment, intercepted) -> bool:
    """True iff every first-to-last route contains an intercepted link."""
    intercepted = CompromiseScenario.of(seg, links=intercepted).intercepted_links
    n, c = seg.n_nodes, seg.density
    rows = ((i, j) not in intercepted for j in range(2, n + 1) for i in range(max(j - c, 1), j))
    clean = np.fromiter(rows, dtype=bool, count=seg.edge_count).reshape(-1, 1)
    return bool(_link_verdicts(seg, [clean])[0])


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
    probability ``p_link``): 16-bit table cells in chunks of at most
    ``CHUNK_LANES`` lanes, each chunk followed by the raw outputs that
    refine its cells that a boundary of the law crosses; a probability of
    0 or 1 draws nothing.  Each 8-lane hit pattern has its probability to
    within 2^-72, and this draw is the seeded stream's third change (see
    the module docstring).  Bits past the last trial are drawn and scored
    but not counted.  The scorers take each chunk as it is drawn, and the
    link chunks are inverted in place, so no block is ever whole in
    memory: a call holds one chunk of at most ``CHUNK_LANES`` lanes (64 KB
    of words), about 0.75 bytes per lane of its draw temporaries (0.4 MB),
    and about 5c rows of W words that the scorers carry across chunks,
    whatever N and ``trials`` are.  Measured with tracemalloc, that was
    0.55-0.6 MB of allocations from N = 200 to 1e5, and at most 1.7 MB
    for small segments with wide rows (N <= 20, 6e5 trials).  The running
    counts in ``progress`` come from the same draw as the totals.

    Before drawing, a run whose work, N node steps per block plus its
    drawn words, rows * ceil(trials / 64), over ``WORDS_PER_WORK_UNIT``,
    exceeds ``MAX_TRIAL_WORK`` raises CapExceededError.
    """
    check_probability(p_node, "p_node")
    check_probability(p_link, "p_link")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    interior, edges = seg.n_nodes - 2, seg.edge_count
    words = max(1, min(BLOCK_BYTES // (8 * (interior + edges)), CHUNK_LANES // 64))
    block = 64 * words
    drawn_words = (interior + edges) * -(-trials // 64)
    work = seg.n_nodes * -(-trials // block) + drawn_words // WORDS_PER_WORK_UNIT
    if work > MAX_TRIAL_WORK:
        raise CapExceededError(
            f"simulation work {work} (node steps plus drawn words / {WORDS_PER_WORK_UNIT}) "
            f"exceeds cap {MAX_TRIAL_WORK}"
        )

    rng = np.random.default_rng(seed)
    # np.unique would import numpy.ma, which costs about 1.3 MB of RSS.
    marks = sorted({k * trials // 10 for k in range(1, 11)} - {0})
    progress = []
    successes_auth = successes_link = successes_joint = 0
    for start in range(0, trials, block):
        size = min(block, trials - start)
        used = -(-size // 64)
        # each chunk is drawn when its scorer asks for it, so all node rows
        # are drawn before the first link row
        hits = _draw_hits(rng, p_node, interior, used)
        clean = (np.invert(rows, out=rows) for rows in _draw_hits(rng, p_link, edges, used))
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
