import bisect
import hashlib
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rational_oracle import has_run_of_c, reaches_last
from test_imports import run_fresh

from qkdnet import (
    CapExceededError,
    CompromiseScenario,
    Link,
    ValidationError,
    epsilon2_exact,
    link_attack_succeeds,
    make_segment,
    node_attack_succeeds,
    p_success_exact,
    run_trials,
)
from qkdnet import simulator
from qkdnet.simulator import (
    CHUNK_LANES,
    _byte_law,
    _draw_hits,
    _link_verdicts,
    _node_verdicts,
)


def node_references(seg, compromised):
    """The node attack by its two definitions: a run of c compromised
    nodes, and no route from node 1 to node N through clean nodes."""
    return (
        has_run_of_c(seg, compromised),
        not reaches_last(seg, lambda i, j: j not in compromised),
    )


def link_reference(seg, intercepted):
    intercepted = set(intercepted)
    return not reaches_last(seg, lambda i, j: (i, j) not in intercepted)


def test_node_attack_examples():
    seg = make_segment(6, 2)
    assert node_attack_succeeds(seg, {3, 4})
    assert not node_attack_succeeds(seg, {2, 4})
    assert not node_attack_succeeds(seg, set())


def test_node_attack_rejects_endpoint():
    # the predicates validate through CompromiseScenario.of and its messages
    message = r"^compromised nodes must be interior \(2\.\.5\), got \[1, 3\]$"
    with pytest.raises(ValidationError, match=message):
        node_attack_succeeds(make_segment(6, 2), {1, 3})


@pytest.mark.parametrize("n", range(3, 13))
def test_predicate_equivalence_exhaustive(n):
    for c in range(1, min(n - 1, 5)):
        seg = make_segment(n, c)
        interior = list(seg.interior_nodes)
        for r in range(len(interior) + 1):
            for subset in itertools.combinations(interior, r):
                by_run, by_path = node_references(seg, set(subset))
                assert node_attack_succeeds(seg, subset) == by_run == by_path


def test_link_attack_examples():
    seg = make_segment(6, 2)
    assert link_attack_succeeds(seg, [Link(1, 2), Link(1, 3)])
    assert not link_attack_succeeds(seg, [Link(1, 2)])
    assert link_attack_succeeds(seg, seg.edges())


def test_link_attack_rejects_foreign_link():
    with pytest.raises(ValidationError, match="^intercepted links must be edges of the segment$"):
        link_attack_succeeds(make_segment(6, 2), [Link(1, 4)])


@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 10) for c in range(1, min(n - 1, 4))])
def test_minimal_cut_exhaustive(n, c):
    seg = make_segment(n, c)
    for size in range(c):
        for subset in itertools.combinations(seg.edges(), size):
            assert not link_attack_succeeds(seg, subset)
    assert link_attack_succeeds(seg, [Link(1, j) for j in seg.out_neighbors(1)])
    assert link_attack_succeeds(seg, [Link(i, n) for i in seg.in_neighbors(n)])


def test_scenario_validation():
    seg = make_segment(6, 2)
    scenario = CompromiseScenario.of(seg, nodes={3}, links={(1, 2)})
    assert scenario.compromised_nodes == {3}
    with pytest.raises(ValidationError):
        CompromiseScenario.of(seg, nodes={1})
    with pytest.raises(ValidationError):
        CompromiseScenario.of(seg, links={(1, 5)})


@pytest.mark.parametrize(
    "nodes,links,ok",
    [
        ({2.0}, (), True),
        ({2.5}, (), False),
        ({6}, (), False),
        ((), {(1.0, 3.0)}, True),
        ((), {(1, 2.5)}, False),
        ((), {(2, 2)}, False),
        ((), {(3, 2)}, False),
        ((), {(0, 2)}, False),
        ((), {(5, 7)}, False),
        ((), {(2, 5)}, False),
        ({2 + 0j}, (), True),
        ({3 + 1j}, (), False),
        ({"3"}, (), False),
        ({float("nan")}, (), False),
        ({float("inf")}, (), False),
        ({True}, (), False),
        ((), {(True, 2)}, True),
        ((), {(1.5, 2.5)}, False),
        ((), {("1", "2")}, False),
    ],
)
def test_scenario_membership_matches_edge_sets(nodes, links, ok):
    seg = make_segment(6, 2)
    interior, edges = set(seg.interior_nodes), set(seg.edges())
    assert ok == (set(nodes) <= interior and {Link(*l) for l in links} <= edges)
    if ok:
        scenario = CompromiseScenario.of(seg, nodes=nodes, links=links)
        assert scenario == (set(nodes), {Link(*l) for l in links})
        return
    message = (
        r"^compromised nodes must be interior \(2\.\.5\)" if nodes
        else "^intercepted links must be edges of the segment$"
    )
    with pytest.raises(ValidationError, match=message):
        CompromiseScenario.of(seg, nodes=nodes, links=links)


def test_scenario_check_builds_no_edge_list():
    seg = make_segment(10**6, 3)
    tracemalloc.start()
    try:
        CompromiseScenario.of(seg, nodes=[2], links=[(1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scenario_check_is_o1_for_values_that_are_not_ints():
    # Range membership scans the range for a float, up to the member it
    # equals: it took about 0.6 s for each node below and 1.3 s for each
    # link at this N.
    seg = make_segment(10**7, 3)
    for nodes, links in (([2.5], ()), ([9_999_998.0], ()), ((), [(9_999_997.0, 9_999_999.0)]),
                         ((), [(9_999_997.0, 10_000_000.5)])):
        start = time.process_time()
        try:
            CompromiseScenario.of(seg, nodes=nodes, links=links)
        except ValidationError:
            pass
        assert time.process_time() - start < 0.05, (nodes, links)


def test_trial_stats_dict_omits_progress():
    stats = run_trials(make_segment(8, 2), 0.3, 0.2, 100, seed=1)
    assert list(stats.to_dict()) == [
        "trials", "successes_auth", "successes_link", "successes_joint",
        "estimate_auth", "estimate_link", "stderr_auth", "stderr_link", "seed", "rng",
    ]


def test_trials_zero_probability():
    stats = run_trials(make_segment(8, 2), 0.0, 0.0, 500, seed=1)
    assert stats.successes_auth == stats.successes_link == stats.successes_joint == 0


def test_trials_certainty():
    stats = run_trials(make_segment(8, 2), 1.0, 1.0, 200, seed=1)
    assert stats.estimate_auth == 1.0
    assert stats.estimate_link == 1.0


def test_trials_validation():
    seg = make_segment(8, 2)
    with pytest.raises(ValidationError):
        run_trials(seg, -0.1, 0.0, 10, seed=1)
    with pytest.raises(ValidationError):
        run_trials(seg, 0.0, 0.0, 0, seed=1)


def test_trials_reproducible():
    seg = make_segment(12, 3)
    a = run_trials(seg, 0.3, 0.2, 5000, seed=99)
    b = run_trials(seg, 0.3, 0.2, 5000, seed=99)
    assert a == b
    c = run_trials(seg, 0.3, 0.2, 5000, seed=100)
    assert c != a


@pytest.mark.parametrize("trials,work", [(100, 8), (64_000, 8 + 190)])
def test_run_trials_refuses_work_past_cap(monkeypatch, trials, work):
    # (8, 2) has 19 rows and takes one block: 8 node steps plus
    # 19 * ceil(trials / 64) drawn words / 100.
    seg = make_segment(8, 2)
    monkeypatch.setattr(simulator, "MAX_TRIAL_WORK", work)
    assert run_trials(seg, 0.5, 0.5, trials, seed=1).trials == trials
    monkeypatch.setattr(simulator, "MAX_TRIAL_WORK", work - 1)
    with pytest.raises(CapExceededError, match=f"^simulation work {work} "):
        run_trials(seg, 0.5, 0.5, trials, seed=1)


def test_node_estimate_matches_exact_formula():
    seg = make_segment(20, 3)
    stats = run_trials(seg, 0.3, 0.0, 100_000, seed=2024)
    exact = p_success_exact(20, 3, 0.3)
    assert abs(stats.estimate_auth - exact) <= 4 * stats.stderr_auth


def test_link_estimate_matches_exact_reliability():
    seg = make_segment(6, 2)
    stats = run_trials(seg, 0.0, 0.2, 100_000, seed=2024)
    exact = epsilon2_exact(seg, 0.2)
    assert abs(stats.estimate_link - exact) <= 4 * stats.stderr_link


def test_stats_invariants():
    stats = run_trials(make_segment(10, 2), 0.4, 0.3, 2000, seed=5)
    assert stats.estimate_auth == stats.successes_auth / stats.trials
    assert stats.estimate_link == stats.successes_link / stats.trials
    assert stats.successes_joint <= min(stats.successes_auth, stats.successes_link)
    assert stats.rng == "numpy-pcg64"


def link_rows(seg):
    """Links in the row order of the link masks: ascending (dst, src)."""
    return sorted(seg.edges(), key=lambda link: (link.dst, link.src))


@given(n=st.integers(3, 12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_score_block_matches_predicates(n, data):
    """The verdict kernels and the public predicates against the scalar
    references, trial by trial."""
    c = data.draw(st.integers(1, n - 1))
    seg = make_segment(n, c)
    size = data.draw(st.integers(1, 6))
    flags = st.lists(st.booleans(), min_size=size, max_size=size)
    hits = np.array(data.draw(st.lists(flags, min_size=n - 2, max_size=n - 2)), dtype=bool)
    clean = np.array(
        data.draw(st.lists(flags, min_size=seg.edge_count, max_size=seg.edge_count)),
        dtype=bool,
    )
    auth, link = _node_verdicts(seg, [hits]), _link_verdicts(seg, [clean])
    rows = link_rows(seg)
    for t in range(size):
        compromised = {node for node, hit in zip(seg.interior_nodes, hits[:, t]) if hit}
        intercepted = [l for l, ok in zip(rows, clean[:, t]) if not ok]
        by_run, by_path = node_references(seg, compromised)
        assert auth[t] == node_attack_succeeds(seg, compromised) == by_run == by_path
        by_cut = link_reference(seg, intercepted)
        assert link[t] == link_attack_succeeds(seg, intercepted) == by_cut


def pack(masks):
    """Bool masks (rows, trials) as uint64 words, trial t in bit t % 64 of
    word t // 64; the unused bits of the last word are 0."""
    words = -(-masks.shape[1] // 64)
    padded = np.zeros((masks.shape[0], 64 * words), dtype=bool)
    padded[:, : masks.shape[1]] = masks
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack(words, size):
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").astype(bool)


def draw_all(rng, p, rows, words):
    """The chunks that ``_draw_hits`` yields, as one (rows, words) array."""
    return np.concatenate(list(_draw_hits(rng, p, rows, words)))


@pytest.mark.parametrize("n", range(3, 14))
def test_score_block_words_match_bools(n):
    rng = np.random.default_rng(n)
    for c in range(1, n):
        seg = make_segment(n, c)
        size = 200
        hits = rng.random((n - 2, size)) < 0.5
        clean = rng.random((seg.edge_count, size)) < 0.6
        auth, link = _node_verdicts(seg, [hits]), _link_verdicts(seg, [clean])
        auth_w, link_w = _node_verdicts(seg, [pack(hits)]), _link_verdicts(seg, [pack(clean)])
        assert auth_w.dtype == link_w.dtype == np.uint64
        assert np.array_equal(unpack(auth_w, size), auth)
        assert np.array_equal(unpack(link_w, size), link)


@pytest.mark.parametrize("n,c", [(30, 2), (150, 8)])
def test_verdict_words_match_references_at_benchmark_sizes(n, c):
    # the smallest and largest segments that the simulate workload runs
    seg, trials = make_segment(n, c), 300
    words = -(-trials // 64)
    rng = np.random.default_rng(n + c)
    hits = draw_all(rng, 0.5, n - 2, words)
    clean = ~draw_all(rng, 0.5, seg.edge_count, words)
    auth = unpack(_node_verdicts(seg, [hits]), trials)
    link = unpack(_link_verdicts(seg, [clean]), trials)
    hit_lanes, clean_lanes = (
        np.unpackbits(m.view(np.uint8), axis=1, bitorder="little").astype(bool)
        for m in (hits, clean)
    )
    rows = link_rows(seg)
    for t in range(trials):
        compromised = {node for node, hit in zip(seg.interior_nodes, hit_lanes[:, t]) if hit}
        intercepted = [l for l, ok in zip(rows, clean_lanes[:, t]) if not ok]
        assert auth[t] == has_run_of_c(seg, compromised)
        assert link[t] == link_reference(seg, intercepted)


DRAW_PROBABILITIES = [0.0, 1 / 256, 0.2, 0.5, 255.5 / 256, 1.0, 5e-324, 1e-300, 1 - 2**-53]


def pattern_bounds(p):
    """B_0..B_254 of the byte-pattern law, from the exact rational p: the
    cumulative masses of patterns 0..b (bit t set where lane t hits),
    floored to 2^-72."""
    q, total, bounds = Fraction(p), Fraction(0), []
    for b in range(255):
        k = b.bit_count()
        total += q**k * (1 - q) ** (8 - k)
        bounds.append(math.floor(total * 2**72))
    return bounds


def replay_patterns(rng, p, rows, words):
    """The output bytes of the documented draw, cell by cell: a 16-bit
    cell u is the top of a 72-bit uniform x, and x picks the pattern b
    with B_(b-1) <= x < B_b; a cell with a boundary strictly inside it
    takes the low 56 bits from the top of one more raw output, after the
    cells of its chunk, in byte order."""
    bounds = pattern_bounds(p)
    per_chunk = max(1, CHUNK_LANES // (64 * words))
    out = bytearray()
    for row in range(0, rows, per_chunk):
        k = min(per_chunk, rows - row)
        raw = rng.bit_generator.random_raw(2 * words * k)
        data = b"".join(int(v).to_bytes(8, "little") for v in raw)
        cells = [int.from_bytes(data[i : i + 2], "little") for i in range(0, len(data), 2)]
        patterns = [bisect.bisect_right(bounds, u << 56) for u in cells]
        for i, (u, b) in enumerate(zip(cells, patterns)):
            if b < 255 and bounds[b] < (u + 1) << 56:
                x = u << 56 | int(rng.bit_generator.random_raw()) >> 8
                patterns[i] = bisect.bisect_right(bounds, x)
        out += bytes(patterns)
    return np.unpackbits(np.frombuffer(bytes(out), dtype=np.uint8), bitorder="little").astype(bool)


@pytest.mark.parametrize("p", DRAW_PROBABILITIES)
@pytest.mark.parametrize("rows,words", [(5, 1), (3, CHUNK_LANES // 128)])
def test_draw_hits_replays_raw_bytes_and_tie_floats(p, rows, words):
    """The draw against its pure-Python replay: the raw bytes as 16-bit
    cells, and the tie cells refined by raw outputs (the test keeps the
    name it had when ties were refined by floats, so its ids stay)."""
    rng = np.random.default_rng(31)
    drawn = draw_all(rng, p, rows, words)
    assert drawn.shape == (rows, words) and drawn.dtype == np.uint64
    lanes = unpack(drawn, rows * words * 64)

    replay = np.random.default_rng(31)
    if p in (0.0, 1.0):
        # certain outcomes consume no draws
        assert rng.bit_generator.state == replay.bit_generator.state
        assert lanes.all() if p else not lanes.any()
        return
    assert np.array_equal(lanes, replay_patterns(replay, p, rows, words))
    assert rng.bit_generator.state == replay.bit_generator.state


class ScriptedBits:
    """Stands in for a Generator whose raw outputs are given in advance."""

    def __init__(self, outputs):
        self.bit_generator = self
        self.outputs = list(outputs)

    def random_raw(self, size):
        taken, self.outputs = self.outputs[:size], self.outputs[size:]
        return np.array(taken, dtype=np.uint64)


@pytest.mark.parametrize("p", [0.2, 1 / 3, 255.5 / 256, 1e-300, 1 - 2**-53])
def test_draw_hits_at_refined_boundaries(p):
    """A uniform just below a boundary B_b inside a cell picks pattern b,
    and one equal to it picks b + 1."""
    bounds, mask = pattern_bounds(p), (1 << 56) - 1
    xs = [x for bound in bounds if bound & mask for x in (bound - 1, bound)]
    for at in range(0, len(xs), 8):
        batch = (xs[at : at + 8] * 8)[:8]
        cells = sum(x >> 56 << 16 * i for i, x in enumerate(batch))
        raws = [cells & (1 << 64) - 1, cells >> 64] + [(x & mask) << 8 for x in batch]
        drawn = draw_all(ScriptedBits(raws), p, 1, 1)
        expected = [bisect.bisect_right(bounds, x) for x in batch]
        assert drawn.view(np.uint8).ravel().tolist() == expected


@pytest.mark.parametrize("p", [p for p in DRAW_PROBABILITIES if 0 < p < 1] + [0.3, 0.123456789])
def test_byte_law_is_exact_to_2_pow_minus_72(p):
    """Each pattern's table mass plus its refinement mass is exactly the
    floored boundary difference, which is within 2^-72 of its law."""
    table, keys, base = _byte_law(p)
    assert table.shape == (1 << 16,) and len(base) <= 255
    unit, mask = 1 << 56, (1 << 56) - 1
    mass = [int(n) * unit for n in np.bincount(table[table < 256], minlength=256)]
    keys = [int(key) for key in keys]
    for j, first in enumerate(base):
        earlier = sum(key >> 56 < j for key in keys)
        cuts = [0] + [key & mask for key in keys if key >> 56 == j] + [unit]
        assert len(cuts) > 2 and np.count_nonzero(table == 256 + j) == 1
        for i in range(len(cuts) - 1):
            mass[int(first) + earlier + i] += cuts[i + 1] - cuts[i]
    bounds = [0] + pattern_bounds(p) + [1 << 72]
    q = Fraction(p)
    for b in range(256):
        assert mass[b] == bounds[b + 1] - bounds[b], b
        k = b.bit_count()
        assert abs(Fraction(mass[b], 1 << 72) - q**k * (1 - q) ** (8 - k)) < Fraction(1, 1 << 72)


def block_trials(seg):
    """Trials per block: 64 per word, words per row as documented."""
    rows = seg.n_nodes - 2 + seg.edge_count
    return 64 * max(1, min(simulator.BLOCK_BYTES // (8 * rows), simulator.CHUNK_LANES // 64))


BLOCK_SEG = make_segment(40, 5)
BLOCK = block_trials(BLOCK_SEG)


def replay_verdicts(seg, p_node, p_link, trials, seed):
    """Per-trial verdicts from the documented draw order, block by block:
    node rows then link rows, each block a whole number of words, each
    scored as one whole array."""
    rng = np.random.default_rng(seed)
    block = block_trials(seg)
    auth, link = [], []
    for start in range(0, trials, block):
        size = min(block, trials - start)
        words = -(-size // 64)
        hits = draw_all(rng, p_node, seg.n_nodes - 2, words)
        clean = ~draw_all(rng, p_link, seg.edge_count, words)
        a, l = _node_verdicts(seg, [hits]), _link_verdicts(seg, [clean])
        auth.append(unpack(a, size))
        link.append(unpack(l, size))
    return np.concatenate(auth), np.concatenate(link)


@pytest.mark.parametrize(
    "trials", [1, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
)
def test_trials_across_block_boundaries(trials):
    stats = run_trials(BLOCK_SEG, 0.6, 0.45, trials, seed=17)
    done = [row[0] for row in stats.progress]
    assert done == sorted(set(done)) and done[0] >= 1
    assert stats.progress[-1] == (trials, stats.successes_auth, stats.successes_link)
    assert stats.successes_joint <= min(stats.successes_auth, stats.successes_link)
    assert run_trials(BLOCK_SEG, 0.6, 0.45, trials, seed=17) == stats

    auth, link = replay_verdicts(BLOCK_SEG, 0.6, 0.45, trials, seed=17)
    assert stats.successes_joint == int((auth & link).sum())
    assert stats.progress == tuple(
        (k, int(auth[:k].sum()), int(link[:k].sum())) for k in done
    )


@pytest.mark.parametrize("n,c", [(40, 5), (13, 8)])
@pytest.mark.parametrize("trials", [1, 200, 898, 2311])
def test_trials_across_chunk_boundaries(monkeypatch, n, c, trials):
    """With 768-lane chunks a row is 12 words, a block 768 trials, and a
    chunk 1, 3, 4 or 12 rows, so node windows and the in-links of a node
    straddle chunk boundaries; the counts still match a replay that
    scores each block as one array."""
    monkeypatch.setattr(simulator, "CHUNK_LANES", 768)
    seg = make_segment(n, c)
    assert block_trials(seg) == 768
    stats = run_trials(seg, 0.6, 0.45, trials, seed=23)
    auth, link = replay_verdicts(seg, 0.6, 0.45, trials, seed=23)
    assert stats.successes_joint == int((auth & link).sum())
    assert stats.progress[-1] == (trials, stats.successes_auth, stats.successes_link)
    assert stats.progress == tuple(
        (k, int(auth[:k].sum()), int(link[:k].sum())) for k, _, _ in stats.progress
    )


@given(n=st.integers(3, 12), data=st.data())
@settings(max_examples=100, deadline=None)
def test_verdicts_do_not_depend_on_chunk_boundaries(n, data):
    c = data.draw(st.integers(1, n - 1))
    seg = make_segment(n, c)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    for rows, score in ((n - 2, _node_verdicts), (seg.edge_count, _link_verdicts)):
        whole = pack(rng.random((rows, 100)) < 0.5)
        cuts = sorted(data.draw(st.lists(st.integers(1, rows), max_size=rows)))
        chunks = [whole[a:b] for a, b in zip([0, *cuts], [*cuts, rows]) if a < b]
        assert np.array_equal(score(seg, chunks), score(seg, [whole]))


# sha256 of repr(tuple(stats)) for seeded runs: one block of several
# chunks, three blocks and a part, p of 0 and 1, a segment of one word per
# row in one block and in four, and chunks of one row at c = 8.
PINNED_TRIALS = [
    ((40, 5), 0.6, 0.45, 1000, 3,
     "4a1a543d83ead940747b492371c890f273cbfbbb9b8fb2fca4f31f06f4f2abaa"),
    ((40, 5), 0.6, 0.45, 112_711, 17,
     "fe33262b1213a3ca749cd6d7016bf7fda838212e145c9e0789f69b021064007d"),
    ((40, 5), 0.0, 1.0, 5000, 4,
     "f00694d542ece7bb1dd6627c885eb5cf638ecc64dee3a97980f5e46d42bcb164"),
    ((40, 5), 1.0, 0.0, 5000, 4,
     "477250d0f56cdc1990c32910f256b626c3f6782ab9941452944112cc88b1340a"),
    ((50_000, 2), 0.3, 0.6, 64, 5,
     "7895a98b244ff03cac2b79364a173835bd5209a39c9ac8e99cbf95ad83f074be"),
    ((50_000, 2), 0.3, 0.6, 200, 6,
     "4ef4d332390475ba2a947735ebcb1da60a8928f4abf190569c849f6d3ce17b7d"),
    ((12, 8), 0.7, 0.5, 600_000, 7,
     "aec4bca77efcecabc0582416699ce7c7d78a7a900dea0ebdd110ac20a091f3cb"),
]


@pytest.mark.parametrize("segment,p_node,p_link,trials,seed,digest", PINNED_TRIALS)
def test_run_trials_stream_is_pinned(segment, p_node, p_link, trials, seed, digest):
    stats = run_trials(make_segment(*segment), p_node, p_link, trials, seed=seed)
    assert hashlib.sha256(repr(tuple(stats)).encode()).hexdigest() == digest


def test_run_trials_memory_is_bounded_in_n():
    # 900,000 rows of one word, 7 MB, of which a run holds one chunk
    out = run_fresh(
        "import resource\n"
        "from qkdnet import make_segment, run_trials\n"
        "run_trials(make_segment(8, 2), 0.3, 0.4, 64, seed=1)\n"
        "seg = make_segment(300_000, 2)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "run_trials(seg, 0.3, 0.4, 64, seed=1)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(out) < 3 * 1024  # KiB


def alloc_peak(seg, trials):
    tracemalloc.start()
    try:
        run_trials(seg, 0.5, 0.4, trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_trials_memory_is_bounded_in_trials():
    # one undivided draw at this size would be about 1.7 GB of float64
    seg = make_segment(200, 10)
    # numpy.random's lazy import and the byte law's cache fill come first
    run_trials(seg, 0.5, 0.4, 64, seed=1)
    peak = alloc_peak(seg, 100_000)
    assert peak < 2**20
    assert peak < 64 * 2**20
    assert peak <= 1.25 * alloc_peak(seg, 10_000)
