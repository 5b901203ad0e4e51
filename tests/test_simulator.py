import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import (
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
from qkdnet.simulator import BLOCK_BYTES, CHUNK_LANES, _draw_hits, _score_block


def oracle_clean_node_path(seg, compromised):
    """Independent reachability check used to cross-validate the predicate."""
    reach = {1}
    for j in range(2, seg.n_nodes + 1):
        if j in compromised and j != seg.n_nodes:
            continue
        if any(i in reach for i in range(max(j - seg.density, 1), j)):
            reach.add(j)
    return seg.n_nodes in reach


def test_node_attack_examples():
    seg = make_segment(6, 2)
    assert node_attack_succeeds(seg, {3, 4})
    assert not node_attack_succeeds(seg, {2, 4})
    assert not node_attack_succeeds(seg, set())


def test_node_attack_rejects_endpoint():
    with pytest.raises(ValidationError):
        node_attack_succeeds(make_segment(6, 2), {1, 3})


@pytest.mark.parametrize("n", range(3, 13))
def test_predicate_equivalence_exhaustive(n):
    for c in range(1, min(n - 1, 5)):
        seg = make_segment(n, c)
        interior = list(seg.interior_nodes)
        for r in range(len(interior) + 1):
            for subset in itertools.combinations(interior, r):
                # node_attack_succeeds internally asserts run-check ==
                # path-check; also compare against this test's own oracle
                assert node_attack_succeeds(seg, subset) == (
                    not oracle_clean_node_path(seg, set(subset))
                )


def test_link_attack_examples():
    seg = make_segment(6, 2)
    assert link_attack_succeeds(seg, [Link(1, 2), Link(1, 3)])
    assert not link_attack_succeeds(seg, [Link(1, 2)])
    assert link_attack_succeeds(seg, seg.edges())


def test_link_attack_rejects_foreign_link():
    with pytest.raises(ValidationError):
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
    c = data.draw(st.integers(1, n - 1))
    seg = make_segment(n, c)
    size = data.draw(st.integers(1, 6))
    flags = st.lists(st.booleans(), min_size=size, max_size=size)
    hits = np.array(data.draw(st.lists(flags, min_size=n - 2, max_size=n - 2)), dtype=bool)
    clean = np.array(
        data.draw(st.lists(flags, min_size=seg.edge_count, max_size=seg.edge_count)),
        dtype=bool,
    )
    auth, link = _score_block(seg, hits, clean)
    rows = link_rows(seg)
    for t in range(size):
        compromised = {node for node, hit in zip(seg.interior_nodes, hits[:, t]) if hit}
        intercepted = [l for l, ok in zip(rows, clean[:, t]) if not ok]
        assert auth[t] == node_attack_succeeds(seg, compromised)
        assert link[t] == link_attack_succeeds(seg, intercepted)


def pack(masks):
    """Bool masks (rows, trials) as uint64 words, trial t in bit t % 64 of
    word t // 64; the unused bits of the last word are 0."""
    words = -(-masks.shape[1] // 64)
    padded = np.zeros((masks.shape[0], 64 * words), dtype=bool)
    padded[:, : masks.shape[1]] = masks
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def unpack(words, size):
    return np.unpackbits(words.view(np.uint8), count=size, bitorder="little").astype(bool)


@pytest.mark.parametrize("n", range(3, 14))
def test_score_block_words_match_bools(n):
    rng = np.random.default_rng(n)
    for c in range(1, n):
        seg = make_segment(n, c)
        size = 200
        hits = rng.random((n - 2, size)) < 0.5
        clean = rng.random((seg.edge_count, size)) < 0.6
        auth, link = _score_block(seg, hits, clean)
        auth_w, link_w = _score_block(seg, pack(hits), pack(clean))
        assert auth_w.dtype == link_w.dtype == np.uint64
        assert np.array_equal(unpack(auth_w, size), auth)
        assert np.array_equal(unpack(link_w, size), link)


@pytest.mark.parametrize("p", [0.0, 1 / 256, 0.2, 0.5, 255.5 / 256, 1.0])
@pytest.mark.parametrize("rows,words", [(5, 1), (3, CHUNK_LANES // 128)])
def test_draw_hits_replays_raw_bytes_and_tie_floats(p, rows, words):
    rng = np.random.default_rng(31)
    drawn = _draw_hits(rng, p, rows, words)
    assert drawn.shape == (rows, words) and drawn.dtype == np.uint64
    lanes = unpack(drawn, rows * words * 64)

    replay = np.random.default_rng(31)
    if p in (0.0, 1.0):
        # certain outcomes consume no draws
        assert rng.bit_generator.state == replay.bit_generator.state
        assert lanes.all() if p else not lanes.any()
        return
    threshold = int(256 * p)
    per_chunk = max(1, CHUNK_LANES // (64 * words))
    expected = []
    for row in range(0, rows, per_chunk):
        k = min(per_chunk, rows - row)
        raw = replay.bit_generator.random_raw(8 * words * k)
        data = b"".join(int(v).to_bytes(8, "little") for v in raw)
        hit = np.frombuffer(data, dtype=np.uint8) < threshold
        for lane, byte in enumerate(data):
            if byte == threshold:
                hit[lane] = replay.random() < 256 * p - threshold
        expected.append(hit)
    assert np.array_equal(lanes, np.concatenate(expected))
    assert rng.bit_generator.state == replay.bit_generator.state


def block_trials(seg):
    """Trials per block: 64 per word, words per row as documented."""
    rows = seg.n_nodes - 2 + seg.edge_count
    return 64 * max(1, min(BLOCK_BYTES // (8 * rows), CHUNK_LANES // 64))


BLOCK_SEG = make_segment(40, 5)
BLOCK = block_trials(BLOCK_SEG)


def replay_verdicts(seg, p_node, p_link, trials, seed):
    """Per-trial verdicts from the documented draw order, block by block:
    node rows then link rows, each block a whole number of words."""
    rng = np.random.default_rng(seed)
    block = block_trials(seg)
    auth, link = [], []
    for start in range(0, trials, block):
        size = min(block, trials - start)
        words = -(-size // 64)
        hits = _draw_hits(rng, p_node, seg.n_nodes - 2, words)
        clean = ~_draw_hits(rng, p_link, seg.edge_count, words)
        a, l = _score_block(seg, hits, clean)
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
    peak = alloc_peak(seg, 100_000)
    assert peak < 64 * 2**20
    assert peak <= 1.25 * alloc_peak(seg, 10_000)
