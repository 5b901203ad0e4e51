import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdnet import (
    CapExceededError,
    Link,
    ValidationError,
    build_routing_scheme,
    cannacci_count,
    enumerate_routes,
    link_attack_succeeds,
    make_segment,
)
from qkdnet.routes import Bundle, _composition_counts, bundle_id_total


def brute_route_count(n, c):
    """Independent DFS count of strictly increasing hop sequences 1 -> n."""

    def walk(node):
        if node == n:
            return 1
        return sum(walk(node + k) for k in range(1, min(c, n - node) + 1))

    return walk(1)


def test_fig2_route_count():
    assert cannacci_count(6, 2) == 8


@pytest.mark.parametrize("n", range(3, 15))
def test_serial_chain_single_route(n):
    assert cannacci_count(n, 1) == 1


def test_count_matches_bruteforce():
    assert cannacci_count(9, 3) == brute_route_count(9, 3)
    for n in range(3, 12):
        for c in range(1, n):
            assert cannacci_count(n, c) == brute_route_count(n, c)


def slice_sum_counts(distance, max_part):
    """counts[d] as the sum of the previous max_part counts, one slice per d."""
    counts = [1] + [0] * distance
    for d in range(1, distance + 1):
        counts[d] = sum(counts[max(d - max_part, 0):d])
    return counts


def test_composition_counts_match_slice_sums():
    for n in range(2, 61):
        for c in range(1, n):
            assert _composition_counts(n - 1, c) == slice_sum_counts(n - 1, c), (n, c)
    for n, c in ((400, 8), (2000, 1), (2000, 1999)):
        assert _composition_counts(n - 1, c) == slice_sum_counts(n - 1, c), (n, c)


@given(n=st.integers(13, 30), c=st.integers(1, 6))
@settings(max_examples=60)
def test_recurrence_consistency(n, c):
    # full recurrence window needs all N-k terms to be valid segments
    if n - c < 3 or c > n - c - 1:
        return
    assert cannacci_count(n, c) == sum(cannacci_count(n - k, c) for k in range(1, c + 1))


def test_enumeration_matches_count():
    for n in range(3, 11):
        for c in range(1, n):
            rs = enumerate_routes(make_segment(n, c))
            assert len(rs.routes) == rs.count == cannacci_count(n, c)
            assert len(set(rs.routes)) == rs.count


def test_enumeration_order_and_contents():
    rs = enumerate_routes(make_segment(6, 2))
    assert rs.count == 8
    assert rs.routes[0] == (1, 2, 3, 4, 5, 6)
    assert rs.routes == tuple(sorted(rs.routes))
    assert enumerate_routes(make_segment(3, 1)).routes == ((1, 2, 3),)
    assert enumerate_routes(make_segment(4, 3)).count == 4


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_routes(make_segment(200, 3), cap=1 << 20)
    # counting alone still works
    assert cannacci_count(200, 3) > 1 << 20


def test_route_cap_env_override(monkeypatch):
    monkeypatch.setenv("QKDNET_ROUTE_CAP", "4")
    with pytest.raises(CapExceededError):
        enumerate_routes(make_segment(6, 2))


def reference_scheme(rs):
    """Per-hop routing scheme: each route id is appended to the bundle of
    every link it traverses, links in ``seg.edges()`` order."""
    bundles = {link: [] for link in rs.segment.edges()}
    for idx, route in enumerate(rs.routes, start=1):
        for a, b in zip(route, route[1:]):
            bundles[Link(a, b)].append(idx)
    return {link: tuple(ids) for link, ids in bundles.items()}


# the demo-protocol segments of the benchmark's validation workload
DEMO_SEGMENTS = ((16, 2), (13, 3), (12, 4), (17, 2), (14, 3), (18, 2),
                 (13, 4), (15, 3), (19, 2), (16, 3), (20, 2))


@pytest.mark.parametrize(
    "n,c", [(n, c) for n in range(3, 15) for c in range(1, n)] + list(DEMO_SEGMENTS)
)
def test_routing_scheme_matches_per_hop_reference(n, c):
    seg = make_segment(n, c)
    rs = enumerate_routes(seg)
    scheme = build_routing_scheme(seg)
    assert scheme.route_count == rs.count
    assert list(scheme.per_link_bundles.items()) == list(reference_scheme(rs).items())


@pytest.mark.parametrize(
    "n,c", [(n, c) for n in range(3, 15) for c in range(1, n)] + list(DEMO_SEGMENTS)
)
def test_bundle_id_total_matches_built_scheme(n, c):
    seg = make_segment(n, c)
    scheme = build_routing_scheme(seg)
    assert bundle_id_total(seg) == sum(map(len, scheme.per_link_bundles.values()))


def link_product_total(seg):
    """Total bundle size as a sum over the links (a, b): a route through the
    link is a prefix 1 -> ... -> a, the hop, and a tail b -> ... -> N."""
    n = seg.n_nodes
    counts = _composition_counts(n - 1, seg.density)
    return sum(counts[a - 1] * counts[n - b] for a, b in seg.edges())


def test_bundle_id_total_matches_link_products():
    for n in range(3, 40):
        for c in range(1, n):
            seg = make_segment(n, c)
            assert bundle_id_total(seg) == link_product_total(seg), (n, c)


def test_bundle_id_total_beyond_built_schemes():
    assert bundle_id_total(make_segment(24, 2)) == 777_432
    assert bundle_id_total(make_segment(30, 2)) == 17_562_870


@pytest.mark.parametrize("n,c", [(3, 1), (6, 2), (9, 3), (12, 4)])
def test_bundle_is_a_read_only_sequence_equal_to_its_id_tuple(n, c):
    scheme = build_routing_scheme(make_segment(n, c))
    last = scheme.route_count + 1
    for bundle in scheme.per_link_bundles.values():
        ids = tuple(bundle)
        assert list(ids) == sorted(set(ids)) and 1 <= ids[0] and ids[-1] < last
        assert len(bundle) == len(ids)
        assert bundle == ids and ids == bundle
        assert bundle == Bundle(array("q", ids), 1)
        assert bundle != list(ids) and bundle != ids[:-1] and bundle != (*ids, last)
        with pytest.raises(TypeError):
            bundle + (last,)  # join ids as (*bundle, last)
        with pytest.raises(TypeError):
            hash(bundle)
        # each block is one slice: of the ids themselves, and of a sequence
        # holding three items per id
        blocks = bundle.slices(range(last + 1), range(last + 1))
        assert [i for block in blocks for i in block] == list(ids)
        tripled = bundle.slices([i // 3 for i in range(3 * last + 3)], range(0, 3 * last + 3, 3))
        assert [i for block in tripled for i in block[::3]] == list(ids)


def test_routing_scheme_cap():
    seg = make_segment(6, 2)  # 8 routes
    assert build_routing_scheme(seg, cap=8).route_count == 8
    with pytest.raises(CapExceededError, match="route count 8 exceeds materialization cap 7"):
        build_routing_scheme(seg, cap=7)
    with pytest.raises(ValidationError, match="route cap must be >= 1"):
        build_routing_scheme(seg, cap=0)


def test_routing_scheme_first_node_partition():
    seg = make_segment(6, 2)
    scheme = build_routing_scheme(seg)
    b12 = scheme.per_link_bundles[Link(1, 2)]
    b13 = scheme.per_link_bundles[Link(1, 3)]
    assert len(b12) + len(b13) == 8
    assert sorted((*b12, *b13)) == list(range(1, 9))
    # matches the worked example's 5 + 3 split
    assert sorted((len(b12), len(b13))) == [3, 5]


def test_routing_scheme_last_link_bundle():
    seg = make_segment(6, 2)
    rs = enumerate_routes(seg)
    scheme = build_routing_scheme(seg)
    expected = tuple(
        i for i, route in enumerate(rs.routes, start=1) if route[-2:] == (5, 6)
    )
    assert scheme.per_link_bundles[Link(5, 6)] == expected


def test_serial_chain_every_link_carries_route_1():
    seg = make_segment(3, 1)
    scheme = build_routing_scheme(seg)
    assert all(bundle == (1,) for bundle in scheme.per_link_bundles.values())


@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 10) for c in range(1, min(n, 5))])
def test_routing_scheme_partitions_both_endpoints(n, c):
    seg = make_segment(n, c)
    rs = enumerate_routes(seg)
    scheme = build_routing_scheme(seg)
    all_ids = set(range(1, rs.count + 1))
    for node_links in (
        [Link(1, j) for j in seg.out_neighbors(1)],
        [Link(i, n) for i in seg.in_neighbors(n)],
    ):
        bundles = [set(scheme.per_link_bundles[l]) for l in node_links]
        assert set().union(*bundles) == all_ids
        assert sum(len(b) for b in bundles) == rs.count  # pairwise disjoint
    # bundle membership is exactly route traversal
    for link, bundle in scheme.per_link_bundles.items():
        for idx in bundle:
            route = rs.routes[idx - 1]
            assert (link.src, link.dst) in set(zip(route, route[1:]))


@pytest.mark.parametrize("n,c", [(n, c) for n in range(3, 11) for c in range(1, min(n - 1, 5))])
def test_cut_property_exhaustive(n, c):
    seg = make_segment(n, c)
    out_links = [Link(1, j) for j in seg.out_neighbors(1)]
    assert link_attack_succeeds(seg, out_links)
    # any c-1 links leave at least one route intact
    if c > 1:
        for subset in itertools.combinations(seg.edges(), c - 1):
            assert not link_attack_succeeds(seg, subset)
