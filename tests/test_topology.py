import pytest

from qkdnet import Link, NetworkSegment, ValidationError, make_segment


def brute_edges(n, c):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if 1 <= j - i <= c]


def test_segment_6_2_has_9_links():
    seg = make_segment(6, 2)
    assert seg.edge_count == 9
    assert len(seg.edges()) == 9
    assert seg.edges() == [Link(*e) for e in brute_edges(6, 2)]


def test_serial_chain_has_n_minus_1_links():
    assert make_segment(9, 1).edge_count == 8


def test_density_bound_rejected():
    with pytest.raises(ValidationError, match="density"):
        make_segment(6, 7)
    with pytest.raises(ValidationError, match="density"):
        make_segment(6, 0)
    with pytest.raises(ValidationError, match="density"):
        NetworkSegment(6, 7)


def test_n_past_float_range_rejected():
    with pytest.raises(ValidationError, match="^N must convert to a finite float"):
        NetworkSegment(10**400, 2)
    assert make_segment(10**300, 2).n_nodes == 10**300


def test_too_few_nodes_rejected():
    with pytest.raises(ValidationError, match="n_nodes"):
        make_segment(2, 1)
    with pytest.raises(ValidationError, match="n_nodes"):
        NetworkSegment(2, 1)
    with pytest.raises(ValidationError, match="n_nodes"):
        NetworkSegment(n_nodes=2, density=1)


def test_edges_deterministic_order():
    seg = make_segment(6, 2)
    assert seg.edges()[:3] == [Link(1, 2), Link(1, 3), Link(2, 3)]
    assert make_segment(3, 1).edges() == [Link(1, 2), Link(2, 3)]
    assert len(make_segment(4, 3).edges()) == 6


@pytest.mark.parametrize("n", range(3, 41))
def test_edge_count_formula_matches_enumeration(n):
    for c in range(1, n):
        seg = make_segment(n, c)
        assert seg.edge_count == len(brute_edges(n, c))
        assert seg.edge_count == c * (2 * n - c - 1) // 2


def test_complete_dag_when_density_is_n_minus_1():
    seg = make_segment(8, 7)
    assert seg.edge_count == 8 * 7 // 2


def test_edges_strictly_increase():
    for n, c in [(5, 2), (9, 4), (12, 1)]:
        for link in make_segment(n, c).edges():
            assert link.src < link.dst


def test_out_neighbors():
    seg = make_segment(6, 2)
    assert seg.out_neighbors(1) == [2, 3]
    assert seg.out_neighbors(5) == [6]
    assert seg.out_neighbors(6) == []
    with pytest.raises(ValidationError):
        seg.out_neighbors(7)


def test_in_neighbors():
    seg = make_segment(6, 2)
    assert seg.in_neighbors(1) == []
    assert seg.in_neighbors(3) == [1, 2]
    assert seg.in_neighbors(6) == [4, 5]


def test_json_round_trip_shape():
    assert make_segment(6, 2).to_dict() == {"n": 6, "c": 2}


@pytest.mark.parametrize("n", range(3, 8))
def test_has_link_is_membership_in_edges(n):
    values = [0, 1, 2, 3, 4.0, 5, 6, 7, 8, 1.5, 2.5, -1, "2", None]
    for c in range(1, n):
        seg = make_segment(n, c)
        edges = set(seg.edges())
        for src in values:
            for dst in values:
                assert seg.has_link(src, dst) == ((src, dst) in edges), (c, src, dst)
