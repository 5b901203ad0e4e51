"""Banded network segment topology.

A segment is N serially ordered trusted nodes (1-based indices) where each
node has unidirectional links to the next ``density`` nodes.  The adjacency
matrix therefore carries ones on the first ``density`` superdiagonals and
zeros elsewhere.

A ``CompromiseScenario`` names the interior nodes and links an adversary
holds in one session.

The records of this package are ``typing.NamedTuple``s: immutable,
hashable when their fields are, and built by keyword or by position.  Being
tuples, they also unpack and compare equal to plain tuples of the same
values.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError, check_float_size


class Link(NamedTuple):
    """Directed QKD link between two nodes (1-based indices)."""

    src: int
    dst: int


class _Segment(NamedTuple):
    n_nodes: int
    density: int


class NetworkSegment(_Segment):
    """Immutable (N, c) segment descriptor.

    ``n_nodes`` includes both endpoints; ``density`` is the maximum hop
    length, i.e. each node links to the next ``density`` nodes.
    """

    __slots__ = ()

    def __new__(cls, n_nodes: int, density: int) -> NetworkSegment:
        if n_nodes < 3:
            raise ValidationError(
                f"n_nodes must be >= 3 (need at least one interior node), got {n_nodes}"
            )
        if not 1 <= density <= n_nodes - 1:
            raise ValidationError(f"density must be in [1, {n_nodes - 1}], got {density}")
        check_float_size(n_nodes, "N")
        return super().__new__(cls, n_nodes, density)

    @property
    def edge_count(self) -> int:
        # c*(2N-c-1) is always even, so integer division is exact.
        return self.density * (2 * self.n_nodes - self.density - 1) // 2

    @property
    def interior_nodes(self) -> range:
        return range(2, self.n_nodes)

    def has_link(self, src, dst) -> bool:
        """True when 1 <= src < dst <= min(src + c, N), as for membership in
        ``edges()``: a value equal to an int, such as 2.0, counts as it."""
        n, c = self.n_nodes, self.density
        return (_in_range(src, range(1, n)) and _in_range(dst, range(2, n + 1))
                and _in_range(dst - src, range(1, c + 1)))

    def edges(self) -> list[Link]:
        """All links, ascending by source then destination."""
        return [
            Link(i, j)
            for i in range(1, self.n_nodes)
            for j in range(i + 1, min(i + self.density, self.n_nodes) + 1)
        ]

    def out_neighbors(self, node: int) -> list[int]:
        if not 1 <= node <= self.n_nodes:
            raise ValidationError(f"node must be in [1, {self.n_nodes}], got {node}")
        return list(range(node + 1, min(node + self.density, self.n_nodes) + 1))

    def in_neighbors(self, node: int) -> list[int]:
        if not 1 <= node <= self.n_nodes:
            raise ValidationError(f"node must be in [1, {self.n_nodes}], got {node}")
        return list(range(max(node - self.density, 1), node))

    def to_dict(self) -> dict:
        return {"n": self.n_nodes, "c": self.density}


class CompromiseScenario(NamedTuple):
    """One session's adversary holdings: interior nodes and links."""

    compromised_nodes: frozenset[int]
    intercepted_links: frozenset[Link]

    @staticmethod
    def of(seg: NetworkSegment, nodes=(), links=()) -> "CompromiseScenario":
        nodes = frozenset(nodes)
        links = frozenset(Link(*l) for l in links)
        if not all(_in_range(node, seg.interior_nodes) for node in nodes):
            raise ValidationError(
                f"compromised nodes must be interior (2..{seg.n_nodes - 1}), got {sorted(nodes)}"
            )
        if not all(seg.has_link(src, dst) for src, dst in links):
            raise ValidationError("intercepted links must be edges of the segment")
        return CompromiseScenario(nodes, links)


def _in_range(value, members: range) -> bool:
    """``value in members`` in O(1) for every value: it holds when value
    equals one of the ints in ``members``.  ``in`` itself is O(1) only for
    ints, and compares any other value (2.0, 2.5) with every member."""
    try:
        whole = int(value.real)
    except (AttributeError, TypeError, ValueError, OverflowError):
        return False
    return whole == value and whole in members


def make_segment(n_nodes: int, density: int) -> NetworkSegment:
    """Validate and build a segment; see NetworkSegment for the bounds."""
    return NetworkSegment(n_nodes, density)
