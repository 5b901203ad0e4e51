"""Route counting, enumeration, and the per-link routing scheme.

First-to-last routes in an (N, c) segment are exactly the compositions of
N-1 into parts of size 1..c, so their number is the N-th c-annacci number
(the order-c generalization of the Fibonacci sequence).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError, ValidationError
from .topology import Link, NetworkSegment, make_segment

DEFAULT_ROUTE_CAP = 1 << 20
ROUTE_CAP_ENV = "QKDNET_ROUTE_CAP"

Route = tuple[int, ...]


def route_cap_from_env(default: int = DEFAULT_ROUTE_CAP) -> int:
    raw = os.environ.get(ROUTE_CAP_ENV)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ROUTE_CAP_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class RouteSet:
    """All routes of a segment in lexicographic order, with the exact count."""

    segment: NetworkSegment
    routes: tuple[Route, ...]
    count: int


@dataclass(frozen=True)
class RoutingScheme:
    """Map of each link to the ascending route indices (1-based) carried on it."""

    segment: NetworkSegment
    per_link_bundles: dict[Link, tuple[int, ...]]
    route_count: int


def cannacci_count(n_nodes: int, density: int) -> int:
    """Exact number of first-to-last routes, F^(c)_N, as a big integer.

    Computed by the linear recurrence F_k = F_{k-1} + ... + F_{k-c} over the
    distance to cover, so it stays exact for any N.
    """
    seg = make_segment(n_nodes, density)
    return _compositions_count(seg.n_nodes - 1, seg.density)


def _compositions_count(distance: int, max_part: int) -> int:
    # counts[d] = number of compositions of d into parts of size 1..max_part
    counts = [0] * (distance + 1)
    counts[0] = 1
    for d in range(1, distance + 1):
        counts[d] = sum(counts[max(d - max_part, 0):d])
    return counts[distance]


def enumerate_routes(seg: NetworkSegment, cap: int | None = None) -> RouteSet:
    """Materialize every route in lexicographic order by node sequence.

    Refuses with CapExceededError when the exact count exceeds ``cap``
    (default 2^20, overridable via the QKDNET_ROUTE_CAP environment
    variable) since the count grows exponentially with N.  A cap below 1
    is a ValidationError: every segment has at least one route.
    """
    if cap is None:
        cap = route_cap_from_env()
    if cap < 1:
        raise ValidationError(f"route cap must be >= 1, got {cap}")
    count = cannacci_count(seg.n_nodes, seg.density)
    if count > cap:
        raise CapExceededError(
            f"route count {count} exceeds materialization cap {cap}"
        )
    # Depth-first with an explicit stack, so route length is not bounded
    # by the recursion limit; stack[k] iterates the successors of prefix[k].
    last, c = seg.n_nodes, seg.density
    routes: list[Route] = []
    prefix = [1]
    stack = [iter(range(2, min(1 + c, last) + 1))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            prefix.pop()
        elif nxt == last:
            routes.append((*prefix, nxt))
        else:
            prefix.append(nxt)
            stack.append(iter(range(nxt + 1, min(nxt + c, last) + 1)))
    assert len(routes) == count
    return RouteSet(segment=seg, routes=tuple(routes), count=count)


def build_routing_scheme(rs: RouteSet) -> RoutingScheme:
    """Assign each route index to the bundle of every link it traverses."""
    bundles: dict[Link, list[int]] = {link: [] for link in rs.segment.edges()}
    for idx, route in enumerate(rs.routes, start=1):
        for a, b in zip(route, route[1:]):
            bundles[Link(a, b)].append(idx)
    return RoutingScheme(
        segment=rs.segment,
        per_link_bundles={link: tuple(ids) for link, ids in bundles.items()},
        route_count=rs.count,
    )


def min_link_cut_size(seg: NetworkSegment) -> int:
    """Size of the smallest link set whose interception covers every route.

    The out-edges of node 1 (or the in-edges of node N) form such a set of
    size c, and no smaller set exists.
    """
    return seg.density
