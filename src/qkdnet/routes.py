"""Route counting, enumeration, and the per-link routing scheme.

First-to-last routes in an (N, c) segment are exactly the compositions of
N-1 into parts of size 1..c, so their number is the N-th c-annacci number
(the order-c generalization of the Fibonacci sequence).
"""

from __future__ import annotations

import os
from itertools import cycle, islice
from typing import NamedTuple

from .errors import CapExceededError, ValidationError
from .topology import Link, NetworkSegment, make_segment

DEFAULT_ROUTE_CAP = 1 << 20
ROUTE_CAP_ENV = "QKDNET_ROUTE_CAP"

Route = tuple[int, ...]


def route_cap_from_env() -> int:
    raw = os.environ.get(ROUTE_CAP_ENV)
    if not raw:
        return DEFAULT_ROUTE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ROUTE_CAP_ENV} must be an integer, got {raw!r}") from None


class RouteSet(NamedTuple):
    """All routes of a segment in lexicographic order, with the exact count."""

    segment: NetworkSegment
    routes: tuple[Route, ...]
    count: int


class RoutingScheme(NamedTuple):
    """Map of each link to the ascending route indices (1-based) carried on it."""

    segment: NetworkSegment
    per_link_bundles: dict[Link, tuple[int, ...]]
    route_count: int


def cannacci_count(n_nodes: int, density: int) -> int:
    """Exact number of first-to-last routes, F^(c)_N, as a big integer.

    Computed by the linear recurrence F_k = F_{k-1} + ... + F_{k-c} over the
    distance to cover, so it stays exact for any N; only the last c terms
    are kept.
    """
    seg = make_segment(n_nodes, density)
    return _composition_count(seg.n_nodes - 1, seg.density)


def _composition_count(distance: int, max_part: int) -> int:
    """``_composition_counts(distance, max_part)[-1]`` from a ring of the
    last max_part counts: O(max_part * distance) bits of memory, where the
    whole list takes O(distance^2)."""
    ring = [0] * max_part  # ring[d % max_part] = counts[d]
    ring[0] = 1
    total = 1  # sum(ring)
    for i in islice(cycle(range(max_part)), 1, distance + 1):
        # i = d % max_part; ring[i] still holds counts[d - max_part]
        new = total
        total += new - ring[i]
        ring[i] = new
    return ring[distance % max_part]


def _composition_counts(distance: int, max_part: int) -> list[int]:
    """counts[d] = number of compositions of d into parts of size 1..max_part,
    for d = 0..distance."""
    counts = [0] * (distance + 1)
    counts[0] = 1
    window = 1  # sum(counts[max(d - max_part, 0):d]) at each step d
    for d in range(1, distance + 1):
        counts[d] = window
        window += window if d < max_part else window - counts[d - max_part]
    return counts


def bundle_id_total(seg: NetworkSegment) -> int:
    """Exact total bundle size, sum(len(bundle)), of the segment's routing
    scheme, without building it.

    A route through link (a, b) is a prefix 1 -> ... -> a, the hop and a
    tail b -> ... -> N, so the link carries counts[a - 1] * counts[N - b]
    route ids.
    """
    n = seg.n_nodes
    counts = _composition_counts(n - 1, seg.density)
    return sum(counts[a - 1] * counts[n - b] for a, b in seg.edges())


def check_route_cap(count: int, cap: int | None) -> None:
    """Refuse to materialize ``count`` routes when that exceeds ``cap``.

    ``cap`` defaults to 2^20, overridable via the QKDNET_ROUTE_CAP
    environment variable, since the count grows exponentially with N.
    A cap below 1 is a ValidationError: every segment has at least one
    route.  A count of 2^64 or more is reported by its bit length, since
    its decimal form can run to thousands of digits (past CPython's
    int-to-str limit from about 4,300).
    """
    if cap is None:
        cap = route_cap_from_env()
    if cap < 1:
        raise ValidationError(f"route cap must be >= 1, got {cap}")
    if count > cap:
        size = str(count) if count.bit_length() <= 64 else f"of {count.bit_length()} bits"
        raise CapExceededError(f"route count {size} exceeds materialization cap {cap}")


def enumerate_routes(seg: NetworkSegment, cap: int | None = None) -> RouteSet:
    """Materialize every route in lexicographic order by node sequence.

    Refuses with CapExceededError when the exact count exceeds ``cap``;
    see ``check_route_cap``.
    """
    count = cannacci_count(seg.n_nodes, seg.density)
    check_route_cap(count, cap)
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


def build_routing_scheme(seg: NetworkSegment, cap: int | None = None) -> RoutingScheme:
    """Each link's bundle: the ascending ids (1-based, in the lexicographic
    order of ``enumerate_routes``) of the routes that traverse it.

    No route is materialized.  With tail[v] the number of routes from v to
    N, the routes that start with a prefix 1 -> ... -> a are the tail[a]
    consecutive ids from that prefix's first id.  Among them, those whose
    next hop is b come after the ones whose next hop is a smaller w, so
    the routes through link (a, b) form, for each prefix ending at a, one
    block of tail[b] ids starting at the prefix's first id plus the sum of
    tail[w] over a < w < b; that start is also the first id of the prefix
    extended by b.  Walking the nodes in ascending order, the first ids of
    the prefixes ending at a are complete, and sorted, before a's links
    are built; the blocks of distinct prefixes are disjoint, so each
    bundle comes out ascending.  The work is proportional to the total
    bundle size.

    Refuses with CapExceededError when the route count exceeds ``cap``,
    the same check as ``enumerate_routes`` (see ``check_route_cap``).
    """
    n, c = seg.n_nodes, seg.density
    check_route_cap(_composition_count(n - 1, c), cap)
    counts = _composition_counts(n - 1, c)
    tail = [0] + counts[::-1]  # tail[v] = counts[n - v]
    # first[v]: the first route id of each prefix 1 -> ... -> v
    first: list[list[int]] = [[] for _ in range(n + 1)]
    first[1].append(1)
    bundles: dict[Link, tuple[int, ...]] = {}
    for a in range(1, n):
        prefixes = sorted(first[a])
        offset = 0
        for b in range(a + 1, min(a + c, n) + 1):
            width = tail[b]
            starts = [start + offset for start in prefixes]
            ids: list[int] = []
            for start in starts:
                ids += range(start, start + width)
            bundles[Link(a, b)] = tuple(ids)
            first[b] += starts
            offset += width
    return RoutingScheme(segment=seg, per_link_bundles=bundles, route_count=counts[-1])


def min_link_cut_size(seg: NetworkSegment) -> int:
    """Size of the smallest link set whose interception covers every route.

    The out-edges of node 1 (or the in-edges of node N) form such a set of
    size c, and no smaller set exists.
    """
    return seg.density
