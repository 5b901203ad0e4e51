"""Route counting, enumeration, and the per-link routing scheme.

First-to-last routes in an (N, c) segment are exactly the compositions of
N-1 into parts of size 1..c, so their number is the N-th c-annacci number
(the order-c generalization of the Fibonacci sequence).  ``iter_routes``
yields them one at a time, so a caller that writes each route as it
comes holds one route at once; ``enumerate_routes`` keeps them all.

The routing scheme gives each link a ``Bundle``: the ascending ids of the
routes through it, stored as runs of consecutive ids that all have the
same length, so that a bundle takes one machine word per run rather than
one int object per id.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain, cycle, islice
from typing import Iterator, NamedTuple

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


class Bundle:
    """The ascending route ids (1-based) carried on one link, as blocks of
    ``width`` consecutive ids, one block from each id in ``starts``.

    A read-only collection of ints (``len`` and iteration) that compares
    equal to the tuple of its ids.  ``slices`` reads it one block
    at a time, which is how the protocol and the CLI use it.
    """

    __slots__ = ("starts", "width")

    def __init__(self, starts: array, width: int):
        self.starts = starts
        self.width = width

    def slices(self, data, at) -> list:
        """One slice of ``data`` per block, in order, where route id i's
        part of ``data`` begins at ``at[i]`` and ends where id i + 1's
        begins: the block of ids start .. stop - 1 is
        ``data[at[start]:at[stop]]``."""
        width = self.width
        return [data[at[start] : at[start + width]] for start in self.starts]

    def __len__(self) -> int:
        return len(self.starts) * self.width

    def __iter__(self) -> Iterator[int]:
        width = self.width
        return chain.from_iterable(range(start, start + width) for start in self.starts)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Bundle, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Bundle(starts={self.starts!r}, width={self.width})"


class RoutingScheme(NamedTuple):
    """Map of each link to the ``Bundle`` of route ids carried on it."""

    segment: NetworkSegment
    per_link_bundles: dict[Link, Bundle]
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

    Each route is in the bundle of each of its links, so the total is
    G(N - 1), the number of parts over all compositions of N - 1 into
    parts of size 1..c.  With F(m) the number of those compositions (as in
    ``_composition_count``), G(m) = sum over the last part k of
    G(m - k) + F(m - k).  Only the last c pairs are kept: O(c * N) bits.
    """
    c = seg.density
    counts, parts = [0] * c, [0] * c  # F(d) and G(d) at index d % c
    counts[0] = 1
    count_total, part_total = 1, 0  # sums of the two rings
    for i in islice(cycle(range(c)), 1, seg.n_nodes):
        # i = d % c; the rings still hold F and G at d - c
        new_count, new_parts = count_total, part_total + count_total
        count_total += new_count - counts[i]
        part_total += new_parts - parts[i]
        counts[i], parts[i] = new_count, new_parts
    return parts[(seg.n_nodes - 1) % c]


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


def iter_routes(seg: NetworkSegment) -> Iterator[Route]:
    """Every route of ``seg``, one at a time, in lexicographic order by node
    sequence; there are ``cannacci_count`` of them, and no cap is checked.

    Depth-first with an explicit stack, so route length is not bounded by
    the recursion limit; stack[k] iterates the successors of prefix[k].
    """
    last, c = seg.n_nodes, seg.density
    prefix = [1]
    stack = [iter(range(2, min(1 + c, last) + 1))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            prefix.pop()
        elif nxt == last:
            yield (*prefix, nxt)
        else:
            prefix.append(nxt)
            stack.append(iter(range(nxt + 1, min(nxt + c, last) + 1)))


def enumerate_routes(seg: NetworkSegment, cap: int | None = None) -> RouteSet:
    """Materialize every route of ``iter_routes`` in a ``RouteSet``.

    Refuses with CapExceededError when the exact count exceeds ``cap``;
    see ``check_route_cap``.
    """
    count = cannacci_count(seg.n_nodes, seg.density)
    check_route_cap(count, cap)
    return RouteSet(segment=seg, routes=tuple(iter_routes(seg)), count=count)


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
    bundles: dict[Link, Bundle] = {}
    for a in range(1, n):
        prefixes = sorted(first[a])
        offset = 0
        for b in range(a + 1, min(a + c, n) + 1):
            starts = [start + offset for start in prefixes]
            bundles[Link(a, b)] = Bundle(array("q", starts), tail[b])
            first[b] += starts
            offset += tail[b]
    return RoutingScheme(segment=seg, per_link_bundles=bundles, route_count=counts[-1])

