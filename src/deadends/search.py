"""Exhaustive Cayley-ball indexing and depth measurement.

The ball oracle is the ground truth for every distance claim in this
package: it enumerates all elements within a given word-metric radius by
breadth-first (or, for weighted alphabets, uniform-cost) search, storing
exact distances.  Depth of an element g is the distance from g to the
complement of the closed ball of radius d(1,g); it is measured by a second
outward search from g and is never silently truncated: if the cap is hit,
the report carries a flagged lower bound instead.

One depth contract holds throughout: every element at distance d < radius
of the index gets its exact depth, and a cap may run past the ball.  A
depth search needs exact distances only up to d0 = d(1,g), so the index
need only reach radius R >= d0.  An element missing from the complete
closed ball of radius R lies farther than R >= d0, so the search treats
anything outside the table as farther.  It pops in (distance, element)
order and stops at the first farther element, so every element it expands
lies in B(d0), which the index holds; it keeps at most
(1 + #letters) * |B(d0)| nodes.

A dead end of the index is an element at distance d < radius with no
letter of the lightest weight w_min to a strictly farther indexed element
(unweighted: no neighbour at distance d + 1).  Every other element at
d < radius has depth exactly w_min, so only dead ends need a search.  The
breadth-first build takes all neighbours of an element in one
group.neighbours call and records the dead ends from them; any other
index computes them on first use.  A scan still tests every letter
lighter than min_depth on the dead ends it walks, so its exclusion stays
exact.

depth reads distances only through index.group, index.radius and
index.get(e, default), so it runs unchanged on either of two oracles: a
BallIndex, or heis.ClosedFormIndex, which computes Heisenberg distances
in closed form and stores nothing.
"""

from __future__ import annotations

import os
from functools import cached_property
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .core import DeadendError, MarkedGroup

DEFAULT_BUDGET = 5_000_000


class ResourceCap(DeadendError):
    """Element or memo budget exceeded."""


class CapExceeded(DeadendError):
    """Search exhausted its length or radius cap without an answer."""


class NotInBall(DeadendError):
    """Queried element lies outside the indexed radius."""


class InsufficientRadius(DeadendError):
    """Index radius too small to certify the requested quantity."""


class ClaimViolation(DeadendError):
    """An asserted distance or depth claim failed against the oracle."""


def default_budget() -> int:
    """Element budget; override with the DEADEND_BUDGET environment variable."""
    raw = os.environ.get("DEADEND_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise DeadendError("DEADEND_BUDGET must be an integer, got %r" % raw) from None
    if value <= 0:
        raise DeadendError("DEADEND_BUDGET must be positive, got %d" % value)
    return value


class BallIndex:
    """Exact distance table for the closed ball of the given radius.

    dead_ends maps each dead end, an element at distance d < radius with
    no letter of the lightest weight to a strictly farther indexed element
    (unweighted: no neighbour at d + 1), to d, in table order.  The
    unweighted ball() records it; any other index, weighted or
    hand-built, computes it from the table on first use.
    """

    def __init__(self, group: MarkedGroup, radius: int, table: dict, spheres: dict):
        self.group = group
        self.radius = radius
        self.table = table  # element -> distance, in BFS or (distance, element) order
        self.spheres = spheres  # distance -> element count

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, element) -> bool:
        return element in self.table

    def distance(self, element) -> int:
        return _distance(self, element)

    @property
    def get(self) -> Callable:
        """get(element, default): the distance, or default outside the ball.

        The table's own get, so a depth search pays no extra call per lookup.
        """
        return self.table.get

    def elements(self) -> Iterable:
        return iter(self.table)

    def items_sorted(self) -> list:
        """(element, distance) pairs ordered by (distance, element); deterministic."""
        return sorted(self.table.items(), key=lambda pair: (pair[1], pair[0]))

    def neighbors_in_ball(self, element):
        """(neighbor, letter weight) for neighbors that stayed inside the index."""
        g = self.group
        for n, (_lt, w) in zip(g.neighbours(element), g.weighted_letters):
            if n in self.table:
                yield n, w

    @cached_property
    def dead_ends(self) -> dict:
        climbs = _outward_step(self, _lightest_weight(self.group) + 1)
        return {e: d for e, d in self.table.items() if d < self.radius and not climbs(e, d)}

    def sphere_rows(self) -> list[tuple[int, int]]:
        return sorted(self.spheres.items())

    def to_json_obj(self, include_elements: bool = False) -> dict:
        obj = {
            "radius": self.radius,
            "size": len(self.table),
            "spheres": {str(d): c for d, c in self.sphere_rows()},
        }
        if include_elements:
            obj["elements"] = [
                {"element": self.group.render(e), "distance": d}
                for e, d in self.items_sorted()
            ]
        return obj


def ball(group: MarkedGroup, radius: int, budget: Optional[int] = None) -> BallIndex:
    """Index the closed ball of the given radius around the identity.

    Deterministic: unweighted alphabets use plain BFS in letter order;
    weighted ones use uniform-cost search with (distance, element)
    tie-breaks, so the table insertion order never depends on hash seeds
    or threads.

    The BFS makes one group.neighbours call per element it expands and one
    setdefault per edge.  It records the dead ends as it goes: an element
    climbs when one of its neighbours is new or already sits in the layer
    being built, which the setdefault tells, and an element that expands
    without climbing is a dead end.  That reuses the neighbours the build
    computes, with no extra step.  A weighted ball leaves its
    dead ends to BallIndex.dead_ends, which computes them on first use.
    """
    if radius < 0:
        raise DeadendError("radius must be nonnegative")
    if budget is None:
        budget = default_budget()
    ident = group.identity

    if not group.is_weighted:
        table = {ident: 0}
        spheres = {0: 1}
        nbrs = group.neighbours
        put = table.setdefault
        dead = {}
        frontier = [ident]
        dist = 0
        while frontier and dist < radius:
            dist += 1
            size = len(table)
            for e in frontier:
                climbs = False
                for n in nbrs(e):
                    # a new neighbour, or one already found in this layer
                    if put(n, dist) == dist:
                        climbs = True
                if not climbs:
                    dead[e] = dist - 1
                if len(table) > budget:
                    raise ResourceCap(
                        "ball(radius=%d) exceeds element budget %d" % (radius, budget))
            grown = len(table) - size
            if grown:
                spheres[dist] = grown
            if dist == radius:
                break  # the radius layer is never expanded
            # the layer just found is the tail of the table, in BFS order
            frontier = list(islice(reversed(table), grown))
            frontier.reverse()
        index = BallIndex(group, radius, table, spheres)
        index.dead_ends = dead
        return index

    table = {}
    spheres = {}
    for d, e in _uniform_cost(group, ident, radius):
        if len(table) >= budget:
            raise ResourceCap("ball(radius=%d) exceeds element budget %d" % (radius, budget))
        table[e] = d
        spheres[d] = spheres.get(d, 0) + 1
    return BallIndex(group, radius, table, spheres)


def _distance(index, element) -> int:
    d = index.get(element)
    if d is None:
        raise NotInBall("element %s not within radius %d" % (index.group.render(element), index.radius))
    return d


def _uniform_cost(group: MarkedGroup, start, cap):
    """Yield (distance, element) for everything within cap of start.

    Uniform-cost search settling each node once, in (distance, element)
    order, so the output never depends on hash seeds.
    """
    step = group.apply_letter
    letters = group.weighted_letters
    best = {start: 0}
    heap = [(0, start)]
    while heap:
        d, e = heappop(heap)
        if d > best[e]:
            continue
        yield d, e
        for lt, w in letters:
            nd = d + w
            if nd > cap:
                continue
            n = step(e, lt)
            if nd < best.get(n, nd + 1):
                best[n] = nd
                heappush(heap, (nd, n))


class DepthReport(NamedTuple):
    """Depth of one element.  When exceeds_cap is set, depth is a lower
    bound (the search found nothing farther within the cap) and witness
    is absent."""

    element: Any
    distance_from_identity: int
    depth: int
    witness: Any
    exceeds_cap: bool = False

    def to_json_obj(self, group: MarkedGroup) -> dict:
        return {
            "element": group.render(self.element),
            "distance_from_identity": self.distance_from_identity,
            "depth": self.depth,
            "witness": None if self.witness is None else group.render(self.witness),
            "exceeds_cap": self.exceeds_cap,
        }


def depth(index, element, cap: int) -> DepthReport:
    """Distance from element to the nearest strictly-farther element.

    index is an exact distance oracle: a BallIndex, or a
    heis.ClosedFormIndex, exact up to its radius by the Heisenberg closed
    form.  Distances are read through index.get, which gives the default
    past index.radius, so both share this loop.

    Needs only d0 = d(1,element) <= index.radius, and any cap >= 1.  The
    search is not confined to the oracle's reach: an element past it lies
    farther than index.radius >= d0, so it counts as farther.  Every
    element expanded before the first farther one is popped lies in B(d0),
    so the search holds at most (1 + #letters) * |B(d0)| nodes, and the
    report equals the one a ball of radius d0 + cap would give.
    """
    if cap < 1:
        raise DeadendError("cap must be >= 1")
    d0 = index.distance(element)
    get = index.get
    outside = index.radius + 1
    for d, witness in _uniform_cost(index.group, element, cap):
        if get(witness, outside) > d0:
            return DepthReport(element, d0, d, witness)
    return DepthReport(element, d0, cap + 1, None, exceeds_cap=True)


def certified_max_depth(index: BallIndex, bound: int) -> tuple[int, int]:
    """(largest depth, number of elements) over the elements at distance < radius.

    Every element at distance < radius gets its exact depth, and a cap may
    run past the ball (module docstring), so each search is capped at bound
    and a miss certifies depth > bound: it raises ClaimViolation naming the
    first violator in table order.

    Only the dead ends are searched (index.dead_ends: elements at distance
    < radius with no letter of weight w_min to a strictly farther indexed
    element, recorded by the unweighted BFS and computed on first use for
    any other index).  Any other element at distance < radius has a letter
    of weight w_min to an indexed, strictly farther element, and no letter
    is lighter, so its depth is exactly w_min: the spheres count it and no
    loop visits it.  With bound < w_min every element at distance < radius
    is deeper than the bound, so the first of them in table order is the
    violator, found with no search.
    """
    group = index.group
    radius = index.radius
    w_min = _lightest_weight(group)
    if bound < w_min:
        for e, d0 in index.table.items():
            if d0 < radius:
                raise ClaimViolation("element %s has depth > %d" % (group.render(e), bound))
        return 0, 0
    dead = index.dead_ends
    checked = sum(c for d, c in index.spheres.items() if d < radius)
    max_depth = w_min if checked > len(dead) else 0
    for e in dead:
        report = depth(index, e, bound)
        if report.exceeds_cap:
            raise ClaimViolation("element %s has depth > %d" % (group.render(e), bound))
        max_depth = max(max_depth, report.depth)
    return max_depth, checked


def _lightest_weight(group: MarkedGroup) -> int:
    """w_min, the weight of the lightest letter: no depth is smaller."""
    return min(w for _lt, w in group.weighted_letters)


def _outward_step(index: BallIndex, b: int):
    """Test (element, d) -> bool: does a letter of weight below b take
    element, at distance d, to a strictly farther indexed element?

    When it does, a depth search from element meets that neighbour at
    distance w < b, or stops at its cap below w, so the depth it reports
    is at most w and never reaches b.
    """
    group = index.group
    get = index.table.get
    step = group.apply_letter
    light = [lt for lt, w in group.weighted_letters if w < b]

    def climbs(element, d) -> bool:
        for lt in light:
            if get(step(element, lt), -1) > d:
                return True
        return False

    return climbs


def deadend_scan(index: BallIndex, min_depth: int, cap: Optional[int] = None) -> list[DepthReport]:
    """Every element at distance < radius of depth >= min_depth, ordered by
    (distance, element).

    Each depth is exact, and a cap may run past the ball (module
    docstring); reports flagged exceeds_cap carry depth lower bounds
    >= cap+1 > min_depth.

    An element with a strictly farther indexed neighbour across a letter of
    weight w < min_depth is skipped without a search: its depth is at most
    w.  With min_depth > w_min, the lightest letter weight, that skips every
    element but the dead ends (index.dead_ends: no letter of weight w_min
    leads farther; recorded by the unweighted BFS, computed on first use
    for any other index), so the scan walks the dead ends alone.  It
    still applies the same test to each, which keeps the exclusion exact
    when letters heavier than w_min are lighter than min_depth.  With
    min_depth <= w_min every element is at least that deep and the scan
    walks every element below the radius.
    """
    if min_depth < 1:
        raise DeadendError("min_depth must be >= 1")
    if cap is None:
        cap = min_depth
    if cap < min_depth:
        raise DeadendError("cap %d below min_depth %d" % (cap, min_depth))
    walk = index.dead_ends if min_depth > _lightest_weight(index.group) else index.table
    climbs = _outward_step(index, min_depth)
    out = []
    for e, d0 in walk.items():
        if d0 >= index.radius or climbs(e, d0):
            continue
        report = depth(index, e, cap)
        if report.depth >= min_depth:
            out.append(report)
    out.sort(key=lambda r: (r.distance_from_identity, r.element))
    return out
