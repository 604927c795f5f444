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

The transfer path (function_depth, local_max_from_slack,
depth_transfer_check) reads tables defined on the ball only, so it cannot
count an element past the ball as farther the way depth does.  It keeps a
room rule instead: a search from an element at distance d0 runs to a cap
of at most radius - d0, the room, and a larger cap raises
InsufficientRadius.  Within the room every element the search meets, and
every geodesic to it, lies in the ball, so the answer is exact.

depth reads distances only through index.group, index.radius and
index.get(e, default), so it runs unchanged on either of two oracles: a
BallIndex, or heis.ClosedFormIndex, which computes Heisenberg distances
in closed form and stores nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import islice
from typing import Any, Callable, Iterable, Optional

from .core import DeadendError, MarkedGroup

DEFAULT_BUDGET = 5_000_000


class ResourceCap(DeadendError):
    """Element budget exceeded while building a ball index."""


class NotInBall(DeadendError):
    """Queried element lies outside the indexed radius."""


class InsufficientRadius(DeadendError):
    """Index radius too small to certify the requested quantity."""


class HypothesisViolated(DeadendError):
    """A stated precondition fails on the supplied data."""


class BoundViolated(DeadendError):
    """Two tables differ by more than the promised bound."""


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
        raise ResourceCap("DEADEND_BUDGET must be an integer, got %r" % raw) from None
    if value <= 0:
        raise ResourceCap("DEADEND_BUDGET must be positive, got %d" % value)
    return value


@dataclass
class BallIndex:
    """Exact distance table for the closed ball of the given radius.

    dead_ends maps each dead end, an element at distance d < radius with
    no letter of the lightest weight to a strictly farther indexed element
    (unweighted: no neighbour at d + 1), to d, in table order.  The
    unweighted ball() records it; any other index, weighted or
    hand-built, computes it from the table on first use.
    """

    group: MarkedGroup
    radius: int
    table: dict  # element -> distance, in BFS or (distance, element) order
    spheres: dict  # distance -> element count

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
        climbs = _outward_step(self, self.table.__getitem__, _lightest_weight(self.group) + 1)
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


@dataclass(frozen=True)
class DepthReport:
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


def _outward_step(index: BallIndex, f: Callable[[Any], Any], b: int):
    """Test (element, v) -> bool: does a letter of weight below b take
    element to an indexed element whose f value exceeds v?

    When it does, with v = f(element), an outward search over the index
    meets that neighbour at distance w < b, or stops at its cap below w,
    so the f-depth it reports is at most w and never reaches b.
    """
    group = index.group
    table = index.table
    step = group.apply_letter
    light = [lt for lt, w in group.weighted_letters if w < b]

    def climbs(element, v) -> bool:
        for lt in light:
            n = step(element, lt)
            if n in table and f(n) > v:
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
    table = index.table
    walk = index.dead_ends if min_depth > _lightest_weight(index.group) else table
    climbs = _outward_step(index, table.__getitem__, min_depth)
    out = []
    for e, d0 in walk.items():
        if d0 >= index.radius or climbs(e, d0):
            continue
        report = depth(index, e, cap)
        if report.depth >= min_depth:
            out.append(report)
    out.sort(key=lambda r: (r.distance_from_identity, r.element))
    return out


def local_max_from_slack(index: BallIndex, f: dict, a, r: int, n: int):
    """From bounded slack to a local maximum.

    Given a table f (element -> int) with f <= f(a) + n throughout the closed
    r-ball around a, return (a', s) such that f attains a maximum over the
    closed s-ball around a' at a', with s as large as the monotone-envelope
    construction certifies (at most r // n).

    The envelope g(x) = max f over the x-ball around a is nondecreasing
    with total rise <= n inside radius r, so some window of width r // n
    is usually flat.  The window hunt extends past r (up to r + r // n)
    whenever the index has the room, which lets a maximum sitting exactly
    on the boundary sphere certify its full window; with n rises packed
    into n windows the flat window can still come up one short, in which
    case the certified smaller s is returned rather than an unsound r // n.
    """
    d0 = index.distance(a)
    if index.radius < d0 + r:
        raise InsufficientRadius("need radius >= %d for slack window r=%d" % (d0 + r, r))
    width = r // max(n, 1)
    probe = min(r + width, index.radius - d0)
    layers = {e: d for d, e in _uniform_cost(index.group, a, probe)}
    fa = f[a]
    worst = max(f[e] - fa for e, d in layers.items() if d <= r)
    if worst > n:
        raise HypothesisViolated(
            "f exceeds f(a)+%d within radius %d (max slack %d)" % (n, r, worst))
    if worst <= 0:
        return a, r  # a already dominates the whole r-ball
    # envelope over integer radii 0..probe
    g = [fa] * (probe + 1)
    for e, d in layers.items():
        if f[e] > g[d]:
            g[d] = f[e]
    for x in range(1, probe + 1):
        if g[x] < g[x - 1]:
            g[x] = g[x - 1]
    for s in range(width, -1, -1):
        for x in range(0, min(r, probe - s) + 1):
            if g[x] == g[x + s]:
                best = min(e for e, d in layers.items() if d <= x and f[e] == g[x])
                return best, s
    raise DeadendError("unreachable: zero-width window always exists")


@dataclass(frozen=True)
class TransferRow:
    source: Any
    source_depth: int
    source_exceeds_cap: bool
    fuzz_radius: int
    slack: int
    target: Any
    target_depth_lb: int


@dataclass
class TransferReport:
    bound: int
    rows: list
    sources_scanned: int


def function_depth(index: BallIndex, f: dict, element, cap: int):
    """Depth of element with respect to an arbitrary distance-like table f:
    word-metric distance to the nearest element with a strictly larger f
    value.  Returns (depth, exceeded) where exceeded means nothing larger
    was found within cap (depth is then the lower bound cap+1).

    f is defined on the ball only, so unlike depth the search cannot run
    past it: the cap must fit in the room, index.radius - d(element), and
    a larger cap raises InsufficientRadius (module docstring).
    """
    if cap < 1:
        raise DeadendError("cap must be >= 1")
    d0 = index.distance(element)
    if cap > index.radius - d0:
        raise InsufficientRadius("need radius >= %d for function depth cap %d" % (d0 + cap, cap))
    f0 = f[element]
    for d, e in _uniform_cost(index.group, element, cap):
        if f[e] > f0:
            return d, False
    return cap + 1, True


def depth_transfer_check(index: BallIndex, d1: dict, d2: dict, C: int,
                         min_source_depth: Optional[int] = None) -> TransferReport:
    """Transfer deep local maxima of d1 to certified local maxima of d2.

    Requires |d1 - d2| < C pointwise.  Every element whose d1-depth D is at
    least max(C+1, min_source_depth) yields a d2 local maximum via the slack
    construction on the (D - C)-ball; the report row records the certified
    d2-depth lower bound.  Every search keeps within the room of its source
    (module docstring): D is found with cap radius - d0, and D - C <= that
    cap since D <= cap + 1 and C >= 1.
    """
    if C < 1:
        raise DeadendError("C must be >= 1")
    for e in index.table:
        if abs(d1[e] - d2[e]) >= C:
            raise BoundViolated("|d1 - d2| >= %d at %s" % (C, index.group.render(e)))
    threshold = max(C + 1, min_source_depth or 0)
    climbs = _outward_step(index, d1.__getitem__, threshold)
    rows = []
    scanned = 0
    for e, d0 in index.table.items():
        cap = index.radius - d0
        if cap < 1:
            continue
        if climbs(e, d1[e]):
            continue
        scanned += 1
        D, exceeded = function_depth(index, d1, e, cap)
        if D < threshold:
            continue
        r = D - C
        if r < 1:
            continue
        slack = max(d2[x] - d2[e] for _d, x in _uniform_cost(index.group, e, r))
        if slack <= 0:
            target, s = e, r
        else:
            target, s = local_max_from_slack(index, d2, e, r, slack)
        rows.append((d0, e, TransferRow(e, D, exceeded, r, max(slack, 0), target, s + 1)))
    rows.sort(key=lambda row: row[:2])
    return TransferReport(C, [row for _d0, _e, row in rows], scanned)
