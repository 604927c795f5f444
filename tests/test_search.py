"""Ball oracle, depth, dead-end scan, and the metric-perturbation lemmas."""

import itertools
import random
import re

import pytest

from deadends import search
from deadends.abelian import WeightedGenSet, WeightedZnGroup, standard_zn
from deadends.core import DeadendError
from deadends.geolang import FreeGroup
from deadends.heis import HeisenbergGroup, heis_inverse, heis_mul, word_length
from deadends.search import (
    BallIndex,
    BoundViolated,
    ClaimViolation,
    HypothesisViolated,
    InsufficientRadius,
    NotInBall,
    ResourceCap,
    SplitIndex,
    TransferRow,
    ball,
    certified_max_depth,
    deadend_scan,
    depth,
    depth_transfer_check,
    function_depth,
    local_max_from_slack,
)
from deadends.sol import HypMatrix, SolGroup, WreathZ2Z


# weights {1, 3}; every depth-2 dead end has a farther weight-3 neighbour
WEIGHTED_13 = WeightedGenSet(2, (((1, 0), 1), ((0, 1), 3), ((3, 1), 3)))


# the rank-3 set the bounded-depth benchmark draws its weighted lattices from
RANK3_GENS = (((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 2), ((1, 1, 1), 3))


def _relaxation_ball(gens, r):
    """point -> weighted distance <= r by Bellman-Ford over the box [-r, r]^n.

    Every generator moves each coordinate by at most its weight, so every
    path of weight <= r stays in the box."""
    n = len(gens[0][0])
    box = [tuple(p) for p in itertools.product(range(-r, r + 1), repeat=n)]
    origin = (0,) * n
    dist = {p: (0 if p == origin else r + 1) for p in box}
    changed = True
    while changed:
        changed = False
        for p in box:
            for v, w in gens:
                for s in (1, -1):
                    q = tuple(a + s * b for a, b in zip(p, v))
                    if q in dist and dist[p] + w < dist[q]:
                        dist[q] = dist[p] + w
                        changed = True
    return {p: d for p, d in dist.items() if d <= r}


def _reference_ball(group, radius):
    """element -> distance by a plain layer-by-layer BFS in letter order."""
    table = {group.identity: 0}
    layer = [group.identity]
    for dist in range(1, radius + 1):
        grown = []
        for e in layer:
            for i in range(group.alphabet.size):
                for sign in (1, -1):
                    n = group.apply_letter(e, (i, sign))
                    if n not in table:
                        table[n] = dist
                        grown.append(n)
        layer = grown
    return table


def _record_searches(monkeypatch):
    """Elements the search module hands to search.depth, in call order."""
    calls = []
    real = search.depth
    monkeypatch.setattr(search, "depth",
                        lambda g, e, idx, cap: calls.append(e) or real(g, e, idx, cap))
    return calls


def _doctored_z2():
    """Z^2 at radius 5 with (1,0) recorded at distance 2, in distance order.

    (1,0) then has no farther neighbour, and the nearest farther element,
    (3,0), is two steps away, so a bound of 1 convicts it."""
    g = standard_zn(2)
    moved = {e: 2 if e == (1, 0) else d for e, d in ball(g, 5).table.items()}
    table = dict(sorted(moved.items(), key=lambda pair: pair[1]))
    spheres = {}
    for d in table.values():
        spheres[d] = spheres.get(d, 0) + 1
    return BallIndex(g, 5, table, spheres)


def _exact_depths(idx, cap):
    """depth() with the given cap on every element at distance < radius, in
    table order: the one depth contract, with no shortcut."""
    return [depth(idx.group, e, idx, cap) for e, d in idx.table.items() if d < idx.radius]


def _rebuilt(group, radius):
    """A hand-built index over the ball's table: dead ends on first use."""
    idx = ball(group, radius)
    return BallIndex(group, radius, dict(idx.table), dict(idx.spheres))


class TestBall:
    @pytest.mark.parametrize("group, radius", [(HeisenbergGroup(), 12), (FreeGroup(2), 6),
                                               (WreathZ2Z(), 6), (standard_zn(3), 6)],
                             ids=["heis", "f2", "wreath", "zn3"])
    def test_table_matches_reference_bfs(self, group, radius):
        idx = ball(group, radius)
        ref = _reference_ball(group, radius)
        assert idx.table == ref
        assert list(idx.table) == list(ref)

    @pytest.mark.parametrize("group, radius", [(HeisenbergGroup(), 6),
                                               (WeightedZnGroup(WEIGHTED_13), 8)],
                             ids=["bfs", "uniform_cost"])
    def test_budget_boundary(self, group, radius):
        size = len(ball(group, radius))
        assert len(ball(group, radius, budget=size)) == size
        with pytest.raises(ResourceCap):
            ball(group, radius, budget=size - 1)

    def test_letter_weights_read_once_per_group(self, monkeypatch):
        g = WeightedZnGroup(WEIGHTED_13)
        calls = []
        weight = g.letter_weight
        monkeypatch.setattr(g, "letter_weight", lambda lt: calls.append(lt) or weight(lt))
        idx = ball(g, 8)
        deadend_scan(g, idx, 2)
        certified_max_depth(idx, 3)
        assert len(calls) == len(g.alphabet.signed_letters())

    def test_z2_radius_2_has_13_elements(self):
        assert len(ball(standard_zn(2), 2)) == 13

    def test_radius_0_is_identity_only(self):
        g = HeisenbergGroup()
        idx = ball(g, 0)
        assert len(idx) == 1 and idx.distance(g.identity) == 0

    def test_heis_deep_element_at_10(self, heis_ball22):
        assert heis_ball22.distance((0, 0, 5)) == 10

    def test_budget_exceeded(self):
        with pytest.raises(ResourceCap):
            ball(HeisenbergGroup(), 10, budget=100)

    def test_weighted_matches_relaxation(self):
        # (0,1) is first reached at 5 and later improved to 3 via (-1,0),
        # (1,1), so the search meets stale heap entries.
        gens = (((1, 0), 1), ((0, 1), 5), ((1, 1), 2))
        idx = ball(WeightedZnGroup(WeightedGenSet(2, gens)), 8)
        assert idx.table == _relaxation_ball(gens, 8)
        assert sum(idx.spheres.values()) == len(idx)

    def test_rank3_matches_relaxation(self):
        g = WeightedZnGroup(WeightedGenSet(3, RANK3_GENS))
        idx = ball(g, 6)
        assert idx.table == _relaxation_ball(RANK3_GENS, 6)
        assert list(idx.table) == sorted(idx.table, key=lambda e: (idx.table[e], e))

    def test_heis_bad_letter_raises(self):
        with pytest.raises(DeadendError):
            HeisenbergGroup().apply_letter((0, 0, 0), (2, 1))

    def test_sphere_counts_sum_to_size(self, heis_ball22):
        assert sum(c for _d, c in heis_ball22.sphere_rows()) == len(heis_ball22)

    @pytest.mark.parametrize("group, radius, count", [
        (HeisenbergGroup(), 14, 18), (SolGroup(HypMatrix([[2, 1], [1, 1]])), 9, 0),
        (WreathZ2Z(), 6, 0), (FreeGroup(2), 6, 0), (HeisenbergGroup(), 0, 0),
        (HeisenbergGroup(), 1, 0)], ids=["heis", "sol", "wreath", "f2", "r0", "r1"])
    def test_recorded_dead_ends_match_references(self, group, radius, count):
        idx = ball(group, radius)
        on_first_use = BallIndex(group, radius, idx.table, idx.spheres).dead_ends
        brute = {e: d for e, d in idx.table.items() if d < radius
                 and all(idx.distance(n) != d + 1 for n, _w in idx.neighbors_in_ball(e))}
        assert len(brute) == count
        assert list(idx.dead_ends.items()) == list(on_first_use.items()) == list(brute.items())

    def test_consistency_every_element_has_inward_neighbor(self):
        for g in (HeisenbergGroup(), standard_zn(2)):
            idx = ball(g, 6)
            for e, d in idx.items_sorted():
                if d == 0:
                    continue
                nbrs = [idx.distance(n) for n, _w in idx.neighbors_in_ball(e)]
                assert min(nbrs) == d - 1


class TestDistance:
    def test_identity(self, heis_ball22, heis_group):
        assert heis_ball22.distance(heis_group.identity) == 0

    def test_heis_ba(self, heis_ball22, heis_group):
        assert heis_ball22.distance((1, 1, -1)) == 2

    def test_z2_l1(self):
        g = standard_zn(2)
        assert ball(g, 8).distance((3, 4)) == 7

    def test_not_in_ball(self, heis_ball22):
        with pytest.raises(NotInBall):
            heis_ball22.distance((50, 0, 0))

    def test_symmetry_under_inversion(self):
        g = HeisenbergGroup()
        idx = ball(g, 8)
        for e, d in idx.items_sorted():
            assert idx.distance(heis_inverse(e)) == d


class TestDepth:
    def test_z2_generator_depth_1(self):
        g = standard_zn(2)
        idx = ball(g, 6)
        assert depth(g, (1, 0), idx, cap=3).depth == 1

    def test_heis_family_member(self, heis_group, heis_ball22):
        rep = depth(heis_group, (0, 0, 10), heis_ball22, cap=8)
        assert rep.distance_from_identity == 14
        assert rep.depth == 7 and not rep.exceeds_cap
        assert heis_ball22.distance(rep.witness) > 14

    def test_line_has_no_dead_ends(self):
        g = standard_zn(1)
        idx = ball(g, 6)
        for e, d in idx.items_sorted():
            if d + 1 > idx.radius:
                continue
            assert depth(g, e, idx, cap=1).depth == 1

    # depth on B(R) must equal depth on a ball that reaches d0 + cap for
    # every element and cap <= 4
    @pytest.mark.parametrize("make, r", [
        (HeisenbergGroup, 12),
        (lambda: FreeGroup(2), 7),
        (lambda: standard_zn(2), 8),
        (lambda: WeightedZnGroup(WeightedGenSet(3, RANK3_GENS)), 9),
        (lambda: SolGroup(HypMatrix([[2, 1], [1, 1]])), 8),
    ], ids=["heis", "free2", "z2", "rank3", "sol"])
    def test_ball_to_own_distance_suffices(self, make, r):
        g = make()
        small = ball(g, r)
        big = ball(g, r + 4)
        left_table = 0
        for e in small.elements():
            for cap in range(1, 5):
                rep = depth(g, e, small, cap)
                assert rep == depth(g, e, big, cap), (e, cap)
                left_table += rep.witness is not None and rep.witness not in small
        assert left_table > 0  # witnesses past the small table were found

    def test_cap_past_the_table(self, heis_group, heis_ball22):
        # d0 = 14, so cap 9 reaches radius 23, past the radius-22 table
        rep = depth(heis_group, (0, 0, 10), heis_ball22, cap=9)
        assert rep.depth == 7 and not rep.exceeds_cap
        assert rep == depth(heis_group, (0, 0, 10), ball(heis_group, 23), cap=9)

    def test_cap_must_be_positive(self, heis_group, heis_ball22):
        with pytest.raises(DeadendError):
            depth(heis_group, (1, 0, 0), heis_ball22, cap=0)

    def test_exceeds_cap_flagged(self, heis_group, heis_ball22):
        rep = depth(heis_group, (0, 0, 5), heis_ball22, cap=3)
        assert rep.exceeds_cap and rep.depth == 4 and rep.witness is None


class TestSplitIndex:
    # on all of B(R + 2) the split over B(R - r1) and S(r1) must give the
    # full-ball distance, and None past R
    @pytest.mark.parametrize("make, R, r1", [
        (HeisenbergGroup, 14, 1),
        (HeisenbergGroup, 14, 2),
        (HeisenbergGroup, 14, 4),
        (lambda: FreeGroup(2), 6, 1),
        (lambda: FreeGroup(2), 6, 2),
        (lambda: FreeGroup(2), 6, 3),
        (WreathZ2Z, 5, 1),
        (WreathZ2Z, 5, 2),
        (lambda: SolGroup(HypMatrix([[2, 1], [1, 1]])), 8, 1),
        (lambda: SolGroup(HypMatrix([[2, 1], [1, 1]])), 8, 2),
    ], ids=["heis-1", "heis-2", "heis-4", "free2-1", "free2-2", "free2-3",
            "wreath-1", "wreath-2", "sol-1", "sol-2"])
    def test_exact_up_to_its_radius(self, make, R, r1):
        g = make()
        full = ball(g, R + 2)
        split = SplitIndex(ball(g, R - r1), r1)
        assert split.radius == R
        for e, d in full.table.items():
            assert split.get(e) == (d if d <= R else None), g.render(e)
        with pytest.raises(NotInBall, match="within radius %d" % R):
            split.distance(next(e for e, d in full.table.items() if d > R))

    def test_depth_through_the_split_equals_the_ball(self, heis_group):
        full = ball(heis_group, 14)
        split = SplitIndex(ball(heis_group, 10), 4)
        sphere = [e for e, d in full.table.items() if d == 12]
        assert sphere
        for e in sphere:
            assert depth(heis_group, e, split, 2) == depth(heis_group, e, full, 2)

    def test_r1_zero_is_the_plain_ball(self, heis_group):
        index = ball(heis_group, 6)
        split = SplitIndex(index, 0)
        assert split.radius == 6
        assert all(split.get(e) == index.get(e)
                   for e in ball(heis_group, 8).elements())

    def test_refuses_a_weighted_group(self):
        with pytest.raises(HypothesisViolated, match="unit letter weights"):
            SplitIndex(ball(WeightedZnGroup(WEIGHTED_13), 6), 1)

    def test_refuses_r1_past_the_ball(self, heis_group):
        with pytest.raises(HypothesisViolated, match="r1=5"):
            SplitIndex(ball(heis_group, 4), 5)

    def test_sphere_words_count_against_the_budget(self, heis_group, monkeypatch):
        index = ball(heis_group, 6)  # S(4) has 82 elements
        monkeypatch.setenv("DEADEND_BUDGET", str(len(index) + 81))
        with pytest.raises(ResourceCap, match="exceeds element budget"):
            SplitIndex(index, 4)
        monkeypatch.setenv("DEADEND_BUDGET", str(len(index) + 82))
        assert SplitIndex(index, 4).radius == 10


class TestDeadendScan:
    def test_z2_empty(self):
        g = standard_zn(2)
        assert deadend_scan(g, ball(g, 8), 2) == []

    def test_heis_r12_contains_g2(self):
        g = HeisenbergGroup()
        idx = ball(g, 12)
        hits = deadend_scan(g, idx, 2)
        assert (0, 0, 5) in [r.element for r in hits]
        assert len(hits) == 12

    def test_free_group_empty(self):
        g = FreeGroup(2)
        assert deadend_scan(g, ball(g, 6), 2) == []

    def test_deterministic_order(self):
        g = HeisenbergGroup()
        idx = ball(g, 10)
        a = deadend_scan(g, idx, 2)
        b = deadend_scan(g, idx, 2)
        assert a == b
        dists = [r.distance_from_identity for r in a]
        assert dists == sorted(dists)

    def test_cap_below_min_depth_rejected(self, heis_group, heis_ball22):
        with pytest.raises(DeadendError):
            deadend_scan(heis_group, heis_ball22, 3, cap=2)

    @staticmethod
    def _brute_force(g, idx, min_depth, cap=None):
        """_exact_depths, filtered and in (distance, element) order."""
        reports = _exact_depths(idx, min_depth if cap is None else cap)
        return sorted((r for r in reports if r.depth >= min_depth),
                      key=lambda r: (r.distance_from_identity, r.element))

    @pytest.mark.parametrize("cap", [None, 3])
    def test_heis_matches_brute_force(self, cap):
        g = HeisenbergGroup()
        idx = ball(g, 12)
        expected = self._brute_force(g, idx, 2, cap)
        assert expected
        if cap is not None:
            assert any(r.exceeds_cap for r in expected)
        assert deadend_scan(g, idx, 2, cap=cap) == expected

    def test_weighted_matches_brute_force(self):
        # Every hit here has a strictly farther neighbour, across a weight-3
        # letter only: that bounds its depth by 3, so it must not exclude.
        g = WeightedZnGroup(WEIGHTED_13)
        idx = ball(g, 10)
        # the uniform-cost branch of ball settles in (distance, element) order
        assert list(idx.table) == sorted(idx.table, key=lambda e: (idx.table[e], e))
        expected = self._brute_force(g, idx, 2)
        assert len(expected) == 12
        for r in expected:
            assert any(idx.distance(nb) > r.distance_from_identity and w == 3
                       for nb, w in idx.neighbors_in_ball(r.element))
        assert deadend_scan(g, idx, 2) == expected

    def test_free_group_matches_brute_force(self):
        g = FreeGroup(2)
        idx = ball(g, 6)
        expected = self._brute_force(g, idx, 1)
        assert expected
        assert deadend_scan(g, idx, 1) == expected

    @pytest.mark.parametrize("min_depth, hits", [(2, 81), (4, 0)])
    def test_lightest_weight_two_matches_brute_force(self, monkeypatch, min_depth, hits):
        # Letters weigh {2, 3}.  At min_depth 2 = w_min every element below
        # the radius is reported and searched, dead end or not.  At min_depth
        # 4 the 12 dead ends at d <= 8 climb across a weight-3 letter, which
        # excludes them without a search; the other 20, at d = 11, step past
        # the ball on it, so they are searched and come out shallower.
        g = WeightedZnGroup(WeightedGenSet(2, (((1, 0), 2), ((0, 1), 3), ((3, 1), 3))))
        idx = ball(g, 12)
        inside = [e for e, d in idx.table.items() if d < idx.radius]
        expected = self._brute_force(g, idx, min_depth)
        calls = _record_searches(monkeypatch)
        assert deadend_scan(g, idx, min_depth) == expected
        assert len(expected) == hits
        if min_depth == 2:
            assert calls == inside and len(inside) == hits
        else:
            searched = [e for e, d in idx.dead_ends.items() if d == 11]
            assert len(idx.dead_ends) == 32 and len(searched) == 20 and calls == searched

    def test_rows_past_the_room_equal_depth_on_a_larger_ball(self, heis_group):
        # B(12) at cap 3: the four dead ends at d = 10 have no room for the
        # cap inside the ball; each row equals depth on B(15) all the same.
        idx = ball(heis_group, 12)
        rows = deadend_scan(heis_group, idx, 2, cap=3)
        assert len([r for r in rows if r.distance_from_identity + 3 > idx.radius]) == 4
        bigger = ball(heis_group, 15)
        assert rows == [depth(heis_group, r.element, bigger, 3) for r in rows]

    @pytest.mark.parametrize("make, min_depth, cap", [
        (lambda: ball(HeisenbergGroup(), 12), 2, 2),
        (lambda: ball(HeisenbergGroup(), 12), 2, 3),
        (lambda: ball(WeightedZnGroup(WEIGHTED_13), 10), 2, 4),
        (lambda: ball(FreeGroup(2), 6), 1, 2),
        (lambda: ball(SolGroup(HypMatrix([[2, 1], [1, 1]])), 9), 2, 3),
    ], ids=["heis12_cap2", "heis12_cap3", "w13", "f2", "sol9"])
    def test_rows_with_room_are_unchanged(self, make, min_depth, cap):
        # The rows a scan restricted to d + cap <= radius reports come back
        # rendered identically, and in the same order.
        idx = make()
        g = idx.group
        with_room = [depth(g, e, idx, cap) for e, d in idx.items_sorted()
                     if d + cap <= idx.radius]
        expected = [r.to_json_obj(g) for r in with_room if r.depth >= min_depth]
        rows = deadend_scan(g, idx, min_depth, cap=cap)
        assert [r.to_json_obj(g) for r in rows
                if r.distance_from_identity + cap <= idx.radius] == expected

    def test_searches_only_the_dead_ends(self, monkeypatch):
        g = HeisenbergGroup()
        idx = ball(g, 12)
        calls = _record_searches(monkeypatch)
        reports = deadend_scan(g, idx, 2)
        assert calls == list(idx.dead_ends) and len(calls) == 12
        rebuilt = BallIndex(g, idx.radius, idx.table, idx.spheres)
        assert deadend_scan(g, rebuilt, 2) == reports


class TestCertifiedMaxDepth:
    @staticmethod
    def _walk_every_element(idx, bound):
        """The certification as _exact_depths at cap max(bound, 1): the
        largest depth and the count, or the message naming the first
        element in table order that is deeper than the bound."""
        max_depth = checked = 0
        for report in _exact_depths(idx, max(bound, 1)):
            if report.depth > bound:
                return "element %s has depth > %d" % (idx.group.render(report.element), bound)
            checked += 1
            max_depth = max(max_depth, report.depth)
        return max_depth, checked

    @classmethod
    def _assert_matches_the_walk(cls, idx, bound):
        """certified_max_depth agrees with the walk, violator included;
        returns the walk's outcome, ClaimViolation for a violation."""
        expected = cls._walk_every_element(idx, bound)
        if isinstance(expected, str):
            with pytest.raises(ClaimViolation, match="^%s$" % re.escape(expected)):
                certified_max_depth(idx, bound)
            return ClaimViolation
        assert certified_max_depth(idx, bound) == expected
        return expected

    def test_heis_matches_brute_force(self):
        # B(8) at bound 3: the two elements at d = 7 that the room rule
        # left out are now certified too.
        idx = ball(HeisenbergGroup(), 8)
        assert self._assert_matches_the_walk(idx, 3) == (3, 1069)

    def test_heis_cap_past_the_ball_convicts(self):
        # (0,0,1) sits at d = 4 in B(5) with depth 3 (B(5) alone tells it:
        # the search stops at a farther element past the ball).
        idx = ball(HeisenbergGroup(), 5)
        assert depth(idx.group, (0, 0, 1), idx, 3).depth == 3
        with pytest.raises(ClaimViolation, match=r"^element \(0,0,1\) has depth > 2$"):
            certified_max_depth(idx, 2)

    def test_heis_deepest_below_the_radius_is_certified(self):
        # B(12) at bound 5: the room rule reported (3, 6275); every element
        # at d < 12 is certified and the deepest has depth 5.
        assert certified_max_depth(ball(HeisenbergGroup(), 12), 5) == (5, 6281)

    @pytest.mark.parametrize("bound, outcome",
                             [(2, ClaimViolation), (3, (3, 85)), (6, (3, 85))])
    def test_weighted_matches_brute_force(self, bound, outcome):
        g = WeightedZnGroup(WEIGHTED_13)
        assert self._assert_matches_the_walk(ball(g, 10), bound) == outcome

    def test_free_group_matches_brute_force(self):
        idx = ball(FreeGroup(2), 6)
        assert self._assert_matches_the_walk(idx, 2) == (1, 1 + 4 + 12 + 36 + 108 + 324)

    def test_miss_with_room_equal_to_bound_convicts(self):
        # (0,0,+-1) sit at distance 4 with depth 3, one step below the
        # radius; a miss at cap 1 = bound certifies depth > 1.
        idx = ball(HeisenbergGroup(), 5)
        with pytest.raises(ClaimViolation, match=r"\(0,0,-?1\) has depth > 1"):
            certified_max_depth(idx, 1)

    def test_free_group_runs_no_search(self, monkeypatch):
        idx = ball(FreeGroup(2), 6)
        calls = _record_searches(monkeypatch)
        assert certified_max_depth(idx, 2) == (1, 485)
        assert calls == []

    @pytest.mark.parametrize("perm, signs", [((0, 1, 2), (1, 1, 1)), ((2, 0, 1), (-1, 1, 1)),
                                             ((1, 2, 0), (1, -1, -1)), ((0, 2, 1), (-1, -1, 1))],
                             ids=["plain", "perm1", "perm2", "perm3"])
    def test_rank3_matches_brute_force_without_search(self, monkeypatch, perm, signs):
        gens = tuple((tuple(s * v[p] for p, s in zip(perm, signs)), w) for v, w in RANK3_GENS)
        g = WeightedZnGroup(WeightedGenSet(3, gens))
        idx = ball(g, 8)
        bound = 43  # what abelian.depth_bound derives for this set
        expected = self._walk_every_element(idx, bound)
        calls = _record_searches(monkeypatch)
        assert certified_max_depth(idx, bound) == expected == (1, 173)
        assert calls == []

    @pytest.mark.parametrize("bound", [1, 2, 3, 4])
    def test_heis_bounds_match_brute_force(self, bound):
        self._assert_matches_the_walk(ball(HeisenbergGroup(), 8), bound)

    @pytest.mark.parametrize("bound", [3, 5])
    def test_heavy_climbing_letter_settles_nothing(self, bound):
        # Z marked by 1 (weight 1) and 7 (weight 4): the depth-4 elements
        # climb only across the weight-4 letter, so they must be searched.
        g = WeightedZnGroup(WeightedGenSet(1, (((1,), 1), ((7,), 4))))
        self._assert_matches_the_walk(ball(g, 10), bound)

    def test_searches_exactly_the_unsettled_elements(self, monkeypatch):
        # {1,3} at r=10: an element is searched iff it lies below the
        # radius and no weight-1 letter leads farther; a farther neighbour
        # across a weight-3 letter settles nothing.
        g = WeightedZnGroup(WEIGHTED_13)
        idx = ball(g, 10)
        table = idx.table
        light = [lt for lt, w in g.weighted_letters if w == 1]
        unsettled = [e for e, d in table.items() if d < idx.radius
                     and not any(table.get(g.apply_letter(e, lt), -1) > d for lt in light)]
        calls = _record_searches(monkeypatch)
        assert certified_max_depth(idx, 3) == (3, 85)
        assert unsettled and calls == unsettled

    @pytest.mark.parametrize("bound", [-1, 0, 1])
    def test_bound_below_lightest_letter_runs_no_search(self, monkeypatch, bound):
        # With every letter weighing >= 2, every element below the radius is
        # deeper than a bound below 2, so the first in table order convicts.
        g = WeightedZnGroup(WeightedGenSet(2, (((1, 0), 2), ((0, 1), 3), ((1, 1), 4))))
        idx = ball(g, 7)
        expected = self._walk_every_element(idx, bound)
        assert expected == "element (0,0) has depth > %d" % bound
        calls = _record_searches(monkeypatch)
        with pytest.raises(ClaimViolation, match="^%s$" % re.escape(expected)):
            certified_max_depth(idx, bound)
        assert calls == []

    def test_radius_zero_certifies_nothing(self):
        idx = ball(HeisenbergGroup(), 0)
        for bound in (0, 1, 3):
            assert certified_max_depth(idx, bound) == (0, 0)

    @pytest.mark.parametrize("make, bounds", [
        (lambda: ball(HeisenbergGroup(), 12), (1, 2, 3, 4, 6)),
        (lambda: ball(FreeGroup(2), 6), (1, 2, 5)),
        (lambda: ball(WeightedZnGroup(WeightedGenSet(
            2, (((1, 0), 2), ((0, 1), 3), ((1, 1), 3)))), 12), (1, 2, 3, 4, 7)),
        (lambda: _rebuilt(HeisenbergGroup(), 5), (1, 2, 3)),
        (_doctored_z2, (1, 2, 3)),
    ], ids=["heis12", "f2_6", "w233", "heis5_rebuilt", "z2_doctored"])
    def test_matches_the_walk_over_every_element(self, make, bounds):
        idx = make()
        outcomes = [self._assert_matches_the_walk(idx, bound) for bound in bounds]
        assert any(isinstance(o, tuple) for o in outcomes)

    def test_doctored_index_names_its_violator(self):
        idx = _doctored_z2()
        with pytest.raises(ClaimViolation, match=r"^element \(1,0\) has depth > 1$"):
            certified_max_depth(idx, 1)
        assert certified_max_depth(idx, 2)[0] == 2

    def test_weighted_violation_names_first_in_table_order(self):
        g = WeightedZnGroup(WEIGHTED_13)
        assert self._assert_matches_the_walk(ball(g, 10), 2) is ClaimViolation


def _dominates(index, f, center, radius):
    """f attains its max over the radius-ball at the center, per the index."""
    seen = {center}
    frontier = [center]
    fc = f[center]
    for _step in range(radius):
        nxt = []
        for e in frontier:
            for nb, w in index.neighbors_in_ball(e):
                if nb not in seen:
                    seen.add(nb)
                    if f[nb] > fc:
                        return False
                    nxt.append(nb)
        frontier = nxt
    return True


class TestLocalMaxFromSlack:
    def test_constant_function(self):
        g = standard_zn(2)
        idx = ball(g, 8)
        f = {e: 7 for e, _d in idx.items_sorted()}
        a_out, s = local_max_from_slack(idx, f, (0, 0), 4, 2)
        assert a_out == (0, 0) and s >= 4 // 2

    def test_heis_dead_end_dominates(self, heis_group, heis_ball22):
        f = {e: d for e, d in heis_ball22.items_sorted()}
        a_out, s = local_max_from_slack(heis_ball22, f, (0, 0, 5), 4, 2)
        assert s >= 2
        assert _dominates(heis_ball22, f, a_out, s)

    def test_unique_boundary_max_is_found(self):
        g = standard_zn(1)
        idx = ball(g, 9)
        r = 3
        f = {e: 0 for e, _d in idx.items_sorted()}
        f[(r,)] = 1
        a_out, s = local_max_from_slack(idx, f, (0,), r, 1)
        assert a_out == (r,) and s == r
        assert _dominates(idx, f, a_out, s)

    def test_hypothesis_violated(self):
        g = standard_zn(1)
        idx = ball(g, 6)
        f = {e: abs(e[0]) * 5 for e, _d in idx.items_sorted()}
        with pytest.raises(HypothesisViolated):
            local_max_from_slack(idx, f, (0,), 3, 1)

    def test_insufficient_radius(self):
        g = standard_zn(1)
        idx = ball(g, 4)
        f = {e: 0 for e, _d in idx.items_sorted()}
        with pytest.raises(InsufficientRadius):
            local_max_from_slack(idx, f, (3,), 3, 1)

    def test_source_outside_the_ball_raises_not_in_ball(self):
        g = standard_zn(1)
        idx = ball(g, 4)
        f = {e: 0 for e in idx.table}
        with pytest.raises(NotInBall, match=r"\(9\)"):
            local_max_from_slack(idx, f, (9,), 1, 1)


class TestDepthTransfer:
    def test_identical_tables_map_dead_ends_to_themselves(self):
        g = HeisenbergGroup()
        idx = ball(g, 12)
        d = {e: dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        assert report.rows
        for row in report.rows:
            assert row.target == row.source
            assert row.target_depth_lb >= row.source_depth - 1
            dep, exceeded = function_depth(idx, d, row.target,
                                           idx.radius - d[row.target])
            assert exceeded or dep >= row.target_depth_lb

    def test_empty_dead_end_set(self):
        g = standard_zn(2)
        idx = ball(g, 6)
        d = {e: dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        assert report.rows == []

    def test_rows_match_sorted_reference(self):
        # d1 = d2 = distance, C = 1: each source of distance-depth D >= 2
        # is its own target with fuzz radius D - 1 and no slack.
        g = HeisenbergGroup()
        idx = ball(g, 12)
        d = {e: dd for e, dd in idx.items_sorted()}
        expected = []
        for e, dd in idx.items_sorted():
            if dd < idx.radius:
                D, exceeded = function_depth(idx, d, e, idx.radius - dd)
                if D >= 2:
                    expected.append(TransferRow(e, D, exceeded, D - 1, 0, e, D))
        assert expected
        assert depth_transfer_check(idx, d, d, 1).rows == expected

    def test_function_depth_stays_in_the_index(self):
        # f is defined on the ball only, so a cap past the room,
        # radius - d(element), raises instead of stepping outside it.
        g = standard_zn(1)
        idx = ball(g, 4)
        d = {e: dd for e, dd in idx.items_sorted()}
        for element, cap in (((4,), 3), ((4,), 1), ((2,), 3)):
            with pytest.raises(InsufficientRadius):
                function_depth(idx, d, element, cap)
        assert function_depth(idx, d, (2,), 2) == (1, False)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_function_depth_rejects_cap_below_one(self, cap):
        idx = ball(standard_zn(1), 4)
        d = {e: dd for e, dd in idx.items_sorted()}
        with pytest.raises(DeadendError, match="cap must be >= 1"):
            function_depth(idx, d, (0,), cap)

    def test_function_depth_past_the_room_raises(self):
        # (4,0,-1) lies 4 from (6,0,0), but every geodesic between them
        # leaves B(6): a search confined to the ball answered (5, True),
        # "nothing higher within 4".  The cap exceeds the room of 0.
        idx = ball(HeisenbergGroup(), 6)
        source, higher = (6, 0, 0), (4, 0, -1)
        assert word_length(heis_mul(heis_inverse(source), higher)) == 4
        f = {e: int(e == higher) for e in idx.table}
        with pytest.raises(InsufficientRadius):
            function_depth(idx, f, source, 4)

    def test_function_depth_within_the_room_is_exact(self):
        # cap = room: the answer is the nearest strictly higher element
        # over the whole group, by the closed-form word length.
        idx = ball(HeisenbergGroup(), 8)
        inner = [e for e, dd in idx.items_sorted() if dd < idx.radius]
        rng = random.Random(23)
        for _ in range(60):
            source = rng.choice(inner)
            f = {e: int(rng.random() < 0.02) for e in idx.table}
            f[source] = 0
            cap = idx.radius - idx.distance(source)
            nearest = min((word_length(heis_mul(heis_inverse(source), y))
                           for y, v in f.items() if v), default=cap + 1)
            want = (nearest, False) if nearest <= cap else (cap + 1, True)
            assert function_depth(idx, f, source, cap) == want

    def test_weighted_sources_are_kept(self):
        # One generator of weight 2: every element has a farther neighbour,
        # but only across a letter too heavy to bound the depth below 2.
        g = WeightedZnGroup(WeightedGenSet(1, (((1,), 2),)))
        idx = ball(g, 8)
        d = {e: dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        sources = [e for e, dd in idx.items_sorted() if dd + 2 <= idx.radius]
        assert [row.source for row in report.rows] == sources
        assert report.sources_scanned == len(sources)
        for row in report.rows:
            cap = idx.radius - d[row.source]
            assert row.source_depth == function_depth(idx, d, row.source, cap)[0] == 2

    def test_pointwise_bound_enforced(self):
        g = standard_zn(2)
        idx = ball(g, 4)
        d1 = {e: dd for e, dd in idx.items_sorted()}
        d2 = dict(d1)
        d2[(2, 2)] += 3
        with pytest.raises(BoundViolated):
            depth_transfer_check(idx, d1, d2, 2)
