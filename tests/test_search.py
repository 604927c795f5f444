"""Ball oracle, depth, dead-end scan, and the metric-perturbation lemmas."""

import pytest

from deadends.abelian import WeightedGenSet, WeightedZnGroup, standard_zn
from deadends.core import DeadendError, Word
from deadends.geolang import FreeGroup
from deadends.heis import HeisenbergGroup, heis_inverse
from deadends.search import (
    BoundViolated,
    HypothesisViolated,
    InsufficientRadius,
    NotInBall,
    ResourceCap,
    ball,
    deadend_scan,
    depth,
    depth_transfer_check,
    distance,
    function_depth,
    local_max_from_slack,
)


class TestBall:
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

    def test_sphere_counts_sum_to_size(self, heis_ball22):
        assert sum(c for _d, c in heis_ball22.sphere_rows()) == len(heis_ball22)

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
        assert distance(heis_group, heis_group.identity, heis_ball22) == 0

    def test_heis_ba(self, heis_ball22, heis_group):
        assert distance(heis_group, (1, 1, -1), heis_ball22) == 2

    def test_z2_l1(self):
        g = standard_zn(2)
        assert distance(g, (3, 4), ball(g, 8)) == 7

    def test_not_in_ball(self, heis_ball22, heis_group):
        with pytest.raises(NotInBall):
            distance(heis_group, (50, 0, 0), heis_ball22)

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

    def test_insufficient_radius(self, heis_group, heis_ball22):
        with pytest.raises(InsufficientRadius):
            depth(heis_group, (0, 0, 10), heis_ball22, cap=9)

    def test_cap_must_be_positive(self, heis_group, heis_ball22):
        with pytest.raises(DeadendError):
            depth(heis_group, (1, 0, 0), heis_ball22, cap=0)

    def test_exceeds_cap_flagged(self, heis_group, heis_ball22):
        rep = depth(heis_group, (0, 0, 5), heis_ball22, cap=3)
        assert rep.exceeds_cap and rep.depth == 4 and rep.witness is None


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
        """depth() on every element with room, filtered and in (distance, key) order."""
        cap = min_depth if cap is None else cap
        reports = (depth(g, e, idx, cap) for e, d in idx.items_sorted()
                   if d + cap <= idx.radius)
        return [r for r in reports if r.depth >= min_depth]

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
        g = WeightedZnGroup(WeightedGenSet(2, (((1, 0), 1), ((0, 1), 3), ((3, 1), 3))))
        idx = ball(g, 10)
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


def _dominates(index, f, center, radius):
    """f attains its max over the radius-ball at the center, per the index."""
    group = index.group
    seen = {group.key(center): 0}
    frontier = [center]
    fc = f[group.key(center)]
    for _step in range(radius):
        nxt = []
        for e in frontier:
            for nb, w in index.neighbors_in_ball(e):
                k = group.key(nb)
                if k not in seen:
                    seen[k] = True
                    if f[k] > fc:
                        return False
                    nxt.append(nb)
        frontier = nxt
    return True


class TestLocalMaxFromSlack:
    def test_constant_function(self):
        g = standard_zn(2)
        idx = ball(g, 8)
        f = {g.key(e): 7 for e, _d in idx.items_sorted()}
        a_out, s = local_max_from_slack(idx, f, (0, 0), 4, 2)
        assert a_out == (0, 0) and s >= 4 // 2

    def test_heis_dead_end_dominates(self, heis_group, heis_ball22):
        f = {heis_group.key(e): d for e, d in heis_ball22.items_sorted()}
        a_out, s = local_max_from_slack(heis_ball22, f, (0, 0, 5), 4, 2)
        assert s >= 2
        assert _dominates(heis_ball22, f, a_out, s)

    def test_unique_boundary_max_is_found(self):
        g = standard_zn(1)
        idx = ball(g, 9)
        r = 3
        f = {g.key(e): 0 for e, _d in idx.items_sorted()}
        f[g.key((r,))] = 1
        a_out, s = local_max_from_slack(idx, f, (0,), r, 1)
        assert a_out == (r,) and s == r
        assert _dominates(idx, f, a_out, s)

    def test_hypothesis_violated(self):
        g = standard_zn(1)
        idx = ball(g, 6)
        f = {g.key(e): abs(e[0]) * 5 for e, _d in idx.items_sorted()}
        with pytest.raises(HypothesisViolated):
            local_max_from_slack(idx, f, (0,), 3, 1)

    def test_insufficient_radius(self):
        g = standard_zn(1)
        idx = ball(g, 4)
        f = {g.key(e): 0 for e, _d in idx.items_sorted()}
        with pytest.raises(InsufficientRadius):
            local_max_from_slack(idx, f, (3,), 3, 1)


class TestDepthTransfer:
    def test_identical_tables_map_dead_ends_to_themselves(self):
        g = HeisenbergGroup()
        idx = ball(g, 12)
        d = {g.key(e): dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        assert report.rows
        for row in report.rows:
            assert row.target == row.source
            assert row.target_depth_lb >= row.source_depth - 1
            dep, exceeded = function_depth(idx, d, row.target,
                                           idx.radius - d[g.key(row.target)])
            assert exceeded or dep >= row.target_depth_lb

    def test_empty_dead_end_set(self):
        g = standard_zn(2)
        idx = ball(g, 6)
        d = {g.key(e): dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        assert report.rows == []

    def test_weighted_sources_are_kept(self):
        # One generator of weight 2: every element has a farther neighbour,
        # but only across a letter too heavy to bound the depth below 2.
        g = WeightedZnGroup(WeightedGenSet(1, (((1,), 2),)))
        idx = ball(g, 8)
        d = {g.key(e): dd for e, dd in idx.items_sorted()}
        report = depth_transfer_check(idx, d, d, 1)
        sources = [e for e, dd in idx.items_sorted() if dd + 2 <= idx.radius]
        assert [row.source for row in report.rows] == sources
        assert report.sources_scanned == len(sources)
        for row in report.rows:
            cap = idx.radius - d[g.key(row.source)]
            assert row.source_depth == function_depth(idx, d, row.source, cap)[0] == 2

    def test_pointwise_bound_enforced(self):
        g = standard_zn(2)
        idx = ball(g, 4)
        d1 = {g.key(e): dd for e, dd in idx.items_sorted()}
        d2 = dict(d1)
        d2[g.key((2, 2))] += 3
        with pytest.raises(BoundViolated):
            depth_transfer_check(idx, d1, d2, 2)
