"""Weighted lattices: polytope facets, geodesic rays, depth bounds, reductions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadends.abelian import (
    DepthBoundReport,
    EuclideanGroup,
    EuclideanSpec,
    NotAFacet,
    NotEuclidean,
    NotGenerating,
    SandwichReport,
    UnsupportedRank,
    WeightedGenSet,
    WeightedZnGroup,
    _parallelepiped_points,
    _rank,
    _row_reduce,
    _solve_functional,
    build_polytope,
    coset_representatives,
    depth_bound,
    euclidean_reduce,
    facet_ray_word,
    sandwich_check,
    standard_zn,
    weighted_distance,
    weighted_distances,
)
from deadends.core import DeadendError, UnknownLetter, Word
from deadends.search import ResourceCap, ball

WS_WEIGHTED = WeightedGenSet(2, (((1, 0), 2), ((0, 1), 3), ((1, 1), 4)))

I2 = ((1, 0), (0, 1))
NEG_I2 = ((-1, 0), (0, -1))
PM_I_SPEC = EuclideanSpec(
    2, (I2, NEG_I2),
    ((((1, 0), I2)), (((0, 1), I2)), (((0, 0), NEG_I2))),
    ("a", "b", "s"))


class TestWeightedGenSet:
    def test_collinear_rejected(self):
        with pytest.raises(NotGenerating):
            WeightedGenSet(2, (((1, 0), 1), ((2, 0), 1)))

    def test_index_two_sublattice_rejected(self):
        with pytest.raises(NotGenerating):
            WeightedGenSet(2, (((2, 0), 1), ((0, 1), 1)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DeadendError):
            WeightedGenSet(1, (((1,), 0),))

    def test_json_round_trip(self):
        assert WeightedGenSet.from_json_obj(WS_WEIGHTED.to_json_obj()) == WS_WEIGHTED

    def test_rank_4_builds(self):
        assert standard_zn(4).ws.n == 4
        ws = WeightedGenSet(4, (((1, 0, 0, 0), 1), ((0, 1, 0, 0), 2),
                                ((0, 0, 1, 0), 2), ((1, 1, 1, 1), 3)))
        assert weighted_distance(ws, (1, 1, 1, 1)) == 3
        assert weighted_distance(ws, (0, 0, 0, 1)) == 8

    def test_rank_4_index_two_sublattice_rejected(self):
        # every vector has x0 + x1 even; the minors are 0 or +-2
        with pytest.raises(NotGenerating):
            WeightedGenSet(4, (((1, 1, 0, 0), 1), ((1, -1, 0, 0), 1), ((0, 0, 1, 0), 1),
                               ((0, 0, 0, 1), 1), ((2, 0, 0, 0), 1)))


class TestWeightedZnGroup:
    @pytest.mark.parametrize("letter", [(0, 2), (5, 1), (-1, 1)])
    def test_unknown_letter(self, letter):
        with pytest.raises(UnknownLetter):
            standard_zn(2).apply_letter((0, 0), letter)


class TestWeightedDistance:
    def test_standard_is_l1(self):
        assert weighted_distance(standard_zn(2).ws, (5, 0)) == 5

    def test_weighted_diagonal(self):
        assert weighted_distance(WS_WEIGHTED, (1, 1)) == 4

    def test_zero(self):
        assert weighted_distance(WS_WEIGHTED, (0, 0)) == 0

    def test_budget_trips(self):
        with pytest.raises(ResourceCap):
            weighted_distance(standard_zn(2).ws, (40, 40), budget=10)

    def test_batch_agrees_with_single(self):
        targets = [(1, 1), (3, -2), (0, 5)]
        batch = weighted_distances(WS_WEIGHTED, targets)
        for t in targets:
            assert batch[t] == weighted_distance(WS_WEIGHTED, t)


class TestPolytope:
    def test_standard_square(self):
        poly = build_polytope(standard_zn(2).ws)
        assert poly.M == 1
        assert set(poly.points) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert len(poly.facets) == 4
        assert all(len(f.vertices) == 2 for f in poly.facets)

    def test_weighted_hexagon(self):
        poly = build_polytope(WS_WEIGHTED)
        assert poly.M == 12
        assert poly.scaled == ((6, 0), (0, 4), (3, 3))
        assert len(poly.points) == 6 and len(poly.facets) == 6

    def test_rank_1(self):
        poly = build_polytope(standard_zn(1).ws)
        assert len(poly.facets) == 2
        assert {f.vertices for f in poly.facets} == {((1,),), ((-1,),)}
        # (2,) and (3,) at weight 1: the longer generator bounds the hull
        poly = build_polytope(WeightedGenSet(1, (((2,), 1), ((3,), 1))))
        assert poly.M == 1 and poly.points == ((2,), (-2,), (3,), (-3,))
        assert [(f.vertices, f.functional) for f in poly.facets] == [
            (((-3,),), (Fraction(-1, 3),)), (((3,),), (Fraction(1, 3),))]

    def test_rank_4_unsupported(self):
        ws = standard_zn(4).ws
        with pytest.raises(UnsupportedRank):
            build_polytope(ws)

    @pytest.mark.parametrize("ws", [standard_zn(2).ws, WS_WEIGHTED,
                                    standard_zn(3).ws])
    def test_functionals_support_exactly_their_vertices(self, ws):
        poly = build_polytope(ws)
        for facet in poly.facets:
            for p in poly.points:
                val = facet.pairing(p)
                assert val <= 1
                assert (val == 1) == (p in facet.vertices)

    def test_facet_of(self):
        poly = build_polytope(standard_zn(1).ws)
        f = poly.facet_of((Fraction(1),))
        assert f.vertices == ((1,),)
        with pytest.raises(NotAFacet):
            poly.facet_of((Fraction(2),))


class TestRowReduce:
    def test_rref_skips_zero_columns(self):
        m, pivots, _ = _row_reduce([(0, 2, 4), (0, 1, 3)])
        assert pivots == [1, 2]
        assert m == [[0, 1, 0], [0, 0, 1]]

    def test_rank_of_deficient_sets(self):
        assert _rank([(1, 2, 3), (2, 4, 6), (-1, -2, -3)]) == 1
        assert _rank([(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 3)]) == 2
        assert _rank([(0, 0)]) == 0
        assert _rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_determinant_matches_cofactor_expansion(self, n):
        rng = random.Random(n)
        mats = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(60)]
        mats.append([[0] * n for _ in range(n)])
        mats.append([[int(c == n - 1 - r) for c in range(n)] for r in range(n)])  # needs swaps
        for m in mats:
            assert _row_reduce(m)[2] == _cofactor_det(m), m

    def test_solve_functional(self):
        assert _solve_functional([(2, 0), (1, 4)]) == (Fraction(1, 2), Fraction(1, 8))

    def test_solve_functional_singular(self):
        assert _solve_functional([(1, 2), (2, 4)]) is None
        assert _solve_functional([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) is None

    def test_parallelepiped_points(self):
        assert sorted(_parallelepiped_points([(2, 0), (1, 1)], 2)) == \
            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1)]

    def test_parallelepiped_degenerate_basis(self):
        assert _parallelepiped_points([(1, 2), (2, 4)], 2) == []
        assert _parallelepiped_points([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) == []

    @pytest.mark.parametrize("basis, det", [
        ([(2, 0), (1, 1)], 2),
        ([(0, 2), (1, 0)], -2),
        ([(1, 2), (2, 1)], -3),
        ([(2, 1), (-1, 2)], 5),
        ([(1, 0), (1, 2)], 2),
        ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 2),
        ([(0, 1, 1), (1, 1, 0), (1, 0, 1)], -2),
        ([(1, 1, 0), (0, 1, 1), (2, 0, 1)], 3),
        ([(2, 1, 0), (0, 1, 1), (1, 0, 2)], 5),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 3)], 3),
        ([(3,)], 3),
        ([(-2,)], -2),
    ])
    def test_parallelepiped_matches_fraction_reference(self, basis, det):
        # Cramer's rule over Fraction: t_j = det(basis with x for row j) / det
        n = len(basis)
        assert _cofactor_det([list(b) for b in basis]) == det
        box = [range(sum(min(0, b[c]) for b in basis), sum(max(0, b[c]) for b in basis) + 1)
               for c in range(n)]
        expected = [x for x in itertools.product(*box)
                    if all(0 <= Fraction(_cofactor_det([list(x) if k == j else list(b)
                                                        for k, b in enumerate(basis)]),
                                         det) <= 1
                           for j in range(n))]
        got = _parallelepiped_points(basis, n)
        assert got == expected
        assert len(got) > abs(det)  # the corners and the interior points


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * _cofactor_det([r[:c] + r[c + 1:] for r in m[1:]])
               for c in range(len(m)))


def _facet_with_vertices(poly, vertices):
    target = tuple(sorted(vertices))
    for f in poly.facets:
        if f.vertices == target:
            return f
    raise AssertionError("no facet with vertices %r" % (target,))


class TestFacetRay:
    def test_standard_quadrant(self):
        ws = standard_zn(2).ws
        poly = build_polytope(ws)
        f = _facet_with_vertices(poly, [(1, 0), (0, 1)])
        assert f.vertices == ((0, 1), (1, 0))
        w = facet_ray_word(ws, f, (3, 2), poly)
        assert len(w) == 5
        g = WeightedZnGroup(ws)
        assert g.evaluate(w) == (2, 3)
        assert weighted_distance(ws, (2, 3)) == 5

    def test_weighted_edge(self):
        poly = build_polytope(WS_WEIGHTED)
        f = _facet_with_vertices(poly, [(6, 0), (3, 3)])
        w = facet_ray_word(WS_WEIGHTED, f, (1, 1), poly)
        g = WeightedZnGroup(WS_WEIGHTED)
        assert g.evaluate(w) == (9, 3)
        assert g.word_weight(w) == 24
        assert weighted_distance(WS_WEIGHTED, (9, 3)) == 24

    def test_zero_exponents(self):
        ws = standard_zn(2).ws
        poly = build_polytope(ws)
        assert facet_ray_word(ws, poly.facets[0], (0, 0), poly) == Word()

    def test_foreign_facet_rejected(self):
        poly_std = build_polytope(standard_zn(2).ws)
        with pytest.raises(NotAFacet):
            facet_ray_word(WS_WEIGHTED, poly_std.facets[0], (1, 1))

    def test_bad_exponents_rejected(self):
        ws = standard_zn(2).ws
        poly = build_polytope(ws)
        with pytest.raises(DeadendError):
            facet_ray_word(ws, poly.facets[0], (1,), poly)
        with pytest.raises(DeadendError):
            facet_ray_word(ws, poly.facets[0], (1, -1), poly)

    @pytest.mark.parametrize("ws,n_checks", [(standard_zn(2).ws, 112),
                                             (WS_WEIGHTED, 168)])
    def test_rays_are_geodesic(self, ws, n_checks):
        """Every facet word is geodesic and extends by exactly M per vertex."""
        poly = build_polytope(ws)
        group = WeightedZnGroup(ws)
        cases = []
        for facet in poly.facets:
            k = len(facet.vertices)
            for exps in itertools.product(range(7), repeat=k):
                if sum(exps) <= 6:
                    cases.append((facet, exps))
        assert len(cases) == n_checks
        endpoints = {group.evaluate(facet_ray_word(ws, f, e, poly))
                     for f, e in cases}
        dist = weighted_distances(ws, endpoints)
        for facet, exps in cases:
            w = facet_ray_word(ws, facet, exps, poly)
            end = group.evaluate(w)
            assert group.word_weight(w) == dist[end] == poly.M * sum(exps)
            for i in range(len(exps)):
                longer = list(exps)
                longer[i] += 1
                w2 = facet_ray_word(ws, facet, tuple(longer), poly)
                end2 = group.evaluate(w2)
                assert weighted_distance(ws, end2) == dist[end] + poly.M


class TestDepthBound:
    def test_standard_z2(self):
        g = standard_zn(2)
        report = depth_bound(g.ws, ball(g, 6))
        assert (report.bound, report.cell_distance, report.max_depth_seen) == (6, 2, 1)
        assert report.elements_checked > 0

    def test_rank_1(self):
        g = standard_zn(1)
        report = depth_bound(g.ws, ball(g, 6))
        assert report.bound == 4 and report.max_depth_seen == 1

    def test_weighted(self):
        g = WeightedZnGroup(WS_WEIGHTED)
        idx = ball(g, 20)
        assert len(idx) == 161
        report = depth_bound(WS_WEIGHTED, idx)
        assert isinstance(report, DepthBoundReport)
        assert report.bound == 61 and report.elements_checked > 0

    def test_radius_too_small(self):
        g = standard_zn(2)
        from deadends.search import InsufficientRadius
        with pytest.raises(InsufficientRadius):
            depth_bound(g.ws, ball(g, 0))


class TestEuclideanSpec:
    def test_point_group_needs_identity(self):
        with pytest.raises(NotEuclidean):
            EuclideanSpec(2, (NEG_I2,), ((((1, 0), NEG_I2)),))

    def test_point_group_must_be_closed(self):
        shear = ((1, 1), (0, 1))
        with pytest.raises(NotEuclidean):
            EuclideanSpec(2, (I2, shear), ((((1, 0), I2)),))

    def test_matrix_must_preserve_lattice(self):
        double = ((2, 0), (0, 1))
        with pytest.raises(NotEuclidean):
            EuclideanSpec(2, (I2, double), ((((1, 0), I2)),))

    def test_generator_matrix_in_point_group(self):
        with pytest.raises(NotEuclidean):
            EuclideanSpec(2, (I2,), ((((1, 0), NEG_I2)),))

    def test_json_round_trip(self):
        assert EuclideanSpec.from_json_obj(PM_I_SPEC.to_json_obj()) == PM_I_SPEC


class TestEuclideanReduce:
    def test_trivial_point_group_gives_standard_set(self):
        spec = EuclideanSpec(2, (I2,),
                             ((((1, 0), I2)), (((0, 1), I2))), ("a", "b"))
        assert euclidean_reduce(spec).gens == (((0, 1), 1), ((1, 0), 1))

    def test_pm_i(self):
        """Conjugating by the involution only flips signs, which merge."""
        assert euclidean_reduce(PM_I_SPEC).gens == (((0, 1), 1), ((1, 0), 1))

    def test_glide_sublattice_rejected(self):
        flip = ((1, 0), (0, -1))
        spec = EuclideanSpec(2, (I2, flip),
                             ((((1, 0), flip)), (((0, 1), I2))), ("g", "b"))
        with pytest.raises(NotEuclidean):
            euclidean_reduce(spec)

    def test_unreached_coset_rejected(self):
        spec = EuclideanSpec(2, (I2, NEG_I2),
                             ((((1, 0), I2)), (((0, 1), I2))), ("a", "b"))
        with pytest.raises(NotGenerating,
                           match="^generators reach 1 of 2 point-group cosets$"):
            euclidean_reduce(spec)

    def test_coset_representatives(self):
        reps = coset_representatives(PM_I_SPEC)
        assert len(reps) == 2
        assert reps[I2] == Word()
        assert len(reps[NEG_I2]) == 1

    def test_involution_squares_to_identity(self):
        g = EuclideanGroup(PM_I_SPEC)
        s = (2, 1)
        e = g.apply_letter(g.apply_letter(g.identity, s), s)
        assert e == g.identity


class TestSandwich:
    def test_trivial_point_group(self):
        spec = EuclideanSpec(2, (I2,),
                             ((((1, 0), I2)), (((0, 1), I2))), ("a", "b"))
        report = sandwich_check(spec, 4)
        assert report.observed_gap == 0 and report.gap_bound == 0

    def test_pm_i_radius_8(self):
        assert sandwich_check(PM_I_SPEC, 8) == SandwichReport(0, 2, 145)


def small_gen_sets():
    """Always include the basis, so spanning holds by construction."""
    extra = st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
                lambda v: v != (0, 0)),
            st.integers(1, 4)),
        max_size=2)
    basis = st.tuples(st.integers(1, 4), st.integers(1, 4))
    return st.tuples(basis, extra).map(
        lambda bw: WeightedGenSet(
            2, (((1, 0), bw[0][0]), ((0, 1), bw[0][1])) + tuple(bw[1])))


@settings(max_examples=20, deadline=None)
@given(small_gen_sets())
def test_random_polytopes_support_their_facets(ws):
    poly = build_polytope(ws)
    assert poly.M > 0
    for facet in poly.facets:
        assert facet.vertices
        for p in poly.points:
            val = facet.pairing(p)
            assert val <= 1
            assert (val == 1) == (p in facet.vertices)


@settings(max_examples=10, deadline=None)
@given(small_gen_sets())
def test_random_rays_are_geodesic(ws):
    poly = build_polytope(ws)
    group = WeightedZnGroup(ws)
    for facet in poly.facets:
        k = len(facet.vertices)
        for exps in itertools.product(range(3), repeat=k):
            if sum(exps) > 2:
                continue
            w = facet_ray_word(ws, facet, exps, poly)
            end = group.evaluate(w)
            assert group.word_weight(w) == weighted_distance(ws, end)
