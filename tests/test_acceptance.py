"""Acceptance gate: the ten headline claims at desk scale.

Each test prints one PASS line on success; a failed assertion is the FAIL
line.  Tolerances: exact integers unless a test says otherwise.
"""

import itertools
import random
import time

from deadends.abelian import (
    WeightedGenSet,
    WeightedZnGroup,
    build_polytope,
    depth_bound,
    facet_ray_word,
    sandwich_check,
    weighted_distances,
)
from deadends.geolang import builtin_dfas, depth_bound_check, verify_language
from deadends.heis import HeisenbergGroup, heis_family, heis_inverse, nd_witness, nh_box
from deadends.search import ball, depth
from deadends.sol import (
    HypMatrix,
    LaurentPoly,
    SupportVector,
    _support_search,
    bdiff_gap,
    gaps_window,
    integer_expansion,
    ll_length,
    minimal_reps,
    wreath_oracle,
)

R_FIX = HypMatrix([[2, 1], [1, 1]])


def test_criterion_01_heis_distance_law():
    t0 = time.monotonic()
    index = ball(HeisenbergGroup(), 18)
    build_s = time.monotonic() - t0
    for n in range(1, 5):
        assert index.distance((0, 0, n * n + 1)) == 4 * n + 2
    assert build_s < 60
    print("ACCEPTANCE 1 PASS: distances 6,10,14,18 exact; "
          "radius-18 ball (%d elements) in %.1fs" % (len(index), build_s))


def test_criterion_02_heis_depth_family(heis_ball22):
    rows = [heis_family(n, heis_ball22) for n in (3, 4)]
    for row in rows:
        assert row.bfs_depth >= row.depth_lower_bound
    assert [(r.n, r.distance, r.depth_lower_bound) for r in rows] == \
        [(3, 14, 3), (4, 18, 3)]
    print("ACCEPTANCE 2 PASS: depth(0,0,10)=%d >= 3, depth(0,0,17)>=%d >= 3"
          % (rows[0].bfs_depth, rows[1].bfs_depth))


def test_criterion_03_box_consistency(heis_group, heis_ball22):
    checked_nd = 0
    for n in (2, 3):
        for i in range(-n - 1, n + 2):
            for j in range(-n - 1, n + 2):
                for k in range(-n * (n + 1) + 1, n * (n + 1)):
                    w = nd_witness(i, j, k, n)
                    assert heis_group.evaluate(w) == (i, j, k)
                    assert len(w) <= 4 * n + 2
                    assert heis_ball22.distance((i, j, k)) <= 4 * n + 2
                    checked_nd += 1
    checked_nh = 0
    for n in (2, 3):
        level = {(0, 0, n * n + 1)}
        seen = set(level)
        for m in range(0, 4):
            pred, _bounds = nh_box(m, n)
            for e in seen:
                assert pred(e)
                checked_nh += 1
            nxt = set()
            for e in level:
                for lt in heis_group.alphabet.signed_letters():
                    e2 = heis_group.apply_letter(e, lt)
                    if e2 not in seen:
                        nxt.add(e2)
            seen |= nxt
            level = nxt
    print("ACCEPTANCE 3 PASS: %d box witnesses and %d near-element "
          "memberships, exhaustive for n=2,3" % (checked_nd, checked_nh))


def test_criterion_04_ll_equals_wreath():
    t0 = time.monotonic()
    cells = [(comp, d) for comp in (0, 1) for d in range(-3, 4)]
    assignments = [[]]
    for cell in cells:
        grown = []
        for assig in assignments:
            used = sum(abs(c) for _cl, c in assig)
            grown.append(assig)
            for mag in range(1, 3 - used + 1):
                for sign in (1, -1):
                    grown.append(assig + [(cell, sign * mag)])
        assignments = grown
    checked = 0
    for assig in assignments:
        p1 = LaurentPoly.from_terms((d, c) for (comp, d), c in assig if comp == 0)
        p2 = LaurentPoly.from_terms((d, c) for (comp, d), c in assig if comp == 1)
        v = SupportVector(p1, p2)
        for z in range(-4, 5):
            assert ll_length(v, z) == wreath_oracle(v, z)
            checked += 1
    took = time.monotonic() - t0
    assert checked == 36801 and took < 120
    print("ACCEPTANCE 4 PASS: formula == BFS on %d cases in %.1fs"
          % (checked, took))


def test_criterion_05_sol_norm_sandwich(sol_ball9):
    t0 = time.monotonic()
    report = bdiff_gap(R_FIX, sol_ball9)
    took = time.monotonic() - t0
    assert report.skipped == 0
    assert all(gap >= 0 for _e, _d, _n, gap in report.rows)
    gaps = {r: max(g for _e, d, _n, g in report.rows if d <= r)
            for r in (7, 8, 9)}
    assert gaps[7] == gaps[8] == gaps[9] == report.max_gap
    assert took < 600
    print("ACCEPTANCE 5 PASS: %d elements, all gaps >= 0, max gap %d "
          "constant over radii 7..9, %.1fs"
          % (report.elements_checked, report.max_gap, took))


def test_criterion_06_dfa_pumping_bound():
    outcomes = {}
    for name, (dfa, group) in sorted(builtin_dfas().items()):
        index = ball(group, 6)
        report = verify_language(dfa, group, index)
        assert report.ok
        outcomes[name] = depth_bound_check(dfa, group, index, report)
    assert all(md <= bd for md, bd in outcomes.values())
    assert outcomes["z2_sorted"] == (1, 10)
    assert outcomes["f2_reduced"] == (1, 10)
    print("ACCEPTANCE 6 PASS: fixtures sound+complete at radius 6; "
          "max certified depth 1 <= 2n = 10 for both")


def test_criterion_07_weighted_lattices():
    rng = random.Random(20260814)
    gen_sets = []
    while len(gen_sets) < 5:
        gens = [((1, 0), rng.randint(1, 4)), ((0, 1), rng.randint(1, 4))]
        for _ in range(rng.randint(0, 2)):
            v = (rng.randint(-2, 2), rng.randint(-2, 2))
            if v != (0, 0):
                gens.append((v, rng.randint(1, 4)))
        gen_sets.append(WeightedGenSet(2, tuple(gens)))
    bounds = []
    for ws in gen_sets:
        poly = build_polytope(ws)
        group = WeightedZnGroup(ws)
        for facet in poly.facets:
            k = len(facet.vertices)
            words = {}
            for exps in itertools.product(range(7), repeat=k):
                if sum(exps) <= 6:
                    w = facet_ray_word(ws, facet, exps, poly)
                    words[exps] = (w, group.evaluate(w))
            dist = weighted_distances(ws, {end for _w, end in words.values()})
            for w, end in words.values():
                assert group.word_weight(w) == dist[end]
        report = depth_bound(ws, ball(group, 20))
        assert report.max_depth_seen <= report.bound
        bounds.append(report.bound)
    print("ACCEPTANCE 7 PASS: 5 seeded weighted sets; facet rays match "
          "Dijkstra (totals<=6); depth bounds %s hold on weight-20 balls"
          % (bounds,))


def test_criterion_08_euclidean_reduction():
    i2 = ((1, 0), (0, 1))
    neg = ((-1, 0), (0, -1))
    from deadends.abelian import EuclideanSpec
    spec = EuclideanSpec(2, (i2, neg),
                         ((((1, 0), i2)), (((0, 1), i2)), (((0, 0), neg))),
                         ("a", "b", "s"))
    report = sandwich_check(spec, 8)
    assert report.observed_gap <= report.gap_bound == 2
    assert report.elements_checked == 145
    print("ACCEPTANCE 8 PASS: Z^2 x {+-I} sandwich on %d lattice elements, "
          "observed gap %d <= bound %d"
          % (report.elements_checked, report.observed_gap, report.gap_bound))


def _root_pow(a, b, n, disc):
    """(x, y) with x + y sqrt(disc) = (a + b sqrt(disc))^n, for n >= 0."""
    x, y = 1, 0
    for _ in range(n):
        x, y = x * a + y * b * disc, x * b + y * a
    return x, y


def test_criterion_09_eigen_scaling():
    """The eigenline law of the Sol degree window, in integers.

    The window reads the contracting projector P = (v + w(v) / sqrt(D)) / 2,
    w = _SupportSearch._w, D = tr^2 - 4 det.  w(w(v)) = D v says P is a
    projector.  P R^k v = lam^k P v, lam = (tr - sign(tr) sqrt(D)) / 2 the
    contracting eigenvalue, says its image is the contracting line.  With
    a + b sqrt(D) = 2^|k| lam^k, that is (2 lam)^k for k >= 0 and
    (2 det tau)^|k| for k < 0 (lam tau = det), the law times 2^|k| 2 sqrt(D)
    splits into the two integer equations below, since D is not a square.
    I - P then scales by tau: its law is the same pair under
    sqrt(D) -> -sqrt(D).
    """
    rng = random.Random(99)
    mats = ([[1, 1], [1, 0]], [[2, 1], [1, 0]], [[2, 1], [1, 1]], [[3, 1], [2, 1]],
            [[12, -109], [1, -9]], [[-2, 1], [1, -1]], [[-1, 1], [1, 0]])
    for rows in mats:
        R = HypMatrix(rows)
        tr, det = R.trace, R.det
        disc, sg = tr * tr - 4 * det, 1 if tr > 0 else -1
        w = _support_search(R)._w
        for _ in range(100):
            v = (rng.randint(-50, 50), rng.randint(-50, 50))
            wv = w(*v)
            assert w(*wv) == (disc * v[0], disc * v[1])
            for k in range(-3, 4):
                n = abs(k)
                a, b = _root_pow(tr, -sg, n, disc) if k >= 0 else \
                    _root_pow(det * tr, det * sg, n, disc)
                rv = R.apply(k, v)
                wr = w(*rv)
                for c in (0, 1):
                    assert (wr[c] * 2 ** n, rv[c] * 2 ** n) == \
                        (a * wv[c] + b * disc * v[c], a * v[c] + b * wv[c])
    print("ACCEPTANCE 9 PASS: projector and eigenvalue laws exact in integers "
          "on 100 vectors, k in -3..3, for %d matrices with traces %s"
          % (len(mats), ",".join(str(r[0][0] + r[1][1]) for r in mats)))


def test_criterion_10_property_battery(heis_group):
    # Ball consistency and inverse symmetry on two groups.
    from deadends.abelian import standard_zn
    for group in (HeisenbergGroup(), standard_zn(2)):
        idx = ball(group, 6)
        for e, d in idx.items_sorted():
            if d == 0:
                continue
            nbr_d = [idx.distance(nb) for nb, _w in idx.neighbors_in_ball(e)]
            assert min(nbr_d) == d - 1
    heis_idx = ball(heis_group, 8)
    for e, d in heis_idx.items_sorted():
        assert heis_idx.distance(heis_inverse(e)) == d
    # Minimal-support postconditions with the degree-window check.
    for x in range(-3, 4):
        for y in range(-3, 4):
            reps = minimal_reps((x, y), R_FIX)
            lengths = {v.length for v in reps}
            assert len(lengths) == 1
            l = lengths.pop()
            for v in reps:
                assert v.value(R_FIX) == (x, y)
                if l:
                    assert min(abs(d) for d in v.degrees()) < \
                        gaps_window((x, y), l, R_FIX)
    # Expansion exactness over the full stated range.
    for n in range(-10000, 10001):
        rep = integer_expansion(n, R_FIX)
        assert sum(pv * mult for _m, pv, mult in rep.digits) == n
        assert rep.length <= rep.bound
    print("ACCEPTANCE 10 PASS: ball/inverse invariants, minimal-rep "
          "postconditions, expansion exact for |n| <= 10^4")


def test_family_witness_words(heis_group, heis_ball22):
    """The explicit length-(4n+2) words meet the oracle distances exactly."""
    from deadends.heis import dd_witness
    for n in (2, 3, 4):
        w = dd_witness(n)
        g = heis_group.evaluate(w)
        assert g == (0, 0, n * n + 1)
        assert len(w) == 4 * n + 2 == heis_ball22.distance(g)
    rep = depth(heis_group, (0, 0, 5), heis_ball22, cap=12)
    assert rep.depth == 5 and not rep.exceeds_cap
