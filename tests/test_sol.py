"""Sol lattices: group law, minimal supports, length formula, witnesses."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from deadends.core import DeadendError, OutOfBox, Word
from deadends.search import BallIndex, ClaimViolation, ResourceCap, ball, deadend_scan, depth
from deadends.sol import (
    BdiffReport,
    CapExceeded,
    HypMatrix,
    LaurentPoly,
    NotHyperbolic,
    SolGroup,
    SupportVector,
    WreathZ2Z,
    _extent,
    _minimal_extents,
    _support_search,
    _SupportSearch,
    _sweep_length,
    abs_norm,
    apply_poly,
    bdiff_gap,
    char_poly,
    distort_witness,
    gaps_window,
    integer_expansion,
    ll_length,
    minimal_reps,
    sol_inverse,
    sol_mul,
    wreath_oracle,
)

R_FIX = HypMatrix([[2, 1], [1, 1]])
ZERO = LaurentPoly()
# det -1 and trace 1; and R_FIX conjugated by the shear [[1, 10], [0, 1]],
# whose eigenlines meet at about one degree.
R_DETM1 = [[1, 1], [1, 0]]
R_SKEW = [[12, -109], [1, -9]]


def poly(*terms):
    return LaurentPoly.from_terms(terms)


class TestHypMatrix:
    def test_accepts_det1_trace3(self):
        assert R_FIX.det == 1 and R_FIX.trace == 3

    def test_accepts_detm1_trace1(self):
        m = HypMatrix([[1, 1], [1, 0]])
        assert m.det == -1 and m.trace == 1

    @pytest.mark.parametrize("rows", [
        [[1, 1], [0, 1]],   # det 1, trace 2: parabolic
        [[2, 0], [0, 1]],   # det 2
        [[1, 0], [0, 1]],   # identity
        [[1, 1]],           # wrong shape
    ])
    def test_rejects_non_hyperbolic(self, rows):
        with pytest.raises(NotHyperbolic):
            HypMatrix(rows)

    def test_powers_are_exact_inverses(self):
        for k in range(-6, 7):
            prod = tuple(
                tuple(sum(R_FIX.power(k)[r][i] * R_FIX.power(-k)[i][c]
                          for i in range(2)) for c in range(2))
                for r in range(2))
            assert prod == ((1, 0), (0, 1))

    def test_json_round_trip(self):
        assert HypMatrix.from_json_obj(R_FIX.to_json_obj()) == R_FIX


class TestGroupLaw:
    def test_identity(self, sol_group):
        e = (3, -1, 2)
        assert sol_mul(e, sol_group.identity, R_FIX) == e
        assert sol_mul(sol_group.identity, e, R_FIX) == e

    def test_conjugation_by_c_applies_the_matrix(self, sol_group):
        w = Word.parse("c- a c", sol_group.alphabet)
        assert sol_group.evaluate(w) == (2, 1, 0)

    def test_inverse_pair(self, sol_group):
        g = sol_group.evaluate(Word.parse("c a c-", sol_group.alphabet))
        h = sol_group.evaluate(Word.parse("c a- c-", sol_group.alphabet))
        assert sol_mul(g, h, R_FIX) == (0, 0, 0)

    def test_inverse_function(self, sol_ball9):
        rng = random.Random(7)
        elems = [e for e, _ in sol_ball9.items_sorted()]
        for e in rng.sample(elems, 100):
            assert sol_mul(e, sol_inverse(e, R_FIX), R_FIX) == (0, 0, 0)

    def test_associativity_sample(self, sol_group):
        idx = ball(sol_group, 6)
        elems = [e for e, _ in idx.items_sorted()]
        rng = random.Random(11)
        for _ in range(1000):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert sol_mul(sol_mul(x, y, R_FIX), z, R_FIX) == \
                sol_mul(x, sol_mul(y, z, R_FIX), R_FIX)

    def test_evaluation_matches_mul(self, sol_group):
        w = Word.parse("a b c a- c- b", sol_group.alphabet)
        by_letters = sol_group.evaluate(w)
        acc = (0, 0, 0)
        table = {(0, 1): (1, 0, 0), (0, -1): (-1, 0, 0),
                 (1, 1): (0, 1, 0), (1, -1): (0, -1, 0),
                 (2, 1): (0, 0, 1), (2, -1): (0, 0, -1)}
        for lt in w.letters:
            acc = sol_mul(acc, table[lt], R_FIX)
        assert acc == by_letters


class TestLaurentPoly:
    def test_from_terms_merges_and_drops_zeros(self):
        p = poly((2, 1), (2, -1), (0, 3))
        assert p.terms == ((0, 3),)
        assert poly((1, 0)).is_zero

    def test_extremes_and_norm(self):
        p = poly((-2, 1), (3, -4))
        assert (p.bot, p.top, p.norm) == (-2, 3, 5)
        assert (ZERO.top, ZERO.bot, ZERO.norm) == (None, None, 0)

    def test_ring_ops(self):
        p, q = poly((0, 1), (1, 2)), poly((1, -2), (2, 5))
        assert (p + q).terms == ((0, 1), (2, 5))
        assert (p * poly((0, 1))) == p
        assert (p - p).is_zero
        assert p.shift(3).terms == ((3, 1), (4, 2))

    def test_render(self):
        assert poly((2, 1), (1, -3), (0, 1), (-1, 1)).render() == "t^-1+1-3t+t^2"
        assert ZERO.render() == "0"

    def test_json_round_trip(self):
        p = poly((-1, 2), (4, -7))
        assert LaurentPoly.from_json_obj(p.to_json_obj()) == p

    def test_involution_swaps_the_eigenvalues(self):
        """p(t) -> p(det/t) is evaluation at det R^-1, whose eigenvalues are
        det/tau and tau swapped: the image of the characteristic polynomial
        vanishes at R, and p.involution(det) at R is sum c det^d R^-d."""
        p = poly((2, 3), (1, -1), (0, 2), (-1, 5))
        for rows in ([[2, 1], [1, 1]], R_DETM1, [[3, 1], [2, 1]]):
            R = HypMatrix(rows)
            bar_char = char_poly(R).involution(R.det)
            assert apply_poly(bar_char, ZERO, R) == (0, 0)
            assert apply_poly(ZERO, bar_char, R) == (0, 0)
            want = [[0, 0], [0, 0]]
            for d, c in p.terms:
                m = R.power(-d)
                for i, j in itertools.product((0, 1), repeat=2):
                    want[i][j] += c * R.det ** abs(d) * m[i][j]
            bar = p.involution(R.det)
            assert apply_poly(bar, ZERO, R) == (want[0][0], want[1][0])
            assert apply_poly(ZERO, bar, R) == (want[0][1], want[1][1])


class TestApplyPoly:
    def test_basis(self):
        assert apply_poly(poly((0, 1)), ZERO, R_FIX) == (1, 0)
        assert apply_poly(ZERO, poly((0, 1)), R_FIX) == (0, 1)

    def test_degree_one_is_matrix_column(self):
        assert apply_poly(poly((1, 1)), ZERO, R_FIX) == (2, 1)

    def test_cayley_hamilton(self):
        c = char_poly(R_FIX)
        p, q = poly((0, 2), (1, -1)), poly((-1, 3))
        base = apply_poly(p, q, R_FIX)
        for s in range(-3, 4):
            for k in (1, -2):
                assert apply_poly(p + c.shift(s).scale(k), q, R_FIX) == base
                assert apply_poly(p, q + c.shift(s).scale(k), R_FIX) == base


class TestEigen:
    def test_tau_golden(self):
        """2 tau^2 = 7 + 3 sqrt(5) for tau = (3 + sqrt(5)) / 2."""
        assert _support_search(R_FIX)._tau_pow(1) == (7, 3)


class TestMinimalReps:
    def test_zero_vector(self):
        reps = minimal_reps((0, 0), R_FIX)
        assert reps == [SupportVector(ZERO, ZERO)] and reps[0].length == 0

    def test_basis_vector(self):
        reps = minimal_reps((1, 0), R_FIX)
        assert all(v.length == 1 for v in reps)
        assert SupportVector(poly((0, 1)), ZERO) in reps

    def test_matrix_column_has_length_1_rep(self):
        assert minimal_reps((2, 1), R_FIX) == [SupportVector(poly((1, 1)), ZERO)]

    def test_exact_length_counts(self):
        assert [len(_support_search(R_FIX).reps(2, 1, l)) for l in range(1, 6)] == \
            [1, 3, 10, 61, 323]

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            minimal_reps((5, 0), R_FIX, l_cap=1)

    def test_postconditions_small_box(self):
        for x in range(-3, 4):
            for y in range(-3, 4):
                reps = minimal_reps((x, y), R_FIX)
                assert reps
                lengths = {v.length for v in reps}
                assert len(lengths) == 1
                l = lengths.pop()
                for v in reps:
                    assert v.value(R_FIX) == (x, y)
                    if l > 0:
                        window = gaps_window((x, y), l, R_FIX)
                        assert min(abs(d) for d in v.degrees()) < window


class _Surd:
    """a + b sqrt(d) with rational a, b; exact reference arithmetic."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _lift(self, o):
        return o if isinstance(o, _Surd) else _Surd(o, 0, self.d)

    def __add__(self, o):
        o = self._lift(o)
        return _Surd(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        o = self._lift(o)
        return _Surd(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        o = self._lift(o)
        return _Surd(self.a * o.a + self.b * o.b * self.d,
                     self.a * o.b + self.b * o.a, self.d)

    def __truediv__(self, o):
        o = self._lift(o)
        n = o.a * o.a - o.b * o.b * self.d
        return self * _Surd(o.a / n, -o.b / n, self.d)

    def sign(self):
        a, b = self.a, self.b
        if a >= 0 and b >= 0:
            return int(a > 0 or b > 0)
        if a <= 0 and b <= 0:
            return -1
        diff = a * a - b * b * self.d
        return (1 if diff > 0 else -1) if a > 0 else (1 if diff < 0 else -1)

    def __gt__(self, o):
        return (self - o).sign() > 0


def exact_window_oracle(rows):
    """Reference for gaps_window: l -> least N >= 1 with |tau|^N > c l / D.

    Builds the spectral projector P_c = (tau I - R) / (tau - lam) in
    Q(sqrt(Delta)), finds the nearest lattice point to P_c z by exact floor
    search, and takes c = max(2, ceil(mu)) from the projector columns.
    """
    (p, r), (q, s) = rows
    tr, det = p + s, p * s - q * r
    disc = tr * tr - 4 * det
    root = _Surd(0, 1 if tr >= 0 else -1, disc)
    tau = (root + tr) / 2
    lam = _Surd(tr, 0, disc) - tau
    pc = [[(tau * int(i == j) - rows[i][j]) / (tau - lam) for j in (0, 1)]
          for i in (0, 1)]
    pe = [[_Surd(int(i == j), 0, disc) - pc[i][j] for j in (0, 1)] for i in (0, 1)]
    mu2 = [m[0][j] * m[0][j] + m[1][j] * m[1][j] for m in (pc, pe) for j in (0, 1)]
    c = 2
    while any(v > c * c for v in mu2):
        c += 1
    t2 = tau * tau

    def floor(x):
        # Start within 2 of a + b sqrt(disc), from integers of any size.
        root = math.isqrt(math.floor(x.b * x.b * disc))
        n = math.floor(x.a) + (root if x.b >= 0 else -root)
        while _Surd(n, 0, disc) > x:
            n -= 1
        while not _Surd(n + 1, 0, disc) > x:
            n += 1
        return n

    def gap2(z):
        if z == (0, 0):
            return _Surd(1, 0, disc)
        P = [pc[i][0] * z[0] + pc[i][1] * z[1] for i in (0, 1)]
        best = None
        for ix in (floor(P[0]), floor(P[0]) + 1):
            for iy in (floor(P[1]), floor(P[1]) + 1):
                d2 = (P[0] - ix) * (P[0] - ix) + (P[1] - iy) * (P[1] - iy)
                if best is None or best > d2:
                    best = d2
        return best

    def window(z, ls):
        d2 = gap2(z)
        out = {}
        for l in ls:
            n, pw = 1, t2
            while not pw * d2 > c * c * l * l:
                n, pw = n + 1, pw * t2
            out[l] = n
        return out

    return window, c


class TestWindow:
    @pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, R_SKEW])
    def test_matches_exact_oracle(self, rows):
        R = HypMatrix(rows)
        oracle, c = exact_window_oracle(rows)
        assert c == (2 if rows != R_SKEW else 50)
        # The box, plus columns of R^k, which hug the expanding line.
        vecs = set(itertools.product(range(-6, 7), repeat=2))
        for k in range(3, 9):
            col = R.power(k)
            for i in (0, 1):
                for dx, dy in ((0, 0), (1, 0), (0, -1)):
                    vecs.add((col[0][i] + dx, col[1][i] + dy))
                    vecs.add((-col[0][i] - dx, -col[1][i] - dy))
        ls = (1, 2, 3, 5, 8)
        for z in sorted(vecs):
            want = oracle(z, ls)
            assert {l: gaps_window(z, l, R) for l in ls} == want, z

    @pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, R_SKEW],
                             ids=["fix", "detm1", "skew"])
    def test_huge_vectors_match_exact_oracle(self, rows):
        """Vectors far past float range get the exact window too."""
        R = HypMatrix(rows)
        oracle, _c = exact_window_oracle(rows)
        ls = (1, 2, 5, 40)
        for z in ((10 ** 200, 3), (-7, 10 ** 180 + 1), (10 ** 150, 10 ** 150 - 1)):
            assert {l: gaps_window(z, l, R) for l in ls} == oracle(z, ls), z

    def test_boundary_case_is_strict(self):
        """|tau|^2 D = 2 exactly at (14, 0), so l = 1 needs N = 3."""
        assert gaps_window((14, 0), 1, R_FIX) == 3

    def test_support_memo_budget(self, monkeypatch):
        monkeypatch.setenv("DEADEND_BUDGET", "20")
        with pytest.raises(ResourceCap):
            minimal_reps((7, 3), HypMatrix(R_FIX.rows))
        monkeypatch.setenv("DEADEND_BUDGET", "1000000")
        assert minimal_reps((7, 3), HypMatrix(R_FIX.rows)) == minimal_reps((7, 3), R_FIX)


def brute_force_supports(R, max_degree=3, max_length=3):
    """Reference enumerator: value -> (least length, supports of that length)
    over every support with degrees in [-max_degree, max_degree] and at
    most max_length units."""
    units = [(k, comp, s) for k in range(-max_degree, max_degree + 1)
             for comp in (0, 1) for s in (1, -1)]
    best = {}
    for n in range(max_length + 1):
        for combo in itertools.combinations_with_replacement(units, n):
            coeff = {}
            for k, comp, s in combo:
                coeff[k, comp] = coeff.get((k, comp), 0) + s
            if sum(abs(c) for c in coeff.values()) != n:
                continue  # a unit and its negative cancel
            v = SupportVector(
                LaurentPoly.from_terms((k, c) for (k, comp), c in coeff.items() if comp == 0),
                LaurentPoly.from_terms((k, c) for (k, comp), c in coeff.items() if comp == 1))
            z = v.value(R)
            if z not in best or n < best[z][0]:
                best[z] = (n, set())
            if n == best[z][0]:
                best[z][1].add(v)
    return best


@pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, R_SKEW])
def test_minimal_reps_against_brute_force(rows):
    R = HypMatrix(rows)
    brute = brute_force_supports(R)
    checked = 0
    for z in itertools.product(range(-6, 7), repeat=2):
        if z not in brute:
            continue
        reps = minimal_reps(z, R)
        length, supports = brute[z]
        assert reps[0].length <= length, z
        if reps[0].length == length:
            assert supports <= set(reps), z
        checked += 1
    assert checked >= 45


class TestLengthFormula:
    def test_axis_only(self):
        assert ll_length(SupportVector(ZERO, ZERO), 5) == 5

    def test_far_lamp_round_trip(self):
        v = SupportVector(poly((2, 1)), ZERO)
        assert ll_length(v, 0) == 5
        assert wreath_oracle(v, 0) == 5

    def test_two_lamps_with_shift(self):
        v = SupportVector(poly((0, 1)), poly((-1, 1)))
        assert ll_length(v, 3) == 7
        assert wreath_oracle(v, 3) == 7

    def test_single_lamp(self):
        v = SupportVector(poly((0, 1)), ZERO)
        assert ll_length(v, 0) == 1 == wreath_oracle(v, 0)

    def test_identity(self):
        assert ll_length(SupportVector(ZERO, ZERO), 0) == 0
        assert wreath_oracle(SupportVector(ZERO, ZERO), 0) == 0

    def test_matches_wreath_on_sample(self):
        """Two lamps, shifts in [-2, 2], cursor in [-3, 3]."""
        shifts = range(-2, 3)
        for d1, d2 in itertools.product(shifts, repeat=2):
            for c1, c2 in ((1, 1), (1, -1), (2, 0)):
                p1 = poly((d1, c1))
                p2 = poly((d2, c2)) if c2 else ZERO
                v = SupportVector(p1, p2)
                for z in range(-3, 4):
                    assert ll_length(v, z) == wreath_oracle(v, z)

    def test_wreath_group_matches_oracle(self):
        g = WreathZ2Z()
        w = Word.parse("a c b c c- a-", g.alphabet)
        lamps, cur = g.evaluate(w)
        assert cur == 1
        v = SupportVector(
            LaurentPoly.from_terms((p, lv[0]) for p, lv in lamps if lv[0]),
            LaurentPoly.from_terms((p, lv[1]) for p, lv in lamps if lv[1]))
        assert wreath_oracle(v, cur) <= len(w)

    def test_oracle_matches_ball_at_radius_6(self):
        """The pruned search gives the full-ball distance of every element."""
        index = ball(WreathZ2Z(), 6)
        assert len(index) == 8113
        for (lamps, cur), d in index.table.items():
            v = SupportVector(
                LaurentPoly.from_terms((p, lv[0]) for p, lv in lamps if lv[0]),
                LaurentPoly.from_terms((p, lv[1]) for p, lv in lamps if lv[1]))
            assert wreath_oracle(v, cur) == d, (lamps, cur)


def rows_digest(rows):
    """sha256 of the bdiff_gap rows, one "i,j,z,d,norm,gap" line each."""
    text = "".join("%d,%d,%d,%d,%d,%d\n" % (e + (d, n, g)) for e, d, n, g in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class TestAbsNorm:
    def test_identity(self):
        assert abs_norm((0, 0, 0), R_FIX) == 0

    def test_generator(self):
        assert abs_norm((1, 0, 0), R_FIX) == 1

    def test_conjugated_generator(self):
        assert abs_norm((2, 1, 0), R_FIX) == 3

    def test_bdiff_radius_9(self, sol_ball9):
        report = bdiff_gap(R_FIX, sol_ball9)
        assert report.elements_checked == 15547 and report.skipped == 0
        assert report.max_gap == 4
        by_elem = {r[0]: r for r in report.rows}
        assert by_elem[(0, 0, 0)][3] == 0
        for _e, d, norm, gap in report.rows:
            assert norm - d == gap >= 0
        assert rows_digest(report.rows) == \
            "ebe63944dc8770994e6e84ca964fa0ae850d3777a607bfe98e92fafb34d6d549"

    def test_bdiff_skew_radius_6(self):
        # The skewed matrix's window constant is 50: its sweep is the
        # support search's stress case.
        R = HypMatrix(R_SKEW)
        report = bdiff_gap(R, ball(SolGroup(R), 6))
        assert report.elements_checked == 7175 and report.skipped == 0
        assert report.max_gap == 12
        assert rows_digest(report.rows) == \
            "dd318b2af872b8d4afef4b63c7e1704806b811c040f3935893c550f2b5e8f47d"

    def test_bdiff_gap_stable_across_radii(self, sol_ball9):
        report = bdiff_gap(R_FIX, sol_ball9)
        for r in (7, 8, 9):
            assert max(g for _e, d, _n, g in report.rows if d <= r) == 4


def reference_extents(z, R, l_cap=24):
    """Extents read off every minimal support that minimal_reps builds."""
    return frozenset(_extent(v) for v in minimal_reps(z, R, l_cap))


def reference_bdiff_gap(R, index, l_cap):
    """bdiff_gap's report with each norm taken from the full minimal supports."""
    rows, skipped = [], 0
    for e, d in index.items_sorted():
        try:
            extents = reference_extents((e[0], e[1]), R, l_cap)
        except CapExceeded:
            skipped += 1
            continue
        norm = min(_sweep_length(t, -e[2]) for t in extents)
        if norm < d:
            raise ClaimViolation("reference norm %d below %d at %r" % (norm, d, e))
        rows.append((e, d, norm, norm - d))
    return BdiffReport(rows=tuple(rows), max_gap=max(r[3] for r in rows),
                       elements_checked=len(rows), skipped=skipped)


class TestMinimalExtents:
    # The skewed matrix's window constant is 50, so its box stays small:
    # |x|, |y| <= 4 already holds minimal lengths 0 to 5, while <= 12
    # fills over four million reach entries.
    @pytest.mark.parametrize("rows, box", [([[2, 1], [1, 1]], 12), (R_DETM1, 12),
                                           (R_SKEW, 4)], ids=["fix", "detm1", "skew"])
    def test_equal_the_extents_of_minimal_reps(self, rows, box):
        R = HypMatrix(rows)
        for z in itertools.product(range(-box, box + 1), repeat=2):
            assert _minimal_extents(z, R, 24) == reference_extents(z, R), z

    def test_cap_exceeded_exactly_where_minimal_reps_raises(self):
        R = HypMatrix(R_FIX.rows)
        for z in itertools.product(range(-6, 7), repeat=2):
            for cap in range(5):
                try:
                    want = reference_extents(z, R, cap)
                except CapExceeded:
                    with pytest.raises(CapExceeded):
                        _minimal_extents(z, R, cap)
                else:
                    assert _minimal_extents(z, R, cap) == want, (z, cap)

    @pytest.mark.parametrize("rows, radius, l_cap, skipped", [
        ([[2, 1], [1, 1]], 8, 3, 328), ([[2, 1], [1, 1]], 8, None, 0), (R_SKEW, 5, None, 0),
    ], ids=["fix_r8_cap3", "fix_r8", "skew_r5"])
    def test_bdiff_gap_matches_the_support_reference(self, rows, radius, l_cap, skipped):
        R = HypMatrix(rows)
        index = ball(SolGroup(R), radius)
        report = bdiff_gap(R, index, l_cap)
        assert report.skipped == skipped
        assert report == reference_bdiff_gap(R, index, radius if l_cap is None else l_cap)

    def test_bdiff_gap_refuses_a_negative_cap(self):
        # No support fits a negative cap, not even the identity's empty one.
        index = ball(SolGroup(R_FIX), 3)
        with pytest.raises(DeadendError, match="cap must be >= 0, got -1"):
            bdiff_gap(R_FIX, index, -1)
        report = bdiff_gap(R_FIX, index, 0)
        assert report.rows[0] == ((0, 0, 0), 0, 0, 0)
        assert (report.elements_checked, report.skipped) == (7, 96)

    def test_extents_memo_counts_against_the_budget(self, monkeypatch):
        z = (7, 3)
        R = HypMatrix(R_FIX.rows)
        want = _minimal_extents(z, R, 24)
        search = R._support_search
        reach, ext = len(search.reach_memo), len(search.extents_memo)
        assert ext >= 2 and not search.reps_memo
        # The reach entries alone fit in the budget; the extents push past it.
        monkeypatch.setenv("DEADEND_BUDGET", str(reach + ext - 1))
        R = HypMatrix(R_FIX.rows)
        with pytest.raises(ResourceCap, match="support memo"):
            _minimal_extents(z, R, 24)
        assert len(R._support_search.reach_memo) < reach + ext - 1
        monkeypatch.setenv("DEADEND_BUDGET", str(reach + ext))
        assert _minimal_extents(z, HypMatrix(R_FIX.rows), 24) == want

    @pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, R_SKEW],
                             ids=["fix", "detm1", "skew"])
    def test_level_two_matches_the_unit_loop(self, rows):
        R = HypMatrix(rows)
        search = _support_search(R)
        units = listed_units(R)
        for z in itertools.product(range(-12, 13), repeat=2):
            one = z == (0, 0) or z in units
            assert search.reach(*z, 1) == one, z
            two = one or any((z[0] - ux, z[1] - uy) in units for ux, uy in units)
            assert search.reach(*z, 2) == two, z

    def test_each_window_computed_once(self, monkeypatch):
        # reach stores a yes as its window, extents and reps read it back,
        # and level 1 takes no window for a unit already in a strip table.
        calls = []
        window = _SupportSearch.window

        def counted(search, x, y, l):
            calls.append((x, y, l))
            return window(search, x, y, l)

        monkeypatch.setattr(_SupportSearch, "window", counted)
        R = HypMatrix(R_FIX.rows)
        report = bdiff_gap(R, ball(SolGroup(R), 8))
        assert report.max_gap == 4 and report.skipped == 0
        assert len(calls) <= len(set(calls))
        search = R._support_search
        assert (len(search.reach_memo), len(search.extents_memo)) == (4148, 2416)

    @pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, [[-1, -1], [1, 2]]],
                             ids=["fix", "detm1", "shift2"])
    def test_unit_extents_list_every_degree(self, rows):
        # R_DETM1 has R e_2 = e_1 and [[-1, -1], [1, 2]] has R^2 e_1 = e_2, so
        # a unit there equals units at two degrees; level 1 must list both.
        R = HypMatrix(rows)
        search = _support_search(R)
        units = {}
        for a in range(-14, 15):
            for i in (0, 1):
                for s in (1, -1):
                    u = (s * R.power(a)[0][i], s * R.power(a)[1][i])
                    units.setdefault(u, set()).add(a)
        assert any(len(ks) > 1 for ks in units.values()) == (R != R_FIX)
        for (x, y), ks in units.items():
            if min(abs(k) for k in ks) > 10:
                continue  # a degree past 14 could equal it too
            want = frozenset((max(k, 0), min(k, 0)) for k in ks)
            assert search.reach(x, y, 1)
            assert search.extents(x, y, 1) == want, (x, y)


def listed_units(R):
    """The units +-R^a e_i with |a| <= 15, listed without the sieve."""
    return {(s * R.power(a)[0][i], s * R.power(a)[1][i])
            for a in range(-15, 16) for i in (0, 1) for s in (1, -1)}


def sieve_passes(search, x, y, l):
    """Whether (x, y) passes the residue sieve of level l, 1 or 2."""
    m, residues = search.sieve(l)
    return x % m * m + y % m in residues


class TestResidueSieve:
    @pytest.mark.parametrize("rows", [R_FIX.rows, R_DETM1, R_SKEW, [[-2, 1], [1, -1]],
                                      [[2, 1], [1, 0]]],
                             ids=["fix", "detm1", "skew", "neg_tr", "tr2_detm1"])
    def test_every_sum_of_two_units_passes(self, rows):
        R = HypMatrix(rows)
        search = _support_search(R)
        assert search._mod > 1
        units = listed_units(R)
        assert sieve_passes(search, 0, 0, 2)
        for ux, uy in units:
            assert sieve_passes(search, ux, uy, 1), (ux, uy)
            for vx, vy in units:
                assert sieve_passes(search, ux + vx, uy + vy, 2), (ux, uy, vx, vy)

    def test_rejects_the_unreachable_box_vectors(self):
        search = _support_search(R_FIX)
        assert search._mod == 1364
        assert [len(r) for r in search._residues] == [60, 1501]
        box = list(itertools.product(range(-12, 13), repeat=2))
        unreachable = [z for z in box if not search.reach(*z, 2)]
        assert len(unreachable) == 416
        assert not any(sieve_passes(search, *z, 2) for z in unreachable)
        # A sieved answer takes no memo entry.
        assert not any(z + (2,) in search.reach_memo for z in unreachable)

    def test_level_one_looks_past_the_sieve(self):
        # u + (m, 0) has the residue of the unit u, but is no unit itself.
        search = _support_search(R_FIX)
        units = listed_units(R_FIX)
        m = search._mod
        small = [(ux, uy) for ux, uy in units if abs(ux) <= 12 and abs(uy) <= 12]
        assert len(small) == 24
        for ux, uy in small:
            z = (ux + m, uy)
            assert sieve_passes(search, *z, 1) and z not in units
            assert not search.reach(*z, 1), z

    def test_modulus_above_one_on_every_small_matrix(self):
        mats = admissible_matrices(-6, 6)
        assert len(mats) == 504
        for rows in mats:
            assert _support_search(HypMatrix(rows))._mod > 1, rows


def float_greedy_digits(n, R):
    """The digits of the float greedy integer_expansion replaced: powers up
    to a float log estimate, k = round(rem / p_m) clamped to floor(|tau|)."""
    tr, (p, r) = R.trace, R.rows[0]
    disc = math.sqrt(tr * tr - 4 * R.det)
    tau = (tr + disc) / 2.0 if tr >= 0 else (tr - disc) / 2.0
    # Eigenvectors (r, lam - p); r != 0 for every admissible R.
    v_e, v_c = (r, tau - p), (r, R.det / tau - p)
    at = abs(tau)
    det = v_e[0] * v_c[1] - v_e[1] * v_c[0]
    p_e = v_c[1] / det * v_e[0]
    p_c = -v_e[1] / det * v_c[0]
    kmax = max(1, int(math.floor(at)))
    digits = {}
    rem = n
    while rem != 0:
        m_hi = int(math.log((abs(rem) + abs(p_c)) / abs(p_e)) / math.log(at)) + 2
        m = 0
        for j in range(m_hi + 1):
            pj = R.power(j)[0][0]
            if pj != 0 and abs(pj) <= abs(rem):
                m = j
        p_m = R.power(m)[0][0]
        k = max(-kmax, min(kmax, -round(rem / p_m)))
        if k == 0:
            k = -1 if rem * p_m > 0 else 1
        rem += k * p_m
        digits[m] = (p_m, digits.get(m, (p_m, 0))[1] - k)
    return tuple((m, pv, mult) for m, (pv, mult) in sorted(digits.items()) if mult)


def admissible_matrices(lo, hi):
    """Every admissible matrix with entries in [lo, hi]."""
    out = []
    for p, r, q, s in itertools.product(range(lo, hi + 1), repeat=4):
        det, tr = p * s - q * r, p + s
        if (det == 1 and abs(tr) >= 3) or (det == -1 and abs(tr) >= 1):
            out.append([[p, r], [q, s]])
    return out


class TestExpansion:
    def test_zero(self):
        rep = integer_expansion(0, R_FIX)
        assert rep.digits == () and rep.length == 0 == rep.bound

    def test_one(self):
        rep = integer_expansion(1, R_FIX)
        assert rep.digits == ((0, 1, 1),) and rep.length == 1

    def test_hundred(self):
        """Entries 1, 2, 5, 13, 34, 89 are <= 100 and 233 is next:
        bound 2 + 5 * 3."""
        rep = integer_expansion(100, R_FIX)
        assert rep.digits == ((0, 1, 1), (2, 5, 2), (5, 89, 1))
        assert sum(pv * mult for _m, pv, mult in rep.digits) == 100
        assert rep.length == 4 and rep.bound == 17

    def test_exact_and_logarithmic_on_range(self):
        for n in range(-300, 301):
            rep = integer_expansion(n, R_FIX)
            assert sum(pv * mult for _m, pv, mult in rep.digits) == n
            assert rep.length <= rep.bound

    def test_powers_are_first_row_entries(self):
        rep = integer_expansion(12345, R_FIX)
        for m, pv, _mult in rep.digits:
            assert R_FIX.power(m)[0][0] == pv
        assert rep.bound == 32

    @pytest.mark.parametrize("rows", [[[2, 1], [1, 1]], R_DETM1, R_SKEW,
                                      [[2, 1], [1, 0]], [[3, 1], [2, 1]]],
                             ids=["fix", "detm1", "skew", "tr3_detm1", "tr4"])
    def test_digits_match_the_float_greedy(self, rows):
        R = HypMatrix(rows)
        for n in range(-10 ** 4, 10 ** 4 + 1):
            assert integer_expansion(n, R).digits == float_greedy_digits(n, R), n

    def test_far_past_float_range(self):
        n = 10 ** 400
        rep = integer_expansion(n, R_FIX)
        assert sum(pv * mult for _m, pv, mult in rep.digits) == n
        assert (rep.length, rep.bound) == (641, 2873)

    def test_every_small_matrix(self):
        mats = admissible_matrices(-4, 4)
        assert len(mats) == 200
        for rows in mats:
            R = HypMatrix(rows)
            for n in range(-100, 101):
                rep = integer_expansion(n, R)
                assert sum(pv * mult for _m, pv, mult in rep.digits) == n, (rows, n)
                assert rep.length <= rep.bound, (rows, n)


class TestDistort:
    def test_zero_vector(self):
        assert distort_witness((0, 0), 2, R_FIX) == Word(())

    def test_example_vector(self, sol_group):
        w = distort_witness((5, -2), 2, R_FIX)
        assert len(w) == 7 <= 15
        assert sol_group.evaluate(w) == (5, -2, 0)

    def test_out_of_box(self):
        with pytest.raises(OutOfBox):
            distort_witness((5, -2), 1, R_FIX)

    def test_full_box_sweep_m2(self, sol_group):
        worst = 0
        for x in range(-8, 9):
            for y in range(-8, 9):
                w = distort_witness((x, y), 2, R_FIX)
                assert sol_group.evaluate(w) == (x, y, 0)
                worst = max(worst, len(w))
        assert worst == 14 <= 2 ** 3 + 4 * 2 - 1

    @pytest.mark.parametrize("rows,per_level", [([[1, 1], [1, 0]], 8),
                                                ([[2, 1], [1, 0]], 8),
                                                ([[3, 1], [2, 1]], 4)])
    def test_small_trace_variants(self, rows, per_level):
        R = HypMatrix(rows)
        g = SolGroup(R)
        m = 2
        bound = 2 ** (m + 1) + per_level * m - 1
        rng = random.Random(3)
        from deadends.sol import _base_relation
        B, _ = _base_relation(R)
        box = B ** m
        for _ in range(40):
            x, y = rng.randrange(-box + 1, box), rng.randrange(-box + 1, box)
            w = distort_witness((x, y), m, R)
            assert g.evaluate(w) == (x, y, 0)
            assert len(w) <= bound


class TestDeepPockets:
    def test_scan_below_the_radius(self, sol_group, sol_ball13):
        """Every Sol dead end at d < 13 of depth >= 3 gets its exact depth,
        and the same table cut to B(12) gives the same reports: its d = 12
        rows meet every farther element outside the table."""
        rows = deadend_scan(sol_ball13, 3, cap=6)
        assert len(rows) == 52
        assert {(r.distance_from_identity, r.depth, r.exceeds_cap) for r in rows} == \
            {(11, 3, False), (12, 3, False)}
        assert sum(r.distance_from_identity == 11 for r in rows) == 16
        assert (12, 0, 0) in [r.element for r in rows]
        rim = BallIndex(sol_group, 12,
                        {e: d for e, d in sol_ball13.table.items() if d <= 12},
                        {d: c for d, c in sol_ball13.spheres.items() if d <= 12})
        assert rows == [depth(rim, r.element, 6) for r in rows]
        assert all(r.witness not in rim for r in rows if r.distance_from_identity == 12)
