"""Heisenberg normal forms, witness words, and the deep-element family."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadends import heis
from deadends.core import OutOfBox, Word
from deadends.heis import (
    _SYMMETRIES,
    ClosedFormIndex,
    HeisFamilyRow,
    dd_witness,
    heis_family,
    heis_inverse,
    heis_mul,
    heis_step,
    nd_witness,
    nh_box,
    rederived_depth_bound,
    word_area_normal,
    word_length,
)
from deadends.core import DeadendError
from deadends.search import (
    BallIndex,
    ClaimViolation,
    InsufficientRadius,
    NotInBall,
    SplitIndex,
    ball,
    depth,
)

A, B = (0, 1), (1, 1)


def heis_words():
    return st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
        max_size=12).map(lambda ls: Word(tuple(ls)))


class TestNormalForm:
    def test_commutator_is_central_generator(self):
        w = Word(((0, -1), (1, -1), (0, 1), (1, 1)))
        assert word_area_normal(w) == (0, 0, 1)

    def test_ba(self):
        assert word_area_normal(Word((B, A))) == (1, 1, -1)

    def test_mul_matches_step(self, heis_group):
        e = (2, -1, 3)
        for letter in heis_group.alphabet.signed_letters():
            idx, s = letter
            gen = (1, 0, 0) if idx == 0 else (0, 1, 0)
            if s < 0:
                gen = heis_inverse(gen)
            assert heis_step(e, letter) == heis_mul(e, gen)

    def test_inverse(self):
        e = (3, -2, 7)
        assert heis_mul(e, heis_inverse(e)) == (0, 0, 0)
        assert heis_mul(heis_inverse(e), e) == (0, 0, 0)

    @given(heis_words())
    def test_path_area_agrees_with_letter_recursion(self, heis_group, w):
        assert word_area_normal(w) == heis_group.evaluate(w)

    @given(heis_words(), heis_words())
    def test_mul_is_evaluation_of_concatenation(self, heis_group, u, v):
        lhs = heis_mul(heis_group.evaluate(u), heis_group.evaluate(v))
        assert lhs == heis_group.evaluate(u + v)


BIG = 10 ** 6
# the second shape keeps z = k + ij near ij, where the minimum over the
# rectangle is interior rather than at W = ceil(z / y)
big_elements = st.one_of(
    st.tuples(*[st.integers(-BIG, BIG)] * 3),
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-BIG, BIG)))


class TestWordLength:
    # the ball is the independent oracle; past any ball, three properties
    # pin the word metric down: 0 at the identity, every neighbour one
    # step off, and a neighbour one step nearer everywhere else
    def test_equals_the_ball(self, heis_group, heis_ball22):
        assert len(heis_ball22) == 99_689
        outside = set()
        for e, d in heis_ball22.table.items():
            assert word_length(e) == d, e
            if d == 22:
                outside.update(n for n in heis_group.neighbours(e) if n not in heis_ball22)
        assert outside and {word_length(e) for e in outside} == {23}

    def test_index_reads_like_the_ball(self, heis_ball22):
        index = ClosedFormIndex(22)
        assert (index.radius, index.group.render((1, 2, 3))) == (22, "(1,2,3)")
        assert index.get((0, 0, 5)) == index.distance((0, 0, 5)) == 10
        far = (0, 0, 31)  # 2 * ceil(2 sqrt(31)) = 24
        assert word_length(far) == 24
        assert index.get(far) is None and index.get(far, 23) == 23
        with pytest.raises(NotInBall) as from_ball:
            heis_ball22.distance(far)
        with pytest.raises(NotInBall) as from_closed_form:
            index.distance(far)
        assert str(from_closed_form.value) == str(from_ball.value) == \
            "element (0,0,31) not within radius 22"

    def test_negative_radius_is_refused(self):
        with pytest.raises(DeadendError, match="radius must be nonnegative"):
            ClosedFormIndex(-1)

    def test_identity(self, heis_group):
        assert word_length(heis_group.identity) == 0

    @settings(max_examples=2000)
    @given(big_elements)
    def test_neighbours_one_step_off_and_one_nearer(self, heis_group, e):
        d = word_length(e)
        steps = [word_length(n) - d for n in heis_group.neighbours(e)]
        assert set(steps) <= {-1, 1}
        assert -1 in steps or e == heis_group.identity

    @settings(max_examples=2000)
    @given(big_elements)
    def test_invariant_under_inverse_and_symmetries(self, e):
        d = word_length(e)
        assert word_length(heis_inverse(e)) == d
        assert {word_length(sym.on_element(e)) for sym in _SYMMETRIES} == {d}

    @given(st.integers(1, 1000))
    def test_family_distance(self, n):
        assert word_length((0, 0, n * n + 1)) == 4 * n + 2 == len(dd_witness(n))


class TestSymmetries:
    @given(st.sampled_from(_SYMMETRIES), heis_words())
    def test_word_action_covers_element_action(self, sym, w):
        assert word_area_normal(sym.on_word(w)) == sym.on_element(word_area_normal(w))

    @given(st.sampled_from(_SYMMETRIES), heis_words())
    def test_word_action_preserves_length(self, sym, w):
        assert len(sym.on_word(w)) == len(w)

    def test_inverses_compose_to_identity(self):
        for sym in _SYMMETRIES:
            inv = sym.inverse()
            for e in ((1, 0, 0), (0, 1, 0), (2, -3, 5)):
                assert inv.on_element(sym.on_element(e)) == e

    @given(st.sampled_from(_SYMMETRIES), heis_words())
    def test_inverse_undoes_word_action(self, sym, w):
        assert sym.inverse() in _SYMMETRIES
        assert sym.inverse().on_word(sym.on_word(w)) == w

    def test_every_short_word_exhaustively(self):
        # the reduced walk in rederived_depth_bound rests on these three facts
        letters = ((0, 1), (0, -1), (1, 1), (1, -1))
        words = [Word(ls) for size in range(7) for ls in itertools.product(letters, repeat=size)]
        assert len(words) == 5461
        for sym in _SYMMETRIES:
            inv = sym.inverse()
            for w in words:
                image = sym.on_word(w)
                assert len(image) == len(w)
                assert word_area_normal(image) == sym.on_element(word_area_normal(w))
                assert inv.on_word(image) == w


class TestWitnesses:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_dd_witness(self, n):
        w = dd_witness(n)
        assert len(w) == 4 * n + 2
        assert word_area_normal(w) == (0, 0, n * n + 1)

    def test_dd_witness_rejects_n0(self):
        with pytest.raises(OutOfBox):
            dd_witness(0)

    def test_nd_box_exhaustive_n2(self):
        n = 2
        for i in range(-n - 1, n + 2):
            for j in range(-n - 1, n + 2):
                for k in range(-n * (n + 1) + 1, n * (n + 1)):
                    w = nd_witness(i, j, k, n)
                    assert len(w) <= 4 * n + 2
                    assert word_area_normal(w) == (i, j, k)
                    assert w.free_reduce() == w

    @pytest.mark.parametrize("bad", [(4, 0, 0), (0, -4, 0), (0, 0, 6)])
    def test_nd_witness_box_boundary(self, bad):
        with pytest.raises(OutOfBox):
            nd_witness(*bad, 2)

    def test_nh_box_contains_letter_perturbations(self, heis_group):
        n = 3
        pred, bounds = nh_box(2, n)
        g = (0, 0, n * n + 1)
        for l1 in heis_group.alphabet.signed_letters():
            e1 = heis_step(g, l1)
            assert pred(e1)
            for l2 in heis_group.alphabet.signed_letters():
                assert pred(heis_step(e1, l2))
        assert bounds == (2, 2, 11)

    def test_nh_box_rejects_bad_args(self):
        with pytest.raises(OutOfBox):
            nh_box(-1, 3)
        with pytest.raises(OutOfBox):
            nh_box(2, 0)


def box_radius(n):
    """Largest m <= n + 1 with m(m-1) <= 2n - 4."""
    return max(m for m in range(n + 2) if m * (m - 1) <= 2 * n - 4)


def full_box_depth_bound(n):
    """rederived_depth_bound walking the whole m-box, one word per element."""
    m = box_radius(n)
    _pred, (ib, jb, kb) = nh_box(m, n)
    for i in range(-ib, ib + 1):
        for j in range(-jb, jb + 1):
            for k in range(-kb, kb + 1):
                nd_witness(i, j, k, n)
    return m + 1


def walked_elements(n, monkeypatch):
    """The elements rederived_depth_bound builds a witness word for."""
    walked = []

    def recording(i, j, k, n):
        walked.append((i, j, k))
        return nd_witness(i, j, k, n)

    with monkeypatch.context() as patch:
        patch.setattr(heis, "nd_witness", recording)
        rederived_depth_bound(n)
    return walked


class TestFamily:
    def test_rederived_bounds(self):
        assert {n: rederived_depth_bound(n) for n in range(3, 9)} == \
            {3: 3, 4: 3, 5: 4, 6: 4, 7: 4, 8: 5}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rederived_matches_full_box_walk(self, n):
        assert rederived_depth_bound(n) == full_box_depth_bound(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_walk_covers_the_box_up_to_symmetry(self, n, monkeypatch):
        walked = walked_elements(n, monkeypatch)
        walked_set = set(walked)
        assert len(walked_set) == len(walked)
        _pred, (ib, jb, kb) = nh_box(box_radius(n), n)
        for e in itertools.product(range(-ib, ib + 1), range(-jb, jb + 1), range(-kb, kb + 1)):
            assert any(sym.on_element(e) in walked_set for sym in _SYMMETRIES), e

    def test_walked_counts(self, monkeypatch):
        counts = {n: len(walked_elements(n, monkeypatch)) for n in range(3, 7)}
        assert counts == {3: 108, 4: 171, 5: 480, 6: 656}

    def test_rederived_rejects_small_n(self):
        with pytest.raises(OutOfBox):
            rederived_depth_bound(2)

    def test_n3_row(self, heis_group, heis_ball22):
        row = heis_family(3, heis_ball22)
        assert row == HeisFamilyRow(3, 14, 3, 3, 7, False)

    def test_n4_row_hits_cap(self, heis_group, heis_ball22):
        row = heis_family(4, heis_ball22)
        assert (row.n, row.distance, row.depth_lower_bound) == (4, 18, 3)
        assert row.bfs_depth == 5 and row.bfs_depth_exceeds_cap

    def test_cap_short_of_the_bound_is_insufficient_radius(self, heis_ball26):
        # cap 1 finds nothing farther, so it certifies only depth >= 2 < 4
        with pytest.raises(InsufficientRadius, match="n=6.*capped at 1.*radius >= 29"):
            heis_family(6, heis_ball26, cap=1)

    def test_cap_zero_is_insufficient_radius_without_a_search(self, heis_group, monkeypatch):
        monkeypatch.setattr(heis, "depth", None)  # any call would fail
        with pytest.raises(InsufficientRadius, match=re.escape(
                "n=6: depth search capped at 0 certifies only depth >= 1, "
                "below bound 4; need radius >= 29")):
            heis_family(6, SplitIndex(ball(heis_group, 22), 4), cap=0)

    def test_witness_inside_a_short_cap_still_convicts(self, heis_group):
        # a doctored table puts a neighbour of (0,0,10) farther out, so the
        # cap-1 search finds a witness at depth 1 < 3: a failed claim, not a
        # short radius
        index = ball(heis_group, 14)
        table = dict(index.table)
        table[heis_step((0, 0, 10), A)] = 15
        doctored = BallIndex(heis_group, 14, table, index.spheres)
        with pytest.raises(ClaimViolation, match="depth of .* is 1, below bound 3"):
            heis_family(3, doctored, cap=1)

    def test_family_rejects_small_n(self, heis_ball22):
        with pytest.raises(OutOfBox):
            heis_family(2, heis_ball22)

    @pytest.mark.parametrize("n, expected", [(3, 7), (4, 7), (5, 9), (6, 9)])
    def test_closed_form_depths_equal_the_ball(self, heis_group, heis_ball22,
                                               heis_ball26, n, expected):
        # exact depths: neither search reaches its cap of 12
        full = heis_ball22 if n <= 5 else heis_ball26
        g = (0, 0, n * n + 1)
        rep = depth(heis_group, g, ClosedFormIndex(4 * n + 2), cap=12)
        assert rep == depth(heis_group, g, full, cap=12)
        assert (rep.depth, rep.exceeds_cap) == (expected, False)
