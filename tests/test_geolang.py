"""Geodesic automata: verification, pumping, and the depth cap."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deadends.abelian import WeightedGenSet, WeightedZnGroup, standard_zn
from deadends.core import DeadendError, GenAlphabet, UnknownLetter, Word
from deadends.geolang import (
    Dfa,
    FreeGroup,
    SoundnessUnverified,
    TooShort,
    _suffix_to_accept,
    builtin_dfas,
    depth_bound_check,
    dfa_accepts,
    dfa_run,
    extend_geodesic,
    free_reduced_dfa,
    pump_decompose,
    verify_language,
    zn_sorted_dfa,
)
from deadends.search import BallIndex, NotInBall, ball

AB = GenAlphabet(("a", "b"))


def loop_dfa():
    """Accepts (a|a-)*: not geodesic over Z^2, revisits product states."""
    return Dfa(1, 0, frozenset({0}),
               {(0, (0, 1)): 0, (0, (0, -1)): 0}, AB)


def detour_dfa():
    """Accepts exactly 'a a- b': every product state is fresh, still unsound."""
    return Dfa(4, 0, frozenset({3}),
               {(0, (0, 1)): 1, (1, (0, -1)): 2, (2, (1, 1)): 3}, AB)


def quadrant_dfa():
    """Accepts a^i b^j with i, j >= 0: sound over Z^2 but far from onto."""
    return Dfa(3, 0, frozenset({0, 1, 2}),
               {(0, (0, 1)): 1, (1, (0, 1)): 1,
                (0, (1, 1)): 2, (1, (1, 1)): 2, (2, (1, 1)): 2}, AB)


def prefixed_loop_dfa():
    """Accepts b b (a|a-)*: the revisit that convicts it sits below a prefix."""
    return Dfa(3, 0, frozenset({2}),
               {(0, (1, 1)): 1, (1, (1, 1)): 2, (2, (0, 1)): 2, (2, (0, -1)): 2}, AB)


def staircase_dfa():
    """Accepts exactly 'a b a b a-': fresh states up a staircase, then a step back."""
    return Dfa(6, 0, frozenset({5}),
               {(0, (0, 1)): 1, (1, (1, 1)): 2, (2, (0, 1)): 3, (3, (1, 1)): 4,
                (4, (0, -1)): 5}, AB)


def diamond_dfa():
    """Accepts 'a b' and 'b a': two geodesics meet in one product state."""
    return Dfa(4, 0, frozenset({3}),
               {(0, (0, 1)): 1, (0, (1, 1)): 2, (1, (1, 1)): 3, (2, (0, 1)): 3}, AB)


def dead_state_dfa():
    """Accepts e, a^i and a^i b^j (i, j >= 1); 'a a-' enters dead state 3.

    State 3 loops on a and b but never accepts, so trimming drops it: left
    in, its arrival at (0,0) at depth 2 would convict a sound language.  No
    move leaves state 0 on a- or b, and none leaves state 2 on a.
    """
    return Dfa(4, 0, frozenset({0, 1, 2}),
               {(0, (0, 1)): 1, (1, (0, 1)): 1, (1, (1, 1)): 2, (2, (1, 1)): 2,
                (1, (0, -1)): 3, (3, (0, 1)): 3, (3, (1, 1)): 3}, AB)


def nonempty_sorted_dfa():
    """The sorted Z^2 geodesics without the empty word: misses only (0,0)."""
    dfa = zn_sorted_dfa(2)
    return Dfa(dfa.n_states, dfa.start, dfa.accept - {dfa.start}, dfa.trans, dfa.alphabet)


def reference_verify(dfa, group, index):
    """The product-table search verify_language replaced, kept as an oracle.

    Breadth-first search over (state, element) pairs with a parent table;
    a revisit at a larger depth convicts.  Returns (sound, complete,
    words_checked, elements_covered, counterexample_word,
    counterexample_element).
    """
    # the co-accessible states, by a backward walk of its own
    rev = {}
    for (s, _lt), s2 in dfa.trans.items():
        rev.setdefault(s2, set()).add(s)
    alive = set(dfa.accept)
    frontier = list(alive)
    while frontier:
        for p in rev.get(frontier.pop(), ()):
            if p not in alive:
                alive.add(p)
                frontier.append(p)
    suffixes = _suffix_to_accept(dfa)
    assert set(suffixes) == alive  # verify_language takes these keys as its live states
    moves = {s: [(lt, s2) for lt in dfa.alphabet.signed_letters()
                 if (s2 := dfa.step(s, lt)) in alive] for s in alive}
    table = index.table
    sound, words_checked, counter_word, covered = True, 0, None, set()
    if dfa.start in alive:
        start = (dfa.start, group.identity)
        seen = {start: (0, None, None)}  # product state -> (depth, parent, letter)

        def word_to(node):
            out = []
            while node is not None:
                _d, node, lt = seen[node]
                if lt is not None:
                    out.append(lt)
            return Word(tuple(reversed(out)))

        if dfa.start in dfa.accept:
            covered.add(group.identity)
        frontier = [start]
        for d in range(1, index.radius + 1):
            nxt = []
            for node in frontier:
                s, e = node
                words_checked += len(moves[s])
                for lt, s2 in moves[s]:
                    e2 = group.apply_letter(e, lt)
                    key2 = (s2, e2)
                    dist = index.distance(e2)
                    if key2 in seen:
                        if seen[key2][0] < d and sound:
                            sound = False
                            counter_word = word_to(node) + Word((lt,)) + suffixes[s2]
                        continue
                    seen[key2] = (d, node, lt)
                    if dist != d:
                        if sound:
                            sound = False
                            counter_word = word_to(key2) + suffixes[s2]
                        continue
                    if s2 in dfa.accept:
                        covered.add(e2)
                    nxt.append(key2)
            frontier = nxt
    uncovered = [(d, e) for e, d in table.items() if e not in covered]
    element = group.render(min(uncovered)[1]) if uncovered else None
    return (sound, not uncovered, words_checked, len(covered), counter_word, element)


def random_dfa(rng, alphabet):
    """A partial automaton with 1-7 states, random accepts and transitions."""
    n = rng.randint(1, 7)
    accept = frozenset(s for s in range(n) if rng.random() < 0.5)
    trans = {(s, lt): rng.randrange(n) for s in range(n)
             for lt in alphabet.signed_letters() if rng.random() < 0.5}
    return Dfa(n, 0, accept, trans, alphabet)


def has_non_geodesic_prefix(group, index, w):
    """Some prefix of w within the radius is longer than its distance."""
    e = group.identity
    for k, lt in enumerate(w.letters[:index.radius], 1):
        e = group.apply_letter(e, lt)
        if index.distance(e) < k:
            return True
    return False


def diagonal_z2():
    """Unit-weight Z^2 on (1,0), (0,1), (1,1): edges join equal spheres."""
    return WeightedZnGroup(WeightedGenSet(2, (((1, 0), 1), ((0, 1), 1), ((1, 1), 1))))


class TestDfa:
    def test_validation(self):
        with pytest.raises(DeadendError):
            Dfa(1, 1, frozenset(), {}, AB)
        with pytest.raises(DeadendError):
            Dfa(1, 0, frozenset({2}), {}, AB)
        with pytest.raises(DeadendError):
            Dfa(1, 0, frozenset({0}), {(0, (0, 1)): 5}, AB)
        with pytest.raises(DeadendError):
            Dfa(1, 0, frozenset({0}), {(0, (7, 1)): 0}, AB)

    def test_run_trace_stops_at_rejection(self):
        dfa = free_reduced_dfa(2)
        final, trace = dfa_run(dfa, Word.parse("a a-", dfa.alphabet))
        assert final is None
        assert len(trace) == 2 and trace[0] == dfa.start

    def test_accepts(self):
        dfa = free_reduced_dfa(2)
        assert dfa_accepts(dfa, Word.parse("a b a-", dfa.alphabet))
        assert not dfa_accepts(dfa, Word.parse("a a- b", dfa.alphabet))

    def test_json_round_trip_uses_inverse_tokens(self):
        dfa = free_reduced_dfa(2)
        obj = dfa.to_json_obj()
        assert any(row["letter"] == "a-" for row in obj["trans"])
        assert Dfa.from_json_obj(obj, dfa.alphabet) == dfa

    def test_json_rejects_duplicate_transition(self):
        dfa = zn_sorted_dfa(2)
        obj = dfa.to_json_obj()
        obj["trans"].append(dict(obj["trans"][0]))
        with pytest.raises(DeadendError):
            Dfa.from_json_obj(obj, dfa.alphabet)

    @given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                    max_size=10).map(lambda ls: Word(tuple(ls))))
    def test_free_dfa_accepts_exactly_reduced_words(self, w):
        dfa = free_reduced_dfa(2)
        assert dfa_accepts(dfa, w) == (w.free_reduce() == w)


class TestPump:
    def test_too_short(self):
        dfa = free_reduced_dfa(2)
        with pytest.raises(TooShort):
            pump_decompose(dfa, Word.parse("a b a b", dfa.alphabet))

    def test_rejected_word(self):
        dfa = free_reduced_dfa(2)
        with pytest.raises(DeadendError):
            pump_decompose(dfa, Word.parse("a a- a a- a", dfa.alphabet))

    def test_power_word(self):
        dfa = free_reduced_dfa(2)
        w = Word.parse("a a a a a", dfa.alphabet)
        a, b, c = pump_decompose(dfa, w)
        assert a + b + c == w and len(b) > 0
        assert len(b) + len(c) <= dfa.n_states
        assert dfa_accepts(dfa, a + b + b + c)
        # latest repeat wins: the loop is the final letter
        assert (len(a), len(b), len(c)) == (4, 1, 0)

    def test_mixed_word(self):
        dfa = zn_sorted_dfa(2)
        w = Word.parse("a a b b b", dfa.alphabet)
        a, b, c = pump_decompose(dfa, w)
        assert a + b + c == w
        assert b.letters == ((1, 1),) and len(c) == 0


class TestVerify:
    def test_builtin_f2(self):
        dfa, group = builtin_dfas()["f2_reduced"]
        index = ball(group, 6)
        report = verify_language(dfa, group, index)
        assert report.ok and report.sound and report.complete
        assert report.elements_covered == len(index) == 1457
        assert report.counterexample_word is None
        assert report.counterexample_element is None

    def test_builtin_f2_pinned_at_radius_8(self):
        dfa, group = builtin_dfas()["f2_reduced"]
        index = ball(group, 8)
        report = verify_language(dfa, group, index)
        assert report.sound and report.complete
        assert (report.words_checked, report.elements_covered) == (13120, 13121)
        assert report.counterexample_word is None
        assert report.counterexample_element is None
        assert depth_bound_check(dfa, group, index, report) == (1, 10)

    def test_builtin_z2(self):
        dfa, group = builtin_dfas()["z2_sorted"]
        index = ball(group, 6)
        report = verify_language(dfa, group, index)
        assert report.ok and report.elements_covered == 85

    def test_sorted_z4(self):
        group = standard_zn(4)
        index = ball(group, 4)
        report = verify_language(zn_sorted_dfa(4), group, index)
        assert report.sound and report.complete
        assert report.elements_covered == len(index) == 321

    def test_loop_dfa_convicted_by_revisit(self):
        group = standard_zn(2)
        index = ball(group, 4)
        report = verify_language(loop_dfa(), group, index)
        assert not report.sound and not report.ok
        w = report.counterexample_word
        assert w is not None and dfa_accepts(loop_dfa(), w)
        assert len(w) > index.distance(group.evaluate(w))

    def test_detour_dfa_convicted_on_fresh_states(self):
        group = standard_zn(2)
        report = verify_language(detour_dfa(), group, ball(group, 4))
        assert not report.sound
        w = report.counterexample_word
        assert w is not None and dfa_accepts(detour_dfa(), w)
        assert len(w) == 3 and group.evaluate(w) == (0, 1)

    def test_quadrant_dfa_sound_but_incomplete(self):
        group = standard_zn(2)
        report = verify_language(quadrant_dfa(), group, ball(group, 4))
        assert report.sound and not report.complete and not report.ok
        assert report.counterexample_element == "(-1,0)"

    def test_table_miss_raises_not_in_ball(self):
        # a table with a hole is no closed ball: the word reaching it raises
        group = standard_zn(2)
        index = ball(group, 4)
        table = {e: d for e, d in index.table.items() if e != (3, 0)}
        holed = BallIndex(group, 4, table, index.spheres)
        with pytest.raises(NotInBall, match=r"\(3,0\)"):
            verify_language(zn_sorted_dfa(2), group, holed)

    def test_table_out_of_distance_order_refused(self):
        # one pass in table order needs distance order; a shuffled complete
        # table raises rather than report on masks not yet final
        group = standard_zn(2)
        index = ball(group, 4)
        items = list(index.table.items())
        rng = random.Random(4)
        for _ in range(20):
            rng.shuffle(items)
            shuffled = BallIndex(group, 4, dict(items), index.spheres)
            with pytest.raises(DeadendError, match="distance order"):
                verify_language(zn_sorted_dfa(2), group, shuffled)

    def test_weighted_group_refused(self):
        group = WeightedZnGroup(WeightedGenSet(2, (((1, 0), 1), ((0, 1), 3))))
        with pytest.raises(DeadendError, match="weights"):
            verify_language(zn_sorted_dfa(2), group, ball(group, 11))

    def test_unknown_letter_raises(self):
        abc = GenAlphabet(("a", "b", "c"))
        dfa = Dfa(1, 0, frozenset({0}), {(0, lt): 0 for lt in abc.signed_letters()}, abc)
        group = FreeGroup(2)
        with pytest.raises(UnknownLetter, match=r"\(2, 1\) not in alphabet"):
            verify_language(dfa, group, ball(group, 3))

    def test_memory_bounded_by_ball(self):
        # one state mask per ball element: the search peaks below the ball
        dfa, group = builtin_dfas()["f2_reduced"]
        ball(group, 2)  # warm the group's caches outside the trace
        tracemalloc.start()
        try:
            index = ball(group, 8)
            ball_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = verify_language(dfa, group, index)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak <= 1.25 * ball_bytes

    @pytest.mark.parametrize("name, radius, sort", [
        ("f2_reduced", 8, False), ("z2_sorted", 40, True)], ids=["f2_b8", "z2_b40_sorted_table"])
    def test_memory_holds_no_second_copy_of_the_ball(self, name, radius, sort):
        # the masks share the table's keys: the elements that neighbours
        # builds are dropped, and the search peaks well below the ball
        dfa, group = builtin_dfas()[name]
        ball(group, 2)  # warm the group's caches outside the trace
        tracemalloc.start()
        try:
            index = ball(group, radius)
            if sort:
                table = dict(sorted(index.table.items(), key=lambda kv: (kv[1], kv[0])))
                index = BallIndex(group, radius, table, index.spheres)
            ball_bytes = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = verify_language(dfa, group, index)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak <= 0.5 * ball_bytes

    @pytest.mark.parametrize("make, sound, words, covered, word, element", [
        (loop_dfa, False, 22, 13, "a a-", "(0,-1)"),
        (detour_dfa, False, 2, 0, "a a- b", "(0,0)"),
        (quadrant_dfa, True, 27, 28, None, "(-1,0)"),
        (prefixed_loop_dfa, False, 16, 9, "b b a a-", "(0,0)"),
        (staircase_dfa, False, 5, 0, "a b a b a-", "(0,0)"),
        (diamond_dfa, True, 4, 1, None, "(0,0)"),
        (dead_state_dfa, True, 21, 22, None, "(-1,0)"),
        (nonempty_sorted_dfa, True, 84, 84, None, "(0,0)"),
    ], ids=["loop", "detour", "quadrant", "prefixed_loop", "staircase", "diamond",
            "dead_state", "nonempty_sorted"])
    def test_counterexamples_pinned(self, make, sound, words, covered, word, element):
        group = standard_zn(2)
        report = verify_language(make(), group, ball(group, 6))
        assert (report.sound, report.complete) == (sound, False)
        assert (report.words_checked, report.elements_covered) == (words, covered)
        got = report.counterexample_word
        assert (None if got is None else got.render(AB)) == word
        assert report.counterexample_element == element


    def fields(self, report):
        return (report.sound, report.complete, report.words_checked,
                report.elements_covered, report.counterexample_word,
                report.counterexample_element)

    def assert_matches_reference(self, dfa, group, index):
        got = self.fields(verify_language(dfa, group, index))
        want = reference_verify(dfa, group, index)
        assert got[:4] + got[5:] == want[:4] + want[5:]
        for w in (got[4], want[4]):
            assert (w is None) == want[0]
            if w is not None:
                assert dfa_accepts(dfa, w) and has_non_geodesic_prefix(group, index, w)

    @pytest.mark.parametrize("make", [
        loop_dfa, detour_dfa, quadrant_dfa, prefixed_loop_dfa, staircase_dfa,
        diamond_dfa, dead_state_dfa, nonempty_sorted_dfa, lambda: zn_sorted_dfa(2)])
    def test_fixtures_match_reference(self, make):
        group = standard_zn(2)
        self.assert_matches_reference(make(), group, ball(group, 6))

    def test_builtin_f2_matches_reference(self):
        dfa, group = builtin_dfas()["f2_reduced"]
        self.assert_matches_reference(dfa, group, ball(group, 5))

    @pytest.mark.parametrize("make_group, radius", [
        (lambda: standard_zn(2), 6), (lambda: FreeGroup(2), 5), (diagonal_z2, 5)],
        ids=["z2", "f2", "diagonal_z2"])
    def test_random_automata_match_reference(self, make_group, radius):
        group = make_group()
        index = ball(group, radius)
        rng = random.Random(20061)
        for _ in range(300):
            self.assert_matches_reference(random_dfa(rng, group.alphabet), group, index)


class TestExtend:
    def test_pumps_outward(self):
        dfa, group = builtin_dfas()["z2_sorted"]
        index = ball(group, 6)
        report = verify_language(dfa, group, index)
        w = Word.parse("a a b b b", dfa.alphabet)
        g2, pumped = extend_geodesic(dfa, group, w, index, report)
        assert g2 == (2, 4) and len(pumped) == 6
        assert index.distance(g2) == 6

    def test_requires_matching_sound_report(self):
        dfa, group = builtin_dfas()["z2_sorted"]
        index = ball(group, 6)
        other_dfa, other_group = builtin_dfas()["f2_reduced"]
        other_report = verify_language(other_dfa, other_group, ball(other_group, 4))
        w = Word.parse("a a b b b", dfa.alphabet)
        with pytest.raises(SoundnessUnverified):
            extend_geodesic(dfa, group, w, index, other_report)

    def test_rejects_failed_verification(self):
        group = standard_zn(2)
        index = ball(group, 4)
        bad = loop_dfa()
        report = verify_language(bad, group, index)
        assert not report.sound
        with pytest.raises(SoundnessUnverified):
            extend_geodesic(bad, group, Word.parse("a a a a", AB), index, report)


class TestDepthBound:
    def test_z2_certified(self):
        dfa, group = builtin_dfas()["z2_sorted"]
        index = ball(group, 17)
        report = verify_language(dfa, group, index)
        assert depth_bound_check(dfa, group, index, report) == (1, 10)

    def test_needs_full_verification(self):
        group = standard_zn(2)
        index = ball(group, 4)
        report = verify_language(quadrant_dfa(), group, index)
        with pytest.raises(SoundnessUnverified):
            depth_bound_check(quadrant_dfa(), group, index, report)


class TestFixtures:
    def test_free_group_reduces(self):
        g = FreeGroup(2)
        e = g.evaluate(Word.parse("a b b- a- a", g.alphabet))
        assert e == chr(48 + 2 * 0 + 1)  # the letter (0, +1), "a"
        assert g.identity == ""
        assert g.render(g.identity) == "e"

    @pytest.mark.parametrize("letter", [(2, 1), (0, 2), (0, 0), (-1, 1)])
    def test_free_group_rejects_unknown_letter(self, letter):
        g = FreeGroup(2)
        with pytest.raises(UnknownLetter):
            g.apply_letter(g.evaluate(Word.parse("a", g.alphabet)), letter)

    def test_free_group_strings_encode_letter_tuples(self):
        # Each element decodes to a reduced word of (idx, sign) letters; the
        # strings sort as those tuples do and render to their tokens.
        g = FreeGroup(2)
        index = ball(g, 6)
        decoded = {e: tuple((i, 1 if b else -1) for i, b in (divmod(ord(c) - 48, 2) for c in e))
                   for e in index.table}
        assert len(set(decoded.values())) == len(index) == 1457
        for e, word in decoded.items():
            assert len(word) == index.distance(e)
            assert Word(word).free_reduce() == Word(word)
            assert g.evaluate(Word(word)) == e
            assert g.render(e) == (" ".join(g.alphabet.token(lt) for lt in word) or "e")
        assert sorted(index.table) == sorted(index.table, key=decoded.__getitem__)
        assert g.render(g.evaluate(Word.parse("a b-", g.alphabet))) == "a b-"

    def test_free_group_high_rank_with_names(self):
        g = FreeGroup(30, names=["x%d" % i for i in range(30)])
        index = ball(g, 2)
        assert len(index) == 1 + 60 + 60 * 59
        assert index.sphere_rows() == [(0, 1), (1, 60), (2, 60 * 59)]
        w = Word.parse("x29- x0 x29", g.alphabet)
        assert g.render(g.evaluate(w)) == "x29- x0 x29"
        assert g.evaluate(w + w.inverse()) == g.identity

    def test_free_group_rank_bounds(self):
        with pytest.raises(DeadendError):
            FreeGroup(0)

    def test_zn_dfa_dimension_bounds(self):
        with pytest.raises(DeadendError):
            zn_sorted_dfa(0)

    def test_catalog(self):
        cat = builtin_dfas()
        assert set(cat) == {"f2_reduced", "z2_sorted"}
        for dfa, group in cat.values():
            assert dfa.alphabet.size == group.alphabet.size
