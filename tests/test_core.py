"""Alphabet, word, and evaluation plumbing."""

import pytest
from hypothesis import given, strategies as st

from deadends.abelian import EuclideanGroup, EuclideanSpec, standard_zn
from deadends.core import GenAlphabet, UnknownLetter, Word
from deadends.geolang import FreeGroup
from deadends.heis import HeisenbergGroup
from deadends.search import ball
from deadends.sol import SolGroup, WreathZ2Z

AB = GenAlphabet(("a", "b"))


def words(alphabet, max_len=8):
    letters = st.sampled_from(alphabet.signed_letters())
    return st.lists(letters, max_size=max_len).map(lambda ls: Word(tuple(ls)))


class TestGenAlphabet:
    def test_tokens_round_trip(self):
        for lt in AB.signed_letters():
            assert AB.letter(AB.token(lt)) == lt
        assert AB.token((0, 1)) == "a" and AB.token((1, -1)) == "b-"

    def test_check_rejects_foreign_letters(self):
        with pytest.raises(UnknownLetter):
            AB.check((2, 1))
        with pytest.raises(UnknownLetter):
            AB.check((0, 2))

    def test_bad_token_rejected(self):
        with pytest.raises(UnknownLetter):
            AB.letter("q")


class TestWord:
    def test_parse_render_round_trip(self):
        w = Word.parse("a b- a- b", AB)
        assert w.render(AB) == "a b- a- b"
        assert len(w) == 4

    def test_inverse_reverses_and_flips(self):
        w = Word.parse("a b", AB)
        assert w.inverse().render(AB) == "b- a-"
        assert Word(()).inverse() == Word(())

    @given(words(AB))
    def test_double_inverse(self, w):
        assert w.inverse().inverse() == w

    def test_from_runs(self):
        w = Word.from_runs(((0, 1), 3), ((1, 1), -2), ((0, 1), 0))
        assert w.render(AB) == "a a a b- b-"

    def test_concatenation(self):
        u = Word.parse("a", AB)
        v = Word.parse("b-", AB)
        assert (u + v).render(AB) == "a b-"

    @given(words(AB))
    def test_free_reduce_cancels_inverse_pair(self, w):
        assert (w + w.inverse()).free_reduce() == Word(())


ALL_GROUPS = [
    HeisenbergGroup(),
    standard_zn(2),
    FreeGroup(2),
    SolGroup([[2, 1], [1, 1]]),
    WreathZ2Z(),
]


class TestNeighbours:
    # Z^2 extended by -I: a Euclidean group whose elements carry a matrix
    PM_I = EuclideanGroup(EuclideanSpec(
        2, (((1, 0), (0, 1)), ((-1, 0), (0, -1))),
        (((1, 0), ((1, 0), (0, 1))), ((0, 1), ((1, 0), (0, 1))),
         ((0, 0), ((-1, 0), (0, -1)))),
        ("a", "b", "s")))

    @pytest.mark.parametrize("g", ALL_GROUPS + [PM_I],
                             ids=lambda g: type(g).__name__)
    def test_match_apply_letter_in_letter_order(self, g):
        index = ball(g, 4)
        assert len(index) > 20
        for e in index.table:
            assert list(g.neighbours(e)) == [g.apply_letter(e, lt)
                                             for lt, _w in g.weighted_letters]


class TestEvaluate:
    def test_empty_word_is_identity(self):
        for g in ALL_GROUPS:
            assert g.evaluate(Word(())) == g.identity

    def test_heis_ba(self):
        h = HeisenbergGroup()
        assert h.evaluate(Word.parse("b a", h.alphabet)) == (1, 1, -1)

    @given(st.data())
    def test_word_times_inverse_is_identity(self, data):
        # two-letter sub-alphabet on every concrete family, length <= 8
        for g in ALL_GROUPS:
            sub = GenAlphabet(g.alphabet.names[:2])
            w = data.draw(words(sub), label=type(g).__name__)
            assert g.evaluate(w + w.inverse()) == g.identity

    def test_module_level_helpers(self):
        h = HeisenbergGroup()
        w = Word.parse("a b a-", h.alphabet)
        assert h.evaluate(w.inverse()) == (0, -1, -1)

    def test_unknown_letter_raises(self):
        h = HeisenbergGroup()
        with pytest.raises(UnknownLetter):
            h.evaluate(Word(((7, 1),)))
