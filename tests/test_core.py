"""Alphabet, word, and evaluation plumbing."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deadends.abelian import (DepthBoundReport, EuclideanGroup, EuclideanSpec, Facet,
                              SandwichReport, ScaledPolytope, WeightedGenSet, standard_zn)
from deadends.core import GenAlphabet, UnknownLetter, Word
from deadends.geolang import Dfa, FreeGroup, VerifyReport
from deadends.heis import HeisenbergGroup, HeisFamilyRow, _Symmetry
from deadends.search import DepthReport, TransferRow, ball
from deadends.sol import (BdiffReport, ExpansionReport, LaurentPoly, SolGroup, SupportVector,
                          WreathZ2Z)

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


# Every class that was a frozen dataclass keeps the value contract the
# decorator gave it: keyword construction with its defaults, == and hash
# between equal constructions, a pickle round trip, and AttributeError on
# assigning or deleting a field.  Each case is (make, field, defaults); Dfa and VerifyReport,
# which hold a dict, compare equal but were never hashable.
_AB_DFA = dict(n_states=2, start=0, accept=frozenset({0, 1}),
               trans={(0, (0, 1)): 1, (1, (0, 1)): 1}, alphabet=AB)
_POINT_GROUP = (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
VALUE_CASES = {
    "GenAlphabet": (lambda: GenAlphabet(names=("a", "b")), "names", {}),
    "Word": (lambda: Word(), "letters", {"letters": ()}),
    "DepthReport": (lambda: DepthReport(element=(1, 0, 0), distance_from_identity=1,
                                        depth=2, witness=(2, 0, 0)),
                    "depth", {"exceeds_cap": False}),
    "TransferRow": (lambda: TransferRow(source=(0,), source_depth=3,
                                        source_exceeds_cap=False, fuzz_radius=1, slack=0,
                                        target=(0,), target_depth_lb=2), "slack", {}),
    "WeightedGenSet": (lambda: WeightedGenSet(n=1, gens=(((1,), 2),)), "gens", {}),
    "Facet": (lambda: Facet(vertices=((1, 0),), functional=(Fraction(1), Fraction(0))),
              "vertices", {}),
    "ScaledPolytope": (lambda: ScaledPolytope(M=1, scaled=((1,),), points=((1,), (-1,)),
                                              facets=()), "M", {}),
    "DepthBoundReport": (lambda: DepthBoundReport(bound=5, cell_distance=1,
                                                  max_depth_seen=2, elements_checked=9),
                         "bound", {}),
    "EuclideanSpec": (lambda: EuclideanSpec(n=2, point_group=_POINT_GROUP,
                                            gens=(((1, 0), _POINT_GROUP[1]),)),
                      "gen_names", {"gen_names": ("g0",)}),
    "SandwichReport": (lambda: SandwichReport(observed_gap=1, gap_bound=4,
                                              elements_checked=7), "gap_bound", {}),
    "Dfa": (lambda: Dfa(**_AB_DFA), "start", {}),
    "VerifyReport": (lambda: VerifyReport(sound=True, complete=False, radius=3,
                                          words_checked=4, elements_covered=5,
                                          counterexample_word=Word(((0, 1),)),
                                          counterexample_element="(1)",
                                          dfa=Dfa(**_AB_DFA)), "sound", {}),
    "_Symmetry": (lambda: _Symmetry(swap=True, e1=1, e2=-1), "swap", {}),
    "HeisFamilyRow": (lambda: HeisFamilyRow(n=3, distance=14, depth_lower_bound=2,
                                            rederived_lower_bound=2, bfs_depth=3,
                                            bfs_depth_exceeds_cap=False), "n", {}),
    "LaurentPoly": (lambda: LaurentPoly(), "terms", {"terms": ()}),
    "SupportVector": (lambda: SupportVector(p1=LaurentPoly(terms=((0, 1),)),
                                            p2=LaurentPoly(terms=((-1, 2),))), "p1", {}),
    "BdiffReport": (lambda: BdiffReport(rows=(((0, 0, 0), 0, 0, 0),), max_gap=0,
                                        elements_checked=1, skipped=0), "rows", {}),
    "ExpansionReport": (lambda: ExpansionReport(n=5, digits=((2, 5, 1),), length=1,
                                                bound=3), "length", {}),
}
UNHASHABLE = {"Dfa", "VerifyReport"}


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_contract(name):
    make, field, defaults = VALUE_CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and a is not b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for attr, value in defaults.items():
        assert getattr(a, attr) == value
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
