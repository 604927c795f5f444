"""Regular languages of geodesics and the pumping bound on dead-end depth.

A deterministic automaton whose language is a set of geodesic words hitting
every group element caps dead-end depth at twice its state count: any long
geodesic can be pumped into a strictly longer one that stays 2n-close to
the original endpoint.  This module holds the automaton plumbing, the
pumping step, and the verifier that certifies soundness and completeness
of a candidate language against a breadth-first ball.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import le
from typing import Any, NamedTuple, Optional, Sequence

from .core import (
    DeadendError,
    Frozen,
    GenAlphabet,
    Letter,
    MarkedGroup,
    UnknownLetter,
    Word,
    json_int,
)
from .search import BallIndex, ClaimViolation, certified_max_depth


class TooShort(DeadendError):
    """Word shorter than the state count cannot contain a pumpable loop."""


class SoundnessUnverified(DeadendError):
    """Operation requires a DFA that passed verification on this ball."""


class Dfa(Frozen):
    """Deterministic partial automaton over a generating alphabet.

    Missing transitions reject.  Transitions are stored as a mapping
    (state, letter) -> state and never mutated after construction.
    """

    __slots__ = ("n_states", "start", "accept", "trans", "alphabet")

    def __init__(self, n_states: int, start: int, accept: frozenset[int],
                 trans: dict[tuple[int, Letter], int], alphabet: GenAlphabet):
        if not (0 <= start < n_states):
            raise DeadendError("start state %d out of range" % start)
        for s in accept:
            if not (0 <= s < n_states):
                raise DeadendError("accept state %d out of range" % s)
        for (s, lt), s2 in trans.items():
            alphabet.check(lt)
            if not (0 <= s < n_states and 0 <= s2 < n_states):
                raise DeadendError("transition %r -> %r out of range" % ((s, lt), s2))
        for name, value in zip(self.__slots__, (n_states, start, accept, trans, alphabet)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return (self.n_states, self.start, self.accept, self.trans, self.alphabet)

    def __eq__(self, other):  # and no hash, as trans is a dict
        return type(other) is Dfa and self._values() == other._values()

    def step(self, state: int, letter: Letter) -> Optional[int]:
        return self.trans.get((state, letter))

    def to_json_obj(self) -> dict:
        return {
            "states": self.n_states,
            "start": self.start,
            "accept": sorted(self.accept),
            "trans": [
                {"from": s, "letter": self.alphabet.token(lt), "to": s2}
                for (s, lt), s2 in sorted(
                    self.trans.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict, alphabet: GenAlphabet) -> "Dfa":
        trans: dict[tuple[int, Letter], int] = {}
        for row in obj["trans"]:
            key = (json_int(row["from"]), alphabet.letter(row["letter"]))
            if key in trans:
                raise DeadendError("duplicate transition for %r" % (key,))
            trans[key] = json_int(row["to"])
        return cls(
            n_states=json_int(obj["states"]),
            start=json_int(obj["start"]),
            accept=frozenset(json_int(s) for s in obj["accept"]),
            trans=trans,
            alphabet=alphabet,
        )


def dfa_run(dfa: Dfa, w: Word) -> tuple[Optional[int], tuple[int, ...]]:
    """Final state (None on reject) and the state trace up to the rejection."""
    state = dfa.start
    trace = [state]
    for lt in w.letters:
        nxt = dfa.step(state, lt)
        if nxt is None:
            return (None, tuple(trace))
        state = nxt
        trace.append(state)
    return (state, tuple(trace))


def dfa_accepts(dfa: Dfa, w: Word) -> bool:
    final, _ = dfa_run(dfa, w)
    return final is not None and final in dfa.accept


def pump_decompose(dfa: Dfa, w: Word) -> tuple[Word, Word, Word]:
    """Split an accepted w = abc with |bc| <= n, |b| > 0, and abbc accepted.

    Scans the last n+1 trace states for a repeat; picks the latest repeated
    pair (maximal loop start, then minimal loop end) so the output is
    reproducible when several states recur.
    """
    n = dfa.n_states
    if len(w) < n:
        raise TooShort("need |w| >= %d states to force a repeat, got %d" % (n, len(w)))
    final, trace = dfa_run(dfa, w)
    if final is None or final not in dfa.accept:
        raise DeadendError("pump_decompose requires an accepted word")
    lo = len(w) - n  # trace indices lo..len(w) are the last n+1 states
    best: Optional[tuple[int, int]] = None
    for i in range(len(w), lo - 1, -1):
        for j in range(i - 1, lo - 1, -1):
            if trace[i] == trace[j]:
                cand = (j, i)
                if best is None or cand > best:
                    best = cand
    if best is None:  # pragma: no cover - pigeonhole guarantees a repeat
        raise DeadendError("no repeated state among the last %d entries" % (n + 1))
    p, q = best
    a = Word(w.letters[:p])
    b = Word(w.letters[p:q])
    c = Word(w.letters[q:])
    if not dfa_accepts(dfa, a + b + b + c):  # pragma: no cover - loop invariant
        raise ClaimViolation("pumped word rejected despite state repeat")
    return (a, b, c)


class VerifyReport(NamedTuple):
    """Outcome of checking a DFA's language against a ball.

    sound: every accepted word of length <= radius is geodesic.
    complete: every ball element is some accepted word's evaluation at its
    exact distance.  The first failing word (soundness) or unreachable
    element rendering (completeness) is carried for diagnosis.
    """

    sound: bool
    complete: bool
    radius: int
    words_checked: int
    elements_covered: int
    counterexample_word: Optional[Word]
    counterexample_element: Optional[str]
    dfa: Dfa

    @property
    def ok(self) -> bool:
        return self.sound and self.complete


def _suffix_to_accept(dfa: Dfa) -> dict[int, Word]:
    """Shortest word to acceptance from each state that has one.

    A backward breadth-first walk from the accept states, so its keys are
    exactly the co-accessible (live) states.
    """
    out: dict[int, Word] = {s: Word(()) for s in dfa.accept}
    frontier = deque(dfa.accept)
    index: dict[int, list[tuple[Letter, int]]] = {}
    for (s, lt), s2 in sorted(dfa.trans.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        index.setdefault(s2, []).append((lt, s))
    while frontier:
        s = frontier.popleft()
        for lt, p in index.get(s, ()):
            if p not in out:
                out[p] = Word((lt,)) + out[s]
                frontier.append(p)
    return out


def verify_language(dfa: Dfa, group: MarkedGroup, index: BallIndex) -> VerifyReport:
    """Certify the accepted language as geodesic and onto, up to the radius.

    Runs a breadth-first search on the product of the trimmed automaton and
    the Cayley graph.  One dict, keyed by the table's own keys, maps each
    ball element to the bit mask of the live states that reach it by a
    word as long as its distance.  Soundness fails if a move reaches an
    element whose distance is not its depth: trimming leaves only states
    that extend to acceptance, so the extension is a non-geodesic accepted
    word.  Completeness fails if some ball element is never realized at
    its exact distance by an accepted word.

    A word reaches an element only at a depth at least its distance, so a
    product state reached again at a larger depth lands on an element
    whose distance is not that depth, and the distance check convicts it;
    no revisit test is needed.  A move sets bits one sphere out only, so
    one pass over the table in distance order (else DeadendError) expands
    each element below the radius with its final mask.  A store keeps the
    table's key, so the search holds no copy of the ball's elements and
    its memory is bounded by the ball.  Per element it makes one
    group.neighbours call, and per live move (letter position, next-state
    bit) of each state in the mask one table lookup.

    The counterexample word is rebuilt from the first failing move in
    table order: walk back a sphere at a time through the inverse letter,
    trying letters in canonical order and then the lowest state, then
    append the failing letter and the shortest suffix to acceptance.  The
    uncovered element reported is the least by (distance, element).

    Refuses a weighted group: the pumping bound is stated for word length,
    and a word's length is not its weight.
    """
    if group.is_weighted:
        raise DeadendError(
            "verify_language needs unit letter weights: the pumping bound is "
            "stated for word length, and %s has letter weights %s"
            % (type(group).__name__, sorted({w for _lt, w in group.weighted_letters})))
    suffixes = _suffix_to_accept(dfa)
    alive = suffixes.keys()
    letters = group.alphabet.signed_letters()  # neighbours() order
    position = {lt: i for i, lt in enumerate(letters)}
    # state -> [(letter position, next-state bit)], lowest state first
    moves = {s: [(position[group.alphabet.check(lt)], 1 << s2)
                 for lt in dfa.alphabet.signed_letters() if (s2 := dfa.step(s, lt)) in alive]
             for s in sorted(alive)}
    accept_bits = sum(1 << s for s in dfa.accept)
    radius = index.radius
    table = index.table
    get = table.get
    neighbours = group.neighbours
    # element -> mask of the live states reaching it at depth = its distance
    masks = dict.fromkeys(table, 0)
    masks[group.identity] = 1 << dfa.start if dfa.start in alive else 0
    # (depth, element, state, letter position, next-state bit) of the first failing move
    failure: Optional[tuple[int, Any, int, int, int]] = None
    words_checked = 0
    values = table.values()
    if not all(map(le, values, islice(values, 1, None))):
        raise DeadendError("verify_language needs the ball table in distance order")
    for (e, d), mask in zip(table.items(), masks.values()):
        if d >= radius:
            break  # the radius sphere closes the table and is never expanded
        if not mask:
            continue
        nxt = d + 1
        nbrs = neighbours(e)
        while mask:
            low = mask & -mask
            mask ^= low
            s = low.bit_length() - 1
            live = moves[s]
            words_checked += len(live)
            for pos, bit in live:
                e2 = nbrs[pos]
                dist = get(e2)
                if dist == nxt:
                    masks[e2] |= bit
                elif dist is None:  # words can't outrun the ball
                    index.distance(e2)  # raises NotInBall
                elif failure is None:
                    failure = (d, e, s, pos, bit)
    counter_word: Optional[Word] = None
    if failure is not None:
        d, e, s, pos, bit = failure
        tail = [letters[pos]]
        for d0 in range(d - 1, -1, -1):
            e, s, lt = next((e0, p, lt) for lt in letters
                            if get(e0 := group.apply_letter(e, (lt[0], -lt[1]))) == d0
                            for p in moves if masks[e0] >> p & 1 and dfa.step(p, lt) == s)
            tail.append(lt)
        counter_word = Word(tuple(reversed(tail))) + suffixes[bit.bit_length() - 1]
    covered = sum(1 for mask in masks.values() if mask & accept_bits)
    complete = covered == len(table)
    counter_elem: Optional[str] = None
    if not complete:
        counter_elem = group.render(min(
            (d, e) for (e, d), mask in zip(table.items(), masks.values())
            if not mask & accept_bits)[1])
    return VerifyReport(
        sound=failure is None,
        complete=complete,
        radius=radius,
        words_checked=words_checked,
        elements_covered=covered,
        counterexample_word=counter_word,
        counterexample_element=counter_elem,
        dfa=dfa,
    )


def extend_geodesic(
    dfa: Dfa,
    group: MarkedGroup,
    w: Word,
    index: BallIndex,
    verification: VerifyReport,
) -> tuple[Any, Word]:
    """Pump an accepted geodesic into a strictly longer one nearby.

    Returns (element of the pumped word, pumped word); the new element is
    strictly farther from the identity and within 2 n_states of the old
    endpoint, both distances certified against the ball.
    """
    if verification.dfa is not dfa or not verification.sound:
        raise SoundnessUnverified(
            "extend_geodesic needs a soundness-verified DFA for this ball"
        )
    n = dfa.n_states
    a, b, c = pump_decompose(dfa, w)
    pumped = a + b + b + c
    g = group.evaluate(w)
    g2 = group.evaluate(pumped)
    d_old = index.distance(g)
    d_new = index.distance(g2)
    if d_old != len(w) or d_new != len(pumped):
        raise ClaimViolation(
            "pumping broke geodesity: %d->%d vs %d->%d"
            % (len(w), d_old, len(pumped), d_new)
        )
    if d_new <= d_old:
        raise ClaimViolation("pumped endpoint is not farther out")
    hop = index.distance(group.evaluate(w.inverse() + pumped))
    if hop > 2 * n:
        raise ClaimViolation("pumped endpoint drifted %d > 2n = %d" % (hop, 2 * n))
    return (g2, pumped)


def depth_bound_check(
    dfa: Dfa,
    group: MarkedGroup,
    index: BallIndex,
    verification: VerifyReport,
) -> tuple[int, int]:
    """Max oracle depth over the elements at d < radius, and the 2n bound.

    Every element at d < radius gets its exact depth, and a cap may run
    past the ball: search.certified_max_depth searches with bound
    2 n_states, and any element deeper than that contradicts the pumping
    bound and raises ClaimViolation.
    """
    if verification.dfa is not dfa or not verification.ok:
        raise SoundnessUnverified("depth bound needs a fully verified DFA")
    bound = 2 * dfa.n_states
    return (certified_max_depth(index, bound)[0], bound)


class FreeGroup(MarkedGroup):
    """Free group on k letters; elements are reduced words as strings.

    Letter (i, s) is the character chr(48 + 2i + (s > 0)), and its inverse
    is that code ^ 1; the identity is "".  A string caches its hash, so a
    dict or set lookup hashes an element once, where a tuple of letter
    tuples would hash every letter again on every lookup.  The code keeps
    order: (i, -1) < (i, +1) < (i + 1, -1) as characters too, so strings
    compare as their letter tuples do, and (distance, element) tie-breaks,
    min and sorted pick the same words.
    """

    def __init__(self, rank: int = 2, names: Optional[Sequence[str]] = None):
        if rank < 1:
            raise DeadendError("rank must be >= 1")
        if names is None:
            base = "abcdefghijklmnopqrstuvwxyz"
            if rank > len(base):
                raise DeadendError("provide names for rank > 26")
            names = tuple(base[:rank])
        self.alphabet = GenAlphabet(tuple(names))
        # letter -> (its character, its inverse's character), canonical order
        self._code = {(i, s): (chr(48 + 2 * i + (s > 0)), chr(48 + 2 * i + (s < 0)))
                      for i, s in self.alphabet.signed_letters()}
        self._chars = [c for c, _inv in self._code.values()]
        # last character -> position of the letter that cancels it
        self._undo = {c: self._chars.index(inv) for c, inv in self._code.values()}
        self._token = {c: self.alphabet.token(lt) for lt, (c, _inv) in self._code.items()}

    @property
    def identity(self) -> str:
        return ""

    def apply_letter(self, element, letter: Letter):
        try:
            c, inv = self._code[letter]
        except KeyError:
            raise UnknownLetter("letter %r not in alphabet %r"
                                % (letter, self.alphabet.names)) from None
        if element[-1:] == inv:
            return element[:-1]
        return element + c

    def neighbours(self, element) -> list[str]:
        out = [element + c for c in self._chars]
        if element:
            out[self._undo[element[-1]]] = element[:-1]
        return out

    def render(self, element) -> str:
        if not element:
            return "e"
        return " ".join(self._token[c] for c in element)


def free_reduced_dfa(rank: int = 2) -> Dfa:
    """Reduced words over F_rank: 1 start state plus one per signed letter."""
    group = FreeGroup(rank)
    letters = group.alphabet.signed_letters()
    state_of = {lt: i + 1 for i, lt in enumerate(letters)}
    trans: dict[tuple[int, Letter], int] = {}
    for lt in letters:
        trans[(0, lt)] = state_of[lt]
    for last in letters:
        for lt in letters:
            if lt == (last[0], -last[1]):
                continue
            trans[(state_of[last], lt)] = state_of[lt]
    return Dfa(
        n_states=1 + len(letters),
        start=0,
        accept=frozenset(range(1 + len(letters))),
        trans=trans,
        alphabet=group.alphabet,
    )


def zn_sorted_dfa(n: int = 2) -> Dfa:
    """Sorted-block geodesics for Z^n: one sign-committed state per axis."""
    if n < 1:
        raise DeadendError("dimension must be >= 1")
    names = tuple("g%d" % i for i in range(n)) if n > 4 else tuple("abcd"[:n])
    alphabet = GenAlphabet(names)
    trans: dict[tuple[int, Letter], int] = {}

    def state_of(i: int, s: int) -> int:
        return 1 + 2 * i + (0 if s == 1 else 1)

    for i in range(n):
        for s in (1, -1):
            trans[(0, (i, s))] = state_of(i, s)
            trans[(state_of(i, s), (i, s))] = state_of(i, s)
            for j in range(i + 1, n):
                for s2 in (1, -1):
                    trans[(state_of(i, s), (j, s2))] = state_of(j, s2)
    return Dfa(
        n_states=1 + 2 * n,
        start=0,
        accept=frozenset(range(1 + 2 * n)),
        trans=trans,
        alphabet=alphabet,
    )


def builtin_dfas() -> dict[str, tuple[Dfa, MarkedGroup]]:
    """Catalog of fixture automata with matching marked groups."""
    from .abelian import standard_zn

    return {
        "f2_reduced": (free_reduced_dfa(2), FreeGroup(2)),
        "z2_sorted": (zn_sorted_dfa(2), standard_zn(2)),
    }
