"""Generator alphabets, words over them, and the marked-group interface.

A marked group is a group together with an ordered finite generating
alphabet.  Elements are immutable, hashable normal forms; the only
required group operation is right multiplication by a single generator,
which is all that breadth-first exploration of the Cayley graph needs.
`MarkedGroup.neighbours` gives an element's right multiples by every
letter at once, in canonical letter order; its default steps
`apply_letter` once per letter, and a group with a closed form for the
whole list overrides it, since the ball build makes one such call per
element.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Sequence

# A letter is (generator index, sign), sign in {+1, -1}.
Letter = tuple[int, int]


class DeadendError(Exception):
    """Base class for every error raised by this package."""


class UnknownLetter(DeadendError):
    """Letter index or token not covered by the alphabet."""


class OutOfBox(DeadendError):
    """Argument lies outside the validity box of a construction."""


def json_int(value: Any) -> int:
    """An integer read from JSON: bools, floats and strings are refused."""
    if type(value) is not int:
        raise DeadendError("expected an integer, got %r" % (value,))
    return value


def json_names(value: Any) -> tuple[str, ...]:
    """Names read from JSON: a list of strings, never a bare string."""
    if type(value) is not list or any(type(name) is not str for name in value):
        raise DeadendError("expected a list of strings, got %r" % (value,))
    return tuple(value)


class Frozen:
    """Base of the immutable plain classes: a subclass sets each of its
    __slots__ once, in __init__ through object.__setattr__, and any later
    assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot change %r: %s is immutable" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class GenAlphabet(Frozen):
    """Ordered generating alphabet. Tokens render inverses with a '-' suffix."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if len(set(names)) != len(names):
            raise UnknownLetter("duplicate generator names: %r" % (names,))
        object.__setattr__(self, "names", names)

    def __eq__(self, other):
        return type(other) is GenAlphabet and self.names == other.names

    def __hash__(self):
        return hash((self.names,))

    @property
    def size(self) -> int:
        return len(self.names)

    def signed_letters(self) -> tuple[Letter, ...]:
        """All letters in canonical order: (0,+1), (0,-1), (1,+1), ..."""
        out = []
        for i in range(len(self.names)):
            out.append((i, 1))
            out.append((i, -1))
        return tuple(out)

    def check(self, letter: Letter) -> Letter:
        i, s = letter
        if not (0 <= i < len(self.names)) or s not in (1, -1):
            raise UnknownLetter("letter %r not in alphabet %r" % (letter, self.names))
        return letter

    def token(self, letter: Letter) -> str:
        i, s = self.check(letter)
        return self.names[i] if s == 1 else self.names[i] + "-"

    def letter(self, token: str) -> Letter:
        sign = 1
        if isinstance(token, str) and token.endswith("-"):
            sign = -1
            token = token[:-1]
        try:
            return (self.names.index(token), sign)
        except ValueError:
            raise UnknownLetter("token %r not in alphabet %r" % (token, self.names)) from None


class Word(Frozen):
    """Immutable word over an alphabet, stored as a tuple of letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other):
        return type(other) is Word and self.letters == other.letters

    def __hash__(self):
        return hash((self.letters,))

    def __repr__(self):
        return "Word(letters=%r)" % (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -s) for (i, s) in reversed(self.letters)))

    def free_reduce(self) -> "Word":
        """Cancel adjacent inverse pairs until none remain."""
        stack: list[Letter] = []
        for lt in self.letters:
            if stack and stack[-1] == (lt[0], -lt[1]):
                stack.pop()
            else:
                stack.append(lt)
        return Word(tuple(stack))

    def render(self, alphabet: GenAlphabet) -> str:
        return " ".join(alphabet.token(lt) for lt in self.letters)

    @classmethod
    def parse(cls, text: str, alphabet: GenAlphabet) -> "Word":
        return cls(tuple(alphabet.letter(tok) for tok in text.split()))

    @classmethod
    def from_runs(cls, *runs: tuple[Letter, int]) -> "Word":
        """Build a word from (letter, count) runs; negative count flips the sign."""
        letters: list[Letter] = []
        for (i, s), count in runs:
            if count < 0:
                s, count = -s, -count
            letters.extend([(i, s)] * count)
        return cls(tuple(letters))


class MarkedGroup(ABC):
    """A group marked with a generating alphabet.

    Elements are hashable immutable normal forms: equal elements are equal
    values, so an element is its own dictionary key.  A subclass defines
    identity and apply_letter; neighbours, all right multiples by single
    letters, defaults to one apply_letter call per letter.
    """

    alphabet: GenAlphabet

    @property
    @abstractmethod
    def identity(self) -> Any:
        ...

    @abstractmethod
    def apply_letter(self, element: Any, letter: Letter) -> Any:
        """Right-multiply element by the generator (or inverse) named by letter."""

    def neighbours(self, element: Any) -> Sequence[Any]:
        """element times each letter, in canonical letter order.

        Equals [apply_letter(element, lt) for lt, _w in weighted_letters],
        which is the default; a group overrides it with a closed form.
        """
        step = self.apply_letter
        return [step(element, lt) for lt, _w in self.weighted_letters]

    def letter_weight(self, letter: Letter) -> int:
        return 1

    @cached_property
    def weighted_letters(self) -> tuple[tuple[Letter, int], ...]:
        """(letter, weight) for every signed letter, in canonical order."""
        return tuple((lt, self.letter_weight(lt)) for lt in self.alphabet.signed_letters())

    @property
    def is_weighted(self) -> bool:
        return any(w != 1 for _lt, w in self.weighted_letters)

    def render(self, element: Any) -> str:
        return repr(element)

    def evaluate(self, word: Word) -> Any:
        e = self.identity
        for lt in word.letters:
            self.alphabet.check(lt)
            e = self.apply_letter(e, lt)
        return e

    def word_weight(self, word: Word) -> int:
        return sum(self.letter_weight(lt) for lt in word.letters)

