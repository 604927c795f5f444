"""Discrete Heisenberg group: normal forms, planar paths, and the deep family.

Elements are normal-form triples (i, j, k) standing for a^i b^j t^k where
t = a^-1 b^-1 a b is the central commutator.  Words over {a, b} project to
lattice paths in the plane; the t-exponent of a word is the signed area
enclosed by its path after closing it vertically-then-horizontally, with
the commutator path (one counterclockwise unit square) having area +1.

The family g_n = (0, 0, n^2 + 1) realizes unbounded dead-end depth: g_n
lies at distance 4n + 2 and everything near it stays inside that radius.
word_length gives every distance in closed form, and ClosedFormIndex
serves it to depth as a distance oracle, so the family needs no ball.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .core import DeadendError, GenAlphabet, Letter, MarkedGroup, OutOfBox, Word
from .search import BallIndex, ClaimViolation, DepthReport, InsufficientRadius, _distance, depth

HeisElement = tuple[int, int, int]

_A, _B = 0, 1


def heis_mul(e1: HeisElement, e2: HeisElement) -> HeisElement:
    """Normal-form product: commuting a-powers past b-powers feeds the center."""
    i1, j1, k1 = e1
    i2, j2, k2 = e2
    return (i1 + i2, j1 + j2, k1 + k2 - j1 * i2)


def heis_inverse(e: HeisElement) -> HeisElement:
    i, j, k = e
    return (-i, -j, -k - i * j)


def heis_step(e: HeisElement, letter: Letter) -> HeisElement:
    """Right multiplication by a single generator or inverse."""
    i, j, k = e
    idx, s = letter
    if idx == _A:
        return (i + s, j, k - s * j)
    if idx == _B:
        return (i, j + s, k)
    raise DeadendError("letter %r not a Heisenberg generator" % (letter,))


class HeisenbergGroup(MarkedGroup):
    """Marked on the standard pair {a, b}."""

    def __init__(self):
        self.alphabet = GenAlphabet(("a", "b"))

    @property
    def identity(self) -> HeisElement:
        return (0, 0, 0)

    apply_letter = staticmethod(heis_step)

    @staticmethod
    def neighbours(e: HeisElement) -> tuple[HeisElement, ...]:
        """Right multiples by a, a-, b, b-: heis_step in closed form."""
        i, j, k = e
        return ((i + 1, j, k - j), (i - 1, j, k + j), (i, j + 1, k), (i, j - 1, k))

    def render(self, element) -> str:
        return "(%d,%d,%d)" % element


def word_length(e: HeisElement) -> int:
    """Exact word length of (i, j, k) over {a, b}, in integers only.

    The closed form of S. Blachere, "Word distance on the discrete
    Heisenberg group", Colloq. Math. 95 (2003), in rectangle form.  Take
    matrix coordinates x = i, y = j, z = k + ij and fold by the length-
    preserving maps x < 0 -> (-x, y, -z), then y < 0 -> (x, -y, -z), then
    z < 0 -> (y, x, xy - z), so that x, y, z >= 0.  If z <= xy the length
    is x + y; otherwise it is 2 min(W + H) - x - y over W >= x, H >= y with
    WH >= z.  Both are symmetric in x and y, so the last fold need not swap.

    The minimum needs two candidates.  As z > 0, H >= h = max(y, 1); let
    c = ceil(z / h).  For W >= c the best H is h, and W + h grows with W,
    so W = max(x, c) wins there.  For W < c the best H is ceil(z / W) > h,
    and g(W) = W + ceil(z / W) steps by 1 - (ceil(z/W) - ceil(z/(W+1))).
    As z/W - z/(W+1) = z / (W(W+1)), that step is <= 0 while W(W+1) < z
    and >= 0 once W(W+1) >= z.  So g is non-increasing, then
    non-decreasing, turning at s = isqrt(z) or s + 1.  Writing
    z = s^2 + t with 0 <= t <= 2s gives g(s) = 2s + ceil(t / s) <=
    2s + ceil((t + 1) / (s + 1)) = g(s + 1), so s is a least point too, and
    the least value on [max(x, 1), c - 1] sits at s clamped into it.
    """
    x, y, k = e
    z = k + x * y
    if x < 0:
        x, z = -x, -z
    if y < 0:
        y, z = -y, -z
    if z < 0:
        z = x * y - z
    if z <= x * y:
        return x + y
    h = max(y, 1)
    c = -(-z // h)
    best = max(x, c) + h
    w = min(max(math.isqrt(z), x), c - 1)
    if w >= max(x, 1):
        best = min(best, w - (-z // w))
    return 2 * best - x - y


class ClosedFormIndex:
    """Exact Heisenberg distances out to radius, from word_length.

    The oracle shape depth reads: group, radius, and get(e, default), which
    gives default past radius, so distance raises NotInBall there just as a
    ball of that radius would.  Nothing is stored.
    """

    def __init__(self, radius: int):
        if radius < 0:
            raise DeadendError("radius must be nonnegative")
        self.group = HeisenbergGroup()
        self.radius = radius

    def get(self, element, default=None):
        d = word_length(element)
        return d if d <= self.radius else default

    def distance(self, element) -> int:
        return _distance(self, element)


def word_area_normal(w: Word) -> HeisElement:
    """Normal form of a word over {a, b} computed from its planar path.

    Walks the path, accumulates the shoelace sum, and closes the path from
    the endpoint (i, j) down to (i, 0) and back to the origin; the closure
    contributes exactly -i*j to the raw (doubled) area.
    """
    x = y = 0
    raw = 0  # doubled signed area of the open path
    for idx, s in w.letters:
        if idx == _A:
            nx, ny = x + s, y
        elif idx == _B:
            nx, ny = x, y + s
        else:
            raise DeadendError("letter %r not a Heisenberg generator" % ((idx, s),))
        raw += x * ny - nx * y
        x, y = nx, ny
    raw -= x * y  # vertical-then-horizontal closure
    if raw % 2:
        raise DeadendError("odd doubled area %d for closed lattice loop" % raw)
    return (x, y, raw // 2)


def dd_witness(n: int) -> Word:
    """Word of length 4n + 2 spelling (0, 0, n^2 + 1) for n >= 1."""
    if n < 1:
        raise OutOfBox("n must be >= 1, got %d" % n)
    a, b = (_A, 1), (_B, 1)
    return Word.from_runs((a, -n - 1), (b, -1), (a, 1), (b, -n + 1), (a, n), (b, n))


# Word-metric symmetries on normal forms.  Generator sign flips are
# automorphisms; swapping a and b is realized by reversing a word and
# exchanging its letters (an anti-automorphism composite).  Every such map
# multiplies the center coordinate by the product of the two sign choices:
#   (i, j, k) -> (e1*c1, e2*c2, e1*e2*k),  (c1, c2) = (j, i) if swapped.
# The quarter turn therefore acts as (i,j,k) -> (-j,i,-k); the variant
# with k preserved fails an oracle check already at (1,1,-1).


class _Symmetry(NamedTuple):
    swap: bool
    e1: int
    e2: int

    def on_element(self, e: HeisElement) -> HeisElement:
        i, j, k = e
        c1, c2 = (j, i) if self.swap else (i, j)
        return (self.e1 * c1, self.e2 * c2, self.e1 * self.e2 * k)

    def on_word(self, w: Word) -> Word:
        letters = reversed(w.letters) if self.swap else w.letters
        out = []
        for idx, s in letters:
            idx2 = (1 - idx) if self.swap else idx
            out.append((idx2, s * (self.e1 if idx2 == _A else self.e2)))
        return Word(tuple(out))

    def inverse(self) -> "_Symmetry":
        # Sign flips are involutions.  A swap yields (e1*j, e2*i, ...), so
        # its inverse swaps back with the two signs exchanged.
        return _Symmetry(True, self.e2, self.e1) if self.swap else self


_SYMMETRIES = tuple(_Symmetry(sw, e1, e2)
                    for sw in (False, True) for e1 in (1, -1) for e2 in (1, -1))


def nd_witness(i: int, j: int, k: int, n: int) -> Word:
    """Short word for a^i b^j t^k when the coordinates fit in the n-box.

    Accepts |i|, |j| <= n + 1 and |k| < n(n+1).  Symmetry moves the target
    into the region i >= |j|, k >= 0, where the explicit loop word of length
    at most 4n + 2 applies; the inverse letter substitution carries the word
    back.  The result is freely reduced and verified by evaluation.
    """
    if n < 1:
        raise OutOfBox("n must be >= 1")
    if abs(i) > n + 1 or abs(j) > n + 1 or abs(k) >= n * (n + 1):
        raise OutOfBox("(%d,%d,%d) outside the n=%d box" % (i, j, k, n))
    target = (i, j, k)
    for sym in _SYMMETRIES:
        i2, j2, k2 = sym.on_element(target)
        if i2 >= abs(j2) and k2 >= 0:
            break
    else:
        raise DeadendError("no symmetry reaches the canonical region")  # pragma: no cover
    q, r = divmod(k2, n + 1)
    a, b = (_A, 1), (_B, 1)
    image_word = Word.from_runs(
        (b, -q - 1), (a, r), (b, 1), (a, n + 1 - r), (b, q), (a, i2 - n - 1), (b, j2))
    w = sym.inverse().on_word(image_word).free_reduce()
    if word_area_normal(w) != target:
        raise ClaimViolation("witness for %r evaluates wrong" % (target,))  # pragma: no cover
    if len(w) > 4 * n + 2:
        raise ClaimViolation("witness for %r too long: %d" % (target, len(w)))  # pragma: no cover
    return w


def nh_box(m: int, n: int):
    """Coordinate box certain to contain everything within m of (0,0,n^2+1).

    Returns (predicate, (i_bound, j_bound, k_bound)): m letters move each of
    i and j by at most m, and the center coordinate by at most m(m-1)/2
    beyond n^2 + 1 in absolute value.
    """
    if m < 0 or n < 1:
        raise OutOfBox("need m >= 0 and n >= 1")
    kb = n * n + 1 + m * (m - 1) // 2
    bounds = (m, m, kb)

    def predicate(e: HeisElement) -> bool:
        return abs(e[0]) <= m and abs(e[1]) <= m and abs(e[2]) <= kb

    return predicate, bounds


class HeisFamilyRow(NamedTuple):
    n: int
    distance: int
    depth_lower_bound: int
    rederived_lower_bound: int
    bfs_depth: int
    bfs_depth_exceeds_cap: bool


def _depth_bound_ceil(n: int) -> int:
    """Smallest integer >= sqrt(2n - 4) + 1."""
    x = 2 * n - 4
    s = math.isqrt(x)
    return s + 1 if s * s == x else s + 2


def rederived_depth_bound(n: int) -> int:
    """Depth lower bound for (0,0,n^2+1) obtained without any ball search.

    Take the largest m with m(m-1) <= 2n - 4: the m-step coordinate box
    around the target then sits inside the region where the short loop
    words apply, so everything within m of the target stays within 4n + 2
    of the identity.

    Only the canonical part 0 <= i <= m, |j| <= i, 0 <= k <= kb of the box
    is walked, one witness word built, reduced and evaluated per element.
    That certifies the whole box:

    - the box is square (i_bound = j_bound = m) and symmetric in k, so each
      map (i, j, k) -> (e1*c1, e2*c2, e1*e2*k) in _SYMMETRIES carries it
      onto itself, and likewise the n-box of nd_witness;
    - each box element has, under some map, an image in the canonical part;
    - each map acts on words, preserves word length and commutes with
      evaluation, so a word of length <= 4n + 2 for a canonical element c
      gives one of the same length for every element of c's orbit;
    - a box element outside the n-box has its images outside it too, so a
      leak anywhere in the box shows up in the canonical part, where
      nd_witness raises OutOfBox.
    """
    if n <= 2:
        raise OutOfBox("family defined for n > 2")
    m = 0
    while (m + 1) * m <= 2 * n - 4 and m + 1 <= n + 1:
        m += 1
    _pred, (ib, _jb, kb) = nh_box(m, n)
    for i in range(ib + 1):
        for j in range(-i, i + 1):
            for k in range(kb + 1):
                nd_witness(i, j, k, n)  # raises if the box leaks or a word is too long
    return m + 1


def heis_family(n: int, index: ClosedFormIndex | BallIndex,
                cap: Optional[int] = None) -> HeisFamilyRow:
    """Check the n-th deep element against a distance oracle.

    The CLI passes the closed-form ClosedFormIndex; a ball over
    HeisenbergGroup gives the same row up to its radius.

    Asserts distance 4n + 2 exactly and depth at least the integer bound;
    also re-derives a depth lower bound from the witness words alone.
    Raises ClaimViolation if the oracle contradicts either claim.  A search
    that finds nothing farther within the cap certifies only depth >= cap + 1,
    and a cap below 1 runs no search and certifies depth >= 1; when that
    falls short of either bound, raises InsufficientRadius.
    """
    if n <= 2:
        raise OutOfBox("family defined for n > 2")
    g = (0, 0, n * n + 1)
    d = index.distance(g)
    if d != 4 * n + 2:
        raise ClaimViolation("distance of %s is %d, expected %d"
                             % (index.group.render(g), d, 4 * n + 2))
    if cap is None:
        cap = index.radius - d
    report = (depth(index, g, cap) if cap >= 1
              else DepthReport(g, d, 1, None, exceeds_cap=True))
    bound = _depth_bound_ceil(n)
    rederived = rederived_depth_bound(n)
    need = max(bound, rederived)
    if report.exceeds_cap and report.depth < need:
        raise InsufficientRadius(
            "n=%d: depth search capped at %d certifies only depth >= %d, below "
            "bound %d; need radius >= %d" % (n, cap, report.depth, need, d + need - 1))
    if report.depth < bound:
        raise ClaimViolation("depth of %s is %d, below bound %d"
                             % (index.group.render(g), report.depth, bound))
    if report.depth < rederived:
        raise ClaimViolation("depth of %s is %d, below re-derived bound %d"
                             % (index.group.render(g), report.depth, rederived))
    return HeisFamilyRow(n, d, bound, rederived, report.depth, report.exceeds_cap)
