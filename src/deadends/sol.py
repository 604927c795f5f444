"""Sol lattices Z^2 x|_R Z for a hyperbolic integer matrix R.

Elements are triples (i, j, z) standing for (u, z) with u = (i, j) in Z^2;
the group law twists the plane part by powers of R:

    (u1, z1) (u2, z2) = (u1 + R^-z1 u2, z1 + z2).

Word combinatorics is driven by the horocyclic product picture: a word in
the generators a = ((1,0); 0), b = ((0,1); 0), c = (0; 1) is a lamplighter
walk that deposits Z^2-valued lamps along the c-axis, and the element it
evaluates to is read off from the pair of Laurent polynomials collecting
the deposits degree by degree.  Everything metric here (minimal supports,
the linear-time length formula, the wreath oracle) goes through that
picture.

Minimal supports come from iterative deepening over unit strips inside a
degree window.  The window is proven, not floating point: it follows from a
lemma on the contracting part of the target vector and is decided by exact
sign tests in Z[sqrt(tr^2 - 4 det)].  The search memo of a matrix lives on
its HypMatrix and counts against DEADEND_BUDGET; past it, ResourceCap.

The norms (abs_norm, bdiff_gap) read only the extents of the minimal
supports: the clamped top and bottom degrees that the two-sweep
lamplighter length needs.  They come from an extents memo that runs the
same strip recursion as the support enumeration but builds no supports.

Digit expansions along the entries of R^m are chosen in integers and
checked against an exact integer length bound.  The one floating-point
value is where the degree-window search starts (the math.log estimate
from _log_t); the exact sign tests decide the window.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    DeadendError,
    Frozen,
    GenAlphabet,
    Letter,
    MarkedGroup,
    OutOfBox,
    Word,
    json_int,
)
from .search import BallIndex, CapExceeded, ClaimViolation, ResourceCap, default_budget

Mat2 = tuple[tuple[int, int], tuple[int, int]]
Vec2 = tuple[int, int]
# (i, j, z): plane part (i, j) and axis coordinate z.
SolElement = tuple[int, int, int]


class NotHyperbolic(DeadendError):
    """Matrix is not an Anosov integer matrix (wrong det or trace too small)."""


def _mat_mul2(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat_vec2(a: Mat2, v: Vec2) -> Vec2:
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


_ID2: Mat2 = ((1, 0), (0, 1))


class HypMatrix:
    """Integer 2x2 matrix with |det| = 1 whose eigenvalues avoid the unit circle.

    Admissible: det = 1 with |trace| >= 3, or det = -1 with |trace| >= 1.
    Caches exact integer powers, negative ones via the adjugate inverse.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise NotHyperbolic("expected a 2x2 matrix, got %r" % (rows,))
        m: Mat2 = tuple(tuple(json_int(x) for x in r) for r in rows)  # type: ignore[assignment]
        p, r = m[0]
        q, s = m[1]
        det = p * s - q * r
        tr = p + s
        if not ((det == 1 and abs(tr) >= 3) or (det == -1 and abs(tr) >= 1)):
            raise NotHyperbolic(
                "need det=1 with |tr|>=3 or det=-1 with |tr|>=1; got det=%d tr=%d"
                % (det, tr)
            )
        self.rows: Mat2 = m
        self.det = det
        self.trace = tr
        inv: Mat2 = ((det * s, -det * r), (-det * q, det * p))
        self._pow: dict[int, Mat2] = {0: _ID2, 1: m, -1: inv}
        self._support_search: Optional["_SupportSearch"] = None  # built on first use

    def power(self, k: int) -> Mat2:
        cached = self._pow.get(k)
        if cached is not None:
            return cached
        step = 1 if k > 0 else -1
        base = self._pow[step]
        # Fill the cache walking from the nearest computed power.
        j = k - step
        while j not in self._pow:
            j -= step
        acc = self._pow[j]
        while j != k:
            acc = _mat_mul2(acc, base)
            j += step
            self._pow[j] = acc
        return acc

    def apply(self, k: int, v: Vec2) -> Vec2:
        return _mat_vec2(self.power(k), v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HypMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "HypMatrix(%r)" % (list(list(r) for r in self.rows),)

    def to_json_obj(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[int]]) -> "HypMatrix":
        return cls(obj)


def char_poly(R: HypMatrix) -> "LaurentPoly":
    """t^2 - (tr R) t + det R, the relation every power of R satisfies."""
    return LaurentPoly.from_terms([(2, 1), (1, -R.trace), (0, R.det)])


class LaurentPoly(Frozen):
    """Integer Laurent polynomial, stored as sorted (degree, coeff) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        return type(other) is LaurentPoly and self.terms == other.terms

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return "LaurentPoly(terms=%r)" % (self.terms,)

    @classmethod
    def from_terms(cls, items: Iterable[tuple[int, int]]) -> "LaurentPoly":
        acc: dict[int, int] = {}
        for d, c in items:
            acc[d] = acc.get(d, 0) + c
        return cls(tuple(sorted((d, c) for d, c in acc.items() if c != 0)))

    @classmethod
    def monomial(cls, deg: int, coeff: int = 1) -> "LaurentPoly":
        return cls.from_terms([(deg, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def top(self) -> Optional[int]:
        return self.terms[-1][0] if self.terms else None

    @property
    def bot(self) -> Optional[int]:
        return self.terms[0][0] if self.terms else None

    @property
    def norm(self) -> int:
        """Sum of absolute coefficient values (letter count it accounts for)."""
        return sum(abs(c) for _, c in self.terms)

    def coeff(self, d: int) -> int:
        for dd, c in self.terms:
            if dd == d:
                return c
        return 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.from_terms(list(self.terms) + list(other.terms))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((d, -c) for d, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly.from_terms(
            (d1 + d2, c1 * c2) for d1, c1 in self.terms for d2, c2 in other.terms
        )

    def shift(self, s: int) -> "LaurentPoly":
        return LaurentPoly(tuple((d + s, c) for d, c in self.terms))

    def scale(self, k: int) -> "LaurentPoly":
        if k == 0:
            return LaurentPoly()
        return LaurentPoly(tuple((d, k * c) for d, c in self.terms))

    def involution(self, det: int) -> "LaurentPoly":
        """The ring involution t -> det * t^-1 (det is +-1)."""
        sgn = lambda d: 1 if (det == 1 or d % 2 == 0) else -1
        return LaurentPoly.from_terms((-d, c * sgn(d)) for d, c in self.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            if d == 0:
                parts.append("%d" % c)
            else:
                mono = "t" if d == 1 else "t^%d" % d
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append("-" + mono)
                else:
                    parts.append("%d%s" % (c, mono))
        return "+".join(parts).replace("+-", "-")

    def to_json_obj(self) -> list[list[int]]:
        return [list(t) for t in self.terms]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Sequence[int]]) -> "LaurentPoly":
        return cls.from_terms((int(d), int(c)) for d, c in obj)


_ZERO = LaurentPoly()


class SupportVector(NamedTuple):
    """Pair of Laurent polynomials recording a- and b-deposits per degree."""

    p1: LaurentPoly
    p2: LaurentPoly

    @property
    def length(self) -> int:
        """Total a/b letter count the support accounts for."""
        return self.p1.norm + self.p2.norm

    @property
    def top(self) -> Optional[int]:
        tops = [t for t in (self.p1.top, self.p2.top) if t is not None]
        return max(tops) if tops else None

    @property
    def bot(self) -> Optional[int]:
        bots = [b for b in (self.p1.bot, self.p2.bot) if b is not None]
        return min(bots) if bots else None

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({d for d, _ in self.p1.terms} | {d for d, _ in self.p2.terms}))

    def lamp(self, d: int) -> Vec2:
        return (self.p1.coeff(d), self.p2.coeff(d))

    def value(self, R: HypMatrix) -> Vec2:
        return apply_poly(self.p1, self.p2, R)

    def to_json_obj(self) -> dict:
        return {"p1": self.p1.to_json_obj(), "p2": self.p2.to_json_obj()}


def apply_poly(p1: LaurentPoly, p2: LaurentPoly, R: HypMatrix) -> Vec2:
    """Evaluate p1(R) e1 + p2(R) e2 exactly."""
    x = y = 0
    for d, c in p1.terms:
        col = R.power(d)
        x += c * col[0][0]
        y += c * col[1][0]
    for d, c in p2.terms:
        col = R.power(d)
        x += c * col[0][1]
        y += c * col[1][1]
    return (x, y)


def sol_mul(e1: SolElement, e2: SolElement, R: HypMatrix) -> SolElement:
    u = _mat_vec2(R.power(-e1[2]), (e2[0], e2[1]))
    return (e1[0] + u[0], e1[1] + u[1], e1[2] + e2[2])


def sol_inverse(e: SolElement, R: HypMatrix) -> SolElement:
    u = _mat_vec2(R.power(e[2]), (e[0], e[1]))
    return (-u[0], -u[1], -e[2])


class SolGroup(MarkedGroup):
    """Marked Sol lattice on generators a = x-step, b = y-step, c = axis step."""

    def __init__(self, R: HypMatrix | Sequence[Sequence[int]]):
        if not isinstance(R, HypMatrix):
            R = HypMatrix(R)
        self.R = R
        self.alphabet = GenAlphabet(("a", "b", "c"))

    @property
    def identity(self) -> SolElement:
        return (0, 0, 0)

    def apply_letter(self, e: SolElement, letter: Letter) -> SolElement:
        idx, s = letter
        if idx == 2:
            return (e[0], e[1], e[2] + s)
        if idx == 0:
            step: Vec2 = (s, 0)
        elif idx == 1:
            step = (0, s)
        else:
            raise DeadendError("letter %r not a Sol generator" % (letter,))
        u = _mat_vec2(self.R.power(-e[2]), step)
        return (e[0] + u[0], e[1] + u[1], e[2])

    def render(self, e: SolElement) -> str:
        return "(%d,%d;%d)" % e


# ---------------------------------------------------------------------------
# Minimal supports.
#
# Degree window.  Write P = z_c v_c for the contracting part of a plane
# vector z, i.e. its image under the spectral projector P_c onto the
# contracting line along the expanding one, and let D be the Euclidean
# distance from P to Z^2.  Suppose a support of z with l units has no term
# at a degree d with |d| < N.  Split it into the high part H (degrees >= N)
# and the low part L (degrees <= -N), so z = H + L.  Then
#
#     L - P = P_e L - P_c H,    |P_e L| + |P_c H| <= l mu |tau|^-N,
#
# because P_e R^d e_i = tau^d P_e e_i and P_c R^d e_i = (det/tau)^d P_c e_i,
# where mu bounds the Euclidean norms of the columns of P_e and P_c.  L is a
# lattice point, so D <= l mu |tau|^-N; a window N with |tau|^N > c l / D,
# c >= mu, leaves no such support.  c is max(2, ceil(mu)).  mu <= 1 when the
# eigenlines are orthogonal (symmetric R), and there c = 2 is the constant
# the window has always used, which the support counts at non-minimal
# lengths depend on.  Skewed eigenlines need a larger c.
#
# Everything in the window is exact.  With Delta = tr^2 - 4 det and
# sigma = sign(tr), tau = (tr + sigma sqrt(Delta)) / 2 and
#
#     P = (z + w / sqrt(Delta)) / 2,    w = sigma (tr z - 2 R z)  in Z^2,
#
# so each coordinate of P, its rounding and D^2 live in Q(sqrt(Delta)), and
# every comparison is an integer sign test of x + y sqrt(Delta).  Delta is
# never a square for admissible R (tr^2 - 4 = m^2 forces |tr| = 2, and
# tr^2 + 4 = m^2 forces tr = 0), so both eigenlines are irrational.
#
# For the zero vector the lemma says nothing (the characteristic relation
# gives supports of 0 at every degree); D is read as 1 there.  Minimal
# supports never rely on it: stripping a unit from a minimal support of
# z != 0 leaves a minimal support of the remainder, which is 0 only when
# nothing is left.  It bounds the supports of 0 counted at longer lengths.


def _sign(x: int, y: int, disc: int) -> int:
    """Sign of x + y sqrt(disc), for disc > 0 not a square."""
    if x >= 0 and y >= 0:
        return 1 if x or y else 0
    if x <= 0 and y <= 0:
        return -1
    lhs, rhs = x * x, y * y * disc
    return (1 if lhs > rhs else -1) if x > 0 else (1 if rhs > lhs else -1)


def _floor_over_sqrt(a: int, disc: int) -> int:
    """floor(a / sqrt(disc)); a / sqrt(disc) is irrational unless a == 0."""
    if a >= 0:
        return math.isqrt(a * a // disc)
    return -math.isqrt(a * a // disc) - 1


def _add_unit(terms: tuple, k: int, s: int) -> Optional[tuple]:
    """Sorted (degree, coeff) terms plus s t^k, or None if the unit cancels."""
    for i, (d, c) in enumerate(terms):
        if d == k:
            if c * s < 0:
                return None
            return terms[:i] + ((d, c + s),) + terms[i + 1:]
        if d > k:
            return terms[:i] + ((k, s),) + terms[i:]
    return terms + ((k, s),)


# The extents of the empty support, the one minimal support of 0.
_ZERO_EXTENTS = frozenset({(0, 0)})
# The residue set of the trivial sieve mod 1, which every vector passes.
_ALL = frozenset({0})


class _SupportSearch:
    """Support search for one matrix: exact degree windows, a residue sieve,
    one strip table per window size, and the reach, exact-length and
    extents memos.

    Memo keys are (x, y, l).  reach[(x, y, l)] says whether (x, y) has a
    support of length at most l: False if not, else the window of (x, y, l),
    which `extents` and `reps` read back, so each window is computed once;
    reps[(x, y, l)] holds every support of length exactly l found through
    in-window strips, as sorted (p1 terms, p2 terms) pairs;
    extents[(x, y, l)], for l the minimal length of (x, y), holds the
    clamped (max(0, top), min(0, bot)) pairs of its minimal supports.  All
    three memos count against `budget`.  Level 1 takes no memo entry: it
    reads the units of the strip tables built so far.

    A residue sieve settles most reach queries at levels 1 and 2 in
    integers, before any window.  Take the least k in 1..64 with m = gcd
    of the entries of R^k - I and m^2 > 256 (4k + 1)^2.  Then R^k = I
    (mod m), and R^-1 is a power of R (mod m) because det R = +-1, so
    R^a = R^(a mod k) (mod m) for every integer a.  Every unit +-R^a e_i
    is thus congruent to one of U = {+-R^j e_i mod m : 0 <= j < k}, and
    every vector with a support of length at most 2 is congruent to 0,
    to a member of U or to a sum of two; S holds those residues.  Both
    sets store a residue (x, y) as x m + y.  Since |S| <= (4k + 1)^2,
    the size test keeps S below 1/256 of the m^2 residues.  Powers of an
    integer matrix are periodic modulo every m (Wall, "Fibonacci series
    modulo m", 1960); for [[2, 1], [1, 1]] the test first holds at
    k = 15, with m = 1364, |U| = 60 and |S| = 1501.  If no k qualifies,
    m = 1 and U = S = {0}, which every vector passes.  Above level 2 the
    sieve is that trivial one.  `sieve` hands out the modulus and residue
    set of a level; `reach` applies it to its query and both strip loops
    to each remainder, before any memo lookup or recursive call.
    """

    def __init__(self, R: HypMatrix):
        (p, r), (q, s) = R.rows
        tr, det = R.trace, R.det
        self._R = R
        self._rows = (p, r, q, s)
        self._tr = tr
        self._disc = disc = tr * tr - 4 * det
        self._sigma = 1 if tr >= 0 else -1
        # 2 |tau|^2 = u1 + v1 sqrt(Delta); _tpow[n] = (U, V) with
        # U + V sqrt(Delta) = 2^n |tau|^(2n).
        self._t1 = (tr * tr - 2 * det, abs(tr))
        self._tpow = [(1, 0), self._t1]
        self._log_t = 2.0 * math.log((abs(tr) + math.sqrt(disc)) / 2.0)
        self._c2 = self._window_constant() ** 2
        self._strips: dict[int, list[tuple[int, int, int, int, int]]] = {}
        # Every unit of a table built so far, to the (k, comp) of one
        # sign R^k e_comp equal to it.
        self._units: dict[Vec2, tuple[int, int]] = {}
        self.reach_memo: dict[tuple[int, int, int], int] = {}
        self.reps_memo: dict[tuple[int, int, int], tuple] = {}
        self.extents_memo: dict[tuple[int, int, int], frozenset[tuple[int, int]]] = {}
        self.budget = 0
        self._mod, self._residues = self._build_sieve()
        self._basis_degrees = tuple(self._unit_degrees(*e) for e in ((1, 0), (0, 1)))

    def _build_sieve(self) -> tuple[int, tuple[frozenset[int], frozenset[int]]]:
        """The modulus m and the residue sets (U, S) of levels 1 and 2."""
        R = self._R
        for k in range(1, 65):
            (a, b), (c, d) = R.power(k)
            m = math.gcd(a - 1, b, c, d - 1)
            if m * m > 256 * (4 * k + 1) ** 2:
                break
        else:
            return 1, (_ALL, _ALL)
        units = {(s * R.power(j)[0][i] % m, s * R.power(j)[1][i] % m)
                 for j in range(k) for i in (0, 1) for s in (1, -1)}
        # U = -U, so the pair sums hold u + (-u) = 0.
        pairs = {((x1 + x2) % m, (y1 + y2) % m)
                 for x1, y1 in units for x2, y2 in units}
        return m, (frozenset(x * m + y for x, y in units),
                   frozenset(x * m + y for x, y in units | pairs))

    def _w(self, x: int, y: int) -> Vec2:
        """sigma (tr z - 2 R z): P = (z + w / sqrt(Delta)) / 2."""
        p, r, q, s = self._rows
        tr, sg = self._tr, self._sigma
        return (sg * (tr * x - 2 * (p * x + r * y)),
                sg * (tr * y - 2 * (q * x + s * y)))

    def _window_constant(self) -> int:
        """max(2, ceil(mu)), mu the largest column norm of P_c and P_e.

        For a column e, 4 Delta |P e|^2 = Delta |e|^2 + |w|^2 +- 2 (e.w)
        sqrt(Delta), with the sign + for P_c and - for P_e.
        """
        disc = self._disc
        cols = []
        for e in ((1, 0), (0, 1)):
            wx, wy = self._w(*e)
            rest = disc + wx * wx + wy * wy
            dot = e[0] * wx + e[1] * wy
            cols += [(rest, 2 * dot), (rest, -2 * dot)]
        c = 2
        while any(_sign(4 * disc * c * c - a, -b, disc) < 0 for a, b in cols):
            c += 1
        return c

    def _tau_pow(self, n: int) -> tuple[int, int]:
        tp = self._tpow
        u1, v1 = self._t1
        while len(tp) <= n:
            u, v = tp[-1]
            tp.append((u * u1 + v * v1 * self._disc, u * v1 + v * u1))
        return tp[n]

    def window(self, x: int, y: int, l: int) -> int:
        """Least N >= 1 with |tau|^N > c l / D, decided exactly.

        Coordinatewise rounding of P gives the nearest lattice point
        (squared distance separates by coordinate); a tie needs w_x = 0, and
        then both choices give the same distance.  With a = z - 2 round(P),
        2 sqrt(Delta) (P - round(P)) = a sqrt(Delta) + w, so
        4 Delta D^2 = A + B sqrt(Delta) with A = Delta |a|^2 + |w|^2 and
        B = 2 a.w.  For z != 0, P is not a lattice point, so D > 0 and no
        lattice point needs excluding: the contracting line meets Z^2 only
        at 0, and P = 0 would put z on the expanding line, which also meets
        Z^2 only at 0.
        """
        disc = self._disc
        if x == 0 and y == 0:
            A, B = 4 * disc, 0
        else:
            wx, wy = self._w(x, y)
            ax = x - 2 * ((x + 1 + _floor_over_sqrt(wx, disc)) >> 1)
            ay = y - 2 * ((y + 1 + _floor_over_sqrt(wy, disc)) >> 1)
            A = disc * (ax * ax + ay * ay) + wx * wx + wy * wy
            B = 2 * (ax * wx + ay * wy)
            if _sign(A, B, disc) <= 0:
                raise ClaimViolation("zero contracting gap at %r" % ((x, y),))
        # |tau|^(2n) D^2 > c^2 l^2  <=>  (U + V sqrt)(A + B sqrt) > 2^(n+2) Delta c^2 l^2
        K = 4 * disc * self._c2 * l * l

        def clears(n: int) -> bool:
            U, V = self._tau_pow(n)
            return _sign(U * A + V * B * disc - (K << n), U * B + V * A, disc) > 0

        # X, within 1 of 2^32 4 Delta D^2, only picks where to start; the
        # exact tests decide.  math.log takes ints of any size, and the
        # 2^32 keeps the start as good as a float one on small vectors.
        root = math.isqrt(B * B * disc << 64)
        X = (A << 32) + (root if B >= 0 else -root)
        n = max(1, int((math.log(K << 32) - math.log(max(X, 1))) / self._log_t) + 1)
        while n > 1 and clears(n - 1):
            n -= 1
        while not clears(n):
            n += 1
        return n

    def strips(self, N: int) -> list[tuple[int, int, int, int, int]]:
        """(k, comp, sign, dx, dy) for every signed unit sign R^k e_comp, |k| < N."""
        table = self._strips.get(N)
        if table is None:
            table = []
            for k in range(-N + 1, N):
                col = self._R.power(k)
                for comp in (0, 1):
                    dx, dy = col[0][comp], col[1][comp]
                    table.append((k, comp, 1, dx, dy))
                    table.append((k, comp, -1, -dx, -dy))
            self._strips[N] = table
            for k, comp, _s, dx, dy in table:
                self._units.setdefault((dx, dy), (k, comp))
        return table

    def _unit_degrees(self, x: int, y: int) -> tuple[int, ...]:
        """Every k with (x, y) = sign R^k e_comp for some sign and comp;
        the window of (x, y, 1) holds them all."""
        table = self.strips(self.window(x, y, 1))
        return tuple(k for k, _c, _s, dx, dy in table if dx == x and dy == y)

    def sieve(self, l: int) -> tuple[int, frozenset[int]]:
        """(m, residues) of level l >= 1: every (x, y) with a support of
        length at most l has (x mod m) m + (y mod m) in residues.  U at
        level 1, S at level 2, and the trivial {0} mod 1 above."""
        return (self._mod, self._residues[l - 1]) if l <= 2 else (1, _ALL)

    def _store(self, memo: dict, key: tuple[int, int, int], value) -> None:
        if (len(self.reach_memo) + len(self.reps_memo)
                + len(self.extents_memo) >= self.budget):
            raise ResourceCap(
                "support memo reached the budget of %d entries" % self.budget)
        memo[key] = value

    def _window(self, x: int, y: int, l: int) -> int:
        """The window of (x, y, l), read from the reach memo when `reach`
        found a support there, else computed."""
        return self.reach_memo.get((x, y, l)) or self.window(x, y, l)

    def reach(self, x: int, y: int, l: int) -> bool:
        """Whether (x, y) has a support of length at most l.

        A support of length l' <= l owns a term in the window of (z, l'),
        which is inside the window of (z, l); stripping one unit there leaves
        a support of length l' - 1 of the remainder, so in-window strips are
        a complete search.  A query at level 1 or 2 first asks the residue
        sieve (see the class docstring): a z whose residue mod m is not in
        U (level 1) or S (level 2) has no support that short, and that
        answer takes no window and no memo entry.  Past the sieve, level 1
        answers True for a unit of a strip table built so far, with no
        window; otherwise it builds the table of the window of (z, 1),
        which holds z if z is a unit at all.  Level 1 takes no memo entry,
        so a non-unit that passes the sieve takes its window on each query.
        Levels 2 and up run one loop over the in-window strips: a zero
        remainder answers True, a remainder that the sieve of level l - 1
        rejects is dropped, and the rest are looked up in the memo before
        any recursion.  A True answer is stored as the window.
        """
        if x == 0 and y == 0:
            return True
        if l <= 0:
            return False
        if l <= 2:
            mod, residues = self.sieve(l)
            if x % mod * mod + y % mod not in residues:
                return False
            if l == 1:
                if (x, y) not in self._units:
                    self.strips(self.window(x, y, 1))
                return (x, y) in self._units
        memo = self.reach_memo
        key = (x, y, l)
        found = memo.get(key)
        if found is not None:
            return found is not False
        m = l - 1
        mod, residues = self.sieve(m)
        N = self.window(x, y, l)
        found = False
        open_rests = []
        for _k, _c, _s, dx, dy in self.strips(N):
            rx, ry = x - dx, y - dy
            if rx == 0 and ry == 0:
                found = True
                break
            if rx % mod * mod + ry % mod not in residues:
                continue
            hit = memo.get((rx, ry, m))
            if hit:
                found = True
                break
            if hit is None:
                open_rests.append((rx, ry))
        else:
            found = any(self.reach(rx, ry, m) for rx, ry in open_rests)
        self._store(memo, key, N if found else False)
        return found

    def reps(self, x: int, y: int, l: int) -> tuple:
        """Every support of length exactly l built from in-window strips.

        Each is an in-window unit plus a length-(l - 1) support of the
        remainder that the unit does not cancel.  At the minimal length of
        a nonzero vector these are all of its minimal supports.
        """
        if l <= 0:
            return (((), ()),) if (x == 0 and y == 0 and l == 0) else ()
        key = (x, y, l)
        found = self.reps_memo.get(key)
        if found is not None:
            return found
        m = l - 1
        out = set()
        for k, comp, s, dx, dy in self.strips(self._window(x, y, l)):
            rx, ry = x - dx, y - dy
            if not self.reach(rx, ry, m):
                continue
            for t1, t2 in self.reps(rx, ry, m):
                if comp == 0:
                    q = _add_unit(t1, k, s)
                    if q is not None:
                        out.add((q, t2))
                else:
                    q = _add_unit(t2, k, s)
                    if q is not None:
                        out.add((t1, q))
        found = tuple(sorted(out))
        self._store(self.reps_memo, key, found)
        return found

    def extents(self, x: int, y: int, l: int) -> frozenset[tuple[int, int]]:
        """(max(0, top), min(0, bot)) over the supports of (x, y) of length
        exactly l, for l the minimal length of (x, y).

        The recursion of `reps`, keeping only extents: a unit at degree k
        turns the remainder's (hi, lo) into (max(k, hi), min(k, lo)).  That
        is exact at a minimal length l.  No unit can cancel a term of the
        remainder's support, since that would leave a support of z of
        length l - 2.  A remainder with a support of length l - 1 has none
        shorter, or z would have one shorter than l, so every remainder
        the recursion visits is again at its own minimal length.

        Level 1 needs no window.  If z = s R^k e_i, then s' R^j e_i' = z
        exactly when s s' R^(j - k) e_i' = e_i, so the degrees of the units
        equal to z are k plus those of the units equal to e_i, which
        __init__ lists once.  From level 2 on the loop runs over the window
        `reach` stored for (x, y, l) and drops a remainder that the sieve
        of level l - 1 rejects before asking `reach`.
        """
        if l == 0:
            return _ZERO_EXTENTS
        key = (x, y, l)
        found = self.extents_memo.get(key)
        if found is not None:
            return found
        if l == 1:
            k, comp = self._units[(x, y)]
            found = frozenset((max(k + n, 0), min(k + n, 0))
                              for n in self._basis_degrees[comp])
        else:
            m = l - 1
            mod, residues = self.sieve(m)
            out = set()
            for k, _c, _s, dx, dy in self.strips(self._window(x, y, l)):
                rx, ry = x - dx, y - dy
                if rx % mod * mod + ry % mod in residues and self.reach(rx, ry, m):
                    for hi, lo in self.extents(rx, ry, m):
                        out.add((k if k > hi else hi, k if k < lo else lo))
            found = frozenset(out)
        self._store(self.extents_memo, key, found)
        return found


def _support_search(R: HypMatrix | Sequence[Sequence[int]]) -> _SupportSearch:
    """The support search of R, built on first use and kept on R; the
    budget is read again on every call."""
    if not isinstance(R, HypMatrix):
        R = HypMatrix(R)
    search = R._support_search
    if search is None:
        search = R._support_search = _SupportSearch(R)
    search.budget = default_budget()
    return search


def _as_vectors(found: tuple) -> list[SupportVector]:
    return [SupportVector(LaurentPoly(t1), LaurentPoly(t2)) for t1, t2 in found]


def gaps_window(zvec: Vec2, l: int, R: HypMatrix) -> int:
    """Degree window N such that every support of zvec with length exactly l
    has at least one term strictly inside (-N, N).

    N is the least N >= 1 with |tau|^N > c l / D, decided in exact
    arithmetic; the comment opening this section gives the argument.
    """
    if l <= 0:
        raise CapExceeded("no support of nonzero %r at length %d" % (zvec, l))
    return _support_search(R).window(zvec[0], zvec[1], l)


def _minimal_length(search: _SupportSearch, x: int, y: int, l_cap: int) -> int:
    """The least l <= l_cap with a support of (x, y) of length at most l,
    which is the minimal length of (x, y); past l_cap, CapExceeded."""
    for l in range(l_cap + 1):
        if search.reach(x, y, l):
            return l
    raise CapExceeded("no support of %r within length cap %d" % ((x, y), l_cap))


def minimal_reps(zvec: Vec2, R: HypMatrix, l_cap: int = 24) -> list[SupportVector]:
    """All minimal-length supports of zvec: the supports of length exactly
    its minimal length (the empty one for the zero vector).

    Raises ResourceCap when the support memo of R outgrows DEADEND_BUDGET.
    """
    x, y = zvec
    search = _support_search(R)
    return _as_vectors(search.reps(x, y, _minimal_length(search, x, y, l_cap)))


def _minimal_extents(zvec: Vec2, R: HypMatrix, l_cap: int) -> frozenset[tuple[int, int, int]]:
    """Distinct (max(0, top), min(0, bot), length) over the minimal supports
    of zvec, all that the two-sweep length reads of them; past l_cap,
    CapExceeded, exactly where minimal_reps raises it.
    """
    x, y = zvec
    search = _support_search(R)
    l = _minimal_length(search, x, y, l_cap)
    return frozenset((hi, lo, l) for hi, lo in search.extents(x, y, l))


# ---------------------------------------------------------------------------
# Word length: closed formula and wreath-product oracle.


def _extent(v: SupportVector) -> tuple[int, int, int]:
    """(max(0, top), min(0, bot), length): all that ll_length reads of v."""
    top, bot = v.top, v.bot
    return (max(0, top) if top is not None else 0,
            min(0, bot) if bot is not None else 0, v.length)


def _sweep_length(extent: tuple[int, int, int], z: int) -> int:
    hi, lo, length = extent
    mx = max(z, hi)
    mn = min(z, lo)
    return 2 * (mx - mn) + min(abs(z - mx) - mx, abs(z - mn) + mn) + length


def ll_length(v: SupportVector, z: int) -> int:
    """Length of the shortest word depositing v and ending at axis position z.

    Two-sweep lamplighter distance: visit the occupied degrees on both sides
    of 0, ending at z, plus one letter per unit of deposit.
    """
    return _sweep_length(_extent(v), z)


def _lamp_slot(lamps, cur: int) -> tuple[int, int, tuple[int, int]]:
    """(i, j, value): lamps[i:j] is the entry at position cur of the sorted
    lamp tuple (empty, j = i, when unlit) and value its lamp, (0, 0) if unlit."""
    i = bisect_left(lamps, (cur,))
    if i < len(lamps) and lamps[i][0] == cur:
        return i, i + 1, lamps[i][1]
    return i, i, (0, 0)


class WreathZ2Z(MarkedGroup):
    """Z^2 wr Z with cursor moves c and lamp increments a, b at the cursor.

    Elements are (lamps, cursor) with lamps a sorted tuple of
    (position, (va, vb)) holding nonzero lamp values.
    """

    def __init__(self) -> None:
        self.alphabet = GenAlphabet(("a", "b", "c"))

    @property
    def identity(self):
        return ((), 0)

    def apply_letter(self, e, letter: Letter):
        lamps, cur = e
        idx, s = letter
        if idx == 2:
            return (lamps, cur + s)
        if idx not in (0, 1):
            raise DeadendError("letter %r not a wreath generator" % (letter,))
        i, j, (va, vb) = _lamp_slot(lamps, cur)
        nv = (va + s, vb) if idx == 0 else (va, vb + s)
        lit = ((cur, nv),) if nv != (0, 0) else ()
        return (lamps[:i] + lit + lamps[j:], cur)

    def render(self, e) -> str:
        lamps, cur = e
        body = ",".join("%d:(%d,%d)" % (p, v[0], v[1]) for p, v in lamps)
        return "[%s|%d]" % (body, cur)


def wreath_oracle(v: SupportVector, z: int, r_cap: int = 64) -> int:
    """Exact wreath distance to (v, z) by pruned breadth-first search.

    Prunes keep every geodesic: lamp values move monotonically toward their
    targets and the cursor stays in the hull of {0, z} and the support.
    """
    goal_lamps = tuple(sorted((d, v.lamp(d)) for d in v.degrees()))
    top = v.top
    bot = v.bot
    hi = max(0, z, top if top is not None else 0)
    lo = min(0, z, bot if bot is not None else 0)
    goal = (goal_lamps, z)
    start = ((), 0)
    if start == goal:
        return 0
    group = WreathZ2Z()
    letters = group.alphabet.signed_letters()
    seen = {start}
    frontier = [start]
    dist = 0
    while frontier:
        dist += 1
        if dist > r_cap:
            raise CapExceeded("wreath target beyond radius cap %d" % r_cap)
        nxt = []
        for e in frontier:
            lamps, cur = e
            have = _lamp_slot(lamps, cur)[2]
            want = _lamp_slot(goal_lamps, cur)[2]
            for idx, s in letters:
                if idx == 2:
                    keep = lo <= cur + s <= hi
                else:
                    keep = s * (want[idx] - have[idx]) > 0
                if not keep:
                    continue
                m = group.apply_letter(e, (idx, s))
                if m in seen:
                    continue
                if m == goal:
                    return dist
                seen.add(m)
                nxt.append(m)
        frontier = nxt
    raise CapExceeded("wreath search exhausted without reaching target")


def abs_norm(g: SolElement, R: HypMatrix, l_cap: int = 24) -> int:
    """Pseudo-norm of g: shortest word whose deposits form a minimal support.

    A letter dropped at cursor position k contributes R^-k to the plane
    part, so a support term of degree d sits at cursor -d; flipping the
    axis target instead of the support gives the same traversal cost.
    Dominates the word norm |g| because geodesics may use non-minimal
    supports with a cheaper cursor sweep.  Read from the minimal extents;
    no support is built.
    """
    extents = _minimal_extents((g[0], g[1]), R, l_cap)
    return min(_sweep_length(t, -g[2]) for t in extents)


# ---------------------------------------------------------------------------
# Gap between the Sol metric and the wreath metric.


class BdiffReport(NamedTuple):
    """Per-element comparison of the Sol word norm with the wreath norm."""

    rows: tuple[tuple[SolElement, int, int, int], ...]
    max_gap: int
    elements_checked: int
    skipped: int


def check_support_cap(l_cap: int) -> None:
    """Refuse a negative support length cap: no support, not even the
    empty one, fits it."""
    if l_cap < 0:
        raise DeadendError("support length cap must be >= 0, got %d" % l_cap)


def bdiff_gap(R: HypMatrix, index: BallIndex, l_cap: Optional[int] = None) -> BdiffReport:
    """Compare |g| (from the ball) with ||g|| (minimal-support norm).

    Every minimal-support traversal is an honest word for g, so the norm
    can only overshoot: gap = ||g|| - |g| >= 0, and its maximum over the
    ball is an empirical bound on the defect.  A negative gap means the
    support bookkeeping lost a shorter word and raises ClaimViolation.

    Each norm is read from the minimal extents of the plane part, with no
    support built; a plane part with no support within l_cap is skipped,
    as minimal_reps would raise CapExceeded for it.  A negative l_cap is
    refused (check_support_cap).
    """
    if l_cap is None:
        l_cap = index.radius
    check_support_cap(l_cap)
    extents_cache: dict[Vec2, frozenset[tuple[int, int, int]] | None] = {}
    rows: list[tuple[SolElement, int, int, int]] = []
    skipped = 0
    max_gap = 0
    for e, d in index.items_sorted():
        u = (e[0], e[1])
        if u not in extents_cache:
            try:
                extents_cache[u] = _minimal_extents(u, R, l_cap)
            except CapExceeded:
                extents_cache[u] = None
        extents = extents_cache[u]
        if extents is None:
            skipped += 1
            continue
        norm = min(_sweep_length(t, -e[2]) for t in extents)
        gap = norm - d
        if gap < 0:
            raise ClaimViolation(
                "norm %d undercuts word distance %d at %r" % (norm, d, e)
            )
        if gap > max_gap:
            max_gap = gap
        rows.append((e, d, norm, gap))
    return BdiffReport(
        rows=tuple(rows),
        max_gap=max_gap,
        elements_checked=len(rows),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Logarithmic integer expansions along powers of R.


class ExpansionReport(NamedTuple):
    """n as a signed sum of entries p_m = (R^m)_{11}: digits holds
    (power, entry_value, multiplicity), length is the sum of the |multiplicity|
    and bound the exact, logarithmic integer it never exceeds."""

    n: int
    digits: tuple[tuple[int, int, int], ...]
    length: int
    bound: int


def integer_expansion(n: int, R: HypMatrix) -> ExpansionReport:
    """Write n as a short signed combination of upper-left entries of R^m.

    Greedy, in integers: while rem != 0, take the largest m with
    0 < |p_m| <= |rem| and add k p_m, k = -(rem / p_m rounded, a tie to
    even) clamped to |k| <= floor(|tau|).  |rem| strictly falls, to at
    most |p_m| / 2 or by floor(|tau|) |p_m| keeping its sign, so m never
    rises and each level is used in one run.

    The entries are scanned up to the first j >= 2 with |p_j| > |n| and
    |p_j| > |p_(j-1)|; no later one is <= |n|.  For |tr| >= 2,
    |p_(j+1)| >= |tr| |p_j| - |p_(j-1)| > |p_j| once |p_j| > |p_(j-1)|.
    For |tr| = 1 (det = -1), q_j = tr^j p_j obeys q_(j+1) = q_j + q_(j-1)
    from q_0 = 1, so no two of q_1, q_2, ... have opposite signs and
    |p_j| never falls from j = 2 on.

    bound sums ceil(|p_next| / |p_j|) over the j with 0 < |p_j| <= |n|,
    p_next the next nonzero entry: level m starts with |rem| < |p_next|,
    so its run adds at most ceil(|rem| / |p_m|) to the length.  Digits
    that miss n or the bound raise ClaimViolation.
    """
    if not isinstance(R, HypMatrix):
        R = HypMatrix(R)
    n, tr, det = int(n), R.trace, R.det
    kmax = max(1, (abs(tr) + math.isqrt(tr * tr - 4 * det)) // 2)
    entries = [1]
    while len(entries) < 3 or abs(entries[-1]) <= max(abs(n), abs(entries[-2])):
        entries.append(R.power(len(entries))[0][0])
    levels = [(j, p) for j, p in enumerate(entries) if p]
    bound = sum(-(-abs(nxt) // abs(p))
                for (_j, p), (_i, nxt) in zip(levels, levels[1:]) if abs(p) <= abs(n))
    digits: dict[int, int] = {}
    rem, top = n, len(levels) - 1
    while rem != 0:
        while abs(levels[top][1]) > abs(rem):
            top -= 1
        m, p_m = levels[top]
        q, r = divmod(2 * rem + p_m, 2 * p_m)  # floor(rem / p_m + 1/2)
        k = max(-kmax, min(kmax, -(q - (r == 0 and q % 2))))  # a tie to even
        rem += k * p_m
        digits[m] = digits.get(m, 0) - k
    rows = tuple((m, entries[m], mult) for m, mult in sorted(digits.items()))
    length = sum(abs(mult) for mult in digits.values())
    acc = sum(pv * mult for _m, pv, mult in rows)
    if acc != n or length > bound:
        raise ClaimViolation("expansion of %d sums to %d with length %d, bound %d"
                             % (n, acc, length, bound))
    return ExpansionReport(n=n, digits=rows, length=length, bound=bound)


# ---------------------------------------------------------------------------
# Distorted witnesses: short words for far-out plane vectors.


def _base_relation(R: HypMatrix) -> tuple[int, LaurentPoly]:
    """Base B and a Laurent polynomial E with E(R) = B * I.

    |tr| >= 3: B = |tr| and E = sign(tr) (t + det t^-1).
    |tr| = 1: B = 3 and E = t^2 + t^-2 (then tau^2 + tau^-2 = tr^2 - 2 det = 3).
    |tr| = 2: B = 6 and E = t^2 + t^-2 likewise.
    """
    tr, det = R.trace, R.det
    if abs(tr) >= 3:
        eps = 1 if tr > 0 else -1
        return abs(tr), LaurentPoly.from_terms([(1, eps), (-1, eps * det)])
    B = tr * tr - 2 * det
    return B, LaurentPoly.from_terms([(2, 1), (-2, 1)])


def _balanced_digits(n: int, B: int) -> list[int]:
    """Digits d_i with n = sum d_i B^i and |d_i| <= B/2 (B even keeps +B/2)."""
    half = B // 2
    out: list[int] = []
    while n != 0:
        r = n % B
        if r > half:
            r -= B
        out.append(r)
        n = (n - r) // B
    return out


def _reduce_support(p1: LaurentPoly, p2: LaurentPoly, R: HypMatrix) -> tuple[LaurentPoly, LaurentPoly]:
    """Shorten a support by adding multiples of the characteristic relation.

    First-improvement hill climb on the closed word length; deterministic
    scan order, strictly decreasing cost, so it terminates.
    """
    C = char_poly(R)

    def cost(q1: LaurentPoly, q2: LaurentPoly) -> int:
        return ll_length(SupportVector(q1, q2), 0)

    def moves(q1: LaurentPoly, q2: LaurentPoly):
        for which, p in ((0, q1), (1, q2)):
            if p.is_zero:
                continue
            for s in range((p.bot or 0) - 2, (p.top or 0) + 1):
                for sgn in (1, -1):
                    q = p + C.scale(sgn).shift(s)
                    yield (q, q2) if which == 0 else (q1, q)

    while True:
        cur = cost(p1, p2)
        better = next((m for m in moves(p1, p2) if cost(*m) < cur), None)
        if better is None:
            return p1, p2
        p1, p2 = better


def _flip(v: SupportVector) -> SupportVector:
    """Negate all degrees: converts between R-power degrees and cursor
    positions (a deposit at cursor k twists by R^-k)."""
    neg = lambda p: LaurentPoly(tuple(sorted((-d, c) for d, c in p.terms)))
    return SupportVector(neg(v.p1), neg(v.p2))


def _closed_traversal(v: SupportVector, alphabet: GenAlphabet) -> Word:
    """Word visiting 0 -> bot -> top -> 0, reading degrees as cursor
    positions and depositing v's lamps along the way."""
    letters: list[Letter] = []
    top = max(0, v.top if v.top is not None else 0)
    bot = min(0, v.bot if v.bot is not None else 0)

    def deposit(d: int) -> None:
        c1, c2 = v.lamp(d)
        letters.extend([(0, 1 if c1 > 0 else -1)] * abs(c1))
        letters.extend([(1, 1 if c2 > 0 else -1)] * abs(c2))

    deposit(0)
    for d in range(-1, bot - 1, -1):
        letters.append((2, -1))
        deposit(d)
    for d in range(bot + 1, top + 1):
        letters.append((2, 1))
        if d > 0:
            deposit(d)
    letters.extend([(2, -1)] * top)
    return Word(tuple(letters))


def distort_witness(zvec: Vec2, m: int, R: HypMatrix) -> Word:
    """Short closed-axis word evaluating to (zvec; 0), for |zvec| < B^m boxes.

    Writes both coordinates in balanced base-B digits, lifts B^i through the
    relation E(R) = B, reduces the resulting support, and walks it.  The
    length is at most 2^(m+1) + 4m - 1 for |tr R| >= 3 and 2^(m+1) + 8m - 1
    otherwise, exponentially shorter than the flat distance to zvec.
    """
    if not isinstance(R, HypMatrix):
        R = HypMatrix(R)
    B, E = _base_relation(R)
    box = B ** m
    if abs(zvec[0]) >= box or abs(zvec[1]) >= box:
        raise OutOfBox(
            "coordinates %r not inside the open box of size %d^%d" % (zvec, B, m)
        )
    group = SolGroup(R)
    if zvec == (0, 0):
        return Word(())
    # Check the base relation once per call: E(R) must act as B.
    if apply_poly(E, _ZERO, R) != (B, 0) or apply_poly(_ZERO, E, R) != (0, B):
        raise ClaimViolation("base relation failed for %r" % (R,))
    powers = [LaurentPoly.monomial(0)]
    for _ in range(m):
        powers.append(powers[-1] * E)
    p1, p2 = (sum((powers[i].scale(d) for i, d in enumerate(_balanced_digits(c, B))), _ZERO)
              for c in zvec)
    if apply_poly(p1, p2, R) != zvec:
        raise ClaimViolation("digit lift missed %r" % (zvec,))
    p1, p2 = _reduce_support(p1, p2, R)
    if apply_poly(p1, p2, R) != zvec:
        raise ClaimViolation("support reduction changed the value at %r" % (zvec,))
    best = SupportVector(p1, p2)
    per_level = 4 if abs(R.trace) >= 3 else 8
    bound = 2 ** (m + 1) + per_level * m - 1
    if ll_length(best, 0) > bound:
        # The digit lift can overshoot for wide digit alphabets; a traversal
        # of a shortest support still witnesses the claimed length.
        for v in minimal_reps(zvec, R, l_cap=bound):
            if ll_length(v, 0) < ll_length(best, 0):
                best = v
    word = _closed_traversal(_flip(best), group.alphabet)
    got = group.evaluate(word)
    if got != (zvec[0], zvec[1], 0):
        raise ClaimViolation("witness evaluates to %r, wanted %r" % (got, zvec))
    if len(word) > bound:
        raise ClaimViolation(
            "witness length %d exceeds bound %d for %r" % (len(word), bound, zvec)
        )
    return word
