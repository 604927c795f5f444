"""Weighted abelian lattices and crystallographic reduction.

A weighted generating set on Z^n makes ordinary words cost the sum of
their letters' weights.  Scaling each generator to a common weight M (the
lcm) and taking the symmetric convex hull gives a polytope whose facets
organize the geodesics: words walking along one facet are geodesic rays,
and the polytope caps dead-end depth at 2D + M + 1 where D bounds the
weighted distance of lattice points in any facet's unit parallelepiped.

Finite extensions of Z^n (point group acting on the lattice) reduce to
this picture: minimal coset-trivial words become weighted generators, and
the reduced pseudo-norm sandwiches the true word length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (DeadendError, Frozen, GenAlphabet, Letter, MarkedGroup, UnknownLetter, Word,
                   json_int, json_names)
from .search import (BallIndex, InsufficientRadius, ResourceCap, _uniform_cost,
                     certified_max_depth, default_budget)

Vec = tuple[int, ...]


class NotGenerating(DeadendError):
    """Generators fail to span the full integer lattice."""


class DegenerateHull(DeadendError):
    """Scaled generators do not span dimension n."""


class UnsupportedRank(DeadendError):
    """Exact hull construction implemented for n <= 3 only."""


class NotAFacet(DeadendError):
    """Facet argument does not belong to the polytope."""


class NotEuclidean(DeadendError):
    """Point-group data is not a finite lattice-preserving group."""


def _vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(map(operator.add, u, v))


def _vec_scale(c: int, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def _vec_neg(v: Vec) -> Vec:
    return tuple(-a for a in v)


class WeightedGenSet(Frozen):
    """Generators of Z^n with positive integer weights."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: tuple[tuple[Vec, int], ...]):  # (vector, weight)
        if n < 1:
            raise DeadendError("n must be >= 1")
        for v, w in gens:
            if len(v) != n:
                raise DeadendError("generator %r has wrong dimension" % (v,))
            if w < 1:
                raise DeadendError("weight of %r must be >= 1" % (v,))
        vecs = [v for v, _w in gens]
        if len(vecs) < n or _lattice_index(vecs, n) != 1:
            raise NotGenerating("generators %r do not span Z^%d" % (vecs, n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)

    def __eq__(self, other):
        return type(other) is WeightedGenSet and (self.n, self.gens) == (other.n, other.gens)

    def __hash__(self):
        return hash((self.n, self.gens))

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _v, w in self.gens)

    def to_json_obj(self) -> dict:
        return {"n": self.n,
                "gens": [{"v": list(v), "w": w} for v, w in self.gens]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "WeightedGenSet":
        return cls(json_int(obj["n"]),
                   tuple((tuple(json_int(c) for c in g["v"]), json_int(g["w"]))
                         for g in obj["gens"]))


def _lattice_index(vecs: list[Vec], n: int) -> int:
    """gcd of all n x n minors; 1 iff the vectors generate Z^n."""
    g = 0
    for combo in itertools.combinations(vecs, n):
        g = math.gcd(g, abs(int(_row_reduce(combo)[2])))
        if g == 1:
            return 1
    return g


class WeightedZnGroup(MarkedGroup):
    """Z^n marked with a weighted alphabet; elements are coordinate tuples."""

    def __init__(self, ws: WeightedGenSet, names: Optional[Sequence[str]] = None):
        self.ws = ws
        if names is None:
            names = tuple("g%d" % i for i in range(len(ws.gens)))
        elif len(names) != len(ws.gens):
            raise DeadendError("%d names for %d generators" % (len(names), len(ws.gens)))
        self.alphabet = GenAlphabet(tuple(names))
        self._zero = (0,) * ws.n
        self._vectors = {(i, s): v if s == 1 else _vec_neg(v)
                         for i, (v, _w) in enumerate(ws.gens) for s in (1, -1)}

    @property
    def identity(self) -> Vec:
        return self._zero

    def apply_letter(self, element: Vec, letter: Letter) -> Vec:
        try:
            v = self._vectors[letter]
        except KeyError:
            raise UnknownLetter("letter %r not in alphabet %r"
                                % (letter, self.alphabet.names)) from None
        return _vec_add(element, v)

    def letter_weight(self, letter: Letter) -> int:
        return self.ws.gens[letter[0]][1]

    def render(self, element: Vec) -> str:
        return "(" + ",".join(str(c) for c in element) + ")"


def standard_zn(n: int) -> WeightedZnGroup:
    """Z^n with the usual basis, all weights 1."""
    gens = tuple(((0,) * i + (1,) + (0,) * (n - i - 1), 1) for i in range(n))
    return WeightedZnGroup(WeightedGenSet(n, gens),
                           names=tuple("abcdefgh"[i] for i in range(n)))


def weighted_distance(ws: WeightedGenSet, v: Vec, budget: Optional[int] = None) -> int:
    """Weighted word length of v: uniform-cost search from the origin."""
    return weighted_distances(ws, [tuple(v)], budget)[tuple(v)]


def weighted_distances(ws: WeightedGenSet, targets: Iterable[Vec],
                       budget: Optional[int] = None) -> dict:
    """Weighted distances for many targets with a single search.

    Every target is reached, since generation is checked at construction
    time; a search that settles more than budget points raises ResourceCap.
    """
    if budget is None:
        budget = default_budget()
    remaining = set()
    for t in targets:
        if len(t) != ws.n:
            raise DeadendError("target %r has wrong dimension" % (t,))
        remaining.add(tuple(t))
    out: dict = {}
    if not remaining:
        return out
    group = WeightedZnGroup(ws)
    for settled, (d, u) in enumerate(_uniform_cost(group, group.identity, math.inf), 1):
        if settled > budget:
            raise ResourceCap("weighted distance search exceeded budget %d" % budget)
        if u in remaining:
            out[u] = d
            remaining.discard(u)
            if not remaining:
                break
    return out


class Facet(NamedTuple):
    """One facet of the scaled polytope: its lattice points among the scaled
    generators, and the rational functional equal to 1 exactly there."""

    vertices: tuple[Vec, ...]
    functional: tuple[Fraction, ...]

    def pairing(self, x: Sequence[int]) -> Fraction:
        return sum(a * c for a, c in zip(self.functional, x))


class ScaledPolytope(NamedTuple):
    M: int
    scaled: tuple[Vec, ...]            # one scaled vector per generator, in order
    points: tuple[Vec, ...]            # scaled vectors and their negatives, deduped
    facets: tuple[Facet, ...]

    def facet_of(self, functional: tuple[Fraction, ...]) -> Facet:
        for f in self.facets:
            if f.functional == functional:
                return f
        raise NotAFacet("no facet with functional %r" % (functional,))


def _row_reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Exact reduced row echelon form over Q, its pivot columns, and the
    determinant of rows when they form a square matrix (0 when singular)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(len(m[0]) if m else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            m[top], m[piv] = m[piv], m[top]
            det = -det
        det *= m[top][col]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots, det if len(pivots) == len(m) else Fraction(0)


def _solve_functional(points: list[Vec]) -> Optional[tuple[Fraction, ...]]:
    """Rational a with a . p = 1 for each p, or None if the system is singular."""
    n = len(points)
    m, pivots, _ = _row_reduce([list(p) + [1] for p in points])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in m)


def build_polytope(ws: WeightedGenSet) -> ScaledPolytope:
    """Scale generators to common weight M = lcm(weights); hull of the
    symmetrized scaled set, with exact rational facet functionals."""
    if ws.n > 3:
        raise UnsupportedRank("exact hull implemented for n <= 3")
    M = math.lcm(*ws.weights)
    scaled = tuple(_vec_scale(M // w, v) for v, w in ws.gens)
    points = []
    for p in scaled:
        for q in (p, _vec_neg(p)):
            if q not in points:
                points.append(q)
    if _rank(points) < ws.n:
        raise DegenerateHull("scaled generators span rank < %d" % ws.n)

    facets: dict = {}
    for combo in itertools.combinations(points, ws.n):
        a = _solve_functional(list(combo))
        if a is None:
            continue
        vals = [sum(ai * ci for ai, ci in zip(a, p)) for p in points]
        if all(v <= 1 for v in vals):
            verts = tuple(sorted(p for p, v in zip(points, vals) if v == 1))
            facets.setdefault(a, Facet(verts, a))
    out = sorted(facets.values(), key=lambda f: f.functional)
    return ScaledPolytope(M, scaled, tuple(points), tuple(out))


def _rank(vecs: list[Vec]) -> int:
    return len(_row_reduce(vecs)[1])


def _letter_for_scaled(ws: WeightedGenSet, poly: ScaledPolytope, p: Vec):
    """(letter, copies): which original generator run spells scaled point p."""
    for idx, sp in enumerate(poly.scaled):
        if sp == p:
            return (idx, 1), poly.M // ws.gens[idx][1]
        if _vec_neg(sp) == p:
            return (idx, -1), poly.M // ws.gens[idx][1]
    raise NotAFacet("point %r is not a scaled generator" % (p,))


def facet_ray_word(ws: WeightedGenSet, facet: Facet, exponents: Sequence[int],
                   poly: Optional[ScaledPolytope] = None) -> Word:
    """Geodesic word along one facet: vertex i repeated exponents[i] times,
    each vertex expanded into copies of its underlying generator."""
    if poly is None:
        poly = build_polytope(ws)
    if facet not in poly.facets:
        raise NotAFacet("facet %r not from this polytope" % (facet,))
    if len(exponents) != len(facet.vertices):
        raise DeadendError("need %d exponents, got %d"
                           % (len(facet.vertices), len(exponents)))
    if any(e < 0 for e in exponents):
        raise DeadendError("exponents must be nonnegative")
    runs = []
    for p, e in zip(facet.vertices, exponents):
        letter, copies = _letter_for_scaled(ws, poly, p)
        runs.append((letter, copies * e))
    return Word.from_runs(*runs)


def _fan_triangulate(facet: Facet, n: int) -> list[tuple[Vec, ...]]:
    """Split a facet with more than n vertices into simplices: fan from the
    lexicographically least vertex, other vertices in boundary order."""
    verts = sorted(facet.vertices)
    if len(verts) <= n:
        return [tuple(verts)]
    if n == 2:
        v0 = verts[0]
        return [(v0, v) for v in verts[1:]]
    # n == 3: order the remaining vertices around v0 inside the facet plane.
    v0 = verts[0]
    rest = verts[1:]
    # project out the coordinate where the functional is largest
    drop = max(range(3), key=lambda c: abs(facet.functional[c]))
    keep = [c for c in range(3) if c != drop]

    def proj(v):
        return (v[keep[0]] - v0[keep[0]], v[keep[1]] - v0[keep[1]])

    def cross(u, w):
        return u[0] * w[1] - u[1] * w[0]

    def cmp(p, q):
        c = cross(proj(p), proj(q))
        return -1 if c > 0 else (1 if c < 0 else 0)

    ordered = sorted(rest, key=functools.cmp_to_key(cmp))
    tris = []
    for i in range(len(ordered) - 1):
        tri = (v0, ordered[i], ordered[i + 1])
        if _row_reduce(tri)[2] != 0:
            tris.append(tri)
    return tris


def _parallelepiped_points(basis: Sequence[Vec], n: int) -> list[Vec]:
    """Integer points x = sum t_i b_i with all t_i in [0, 1], exactly."""
    # invert the basis matrix (columns are the generators)
    mat, pivots, _ = _row_reduce([[basis[j][r] for j in range(n)] + [int(r == c) for c in range(n)]
                                  for r in range(n)])
    if pivots != list(range(n)):
        return []  # degenerate simplex contributes nothing
    # t_r = row_r . x lies in [0, 1] iff (scale_r row_r) . x lies in
    # [0, scale_r], with scale_r the lcm of row_r's denominators: integers only
    int_rows = []
    for row in mat:
        scale = math.lcm(*(f.denominator for f in row[n:]))
        int_rows.append(([int(f * scale) for f in row[n:]], scale))
    ranges = []
    for c in range(n):
        lo = sum(min(0, basis[j][c]) for j in range(n))
        hi = sum(max(0, basis[j][c]) for j in range(n))
        ranges.append(range(lo, hi + 1))
    return [x for x in itertools.product(*ranges)
            if all(0 <= sum(a * xc for a, xc in zip(row, x)) <= scale
                   for row, scale in int_rows)]


class DepthBoundReport(NamedTuple):
    bound: int
    cell_distance: int        # D: max weighted distance over facet cells
    max_depth_seen: int
    elements_checked: int


def depth_bound(ws: WeightedGenSet, index: BallIndex) -> DepthBoundReport:
    """Uniform depth bound 2D + M + 1 from the facet geometry, then verify
    it against the exact depth of every element at d < radius; a cap may
    run past the ball (search.certified_max_depth; a violation raises
    ClaimViolation)."""
    poly = build_polytope(ws)
    cell_pts = set()
    for facet in poly.facets:
        for simplex in _fan_triangulate(facet, ws.n):
            if len(simplex) == ws.n:
                cell_pts.update(_parallelepiped_points(simplex, ws.n))
    dists = weighted_distances(ws, cell_pts)
    D = max(dists.values()) if dists else 0
    bound = 2 * D + poly.M + 1

    max_seen, checked = certified_max_depth(index, bound)
    if checked == 0:
        raise InsufficientRadius("index radius %d certifies no depths" % index.radius)
    return DepthBoundReport(bound, D, max_seen, checked)


# ---------------------------------------------------------------------------
# Finite extensions of Z^n.

Mat = tuple[tuple[int, ...], ...]


def _mat_mul(a: Mat, b: Mat) -> Mat:
    n = len(a)
    return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                 for r in range(n))


def _mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple(sum(a[r][k] * v[k] for k in range(len(v))) for r in range(len(a)))


def _identity_mat(n: int) -> Mat:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


class EuclideanSpec(Frozen):
    """Split extension of Z^n by a finite integer point group.

    Elements are (vector, matrix); (u, P)(v, Q) = (u + P v, P Q).
    Generators may mix translation and point parts.
    """

    __slots__ = ("n", "point_group", "gens", "gen_names")

    def __init__(self, n: int, point_group: tuple[Mat, ...],
                 gens: tuple[tuple[Vec, Mat], ...], gen_names: tuple[str, ...] = ()):
        ident = _identity_mat(n)
        pg = set(point_group)
        if ident not in pg:
            raise NotEuclidean("point group must contain the identity")
        for p in pg:
            if abs(_row_reduce(p)[2]) != 1:
                raise NotEuclidean("matrix %r does not preserve the lattice" % (p,))
            if not any(_mat_mul(p, q) == ident for q in pg):
                raise NotEuclidean("matrix %r has no inverse in the set" % (p,))
            for q in pg:
                if _mat_mul(p, q) not in pg:
                    raise NotEuclidean("point group not closed under products")
        for _v, m in gens:
            if m not in pg:
                raise NotEuclidean("generator matrix %r outside the point group" % (m,))
        if not gen_names:
            gen_names = tuple("g%d" % i for i in range(len(gens)))
        elif len(gen_names) != len(gens):
            raise DeadendError("%d names for %d generators" % (len(gen_names), len(gens)))
        for name, value in zip(self.__slots__, (n, point_group, gens, gen_names)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return (self.n, self.point_group, self.gens, self.gen_names)

    def __eq__(self, other):
        return type(other) is EuclideanSpec and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "point_group": [[list(r) for r in m] for m in self.point_group],
            "gens": [{"v": list(v), "mat": [list(r) for r in m]} for v, m in self.gens],
            "names": list(self.gen_names),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EuclideanSpec":
        return cls(
            json_int(obj["n"]),
            tuple(tuple(tuple(json_int(x) for x in r) for r in m) for m in obj["point_group"]),
            tuple((tuple(json_int(x) for x in g["v"]),
                   tuple(tuple(json_int(x) for x in r) for r in g["mat"]))
                  for g in obj["gens"]),
            json_names(obj.get("names", [])),
        )


class EuclideanGroup(MarkedGroup):
    """Marked group for a EuclideanSpec; elements are (vector, matrix)."""

    def __init__(self, spec: EuclideanSpec):
        self.spec = spec
        self.alphabet = GenAlphabet(spec.gen_names)
        self._inv = {}
        for v, m in spec.gens:
            minv = next(q for q in spec.point_group
                        if _mat_mul(m, q) == _identity_mat(spec.n))
            self._inv[(v, m)] = (_mat_vec(minv, _vec_neg(v)), minv)

    @property
    def identity(self):
        return ((0,) * self.spec.n, _identity_mat(self.spec.n))

    def apply_letter(self, element, letter):
        u, p = element
        idx, s = letter
        v, m = self.spec.gens[idx] if s == 1 else self._inv[self.spec.gens[idx]]
        return (_vec_add(u, _mat_vec(p, v)), _mat_mul(p, m))

    def render(self, element) -> str:
        u, p = element
        return "(%s;%s)" % (",".join(map(str, u)),
                            "I" if p == _identity_mat(self.spec.n) else str(p))


def euclidean_reduce(spec: EuclideanSpec) -> WeightedGenSet:
    """Collapse a finite extension of Z^n to a weighted generating set.

    Enumerates the words whose image is a lattice translation while every
    proper contiguous subword's image is not (equivalently: the point
    parts of the proper prefixes are pairwise distinct and nontrivial, so
    pigeonhole caps the length at the point-group order).  Each word's
    vector is closed under conjugation, which acts on translations through
    the point group; the weight of a conjugate is the originating word's
    length.  Zero vectors are dropped; v and -v merge at the smaller
    weight since either generator reaches both.
    """
    # cosets reachable from the generators; must be all of them, else the
    # supplied point group overstates the extension actually generated
    reached = len(coset_representatives(spec))
    if reached != len(set(spec.point_group)):
        raise NotGenerating("generators reach %d of %d point-group cosets"
                            % (reached, len(spec.point_group)))

    group = EuclideanGroup(spec)
    ident_mat = _identity_mat(spec.n)
    letters = group.alphabet.signed_letters()

    weights: dict = {}

    def consider(vec: Vec, weight: int):
        if all(c == 0 for c in vec):
            return
        canon = max(vec, _vec_neg(vec))
        if canon not in weights or weight < weights[canon]:
            weights[canon] = weight

    def extend(element, word_len, parts):
        for lt in letters:
            nxt = group.apply_letter(element, lt)
            part = nxt[1]
            if part == ident_mat:
                for p in spec.point_group:
                    consider(_mat_vec(p, nxt[0]), word_len + 1)
            elif part not in parts:
                extend(nxt, word_len + 1, parts | {part})

    extend(group.identity, 0, frozenset({ident_mat}))
    if not weights:
        raise NotEuclidean("no nonzero lattice translations reachable")
    gens = tuple(sorted(((v, w) for v, w in weights.items()),
                        key=lambda gw: (gw[1], gw[0])))
    try:
        return WeightedGenSet(spec.n, gens)
    except NotGenerating as exc:
        # e.g. glide squares landing in 2Z x Z: translations exist but
        # form a proper sublattice of the declared Z^n
        raise NotEuclidean("translation words generate a proper sublattice") from exc


def coset_representatives(spec: EuclideanSpec) -> dict:
    """Shortest word (as a Word) reaching each point-group coset."""
    group = EuclideanGroup(spec)
    ident = group.identity
    reps = {ident[1]: Word()}
    frontier = [(ident, Word())]
    while frontier:
        nxt = []
        for e, w in frontier:
            for lt in group.alphabet.signed_letters():
                ne = group.apply_letter(e, lt)
                if ne[1] not in reps:
                    nw = w + Word((lt,))
                    reps[ne[1]] = nw
                    nxt.append((ne, nw))
        frontier = nxt
    return reps


class SandwichReport(NamedTuple):
    observed_gap: int
    gap_bound: int
    elements_checked: int


def sandwich_check(spec: EuclideanSpec, radius: int) -> SandwichReport:
    """Compare true word length with the reduced weighted norm on lattice
    elements of the extension: the norm never exceeds the length, and the
    length exceeds the norm by at most twice the total coset-word length."""
    from .search import ball
    group = EuclideanGroup(spec)
    index = ball(group, radius)
    ws = euclidean_reduce(spec)
    ident_mat = _identity_mat(spec.n)
    lattice = [(e, d) for e, d in index.items_sorted() if e[1] == ident_mat]
    norms = weighted_distances(ws, [e[0] for e, _d in lattice])
    reps = coset_representatives(spec)
    gap_bound = 2 * sum(len(w) for w in reps.values())
    worst = 0
    for e, d in lattice:
        norm = norms[e[0]]
        if norm > d:
            raise DeadendError("reduced norm %r exceeds word length %d at %r"
                               % (norm, d, e))
        gap = d - norm
        if gap > gap_bound:
            raise DeadendError("gap %d exceeds bound %d at %r" % (gap, gap_bound, e))
        worst = max(worst, gap)
    return SandwichReport(worst, gap_bound, len(lattice))
