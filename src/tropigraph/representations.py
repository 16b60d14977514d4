"""Constructive tropical dot-product representations.

Every constructor returns a Representation that the verifier module can
check against its target graph: vertex u and v are adjacent exactly when
the tropical dot product of their vectors reaches the threshold t.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    BadParameter,
    BadSpec,
    InvalidCover,
    InvalidInputRepresentation,
    ParseError,
)
from .graphs import CaterpillarSpec, Graph, complete_multipartite, cycle
from .threshold import (
    SCHEMA,
    CoverMode,
    CoverSolution,
    _weights,
    threshold_weights,
    validate_cover,
)
from .tropical import (
    MAX_PLUS,
    MIN_PLUS,
    POS_INF,
    Algebra,
    Rationalish,
    TropicalValue,
    TropicalVector,
    as_fraction,
    realize_masks,
)


@dataclass(frozen=True)
class Representation:
    """An algebra tag, a threshold t > 0, and one vector per vertex."""

    algebra: Algebra
    t: Fraction
    vectors: tuple[TropicalVector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise BadParameter("representation needs at least one vertex")
        if self.t <= 0:
            raise BadParameter("representation threshold t must be > 0")
        dim = self.vectors[0].dim
        for vec in self.vectors:
            if vec.dim != dim:
                raise BadParameter("all vectors must share one dimension")
            for entry in vec:
                if self.algebra is MIN_PLUS and entry.is_neg_inf:
                    raise BadParameter("min-plus representations cannot contain -inf")
                if self.algebra is MAX_PLUS and entry.is_pos_inf:
                    raise BadParameter("max-plus representations cannot contain inf")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "algebra": self.algebra.value,
            "t": f"{self.t.numerator}/{self.t.denominator}",
            "dim": self.dim,
            "vectors": {str(i): vec.to_json() for i, vec in enumerate(self.vectors)},
        }

    @staticmethod
    def from_json(data: dict) -> "Representation":
        try:
            algebra = Algebra(data["algebra"])
            t = as_fraction(data["t"])
            raw = data["vectors"]
            vectors = tuple(
                TropicalVector.from_json(raw[str(i)]) for i in range(len(raw))
            )
            rep = Representation(algebra, t, vectors)
        except BadParameter:
            raise
        except Exception as exc:
            raise ParseError(f"malformed representation JSON: {exc}") from exc
        if rep.dim != int(data.get("dim", rep.dim)):
            raise ParseError("representation dim field disagrees with the vectors")
        return rep


def _fin(x: Rationalish) -> TropicalValue:
    return TropicalValue.finite(x)


# -- existence constructions ---------------------------------------------------


def minplus_generic(g: Graph, t: Rationalish = 1) -> Representation:
    """Dimension-n min-plus representation with exact extreme dot values.

    Coordinate j of vertex i is t/6 when j == i, +inf when j < i, 7t/6 when
    j > i and ij is an edge, and 2t/3 otherwise.  Every pair i < j is
    decided at coordinate j (the later vertex's own slot): edges land
    exactly on 7t/6 + t/6 = 4t/3 and non-edges exactly on 2t/3 + t/6 =
    5t/6.  Any coordinate past j sums to at least 2t/3 + 2t/3 = 4t/3, so
    the extreme values are exact, not merely bounds.
    """
    tf = as_fraction(t)
    if tf <= 0:
        raise BadParameter("threshold t must be > 0")
    if g.n < 1:
        raise BadParameter("graph must have at least one vertex")
    diag, edge_entry, non_edge = _fin(tf / 6), _fin(tf * 7 / 6), _fin(tf * 2 / 3)
    vectors = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if j == i:
                row.append(diag)
            elif j < i:
                row.append(POS_INF)
            elif g.has_edge(i, j):
                row.append(edge_entry)
            else:
                row.append(non_edge)
        vectors.append(TropicalVector(tuple(row)))
    return Representation(MIN_PLUS, tf, tuple(vectors))


def maxplus_generic(g: Graph, t: Rationalish = 1) -> Representation:
    """Dimension-n max-plus representation with exact extreme dot values.

    Coordinate j of vertex i is t when j == i, t/3 when ij is an edge, and
    -t/3 otherwise.  A pair meets on its two diagonal coordinates: edges
    reach exactly t + t/3 = 4t/3 there, non-edges exactly t - t/3 = 2t/3,
    and every shared off-diagonal coordinate sums to at most 2t/3.  The
    filler must be negative: with a filler of 0 the diagonal coordinate of
    a non-adjacent pair would sum to exactly t and wrongly create an edge.
    """
    tf = as_fraction(t)
    if tf <= 0:
        raise BadParameter("threshold t must be > 0")
    if g.n < 1:
        raise BadParameter("graph must have at least one vertex")
    diag, near, far = _fin(tf), _fin(tf / 3), _fin(-tf / 3)
    vectors = []
    for i in range(g.n):
        row = [
            diag if j == i else near if g.has_edge(i, j) else far for j in range(g.n)
        ]
        vectors.append(TropicalVector(tuple(row)))
    return Representation(MAX_PLUS, tf, tuple(vectors))


def minplus_extend_vertex(rep: Representation, g: Graph, v: int) -> Representation:
    """Extend a min-plus representation of g - v to one of g, adding one coordinate.

    Vertices keep their vectors plus a new coordinate: t for neighbors of
    v, t/2 for non-neighbors; v itself maps to (+inf, ..., +inf, t/3).
    The old coordinates keep deciding pairs inside g - v (the new sums
    there are at least t), and every pair with v is decided at the new
    coordinate alone.
    """
    if rep.algebra is not MIN_PLUS:
        raise InvalidInputRepresentation("vertex extension needs a min-plus representation")
    if not 0 <= v < g.n:
        raise BadParameter(f"vertex {v} out of range")
    if rep.n != g.n - 1:
        raise InvalidInputRepresentation(
            f"representation covers {rep.n} vertices, expected {g.n - 1}"
        )
    rest = [u for u in range(g.n) if u != v]
    below = g.induced(rest)
    realized = realize_masks(rep.vectors, rep.t, MIN_PLUS)
    if realized != [below.adjacency_mask(u) for u in below.vertices()]:
        raise InvalidInputRepresentation("input representation is not valid for g - v")
    t = rep.t
    near, far, own = _fin(t), _fin(t / 2), _fin(t / 3)
    vectors: list[TropicalVector | None] = [None] * g.n
    for old_index, u in enumerate(rest):
        extra = near if g.has_edge(u, v) else far
        vectors[u] = TropicalVector(rep.vectors[old_index].entries + (extra,))
    vectors[v] = TropicalVector((POS_INF,) * rep.dim + (own,))
    return Representation(MIN_PLUS, t, tuple(vectors))  # type: ignore[arg-type]


def rescale(rep: Representation, new_t: Rationalish) -> Representation:
    """Scale every finite entry by new_t/t; validity is preserved exactly."""
    nt = as_fraction(new_t)
    if nt <= 0:
        raise BadParameter("threshold t must be > 0")
    ratio = nt / rep.t
    vectors = tuple(
        TropicalVector(
            tuple(
                TropicalValue.finite(e.frac * ratio) if e.is_finite else e for e in vec
            )
        )
        for vec in rep.vectors
    )
    return Representation(rep.algebra, nt, vectors)


# -- threshold-graph constructions ---------------------------------------------


def threshold_1dim(g: Graph, t: Rationalish = 1, algebra: Algebra = MIN_PLUS) -> Representation:
    """Dimension-1 representation of a threshold graph from its weights.

    With one coordinate the min-plus and max-plus dot products coincide,
    so the same vectors are valid under either algebra tag.
    """
    realization = threshold_weights(g, t)
    vectors = tuple(TropicalVector((_fin(w),)) for w in realization.weights)
    return Representation(algebra, realization.threshold, vectors)


def from_cover(g: Graph, cover: CoverSolution, t: Rationalish = 1) -> Representation:
    """Representation of dimension |parts| from a threshold cover of g.

    Coordinate j holds each vertex's exact threshold weight inside part j,
    so a pair's coordinate-j sum reaches t exactly when it is an edge of
    part j.  A union cover gives max-plus (some part holds the pair: the
    parts' union is g), an intersection cover gives min-plus (every part
    holds it: their intersection is g).  An empty cover (edgeless graph
    under union, complete graph under intersection) becomes the single
    part it stands for, so the dimension stays >= 1.
    """
    creations = validate_cover(g, cover)
    if cover.mode is CoverMode.UNION:
        algebra, whole = MAX_PLUS, frozenset()
    else:
        algebra, whole = MIN_PLUS, frozenset(combinations(range(g.n), 2))
    tf = as_fraction(t)
    if tf <= 0:
        raise BadParameter("threshold t must be > 0")
    weightings = [_weights(c, tf) for c in creations] or [threshold_weights(Graph(g.n, whole), tf)]
    vectors = tuple(
        TropicalVector(tuple(_fin(w.weights[v]) for w in weightings))
        for v in range(g.n)
    )
    return Representation(algebra, tf, vectors)


def maxplus_from_cover(g: Graph, cover: CoverSolution, t: Rationalish = 1) -> Representation:
    """from_cover restricted to union covers (max-plus)."""
    if cover.mode is not CoverMode.UNION:
        raise InvalidCover("max-plus construction needs a union-mode cover")
    return from_cover(g, cover, t)


def minplus_from_intersection(g: Graph, cover: CoverSolution, t: Rationalish = 1) -> Representation:
    """from_cover restricted to intersection covers (min-plus)."""
    if cover.mode is not CoverMode.INTERSECTION:
        raise InvalidCover("min-plus construction needs an intersection-mode cover")
    return from_cover(g, cover, t)


# -- caterpillars ----------------------------------------------------------------


def _spine_vector(i: int, k: int) -> tuple[Fraction, Fraction]:
    """Two coordinates for global spine position i >= 1 with offset k >= 2."""
    d = (i - 1) // 2
    if i % 2 == 1:
        return (Fraction(1, k + d), Fraction(k + d, k + d + 1))
    return (Fraction(k + d, k + d + 1), Fraction(1, k + d + 1))


CaterpillarLayout = list[tuple[list[int], dict[int, list[int]]]]


def _caterpillar_rep(n: int, layout: CaterpillarLayout, k_offset: int) -> Representation:
    """Two-dimensional min-plus representation of a labeled caterpillar forest.

    layout lists, per component, the spine vertices in path order and the
    leaves hanging off each spine index (the form caterpillar_structure
    returns).  Spine positions continue across components with a gap of
    2, so the end of one spine and the start of the next are never
    consecutive and hence never adjacent.
    """
    if k_offset < 2:
        raise BadSpec("caterpillar construction needs k_offset >= 2")
    one = Fraction(1)
    vectors: list[TropicalVector | None] = [None] * n
    start = 1
    for spine, leaves in layout:
        for offset, v in enumerate(spine):
            a, b = _spine_vector(start + offset, k_offset)
            vectors[v] = TropicalVector((_fin(a), _fin(b)))
            for leaf in leaves.get(offset, ()):
                vectors[leaf] = TropicalVector((_fin(one - a), _fin(one - b)))
        start += len(spine) + 1
    return Representation(MIN_PLUS, one, tuple(vectors))  # type: ignore[arg-type]


def caterpillar_2dim(spec: CaterpillarSpec, k_offset: int = 2) -> Representation:
    """Two-dimensional min-plus representation of a caterpillar at t = 1.

    Spine position i (1-based) gets (1/(k+d), (k+d)/(k+d+1)) when i is odd
    and ((k+d)/(k+d+1), 1/(k+d+1)) when even, with d = floor((i-1)/2); a
    leaf hanging off position i gets (1,1) minus its spine vector, so the
    leaf-spine dot is exactly 1.  Consecutive spine dots are exactly 1 and
    all other pairs fall strictly below 1.
    """
    return forest_of_caterpillars([spec], k_offset)


def forest_of_caterpillars(
    specs: list[CaterpillarSpec] | tuple[CaterpillarSpec, ...], k_offset: int = 2
) -> Representation:
    """Two-dimensional min-plus representation of a disjoint caterpillar forest.

    Vertices follow the disjoint-union layout of the caterpillar graphs,
    which is known from the specs, so nothing is recognised; t = 1.
    """
    if not specs:
        raise BadSpec("forest needs at least one caterpillar")
    layout: CaterpillarLayout = []
    first = 0
    for spec in specs:
        nxt = first + spec.spine
        leaves = {}
        for i, count in enumerate(spec.leaf_counts()):
            leaves[i] = list(range(nxt, nxt + count))
            nxt += count
        layout.append((list(range(first, first + spec.spine)), leaves))
        first = nxt
    return _caterpillar_rep(first, layout, k_offset)


# -- joins, multipartite graphs, cycles ------------------------------------------


def join_clique(rep: Representation, n_clique: int) -> Representation:
    """Representation of (represented graph) joined with K_n, same dimension.

    The clique vertices are appended and mapped to the all-t vector.  That
    keeps every existing dot product unchanged and makes clique dots land
    at 2t and clique-to-old dots at (entry sum) + t, so the construction
    needs nonnegative coordinates: all entries >= 0 under min-plus, at
    least one entry >= 0 per vertex under max-plus.
    """
    if n_clique < 1:
        raise BadParameter("join_clique needs n_clique >= 1")
    zero = _fin(0)
    for vec in rep.vectors:
        if rep.algebra is MIN_PLUS:
            if any(e.is_finite and e < zero for e in vec):
                raise InvalidInputRepresentation(
                    "min-plus join needs all coordinates >= 0"
                )
        else:
            if not any(e >= zero for e in vec):
                raise InvalidInputRepresentation(
                    "max-plus join needs some coordinate >= 0 in every vector"
                )
    all_t = TropicalVector((_fin(rep.t),) * rep.dim)
    return Representation(rep.algebra, rep.t, rep.vectors + (all_t,) * n_clique)


def multipartite_rep_for_graph(g: Graph) -> Representation:
    """Min-plus representation of a complete multipartite graph as labeled, t = 1.

    The parts are the components of the complement, which must be
    cliques.  Vertices of non-singleton part j get 0 at coordinate j and 1
    elsewhere: cross-part dots are exactly 1, same-part dots exactly 0.
    Singleton parts are universal vertices and get the all-ones vector, so
    m singletons shrink the dimension from k to k - m.  With at most one
    non-singleton part the graph is threshold and one dimension suffices.
    """
    comp = g.complement()
    parts = [sorted(c) for c in sorted(comp.components(), key=min)]
    for part in parts:
        for u, v in combinations(part, 2):
            if not comp.has_edge(u, v):
                raise BadParameter("graph is not complete multipartite")
    if len(parts) < 2:
        raise BadParameter("complete multipartite needs at least two parts")
    big = [p for p in parts if len(p) > 1]
    if len(big) < 2:
        return threshold_1dim(g, 1, MIN_PLUS)
    membership = {v: j for j, part in enumerate(big) for v in part}
    zero, one = _fin(0), _fin(1)
    dim = len(big)
    vectors = []
    for v in range(g.n):
        j = membership.get(v)
        if j is None:
            vectors.append(TropicalVector((one,) * dim))
        else:
            vectors.append(
                TropicalVector(tuple(zero if c == j else one for c in range(dim)))
            )
    return Representation(MIN_PLUS, Fraction(1), tuple(vectors))


def multipartite_kdim(sizes: list[int] | tuple[int, ...]) -> Representation:
    """Min-plus representation of complete_multipartite(sizes) at t = 1."""
    return multipartite_rep_for_graph(complete_multipartite(sizes))


def cycle_rep_for_graph(g: Graph) -> Representation:
    """Three-dimensional min-plus representation of a labeled cycle, n >= 5.

    Composition: walk the cycle from vertex 0, represent the path along
    the walk's first n - 1 vertices in two dimensions with the caterpillar
    construction, then extend by the closing vertex.
    """
    if g.n < 5:
        raise BadParameter("cycle construction needs n >= 5")
    if any(g.degree(v) != 2 for v in range(g.n)) or len(g.components()) != 1:
        raise BadParameter("graph is not a single cycle")
    walk = [0, min(g.neighbors(0))]
    while len(walk) < g.n:
        nxt = [u for u in g.neighbors(walk[-1]) if u != walk[-2]]
        walk.append(nxt[0])
    path_rep = caterpillar_2dim(CaterpillarSpec(g.n - 1))
    rep = minplus_extend_vertex(path_rep, cycle(g.n), g.n - 1)
    vectors: list[TropicalVector | None] = [None] * g.n
    for pos, v in enumerate(walk):
        vectors[v] = rep.vectors[pos]
    return Representation(MIN_PLUS, rep.t, tuple(vectors))  # type: ignore[arg-type]


def cycle_3dim(n: int) -> Representation:
    """Three-dimensional min-plus representation of cycle(n), n >= 5."""
    return cycle_rep_for_graph(cycle(n))


# -- structure recognition for the CLI -------------------------------------------


def _bfs_farthest(g: Graph, start: int, allowed: frozenset[int]) -> tuple[int, dict[int, int]]:
    dist = {start: 0}
    parents = {start: start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in sorted(g.neighbors(v)):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                parents[u] = v
                queue.append(u)
    far = max(dist.values())
    best = min(v for v, d in dist.items() if d == far)
    return best, parents


def caterpillar_structure(g: Graph) -> CaterpillarLayout:
    """Decompose a caterpillar forest into (spine, leaves-by-spine-index) parts.

    Each component must be a tree whose non-spine vertices are degree-1
    neighbors of the spine (a longest path).  Raises BadSpec otherwise.
    """
    out = []
    for comp in sorted(g.components(), key=min):
        members = sorted(comp)
        inner_edges = sum(1 for u, v in g.edges if u in comp and v in comp)
        if inner_edges != len(members) - 1:
            raise BadSpec("component is not a tree")
        if len(members) == 1:
            out.append(([members[0]], {}))
            continue
        end_a, _ = _bfs_farthest(g, members[0], comp)
        end_b, parents = _bfs_farthest(g, end_a, comp)
        spine = [end_b]
        while spine[-1] != end_a:
            spine.append(parents[spine[-1]])
        on_spine = set(spine)
        position = {v: i for i, v in enumerate(spine)}
        leaves: dict[int, list[int]] = {}
        for v in members:
            if v in on_spine:
                continue
            nbrs = g.neighbors(v)
            if len(nbrs) != 1 or nbrs[0] not in on_spine:
                raise BadSpec("component is not a caterpillar")
            leaves.setdefault(position[nbrs[0]], []).append(v)
        out.append((spine, leaves))
    return out


def caterpillar_rep_for_graph(g: Graph, k_offset: int = 2) -> Representation:
    """Two-dimensional min-plus representation of a caterpillar forest as labeled."""
    return _caterpillar_rep(g.n, caterpillar_structure(g), k_offset)
