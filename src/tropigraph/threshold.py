"""Threshold graphs: recognition with certificates, exact rational weight
realizations, and the exact cover / intersection numbers with witnesses.

A graph is threshold exactly when no four vertices a, b, c, d have edges
ab, cd with ac, bd both absent (an "alternating C4"); equivalently it can
be built by adding one isolated-or-dominating vertex at a time.  One
bitmask peel of such vertices serves recognition (reversed into a creation
sequence, or failing with an alternating-C4 witness), the threshold
sandwich test of the cover search and the maximum induced search.

The cover number solver partitions the edges into k classes by iterative
deepening, each class an edge set that some threshold subgraph of the host
contains: the cover number is the least such k, and those subgraphs are
the cover parts, which may overlap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from .errors import BadParameter, InvalidCover, NotThreshold, ParseError, TooLarge
from .graphs import Graph, _bits, _max_clique_masks, maximum_independent_set
from .tropical import Rationalish, TropicalValue, as_fraction, slice_masks

_VERTEX_LIMIT_DEFAULT = 10
_EDGE_LIMIT_DEFAULT = 25
SCHEMA = "tropigraph/1"


def _exact_limit(limit: int | None, default: int = _VERTEX_LIMIT_DEFAULT) -> int:
    if limit is not None:
        return limit
    env = os.environ.get("TROPIGRAPH_EXACT_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise BadParameter(f"TROPIGRAPH_EXACT_LIMIT must be an int, got {env!r}") from exc
    return default


# -- recognition --------------------------------------------------------------


class VertexKind(Enum):
    ISOLATED = "isolated"
    DOMINATING = "dominating"


_Creation = tuple[tuple[int, VertexKind], ...]


@dataclass(frozen=True)
class ThresholdCertificate:
    """Either a creation sequence (yes) or an alternating-C4 witness (no).

    The creation sequence lists (vertex, kind) in the order the vertices
    are added; replaying it reconstructs the graph exactly.  The witness
    is four vertices (a, b, c, d) with ab, cd edges and ac, bd non-edges.
    """

    is_threshold: bool
    creation: _Creation | None = None
    witness: tuple[int, int, int, int] | None = None

    def replay(self) -> Graph:
        if not self.is_threshold or self.creation is None:
            raise NotThreshold("no creation sequence to replay")
        return Graph(len(self.creation), _created_edges(self.creation))

    def validate(self, g: Graph) -> bool:
        if self.is_threshold:
            return self.replay() == g
        assert self.witness is not None
        a, b, c, d = self.witness
        if len({a, b, c, d}) != 4:
            return False
        return (
            g.has_edge(a, b)
            and g.has_edge(c, d)
            and not g.has_edge(a, c)
            and not g.has_edge(b, d)
        )


def _created_edges(creation) -> list[tuple[int, int]]:
    """Edges (low, high) of a creation sequence: each dominating vertex joins all before it."""
    added: list[int] = []
    edges: list[tuple[int, int]] = []
    for v, kind in creation:
        if kind is VertexKind.DOMINATING:
            edges.extend((u, v) if u < v else (v, u) for u in added)
        added.append(v)
    return edges


def find_alternating_c4(g: Graph) -> tuple[int, int, int, int] | None:
    """Lexicographically first (a, b, c, d) with ab, cd edges, ac, bd missing."""
    edges = g.sorted_edges()
    for idx, (a, b) in enumerate(edges):
        for c, d in edges[idx + 1 :]:
            if c in (a, b) or d in (a, b):
                continue
            if not g.has_edge(a, c) and not g.has_edge(b, d):
                return (a, b, c, d)
            if not g.has_edge(a, d) and not g.has_edge(b, c):
                return (a, b, d, c)
    return None


def _peel(need: list[int], host: list[int], alive: int) -> list[tuple[int, VertexKind]] | None:
    """Removal order of a threshold-sandwich peel of ``alive``, or None when stuck.

    need[v] masks v's forced edges and host[v] its allowed ones.  Each step
    removes the lowest vertex with no forced edge to the rest (isolated),
    else the lowest with a host edge to all of it (dominating).  Some
    threshold H with need <= E(H) <= host exists on the alive vertices
    exactly when the peel empties them: H has an isolated or a dominating
    vertex, which passes here, and a vertex that passes can be put back onto
    any sandwich of the rest.
    """
    removal = []
    while alive:
        for v in _bits(alive):
            if need[v] & alive == 0:
                removal.append((v, VertexKind.ISOLATED))
                break
        else:
            for v in _bits(alive):
                if alive & ~host[v] == 1 << v:
                    removal.append((v, VertexKind.DOMINATING))
                    break
            else:
                return None
        alive ^= 1 << v
    return removal


def is_threshold(g: Graph) -> ThresholdCertificate:
    """Recognize threshold graphs; always returns a checkable certificate."""
    adj = [g.adjacency_mask(v) for v in g.vertices()]
    removal = _peel(adj, adj, (1 << g.n) - 1)
    if removal is None:
        witness = find_alternating_c4(g)
        assert witness is not None, "stuck peel must expose an alternating C4"
        return ThresholdCertificate(False, witness=witness)
    return ThresholdCertificate(True, creation=tuple(reversed(removal)))


# -- weight realizations -------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRealization:
    """Vertex weights w with w(u) + w(v) >= threshold exactly on the edges."""

    weights: tuple[Fraction, ...]
    threshold: Fraction

    def realizes(self, g: Graph) -> bool:
        if len(self.weights) != g.n:
            return False
        masks = slice_masks([TropicalValue.finite(w) for w in self.weights], self.threshold)
        return masks == [g.adjacency_mask(v) for v in g.vertices()]


def threshold_weights(g: Graph, t: Rationalish = 1) -> ThresholdRealization:
    """Exact rational weights in (0, t) for a threshold graph.

    Weights are assigned in creation order: a dominating vertex gets
    t - min(previous weights) so its weakest pair lands exactly on the
    threshold; an isolated vertex gets -max(previous weights) so even its
    strongest pair stays at 0 < t.  The raw weights are then contracted
    around the midpoint t/2, which leaves every pair sum's position
    relative to t unchanged while pulling all weights strictly inside
    (0, t); that keeps them safe to embed as coordinates next to other
    parts' weights or an all-t clique vector.
    """
    tf = as_fraction(t)
    if tf <= 0:
        raise BadParameter("threshold t must be > 0")
    cert = is_threshold(g)
    if not cert.is_threshold:
        raise NotThreshold(f"graph has alternating C4 witness {cert.witness}")
    assert cert.creation is not None
    return _weights(cert.creation, tf)


def _weights(creation: _Creation, tf: Fraction) -> ThresholdRealization:
    """threshold_weights from a creation sequence over 0..n-1 and a checked t > 0."""
    mid = tf / 2
    weights: dict[int, Fraction] = {}
    low = high = mid
    for v, kind in creation:
        if not weights:
            w = mid
        elif kind is VertexKind.DOMINATING:
            w = tf - low
        else:
            w = -high
        weights[v] = w
        low, high = min(low, w), max(high, w)
    spread = max(high - mid, mid - low)
    if spread >= mid:
        # w -> mid + a*(w - mid) with a > 0 maps pair sums to t + a*(sum - t)
        scale = mid / (spread + mid)
        weights = {v: mid + scale * (w - mid) for v, w in weights.items()}
    return ThresholdRealization(tuple(weights[v] for v in range(len(creation))), tf)


# -- covers -------------------------------------------------------------------


class CoverMode(Enum):
    UNION = "union"
    INTERSECTION = "intersection"


@dataclass(frozen=True)
class CoverSolution:
    """Edge sets E_1..E_k over a fixed vertex set, union- or intersection-mode."""

    mode: CoverMode
    parts: tuple[frozenset[tuple[int, int]], ...]
    n: int

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "mode": self.mode.value,
            "n": self.n,
            "parts": [[list(e) for e in sorted(part)] for part in self.parts],
        }

    @staticmethod
    def from_json(data: dict) -> "CoverSolution":
        try:
            mode = CoverMode(data["mode"])
            n = int(count := data["n"])
            if type(count) is not int and str(n) != count or n < 0:
                raise ValueError(f"vertex count {count!r} is not an integer >= 0")
            parts = tuple(
                frozenset(_json_edge(u, v, n) for u, v in part) for part in data["parts"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed cover JSON: {exc}") from exc
        return CoverSolution(mode, parts, n)


def _json_edge(u, v, n: int) -> tuple[int, int]:
    """Edge (low, high) from JSON endpoints, ints or decimal strings in 0..n-1, converted first."""
    a, b = ends = int(u), int(v)
    if any(type(x) is not int and str(w) != x or not 0 <= w < n for x, w in zip((u, v), ends)):
        raise ValueError(f"edge ({u!r}, {v!r}) is not on integer vertices 0..{n - 1}")
    if a == b:
        raise ValueError(f"loop at vertex {a}")
    return (a, b) if a < b else (b, a)


def _canonical_parts(parts) -> tuple[frozenset[tuple[int, int]], ...]:
    return tuple(
        frozenset(p) for p in sorted((sorted(part) for part in parts))
    )


def validate_cover(g: Graph, cover: CoverSolution) -> tuple[_Creation, ...]:
    """Each part's creation sequence, which replays to that part on g's vertices.

    Raises InvalidCover unless the cover witnesses its mode for g.
    """
    if cover.n != g.n:
        raise InvalidCover(f"cover on {cover.n} vertices, graph on {g.n}")
    creations = []
    for i, part in enumerate(cover.parts):
        cert = is_threshold(Graph(g.n, part))
        if not cert.is_threshold:
            raise InvalidCover(f"part {i} is not a threshold graph")
        creations.append(cert.creation)
    if cover.mode is CoverMode.UNION:
        union: frozenset = frozenset()
        for part in cover.parts:
            union |= part
        if union != g.edges:
            raise InvalidCover("union of parts does not equal the edge set")
    else:
        every = frozenset(combinations(range(g.n), 2))
        meet = every
        for part in cover.parts:
            if not part >= g.edges:
                raise InvalidCover("intersection part must contain every edge")
            meet &= part
        if meet != g.edges:
            raise InvalidCover("intersection of parts does not equal the edge set")
    return tuple(creations)


def complement_cover(cover: CoverSolution) -> CoverSolution:
    """Complement every part and flip the mode (de Morgan on edge sets)."""
    every = frozenset(combinations(range(cover.n), 2))
    flipped = CoverMode.INTERSECTION if cover.mode is CoverMode.UNION else CoverMode.UNION
    return CoverSolution(
        flipped, _canonical_parts(every - part for part in cover.parts), cover.n
    )


def star_cover(g: Graph) -> CoverSolution:
    """Union cover by one star per vertex outside a maximum independent set."""
    return _stars(g, maximum_independent_set(g))


def _stars(g: Graph, independent: frozenset[int]) -> CoverSolution:
    """Union cover by one star per vertex outside the independent set."""
    keep = sorted(set(range(g.n)) - independent)
    parts = [frozenset((min(u, v), max(u, v)) for v in g.neighbors(u)) for u in keep]
    return CoverSolution(CoverMode.UNION, _canonical_parts(parts), g.n)


# -- exact cover-number solver -------------------------------------------------


@dataclass(frozen=True)
class ThetaResult:
    value: int
    cover: CoverSolution


class _CoverSearch:
    """Decision search: can the edges be partitioned into k sandwich classes?

    A class is an edge set S that extends to a threshold graph H with
    S <= E(H) <= E(g).  Keeping each edge of a cover in one part that holds
    it gives such a partition, and the graphs H of a partition cover g, so
    the least k is the cover number; the H found are the cover parts.

    ``conflict[e]`` masks the edges that share no class with e: ab and cd
    conflict when g has neither ac nor bd, or neither ad nor bc.  ``decide``
    places next the edge that conflicts with the most classes in use
    (DSATUR), tries each class whose peel still succeeds, and opens at most
    one new class per level, so it never tries two renamings of one partition.
    """

    def __init__(self, g: Graph) -> None:
        self.host = [g.adjacency_mask(v) for v in g.vertices()]
        self.edges = g.sorted_edges()
        self.m = len(self.edges)
        index: dict[tuple[int, int], int] = {}
        for i, (a, b) in enumerate(self.edges):
            index[a, b] = index[b, a] = i
        everyone = (1 << g.n) - 1
        self.conflict: list[int] = []
        for a, b in self.edges:
            ends = 1 << a | 1 << b
            far_a = everyone & ~self.host[a] & ~ends
            far_b = everyone & ~self.host[b] & ~ends
            mask = 0
            for c in _bits(far_a):
                for d in _bits(self.host[c] & far_b):
                    mask |= 1 << index[c, d]
            self.conflict.append(mask)

    def decide(self, k: int) -> list[frozenset[tuple[int, int]]] | None:
        """Edge sets of at most k threshold subgraphs covering g, or None."""
        conflict, edges = self.conflict, self.edges
        degree = [c.bit_count() for c in conflict]
        classes: list[int] = []
        needs: list[list[int]] = []
        touched: list[int] = []

        def urgency(e: int) -> tuple[int, int, int]:
            return (sum(1 for s in classes if conflict[e] & s), degree[e], -e)

        def place(left: int) -> bool:
            if not left:
                return True
            e = max(_bits(left), key=urgency)
            a, b = edges[e]
            ends, rest = 1 << a | 1 << b, left ^ 1 << e
            for ci, s in enumerate(classes):
                if conflict[e] & s:
                    continue
                need, was = needs[ci], touched[ci]
                need[a] |= 1 << b
                need[b] |= 1 << a
                classes[ci], touched[ci] = s | 1 << e, was | ends
                if _peel(need, self.host, touched[ci]) is not None and place(rest):
                    return True
                need[a] ^= 1 << b
                need[b] ^= 1 << a
                classes[ci], touched[ci] = s, was
            if len(classes) < k:
                need = [0] * len(self.host)
                need[a], need[b] = 1 << b, 1 << a
                classes.append(1 << e)
                needs.append(need)
                touched.append(ends)
                if place(rest):
                    return True
                del classes[-1], needs[-1], touched[-1]
            return False

        if not place((1 << self.m) - 1):
            return None
        return [
            frozenset(_created_edges(reversed(_peel(need, self.host, alive))))
            for need, alive in zip(needs, touched)
        ]


def _bracket(
    g: Graph, alpha_limit: int | None = None
) -> tuple[int, int, CoverSolution, _CoverSearch | None]:
    """(lower, upper, union cover with upper parts, search or None) for the cover number.

    Edgeless graphs have cover number 0 and threshold graphs 1.  Otherwise
    the star cover gives n - alpha, which triangle-free graphs attain since
    their threshold subgraphs are stars; else the lower end is the largest
    set of edges that pairwise conflict, from the search returned for
    closing the bracket.
    """
    if g.edge_count == 0:
        return 0, 0, CoverSolution(CoverMode.UNION, (), g.n), None
    if is_threshold(g).is_threshold:
        return 1, 1, CoverSolution(CoverMode.UNION, _canonical_parts([g.edges]), g.n), None
    cover = _stars(g, maximum_independent_set(g, alpha_limit))
    upper = len(cover.parts)
    if g.is_triangle_free():
        return upper, upper, cover, None
    search = _CoverSearch(g)
    lower = max(2, _max_clique_masks(search.conflict, search.m).bit_count())
    assert lower <= upper, "lower bound exceeded n - alpha"
    return lower, upper, cover, search


def _solve(
    g: Graph, limit: int | None = None, edge_limit: int | None = None
) -> tuple[int, int, CoverSolution, str | None]:
    """_bracket(g) closed by the partition search, or with the size gate that stopped it."""
    vlim = _exact_limit(limit)
    elim = _EDGE_LIMIT_DEFAULT if edge_limit is None else edge_limit
    lower, upper, cover, search = _bracket(g)
    for size, most, what in ((g.n, vlim, "vertices"), (g.edge_count, elim, "edges")):
        if size > most:
            return lower, upper, cover, f"exact cover search limited to {most} {what}, got {size}"
    for k in range(lower, upper):
        sol = search.decide(k)
        if sol is not None:
            return k, k, CoverSolution(CoverMode.UNION, _canonical_parts(sol), g.n), None
    return upper, upper, cover, None


def theta(g: Graph, limit: int | None = None, edge_limit: int | None = None) -> ThetaResult:
    """Exact minimum number of threshold subgraphs whose union is g.

    Edgeless graphs have cover number 0 by convention (the empty cover).
    The size gates guard only the partition search, so edgeless, threshold
    and triangle-free graphs are answered past them (triangle-free ones up to
    the independence search's 32 vertices).  Raises TooLarge when the
    bracket stays open past the gates; theta_bounds gives that bracket.
    """
    lower, upper, cover, gate = _solve(g, limit, edge_limit)
    if lower < upper:
        raise TooLarge(gate)
    return ThetaResult(upper, cover)


def theta_hat(g: Graph, limit: int | None = None, edge_limit: int | None = None) -> ThetaResult:
    """Exact minimum number of threshold graphs intersecting to g.

    Computed on the complement and de Morgan'd back: each complement-cover
    part flips into an intersection part that contains every edge of g.
    """
    res = theta(g.complement(), limit, edge_limit)
    return ThetaResult(res.value, complement_cover(res.cover))


def theta_bounds(g: Graph, limit: int | None = None) -> tuple[int, int]:
    """(lower, upper) bounds on the cover number, without the partition search.

    Exact for edgeless, threshold and triangle-free graphs; otherwise the
    lower end is the conflict clique bound and the upper end n - alpha(g),
    whose independence search takes ``limit``.
    """
    return _bracket(g, limit)[:2]


# -- maximum induced threshold subgraph ----------------------------------------


def max_induced_threshold(g: Graph, limit: int | None = None) -> frozenset[int]:
    """Lexicographically first maximum vertex set inducing a threshold graph."""
    vlim = _exact_limit(limit, default=12)
    if g.n > vlim:
        raise TooLarge(f"exact induced search limited to {vlim} vertices, got {g.n}")
    adj = [g.adjacency_mask(v) for v in g.vertices()]
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if _peel(adj, adj, sum(1 << v for v in subset)) is not None:
                return frozenset(subset)
    return frozenset()
