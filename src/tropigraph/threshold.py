"""Threshold graphs: recognition with certificates, exact rational weight
realizations, and the exact cover / intersection numbers with witnesses.

A graph is threshold exactly when no four vertices a, b, c, d have edges
ab, cd with ac, bd both absent (an "alternating C4"); equivalently it can
be built by adding one isolated-or-dominating vertex at a time.  The
recognizer peels such vertices and reverses the order into a creation
sequence; failure yields an alternating-C4 witness.

The cover number solver assigns edges to color classes by iterative
deepening.  Classes may overlap: an alternating C4 inside a class can be
repaired by adding one of its missing diagonals, as long as that diagonal
is an edge of the host graph.  The search branches over those repairs, so
it is complete for covers, not merely for partitions.  Every class it holds
is alternating-C4-free, so when an edge joins a class each violated pair
touches an edge added since; the repair closures scan only those pairs,
repair the violated pair of lowest index first, and are memoized for the
life of one search, across all the cover sizes k it decides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from .errors import BadParameter, InvalidCover, NotThreshold, ParseError, TooLarge
from .graphs import Graph, _bits, _max_clique_masks, alpha, maximum_independent_set
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


@dataclass(frozen=True)
class ThresholdCertificate:
    """Either a creation sequence (yes) or an alternating-C4 witness (no).

    The creation sequence lists (vertex, kind) in the order the vertices
    are added; replaying it reconstructs the graph exactly.  The witness
    is four vertices (a, b, c, d) with ab, cd edges and ac, bd non-edges.
    """

    is_threshold: bool
    creation: tuple[tuple[int, VertexKind], ...] | None = None
    witness: tuple[int, int, int, int] | None = None

    def replay(self) -> Graph:
        if not self.is_threshold or self.creation is None:
            raise NotThreshold("no creation sequence to replay")
        added: list[int] = []
        edges: list[tuple[int, int]] = []
        for v, kind in self.creation:
            if kind is VertexKind.DOMINATING:
                edges.extend((u, v) for u in added)
            added.append(v)
        return Graph(len(self.creation), edges)

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


def is_threshold(g: Graph) -> ThresholdCertificate:
    """Recognize threshold graphs; always returns a checkable certificate."""
    alive = (1 << g.n) - 1
    count = g.n
    removal: list[tuple[int, VertexKind]] = []
    while count:
        pick = None
        kind = None
        for v in _bits(alive):
            if g.adjacency_mask(v) & alive == 0:
                pick, kind = v, VertexKind.ISOLATED
                break
        if pick is None:
            for v in _bits(alive):
                if (g.adjacency_mask(v) & alive).bit_count() == count - 1:
                    pick, kind = v, VertexKind.DOMINATING
                    break
        if pick is None:
            witness = find_alternating_c4(g)
            assert witness is not None, "stuck peel must expose an alternating C4"
            return ThresholdCertificate(False, witness=witness)
        removal.append((pick, kind))
        alive &= ~(1 << pick)
        count -= 1
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
    weights: dict[int, Fraction] = {}
    for v, kind in cert.creation:
        if not weights:
            weights[v] = tf / 2
        elif kind is VertexKind.DOMINATING:
            weights[v] = tf - min(weights.values())
        else:
            weights[v] = -max(weights.values())
    mid = tf / 2
    spread = max(abs(w - mid) for w in weights.values())
    if spread >= mid:
        # w -> mid + a*(w - mid) with a > 0 maps pair sums to t + a*(sum - t)
        scale = mid / (spread + mid)
        weights = {v: mid + scale * (w - mid) for v, w in weights.items()}
    return ThresholdRealization(tuple(weights[v] for v in range(g.n)), tf)


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
            n = int(data["n"])
            parts = tuple(
                frozenset((int(u), int(v)) if u < v else (int(v), int(u)) for u, v in part)
                for part in data["parts"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed cover JSON: {exc}") from exc
        return CoverSolution(mode, parts, n)


def _canonical_parts(parts) -> tuple[frozenset[tuple[int, int]], ...]:
    return tuple(
        frozenset(p) for p in sorted((sorted(part) for part in parts))
    )


def validate_cover(g: Graph, cover: CoverSolution) -> None:
    """Raise InvalidCover unless the cover witnesses its mode for g."""
    if cover.n != g.n:
        raise InvalidCover(f"cover on {cover.n} vertices, graph on {g.n}")
    for i, part in enumerate(cover.parts):
        part_graph = Graph(g.n, part)
        if not is_threshold(part_graph).is_threshold:
            raise InvalidCover(f"part {i} is not a threshold graph")
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


def complement_cover(cover: CoverSolution) -> CoverSolution:
    """Complement every part and flip the mode (de Morgan on edge sets)."""
    every = frozenset(combinations(range(cover.n), 2))
    flipped = CoverMode.INTERSECTION if cover.mode is CoverMode.UNION else CoverMode.UNION
    return CoverSolution(
        flipped, _canonical_parts(every - part for part in cover.parts), cover.n
    )


def star_cover(g: Graph) -> CoverSolution:
    """Union cover by one star per vertex outside a maximum independent set."""
    keep = sorted(set(range(g.n)) - maximum_independent_set(g))
    parts = [frozenset((min(u, v), max(u, v)) for v in g.neighbors(u)) for u in keep]
    return CoverSolution(CoverMode.UNION, _canonical_parts(parts), g.n)


# -- exact cover-number solver -------------------------------------------------


@dataclass(frozen=True)
class ThetaResult:
    value: int
    cover: CoverSolution


class _CoverSearch:
    """Decision search: can the edges be covered by k threshold classes?

    Edges are indexed; for every vertex-disjoint edge pair (ab, cd) the two
    diagonal conditions are precomputed as bitmasks of host-graph edges:
    a class S containing both ab and cd must intersect each condition mask.
    An empty mask means the pair can never share a class.

    ``memo`` maps a class plus its new edge to its sorted repair closures;
    ``theta`` shares one search across every ``decide(k)``, so the memo is
    dropped when ``theta`` returns.  The partial re-check in ``_closures`` is
    exact because every class passed to it is closed: a violation must touch
    an edge added since, and the violated pair of lowest index in ``pairs``
    is repaired, as a full scan of ``pairs`` would.
    """

    def __init__(self, g: Graph) -> None:
        self.g = g
        self.edges = g.sorted_edges()
        self.m = len(self.edges)
        self.full = (1 << self.m) - 1
        index = {e: i for i, e in enumerate(self.edges)}

        def edge_mask(x: int, y: int) -> int:
            e = (x, y) if x < y else (y, x)
            return 1 << index[e] if e in index else 0

        self.pairs: list[tuple[int, int, int, int]] = []
        for i, (a, b) in enumerate(self.edges):
            for j in range(i + 1, self.m):
                c, d = self.edges[j]
                if c in (a, b) or d in (a, b):
                    continue
                mask_a = edge_mask(a, c) | edge_mask(b, d)
                mask_b = edge_mask(a, d) | edge_mask(b, c)
                self.pairs.append((i, j, mask_a, mask_b))
        self.memo: dict[int, list[int]] = {}

    @cached_property
    def touching(self) -> list[list[tuple[int, int, int, int]]]:
        """Per edge, (index in pairs, other edge, mask_a, mask_b) by index."""
        out: list[list[tuple[int, int, int, int]]] = [[] for _ in range(self.m)]
        for idx, (i, j, mask_a, mask_b) in enumerate(self.pairs):
            out[i].append((idx, j, mask_a, mask_b))
            out[j].append((idx, i, mask_a, mask_b))
        return out

    def conflict_clique_bound(self) -> int:
        """Max set of edges that pairwise can never share a threshold class."""
        if self.m == 0:
            return 0
        adj = [0] * self.m
        for i, j, mask_a, mask_b in self.pairs:
            if mask_a == 0 or mask_b == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return _max_clique_masks(adj, self.m).bit_count()

    def _closures(self, state: int, e: int) -> list[int]:
        """All repair-closures of state + e: alternating-C4-free supersets.

        state must be alternating-C4-free, as 0 and every closure are; only
        pairs touching edges added since state are scanned.
        """
        start = state | 1 << e
        if start in self.memo:
            return self.memo[start]
        out: set[int] = set()
        seen: set[int] = set()

        def rec(mask: int) -> None:
            if mask in seen:
                return
            seen.add(mask)
            best, need = len(self.pairs), 0
            for x in _bits(mask & ~state):
                for idx, y, mask_a, mask_b in self.touching[x]:
                    if idx >= best:
                        break
                    if mask >> y & 1 and (mask & mask_a == 0 or mask & mask_b == 0):
                        best, need = idx, mask_a if mask & mask_a == 0 else mask_b
                        break
            if best == len(self.pairs):
                out.add(mask)
                return
            for r in _bits(need):
                rec(mask | 1 << r)

        rec(start)
        self.memo[start] = sorted(out)
        return self.memo[start]

    def decide(self, k: int) -> list[int] | None:
        classes = [0] * k

        def search() -> bool:
            covered = 0
            for s in classes:
                covered |= s
            if covered == self.full:
                return True
            e = ((~covered & self.full) & -(~covered & self.full)).bit_length() - 1
            tried: set[int] = set()
            for ci in range(k):
                state = classes[ci]
                if state in tried:
                    continue
                tried.add(state)
                for closed in self._closures(state, e):
                    classes[ci] = closed
                    if search():
                        return True
                classes[ci] = state
            return False

        return list(classes) if search() else None


def theta(g: Graph, limit: int | None = None, edge_limit: int | None = None) -> ThetaResult:
    """Exact minimum number of threshold subgraphs whose union is g.

    Edgeless graphs have cover number 0 by convention (the empty cover).
    Raises TooLarge past the exact-search limits; callers wanting bounds
    should fall back to theta_bounds.
    """
    if g.edge_count == 0:
        return ThetaResult(0, CoverSolution(CoverMode.UNION, (), g.n))
    if is_threshold(g).is_threshold:
        cover = CoverSolution(CoverMode.UNION, _canonical_parts([g.edges]), g.n)
        return ThetaResult(1, cover)
    vlim = _exact_limit(limit)
    elim = _EDGE_LIMIT_DEFAULT if edge_limit is None else edge_limit
    if g.n > vlim:
        raise TooLarge(f"exact cover search limited to {vlim} vertices, got {g.n}")
    if g.edge_count > elim:
        raise TooLarge(f"exact cover search limited to {elim} edges, got {g.edge_count}")

    search = _CoverSearch(g)
    lower = max(2, search.conflict_clique_bound())
    upper_cover = star_cover(g)
    upper = len(upper_cover.parts)
    for k in range(lower, upper):
        sol = search.decide(k)
        if sol is not None:
            parts = [
                frozenset(search.edges[i] for i in _bits(mask)) for mask in sol if mask
            ]
            cover = CoverSolution(CoverMode.UNION, _canonical_parts(parts), g.n)
            return ThetaResult(k, cover)
    return ThetaResult(upper, upper_cover)


def theta_hat(g: Graph, limit: int | None = None, edge_limit: int | None = None) -> ThetaResult:
    """Exact minimum number of threshold graphs intersecting to g.

    Computed on the complement and de Morgan'd back: each complement-cover
    part flips into an intersection part that contains every edge of g.
    """
    res = theta(g.complement(), limit, edge_limit)
    return ThetaResult(res.value, complement_cover(res.cover))


def theta_bounds(g: Graph, limit: int | None = None) -> tuple[int, int]:
    """(lower, upper) bounds on the cover number; equal when triangle-free.

    upper is n - alpha(g); triangle-free graphs attain it exactly.  The
    general lower bound is the largest set of edges that pairwise can never
    share a threshold class.
    """
    upper = g.n - alpha(g, limit)
    if g.edge_count == 0:
        return (0, upper)
    if g.is_triangle_free():
        return (upper, upper)
    if is_threshold(g).is_threshold:
        return (1, 1)
    lower = max(2, _CoverSearch(g).conflict_clique_bound())
    assert lower <= upper, "lower bound exceeded n - alpha"
    return (lower, upper)


# -- maximum induced threshold subgraph ----------------------------------------


def max_induced_threshold(g: Graph, limit: int | None = None) -> frozenset[int]:
    """Lexicographically first maximum vertex set inducing a threshold graph."""
    vlim = _exact_limit(limit, default=12)
    if g.n > vlim:
        raise TooLarge(f"exact induced search limited to {vlim} vertices, got {g.n}")
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if is_threshold(g.induced(subset)).is_threshold:
                return frozenset(subset)
    return frozenset()
