"""Ground-truth checking and exact tropical dimensions.

realize_graph turns vectors back into the graph they encode; verify
compares that against a target graph; project_slices splits a
representation into one single-coordinate threshold graph per dimension.
All three rest on the slice kernel in tropical: the realized graph is the
intersection (min-plus) or union (max-plus) of the per-coordinate slices,
and exact dots are computed only for the pairs verify reports.

Dimensions are computed combinatorially: the max-plus dimension of g
equals its threshold cover number, the min-plus dimension equals the cover
number of the complement, and the cover witnesses convert directly into
representations of the reported dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .errors import BadParameter, DimensionMismatch, TooLarge, VertexMismatch
from .graphs import Graph, _bits, to_graph6
from .representations import Representation, from_cover
from .threshold import SCHEMA, _solve, complement_cover
from .tropical import (
    Algebra,
    Rationalish,
    TropicalValue,
    TropicalVector,
    as_fraction,
    realize_masks,
    slice_masks,
    trop_dot,
)

_ENUM_LIMIT = 7


def realize_graph(
    vectors: Sequence[TropicalVector], t: Rationalish, alg: Algebra
) -> Graph:
    """The graph the vectors encode: uv is an edge iff their dot reaches t."""
    if not vectors:
        raise BadParameter("need at least one vector")
    dim = vectors[0].dim
    for vec in vectors:
        if vec.dim != dim:
            raise DimensionMismatch("vectors must share one dimension")
    return Graph.from_masks(realize_masks(vectors, as_fraction(t), alg))


@dataclass(frozen=True)
class VerificationReport:
    """valid iff violations is empty; each violation carries its exact dot."""

    valid: bool
    violations: tuple[tuple[int, int, TropicalValue, str], ...]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "valid": self.valid,
            "violations": [
                {"u": u, "v": v, "dot": str(dot), "expected": expected}
                for u, v, dot, expected in self.violations
            ],
        }


def verify(g: Graph, rep: Representation) -> VerificationReport:
    """Check a representation against its target graph.

    The realized graph is the fold of the per-coordinate slices; exact dots
    are computed only for the pairs where it differs from g, which are
    reported in ascending (u, v) order.
    """
    if rep.n != g.n:
        raise VertexMismatch(f"representation on {rep.n} vertices, graph on {g.n}")
    realized = realize_masks(rep.vectors, rep.t, rep.algebra)
    violations = []
    for u in range(g.n):
        for v in _bits(realized[u] ^ g.adjacency_mask(u)):
            if u < v:
                dot = trop_dot(rep.vectors[u], rep.vectors[v], rep.algebra)
                expected = "edge: dot >= t" if g.has_edge(u, v) else "non-edge: dot < t"
                violations.append((u, v, dot, expected))
    return VerificationReport(not violations, tuple(violations))


def project_slices(rep: Representation) -> list[Graph]:
    """One graph per coordinate: uv in slice j iff coordinate-j sums reach t.

    A +inf entry (min-plus) makes its vertex dominate the slice; a -inf
    entry (max-plus) isolates it there.  The slices multiply back: their
    union realizes a max-plus representation, their intersection a
    min-plus one.
    """
    columns = zip(*(vec.entries for vec in rep.vectors))
    return [Graph.from_masks(slice_masks(column, rep.t)) for column in columns]


# -- exact dimensions ------------------------------------------------------------


@dataclass(frozen=True)
class DimensionResult:
    """Both tropical dimensions with verifying witness representations.

    method is "exact" when both sides were solved exactly; otherwise the
    reported numbers are the upper bounds and the bounds fields carry the
    (lower, upper) pairs.  Witness dimensions always equal the reported
    numbers.
    """

    rho_min_plus: int
    rho_max_plus: int
    method: str
    witness_min_plus: Representation
    witness_max_plus: Representation
    min_plus_bounds: tuple[int, int] | None = None
    max_plus_bounds: tuple[int, int] | None = None

    def to_json(self) -> dict:
        data = {
            "schema": SCHEMA,
            "rho_min_plus": self.rho_min_plus,
            "rho_max_plus": self.rho_max_plus,
            "method": self.method,
            "witness_min_plus": self.witness_min_plus.to_json(),
            "witness_max_plus": self.witness_max_plus.to_json(),
        }
        if self.method == "bounds":
            data["min_plus_bounds"] = list(self.min_plus_bounds or ())
            data["max_plus_bounds"] = list(self.max_plus_bounds or ())
        return data


def rho(g: Graph, limit: int | None = None, edge_limit: int | None = None) -> DimensionResult:
    """Both tropical dimensions of g; an open cover bracket is reported as bounds.

    rho_max_plus is the threshold cover number of g, rho_min_plus the cover
    number of the complement, both clamped to >= 1 because a representation
    needs at least one coordinate even for cover number 0 (edgeless or
    complete graphs).  method is "exact" when both cover brackets close (see
    theta); the reported numbers are their upper ends either way.
    """
    sides = []
    for h in (g, g.complement()):
        lower, upper, cover, _ = _solve(h, limit, edge_limit)
        sides.append(((max(lower, 1), max(upper, 1)), cover))
    (max_bounds, max_cover), (min_bounds, min_cover) = sides
    exact = max_bounds[0] == max_bounds[1] and min_bounds[0] == min_bounds[1]
    return DimensionResult(
        rho_min_plus=min_bounds[1],
        rho_max_plus=max_bounds[1],
        method="exact" if exact else "bounds",
        witness_min_plus=from_cover(g, complement_cover(min_cover)),
        witness_max_plus=from_cover(g, max_cover),
        min_plus_bounds=None if exact else min_bounds,
        max_plus_bounds=None if exact else max_bounds,
    )


# -- isomorphism-free enumeration --------------------------------------------------


def _pair_maps(n: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    maps = []
    for perm in permutations(range(n)):
        maps.append(
            [
                index[(perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])]
                for u, v in pairs
            ]
        )
    return pairs, maps


def _apply_map(code: int, pair_map: list[int]) -> int:
    image = 0
    while code:
        low = code & -code
        image |= 1 << pair_map[low.bit_length() - 1]
        code ^= low
    return image


def canonical_code(g: Graph) -> int:
    """Minimum edge-set code over all vertex permutations (n <= 8)."""
    if g.n > 8:
        raise TooLarge("canonicalization limited to 8 vertices")
    pairs, maps = _pair_maps(g.n)
    code = 0
    for i, p in enumerate(pairs):
        if p in g.edges:
            code |= 1 << i
    return min(_apply_map(code, m) for m in maps)


def nonisomorphic_graphs(n: int) -> Iterator[Graph]:
    """All graphs on n labeled vertices up to isomorphism, canonically labeled.

    Ascending edge-code order with orbit marking: the first code of each
    isomorphism orbit is its canonical (minimum) representative.
    """
    if n < 1:
        raise BadParameter("need n >= 1")
    if n > _ENUM_LIMIT:
        raise TooLarge(f"exhaustive enumeration limited to {_ENUM_LIMIT} vertices")
    pairs, maps = _pair_maps(n)
    seen = bytearray(1 << len(pairs))
    for code in range(1 << len(pairs)):
        if seen[code]:
            continue
        for m in maps:
            seen[_apply_map(code, m)] = 1
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        yield Graph(n, edges)


# -- conjecture sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureEntry:
    n: int
    graph6: str
    rho_min_plus: int
    rho_max_plus: int


@dataclass(frozen=True)
class ConjectureReport:
    """Exact dimension pairs for every isomorphism class on <= n_max vertices.

    strict_instances lists classes with rho_min_plus < rho_max_plus;
    counterexamples lists classes with rho_min_plus > rho_max_plus.  Both
    are computed, never presumed.
    """

    n_max: int
    entries: tuple[ConjectureEntry, ...]
    strict_instances: tuple[str, ...]
    counterexamples: tuple[str, ...]

    @property
    def classes_checked(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n_max": self.n_max,
            "classes_checked": self.classes_checked,
            "counterexamples": list(self.counterexamples),
            "strict_instances": list(self.strict_instances),
            "entries": [
                {
                    "n": e.n,
                    "graph6": e.graph6,
                    "rho_min_plus": e.rho_min_plus,
                    "rho_max_plus": e.rho_max_plus,
                }
                for e in self.entries
            ],
        }


def check_conjecture(n_max: int) -> ConjectureReport:
    """Compare rho_min_plus against rho_max_plus on every class up to n_max.

    Exhaustive over isomorphism classes; capped at 6 vertices where the
    720-permutation canonicalization stays seconds-scale.
    """
    if n_max < 1:
        raise BadParameter("need n_max >= 1")
    if n_max > 6:
        raise TooLarge("conjecture sweep limited to 6 vertices")
    entries = []
    strict = []
    counter = []
    for n in range(1, n_max + 1):
        for g in nonisomorphic_graphs(n):
            result = rho(g)
            code = to_graph6(g)
            entries.append(
                ConjectureEntry(n, code, result.rho_min_plus, result.rho_max_plus)
            )
            if result.rho_min_plus < result.rho_max_plus:
                strict.append(code)
            elif result.rho_min_plus > result.rho_max_plus:
                counter.append(code)
    return ConjectureReport(n_max, tuple(entries), tuple(strict), tuple(counter))
