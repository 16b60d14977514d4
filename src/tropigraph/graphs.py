"""Finite simple undirected graphs on dense vertices 0..n-1.

Adjacency lives both in a frozenset of (u, v) pairs with u < v and in
per-vertex integer bitmasks; the bitmasks are what make the exact solvers
fast.  Graphs are immutable after construction and every query is pure.

Canonical vertex orderings of the generators:
  * path/cycle: numbered along the walk;
  * complete_multipartite: numbered part by part, in the order given;
  * star: center is vertex 0, leaves 1..m;
  * matching: pairs (0,1), (2,3), ...;
  * caterpillar: spine first (position i on the spine is vertex i-1), then
    leaves grouped by spine vertex in ascending spine order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BadParameter, ParseError, TooLarge, VertexCountMismatch

_ALPHA_LIMIT_DEFAULT = 32


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph with vertices 0..n-1."""

    __slots__ = ("n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not isinstance(n, int) or n < 0:
            raise BadParameter(f"vertex count must be a non-negative int, got {n!r}")
        adj = [0] * n
        es = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameter(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise BadParameter(f"loop at vertex {u} not allowed")
            es.add(_norm(u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._edges = frozenset(es)
        self._adj = tuple(adj)

    @classmethod
    def from_masks(cls, masks: Sequence[int]) -> "Graph":
        """Graph whose vertex v has neighbour bitmask masks[v].

        The masks must be symmetric and loop-free, as the realization
        kernel's are; no edge list is built or range-checked.
        """
        g = cls.__new__(cls)
        g.n = len(masks)
        g._adj = tuple(masks)
        g._edges = frozenset((u, v) for u, m in enumerate(masks) for v in _bits(m & -(2 << u)))
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return _norm(u, v) in self._edges

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self._adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"

    # -- operations ------------------------------------------------------

    def complement(self) -> "Graph":
        missing = [
            (u, v) for u, v in combinations(range(self.n), 2) if (u, v) not in self._edges
        ]
        return Graph(self.n, missing)

    def union(self, other: "Graph") -> "Graph":
        if self.n != other.n:
            raise VertexCountMismatch(f"union needs equal vertex counts: {self.n} vs {other.n}")
        return Graph.from_masks([a | b for a, b in zip(self._adj, other._adj)])

    def intersection(self, other: "Graph") -> "Graph":
        if self.n != other.n:
            raise VertexCountMismatch(
                f"intersection needs equal vertex counts: {self.n} vs {other.n}"
            )
        return Graph.from_masks([a & b for a, b in zip(self._adj, other._adj)])

    def join(self, other: "Graph") -> "Graph":
        """Join: both graphs side by side plus all cross edges.

        Vertices of `other` are re-indexed to self.n..self.n+other.n-1.
        """
        shift = self.n
        edges = list(self._edges)
        edges += [(u + shift, v + shift) for u, v in other._edges]
        edges += [(u, v + shift) for u in range(self.n) for v in range(other.n)]
        return Graph(self.n + other.n, edges)

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph induced on the given vertices, re-indexed in sorted order."""
        vs = sorted(set(vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise BadParameter(f"vertex {v} out of range")
        index = {v: i for i, v in enumerate(vs)}
        edges = [
            (index[u], index[v]) for u, v in self._edges if u in index and v in index
        ]
        return Graph(len(vs), edges)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply the bijection old -> perm[old] to the vertex labels."""
        if sorted(perm) != list(range(self.n)):
            raise BadParameter("relabel needs a permutation of 0..n-1")
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self._edges])

    def components(self) -> list[frozenset[int]]:
        seen = 0
        out = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 0
            queue = deque([start])
            comp |= 1 << start
            while queue:
                v = queue.popleft()
                fresh = self._adj[v] & ~comp
                comp |= fresh
                queue.extend(_bits(fresh))
            seen |= comp
            out.append(frozenset(_bits(comp)))
        return out

    def is_triangle_free(self) -> bool:
        return all(self._adj[u] & self._adj[v] == 0 for u, v in self._edges)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- generators ------------------------------------------------------------


def empty(n: int) -> Graph:
    if n < 1:
        raise BadParameter("empty graph needs n >= 1")
    return Graph(n)


def path(n: int) -> Graph:
    if n < 1:
        raise BadParameter("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameter("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    if not sizes or any(s < 1 for s in sizes):
        raise BadParameter("complete_multipartite needs positive part sizes")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    part_of = [0] * n
    for p in range(len(sizes)):
        for v in range(bounds[p], bounds[p + 1]):
            part_of[v] = p
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if part_of[u] != part_of[v]
    ]
    return Graph(n, edges)


def star(m: int) -> Graph:
    """K_{1,m}: center 0, leaves 1..m."""
    if m < 1:
        raise BadParameter("star needs m >= 1 leaves")
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def matching(k: int) -> Graph:
    """k disjoint edges (k*K2)."""
    if k < 1:
        raise BadParameter("matching needs k >= 1")
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


@dataclass(frozen=True)
class CaterpillarSpec:
    """A caterpillar: spine length m >= 1 and (spine position, leaf count) pairs.

    Spine positions are 1-based; repeated positions accumulate.
    """

    spine: int
    leaves: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.spine < 1:
            raise BadParameter("caterpillar spine length must be >= 1")
        for pos, count in self.leaves:
            if not 1 <= pos <= self.spine:
                raise BadParameter(f"leaf position {pos} outside spine 1..{self.spine}")
            if count < 0:
                raise BadParameter("leaf counts must be >= 0")

    def leaf_counts(self) -> list[int]:
        counts = [0] * self.spine
        for pos, count in self.leaves:
            counts[pos - 1] += count
        return counts

    @property
    def total_vertices(self) -> int:
        return self.spine + sum(c for _, c in self.leaves)


def caterpillar(spec: CaterpillarSpec) -> Graph:
    """Build the caterpillar: spine vertices 0..m-1, then leaves grouped by spine vertex."""
    counts = spec.leaf_counts()
    edges = [(i, i + 1) for i in range(spec.spine - 1)]
    nxt = spec.spine
    for i, count in enumerate(counts):
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return Graph(nxt, edges)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    if not graphs:
        raise BadParameter("disjoint_union needs at least one graph")
    edges = []
    shift = 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in g.edges]
        shift += g.n
    return Graph(shift, edges)


_ONE_INT = {"path": path, "cycle": cycle, "complete": complete, "star": star, "matching": matching}


def generate(family: str, params: Sequence) -> Graph:
    """Dispatch a generator by family name; used by the CLI."""

    def ints(values):
        try:
            return [int(x) for x in values]
        except (TypeError, ValueError) as exc:
            raise BadParameter(f"integer parameters expected, got {list(values)!r}") from exc

    if family in _ONE_INT:
        (n,) = ints(params) if len(params) == 1 else _bad(family, params)
        return _ONE_INT[family](n)
    if family == "complete_multipartite":
        sizes = ints(params)
        if not sizes:
            _bad(family, params)
        return complete_multipartite(sizes)
    if family == "caterpillar":
        if not params:
            _bad(family, params)
        spine = int(params[0])
        pairs = []
        for raw in params[1:]:
            text = str(raw)
            if ":" not in text:
                raise BadParameter(f"caterpillar leaves look like POS:COUNT, got {text!r}")
            pos, _, count = text.partition(":")
            pairs.append((int(pos), int(count)))
        return caterpillar(CaterpillarSpec(spine, tuple(pairs)))
    raise BadParameter(f"unknown graph family {family!r}")


def _bad(family: str, params) -> None:
    raise BadParameter(f"bad parameters for family {family!r}: {list(params)!r}")


# -- graph6 and edge-list formats -------------------------------------------


def to_graph6(g: Graph, header: bool = False) -> str:
    """Encode in graph6 (McKay's format); bit-exact, optional header."""
    n = g.n
    out = [">>graph6<<"] if header else []
    out.append(_g6_size(n))
    bits = []
    for j in range(1, n):
        row = g.adjacency_mask(j)
        bits.extend(row >> i & 1 for i in range(j))
    while len(bits) % 6:
        bits.append(0)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def _g6_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    raise BadParameter("graph6 encoding supported up to n=258047")


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 input")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ParseError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) < 4:
            raise ParseError("truncated graph6 size field")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ParseError(f"graph6 body length {len(body)} wrong for n={n}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend(val >> s & 1 for s in (5, 4, 3, 2, 1, 0))
    if any(bits[need:]):
        raise ParseError("nonzero padding bits in graph6 input")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def to_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ParseError(f"edge list must start with 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad vertex count {head[1]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge lines look like 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc


# -- exact independence / clique solvers -------------------------------------


def _max_clique_masks(adj: Sequence[int], n: int) -> int:
    """Exact maximum clique over bitmask adjacency, greedy-coloring bound."""
    best = 0
    best_size = 0

    def expand(r_mask: int, r_size: int, cand: int) -> None:
        nonlocal best, best_size
        if not cand:
            if r_size > best_size:
                best, best_size = r_mask, r_size
            return
        order: list[int] = []
        bounds: list[int] = []
        left = cand
        color = 0
        while left:
            color += 1
            avail = left
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~adj[v] & ~(1 << v)
                left &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bounds[i] <= best_size:
                return
            v = order[i]
            expand(r_mask | (1 << v), r_size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, (1 << n) - 1 if n else 0)
    return best


def maximum_clique(g: Graph, limit: int | None = None) -> frozenset[int]:
    lim = _ALPHA_LIMIT_DEFAULT if limit is None else limit
    if g.n > lim:
        raise TooLarge(f"exact clique search limited to {lim} vertices, got {g.n}")
    return frozenset(_bits(_max_clique_masks(g._adj, g.n)))


def maximum_independent_set(g: Graph, limit: int | None = None) -> frozenset[int]:
    """An exact maximum independent set (clique of the complement)."""
    lim = _ALPHA_LIMIT_DEFAULT if limit is None else limit
    if g.n > lim:
        raise TooLarge(f"exact independence search limited to {lim} vertices, got {g.n}")
    full = (1 << g.n) - 1
    comp = [full & ~g._adj[v] & ~(1 << v) for v in range(g.n)]
    return frozenset(_bits(_max_clique_masks(comp, g.n)))


def alpha(g: Graph, limit: int | None = None) -> int:
    """The independence number, exactly, via branch and bound."""
    return len(maximum_independent_set(g, limit))
