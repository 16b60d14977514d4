"""Independent checks for the benchmark's outputs.

Nothing here imports tropigraph.  Graphs are plain ``(n, edges)`` pairs with
``edges`` a set of ``(u, v)`` tuples, ``u < v``; representations are the
JSON documents the package writes.  Each check raises ``CheckError`` with a
message naming the first disagreement.

* ``dot`` evaluates tropical dot products with plain ``Fraction`` sums.
* ``forbidden_quad`` tests thresholdness by the induced C4 / P4 / 2K2
  characterisation.
* ``cover_number`` is an exact threshold cover number by a search that shares
  nothing with ``threshold.py``: it partitions the edges into classes, and a
  class is allowed when a threshold graph lies between it and the host graph
  (the threshold sandwich problem, which greedy peeling decides exactly).
* ``isomorphic`` is a backtracking isomorphism test over degree-refined
  vertex classes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

# Graphs on n = 0..7 vertices up to isomorphism, OEIS A000088.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)

MIN_PLUS = "min-plus"
MAX_PLUS = "max-plus"


class CheckError(Exception):
    """An output of the program disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- graphs -------------------------------------------------------------------


def all_pairs(n: int) -> set[tuple[int, int]]:
    return set(combinations(range(n), 2))


def complement(n: int, edges) -> set[tuple[int, int]]:
    return all_pairs(n) - set(edges)


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Decode a graph6 string without a header (n < 258048)."""
    s = text.strip()
    if s[0] == "~":
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend(value >> shift & 1 for shift in range(5, -1, -1))
    edges = set()
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.add((i, j))
            k += 1
    return n, edges


# -- tropical dot products -------------------------------------------------------


def parse_vectors(rep: dict) -> tuple[str, Fraction, list[list]]:
    """(algebra, t, vectors) of a representation document; inf entries stay strings."""
    algebra = rep["algebra"]
    require(algebra in (MIN_PLUS, MAX_PLUS), f"unknown algebra {algebra!r}")
    banned = "-inf" if algebra == MIN_PLUS else "inf"
    vectors = []
    for i in range(len(rep["vectors"])):
        row = []
        for entry in rep["vectors"][str(i)]:
            require(entry != banned, f"{algebra} vector {i} holds {entry}")
            row.append(entry if entry in ("inf", "-inf") else Fraction(entry))
        vectors.append(row)
    return algebra, Fraction(rep["t"]), vectors


def dot(x: list, y: list, algebra: str):
    """Exact tropical dot product: a Fraction, or "inf" / "-inf".

    An infinite entry makes its coordinate's sum infinite in the direction
    that never wins the min (min-plus) or max (max-plus), so only the
    all-finite coordinates matter unless there are none.
    """
    finite = [a + b for a, b in zip(x, y) if not isinstance(a, str) and not isinstance(b, str)]
    if not finite:
        return "inf" if algebra == MIN_PLUS else "-inf"
    return min(finite) if algebra == MIN_PLUS else max(finite)


def reaches(value, t: Fraction) -> bool:
    if isinstance(value, str):
        return value == "inf"
    return value >= t


def realized_edges(rep: dict) -> set[tuple[int, int]]:
    """The pairs whose dot product reaches the threshold."""
    algebra, t, vectors = parse_vectors(rep)
    return {
        (u, v)
        for u, v in combinations(range(len(vectors)), 2)
        if reaches(dot(vectors[u], vectors[v], algebra), t)
    }


def coordinate_edges(rep: dict) -> list[set[tuple[int, int]]]:
    """One edge set per coordinate: the pairs whose coordinate sum reaches t."""
    algebra, t, vectors = parse_vectors(rep)
    out = []
    for j in range(len(vectors[0])):
        out.append({
            (u, v)
            for u, v in combinations(range(len(vectors)), 2)
            if reaches(dot([vectors[u][j]], [vectors[v][j]], algebra), t)
        })
    return out


# -- thresholdness ---------------------------------------------------------------------


def forbidden_quad(n: int, edges) -> tuple[int, ...] | None:
    """Four vertices inducing C4, P4 or 2K2, or None when the graph is threshold."""
    es = set(edges)
    for quad in combinations(range(n), 4):
        inner = [p for p in combinations(quad, 2) if p in es]
        if len(inner) not in (2, 3, 4):
            continue
        degrees = sorted(Counter(v for p in inner for v in p)[v] for v in quad)
        if (len(inner), degrees) in ((2, [1, 1, 1, 1]), (3, [1, 1, 2, 2]), (4, [2, 2, 2, 2])):
            return quad
    return None


def _sandwich(n: int, host: list[int], forced) -> bool:
    """True iff some threshold graph H has forced <= E(H) <= E(host).

    Peel a vertex that may be isolated (no forced edge to the rest) or
    dominating (a host edge to every other remaining vertex).  Either peel is
    safe whenever an H exists, and a threshold graph always offers one, so
    the greedy peel decides the question exactly.
    """
    need = [0] * n
    for u, v in forced:
        need[u] |= 1 << v
        need[v] |= 1 << u
    alive = (1 << n) - 1
    while alive:
        for v in range(n):
            bit = 1 << v
            if alive & bit and (need[v] & alive == 0 or alive & ~bit & ~host[v] == 0):
                alive &= ~bit
                break
        else:
            return False
    return True


def cover_number(n: int, edges) -> int:
    """Exact minimum number of threshold graphs whose union is the graph."""
    edges = sorted(edges)
    m = len(edges)
    if m == 0:
        return 0
    host = [0] * n
    for u, v in edges:
        host[u] |= 1 << v
        host[v] |= 1 << u
    if _sandwich(n, host, edges):
        return 1
    clash = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if not _sandwich(n, host, (edges[i], edges[j])):
            clash[i].add(j)
            clash[j].add(i)
    # Place the edge with the most clashes with placed edges first.
    order: list[int] = []
    placed: set[int] = set()
    left = set(range(m))
    while left:
        e = max(left, key=lambda x: (len(clash[x] & placed), len(clash[x]), -x))
        order.append(e)
        placed.add(e)
        left.remove(e)
    lower = 2
    for start in range(m):
        clique = [start]
        for e in sorted(range(m), key=lambda x: -len(clash[x])):
            if all(e in clash[c] for c in clique):
                clique.append(e)
        lower = max(lower, len(clique))
    ordered = [edges[i] for i in order]
    k = lower
    while not _partition(n, host, ordered, k):
        k += 1
    return k


def _partition(n: int, host: list[int], edges: list, k: int) -> bool:
    """Can the edges be split into at most k classes that each extend to a threshold graph?"""
    classes: list[list] = []

    def place(i: int) -> bool:
        if i == len(edges):
            return True
        e = edges[i]
        for part in classes:
            part.append(e)
            if _sandwich(n, host, part) and place(i + 1):
                return True
            part.pop()
        if len(classes) < k:
            classes.append([e])
            if place(i + 1):
                return True
            classes.pop()
        return False

    return place(0)


def dimensions(n: int, edges) -> tuple[int, int]:
    """(min-plus, max-plus) dimension: cover numbers of complement and graph, at least 1."""
    return max(cover_number(n, complement(n, edges)), 1), max(cover_number(n, edges), 1)


# -- isomorphism -------------------------------------------------------------------


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _colours(adj: list[set[int]]) -> list:
    """Vertex colours refined three times from degrees by neighbour colours."""
    colour = [len(a) for a in adj]
    for _ in range(3):
        colour = [hash((colour[v], tuple(sorted(colour[u] for u in adj[v])))) for v in range(len(adj))]
    return colour


def invariant(n: int, edges) -> tuple:
    return (n, len(edges), tuple(sorted(_colours(_adjacency(n, edges)))))


def isomorphic(g: tuple[int, set], h: tuple[int, set]) -> bool:
    (n, ge), (m, he) = g, h
    if n != m or len(ge) != len(he):
        return False
    ga, ha = _adjacency(n, ge), _adjacency(n, he)
    gc, hc = _colours(ga), _colours(ha)
    if sorted(gc) != sorted(hc):
        return False
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if w in used or hc[w] != gc[v]:
                continue
            if all((u in ga[v]) == (image[u] in ha[w]) for u in image):
                image[v] = w
                used.add(w)
                if extend(v + 1):
                    return True
                del image[v]
                used.discard(w)
        return False

    return extend(0)


def check_distinct_classes(graphs: list[tuple[int, set]], label: str) -> None:
    """No two of the graphs are isomorphic."""
    buckets: dict[tuple, list[int]] = {}
    for i, (n, edges) in enumerate(graphs):
        buckets.setdefault(invariant(n, edges), []).append(i)
    for members in buckets.values():
        for a, b in combinations(members, 2):
            require(not isomorphic(graphs[a], graphs[b]),
                    f"{label}: classes {a} and {b} are isomorphic")


# -- checks on program outputs -------------------------------------------------------------


def check_witness(rep: dict, algebra: str, dim: int, n: int, edges, label: str) -> None:
    """A dimension witness: right algebra and dimension, threshold slices, realizes the graph."""
    require(rep["algebra"] == algebra, f"{label}: witness algebra {rep['algebra']}, expected {algebra}")
    require(len(rep["vectors"]) == n, f"{label}: witness has {len(rep['vectors'])} vectors, graph {n}")
    require(rep["dim"] == dim, f"{label}: witness dimension {rep['dim']}, reported {dim}")
    slices = coordinate_edges(rep)
    require(len(slices) == dim, f"{label}: witness vectors have {len(slices)} coordinates, not {dim}")
    for j, part in enumerate(slices):
        quad = forbidden_quad(n, part)
        require(quad is None, f"{label}: cover part {j} induces a forbidden subgraph on {quad}")
    combined = set().union(*slices) if algebra == MAX_PLUS else set.intersection(*slices)
    require(combined == set(edges), f"{label}: cover parts do not combine back to the graph")
    require(realized_edges(rep) == set(edges), f"{label}: witness does not realize the graph")


def check_verify_report(report: dict, rc: int, rep: dict, edges, label: str) -> None:
    """A verify report lists exactly the pairs the Fraction evaluator flags, with their dots."""
    algebra, t, vectors = parse_vectors(rep)
    es = set(edges)
    flagged = {}
    for u, v in combinations(range(len(vectors)), 2):
        value = dot(vectors[u], vectors[v], algebra)
        if reaches(value, t) != ((u, v) in es):
            flagged[(u, v)] = value
    reported = {}
    for item in report["violations"]:
        text = item["dot"]
        reported[(item["u"], item["v"])] = text if text in ("inf", "-inf") else Fraction(text)
        want = "edge: dot >= t" if (item["u"], item["v"]) in es else "non-edge: dot < t"
        require(item["expected"] == want, f"{label}: pair {item['u']},{item['v']} says {item['expected']!r}")
    require(len(reported) == len(report["violations"]), f"{label}: a pair is reported twice")
    missing = sorted(set(flagged) - set(reported))
    extra = sorted(set(reported) - set(flagged))
    require(not missing and not extra,
            f"{label}: report misses pairs {missing[:5]} and adds pairs {extra[:5]}")
    for pair, value in flagged.items():
        require(reported[pair] == value, f"{label}: pair {pair} reported dot {reported[pair]}, exact {value}")
    require(report["valid"] == (not flagged), f"{label}: valid={report['valid']} with {len(flagged)} violations")
    require(rc == (0 if not flagged else 1), f"{label}: exit code {rc}")


def check_slices_output(out: dict, rep: dict, edges, label: str) -> None:
    """Slices combine back to the realized graph: by union in max-plus, by intersection in min-plus."""
    n = len(rep["vectors"])
    law = "union" if rep["algebra"] == MAX_PLUS else "intersection"
    require(out["law"] == law, f"{label}: law {out['law']!r}, expected {law!r}")
    require(len(out["slices"]) == rep["dim"], f"{label}: {len(out['slices'])} slices for dimension {rep['dim']}")
    slices = []
    for text in out["slices"]:
        size, part = decode_graph6(text)
        require(size == n, f"{label}: slice on {size} vertices, representation on {n}")
        slices.append(part)
    realized_n, realized = decode_graph6(out["realized"])
    require(realized_n == n and realized == set(edges), f"{label}: realized graph differs from the target")
    combined = set().union(*slices) if law == "union" else set.intersection(*slices)
    require(combined == realized, f"{label}: slices do not combine back to the realized graph")
    require(out["law_holds"] is True, f"{label}: law_holds is {out['law_holds']}")
