"""Graph storage, set operations, generators, formats, and independence."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, random_graph
from oracles import brute_alpha
from tropigraph import (
    BadParameter,
    CaterpillarSpec,
    Graph,
    ParseError,
    TooLarge,
    VertexCountMismatch,
    alpha,
    caterpillar,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty,
    generate,
    matching,
    maximum_independent_set,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    to_edge_list,
    to_graph6,
)


def test_graph_basics():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.neighbors(1) == [0, 2]
    assert not g.has_edge(1, 1)


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(BadParameter):
        Graph(3, [(0, 0)])
    with pytest.raises(BadParameter):
        Graph(3, [(0, 3)])


# -- complement / union / intersection / join ----------------------------------


def test_complement_of_c4_is_perfect_matching():
    comp = cycle(4).complement()
    comps = comp.components()
    assert comp.edge_count == 2
    assert sorted(len(c) for c in comps) == [2, 2]


def test_complement_of_complete_is_empty():
    assert complete(5).complement() == empty(5)


@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement() == g


@given(graphs(min_n=0))
def test_from_masks_matches_edge_list_constructor(g):
    h = Graph.from_masks([g.adjacency_mask(v) for v in g.vertices()])
    assert h == g and hash(h) == hash(g)
    assert [h.adjacency_mask(v) for v in h.vertices()] == [g.adjacency_mask(v) for v in g.vertices()]


@given(graphs(max_n=6), st.data())
def test_de_morgan(g, data):
    pairs = list(combinations(range(g.n), 2))
    other = Graph(g.n, [p for p in pairs if data.draw(st.booleans())])
    assert g.union(other).complement() == g.complement().intersection(other.complement())


def test_union_intersection_examples():
    p3 = path(3)
    chord = Graph(3, [(0, 2)])
    assert p3.union(chord) == complete(3)
    assert p3.intersection(p3) == p3
    c4 = cycle(4)
    assert c4.intersection(c4.complement()) == empty(4)


def test_union_requires_same_vertex_count():
    with pytest.raises(VertexCountMismatch):
        path(3).union(path(4))
    with pytest.raises(VertexCountMismatch):
        path(3).intersection(path(4))


def test_join_examples():
    assert complete(1).join(complete(1)) == complete(2)
    joined = matching(2).join(complete(1))
    assert joined.n == 5
    assert all(joined.has_edge(u, 4) for u in range(4))
    assert joined.has_edge(0, 1) and not joined.has_edge(0, 2)


@given(graphs(max_n=5), graphs(max_n=5))
def test_join_edge_count(g1, g2):
    assert g1.join(g2).edge_count == g1.edge_count + g2.edge_count + g1.n * g2.n


# -- generators ------------------------------------------------------------------


def test_generator_shapes():
    assert path(4).edges == {(0, 1), (1, 2), (2, 3)}
    assert path(4).edge_count == 3
    assert cycle(5).edge_count == 5
    assert complete(5).edge_count == 10
    assert star(3).edges == {(0, 1), (0, 2), (0, 3)}
    assert matching(3).edges == {(0, 1), (2, 3), (4, 5)}


def test_multipartite_edge_count():
    sizes = [2, 3, 4]
    g = complete_multipartite(sizes)
    expected = sum(
        sizes[i] * sizes[j] for i in range(3) for j in range(i + 1, 3)
    )
    assert g.edge_count == expected


def test_k22_is_c4_relabeled():
    g = complete_multipartite([2, 2])
    # parts {0,1} and {2,3}: the 4-cycle 0-2-1-3
    assert g.edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert all(g.degree(v) == 2 for v in range(4))
    assert g.edge_count == 4


def test_caterpillar_layouts():
    spec = CaterpillarSpec(2, ((1, 1), (2, 1)))
    g = caterpillar(spec)
    assert g.edges == {(0, 1), (0, 2), (1, 3)}
    assert caterpillar(CaterpillarSpec(3)) == path(3)


def test_caterpillar_spec_validation():
    with pytest.raises(BadParameter):
        CaterpillarSpec(0)
    with pytest.raises(BadParameter):
        CaterpillarSpec(2, ((3, 1),))
    with pytest.raises(BadParameter):
        CaterpillarSpec(2, ((1, -1),))


def test_generate_dispatch():
    for family, build in (("path", path), ("cycle", cycle), ("complete", complete),
                          ("star", star), ("matching", matching)):
        assert generate(family, ["4"]) == build(4)
        with pytest.raises(BadParameter, match=f"bad parameters for family '{family}': \\[4, 5\\]"):
            generate(family, [4, 5])
        with pytest.raises(BadParameter, match=r"integer parameters expected, got \['x'\]"):
            generate(family, ["x"])
    assert generate("complete_multipartite", [2, 2]) == complete_multipartite([2, 2])
    assert generate("caterpillar", [2, "1:1", "2:1"]) == caterpillar(
        CaterpillarSpec(2, ((1, 1), (2, 1)))
    )
    with pytest.raises(BadParameter, match="unknown graph family 'petersen'"):
        generate("petersen", [])
    with pytest.raises(BadParameter):
        generate("path", [])


def test_disjoint_union():
    g = disjoint_union([path(2), path(3)])
    assert g.n == 5
    assert g.edges == {(0, 1), (2, 3), (3, 4)}


def test_components_and_induced():
    g = matching(2)
    assert sorted(map(sorted, g.components())) == [[0, 1], [2, 3]]
    assert g.induced([2, 3]) == path(2)
    assert path(4).induced([0, 1, 3]).edges == {(0, 1)}


def test_is_triangle_free():
    assert cycle(4).is_triangle_free()
    assert not complete(3).is_triangle_free()


# -- graph6 and edge-list formats -------------------------------------------------


def test_graph6_known_values():
    # nx cross-checks below guard the general case; pin a couple of codes.
    assert to_graph6(empty(1)) == "@"
    assert to_graph6(complete(2)) == "A_"


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g
    assert parse_graph6(to_graph6(g, header=True)) == g


@settings(max_examples=60)
@given(graphs(max_n=12))
def test_graph6_matches_networkx(g):
    ours = to_graph6(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert ours == theirs
    back = nx.from_graph6_bytes(ours.encode())
    assert set(back.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in back.edges} == set(g.edges)


def test_graph6_large_n_size_field():
    g = empty(63)
    assert to_graph6(g).startswith("~")
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_parse_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("B")  # truncated body for n=3
    with pytest.raises(ParseError):
        parse_graph6("A_extra")


@given(graphs(max_n=10))
def test_edge_list_round_trip(g):
    assert parse_edge_list(to_edge_list(g)) == g


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1")
    with pytest.raises(ParseError):
        parse_edge_list("n 3\n0 1 2")
    with pytest.raises(ParseError):
        parse_edge_list("n 2\n0 5")


# -- independence ------------------------------------------------------------------


def test_alpha_examples():
    assert alpha(cycle(4)) == 2
    assert alpha(path(6)) == 3
    assert alpha(complete(7)) == 1
    assert alpha(empty(5)) == 5


def test_alpha_p6_matches_brute_force():
    assert brute_alpha(path(6)) == 3


def test_alpha_limit():
    with pytest.raises(TooLarge):
        alpha(empty(40))
    assert alpha(empty(40), limit=40) == 40


def test_maximum_independent_set_is_independent_and_maximum():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(8):
            g = random_graph(rng, n)
            s = maximum_independent_set(g)
            assert all(not g.has_edge(u, v) for u, v in combinations(sorted(s), 2))
            assert len(s) == brute_alpha(g)


@settings(max_examples=40)
@given(graphs(max_n=8))
def test_alpha_matches_brute_force(g):
    assert alpha(g) == brute_alpha(g)
