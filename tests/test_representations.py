"""Every constructor must produce a verifier-valid representation."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, random_graph, random_threshold_graph
from tropigraph import (
    MAX_PLUS,
    MIN_PLUS,
    POS_INF,
    BadParameter,
    BadSpec,
    CaterpillarSpec,
    CoverMode,
    CoverSolution,
    Graph,
    InvalidCover,
    InvalidInputRepresentation,
    NotThreshold,
    Representation,
    TropicalValue,
    TropicalVector,
    caterpillar,
    complement_cover,
    caterpillar_2dim,
    caterpillar_rep_for_graph,
    complete,
    complete_multipartite,
    cycle,
    cycle_3dim,
    cycle_rep_for_graph,
    disjoint_union,
    empty,
    forest_of_caterpillars,
    from_cover,
    join_clique,
    matching,
    maxplus_from_cover,
    maxplus_generic,
    minplus_extend_vertex,
    minplus_from_intersection,
    minplus_generic,
    multipartite_kdim,
    multipartite_rep_for_graph,
    path,
    realize_graph,
    rescale,
    star,
    star_cover,
    theta,
    theta_hat,
    threshold_1dim,
    threshold_weights,
    trop_dot,
    verify,
)

F = TropicalValue.finite


def all_dots(rep):
    return {
        (u, v): trop_dot(rep.vectors[u], rep.vectors[v], rep.algebra)
        for u, v in combinations(range(rep.n), 2)
    }


# -- generic constructions ---------------------------------------------------------


def test_minplus_generic_k2():
    rep = minplus_generic(complete(2))
    assert rep.dim == 2
    assert all_dots(rep)[(0, 1)] == F(Fraction(4, 3))
    assert verify(complete(2), rep).valid


def test_minplus_generic_nonedge_value():
    rep = minplus_generic(empty(2))
    assert all_dots(rep)[(0, 1)] == F(Fraction(5, 6))
    assert verify(empty(2), rep).valid


def test_minplus_generic_scales():
    g = path(3)
    rep = minplus_generic(g, 3)
    assert verify(g, rep).valid
    dots = all_dots(rep)
    assert dots[(0, 1)] == F(4)  # 4t/3 at t=3
    assert dots[(0, 2)] == F(Fraction(5, 2))  # 5t/6 at t=3


def test_minplus_generic_exact_dots_exhaustive():
    rng = random.Random(2)
    for n in range(1, 6):
        for _ in range(12):
            g = random_graph(rng, n)
            rep = minplus_generic(g)
            assert verify(g, rep).valid
            for (u, v), dot in all_dots(rep).items():
                expected = Fraction(4, 3) if g.has_edge(u, v) else Fraction(5, 6)
                assert dot == F(expected)


def test_minplus_naive_entries_break_the_exact_edge_value():
    """The simpler entry pattern (t/3 diagonal, t edge, t/2 filler) stays
    verifier-valid but lets an edge dot sag to t when a later vertex is
    non-adjacent to both endpoints; this pins why the shipped entries are
    (t/6, 7t/6, 2t/3)."""
    g = Graph(3, [(0, 1)])  # one edge plus an isolated vertex
    third, half, one = Fraction(1, 3), Fraction(1, 2), Fraction(1)
    vectors = (
        TropicalVector.of([third, one, half]),
        TropicalVector.of([POS_INF, third, half]),
        TropicalVector.of([POS_INF, POS_INF, third]),
    )
    rep = Representation(MIN_PLUS, Fraction(1), vectors)
    assert verify(g, rep).valid
    assert all_dots(rep)[(0, 1)] == F(1)  # lands on t, not 4t/3


def test_maxplus_generic_k2():
    rep = maxplus_generic(complete(2))
    assert [v.to_json() for v in rep.vectors] == [["1/1", "1/3"], ["1/3", "1/1"]]
    assert all_dots(rep)[(0, 1)] == F(Fraction(4, 3))


def test_maxplus_generic_two_isolated_vertices():
    rep = maxplus_generic(empty(2))
    assert verify(empty(2), rep).valid
    assert all_dots(rep)[(0, 1)] == F(Fraction(2, 3))


def test_maxplus_generic_triangle():
    rep = maxplus_generic(complete(3))
    assert all(dot == F(Fraction(4, 3)) for dot in all_dots(rep).values())


def test_maxplus_zero_filler_fails_on_two_isolated_vertices():
    """With filler 0 instead of -t/3, two isolated vertices hit max(1+0, 0+1)
    = t on the diagonal coordinates and wrongly become adjacent."""
    vectors = (TropicalVector.of([1, 0]), TropicalVector.of([0, 1]))
    rep = Representation(MAX_PLUS, Fraction(1), vectors)
    report = verify(empty(2), rep)
    assert not report.valid
    (u, v, dot, expected) = report.violations[0]
    assert (u, v) == (0, 1) and dot == F(1) and expected.startswith("non-edge")


@settings(max_examples=50)
@given(graphs(max_n=7))
def test_generic_constructions_verify(g):
    assert verify(g, minplus_generic(g)).valid
    assert verify(g, maxplus_generic(g)).valid


# -- vertex extension ---------------------------------------------------------------


def test_extend_k2_by_isolated_vertex():
    g = Graph(3, [(0, 1)])
    base = threshold_1dim(complete(2))
    rep = minplus_extend_vertex(base, g, 2)
    assert rep.dim == 2
    assert verify(g, rep).valid


def test_extend_p3_by_endpoint_neighbor():
    g = path(4)
    base = caterpillar_2dim(CaterpillarSpec(3))
    rep = minplus_extend_vertex(base, g, 3)
    assert rep.dim == 3
    assert verify(g, rep).valid


def test_extend_rejects_wrong_base():
    g = path(3)
    with pytest.raises(InvalidInputRepresentation):
        minplus_extend_vertex(threshold_1dim(empty(2)), g, 2)
    with pytest.raises(InvalidInputRepresentation):
        minplus_extend_vertex(maxplus_generic(path(2)), g, 2)


def chain_representation(g: Graph):
    """Grow a representation one vertex at a time along a connectivity order."""
    order = [min(u for u, v in g.sorted_edges())]
    order.append(min(v for u, v in g.sorted_edges() if u == order[0]))
    while len(order) < g.n:
        rest = [v for v in range(g.n) if v not in order]
        attached = [v for v in rest if any(g.has_edge(v, u) for u in order)]
        order.append(min(attached or rest))
    rep = threshold_1dim(g.induced(order[:2]))
    for k in range(2, g.n):
        verts = sorted(order[: k + 1])
        sub = g.induced(verts)
        rep = minplus_extend_vertex(rep, sub, verts.index(order[k]))
    return rep


def test_chained_extension_reaches_dimension_n_minus_1():
    rng = random.Random(9)
    for _ in range(10):
        g = random_graph(rng, 6)
        if g.edge_count == 0:
            continue
        order_ok = len(g.components()) == 1
        if not order_ok:
            continue
        rep = chain_representation(g)
        assert rep.dim == g.n - 1
        assert verify(g, rep).valid


# -- rescaling ------------------------------------------------------------------------


def test_rescale_identity_and_inverse():
    rep = minplus_generic(complete(2))
    assert rescale(rep, 1) == rep
    assert rescale(rescale(rep, 5), 1) == rep


def test_rescale_edge_dot():
    rep = rescale(minplus_generic(complete(2)), 3)
    assert all_dots(rep)[(0, 1)] == F(4)
    assert verify(complete(2), rep).valid


@settings(max_examples=40)
@given(graphs(max_n=6), st.integers(1, 9), st.integers(1, 9))
def test_rescale_preserves_verdict(g, num, den):
    new_t = Fraction(num, den)
    for rep in (minplus_generic(g), maxplus_generic(g)):
        assert verify(g, rescale(rep, new_t)).valid


# -- threshold 1-dim -------------------------------------------------------------------


def test_threshold_1dim_both_algebras():
    g = star(3)
    for algebra in (MIN_PLUS, MAX_PLUS):
        rep = threshold_1dim(g, 1, algebra)
        assert rep.dim == 1
        assert verify(g, rep).valid
    with pytest.raises(NotThreshold):
        threshold_1dim(path(4))


def test_threshold_1dim_random():
    rng = random.Random(21)
    for n in range(1, 9):
        for _ in range(6):
            g = random_threshold_graph(rng, n)
            assert verify(g, threshold_1dim(g)).valid


# -- cover-based constructions ----------------------------------------------------------


def test_maxplus_from_cover_p6():
    g = path(6)
    res = theta(g)
    rep = maxplus_from_cover(g, res.cover)
    assert rep.dim == res.value == 3
    assert verify(g, rep).valid


def test_maxplus_from_cover_one_part():
    g = star(3)
    rep = maxplus_from_cover(g, theta(g).cover)
    assert rep.dim == 1
    assert verify(g, rep).valid


def test_maxplus_from_cover_c4():
    g = cycle(4)
    rep = maxplus_from_cover(g, theta(g).cover)
    assert rep.dim == 2
    assert verify(g, rep).valid


def test_minplus_from_intersection_c4_and_2k2():
    for g, expected in ((cycle(4), 2), (matching(2), 2), (star(4), 1)):
        res = theta_hat(g)
        rep = minplus_from_intersection(g, res.cover)
        assert rep.dim == res.value == expected
        assert verify(g, rep).valid


def test_cover_constructions_reject_wrong_mode():
    g = cycle(4)
    with pytest.raises(InvalidCover):
        maxplus_from_cover(g, theta_hat(g).cover)
    with pytest.raises(InvalidCover):
        minplus_from_intersection(g, theta(g).cover)
    with pytest.raises(InvalidCover):
        maxplus_from_cover(g, theta(path(4)).cover)


@pytest.mark.parametrize(
    "g",
    [path(6), star(3), star(4), cycle(4), matching(2), empty(3), complete(3)],
    ids=["P6", "star3", "star4", "C4", "2K2", "empty3", "K3"],
)
def test_from_cover_equals_the_old_names(g):
    union, inter = theta(g).cover, theta_hat(g).cover
    assert from_cover(g, union) == maxplus_from_cover(g, union)
    assert from_cover(g, union).algebra is MAX_PLUS
    assert from_cover(g, inter, 3) == minplus_from_intersection(g, inter, 3)
    assert from_cover(g, inter, 3).algebra is MIN_PLUS
    for cover in (union, inter):
        assert verify(g, from_cover(g, cover)).valid


def _per_part_build(g, cover, t):
    """from_cover built by recognizing each part on its own, with the pad for an empty cover."""
    union = cover.mode is CoverMode.UNION
    whole = frozenset() if union else frozenset(combinations(range(g.n), 2))
    weightings = [threshold_weights(Graph(g.n, part), t) for part in cover.parts or (whole,)]
    vectors = tuple(
        TropicalVector(tuple(F(w.weights[v]) for w in weightings)) for v in range(g.n)
    )
    return Representation(MAX_PLUS if union else MIN_PLUS, Fraction(t), vectors)


def test_from_cover_matches_per_part_reference():
    rng = random.Random(37)
    cases = [random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.5, 0.7))) for _ in range(40)]
    for g in cases + [path(6), cycle(5), complete(4), empty(3)]:
        covers = (theta(g).cover, theta_hat(g).cover, star_cover(g))
        covers += (complement_cover(star_cover(g.complement())),)
        for cover in covers:
            for t in (1, Fraction(7, 3)):
                assert from_cover(g, cover, t) == _per_part_build(g, cover, t)
    for n in range(1, 6):
        for mode, g in ((CoverMode.UNION, empty(n)), (CoverMode.INTERSECTION, complete(n))):
            cover = CoverSolution(mode, (), n)
            for t in (1, Fraction(7, 3)):
                assert from_cover(g, cover, t) == _per_part_build(g, cover, t)


# -- caterpillars ------------------------------------------------------------------------


def test_caterpillar_p4_hand_values():
    rep = caterpillar_2dim(CaterpillarSpec(4))
    assert [v.to_json() for v in rep.vectors] == [
        ["1/2", "2/3"],
        ["2/3", "1/3"],
        ["1/3", "3/4"],
        ["3/4", "1/4"],
    ]
    dots = all_dots(rep)
    for u, v in ((0, 1), (1, 2), (2, 3)):
        assert dots[(u, v)] == F(1)
    for u, v in ((0, 2), (0, 3), (1, 3)):
        assert dots[(u, v)] < F(1)
    assert verify(path(4), rep).valid


def test_caterpillar_star():
    spec = CaterpillarSpec(1, ((1, 3),))
    rep = caterpillar_2dim(spec)
    assert verify(caterpillar(spec), rep).valid


def test_caterpillar_edge_dots_exactly_one():
    rng = random.Random(13)
    for _ in range(20):
        spine = rng.randint(1, 12)
        leaves = tuple(
            (i + 1, rng.randint(0, 3)) for i in range(spine) if rng.random() < 0.5
        )
        spec = CaterpillarSpec(spine, leaves)
        g = caterpillar(spec)
        rep = caterpillar_2dim(spec, k_offset=rng.randint(2, 4))
        assert verify(g, rep).valid
        dots = all_dots(rep)
        for u, v in combinations(range(g.n), 2):
            if g.has_edge(u, v):
                assert dots[(u, v)] == F(1)


def test_caterpillar_k_offset_validation():
    with pytest.raises(BadSpec):
        caterpillar_2dim(CaterpillarSpec(2), k_offset=1)


def test_forest_two_edges_gives_2k2():
    specs = [CaterpillarSpec(2), CaterpillarSpec(2)]
    rep = forest_of_caterpillars(specs)
    assert rep.dim == 2
    assert verify(matching(2), rep).valid


def test_forest_p3_plus_p3():
    specs = [CaterpillarSpec(3), CaterpillarSpec(3)]
    rep = forest_of_caterpillars(specs)
    assert verify(disjoint_union([path(3), path(3)]), rep).valid


def test_forest_single_spec_equals_caterpillar():
    spec = CaterpillarSpec(5, ((2, 2), (4, 1)))
    assert forest_of_caterpillars([spec]) == caterpillar_2dim(spec)


def test_forest_random_specs():
    rng = random.Random(17)
    for _ in range(10):
        specs = []
        for _ in range(rng.randint(2, 3)):
            spine = rng.randint(1, 6)
            leaves = tuple(
                (i + 1, rng.randint(0, 2)) for i in range(spine) if rng.random() < 0.4
            )
            specs.append(CaterpillarSpec(spine, leaves))
        g = disjoint_union([caterpillar(s) for s in specs])
        assert verify(g, forest_of_caterpillars(specs)).valid


# -- joins -----------------------------------------------------------------------------


def test_join_clique_k1():
    rep = join_clique(threshold_1dim(complete(1)), 1)
    assert rep.dim == 1
    assert verify(complete(2), rep).valid


def test_join_clique_p4():
    rep = join_clique(caterpillar_2dim(CaterpillarSpec(4)), 2)
    assert rep.dim == 2
    assert verify(path(4).join(complete(2)), rep).valid


def test_join_clique_realizes_the_join():
    g = cycle(4)
    rep = join_clique(multipartite_kdim([2, 2]), 3)
    target = complete_multipartite([2, 2]).join(complete(3))
    assert realize_graph(rep.vectors, rep.t, rep.algebra) == target


def test_join_clique_repeated_matches_multipartite_reduction():
    rep = join_clique(join_clique(multipartite_kdim([2, 2]), 1), 1)
    assert rep.dim == 2
    realized = realize_graph(rep.vectors, rep.t, rep.algebra)
    # K_{2,2} joined with two universal vertices = K_{2,2,1,1} up to labels
    expected = complete_multipartite([2, 2]).join(complete(1)).join(complete(1))
    assert realized == expected


def test_join_clique_maxplus_variant():
    # maxplus_generic keeps a nonnegative diagonal in every vector, so it
    # meets the sign precondition even though its filler entries are negative
    rep = join_clique(maxplus_generic(path(3)), 2)
    assert verify(path(3).join(complete(2)), rep).valid


def test_join_clique_sign_preconditions():
    bad_min = Representation(
        MIN_PLUS, Fraction(1), (TropicalVector.of([-1, 2]),)
    )
    with pytest.raises(InvalidInputRepresentation):
        join_clique(bad_min, 1)
    bad_max = Representation(
        MAX_PLUS, Fraction(1), (TropicalVector.of([-1, Fraction(-1, 2)]),)
    )
    with pytest.raises(InvalidInputRepresentation):
        join_clique(bad_max, 1)


# -- multipartite ------------------------------------------------------------------------


def test_multipartite_k22_vectors_and_dots():
    rep = multipartite_kdim([2, 2])
    assert [v.to_json() for v in rep.vectors] == [
        ["0/1", "1/1"],
        ["0/1", "1/1"],
        ["1/1", "0/1"],
        ["1/1", "0/1"],
    ]
    dots = all_dots(rep)
    g = complete_multipartite([2, 2])
    for (u, v), dot in dots.items():
        assert dot == (F(1) if g.has_edge(u, v) else F(0))
    assert verify(g, rep).valid


def test_multipartite_k33_dim2():
    rep = multipartite_kdim([3, 3])
    assert rep.dim == 2
    assert verify(complete_multipartite([3, 3]), rep).valid
    assert theta_hat(complete_multipartite([3, 3])).value == 2


def test_multipartite_singleton_reduction():
    rep = multipartite_kdim([2, 2, 1])
    assert rep.dim == 2
    assert verify(complete_multipartite([2, 2, 1]), rep).valid
    # interleaved singleton part
    g = complete_multipartite([1, 2, 2])
    assert verify(g, multipartite_rep_for_graph(g)).valid


def test_multipartite_degenerate_threshold_cases():
    for sizes in ([1, 1], [1, 1, 1], [3, 1], [1, 4]):
        rep = multipartite_kdim(sizes)
        assert rep.dim == 1
        assert verify(complete_multipartite(sizes), rep).valid
    with pytest.raises(BadParameter):
        multipartite_kdim([4])


@pytest.mark.parametrize(
    "sizes",
    [[1, 1], [2, 1], [1, 3], [1, 1, 1], [2, 2], [3, 3], [2, 2, 1], [1, 2, 2],
     [3, 1, 2, 1], [1, 1, 5], [2, 3, 4], [4, 4, 4, 4], [1, 2, 3, 4]],
)
def test_multipartite_kdim_equals_rep_for_graph(sizes):
    g = complete_multipartite(sizes)
    assert multipartite_kdim(sizes) == multipartite_rep_for_graph(g)


# -- cycles -------------------------------------------------------------------------------


def test_cycle_3dim():
    for n in (5, 6, 7):
        rep = cycle_3dim(n)
        assert rep.dim == 3
        assert verify(cycle(n), rep).valid
    with pytest.raises(BadParameter):
        cycle_3dim(4)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 16, 17, 39])
def test_cycle_3dim_equals_rep_for_graph(n):
    assert cycle_3dim(n) == cycle_rep_for_graph(cycle(n))


# -- structure recognition (CLI paths) ------------------------------------------------------


def test_caterpillar_rep_for_graph_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        specs = [
            CaterpillarSpec(
                rng.randint(1, 5),
                tuple((i + 1, rng.randint(0, 2)) for i in range(3) if i < 1),
            )
            for _ in range(rng.randint(1, 3))
        ]
        g = disjoint_union([caterpillar(s) for s in specs])
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = g.relabel(perm)
        rep = caterpillar_rep_for_graph(shuffled)
        assert verify(shuffled, rep).valid


def test_caterpillar_rep_rejects_non_caterpillars():
    with pytest.raises(BadSpec):
        caterpillar_rep_for_graph(cycle(5))
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    with pytest.raises(BadSpec):
        caterpillar_rep_for_graph(spider)


def test_multipartite_rep_for_graph():
    g = complete_multipartite([2, 3, 2])
    perm = [3, 0, 5, 1, 6, 2, 4]
    shuffled = g.relabel(perm)
    rep = multipartite_rep_for_graph(shuffled)
    assert verify(shuffled, rep).valid
    with pytest.raises(BadParameter):
        multipartite_rep_for_graph(path(4))


def test_cycle_rep_for_graph():
    g = cycle(6).relabel([2, 4, 0, 5, 1, 3])
    rep = cycle_rep_for_graph(g)
    assert verify(g, rep).valid
    with pytest.raises(BadParameter):
        cycle_rep_for_graph(path(5))
    with pytest.raises(BadParameter):
        cycle_rep_for_graph(cycle(4))


# -- representation type ---------------------------------------------------------------------


def test_representation_invariants():
    with pytest.raises(BadParameter):
        Representation(MIN_PLUS, Fraction(0), (TropicalVector.of([1]),))
    with pytest.raises(BadParameter):
        Representation(
            MIN_PLUS, Fraction(1), (TropicalVector.of([1]), TropicalVector.of([1, 2]))
        )
    with pytest.raises(BadParameter):
        Representation(MIN_PLUS, Fraction(1), (TropicalVector.of(["-inf"]),))
    with pytest.raises(BadParameter):
        Representation(MAX_PLUS, Fraction(1), (TropicalVector.of(["inf"]),))


def test_representation_json_round_trip():
    for rep in (
        minplus_generic(path(4)),
        maxplus_generic(cycle(5)),
        caterpillar_2dim(CaterpillarSpec(3, ((2, 2),))),
    ):
        data = rep.to_json()
        assert data["schema"] == "tropigraph/1"
        assert Representation.from_json(data) == rep


def test_representation_json_rejects_corrupt_documents():
    from tropigraph import ParseError

    good = minplus_generic(path(3)).to_json()
    missing = dict(good)
    del missing["vectors"]
    with pytest.raises(ParseError):
        Representation.from_json(missing)
    gap = dict(good, vectors={"0": good["vectors"]["0"], "2": good["vectors"]["2"]})
    with pytest.raises(ParseError):
        Representation.from_json(gap)
    wrong_dim = dict(good, dim=5)
    with pytest.raises(ParseError):
        Representation.from_json(wrong_dim)
    bad_algebra = dict(good, algebra="mean-plus")
    with pytest.raises(ParseError):
        Representation.from_json(bad_algebra)
