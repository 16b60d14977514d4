"""Realization, verification, slices, exact dimensions, conjecture sweep."""

import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import graphs, random_graph
from oracles import eval_dot
from tropigraph import (
    MAX_PLUS,
    MIN_PLUS,
    NEG_INF,
    POS_INF,
    BadParameter,
    CaterpillarSpec,
    Graph,
    MixedInfinity,
    Representation,
    TooLarge,
    TropicalVector,
    VertexMismatch,
    canonical_code,
    caterpillar_2dim,
    check_conjecture,
    complete,
    cycle,
    empty,
    is_threshold,
    matching,
    max_induced_threshold,
    maxplus_from_cover,
    maxplus_generic,
    minplus_from_intersection,
    minplus_generic,
    nonisomorphic_graphs,
    parse_graph6,
    path,
    project_slices,
    realize_graph,
    rescale,
    rho,
    star,
    theta,
    theta_hat,
    threshold_1dim,
    verify,
)


def test_realize_students():
    ratings = {
        "A": (2, 2, 1, 0),
        "B": (1, 2, 2, 1),
        "C": (1, 1, 3, 3),
        "D": (3, 3, 0, 0),
        "E": (2, 1, 3, 2),
        "F": (1, 2, 2, 3),
    }
    vectors = [TropicalVector.of(ratings[k]) for k in "ABCDEF"]
    g = realize_graph(vectors, 3, MIN_PLUS)
    letters = {(("ABCDEF")[u], ("ABCDEF")[v]) for u, v in g.edges}
    assert ("B", "E") in letters and ("A", "F") in letters and ("C", "D") in letters
    assert ("A", "B") not in letters and ("A", "E") not in letters


def test_realize_funds_a_e_nonadjacent():
    holdings = {
        "A": (1, 0, 0, 1, 0),
        "B": (1, 1, 0, 0, 0),
        "C": (0, 0, 1, 1, 0),
        "D": (0, 0, 1, 1, 1),
        "E": (0, 1, 1, 0, 1),
        "F": (1, 0, 0, 0, 1),
        "H": (0, 1, 0, 1, 0),
    }
    vectors = [TropicalVector.of(holdings[k]) for k in "ABCDEFH"]
    g = realize_graph(vectors, 2, MAX_PLUS)
    assert not g.has_edge(0, 4)  # A and E share no holding


def test_realize_all_zero_vectors():
    vectors = [TropicalVector.of([0, 0]) for _ in range(4)]
    assert realize_graph(vectors, 1, MIN_PLUS) == empty(4)


def test_verify_valid_and_invalid():
    g = path(4)
    rep = caterpillar_2dim(CaterpillarSpec(4))
    assert verify(g, rep).valid
    report = verify(cycle(4), rep)
    assert not report.valid and len(report.violations) >= 1
    assert verify(g, rescale(rep, 7)).valid
    with pytest.raises(VertexMismatch):
        verify(path(5), rep)


def test_verify_report_json():
    report = verify(cycle(4), caterpillar_2dim(CaterpillarSpec(4)))
    data = report.to_json()
    assert data["schema"] == "tropigraph/1"
    assert data["valid"] is False
    assert all({"u", "v", "dot", "expected"} <= set(v) for v in data["violations"])


# -- slices ------------------------------------------------------------------------


def test_slices_of_1dim_threshold_rep():
    g = star(3)
    assert project_slices(threshold_1dim(g)) == [g]


def test_slices_union_law_maxplus():
    g = path(6)
    rep = maxplus_from_cover(g, theta(g).cover)
    slices = project_slices(rep)
    combined = slices[0]
    for s in slices[1:]:
        combined = combined.union(s)
    assert combined == g
    assert all(is_threshold(s).is_threshold for s in slices)


def test_slices_intersection_law_minplus():
    g = cycle(4)
    rep = minplus_from_intersection(g, theta_hat(g).cover)
    slices = project_slices(rep)
    combined = slices[0]
    for s in slices[1:]:
        combined = combined.intersection(s)
    assert combined == g
    assert all(is_threshold(s).is_threshold for s in slices)


def test_slices_with_infinite_entries():
    # the generic min-plus construction carries +inf entries: such a vertex
    # dominates its slice, and the slice law still holds
    g = path(4)
    rep = minplus_generic(g)
    slices = project_slices(rep)
    combined = slices[0]
    for s in slices[1:]:
        combined = combined.intersection(s)
    assert combined == g
    assert all(is_threshold(s).is_threshold for s in slices)


def test_slices_with_neg_inf_entries():
    # a -inf coordinate isolates its vertex in that slice
    from fractions import Fraction

    from tropigraph import NEG_INF, Graph, Representation

    rep = Representation(
        MAX_PLUS,
        Fraction(1),
        (
            TropicalVector.of([Fraction(1, 2), NEG_INF]),
            TropicalVector.of([Fraction(1, 2), NEG_INF]),
            TropicalVector.of([NEG_INF, 5]),
        ),
    )
    target = Graph(3, [(0, 1)])
    assert realize_graph(rep.vectors, rep.t, rep.algebra) == target
    slices = project_slices(rep)
    assert slices[0] == Graph(3, [(0, 1)])
    assert slices[1] == Graph(3)
    assert verify(target, rep).valid


@settings(max_examples=40)
@given(graphs(max_n=6))
def test_slice_laws_generic(g):
    for rep in (minplus_generic(g), maxplus_generic(g)):
        slices = project_slices(rep)
        combined = slices[0]
        for s in slices[1:]:
            combined = (
                combined.intersection(s)
                if rep.algebra is MIN_PLUS
                else combined.union(s)
            )
        assert combined == g


# -- realization against a pairwise oracle -----------------------------------------


def _oracle_reaches(dot, t, mode: str) -> bool:
    # eval_dot returns None for the identity infinity: +inf in min-plus, -inf in max-plus
    return mode == "min" if dot is None else dot >= t


def _oracle_str(dot, mode: str) -> str:
    if dot is None:
        return "inf" if mode == "min" else "-inf"
    return f"{dot.numerator}/{dot.denominator}"


def test_realization_matches_pairwise_oracle():
    """realize_graph, every slice and verify's violation list against eval_dot.

    The grid and thresholds are chosen so that many coordinate sums land
    exactly on t; about one entry in five is the identity infinity.
    """
    rng = random.Random(2024)
    grid = [Fraction(p, q) for p in range(-3, 7) for q in (1, 2, 3)]
    for case in range(300):
        n, d = 1 + case % 9, rng.randint(1, 4)
        t = rng.choice([Fraction(1), Fraction(1, 2), Fraction(4, 3)])
        raw = [
            [None if rng.random() < 0.2 else rng.choice(grid) for _ in range(d)] for _ in range(n)
        ]
        pairs = list(combinations(range(n), 2))
        for alg, mode, identity in ((MIN_PLUS, "min", POS_INF), (MAX_PLUS, "max", NEG_INF)):
            vectors = tuple(
                TropicalVector.of([identity if x is None else x for x in row]) for row in raw
            )
            rep = Representation(alg, t, vectors)
            dots = {(u, v): eval_dot(raw[u], raw[v], mode) for u, v in pairs}
            realized = Graph(n, [p for p in pairs if _oracle_reaches(dots[p], t, mode)])
            assert realize_graph(vectors, t, alg) == realized
            for j, got in enumerate(project_slices(rep)):
                assert got == Graph(n, [
                    (u, v) for u, v in pairs
                    if _oracle_reaches(eval_dot([raw[u][j]], [raw[v][j]], mode), t, mode)
                ])
            assert verify(realized, rep).valid
            target = Graph(n, [p for p in pairs if rng.random() < 0.5])
            expected = [
                {
                    "u": u,
                    "v": v,
                    "dot": _oracle_str(dots[u, v], mode),
                    "expected": "edge: dot >= t" if target.has_edge(u, v) else "non-edge: dot < t",
                }
                for u, v in pairs
                if target.has_edge(u, v) != realized.has_edge(u, v)
            ]
            assert verify(target, rep).to_json()["violations"] == expected


def test_mixed_infinities_raise_only_within_one_coordinate():
    same = tuple(TropicalVector.of(row) for row in (["inf", 0], ["-inf", 1], [0, 0]))
    apart = (TropicalVector.of(["inf", 0]), TropicalVector.of([0, "-inf"]))
    for alg in (MIN_PLUS, MAX_PLUS):
        with pytest.raises(MixedInfinity):
            realize_graph(same, 1, alg)
    assert realize_graph(apart, 1, MIN_PLUS) == Graph(2)
    assert realize_graph(apart, 1, MAX_PLUS) == Graph(2, [(0, 1)])
    # a Representation admits one infinity only, so the slices get the fields they read
    with pytest.raises(MixedInfinity):
        project_slices(SimpleNamespace(vectors=same, t=Fraction(1), n=3, dim=2))
    rep = SimpleNamespace(vectors=apart, t=Fraction(1), n=2, dim=2)
    assert project_slices(rep) == [Graph(2, [(0, 1)]), Graph(2)]


# -- rho ---------------------------------------------------------------------------


def test_rho_table():
    r = rho(path(6))
    assert (r.rho_min_plus, r.rho_max_plus) == (2, 3)
    r = rho(cycle(4))
    assert (r.rho_min_plus, r.rho_max_plus) == (2, 2)
    for g in (star(4), complete(5), path(3), empty(4), complete(1)):
        r = rho(g)
        assert (r.rho_min_plus, r.rho_max_plus) == (1, 1)


def test_rho_witnesses_verify_at_reported_dims():
    for g in (path(6), cycle(4), cycle(5), matching(3), complete(4), empty(3)):
        r = rho(g)
        assert r.method == "exact"
        assert r.witness_min_plus.dim == r.rho_min_plus
        assert r.witness_max_plus.dim == r.rho_max_plus
        assert verify(g, r.witness_min_plus).valid
        assert verify(g, r.witness_max_plus).valid


def test_rho_duality_small():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            r = rho(g)
            assert r.rho_min_plus == max(theta(g.complement()).value, 1)
            assert r.rho_min_plus == rho(g.complement()).rho_max_plus


def test_rho_self_complementary_equality():
    for g in (path(4), cycle(5)):
        assert canonical_code(g) == canonical_code(g.complement())  # sanity
        r = rho(g)
        assert r.rho_min_plus == r.rho_max_plus


def test_rho_monotone_bound_via_induced_threshold():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, 6)
        r = rho(g)
        assert r.rho_min_plus <= g.n - len(max_induced_threshold(g)) + 1


def test_rho_threshold_shortcut_beats_the_size_limit():
    # recognition is polynomial, so threshold graphs and their complements
    # stay exact far past the search limits
    r = rho(complete(40))
    assert r.method == "exact"
    assert (r.rho_min_plus, r.rho_max_plus) == (1, 1)
    assert verify(complete(40), r.witness_min_plus).valid
    assert verify(complete(40), r.witness_max_plus).valid


def test_rho_bounds_can_collapse_without_exactness_claim():
    r = rho(matching(6))
    assert r.method == "bounds"
    # triangle-free: the cover-number bounds collapse onto n - alpha = 6
    assert r.max_plus_bounds == (6, 6) and r.rho_max_plus == 6
    assert r.witness_max_plus.dim == 6
    assert verify(matching(6), r.witness_max_plus).valid


def test_rho_past_the_independence_limit_raises():
    for g, n in ((path(40), 40), (cycle(33), 33)):
        with pytest.raises(TooLarge) as info:
            rho(g)
        assert str(info.value) == f"exact independence search limited to 32 vertices, got {n}"


def test_rho_is_exact_when_both_brackets_close_past_the_gates():
    # cycle(5) and its complement are triangle-free, so no search is needed
    r = rho(cycle(5), limit=3)
    assert r.method == "exact" and (r.rho_min_plus, r.rho_max_plus) == (3, 3)
    assert r.min_plus_bounds is None and r.max_plus_bounds is None
    assert verify(cycle(5), r.witness_min_plus).valid


def test_rho_bounds_mode_on_large_graph():
    g = path(12)
    r = rho(g)
    assert r.method == "bounds"
    assert r.min_plus_bounds is not None and r.max_plus_bounds is not None
    lo, hi = r.max_plus_bounds
    assert lo <= hi and r.rho_max_plus == hi
    # triangle-free: the max-plus bounds collapse onto n - alpha = 6
    assert r.max_plus_bounds == (6, 6)
    assert r.witness_max_plus.dim == r.rho_max_plus
    assert r.witness_min_plus.dim == r.rho_min_plus
    assert verify(g, r.witness_max_plus).valid
    assert verify(g, r.witness_min_plus).valid


def test_rho_json():
    data = rho(path(6)).to_json()
    assert data["schema"] == "tropigraph/1"
    assert data["method"] == "exact"
    assert data["rho_min_plus"] == 2 and data["rho_max_plus"] == 3


# -- enumeration and sweep -----------------------------------------------------------


def test_nonisomorphic_counts():
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, count in expected.items():
        assert sum(1 for _ in nonisomorphic_graphs(n)) == count


def test_nonisomorphic_graphs_are_canonical():
    for g in nonisomorphic_graphs(4):
        code = canonical_code(g)
        edges = sorted(g.edges)
        rebuilt = sum(
            1 << i
            for i, p in enumerate(
                [(u, v) for u in range(4) for v in range(u + 1, 4)]
            )
            if p in g.edges
        )
        assert code == rebuilt


def test_check_conjecture_small():
    report = check_conjecture(1)
    assert report.classes_checked == 1
    assert not report.counterexamples and not report.strict_instances

    report = check_conjecture(4)
    assert report.classes_checked == 18  # 1 + 2 + 4 + 11
    assert not report.counterexamples
    assert not report.strict_instances  # dimensions coincide up to 4 vertices


def test_check_conjecture_validation():
    with pytest.raises(BadParameter):
        check_conjecture(0)
    with pytest.raises(TooLarge):
        check_conjecture(7)


def test_check_conjecture_records_p6():
    report = check_conjecture(6)
    assert report.classes_checked == 208
    p6_code = canonical_code(path(6))
    entry = next(
        e
        for e in report.entries
        if e.n == 6 and canonical_code(parse_graph6(e.graph6)) == p6_code
    )
    assert (entry.rho_min_plus, entry.rho_max_plus) == (2, 3)
    assert entry.graph6 in report.strict_instances
    # duality makes the complement of every strict instance a reverse instance
    assert len(report.counterexamples) == len(report.strict_instances)


def test_conjecture_report_json():
    report = check_conjecture(3)
    data = report.to_json()
    assert data["schema"] == "tropigraph/1"
    assert data["classes_checked"] == 7
    assert len(data["entries"]) == 7


def test_constructor_matrix_round_trip():
    """Every constructor verifies against its target across the generator families."""
    from tropigraph import (
        CaterpillarSpec,
        caterpillar,
        caterpillar_2dim,
        complete_multipartite,
        cycle_3dim,
        disjoint_union,
        forest_of_caterpillars,
        join_clique,
        matching,
        multipartite_kdim,
        star,
    )

    targets = [
        path(1), path(2), path(5), cycle(3), cycle(4), cycle(6),
        complete(4), star(4), matching(3), empty(4),
        complete_multipartite([2, 3]), path(3).join(complete(2)),
    ]
    for g in targets:
        assert verify(g, minplus_generic(g)).valid, g
        assert verify(g, maxplus_generic(g)).valid, g
        res = theta(g)
        assert verify(g, rho(g).witness_max_plus).valid, g
        assert verify(g, rho(g).witness_min_plus).valid, g
        if is_threshold(g).is_threshold:
            assert verify(g, threshold_1dim(g)).valid, g

    spec = CaterpillarSpec(6, ((2, 2), (5, 1)))
    assert verify(caterpillar(spec), caterpillar_2dim(spec)).valid
    specs = [spec, CaterpillarSpec(1, ((1, 2),))]
    assert verify(
        disjoint_union([caterpillar(s) for s in specs]),
        forest_of_caterpillars(specs),
    ).valid
    for n in (5, 6):
        assert verify(cycle(n), cycle_3dim(n)).valid
    for sizes in ([2, 2], [3, 3], [2, 2, 1], [2, 3, 4]):
        assert verify(complete_multipartite(sizes), multipartite_kdim(sizes)).valid
    assert verify(
        star(3).join(complete(2)), join_clique(threshold_1dim(star(3)), 2)
    ).valid


def test_cycle_dimensions_at_desk_scale():
    """Exact min-plus dimension of small cycles, computed (not presumed):
    the solvers report 3 for C5, C6, and C7."""
    for n in (5, 6, 7):
        r = rho(cycle(n))
        assert r.method == "exact"
        assert r.rho_min_plus == 3, n
        assert verify(cycle(n), r.witness_min_plus).valid
