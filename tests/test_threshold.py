"""Recognition certificates, weight realizations, and exact cover numbers."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import graphs, random_graph, random_threshold_graph
from oracles import (
    all_threshold_edge_sets,
    brute_alpha,
    is_threshold_bruteforce,
    setcover_theta,
)
from tropigraph import (
    BadParameter,
    CoverMode,
    CoverSolution,
    Graph,
    InvalidCover,
    NotThreshold,
    ParseError,
    ThresholdCertificate,
    TooLarge,
    VertexKind,
    complement_cover,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty,
    find_alternating_c4,
    from_cover,
    is_threshold,
    matching,
    max_induced_threshold,
    nonisomorphic_graphs,
    path,
    star,
    star_cover,
    theta,
    theta_bounds,
    theta_hat,
    threshold_weights,
    validate_cover,
    verify,
)
from tropigraph.threshold import _peel

# -- recognition ----------------------------------------------------------------


def test_complete_graphs_are_threshold():
    for n in range(1, 7):
        cert = is_threshold(complete(n))
        assert cert.is_threshold and cert.validate(complete(n))


def test_p4_is_not_threshold_with_witness():
    cert = is_threshold(path(4))
    assert not cert.is_threshold
    assert cert.validate(path(4))
    a, b, c, d = cert.witness
    assert path(4).has_edge(a, b) and path(4).has_edge(c, d)
    assert not path(4).has_edge(a, c) and not path(4).has_edge(b, d)


def test_star_creation_sequence():
    g = star(4)
    cert = is_threshold(g)
    assert cert.is_threshold
    assert cert.replay() == g
    kinds = dict(cert.creation)
    assert kinds[0] is VertexKind.DOMINATING  # the center arrives last


def test_forbidden_triple_rejected():
    for g in (cycle(4), path(4), matching(2)):
        assert not is_threshold(g).is_threshold


@settings(max_examples=80)
@given(graphs(max_n=7))
def test_certificates_validate(g):
    cert = is_threshold(g)
    assert cert.validate(g)
    if not cert.is_threshold:
        assert find_alternating_c4(g) is not None


@settings(max_examples=60)
@given(graphs(max_n=6))
def test_recognizer_closed_under_complement(g):
    assert is_threshold(g).is_threshold == is_threshold(g.complement()).is_threshold


@settings(max_examples=60)
@given(graphs(max_n=6))
def test_recognizer_matches_forbidden_subgraph_oracle(g):
    assert is_threshold(g).is_threshold == is_threshold_bruteforce(g)


def test_recognizer_matches_creation_enumeration():
    families = {n: all_threshold_edge_sets(n) for n in range(1, 6)}
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            assert is_threshold(g).is_threshold == (g.edges in families[n])


def test_peel_matches_sandwich_oracle():
    """_peel empties `alive` exactly when a threshold T has need <= T <= host on it."""
    rng = random.Random(23)
    stuck = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(n), 2))
        host_edges = {e for e in pairs if rng.random() < 0.5}
        need_edges = {e for e in host_edges if rng.random() < 0.8}
        alive = rng.choice(((1 << n) - 1, rng.randrange(1 << n)))
        inside = {(u, v) for u, v in pairs if alive >> u & 1 and alive >> v & 1}
        need, host = Graph(n, need_edges), Graph(n, host_edges)
        removal = _peel(
            [need.adjacency_mask(v) for v in range(n)],
            [host.adjacency_mask(v) for v in range(n)],
            alive,
        )
        exists = any(
            need_edges & inside <= t & inside <= host_edges for t in all_threshold_edge_sets(n)
        )
        assert (removal is not None) == exists
        if removal is None:
            stuck += 1
            continue
        assert sorted(v for v, _ in removal) == [v for v in range(n) if alive >> v & 1]
        left, built = alive, set()
        for v, kind in removal:  # a dominating vertex joins everything still alive
            left ^= 1 << v
            if kind is VertexKind.DOMINATING:
                built |= {(min(v, w), max(v, w)) for w in range(n) if left >> w & 1}
        assert need_edges & inside <= built <= host_edges & inside
        assert built in all_threshold_edge_sets(n)
    assert 50 <= stuck <= 550  # both outcomes are exercised


# -- weights ----------------------------------------------------------------------


def test_weights_k2():
    w = threshold_weights(complete(2))
    assert w.realizes(complete(2))
    assert sum(w.weights) >= w.threshold


def test_weights_empty_graph():
    w = threshold_weights(empty(3))
    assert w.realizes(empty(3))


def test_weights_not_threshold():
    with pytest.raises(NotThreshold):
        threshold_weights(path(4))


def test_weights_random_threshold_graphs():
    rng = random.Random(11)
    for n in range(1, 10):
        for _ in range(10):
            g = random_threshold_graph(rng, n)
            assert threshold_weights(g, 1).realizes(g)
            assert threshold_weights(g, "7/3").realizes(g)


def test_weights_reject_other_graphs():
    rng = random.Random(12)
    for n in range(2, 10):
        for _ in range(10):
            g = random_threshold_graph(rng, n)
            w = threshold_weights(g, "7/3")
            flipped = set(g.edges) ^ {tuple(sorted(rng.sample(range(n), 2)))}
            assert not w.realizes(Graph(n, flipped))
            assert not w.realizes(Graph(n + 1, g.edges))
            assert not w.realizes(g.induced(range(n - 1)))


# -- covers -----------------------------------------------------------------------


def test_theta_known_values():
    assert theta(path(4)).value == 2
    assert theta(path(6)).value == 3
    assert theta(matching(2)).value == 2
    assert theta(cycle(4)).value == 2
    assert theta(cycle(5)).value == 3
    assert theta(complete(6)).value == 1
    assert theta(empty(4)).value == 0


def test_theta_cover_witness_is_valid():
    for g in (path(6), cycle(4), cycle(5), matching(3), complete_multipartite([2, 3])):
        res = theta(g)
        assert res.cover.mode is CoverMode.UNION
        assert len(res.cover.parts) == res.value
        validate_cover(g, res.cover)


def test_theta_deterministic():
    g = cycle(5)
    assert theta(g) == theta(g)


def test_theta_limits():
    # the gates guard only the partition search: triangle-free graphs close
    # at n - alpha without it
    g = cycle(11)
    assert theta(g).value == 6 == g.n - brute_alpha(g)
    with pytest.raises(TooLarge, match="limited to 10 vertices, got 11"):
        theta(cycle(11).complement())
    with pytest.raises(TooLarge):
        theta(cycle(10).complement(), edge_limit=20)


def test_theta_closes_triangle_free_brackets_past_the_gates():
    for g in (path(12), matching(8)):
        res = theta(g)
        assert res.value == g.n - brute_alpha(g) == len(res.cover.parts)
        validate_cover(g, res.cover)
    assert theta(path(20)).value == 10


def test_theta_bounds_past_the_independence_limit():
    assert theta_bounds(complete(40)) == (1, 1)
    assert theta_bounds(empty(40)) == (0, 0)
    with pytest.raises(TooLarge, match="independence search limited to 32 vertices"):
        theta(cycle(33))


def test_exact_limit_env_override(monkeypatch):
    monkeypatch.setenv("TROPIGRAPH_EXACT_LIMIT", "5")
    assert theta(cycle(6)).value == 3  # triangle-free: closed without the search
    with pytest.raises(TooLarge, match="limited to 5 vertices, got 6"):
        theta(disjoint_union([complete(3)] * 2))
    with pytest.raises(TooLarge):
        max_induced_threshold(path(6))
    monkeypatch.setenv("TROPIGRAPH_EXACT_LIMIT", "11")
    assert theta(cycle(11)).value == 6  # triangle-free: 11 - alpha = 6
    monkeypatch.setenv("TROPIGRAPH_EXACT_LIMIT", "not-a-number")
    with pytest.raises(BadParameter):
        theta(cycle(6))
    with pytest.raises(BadParameter):  # read even where no search is needed
        theta(complete(4))


def test_theta_hat_values():
    assert theta_hat(cycle(4)).value == 2
    assert theta_hat(star(4)).value == 1
    assert theta_hat(path(3)).value == 1
    assert theta_hat(complete_multipartite([3, 3])).value == 2
    assert theta_hat(complete(4)).value == 0  # complement is edgeless


def test_theta_hat_witness_is_valid_intersection():
    for g in (cycle(4), matching(2), path(6), complete_multipartite([3, 3])):
        res = theta_hat(g)
        assert res.cover.mode is CoverMode.INTERSECTION
        validate_cover(g, res.cover)
        assert res.value == theta(g.complement()).value


def test_cover_validation_rejects_bad_covers():
    g = path(4)
    with pytest.raises(InvalidCover):
        validate_cover(g, CoverSolution(CoverMode.UNION, (frozenset(g.edges),), 4))
    with pytest.raises(InvalidCover):
        validate_cover(
            g, CoverSolution(CoverMode.UNION, (frozenset({(0, 1)}),), 4)
        )
    with pytest.raises(InvalidCover):
        validate_cover(g, CoverSolution(CoverMode.UNION, (), 5))


def test_cover_json_round_trip():
    res = theta(path(6))
    data = res.cover.to_json()
    assert data["schema"] == "tropigraph/1"
    assert CoverSolution.from_json(data) == res.cover


def test_cover_json_vertex_count_is_a_non_negative_integer():
    data = {"mode": "union", "n": "4", "parts": []}
    assert CoverSolution.from_json(data).n == 4
    for bad in (4.7, True, -2, "-2", "04", 4.0, None):
        with pytest.raises(ParseError):
            CoverSolution.from_json({**data, "n": bad})


def test_cover_json_endpoints_converted_before_ordering():
    data = {"mode": "union", "n": 11, "parts": [[["9", "10"]]]}
    cover = CoverSolution.from_json(data)
    assert cover.parts == (frozenset({(9, 10)}),)
    validate_cover(Graph(11, [(9, 10)]), cover)
    for bad in ([3, 3], [5.7, 2], [0, 11]):
        with pytest.raises(ParseError):
            CoverSolution.from_json({"mode": "union", "n": 11, "parts": [[bad]]})


def test_validate_cover_sequences_replay_to_parts():
    rng = random.Random(29)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        for cover in (theta(g).cover, theta_hat(g).cover, star_cover(g)):
            creations = validate_cover(g, cover)
            assert len(creations) == len(cover.parts)
            for creation, part in zip(creations, cover.parts):
                assert ThresholdCertificate(True, creation=creation).replay() == Graph(g.n, part)


def test_complement_cover_flips_mode():
    cov = theta(path(4)).cover
    flipped = complement_cover(cov)
    assert flipped.mode is CoverMode.INTERSECTION
    assert complement_cover(flipped) == CoverSolution(
        CoverMode.UNION, cov.parts, cov.n
    )


def test_star_cover_is_valid_with_n_minus_alpha_parts():
    rng = random.Random(3)
    for n in range(2, 9):
        for _ in range(6):
            g = random_graph(rng, n)
            cov = star_cover(g)
            validate_cover(g, cov)
            assert len(cov.parts) == g.n - brute_alpha(g)


# -- oracle equivalence -------------------------------------------------------------


def test_theta_matches_setcover_oracle_up_to_n5():
    for n in range(1, 6):
        for g in nonisomorphic_graphs(n):
            assert theta(g).value == setcover_theta(g), g


def test_theta_matches_setcover_oracle_random_n7():
    rng = random.Random(5)
    for _ in range(15):
        g = random_graph(rng, 7)
        assert theta(g).value == setcover_theta(g), g


def test_theta_hat_matches_setcover_oracle_random_n7():
    # the search path depends on the labels, so relabelled copies are solved too
    rng = random.Random(6)
    for _ in range(15):
        g = random_graph(rng, 7)
        want = setcover_theta(g.complement())
        for h in (g, g.relabel(rng.sample(range(7), 7)), g.relabel(rng.sample(range(7), 7))):
            assert theta_hat(h).value == want, h


def test_partition_matches_setcover_oracle_relabelled():
    # the partition search orders edges by their labels only to break ties,
    # so each seeded graph is solved as drawn and relabelled
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(5, 8)
        base = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        want = setcover_theta(base), setcover_theta(base.complement())
        for g in (base, base.relabel(rng.sample(range(n), n))):
            covers = theta(g, 8, 28), theta_hat(g, 8, 28)
            assert tuple(res.value for res in covers) == want, g
            for res in covers:
                validate_cover(g, res.cover)
                assert verify(g, from_cover(g, res.cover)).valid, g


# (theta, theta_hat) of the corpus drawn from random.Random(7): n = 8..14,
# p = 0.3 then 0.5, four graphs per cell, in that order.  The values were
# taken once from the independent cover_number of the benchmark checker.
_PINNED_THETAS = {
    (8, 0.3): [(3, 3), (4, 3), (3, 2), (3, 3)],
    (8, 0.5): [(2, 2), (3, 3), (3, 4), (3, 3)],
    (9, 0.3): [(4, 2), (3, 2), (4, 3), (4, 3)],
    (9, 0.5): [(3, 4), (3, 3), (4, 3), (3, 3)],
    (10, 0.3): [(4, 3), (5, 3), (3, 3), (4, 3)],
    (10, 0.5): [(3, 4), (4, 5), (4, 4), (4, 4)],
    (11, 0.3): [(4, 3), (4, 3), (5, 4), (4, 3)],
    (11, 0.5): [(5, 4), (4, 4), (3, 4), (4, 4)],
    (12, 0.3): [(5, 3), (5, 3), (4, 3), (5, 3)],
    (12, 0.5): [(4, 5), (5, 4), (4, 5), (4, 5)],
    (13, 0.3): [(5, 4), (5, 3), (4, 3), (5, 3)],
    (13, 0.5): [(5, 4), (4, 5), (5, 5), (4, 5)],
    (14, 0.3): [(6, 4), (6, 4), (5, 4), (6, 3)],
    (14, 0.5): [(5, 5), (5, 5), (5, 4), (5, 5)],
}


def _thetas(graphs) -> tuple[float, list[tuple[int, int]]]:
    """Best-of-3 seconds for theta plus theta_hat over graphs, and the values."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        values = [(theta(g, 99, 999).value, theta_hat(g, 99, 999).value) for g in graphs]
        best = min(best, time.perf_counter() - start)
    return best, values


def test_pinned_corpus_exact_and_label_independent():
    draw = random.Random(7)
    corpus = [random_graph(draw, n, p) for n, p in _PINNED_THETAS for _ in range(4)]
    got = []
    for g in corpus:
        covers = theta(g, 99, 999), theta_hat(g, 99, 999)
        for res in covers:
            validate_cover(g, res.cover)
        got.append(tuple(res.value for res in covers))
    assert got == [pair for row in _PINNED_THETAS.values() for pair in row]

    small = [g for g in corpus if g.n <= 10]
    drawn, values = _thetas(small)
    rng = random.Random(23)
    for _ in range(3):
        relabelled = [g.relabel(rng.sample(range(g.n), g.n)) for g in small]
        seconds, again = _thetas(relabelled)
        assert again == values
        assert seconds <= 2 * drawn + 0.05, (seconds, drawn)


# -- bounds -----------------------------------------------------------------------


def test_bounds_examples():
    assert theta_bounds(path(6)) == (3, 3)
    assert theta_bounds(complete(5)) == (1, 1)
    assert theta_bounds(cycle(5)) == (3, 3)
    assert theta_bounds(empty(4)) == (0, 0)


def test_bounds_lower_via_pairwise_conflicting_edges():
    # three disjoint triangles: one edge per triangle pairwise conflicts,
    # lifting the lower bound to 3, which theta attains
    g = disjoint_union([complete(3)] * 3)
    assert theta_bounds(g) == (3, 6)
    assert theta(g).value == 3


def test_bounds_bracket_theta():
    for n in range(1, 7):
        for g in nonisomorphic_graphs(n):
            lo, hi = theta_bounds(g)
            value = theta(g).value
            assert lo <= value <= hi
            if g.is_triangle_free():
                assert lo == hi == value


# -- maximum induced threshold subgraph ----------------------------------------------


def test_max_induced_threshold_small_graphs():
    for g in (complete(3), path(3), empty(2)):
        assert max_induced_threshold(g) == frozenset(range(g.n))


def test_max_induced_threshold_c4_and_p6():
    assert len(max_induced_threshold(cycle(4))) == 3
    assert len(max_induced_threshold(path(6))) == 4


def test_max_induced_threshold_matches_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, 6)
        ours = max_induced_threshold(g)
        best = max(
            (
                len(s)
                for size in range(g.n + 1)
                for s in combinations(range(g.n), size)
                if is_threshold_bruteforce(g.induced(s))
            ),
            default=0,
        )
        assert len(ours) == best
        assert is_threshold_bruteforce(g.induced(ours))


def test_max_induced_threshold_limit():
    with pytest.raises(TooLarge):
        max_induced_threshold(empty(13))
