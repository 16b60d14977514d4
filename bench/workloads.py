"""The benchmark's three workloads.

Constructing a workload builds its inputs from the seed; that is the timed
set-up.  ``run_round`` performs one round of user-level operations and
returns their latencies and outputs.  ``check`` compares a round's outputs
with the computations in ``checks``, which share no code with tropigraph, and
``summary`` reduces them to plain data so later rounds can be compared with
the first.  ``attribute`` runs in the traced run only: it calls the public
parts of the same work one by one, each in its own span.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter

import checks
from checks import MAX_PLUS, MIN_PLUS, require

# The cover corpus is pinned: every seed measures the same graphs.
CORPUS_SEED = 7


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


@dataclass
class Round:
    """One round's operations, listed in the same order in every round."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    outputs: list = field(default_factory=list)
    wall: float = 0.0

    def op(self, elapsed: float, ok: bool = True) -> None:
        self.latencies.append(elapsed)
        self.failed += not ok


def _verify_witnesses(tg, tracer, g, result) -> list[bool]:
    valid = []
    for witness in (result.witness_min_plus, result.witness_max_plus):
        with tracer.span("verify.witness_verify"):
            valid.append(tg.verify(g, witness).valid)
    return valid


def _check_dimensions(label, doc: dict, valid: list[bool], n: int, edges, expected=None, parts=True) -> None:
    """Both witnesses have the reported dimensions and realize the graph; values match when expected."""
    if expected is not None:
        require(doc["method"] == "exact", f"{label}: method {doc['method']!r}, expected exact")
        got = (doc["rho_min_plus"], doc["rho_max_plus"])
        require(got == expected, f"{label}: rho (min, max) = {got}, independent value {expected}")
    require(valid == [True, True], f"{label}: verify rejected a witness: {valid}")
    if parts:
        checks.check_witness(doc["witness_min_plus"], MIN_PLUS, doc["rho_min_plus"], n, edges, label)
        checks.check_witness(doc["witness_max_plus"], MAX_PLUS, doc["rho_max_plus"], n, edges, label)
    else:
        for key, algebra in (("witness_min_plus", MIN_PLUS), ("witness_max_plus", MAX_PLUS)):
            rep = doc[key]
            require(rep["algebra"] == algebra and rep["dim"] == doc[key.replace("witness", "rho")],
                    f"{label}: {key} does not have the reported dimension")
            require(checks.realized_edges(rep) == set(edges), f"{label}: {key} does not realize the graph")


def attribute_rho(tg, tracer, g, limit, edge_limit, counts) -> None:
    """Time the public parts of rho on g, one span each, and count cover sizes decided."""
    with tracer.span("graphs.complement"):
        comp = g.complement()
    for h in (g, comp):
        with tracer.span("threshold.is_threshold"):
            tg.is_threshold(h)
    with tracer.span("threshold.theta"):
        cover = tg.theta(g, limit, edge_limit)
    with tracer.span("threshold.theta_hat"):
        inter = tg.theta_hat(g, limit, edge_limit)
    lows = []
    for h in (g, comp):
        with tracer.span("threshold.theta_bounds"):
            lows.append(tg.theta_bounds(h)[0])
        with tracer.span("graphs.alpha"):
            tg.alpha(h)
    with tracer.span("threshold.validate_cover"):
        tg.validate_cover(g, cover.cover)
        tg.validate_cover(g, inter.cover)
    with tracer.span("representations.from_cover"):
        tg.maxplus_from_cover(g, cover.cover)
        tg.minplus_from_intersection(g, inter.cover)
    counts["solves"] += 2
    counts["decisions"] += (cover.value - lows[0] + 1) + (inter.value - lows[1] + 1)


# -- verify-reps ---------------------------------------------------------------------------


@dataclass
class _Case:
    label: str
    n: int
    edges: set
    valid: dict
    corrupt: dict
    graph_path: str
    valid_path: str
    corrupt_path: str


class VerifyReps:
    """The verify and slices commands, in process through tropigraph.cli.main.

    Inputs: dimension-n generic min-plus and max-plus representations of
    G(n, 1/2) graphs, and low-dimension representations of a caterpillar
    forest (2), a cycle (3) and a complete multipartite graph with four
    non-singleton parts (4), all relabelled at random.  Each has a corrupted
    copy with the vectors of two vertices of different neighbourhoods
    swapped, so a known, non-empty set of pairs crosses the threshold.
    """

    name = "verify-reps"

    def __init__(self, tg, cli, seed: int, workdir: Path, generic_n: int = 48, structured_n: int = 150):
        self.tg, self.cli = tg, cli
        rng = random.Random(seed)
        n = structured_n
        built = []
        for label, build in (("generic-min", tg.minplus_generic), ("generic-max", tg.maxplus_generic)):
            g = tg.Graph(generic_n, [e for e in combinations(range(generic_n), 2) if rng.random() < 0.5])
            built.append((label, g, build(g)))
        forest = self._forest(rng, n).relabel(rng.sample(range(n), n))
        built.append(("caterpillar", forest, tg.caterpillar_rep_for_graph(forest)))
        ring = tg.cycle(n).relabel(rng.sample(range(n), n))
        built.append(("cycle", ring, tg.cycle_rep_for_graph(ring)))
        cuts = sorted(rng.sample(range(1, n - 3 - 8), 3))
        sizes = [b - a + 2 for a, b in zip([0] + cuts, cuts + [n - 3 - 8])] + [1, 1, 1]
        parts = tg.complete_multipartite(sizes).relabel(rng.sample(range(n), n))
        built.append(("multipartite", parts, tg.multipartite_rep_for_graph(parts)))
        self.cases = []
        for label, g, rep in built:
            valid = rep.to_json()
            corrupt = self._swap(valid, g, rng)
            paths = [str(workdir / f"{label}{suffix}") for suffix in (".g6", ".json", "-corrupt.json")]
            for path, text in zip(paths, (tg.to_graph6(g), json.dumps(valid), json.dumps(corrupt))):
                with open(path, "w") as handle:
                    handle.write(text)
            self.cases.append(_Case(label, g.n, set(g.edges), valid, corrupt, *paths))

    def _forest(self, rng: random.Random, total: int):
        trees = []
        left = total
        while left:
            spine = min(rng.randint(4, 12), left)
            room = left - spine
            leaves = []
            for pos in range(1, spine + 1):
                count = min(rng.randint(0, 2), room)
                room -= count
                leaves.append((pos, count))
            spec = self.tg.CaterpillarSpec(spine, tuple(leaves))
            trees.append(self.tg.caterpillar(spec))
            left -= spec.total_vertices
        return self.tg.disjoint_union(trees)

    @staticmethod
    def _swap(doc: dict, g, rng: random.Random) -> dict:
        while True:
            u, w = sorted(rng.sample(range(g.n), 2))
            if g.adjacency_mask(u) & ~(1 << w) != g.adjacency_mask(w) & ~(1 << u):
                break
        vectors = dict(doc["vectors"])
        vectors[str(u)], vectors[str(w)] = vectors[str(w)], vectors[str(u)]
        return {**doc, "vectors": vectors}

    def _command(self, tracer, argv: list[str]) -> tuple[int, str, float]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), tracer.span("cli.main"):
            start = perf_counter()
            rc = self.cli.main(argv)
            elapsed = perf_counter() - start
        return rc, buffer.getvalue(), elapsed

    def run_round(self, tracer) -> Round:
        r = Round()
        for case in self.cases:
            for label, path in ((case.label, case.valid_path), (case.label + "-corrupt", case.corrupt_path)):
                rc, text, elapsed = self._command(tracer, ["verify", "--graph", case.graph_path, "--rep", path])
                r.op(elapsed)
                r.outputs.append(("verify", label, rc, text))
            rc, text, elapsed = self._command(tracer, ["slices", "--rep", case.valid_path])
            r.op(elapsed)
            r.outputs.append(("slices", case.label, rc, text))
        return r

    def summary(self, outputs) -> list:
        return outputs

    def check(self, outputs) -> None:
        expected = [(c, kind, doc) for c in self.cases
                    for kind, doc in (("verify", c.valid), ("verify", c.corrupt), ("slices", c.valid))]
        require(len(outputs) == len(expected), f"{len(outputs)} command outputs, expected {len(expected)}")
        for (case, kind, doc), (command, label, rc, text) in zip(expected, outputs):
            out = json.loads(text)
            if kind == "verify":
                checks.check_verify_report(out, rc, doc, case.edges, label)
                require(out["valid"] == (doc is case.valid), f"{label}: valid={out['valid']}")
            else:
                require(rc == 0, f"{label}: slices exit code {rc}")
                checks.check_slices_output(out, doc, case.edges, label)

    def attribute(self, tracer, outputs, counts) -> None:
        tg = self.tg
        for case in self.cases:
            with tracer.span("bench.cli_direct"):
                with tracer.span("graphs.parse_graph6"):
                    with open(case.graph_path) as handle:
                        g = tg.parse_graph6(handle.read())
                for path, span in ((case.valid_path, "verify.verify_valid"), (case.corrupt_path, "verify.verify_corrupt")):
                    rep = self._load(tracer, path)
                    with tracer.span(span):
                        report = tg.verify(g, rep)
                    json.dumps(report.to_json(), indent=2)
            with tracer.span("bench.cli_direct"):
                rep = self._load(tracer, case.valid_path)
                with tracer.span("verify.slices"):
                    slices = tg.project_slices(rep)
                with tracer.span("verify.realize"):
                    realized = tg.realize_graph(rep.vectors, rep.t, rep.algebra)
                combined = slices[0]
                for part in slices[1:]:
                    combined = combined.union(part) if rep.algebra is tg.MAX_PLUS else combined.intersection(part)
                json.dumps({"slices": [tg.to_graph6(s) for s in slices], "realized": tg.to_graph6(realized),
                            "law_holds": combined == realized}, indent=2)
            with tracer.span("tropical.trop_dot"):
                for u, v in combinations(range(rep.n), 2):
                    tg.trop_dot(rep.vectors[u], rep.vectors[v], rep.algebra)

    def _load(self, tracer, path: str):
        with open(path) as handle:
            data = json.load(handle)
        with tracer.span("representations.from_json"):
            return self.tg.Representation.from_json(data)


# -- cover-corpus ----------------------------------------------------------------------------


class CoverCorpus:
    """Both exact dimensions by rho, with the exact-search size gates lifted.

    The corpus is G(n, p) drawn from random.Random(7) for n = 8, 9, 10 and
    p = 0.3, 0.5, four graphs per cell, in that order; the seed only shuffles
    the order of the calls.  Relabelling is left out on purpose: the cover
    search's time depends on the vertex labels by more than ten times.  The
    two default-argument calls on path(40) and cycle(33) fail today with
    TooLarge and count as failed operations.
    """

    name = "cover-corpus"

    def __init__(self, tg, cli, seed: int, workdir: Path, sizes=range(8, 11), per_cell: int = 4):
        self.tg = tg
        draw = random.Random(CORPUS_SEED)
        self.graphs = []
        for n in sizes:
            for p in (0.3, 0.5):
                for i in range(per_cell):
                    edges = {e for e in combinations(range(n), 2) if draw.random() < p}
                    self.graphs.append((f"G({n},{p})#{i}", n, edges, tg.Graph(n, edges)))
        random.Random(seed).shuffle(self.graphs)
        self.defaults = [("path(40)", tg.path(40)), ("cycle(33)", tg.cycle(33))]
        self._expected: dict[str, tuple[int, int]] = {}

    def run_round(self, tracer) -> Round:
        tg = self.tg
        r = Round()
        solved = []
        for label, n, _, g in self.graphs:
            with tracer.span("verify.rho"):
                start = perf_counter()
                result = tg.rho(g, n, _pairs(n))
                r.op(perf_counter() - start)
            solved.append((label, g, result))
        for label, g in self.defaults:
            start = perf_counter()
            try:
                with tracer.span("verify.rho"):
                    result = tg.rho(g)
            except tg.TooLarge as exc:
                r.op(perf_counter() - start, ok=False)
                solved.append((label, g, f"TooLarge: {exc}"))
                continue
            r.op(perf_counter() - start)
            solved.append((label, g, result))
        r.outputs = [(label, result, None if isinstance(result, str) else _verify_witnesses(tg, tracer, g, result))
                     for label, g, result in solved]
        return r

    def summary(self, outputs) -> list:
        return [(label, result if isinstance(result, str) else result.to_json(), valid)
                for label, result, valid in outputs]

    def check(self, outputs) -> None:
        require(len(outputs) == len(self.graphs) + len(self.defaults), f"{len(outputs)} rho results")
        for (label, n, edges, _), (got_label, result, valid) in zip(self.graphs, outputs):
            require(got_label == label and not isinstance(result, str), f"{label}: {result}")
            if label not in self._expected:
                self._expected[label] = checks.dimensions(n, edges)
            _check_dimensions(label, result.to_json(), valid, n, edges, self._expected[label])
        for (label, g), (_, result, valid) in zip(self.defaults, outputs[len(self.graphs):]):
            if not isinstance(result, str):
                _check_dimensions(label, result.to_json(), valid, g.n, set(g.edges), parts=False)

    def attribute(self, tracer, outputs, counts) -> None:
        for _, n, _, g in self.graphs:
            attribute_rho(self.tg, tracer, g, n, _pairs(n), counts)


# -- class-sweep --------------------------------------------------------------------------------


class ClassSweep:
    """The sweep check_conjecture would run at n_max = 7 if its cap allowed it.

    check_conjecture(6), then nonisomorphic_graphs(7), then rho on each of
    the 1044 classes in a seeded order, with both witnesses verified.  Each
    step of the enumeration generator is timed as one operation.  The
    classes keep their canonical labels, as in check_conjecture: relabelling
    them moves the sweep's rho time between 2 s and 4 s, since single cover
    searches then range up to 2.6 s.
    """

    name = "class-sweep"

    def __init__(self, tg, cli, seed: int, workdir: Path, n_max: int = 7):
        self.tg = tg
        self.n_max = n_max
        count = checks.A000088[n_max]
        self.order = random.Random(seed).sample(range(count), count)
        self._expected: dict[tuple[int, frozenset], tuple[int, int]] = {}

    def run_round(self, tracer) -> Round:
        tg = self.tg
        r = Round()
        with tracer.span("verify.check_conjecture"):
            start = perf_counter()
            report = tg.check_conjecture(self.n_max - 1)
            r.op(perf_counter() - start)
        classes = []
        with tracer.span("verify.enumerate"):
            steps = tg.nonisomorphic_graphs(self.n_max)
            while True:
                start = perf_counter()
                g = next(steps, None)
                r.op(perf_counter() - start)
                if g is None:
                    break
                classes.append(g)
        solved = []
        for idx in self.order:
            if idx >= len(classes):
                continue
            with tracer.span("verify.rho"):
                start = perf_counter()
                result = tg.rho(classes[idx])
                r.op(perf_counter() - start)
            solved.append((idx, result))
        sweep = [(idx, result, _verify_witnesses(tg, tracer, classes[idx], result)) for idx, result in solved]
        r.outputs = [report, classes, sweep]
        return r

    def summary(self, outputs) -> list:
        report, classes, sweep = outputs
        return [report.to_json(), [sorted(g.edges) for g in classes],
                [(idx, result.to_json(), valid) for idx, result, valid in sweep]]

    def _dimensions(self, n: int, edges) -> tuple[int, int]:
        key = (n, frozenset(edges))
        if key not in self._expected:
            self._expected[key] = checks.dimensions(n, edges)
        return self._expected[key]

    def check(self, outputs) -> None:
        report, classes, sweep = outputs
        by_n: dict[int, list] = {}
        for entry in report.entries:
            n, edges = checks.decode_graph6(entry.graph6)
            require(n == entry.n, f"entry {entry.graph6} says n={entry.n}")
            got = (entry.rho_min_plus, entry.rho_max_plus)
            want = self._dimensions(n, edges)
            require(got == want, f"check_conjecture {entry.graph6}: rho {got}, independent {want}")
            by_n.setdefault(n, []).append((n, edges, got))
        strict = {e.graph6 for e in report.entries if e.rho_min_plus < e.rho_max_plus}
        reverse = {e.graph6 for e in report.entries if e.rho_min_plus > e.rho_max_plus}
        require(set(report.strict_instances) == strict and len(report.strict_instances) == len(strict),
                "check_conjecture strict instances disagree with its entries")
        require(set(report.counterexamples) == reverse and len(report.counterexamples) == len(reverse),
                "check_conjecture reverse instances disagree with its entries")
        classes_n = [(g.n, set(g.edges)) for g in classes]
        require(all(n == self.n_max for n, _ in classes_n), f"a class of nonisomorphic_graphs({self.n_max}) has another size")
        by_n[self.n_max] = [(n, edges, None) for n, edges in classes_n]
        for n in range(1, self.n_max + 1):
            graphs = by_n.get(n, [])
            require(len(graphs) == checks.A000088[n],
                    f"{len(graphs)} classes on {n} vertices, A000088 gives {checks.A000088[n]}")
            checks.check_distinct_classes([(m, edges) for m, edges, _ in graphs], f"n={n}")
            if n < self.n_max:
                pairs = [got for _, _, got in graphs]
                require(sum(a < b for a, b in pairs) == sum(a > b for a, b in pairs),
                        f"n={n}: strict and reverse instances differ in number")
        require(sorted(idx for idx, *_ in sweep) == list(range(len(self.order))),
                f"the sweep covered {len(sweep)} of {len(self.order)} classes")
        pairs = []
        for idx, result, valid in sweep:
            n, edges = classes_n[idx]
            doc = result.to_json()
            label = f"class {idx} on {n} vertices"
            _check_dimensions(label, doc, valid, n, edges, self._dimensions(n, edges))
            pairs.append((doc["rho_min_plus"], doc["rho_max_plus"]))
        require(sum(a < b for a, b in pairs) == sum(a > b for a, b in pairs),
                f"n={self.n_max}: strict and reverse instances differ in number")

    def attribute(self, tracer, outputs, counts) -> None:
        classes = outputs[1]
        for idx, _, _ in outputs[2]:
            attribute_rho(self.tg, tracer, classes[idx], None, None, counts)


WORKLOADS = {w.name: w for w in (VerifyReps, CoverCorpus, ClassSweep)}
