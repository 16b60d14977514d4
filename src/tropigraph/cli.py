"""Command-line interface.

Graphs travel on stdin/stdout in graph6 or edge-list form; representations
and reports are JSON documents tagged with "schema": "tropigraph/1".
Exit codes: 0 success / verified, 1 verification found violations, 2 usage
or input errors (one-line diagnostic on stderr), 141 stdout closed by its
reader before the output was written (silent, like a process ended by
SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce

from .demos import fund_overlap, student_pairing
from .errors import BadParameter, TropigraphError
from .graphs import generate, parse_edge_list, parse_graph6, to_edge_list, to_graph6
from .representations import (
    Representation,
    caterpillar_rep_for_graph,
    cycle_rep_for_graph,
    from_cover,
    maxplus_generic,
    minplus_generic,
    multipartite_rep_for_graph,
    rescale,
)
from .threshold import theta, theta_hat
from .tropical import MAX_PLUS, as_fraction
from .verify import check_conjecture, project_slices, realize_graph, rho, verify


def _read_graph(text: str, fmt: str):
    return parse_graph6(text) if fmt == "graph6" else parse_edge_list(text)


def _write_graph(g, fmt: str) -> str:
    return to_graph6(g) if fmt == "graph6" else to_edge_list(g).rstrip("\n")


def _load_rep(path: str) -> Representation:
    with open(path) as handle:
        return Representation.from_json(json.load(handle))


def _cmd_gen(args) -> int:
    g = generate(args.family, args.params)
    print(_write_graph(g, args.format))
    return 0


# --method name -> algebra -> builder(graph, t, exact_limit).  A builder may
# return another threshold; _cmd_repr rescales the result to t.
_METHODS = {
    "generic": {
        "min": lambda g, t, limit: minplus_generic(g, t),
        "max": lambda g, t, limit: maxplus_generic(g, t),
    },
    "caterpillar": {"min": lambda g, t, limit: caterpillar_rep_for_graph(g)},
    "cover": {"max": lambda g, t, limit: from_cover(g, theta(g, limit).cover, t)},
    "intersection": {"min": lambda g, t, limit: from_cover(g, theta_hat(g, limit).cover, t)},
    "cycle3": {"min": lambda g, t, limit: cycle_rep_for_graph(g)},
    "multipartite": {"min": lambda g, t, limit: multipartite_rep_for_graph(g)},
}


def _cmd_repr(args) -> int:
    builders = _METHODS[args.method]
    if args.algebra not in builders:
        raise BadParameter(
            f"method {args.method!r} supports algebra {sorted(builders)}, got {args.algebra!r}"
        )
    g = _read_graph(sys.stdin.read(), args.format)
    t = as_fraction(args.t)
    rep = builders[args.algebra](g, t, args.exact_limit)
    if rep.t != t:
        rep = rescale(rep, t)
    print(json.dumps(rep.to_json(), indent=2))
    return 0


def _cmd_dim(args) -> int:
    g = _read_graph(sys.stdin.read(), args.format)
    result = rho(g, args.exact_limit)
    print(json.dumps(result.to_json(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    with open(args.graph) as handle:
        g = _read_graph(handle.read(), args.format)
    rep = _load_rep(args.rep)
    report = verify(g, rep)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.valid else 1


def _cmd_slices(args) -> int:
    rep = _load_rep(args.rep)
    slices = project_slices(rep)
    realized = realize_graph(rep.vectors, rep.t, rep.algebra)
    law, fold = ("union", int.__or__) if rep.algebra is MAX_PLUS else ("intersection", int.__and__)
    vertices = realized.vertices()
    combined = [reduce(fold, (s.adjacency_mask(v) for s in slices)) for v in vertices]
    print(
        json.dumps(
            {
                "schema": "tropigraph/1",
                "slices": [to_graph6(s) for s in slices],
                "realized": to_graph6(realized),
                "law": law,
                "law_holds": combined == [realized.adjacency_mask(v) for v in vertices],
            },
            indent=2,
        )
    )
    return 0


def _cmd_conjecture(args) -> int:
    report = check_conjecture(args.n_max)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_demo(args) -> int:
    if args.which == "students":
        data = student_pairing()
        print("Student skill ratings (4 areas), min-plus, threshold "
              f"{data['threshold']}:")
        for name in data["names"]:
            print(f"  {name}: {list(data['vectors'][name])}")
        print("Pairs with combined competency >= threshold in every area:")
        print("  edges:", " ".join(a + b for a, b in data["edges"]))
        print("Suggested pairing (lowest-degree first):",
              ", ".join("{%s, %s}" % p for p in data["pairs"]))
    else:
        data = fund_overlap()
        print("Mutual fund holdings (5 securities), max-plus, threshold "
              f"{data['threshold']}:")
        for name in data["names"]:
            print(f"  {name}: {list(data['vectors'][name])}")
        print("Funds sharing at least one holding:")
        print("  edges:", " ".join(a + b for a, b in data["edges"]))
        sets = ", ".join("{" + ", ".join(s) + "}" for s in data["max_independent_sets"])
        print("Maximum independent sets (fully diverse choices):", sets)
        print("Diverse pick: {%s}" % ", ".join(data["diverse_pick"]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropigraph",
        description="Tropical dot-product representations of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["graph6", "edges"], default="graph6")

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", default=[])
    add_format(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("repr", help="build a representation for the graph on stdin")
    p.add_argument("--algebra", choices=["min", "max"], required=True)
    p.add_argument("--method", choices=sorted(_METHODS), required=True)
    p.add_argument("--t", default="1")
    p.add_argument("--exact-limit", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_repr)

    p = sub.add_parser("dim", help="compute both tropical dimensions of the graph on stdin")
    p.add_argument("--exact-limit", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("verify", help="verify a representation file against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--rep", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("slices", help="project a representation into threshold slices")
    p.add_argument("--rep", required=True)
    p.set_defaults(func=_cmd_slices)

    p = sub.add_parser("conjecture", help="sweep dimension pairs over all small graphs")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("demo", help="run a bundled application demo")
    p.add_argument("which", choices=["students", "funds"])
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`).  Point stdout at devnull
        # so that the interpreter's final flush stays quiet as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TropigraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
