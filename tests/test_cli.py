"""End-to-end command-line behavior, including exit codes and round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropigraph
from tropigraph import (
    Representation,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    parse_graph6,
    path,
    to_edge_list,
    to_graph6,
    verify,
)
from tropigraph.cli import _METHODS, main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph6_bit_exact(capsys):
    code, out, _ = run_cli(capsys, ["gen", "--family", "path", "--params", "6"])
    assert code == 0
    assert out.strip() == to_graph6(path(6))
    assert parse_graph6(out) == path(6)


def test_gen_edges_format(capsys):
    code, out, _ = run_cli(
        capsys, ["gen", "--family", "cycle", "--params", "4", "--format", "edges"]
    )
    assert code == 0
    assert out.strip() == to_edge_list(cycle(4)).strip()


def test_gen_bad_family_exits_2(capsys):
    code, _, err = run_cli(capsys, ["gen", "--family", "hypercube", "--params", "3"])
    assert code == 2
    assert "error:" in err and err.count("\n") == 1


def test_gen_dim_pipeline(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["gen", "--family", "path", "--params", "6"])
    g6 = out.strip()
    code, out, _ = run_cli(capsys, ["dim"], stdin=g6, monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["rho_min_plus"] == 2 and data["rho_max_plus"] == 3
    assert data["method"] == "exact"


# A graph that each repr method's construction applies to.  The round-trip
# cases come from the method table, so a method added there without a graph
# here fails at collection.
_METHOD_GRAPH = {
    "generic": path(6),
    "caterpillar": path(6),
    "cover": path(6),
    "intersection": path(6),
    "cycle3": cycle(6),
    "multipartite": complete_multipartite([2, 3]),
}


@pytest.mark.parametrize(
    "graph,algebra,method",
    [(_METHOD_GRAPH[m], a, m) for m, builders in _METHODS.items() for a in builders]
    + [(cycle(4), "min", "intersection"), (cycle(4), "max", "cover")],
)
def test_repr_verify_round_trip(capsys, monkeypatch, tmp_path, graph, algebra, method):
    g6 = to_graph6(graph)
    code, out, _ = run_cli(
        capsys,
        ["repr", "--algebra", algebra, "--method", method],
        stdin=g6,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    rep = Representation.from_json(json.loads(out))
    assert verify(graph, rep).valid

    graph_file = tmp_path / "g.g6"
    rep_file = tmp_path / "rep.json"
    graph_file.write_text(g6 + "\n")
    rep_file.write_text(out)
    code, out, _ = run_cli(
        capsys, ["verify", "--graph", str(graph_file), "--rep", str(rep_file)]
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_repr_rescales_to_requested_t(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["repr", "--algebra", "min", "--method", "caterpillar", "--t", "5/2"],
        stdin=to_graph6(path(4)),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    data = json.loads(out)
    assert data["t"] == "5/2"
    assert verify(path(4), Representation.from_json(data)).valid


def test_repr_algebra_method_mismatch_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["repr", "--algebra", "max", "--method", "caterpillar"],
        stdin=to_graph6(path(4)),
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "method,algebra",
    [(m, a) for m, builders in _METHODS.items() for a in ("min", "max") if a not in builders],
)
def test_repr_unsupported_algebra_exits_2(capsys, monkeypatch, method, algebra):
    code, out, err = run_cli(
        capsys,
        ["repr", "--algebra", algebra, "--method", method],
        stdin=to_graph6(_METHOD_GRAPH[method]),
        monkeypatch=monkeypatch,
    )
    supported = sorted(_METHODS[method])
    assert (code, out) == (2, "")
    assert err == f"error: method {method!r} supports algebra {supported}, got {algebra!r}\n"


def test_verify_detects_mismatch_exit_1(capsys, tmp_path, monkeypatch):
    code, rep_json, _ = run_cli(
        capsys,
        ["repr", "--algebra", "min", "--method", "generic"],
        stdin=to_graph6(path(4)),
        monkeypatch=monkeypatch,
    )
    graph_file = tmp_path / "g.g6"
    rep_file = tmp_path / "rep.json"
    graph_file.write_text(to_graph6(cycle(4)) + "\n")
    rep_file.write_text(rep_json)
    code, out, _ = run_cli(
        capsys, ["verify", "--graph", str(graph_file), "--rep", str(rep_file)]
    )
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False and data["violations"]


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        ["verify", "--graph", str(tmp_path / "nope"), "--rep", str(tmp_path / "nope2")],
    )
    assert code == 2 and "error:" in err


def test_slices_command(capsys, monkeypatch, tmp_path):
    cases = (("max", "cover", "union", 3), ("min", "generic", "intersection", 6))
    for algebra, method, law, dim in cases:
        code, rep_json, _ = run_cli(
            capsys,
            ["repr", "--algebra", algebra, "--method", method],
            stdin=to_graph6(path(6)),
            monkeypatch=monkeypatch,
        )
        rep_file = tmp_path / "rep.json"
        rep_file.write_text(rep_json)
        code, out, _ = run_cli(capsys, ["slices", "--rep", str(rep_file)])
        assert code == 0
        data = json.loads(out)
        assert data["law"] == law and data["law_holds"] is True
        assert len(data["slices"]) == dim
        assert parse_graph6(data["realized"]) == path(6)


def test_dim_reports_bounds_past_the_limit(capsys, monkeypatch):
    # four disjoint triangles: cover number 4, but 12 vertices is past the
    # default exact limit, so only bounds (4, 8) come back
    g = disjoint_union([complete(3)] * 4)
    code, out, _ = run_cli(capsys, ["dim"], stdin=to_graph6(g), monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "bounds"
    assert data["max_plus_bounds"] == [4, 8]
    assert data["rho_max_plus"] == 8

    # raising the vertex limit makes the max-plus side exact (the min-plus
    # side still exceeds the edge guard on the dense complement)
    code, out, _ = run_cli(
        capsys,
        ["dim", "--exact-limit", "12"],
        stdin=to_graph6(g),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    data = json.loads(out)
    assert data["rho_max_plus"] == 4
    assert data["max_plus_bounds"] == [4, 4]


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, ["conjecture", "--n-max", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["classes_checked"] == 18
    assert data["counterexamples"] == []


def test_demo_students(capsys):
    code, out, _ = run_cli(capsys, ["demo", "students"])
    assert code == 0
    assert "AC AF BE CD EF" in out
    assert "{B, E}" in out and "{A, F}" in out and "{C, D}" in out


def test_demo_funds(capsys):
    code, out, _ = run_cli(capsys, ["demo", "funds"])
    assert code == 0
    assert "{A, E}" in out
    assert "Diverse pick: {A, E}" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["repr", "--method", "generic"])  # missing --algebra
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["gen", "--family", "path", "--params", "6"], ["conjecture", "--n-max", "4"]]
)
def test_closed_stdout_exits_quietly(argv):
    # the reader is gone before anything is written, as with `| head` on a
    # long output: no traceback, no "error:" line, exit status 141
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(tropigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tropigraph.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
