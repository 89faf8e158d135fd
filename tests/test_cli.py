import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toroidal import Graph, builtin, decide_toroidal, to_edge_list_text, to_graph6
from toroidal.cli import main

from conftest import SPLITS_G1_TO_G4, g3_with_k4s

SPLITS_JSON = Path(__file__).resolve().parent / "data" / "splits_g1_g4.json"
REPORTS_JSON = Path(__file__).resolve().parent / "data" / "obstruction_reports.json"


def stdin_of(data):
    """A stand-in for sys.stdin holding ``data``, text or bytes; the CLI
    reads its bytes through ``buffer``."""
    raw = data.encode() if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_builtin_names(capsys):
    code, out, _ = run(capsys, "decide", "--name", "K5", "--name", "G4")
    assert code == 0
    assert "K5: Toroidal Case-i" in out
    assert "G4: NonToroidal FailedMCase" in out


def test_decide_not_in_class_exit_code(capsys):
    code, out, _ = run(capsys, "decide", "--name", "K3,3")
    assert code == 2
    assert "NotInClass" in out


def test_decide_edge_list_file(tmp_path, capsys):
    path = tmp_path / "k5.txt"
    path.write_text(to_edge_list_text(Graph.complete(5)))
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0 and "Toroidal Case-i" in out


def test_decide_multiple_graphs_blank_line_separated(tmp_path, capsys):
    text = to_edge_list_text(Graph.complete(4)) + "\n" + to_edge_list_text(
        Graph.complete(5)
    )
    path = tmp_path / "two.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0
    assert out.count("Toroidal") == 2


def test_decide_graph6_lines(tmp_path, capsys):
    path = tmp_path / "batch.g6"
    path.write_text(
        to_graph6(Graph.complete(5)) + "\n" + to_graph6(Graph.complete(4)) + "\n"
    )
    code, out, _ = run(capsys, "decide", str(path), "--format", "graph6")
    assert code == 0 and out.count("Toroidal") == 2


def test_decide_garbage_input_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 1 and "input error" in err


def test_decide_json_round_trips(capsys):
    code, out, _ = run(capsys, "decide", "--name", "K5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "Toroidal"
    assert payload[0]["case"] == "Case-i"
    assert json.loads(json.dumps(payload)) == payload


def test_decide_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "decide", "--name", "G3", "--json")
    code2, out2, _ = run(capsys, "decide", "--name", "G3", "--json")
    assert (code1, out1) == (code2, out2)


def test_verify_obstructions_minor(capsys):
    code, out, _ = run(capsys, "verify-obstructions", "--kind", "minor")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_obstructions_json(capsys):
    code, out, _ = run(capsys, "verify-obstructions", "--kind", "minor", "--json")
    payload = json.loads(out)
    assert payload["failures"] == []
    assert set(payload["reports"]) == {"G1", "G2", "G3", "G4"}


@pytest.mark.parametrize("kind", ["minor", "topological"])
def test_verify_obstructions_json_is_pinned(capsys, kind):
    # the stored reports are the output of the walk that decided every edge
    code, out, _ = run(capsys, "verify-obstructions", "--kind", kind, "--json")
    assert code == 0
    pinned = json.loads(REPORTS_JSON.read_text())[kind]
    assert out == json.dumps(pinned, indent=2, sort_keys=True) + "\n"


def test_splits_with_k5_seed_is_empty(capsys):
    code, out, _ = run(capsys, "splits", "--seeds", "K5", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_splits_default_seeds_print_the_pinned_lines():
    # through ``python -m toroidal``, with the package on the current path;
    # the stored file is the output of the search that labeled every child
    done = subprocess.run(
        [sys.executable, "-m", "toroidal", "splits", "--json"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert json.loads(done.stdout) == {"count": 11, "graphs": SPLITS_G1_TO_G4}
    assert done.stdout == SPLITS_JSON.read_text()


@pytest.mark.parametrize(
    "argv", [["splits"], ["decide", "--name", "K5", "--json"]], ids=["splits", "decide"]
)
def test_closed_stdout_exits_quietly(argv):
    # the reader of stdout is gone before the first write: exit 141, as a
    # shell reports SIGPIPE, with no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "toroidal", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_genus_k5(capsys):
    code, out, _ = run(capsys, "genus", "--name", "K5")
    assert code == 0 and "genus = 1" in out


def test_genus_g1(capsys):
    code, out, _ = run(capsys, "genus", "--name", "G1")
    assert code == 0 and "genus = 2" in out


def test_genus_count_torus(capsys):
    code, out, _ = run(capsys, "genus", "--name", "K5", "--count-torus")
    assert code == 0 and "torus_embeddings = 6" in out


def test_genus_budget_refusal_exit_three(capsys):
    code, _, err = run(capsys, "genus", "--name", "M")
    assert code == 3 and "budget" in err


def test_genus_budget_option_refuses(capsys):
    code, _, err = run(capsys, "genus", "--name", "K5", "--budget", "10")
    assert code == 3 and err.startswith("K5: budget refusal: ")


def test_genus_negative_budget_is_an_input_error(capsys):
    code, _, err = run(capsys, "genus", "--name", "K5", "--budget", "-1")
    assert code == 1 and err.startswith("K5: input error: ")


def test_genus_batch_survives_budget_refusal(tmp_path, capsys):
    # K4, then K8: the latter's 6!**8 rotation systems exceed the budget
    path = tmp_path / "batch.g6"
    path.write_text("C~\nG~~~~{\n")
    argv = ("genus", str(path), "--format", "graph6", "--budget", "100000")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload[0] == {"input": f"{path}:0", "genus": 0}
    assert payload[1]["input"] == f"{path}:1" and "budget" in payload[1]["error"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == f"{path}:0: genus = 0\n"
    assert f"{path}:1: budget refusal" in err


def test_genus_batch_survives_unparsable_line(tmp_path, capsys):
    path = tmp_path / "batch.g6"
    path.write_text("DhC\nnot-graph6!!\nC~\n")
    # M is refused against the budget; the unparsable line outranks it
    argv = ("genus", "--name", "M", str(path), "--format", "graph6")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    payload = json.loads(out)
    assert [p["input"] for p in payload] == ["M"] + [f"{path}:{i}" for i in range(3)]
    assert "budget" in payload[0]["error"]
    assert payload[1]["genus"] == 0 and payload[3]["genus"] == 0
    assert "error" in payload[2] and "genus" not in payload[2]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == f"{path}:0: genus = 0\n{path}:2: genus = 0\n"
    assert "M: budget refusal" in err and f"{path}:1: input error" in err


def test_isomorphic_names(capsys):
    code, out, _ = run(capsys, "isomorphic", "K5", "K5")
    assert code == 0 and out.strip() == "true"


def test_isomorphic_file_vs_name(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(Graph.complete(5)))
    code, out, _ = run(capsys, "isomorphic", str(path), "K5")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "isomorphic", str(path), "M")
    assert out.strip() == "false"


def test_isomorphic_on_cycles_longer_than_the_recursion_limit(tmp_path, capsys):
    n = 1500
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(to_edge_list_text(Graph.cycle(n)))
    b.write_text(to_edge_list_text(Graph.cycle(n).relabeled({i: (7 * i) % n for i in range(n)})))
    code, out, _ = run(capsys, "isomorphic", str(a), str(b))
    assert code == 0 and out == "true\n"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(to_edge_list_text(Graph.complete(4))))
    code, out, _ = run(capsys, "decide")
    assert code == 0 and "AllPlanarBlocks" in out


def test_decide_batch_survives_one_input_error(tmp_path, capsys):
    # the second edge-list chunk has a self-loop; the K5 before it must
    # still get its verdict
    path = tmp_path / "batch.txt"
    path.write_text(to_edge_list_text(Graph.complete(5)) + "\n3 2\n0 0\n1 2\n")
    code, out, err = run(capsys, "decide", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert [p["input"] for p in payload] == [f"{path}:0", f"{path}:1"]
    assert payload[0]["status"] == "Toroidal"
    assert "self-loop" in payload[1]["error"] and "status" not in payload[1]
    code, out, err = run(capsys, "decide", str(path))
    assert code == 1
    assert f"{path}:0: Toroidal Case-i" in out
    assert f"{path}:1: input error" in err


@pytest.mark.parametrize("separator", ["  ", "\t", " \t "], ids=["spaces", "tab", "mixed"])
def test_decide_batch_split_on_whitespace_only_line(capsys, monkeypatch, separator):
    text = f"3 1\n0 1\n{separator}\n3 1\n1 2\n"
    monkeypatch.setattr("sys.stdin", stdin_of(text))
    code, out, err = run(capsys, "decide", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert [p["input"] for p in payload] == ["stdin:0", "stdin:1"]
    assert all(p["case"] == "AllPlanarBlocks" for p in payload)


def test_decide_negative_vertex_count_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of("-2 0\n"))
    code, out, _ = run(capsys, "decide", "--json")
    assert code == 1
    (payload,) = json.loads(out)
    assert "negative vertex count" in payload["error"] and "status" not in payload


def test_decide_huge_vertex_count_is_an_input_error(capsys, monkeypatch):
    from toroidal import graphs

    def refuse(*args):
        raise AssertionError("a graph was built")

    # the header asks for about 300 GB: refuse it before any graph is built
    monkeypatch.setattr(graphs, "Graph", refuse)
    monkeypatch.setattr("sys.stdin", stdin_of("1000000000 0\n"))
    code, out, _ = run(capsys, "decide", "--json")
    assert code == 1
    (payload,) = json.loads(out)
    assert "258047" in payload["error"] and "status" not in payload


def _k5_then_g3_with_k4s(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text(
        to_edge_list_text(Graph.complete(5)) + "\n" + to_edge_list_text(g3_with_k4s())
    )
    return path


def test_decide_batch_past_sixteen_vertices(tmp_path, capsys):
    path = _k5_then_g3_with_k4s(tmp_path)
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0
    assert out == f"{path}:0: Toroidal Case-i\n{path}:1: NonToroidal NoValidM\n"


def test_decide_batch_needs_no_search_budget(tmp_path, capsys, monkeypatch):
    # no decision searches, so a search budget of 0 refuses nothing: G4's
    # Case iii reads its pinned TK5 off the scan
    from toroidal import subdivisions

    monkeypatch.setattr(subdivisions, "SEARCH_BUDGET", 0)
    path = tmp_path / "batch.txt"
    path.write_text(
        to_edge_list_text(Graph.complete(5)) + "\n" + to_edge_list_text(builtin("G4"))
    )
    code, out, err = run(capsys, "decide", str(path), "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload[0] == {"input": f"{path}:0", **decide_toroidal(Graph.complete(5)).to_payload()}
    assert payload[1] == {"input": f"{path}:1", **decide_toroidal(builtin("G4")).to_payload()}
    code, out, err = run(capsys, "decide", str(path))
    assert code == 0 and err == ""
    assert out == f"{path}:0: Toroidal Case-i\n{path}:1: NonToroidal FailedMCase\n"


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (("verify-obstructions", "--kind", "minor"), "all 4 minor obstructions verified"),
        (("splits", "--seeds", "G4"), "count: "),
    ],
    ids=["verify-obstructions", "splits"],
)
def test_obstruction_commands_need_no_search_budget(capsys, monkeypatch, argv, last_line):
    from toroidal import subdivisions

    monkeypatch.setattr(subdivisions, "SEARCH_BUDGET", 0)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith(last_line)


def test_input_error_exit_one(capsys, tmp_path):
    for argv in (["splits", "--seeds", "nope"], ["isomorphic", str(tmp_path / "absent"), "K5"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("input error: ")


NOT_UTF8 = b"\xff\xfe\x00bad\n"


@pytest.mark.parametrize("command", [["decide"], ["isomorphic", "K5"]], ids=["decide", "isomorphic"])
def test_a_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, *command[:1], str(path), *command[1:])
    assert code == 1 and out == ""
    assert err.startswith(f"input error: cannot read {path}: ") and "utf-8" in err


def test_stdin_that_is_not_utf8_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_of(NOT_UTF8))
    code, out, err = run(capsys, "decide")
    assert code == 1 and out == "" and err.startswith("input error: cannot read stdin: ")


def test_stdin_that_is_not_utf8_is_refused_under_the_c_locale():
    # in a real process: under the C locale sys.stdin decodes with
    # surrogateescape, so the bytes must be decoded by the CLI itself
    done = subprocess.run(
        [sys.executable, "-m", "toroidal", "decide"],
        input=NOT_UTF8, capture_output=True,
        env={**os.environ, "LC_ALL": "C", "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    err = done.stderr.decode()
    assert done.returncode == 1 and done.stdout == b""
    assert err.startswith("input error: cannot read stdin: ") and "utf-8" in err
    assert "Traceback" not in err


def test_decide_graph6_batch_survives_unparsable_line(tmp_path, capsys):
    path = tmp_path / "batch.g6"
    path.write_text("DhC\nnot-graph6!!\n")
    code, out, _ = run(capsys, "decide", str(path), "--format", "graph6", "--json")
    assert code == 1
    payload = json.loads(out)
    assert [p["input"] for p in payload] == [f"{path}:0", f"{path}:1"]
    assert "status" in payload[0]
    assert "error" in payload[1] and "status" not in payload[1]
    code, out, err = run(capsys, "decide", str(path), "--format", "graph6")
    assert code == 1
    assert out.startswith(f"{path}:0: ")
    assert f"{path}:1: input error" in err
