"""The package runs on the standard library alone: networkx is for the
tests and the benchmark, never imported by ``src/toroidal``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PAYLOADS_BY_CASE = Path(__file__).resolve().parent / "data" / "payloads_by_case.json"


def _imported_modules(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_no_module_imports_networkx():
    modules = sorted((SRC / "toroidal").glob("*.py"))
    assert modules
    assert [p.name for p in modules if "networkx" in _imported_modules(p)] == []


def test_decide_runs_with_networkx_blocked():
    # importing networkx raises ImportError once its sys.modules entry is None
    pinned = json.loads(PAYLOADS_BY_CASE.read_text(encoding="utf-8"))
    script = (
        "import runpy, sys\n"
        "sys.modules['networkx'] = None\n"
        "sys.argv = ['toroidal', 'decide', '--format', 'graph6', '--json']\n"
        "runpy.run_module('toroidal', run_name='__main__')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        input="".join(entry["graph6"] + "\n" for entry in pinned.values()),
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 2, done.stderr  # one graph is NotInClass
    got = json.loads(done.stdout)
    assert [{k: v for k, v in e.items() if k != "input"} for e in got] == [
        entry["payload"] for entry in pinned.values()
    ]
