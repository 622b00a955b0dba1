"""The package's modules import one another without a cycle, so each of
them can be the first one a program imports, and the solver layer
imports nothing above it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motion_lsmd

SRC = Path(motion_lsmd.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))


def import_graph():
    """{module: the package modules it imports}, read from the source:
    every relative import in it, except those under ``if TYPE_CHECKING:``,
    which never run."""
    graph = {}
    for name in MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        deps = set()
        for node in tree.body:
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom) and sub.level == 1:
                    deps.update([sub.module] if sub.module else [a.name for a in sub.names])
        graph[name] = deps & set(MODULES)
    return graph


def find_cycle(graph):
    """One import cycle as a list of modules, first one repeated at the
    end, or None."""
    state = dict.fromkeys(graph, "new")
    path = []

    def visit(name):
        state[name] = "open"
        path.append(name)
        for dep in sorted(graph[name]):
            if state[dep] == "open":
                return path[path.index(dep):] + [dep]
            if state[dep] == "new":
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        state[name] = "done"
        return None

    for name in sorted(graph):
        if state[name] == "new":
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def test_import_graph_has_no_cycle():
    graph = import_graph()
    assert graph["ingest"] and graph["cli"]  # the reader sees the imports
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_lsmd_imports_only_errors():
    # the decomposition takes plain arrays, so it needs no frame or
    # proposal type from ingest
    assert import_graph()["lsmd"] == {"errors"}


def test_find_cycle_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", f"import motion_lsmd.{module}"], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
