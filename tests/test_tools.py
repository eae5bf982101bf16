"""Smoke tests of the timing tools that no other test runs: each is imported
by path and takes one small measurement, so that a library change that
breaks a tool's calls fails here, not on its next use by hand."""

import ast
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import tsnoether as tn

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"{name}_under_test", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_sweep_runs_one_size():
    sweep = load_tool("solve_sweep")
    row = sweep.run(tn.real_approx(1 / 159, 0.0, 1.0), 1)
    assert set(row) == {"N", "solve_s", "tracemalloc_peak_mb", "residual", "dv_samples"}
    assert row["N"] == 160 and row["residual"] <= 1e-9 and row["dv_samples"] > 0


def test_ab_reading_prints_both_traced_peaks(monkeypatch):
    ab = load_tool("ab")
    monkeypatch.setattr(ab, "PAIRS", 2)
    try:
        line, identical = ab.reading([str(ROOT), str(ROOT)], ["em", "--trials", "2"])
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in ("tsnoether_a", "tsnoether_b")]:
            del sys.modules[name]
    assert identical and line.endswith("stdout identical: yes")
    peaks = re.search(r"traced peak A ([0-9.]+) MiB, B ([0-9.]+) MiB; ", line)
    assert peaks and all(float(x) > 0 for x in peaks.groups())


@pytest.mark.parametrize("doc", ["README.md", "ROADMAP.md"])
def test_documents_name_only_tools_that_exist(doc):
    """A retired tool leaves the documents with its file.  CHANGES.md and
    the BENCH_*.json records are history, which may name a tool that git
    history alone still holds, and are not read."""
    named = set(re.findall(r"tools/(\w+)\.py", (ROOT / doc).read_text()))
    assert named and {name for name in named if not (TOOLS / f"{name}.py").is_file()} == set()


def test_mutant_record_is_replayable():
    """Every mutant in MUTANTS.json can be replayed: its old text occurs
    exactly once in its file, and each test it lists names a file that
    exists and, after each ::, a class or function defined in the scope
    before it.  tools/mutants.py meets a stale text only in the middle of a
    replay, and an id that matches no test only after it has copied the
    tree.  When this fails, retarget the mutant's text or ids; do not drop
    the mutant."""
    trees = {}
    for m in json.loads((ROOT / "MUTANTS.json").read_text())["mutants"]:
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        for test in m["tests"]:
            path, *names = test.split("::")
            assert (ROOT / path).is_file(), (m["id"], test)
            if path not in trees:
                trees[path] = ast.parse((ROOT / path).read_text())
            scope = trees[path]
            for name in names:
                scope = next((node for node in scope.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                              and node.name == name.split("[")[0]), None)
                assert scope is not None, (m["id"], test)
