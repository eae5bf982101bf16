"""Tests of the benchmark itself.

    python -m pytest bench/tests

They check that a seed fixes the tasks, verdicts and per-layer counts,
that another seed changes the inputs, that tracing leaves the library as
it found it, and that BENCHMARK.json names what the runner prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as runner  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import tsnoether  # noqa: E402
import workloads  # noqa: E402

SMALL = {"verify-1d": 60, "solve-1d": 0.1, "lattice-4d": 6}
COUNT_UNITS = ("count", "bytes", "calls/point")


def traced_round(name: str, seed: int, work: Path):
    """Specs, per-task outcomes, count metrics and accounting gap of one
    traced round at a small size."""
    tasks = workloads.WORKLOADS[name].build(seed, work, SMALL[name])
    untraced = {r["name"]: r["s"] for r in runner.run_round(tasks)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for task in tasks:
            for L in task.lagrangians:
                tracer.count_densities(L)
        records = runner.run_round(tasks, tracer, "round")
    finally:
        tracer.remove()
    metrics, gap = tracer.metrics(tracer.group("round"), untraced, [])
    counts = {m: metrics[m] for m, unit in tracing.PER_LAYER if unit in COUNT_UNITS}
    outcomes = [(r["name"], r["error"], bool(r["known_defect"])) for r in records]
    return [t.spec for t in tasks], outcomes, counts, gap


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_tasks_verdicts_and_counts(name, tmp_path):
    first = traced_round(name, 7, tmp_path)
    second = traced_round(name, 7, tmp_path)
    assert first[:3] == second[:3]
    assert first[3] < 1e-9 and second[3] < 1e-9
    assert not [o for o in first[1] if o[1] and not o[2]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_every_input(name, tmp_path):
    build = workloads.WORKLOADS[name].build
    specs0 = [t.spec for t in build(0, tmp_path, SMALL[name])]
    specs1 = [t.spec for t in build(1, tmp_path, SMALL[name])]
    assert len(specs0) == len(specs1)
    assert all(a != b for a, b in zip(specs0, specs1))


def _bindings():
    """Every attribute of every tsnoether module and of the classes they
    define, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "tsnoether" and not modname.startswith("tsnoether."):
            continue
        for attr, obj in vars(mod).items():
            out[(modname, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == modname:
                for cattr, cobj in vars(obj).items():
                    out[(modname, attr, cattr)] = cobj
    return out


def test_tracing_leaves_no_trace(tmp_path):
    tasks = workloads.WORKLOADS["solve-1d"].build(0, tmp_path, SMALL["solve-1d"])
    lagrangians = [L for t in tasks for L in t.lagrangians]
    fields = [(L, dict(vars(L))) for L in lagrangians]
    before = _bindings()
    original = tsnoether.variational.el_expressions
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The binding noether imported is wrapped along with the original.
        assert tsnoether.noether.el_expressions is tsnoether.variational.el_expressions
        assert tsnoether.noether.el_expressions is not original
        assert _is_wrapper(vars(tsnoether.ResidualReport)["from_per_point"])
        for L in lagrangians:
            tracer.count_densities(L)
        runner.run_round(tasks, tracer, "round")
    finally:
        tracer.remove()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert not any(_is_wrapper(v) for v in after.values())
    for L, saved in fields:
        assert all(vars(L)[k] is v for k, v in saved.items())
    assert tracer.tasks and tracer.spans


def test_untraced_rounds_install_nothing(tmp_path):
    tasks = workloads.WORKLOADS["verify-1d"].build(0, tmp_path, SMALL["verify-1d"])
    before = _bindings()
    runner.run_round(tasks)
    after = _bindings()
    assert all(before[k] is after[k] for k in before)
    assert not any(_is_wrapper(v) for v in after.values())


def _is_wrapper(obj) -> bool:
    fn = getattr(obj, "__func__", obj)  # staticmethods hold the function
    return isinstance(fn, types.FunctionType) and fn.__code__.co_name == "traced"


def test_probe_divides_out_the_slowdown():
    probe = speed.Probe({"python": 1.0, "arrays": 0.5})
    slowdown = probe()
    assert slowdown > 0 and probe.samples == [slowdown]
    assert probe.scale(3.0, 1.0, 2.0) == 2.0


def test_end_to_end_reads_median_scaled_times():
    def record(name, scaled_s):
        return {"name": name, "points": 10, "s": 99.0, "scaled_s": scaled_s, "error": None, "known_defect": None}

    records = [record("a", s) for s in (1.0, 2.0, 9.0)] + [record("b", s) for s in (4.0, 4.0, 4.0)]
    metrics, extra = runner.end_to_end(records, setup_s=0.5)
    assert extra["task_scaled_s"] == {"a": 2.0, "b": 4.0}
    assert metrics["task_s.p50"] == 3.0
    assert metrics["points_per_s"] == 60 / 18.0
    assert metrics["setup_s"] == 0.5


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-1d", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
