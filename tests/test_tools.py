"""Smoke tests of the timing tools that no other test runs: each is imported
by path and takes one small measurement, so that a library change that
breaks a tool's calls fails here, not on its next use by hand."""

import importlib.util
from pathlib import Path

import pytest

import tsnoether as tn

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"{name}_under_test", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "make",
    [lambda sweep: sweep.em_trial(tn, sweep.em_lattice(tn, "mixed", 8), 0),
     lambda sweep: sweep.check2d_trial(tn, 100, 0)],
    ids=["em-n8", "check2d-k100"],
)
def test_lattice_sweep_measures_one_trial(make):
    sweep = load_tool("lattice_sweep")
    row = sweep.measure(make(sweep), 1)
    assert set(row) == {"trial_s", "fields_s", "transform_s", "action_s", "minflt"}
    assert all(row[key] >= 0 for key in row)


def test_solve_sweep_runs_one_size():
    sweep = load_tool("solve_sweep")
    row = sweep.run(tn.real_approx(1 / 159, 0.0, 1.0), 1)
    assert set(row) == {"N", "solve_s", "tracemalloc_peak_mb", "residual", "dv_samples"}
    assert row["N"] == 160 and row["residual"] <= 1e-9 and row["dv_samples"] > 0
