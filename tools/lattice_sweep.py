"""Time one gauge-invariance trial of em and of check2d as the lattice
grows, or whole lattice tasks under three allocation histories.

    PYTHONPATH=src python tools/lattice_sweep.py [--repeat 5] [--seed 0]
    PYTHONPATH=src python tools/lattice_sweep.py --tasks [--repeat 5] [--seed 0]

An em trial is what `noether em` does per trial: a seeded random potential
and parameter, the action before and the action after the gauge transform,
both written into one pair of pattern slots held across the trials, as the
command's trial loop holds it; so that its phases are timed apart, it
draws both fields before the first action.  It runs on n^4 lattices,
n = 8 .. 20, all axes h:1 ("uniform") or the mixed h/q axes h:0.5, q:1.1,
h:1, q:1.15 ("mixed").  A check2d trial is what `noether check2d` does per
trial with curl2 and grad2: a seeded parameter and the action of the
transformed fields, in held slots too, on h:1 x q:(1 + 3/k) grids of k^2
points, k = 100 .. 600.  Each line prints the size, the best wall time of
--repeat trials after one untimed warm-up, the best time of each of its
three phases (drawing the fields, the gauge transform and the actions),
and the median count of minor page faults (ru_minflt) that one trial took,
as one JSON object per line.

--tasks runs the five lattice-4d tasks of bench/workloads.py (the em and
check2d command lines at --seed, through cli.main) instead.  Each task runs
--repeat times in a fresh (spawned) process under each of three histories:
"alone" (the task after itself), "after-check2d" (each round runs the
other check2d tasks first) and "first" (each round runs the task first and
then the other four, so that its first round is the first task of the
process).  Each line gives the history, the task, the wall time and
ru_minflt of its first round, and the median wall time and the median and
largest ru_minflt of the later rounds.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tsnoether as tn

HISTORIES = ("alone", "after-check2d", "first")


def em_lattice(kind: str, n: int) -> tn.GridD:
    if kind == "uniform":
        return tn.GridD(tuple(tn.h_uniform(1.0, 0.0, n - 1.0) for _ in range(4)))
    return tn.GridD(
        (
            tn.h_uniform(0.5, 0.0, 0.5 * (n - 1)),
            tn.q_geometric(1.1, 1.0, n),
            tn.h_uniform(1.0, 0.0, n - 1.0),
            tn.q_geometric(1.15, 0.5, n),
        )
    )


def em_trial(grid: tn.GridD, seed: int):
    fam = tn.em_gauge_family(grid)
    slots: list = []

    def trial(t: int) -> dict:
        start = time.perf_counter()
        A = tn.random_em_field(grid, seed=[seed, 1, t])
        p = tn.random_polynomial_field(grid, seed=[seed, 2, t])
        drawn = time.perf_counter()
        moved = tn.transform_d(fam, -p, A)
        transformed = time.perf_counter()
        tn.em_functional(A, _slots=slots)
        tn.em_functional(moved, _slots=slots)
        return phases(start, drawn, transformed, time.perf_counter())

    return trial


def check2d_trial(k: int, seed: int):
    grid = tn.GridD((tn.h_uniform(1.0, 0.0, k - 1.0), tn.q_geometric(1 + 3 / k, 1.0, k)))
    L = tn.catalog2d("curl2")
    fam = tn.GaugeFamilyD(grid, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    u = tuple(tn.random_polynomial_field(grid, seed=[seed, 7 + c]) for c in range(L.n))
    slots: list = []

    def trial(t: int) -> dict:
        start = time.perf_counter()
        p = tn.random_polynomial_field(grid, seed=[seed, t], amplitude=0.1)
        drawn = time.perf_counter()
        moved = tn.transform_d(fam, p, u)
        transformed = time.perf_counter()
        tn.functional_d(L, moved, _slots=slots)
        return phases(start, drawn, transformed, time.perf_counter())

    return trial


def phases(start: float, drawn: float, transformed: float, end: float) -> dict:
    """The wall time of a trial and of its three phases."""
    return {"trial_s": end - start, "fields_s": drawn - start, "transform_s": transformed - drawn,
            "action_s": end - transformed}


def measure(trial, repeat: int) -> dict:
    trial(repeat)
    times, faults = [], []
    for t in range(repeat):
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        times.append(trial(t))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    row = {key: round(min(t[key] for t in times), 5) for key in times[0]}
    row["minflt"] = statistics.median(faults)
    return row


def lattice_tasks(seed: int) -> dict:
    """The benchmark's lattice-4d tasks at its default size, by name."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import lattice_4d

    return {task.name: task for task in lattice_4d(seed, Path(tempfile.gettempdir()))}


def history_rounds(history: str, name: str, seed: int, rounds: int) -> dict:
    """Run one task `rounds` times under one history in this process."""
    tasks = lattice_tasks(seed)
    others = [t for n, t in tasks.items() if n != name]
    before = [t for t in others if t.name.startswith("check2d/")] if history == "after-check2d" else []
    after = others if history == "first" else []
    times, faults = [], []
    for _ in range(rounds):
        for task in before:
            task.run()
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = tasks[name].run()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
        problem = tasks[name].check(result)
        if problem:
            raise RuntimeError(f"{name}: {problem}")
        for task in after:
            task.run()
    row = {"history": history, "task": name, "first_s": round(times[0], 4), "first_minflt": faults[0]}
    if rounds > 1:
        row.update(
            later_s=round(statistics.median(times[1:]), 4),
            later_minflt=statistics.median(faults[1:]),
            later_minflt_max=max(faults[1:]),
        )
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tasks", action="store_true", help="time the lattice-4d tasks under three histories")
    args = parser.parse_args()
    if args.tasks:
        spawn = multiprocessing.get_context("spawn")
        for history in HISTORIES:
            for name in lattice_tasks(args.seed):
                with spawn.Pool(1) as fresh:
                    row = fresh.apply(history_rounds, (history, name, args.seed, args.repeat))
                print(json.dumps(row), flush=True)
        return
    for kind in ("uniform", "mixed"):
        for n in (8, 12, 16, 20):
            row = {"task": f"em/{kind}", "n": n, "cells": n**4}
            row.update(measure(em_trial(em_lattice(kind, n), args.seed), args.repeat))
            print(json.dumps(row), flush=True)
    for k in (100, 200, 300, 400, 500, 600):
        row = {"task": "check2d/grad2/hq", "k": k, "points": k * k}
        row.update(measure(check2d_trial(k, args.seed), args.repeat))
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
