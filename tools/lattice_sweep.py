"""Time one gauge-invariance trial of em and of check2d as the lattice
grows, or whole lattice tasks under three allocation histories.

    PYTHONPATH=src python tools/lattice_sweep.py [--repeat 5] [--seed 0]
    PYTHONPATH=src python tools/lattice_sweep.py --tasks [--repeat 5] [--seed 0]
    python tools/lattice_sweep.py --ab TREE_A TREE_B [--repeat 15] [--seed 0]

An em trial is what `noether em` does per trial: a seeded random potential
and parameter, the action before and the action after the gauge transform,
both written into the grid's one pattern workspace, which every trial on
the grid reuses as the command's trial loop does; so that its phases are
timed apart, it draws both fields before the first action.  It runs on n^4
lattices, n = 8 .. 20, all axes h:1 ("uniform") or the mixed h/q axes
h:0.5, q:1.1, h:1, q:1.15 ("mixed").  A check2d trial is what `noether
check2d` does per trial with curl2 and grad2: a seeded parameter and the
action of the transformed fields, in the grid's workspace too, on h:1 x
q:(1 + 3/k) grids of k^2 points, k = 100 .. 600.  Each line prints the
size, the best wall time of --repeat trials after one untimed warm-up, the
best time of each of its three phases (drawing the fields, the gauge
transform and the actions), and the median count of minor page faults
(ru_minflt) that one trial took, as one JSON object per line.

--ab runs the same trials on two source trees in one process, each tree's
src/tsnoether imported under its own package name as tools/ab.py imports
it.  At each size the two sides alternate trial by trial, A then B, then B
then A, after one untimed warm-up each, so that host drift between sizes
or runs reaches both alike; a sweep of one tree after another can read a
drift as a change.  Each line prints the size, each side's best trial time
and, per phase, the median over the --repeat pairs of B's time over A's.
A tree whose actions took the workspace as an argument (before the grid
owned it) makes a fresh pair for every action here, as this tool passes
none; compare across that change with tools/ab.py, which runs whole
commands.

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

HISTORIES = ("alone", "after-check2d", "first")


def em_lattice(tn, kind: str, n: int):
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


def em_trial(tn, grid, seed: int):
    fam = tn.em_gauge_family(grid)

    def trial(t: int) -> dict:
        start = time.perf_counter()
        A = tn.random_em_field(grid, seed=[seed, 1, t])
        p = tn.random_polynomial_field(grid, seed=[seed, 2, t])
        drawn = time.perf_counter()
        moved = tn.transform_d(fam, -p, A)
        transformed = time.perf_counter()
        tn.em_functional(A)
        tn.em_functional(moved)
        return phases(start, drawn, transformed, time.perf_counter())

    return trial


def check2d_trial(tn, k: int, seed: int):
    grid = tn.GridD((tn.h_uniform(1.0, 0.0, k - 1.0), tn.q_geometric(1 + 3 / k, 1.0, k)))
    L = tn.catalog2d("curl2")
    fam = tn.GaugeFamilyD(grid, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    u = tuple(tn.random_polynomial_field(grid, seed=[seed, 7 + c]) for c in range(L.n))

    def trial(t: int) -> dict:
        start = time.perf_counter()
        p = tn.random_polynomial_field(grid, seed=[seed, t], amplitude=0.1)
        drawn = time.perf_counter()
        moved = tn.transform_d(fam, p, u)
        transformed = time.perf_counter()
        tn.functional_d(L, moved)
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


def sweep(tn):
    """(task, size key, size, cells, trial maker) for every swept size; the
    maker takes the seed and gives a trial on tn's classes."""
    for kind in ("uniform", "mixed"):
        for n in (8, 12, 16, 20):
            yield f"em/{kind}", "n", n, n**4, lambda seed, kind=kind, n=n: em_trial(tn, em_lattice(tn, kind, n), seed)
    for k in (100, 200, 300, 400, 500, 600):
        yield "check2d/grad2/hq", "k", k, k * k, lambda seed, k=k: check2d_trial(tn, k, seed)


def measure_ab(trials, repeat: int) -> dict:
    """Both sides' best trial times and, per phase, the median of the
    per-pair ratios B/A, the sides alternating in order pair by pair."""
    for trial in trials:
        trial(repeat)
    times: tuple[list, list] = ([], [])
    for t in range(repeat):
        for side in (0, 1) if t % 2 == 0 else (1, 0):
            times[side].append(trials[side](t))
    row = {f"{side}_trial_s": round(min(t["trial_s"] for t in times[i]), 5) for i, side in enumerate("ab")}
    for key in times[0][0]:
        ratio = statistics.median(b[key] / a[key] for a, b in zip(*times))
        row[f"{key.removesuffix('_s')}_ratio"] = round(ratio, 3)
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
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--tasks", action="store_true", help="time the lattice-4d tasks under three histories")
    modes.add_argument("--ab", nargs=2, metavar=("TREE_A", "TREE_B"), help="compare two source trees in one process")
    args = parser.parse_args()
    if args.ab:
        from ab import load_package

        sides = [sweep(load_package(tree, f"tsnoether_{side}")) for tree, side in zip(args.ab, "ab")]
        for (task, key, size, cells, make_a), (*_, make_b) in zip(*sides):
            row = {"task": task, key: size, "cells" if key == "n" else "points": cells}
            row.update(measure_ab((make_a(args.seed), make_b(args.seed)), args.repeat))
            print(json.dumps(row), flush=True)
        return
    if args.tasks:
        spawn = multiprocessing.get_context("spawn")
        for history in HISTORIES:
            for name in lattice_tasks(args.seed):
                with spawn.Pool(1) as fresh:
                    row = fresh.apply(history_rounds, (history, name, args.seed, args.repeat))
                print(json.dumps(row), flush=True)
        return
    import tsnoether

    for task, key, size, cells, make in sweep(tsnoether):
        row = {"task": task, key: size, "cells" if key == "n" else "points": cells}
        row.update(measure(make(args.seed), args.repeat))
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
