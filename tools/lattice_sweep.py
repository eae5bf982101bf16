"""Time one gauge-invariance trial of em and of check2d as the lattice grows.

    PYTHONPATH=src python tools/lattice_sweep.py [--repeat 5] [--seed 0]

An em trial is what `noether em` does per trial: a seeded random potential
and parameter, the action before and the action after the gauge transform.
It runs on n^4 lattices, n = 8 .. 20, all axes h:1 ("uniform") or the mixed
h/q axes h:0.5, q:1.1, h:1, q:1.15 ("mixed").  A check2d trial is what
`noether check2d` does per trial with curl2 and grad2: a seeded parameter
and the action of the transformed fields, on h:1 x q:(1 + 3/k) grids of
k^2 points, k = 100 .. 600.  Each line prints the size, the best wall time
of --repeat trials after one untimed warm-up, and the median count of
minor page faults (ru_minflt) that one trial took, as one JSON object per
line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import tsnoether as tn


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

    def trial(t: int) -> None:
        A = tn.random_em_field(grid, seed=[seed, 1, t])
        p = tn.random_polynomial_field(grid, seed=[seed, 2, t])
        tn.em_functional(A)
        tn.em_functional(tn.transform_d(fam, -p, A))

    return trial


def check2d_trial(k: int, seed: int):
    grid = tn.GridD((tn.h_uniform(1.0, 0.0, k - 1.0), tn.q_geometric(1 + 3 / k, 1.0, k)))
    L = tn.catalog2d("curl2")
    fam = tn.GaugeFamilyD(grid, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    u = tuple(tn.random_polynomial_field(grid, seed=[seed, 7 + c]) for c in range(L.n))

    def trial(t: int) -> None:
        p = tn.random_polynomial_field(grid, seed=[seed, t], amplitude=0.1)
        tn.functional_d(L, tn.transform_d(fam, p, u))

    return trial


def measure(trial, repeat: int) -> dict:
    trial(repeat)
    times, faults = [], []
    for t in range(repeat):
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        trial(t)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    return {"trial_s": round(min(times), 5), "minflt": statistics.median(faults)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
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
