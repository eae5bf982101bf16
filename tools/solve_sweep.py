"""Time solve_extremal on the quartic 1/2 v^2 + 1/4 u^4 as the grid grows.

    PYTHONPATH=src python tools/solve_sweep.py [--repeat 2] [--big]

The density is vectorized (n = 1) with analytic partials, and the boundary
data are y(a) = 0 and y(b) = 1.  The default sweep runs on
real:1/(N-1):0:1 for N = 160 .. 2560; --big adds N = 10^4 and 10^5 at step
0.01.  Each line prints N, the best wall time of --repeat solves, the
tracemalloc peak of one more solve, the Euler-Lagrange residual of the
solution and the number of L_v samples that solve took, as one JSON object
per line.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc

import numpy as np

import tsnoether as tn


def quartic(calls: list[int]) -> tn.Lagrangian:
    def d_v(t, U, V):
        calls[0] += 1
        return V.copy()

    return tn.Lagrangian(
        n=1,
        eval=lambda t, U, V: 0.5 * V[:, 0] ** 2 + 0.25 * U[:, 0] ** 4,
        d_t=lambda t, U, V: np.zeros(len(t)),
        d_u=lambda t, U, V: U**3,
        d_v=d_v,
        vectorized=True,
    )


def run(ts: tn.TimeScale, repeat: int) -> dict:
    calls = [0]
    L = quartic(calls)
    bd = tn.BoundaryData([0.0], [1.0])
    best = np.inf
    for _ in range(repeat):
        start = time.perf_counter()
        y = tn.solve_extremal(L, ts, bd)
        best = min(best, time.perf_counter() - start)
    residual = tn.el_residual(L, y).sup_norm
    calls[0] = 0
    tracemalloc.start()
    tn.solve_extremal(L, ts, bd)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "N": len(ts),
        "solve_s": round(best, 5),
        "tracemalloc_peak_mb": round(peak / 2**20, 2),
        "residual": residual,
        "dv_samples": calls[0],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=2)
    parser.add_argument("--big", action="store_true", help="add N = 10^4 and 10^5 at step 0.01")
    args = parser.parse_args()
    scales = [tn.real_approx(1 / (N - 1), 0.0, 1.0) for N in (160, 320, 640, 1280, 2560)]
    if args.big:
        scales += [tn.real_approx(0.01, 0.0, 0.01 * (N - 1)) for N in (10**4, 10**5)]
    for ts in scales:
        print(json.dumps(run(ts, args.repeat)), flush=True)


if __name__ == "__main__":
    main()
