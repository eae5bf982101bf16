"""Seeded task lists for the benchmark workloads.

A workload is a fixed list of tasks that runs round after round.  A task
calls ``tsnoether.cli.main(argv)`` where the command line can express it
and a public library function otherwise.  Functions are looked up on their
module when the task runs, so the traced run's wrappers see every call.

Each task carries a check that compares its output with what the
mathematics says it must be: the verdict and exit code implied by an
exactly invariant family or a broken control, a closed-form extremal, or
an Euler-Lagrange residual evaluated here with numpy.  Checks run outside
the timed span.

All inputs derive from the workload seed; the library receives only the
generated argv strings, arrays and densities.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tsnoether as tn
from tsnoether import cli

EPS = float(np.finfo(float).eps)

# The defect behind the only tasks whose expected verdict the library gets
# wrong.  They are kept and counted in ``failed``; they alone do not make a
# run incorrect.
ITEM4_DEFECT = (
    "ROADMAP item 4: noether_identity uses an absolute 1e-9 tolerance, so the "
    "exact identity of (v0 - 0.7 v1)^2 fails from rounding on real:0.001:0:1"
)


@dataclass
class Task:
    """One unit of work in the closed loop.

    ``spec`` is everything the task hands the library (argv, or parameters
    and array digests), so two builds can be compared.  ``check`` returns
    None when the output is right and a reason otherwise.
    """

    name: str
    points: int
    spec: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None
    lagrangians: tuple = ()


@dataclass(frozen=True)
class Workload:
    """A task builder, its default size and the extra sizes of the traced
    sweep.  ``sweep`` holds (size, task-name predicate or None for all).
    ``round_s`` is the time of one round on the reference machine (2 vCPU
    Xeon); a run of S seconds makes ceil(S / round_s) rounds, so its sample
    count does not depend on how busy the machine is."""

    build: Callable[..., list]
    size: float
    sweep: tuple
    round_s: float


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _poly(*components) -> str:
    return ";".join(",".join(repr(float(c)) for c in comp) for comp in components)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _cli_task(name, argv, points, expect, extra=None, inputs=()) -> Task:
    """A CLI invocation whose every section must carry the verdict ``expect``
    ("pass" exits 0, "fail" exits 1).  Values that may start with a minus
    sign are passed as ``--option=value`` so argparse does not take them
    for options.  ``inputs`` adds to the spec what the argv only names, such
    as the content of a file."""
    argv = [str(a) for a in argv]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        want = 0 if expect == "pass" else 1
        if code != want:
            return f"exit code {code}, expected {want}: {err.strip()[:200]}"
        report = json.loads(out)
        wrong = [s["name"] for s in report["sections"] if s["verdict"] != expect]
        if report["verdict"] != expect or wrong:
            return f"sections {wrong} are not '{expect}'"
        return extra(report) if extra else None

    return Task(name, points, (*argv, *inputs), run, check)


def _signed(rng) -> float:
    """A coefficient of magnitude 0.25 to 1, so broken controls leave an
    order-one residual."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0))


# ---------------------------------------------------------------- verify-1d


def _scales_1d(n: int):
    """(kind, spec, points) for the three 1-D scale kinds at n points.

    The geometric ratio keeps the last point near e^5 at any n; the
    real-approx step is 1e-3, the step of the item-4 instance.
    """
    q = _fmt(1.0 + 5.0 / n)
    pts_q = np.concatenate(([1.0], np.cumprod(np.full(n - 1, float(q)))))
    return (
        ("h", f"h:1:0:{n - 1}", np.arange(n, dtype=float)),
        ("q", f"q:{q}:1:{n}", pts_q),
        ("real", f"real:0.001:0:{_fmt((n - 1) * 0.001)}", 0.001 * np.arange(n)),
    )


def _derivative_check(path: Path, coeffs, pts: np.ndarray):
    """d/dt of c0 + c1 t + c2 t^2 on any time scale is c1 + c2 (sigma(t) + t)."""

    def extra(_report):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t, d = data[:, 0], data[:, 1]
        m = t.size
        if m != pts.size - 1 or np.max(np.abs(t - pts[:m])) > 1e-9 * np.max(np.abs(pts)):
            return "derivative CSV rows do not sit on the scale points"
        exact = coeffs[1] + coeffs[2] * (pts[1:] + pts[:-1])
        y_max = np.max(np.abs(np.polynomial.polynomial.polyval(pts, coeffs)))
        bound = 16 * EPS * (y_max / np.min(np.diff(pts)) + np.max(np.abs(exact)))
        err = float(np.max(np.abs(d - exact)))
        return None if err <= bound else f"derivative off by {err:.3e} > {bound:.3e}"

    return extra


def _sup_near_one(report):
    sup = report["sections"][0]["sup_norm"]
    return None if abs(sup - 1.0) <= 1e-3 else f"Poisson residual of a linear path is {sup}, not 1"


def _item4_task(seed: int, amplitude: float) -> Task:
    """(v0 - 0.7 v1)^2 is exactly invariant under g = (0.7, 1), so its
    identity residual is zero up to rounding: a pass is expected.  The path
    is uniform noise of the given amplitude, as in the ROADMAP instance."""
    ts = tn.real_approx(0.001, 0.0, 1.0)
    L = tn.Lagrangian(n=2, eval=_pd07, d_t=_zero_t, d_u=_zero_u2, d_v=_pd07_dv)
    fam = tn.GaugeFamily.constant(ts, [[[0.7], [1.0]]])
    vals = np.random.default_rng([seed, 4]).uniform(-amplitude, amplitude, (len(ts), 2))
    y = tn.GridFunction(ts, 0, vals)

    def check(reports):
        bad = [r for r in reports if not r.verdict]
        if bad:
            return f"identity sup {bad[0].sup_norm:.3e} > tolerance {bad[0].tolerance:.0e}"
        return None

    return Task(
        f"identity-lib/pd07-x{amplitude:g}/real",
        len(ts),
        ("real:0.001:0:1", (0.7, 1.0), amplitude, _digest(vals)),
        lambda: tn.noether_identity(L, fam, y),
        check,
        known_defect=ITEM4_DEFECT,
        lagrangians=(L,),
    )


def _pd07(t, u, v):
    return float((v[0] - 0.7 * v[1]) ** 2)


def _pd07_dv(t, u, v):
    w = v[0] - 0.7 * v[1]
    return np.array([2.0 * w, -1.4 * w])


def _zero_t(t, u, v):
    return 0.0


def _zero_u2(t, u, v):
    return np.zeros(2)


def verify_1d(seed: int, work: Path, n: int = 10_000, only=None) -> list[Task]:
    """Invariance, identity and Euler-Lagrange checks on h-uniform,
    q-geometric and real-approx scales of n points, a derive -> el CSV pair
    per scale, and the two item-4 instances."""
    rng = np.random.default_rng([seed, 1])
    broken_time = work / "pairdiff-broken-time0.json"
    broken_time.write_text(json.dumps({"r": 1, "m": 0, "n": 2, "g": [[[1.1], [1.0]]], "f": [[0.0]]}))
    tasks = []
    for kind, spec, pts in _scales_1d(n):
        T = float(pts[-1])
        # y1 - y2 is a quadratic in t with a coefficient bounded away from
        # zero: invariant families cancel it exactly, broken ones do not.
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        y_poly = _poly((a[0], a[1], _signed(rng)), (b[0], b[1]))
        base = ["--scale", spec, "--lagrangian", "pair-difference", f"--y-poly={y_poly}", "--seed", seed]
        for cmd, family, expect in (
            ("check-invariance", "pairdiff", "pass"),
            ("check-invariance", "pairdiff-broken", "fail"),
            ("check-noether", "pairdiff", "pass"),
            ("check-noether", "pairdiff-broken", "fail"),
            ("check-noether-time", "pairdiff-time0", "pass"),
            ("check-noether-time", str(broken_time), "fail"),
        ):
            label = "pairdiff-broken-time0" if family == str(broken_time) else family
            tasks.append(_cli_task(f"{cmd}/{label}/{kind}", [cmd, "--family", family, *base], n, expect))
        # Dirichlet: a path linear in t is an extremal; a quadratic is not
        # (its Euler-Lagrange expression is -c2 (b1 + 1), of order one).
        lin = rng.uniform(-1, 1, 2) * [1.0, 1.0 / T]
        quad = (*rng.uniform(-1, 1, 2), _signed(rng))
        tasks.append(_cli_task(f"el/linear/{kind}", ["el", "--scale", spec, "--lagrangian", "dirichlet", f"--poly={_poly(lin)}"], n, "pass"))
        tasks.append(_cli_task(f"el/quadratic/{kind}", ["el", "--scale", spec, "--lagrangian", "dirichlet", f"--poly={_poly(quad)}"], n, "fail"))
        # derive writes the delta derivative of a quadratic, which is linear
        # in t.  el reads it back with the Poisson density, whose
        # Euler-Lagrange expression 1 - (y^delta)^delta is then exactly 1;
        # the derivative's own rounding, twice differenced, stays far below
        # the 1e-3 this allows.
        coeffs = rng.uniform(-1, 1, 3) * [1.0, 1.0 / T, 1.0 / T**2]
        csv = work / f"derivative-{kind}.csv"
        tasks.append(
            _cli_task(
                f"derive/quadratic/{kind}",
                ["derive", "--scale", spec, f"--poly={_poly(coeffs)}", "--result-csv", csv],
                n,
                "pass",
                _derivative_check(csv, coeffs, pts),
            )
        )
        argv = ["el", "--scale", spec, "--lagrangian", "poisson", "--csv", csv]
        tasks.append(_cli_task(f"el-csv/derivative/{kind}", argv, n - 1, "fail", _sup_near_one, (_poly(coeffs),)))
    tasks += [_item4_task(seed, 1.0), _item4_task(seed, 100.0)]
    return _select(tasks, only)


def _select(tasks, only):
    return tasks if only is None else [t for t in tasks if only(t.name)]


# ----------------------------------------------------------------- solve-1d

NEWTON_TOL = 1e-8  # solve_extremal's default, which the CLI also uses


def _quartic(t, u, v):
    return float(0.5 * v @ v + 0.25 * (u @ u) ** 2 + np.sin(t) * np.sum(u))


def _quartic_dt(t, u, v):
    return float(np.cos(t) * np.sum(u))


def _quartic_du(t, u, v):
    return (u @ u) * u + np.sin(t)


def _quartic_dv(t, u, v):
    return v.copy()


def _poisson_check(path: Path, pts: np.ndarray, b1: float, alpha: float, beta: float):
    """Delta^2 y = 1 on a scale with sigma(t) = b1 t + b0 has the solutions
    t^2 / (b1 + 1) + c1 t + c0; the boundary data fix c0 and c1."""

    def extra(_report):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t, y = data[:, 0], data[:, 1]
        a, b = pts[0], pts[-1]
        part = pts**2 / (b1 + 1.0)
        c1 = (beta - alpha - (part[-1] - part[0])) / (b - a)
        c0 = alpha - part[0] - c1 * a
        exact = part + c1 * pts + c0
        if t.size != pts.size or np.max(np.abs(t - pts)) > 1e-9 * np.max(np.abs(pts)):
            return "solution CSV rows do not sit on the scale points"
        # The discrete Green's function of Delta^2 is bounded by (b - a)^2 / 8.
        bound = (b - a) ** 2 * NEWTON_TOL + 64 * EPS * np.max(np.abs(exact))
        err = float(np.max(np.abs(y - exact)))
        return None if err <= bound else f"Poisson solution off by {err:.3e} > {bound:.3e}"

    return extra


def _quartic_check(pts: np.ndarray, alpha: float, beta: float):
    """Recompute the Euler-Lagrange residual u^3 + sin t - Delta v with
    numpy and bound it by the Newton tolerance."""

    def check(sol):
        y = sol.values[:, 0]
        if y[0] != alpha or y[-1] != beta:
            return "boundary values moved"
        mu = np.diff(pts)
        v = np.diff(y) / mu
        resid = y[1:-1] ** 3 + np.sin(pts[:-2]) - np.diff(v) / mu[:-1]
        bound = NEWTON_TOL + 64 * EPS * np.max(np.abs(v)) / np.min(mu)
        sup = float(np.max(np.abs(resid)))
        return None if sup <= bound else f"quartic residual {sup:.3e} > {bound:.3e}"

    return check


def _boundary(rng, centre) -> tuple[float, float]:
    """Boundary values within 0.01 of fixed centres.  Newton's step count
    then stays the same for every seed (4 to 7 steps, varying the task time
    by a third, when the values were drawn from [-1, 1])."""
    alpha, beta = np.asarray(centre) + rng.uniform(-0.01, 0.01, 2)
    return float(alpha), float(beta)


def solve_1d(seed: int, work: Path, factor: float = 1.0, only=None) -> list[Task]:
    """Poisson solves through the CLI (about 150 points) checked against the
    closed form, and quartic solves through the library (about 120 points)
    checked by their Euler-Lagrange residual, each on a uniform and a
    geometric scale."""
    rng = np.random.default_rng([seed, 2])
    n_p = max(5, round(150 * factor))
    n_q = max(5, round(120 * factor))
    tasks = []
    for kind, spec, pts, b1, centre in (
        ("h", f"h:0.01:0:{_fmt(0.01 * (n_p - 1))}", 0.01 * np.arange(n_p), 1.0, (0.3, -0.4)),
        ("q", f"q:1.01:1:{n_p}", 1.01 ** np.arange(n_p), 1.01, (-0.5, 0.2)),
    ):
        alpha, beta = _boundary(rng, centre)
        csv = work / f"poisson-{kind}.csv"
        argv = ["solve", "--scale", spec, "--lagrangian", "poisson", f"--alpha={alpha!r}", f"--beta={beta!r}", "--result-csv", csv]
        tasks.append(_cli_task(f"solve/poisson/{kind}", argv, n_p - 2, "pass", _poisson_check(csv, pts, b1, alpha, beta)))
    L = tn.Lagrangian(n=1, eval=_quartic, d_t=_quartic_dt, d_u=_quartic_du, d_v=_quartic_dv)
    for kind, ts, centre in (
        ("h", tn.h_uniform(0.05, 0.0, float(_fmt(0.05 * (n_q - 1)))), (0.5, -0.5)),
        ("q", tn.q_geometric(1.02, 1.0, n_q), (-0.3, 0.8)),
    ):
        alpha, beta = _boundary(rng, centre)
        bd = tn.BoundaryData([alpha], [beta])
        tasks.append(
            Task(
                f"solve-lib/quartic/{kind}",
                n_q - 2,
                (kind, n_q, alpha, beta),
                lambda L=L, ts=ts, bd=bd: tn.solve_extremal(L, ts, bd),
                _quartic_check(np.array(ts.points), alpha, beta),
                lagrangians=(L,),
            )
        )
    return _select(tasks, only)


# --------------------------------------------------------------- lattice-4d


def lattice_4d(seed: int, work: Path, n: int = 16, only=None) -> list[Task]:
    """em on a uniform n^4 lattice and a mixed h/q (n-2)^4 lattice with 20
    trials each, and check2d with grad2 (pass) and grad2-broken (fail) on
    h x q and q x h grids of about (300 n / 16)^2 points."""
    rng = np.random.default_rng([seed, 3])
    m = n - 2
    h0 = float(rng.choice([0.5, 1.0]))
    q1, q3 = (round(float(x), 3) for x in rng.uniform(1.05, 1.2, 2))
    mixed = f"h:{h0}:0:{_fmt(h0 * (m - 1))},q:{q1}:1:{m},h:1:0:{m - 1},q:{q3}:0.5:{m}"
    uniform = ",".join([f"h:1:0:{n - 1}"] * 4)
    tasks = [
        _cli_task("em/uniform", ["em", "--lattice", uniform, "--trials", 20, "--seed", seed], n**4, "pass"),
        _cli_task("em/mixed", ["em", "--lattice", mixed, "--trials", 20, "--seed", seed], m**4, "pass"),
    ]
    k = round(300 * n / 16)
    hq = f"h:1:0:{k - 1},q:{_fmt(1 + 3 / k)}:1:{k}"
    qh = f"q:{_fmt(1 + 3 / k)}:1:{k},h:1:0:{k - 1}"
    for name, grid, family, expect in (
        ("check2d/grad2/hq", hq, "grad2", "pass"),
        ("check2d/grad2-broken/hq", hq, "grad2-broken", "fail"),
        ("check2d/grad2/qh", qh, "grad2", "pass"),
    ):
        argv = ["check2d", "--grid", grid, "--family", family, "--trials", 20, "--seed", seed]
        tasks.append(_cli_task(name, argv, k * k, expect))
    return _select(tasks, only)


WORKLOADS = {
    "verify-1d": Workload(
        verify_1d,
        10_000,
        # At 1e5 points only the el and identity tasks on the h-uniform scale
        # run, to keep a traced run short.  On the q grid el's absolute
        # tolerance would fail the exact extremal from rounding (sup 4e-8,
        # the ROADMAP item 4 defect, which the item-4 tasks already show).
        ((1_000, None), (100_000, lambda name: name.startswith(("check-noether", "el/")) and name.endswith("/h"))),
        5.0,
    ),
    "solve-1d": Workload(
        solve_1d,
        1.0,
        ((0.5, None), (0.75, None)),
        1.7,
    ),
    "lattice-4d": Workload(
        lattice_4d,
        16,
        ((8, None), (12, None)),
        3.0,
    ),
}
