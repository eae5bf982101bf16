"""Frozen CLI reports and result CSVs.

The files under tests/golden/ were written before the 1-D and the
product-grid calculi shared their axis kernels and their trial loop.
`check2d_qh_grad2_verbose` and `em_mixed_spatial_q_verbose` were written
before lattice values stopped being copied on every construction.  These
changes compute the same floating point operations, so every byte
below must stay the same.  Regenerate a file only for a deliberate
change of the arithmetic, and say so in CHANGES.md.

Two such changes so far:
- `invariance_h_verbose`, `invariance_h_broken_verbose`,
  `invariance_q_quad2_verbose` and `invariance_real_1e4_verbose` were
  re-frozen when the action stopped being summed left to right and took
  the pairwise order of the one delta integral kernel, which moved some
  per-point deviations in their last bits.  REFROZEN checks each of their
  values against the old sum.
- The five `solve` files were re-frozen when Newton's Jacobian became
  banded, built from local partials of the density, and solved by block
  cyclic reduction instead of a dense LU.  Its quotients differ from the
  old one-unknown-at-a-time ones, so Newton stops at another point within
  its tolerance.  The files they replaced are kept in
  tests/golden_superseded/, and RESOLVED checks each new extremal against
  the old one.

Each case is a full `noether` argument list, whether it also writes a
`--result-csv`, and its expected exit code.  `{tmp}` stands for the
test's temporary directory, which holds the family files of FAMILIES.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tsnoether import cli
from tsnoether.cli import main
from tsnoether.noether import random_gauge_params, transform
from tsnoether.timescale import GridFunction, parse_scale_spec
from tsnoether.variational import catalog, el_expressions, eval_functional

GOLDEN = Path(__file__).parent / "golden"
SUPERSEDED = Path(__file__).parent / "golden_superseded"

FAMILIES = {
    # An order-1 family: both components get p^sigma^0 + 0.5 p^delta.
    "fam1.json": {"r": 1, "m": 1, "n": 2, "g": [[[1.0, 0.5], [1.0, 0.5]]]},
    "famt.json": {"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0]]], "f": [[0.0]]},
}

PAIR = ["--lagrangian", "pair-difference"]

CASES = [
    ("solve_h_poisson", ["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5"], True, 0),
    ("solve_q_poisson", ["solve", "--scale", "q:1.01:1:150", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5"], True, 0),
    (
        "solve_quad2_verbose",
        ["solve", "--scale", "h:0.1:0:3", "--lagrangian", "quad:2:0.5:0.1:0.2", "--alpha", "0,1", "--beta", "2,-1", "--verbose"],
        False,
        0,
    ),
    ("scale_q", ["scale", "--scale", "q:2:1:6"], False, 0),
    ("derive_h_verbose", ["derive", "--scale", "h:1:0:5", "--poly", "0,0,1", "--order", "1", "--verbose"], True, 0),
    ("derive_q_order2_verbose", ["derive", "--scale", "q:1.1:1:40", "--poly", "1,-2,0,0.5", "--order", "2", "--verbose"], True, 0),
    ("integrate_q", ["integrate", "--scale", "q:2:1:4", "--poly", "0,1"], False, 0),
    ("el_h_verbose", ["el", "--scale", "h:1:0:5", "--lagrangian", "dirichlet", "--poly", "0,1", "--verbose"], False, 0),
    ("invariance_h_verbose", ["check-invariance", "--scale", "h:1:0:10", *PAIR, "--family", "pairdiff", "--trials", "50", "--verbose"], False, 0),
    ("invariance_h_broken_verbose", ["check-invariance", "--scale", "h:1:0:10", *PAIR, "--family", "pairdiff-broken", "--verbose"], False, 1),
    ("invariance_real_1e4_verbose", ["check-invariance", "--scale", "real:0.0001:0:1", *PAIR, "--family", "pairdiff", "--verbose"], False, 0),
    ("noether_q_m1_verbose", ["check-noether", "--scale", "q:2:1:11", *PAIR, "--family", "{tmp}/fam1.json", "--verbose"], False, 0),
    ("noether_time_h_verbose", ["check-noether-time", "--scale", "h:1:0:10", *PAIR, "--family", "{tmp}/famt.json", "--verbose"], False, 0),
    # The only paths where an n >= 2 catalog density's value reaches the report bytes.
    (
        "invariance_q_quad2_verbose",
        ["check-invariance", "--scale", "q:1.1:1:40", "--lagrangian", "quad:2:0.5:0.3:0.2", "--family", "pairdiff", "--verbose"],
        False,
        1,
    ),
    (
        "noether_time_quad2_verbose",
        ["check-noether-time", "--scale", "h:0.1:0:3", "--lagrangian", "quad:2:0.5:0.3:0.2", "--family", "pairdiff-time0", "--verbose"],
        False,
        1,
    ),
    ("check2d_verbose", ["check2d", "--grid", "h:1:0:5,q:2:1:6", "--lagrangian", "curl2", "--family", "grad2", "--verbose"], False, 0),
    ("check2d_broken_verbose", ["check2d", "--grid", "h:1:0:5,q:2:1:6", "--lagrangian", "curl2", "--family", "grad2-broken", "--verbose"], False, 1),
    ("em_default_verbose", ["em", "--lattice", "default", "--trials", "50", "--verbose"], False, 0),
    # The q x h axis order of the benchmark's check2d tasks.
    ("check2d_qh_grad2_verbose", ["check2d", "--grid", "q:1.1:1:12,h:1:0:11", "--family", "grad2", "--verbose"], False, 0),
    ("em_mixed", ["em", "--lattice", "h:1:0:5,q:2:1:6,h:0.5:0:2.5,q:1.5:1:6", "--trials", "5"], False, 0),
    # Spatial q axes, with the per-point arrays.
    (
        "em_mixed_spatial_q_verbose",
        ["em", "--lattice", "h:0.5:0:2.5,q:1.5:1:6,h:1:0:5,q:2:1:6", "--trials", "5", "--verbose"],
        False,
        0,
    ),
    ("oracle_fl_q_impulse", ["oracle-fl", "--scale", "q:2:1:9", "--order", "2", "--mode", "impulse"], False, 1),
    ("oracle_fl_h_vanishing", ["oracle-fl", "--scale", "h:0.5:0:5", "--order", "2"], False, 0),
]


@pytest.mark.parametrize("name, argv, with_csv, code", CASES, ids=[c[0] for c in CASES])
def test_solve_report_is_byte_identical(tmp_path, name, argv, with_csv, code):
    for fname, family in FAMILIES.items():
        (tmp_path / fname).write_text(json.dumps(family))
    report = tmp_path / "report.json"
    csv = tmp_path / "result.csv"
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(report)]
    if with_csv:
        argv += ["--result-csv", str(csv)]
    assert main(argv) == code
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    if with_csv:
        assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_golden_directory_holds_exactly_the_cases():
    expected = {f"{name}.json" for name, *_ in CASES}
    expected |= {f"{name}.csv" for name, _, with_csv, _ in CASES if with_csv}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(expected)


REFROZEN = ["invariance_h_verbose", "invariance_h_broken_verbose", "invariance_q_quad2_verbose", "invariance_real_1e4_verbose"]


def left_to_right_action(L, y):
    """The action summed left to right from +0.0, the order REFROZEN was
    first frozen with; also the sum of |mu L| and the number of terms."""
    mu = np.diff(y.ts.points[y.lo : y.hi + 1])
    v = np.diff(y.values, axis=0) / mu[:, None]
    terms = mu * L.sample("L", y.ts.points[y.lo : y.hi], y.values[1:], v)
    return float(np.add.accumulate(terms)[-1] + 0.0), float(np.sum(np.abs(terms))), terms.size


@pytest.mark.parametrize("name", REFROZEN)
def test_refrozen_deviations_are_within_summation_error_of_the_old_sum(name):
    args = cli._build_parser().parse_args(next(argv for case, argv, *_ in CASES if case == name))
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    fam = cli.load_family(args.family, ts)
    y = cli._load_path(args, ts, L.n, hi=len(ts) - 1 - fam.m)
    frozen = json.loads((GOLDEN / f"{name}.json").read_text())["sections"][0]["per_point"]
    assert len(frozen) == args.trials
    before, abs_before, n = left_to_right_action(L, y)
    for trial, value in enumerate(frozen):
        # The probes of check_invariance: seed [seed, trial].
        ybar = transform(fam, random_gauge_params(fam, seed=[args.seed, trial]), y)[1]
        assert value == abs(eval_functional(L, ybar) - eval_functional(L, y)), trial
        after, abs_after, _ = left_to_right_action(L, ybar)
        bound = 4 * n * np.finfo(float).eps * (abs_before + abs_after)
        assert abs(value - abs(after - before)) <= bound, trial


RESOLVED = ["solve_h_poisson", "solve_q_poisson", "solve_quad2_verbose"]


def frozen_solution(directory: Path, name: str) -> np.ndarray:
    if (directory / f"{name}.csv").exists():
        return np.loadtxt(directory / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    return np.array(json.loads((directory / f"{name}.json").read_text())["sections"][0]["solution"])


@pytest.mark.parametrize("name", RESOLVED)
def test_resolved_extremals_are_within_twice_the_tolerance_of_the_old(name):
    """Both extremals meet |E| <= tol, and E is affine in y for these
    quadratic densities, so they differ by at most 2 tol ||J^-1||_inf, J
    being the Jacobian of E in the interior rows.  For Poisson the discrete
    Green's function gives ||J^-1||_inf <= (b - a)^2 / 8; quad2's is
    computed here from J's exact columns E(e_k) - E(0)."""
    args = cli._build_parser().parse_args(next(argv for case, argv, *_ in CASES if case == name))
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    npts, n = len(ts), L.n
    zero = np.zeros((npts, n))
    base = el_expressions(L, GridFunction(ts, 0, zero)).values.ravel()
    jac = np.empty((base.size, base.size))
    for k in range(base.size):
        unit = zero.copy()
        unit[1 + k // n, k % n] = 1.0
        jac[:, k] = el_expressions(L, GridFunction(ts, 0, unit)).values.ravel() - base
    inv_norm = float(np.max(np.sum(np.abs(np.linalg.inv(jac)), axis=1)))
    if args.lagrangian == "poisson":
        green = (ts.points[-1] - ts.points[0]) ** 2 / 8
        assert inv_norm <= green
        inv_norm = green
    old, new = frozen_solution(SUPERSEDED, name), frozen_solution(GOLDEN, name)
    assert old.shape == new.shape == (npts, n)
    assert np.max(np.abs(new - old)) <= 2 * args.tol * inv_norm
