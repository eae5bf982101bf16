"""Command line front end.

Every subcommand writes a JSON report (stdout by default, --out for a
file).  All randomness derives from --seed, so identical invocations
produce byte-identical reports.  Exit codes: 0 when every section passes,
1 when a verdict fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import em as em_mod
from . import multigrid as mg
from . import noether as nt
from .report import ResidualReport
from .timescale import GridFunction, TimeScale, delta_derivative, delta_integral
from .timescale import parse_scale_spec, read_csv, write_csv
from .variational import BoundaryData, ConvergenceError, catalog, el_residual, solve_extremal

SCHEMA_VERSION = 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_help()
        return 2
    try:
        if getattr(args, "trials", 1) < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        for option in ("tol", "inv_tol"):
            value = getattr(args, option, 0.0)
            if not 0.0 <= value < np.inf:
                raise ValueError(f"--{option.replace('_', '-')} must be finite and non-negative, got {value}")
        report, ok = args.run(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The noether parser, built on the first call and shared by every later
    main() in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="noether", description=__doc__)
    parser.set_defaults(cmd=None)
    sub = parser.add_subparsers(dest="cmd")

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--verbose", action="store_true", help="include per-point arrays")
        p.set_defaults(run=fn)
        return p

    p = add("scale", _cmd_scale, help="inspect a scale spec")
    p.add_argument("--scale", required=True)

    for name, fn in (("derive", _cmd_derive), ("integrate", _cmd_integrate)):
        p = add(name, fn, help=f"{name} a grid function")
        p.add_argument("--scale", required=True)
        p.add_argument("--poly", help="semicolon-separated component polynomials 'c0,c1,...'")
        p.add_argument("--csv", help="grid function CSV produced by this tool")
        if name == "derive":
            p.add_argument("--order", type=int, default=1)
            p.add_argument("--result-csv", help="write the derivative here")

    p = add("el", _cmd_el, help="Euler-Lagrange residual along a path")
    p.add_argument("--scale", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--poly", help="path polynomials")
    p.add_argument("--csv")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("solve", _cmd_solve, help="solve the Euler-Lagrange boundary value problem")
    p.add_argument("--scale", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--alpha", required=True, help="comma-separated left boundary values")
    p.add_argument("--beta", required=True, help="comma-separated right boundary values")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--result-csv", help="write the extremal here")

    p = add("check-invariance", _cmd_check_invariance, help="random-probe invariance check")
    _family_args(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-12)

    for name, time_variant, kind in (("check-noether", False, "gauge"), ("check-noether-time", True, "time-transformed")):
        p = add(name, functools.partial(_cmd_identity, time_variant=time_variant), help=f"{kind} identity residual")
        _family_args(p)
        p.add_argument("--tol", type=float, default=1e-9)

    p = add("check2d", _cmd_check2d, help="double-integral invariance and identity")
    p.add_argument("--grid", required=True, help="comma-separated scale specs, one per axis")
    p.add_argument("--lagrangian", default="curl2")
    p.add_argument("--family", default="grad2")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--inv-tol", type=float, default=1e-12)

    p = add("em", _cmd_em, help="electromagnetic density checks on a 4-d lattice")
    p.add_argument("--lattice", default="default", help='"default" or 4 comma-separated scale specs')
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("oracle-fl", _cmd_oracle_fl, help="fundamental lemma brute-force oracle")
    p.add_argument("--scale", required=True)
    p.add_argument("--order", type=int, default=1, help="highest derivative order m")
    p.add_argument("--mode", choices=["vanishing", "impulse"], default="vanishing")
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


def _family_args(p):
    p.add_argument("--scale", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--family", required=True, help="JSON family file or builtin name")
    p.add_argument("--y-poly", help="path polynomials; default is a seeded random polynomial")


def _emit(report: dict, args) -> None:
    report["schema_version"] = SCHEMA_VERSION
    report["command"] = args.cmd
    report["seed"] = getattr(args, "seed", 0)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_sections(sections: list[dict]) -> tuple[dict, bool]:
    ok = all(s.get("verdict", "pass") == "pass" for s in sections)
    return {"sections": sections, "verdict": "pass" if ok else "fail"}, ok


def _section(name: str, rep: ResidualReport, verbose: bool) -> dict:
    out = rep.to_json(include_per_point=verbose)
    out["name"] = name
    return out


def _load_path(args, ts: TimeScale, n: int, lo: int = 0, hi: int | None = None) -> GridFunction:
    """The path from --csv, from --poly / --y-poly on [lo, hi], or else a
    seeded random cubic per component; every sample must be finite."""
    hi = len(ts) - 1 if hi is None else hi
    t = ts.points[lo : hi + 1]
    poly = getattr(args, "poly", None) or getattr(args, "y_poly", None)
    if getattr(args, "csv", None):
        y = read_csv(ts, args.csv)
    elif poly:
        comps = poly.split(";")
        if len(comps) != n:
            raise ValueError(f"expected {n} component polynomials")
        cols = []
        for comp in comps:
            coeffs = [float(c) for c in comp.split(",")]
            with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below names the point
                cols.append(np.polynomial.polynomial.polyval(t, coeffs))
        y = GridFunction(ts, lo, np.column_stack(cols))
    else:
        coeffs = np.random.default_rng([args.seed, 97]).uniform(-1, 1, (n, 4))
        scaled = t[:, None] / max(1.0, np.max(np.abs(ts.points)))
        y = GridFunction(ts, lo, np.polynomial.polynomial.polyval(scaled, coeffs.T, tensor=False))
    finite = np.isfinite(y.values)
    if not finite.all():  # a whole-array test; a per-row one costs 20x more
        row = np.flatnonzero(~finite)[0] // y.n
        raise ValueError(f"the path is not finite at t = {float(y.ts.points[y.lo + row])!r}")
    return y


# Built-in gauge families: family-file tables selected by name in place of
# a file.  pairdiff moves both path components by the parameter and
# pairdiff-broken the first by 1.1 times it; pairdiff-time0 adds an all-zero
# time table, and time-translation moves time alone.  grad2 adds the axis-j
# quotient of the parameter to component j of a 2-d field, and grad2-broken
# 1.1 times it on axis 0.
_FAMILIES = {
    "pairdiff": {"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0]]]},
    "pairdiff-broken": {"r": 1, "m": 0, "n": 2, "g": [[[1.1], [1.0]]]},
    "pairdiff-time0": {"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0]]], "f": [[0.0]]},
    "time-translation": {"r": 1, "m": 0, "n": 1, "g": [[[0.0]]], "f": [[1.0]]},
    "grad2": {"a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "grad2-broken": {"a": [[0.0, 1.1, 0.0], [0.0, 0.0, 1.0]]},
}


def _family_table(path_or_name: str):
    """The built-in table of that name, or else the JSON file at that path."""
    if path_or_name in _FAMILIES:
        return _FAMILIES[path_or_name]
    with open(path_or_name) as fh:
        return json.load(fh)


def _coeff_grid(ts: TimeScale, spec, lo: int, hi: int, name: str) -> np.ndarray:
    t = ts.points[lo : hi + 1]
    if isinstance(spec, (int, float)):
        vals = np.full(t.size, float(spec))
    elif isinstance(spec, dict) and "poly" in spec:
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
            vals = np.polynomial.polynomial.polyval(t, [float(c) for c in spec["poly"]])
    elif isinstance(spec, dict) and "csv" in spec:
        c = read_csv(ts, spec["csv"]).restrict(lo, hi)
        if c.n != 1:
            raise ValueError(f"coefficient {name} must have one component")
        vals = c.values[:, 0]
    else:
        raise ValueError(f"bad coefficient spec {spec!r}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coefficient {name} is not finite")
    return vals


def load_family(path_or_name: str, ts: TimeScale):
    data = _family_table(path_or_name)
    missing = [key for key in ("r", "m", "n", "g") if not isinstance(data, dict) or key not in data]
    if missing:
        raise ValueError(f"{path_or_name}: a family file needs r, m, n and g; missing: {', '.join(missing)}")
    if not all(isinstance(data[key], int) and data[key] >= 0 for key in "rmn"):
        raise ValueError(f"{path_or_name}: r, m and n must be non-negative integers")
    r, m, n = data["r"], data["m"], data["n"]
    nt._check_order(m, ts, f"{path_or_name}: ")
    lo, hi = 0, len(ts) - 1 - m

    def row(spec, name: str) -> list:
        """The m + 1 coefficients of one g[j][k] or f[j] entry."""
        if not isinstance(spec, list) or len(spec) != m + 1:
            raise ValueError(f"{name} must be a list of m + 1 = {m + 1} coefficient specs, got {spec!r}")
        return [_coeff_grid(ts, c, lo, hi, f"{name}[{i}]") for i, c in enumerate(spec)]

    g_spec = data["g"]
    if not isinstance(g_spec, list) or len(g_spec) != r or any(
        not isinstance(comp, list) or len(comp) != n for comp in g_spec
    ):
        raise ValueError("family table shape does not match r and n")
    g = [[row(g_spec[j][k], f"g[{j}][{k}]") for k in range(n)] for j in range(r)]
    f = data.get("f")
    if f is not None:
        if not isinstance(f, list) or len(f) != r:
            raise ValueError(f"the f table needs one row per parameter (r = {r}), got {f!r}")
        f = [row(f[j], f"f[{j}]") for j in range(r)]
    return nt.GaugeFamily(ts, lo, g, f)


def _cmd_scale(args):
    ts = parse_scale_spec(args.scale)
    section = {
        "name": "scale",
        "kind": ts.kind,
        "n_points": len(ts),
        "condition_h": list(ts.condition_h) if ts.condition_h else None,
        "points": list(map(float, ts.points)),
        "verdict": "pass",
    }
    return _report_sections([section])


def _cmd_derive(args):
    ts = parse_scale_spec(args.scale)
    f = _load_path(args, ts, 1)
    d = delta_derivative(f, args.order)
    if args.result_csv:
        write_csv(d, args.result_csv)
    section = {
        "name": "derive",
        "order": args.order,
        "domain": list(d.window),
        "values": d.values.tolist() if args.verbose else None,
        "verdict": "pass",
    }
    return _report_sections([section])


def _cmd_integrate(args):
    ts = parse_scale_spec(args.scale)
    f = _load_path(args, ts, 1)
    val = delta_integral(f)
    section = {"name": "integrate", "value": [float(v) for v in val], "verdict": "pass"}
    return _report_sections([section])


def _cmd_el(args):
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    y = _load_path(args, ts, L.n)
    rep = el_residual(L, y, tolerance=args.tol)
    return _report_sections([_section("el", rep, args.verbose)])


def _cmd_solve(args):
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    bd = BoundaryData(
        np.array([float(x) for x in args.alpha.split(",")]),
        np.array([float(x) for x in args.beta.split(",")]),
    )
    y = solve_extremal(L, ts, bd, tol=args.tol)
    if args.result_csv:
        write_csv(y, args.result_csv)
    rep = el_residual(L, y, tolerance=args.tol)
    section = _section("solve", rep, args.verbose)
    section["solution"] = y.values.tolist() if args.verbose else None
    return _report_sections([section])


def _family_problem(args):
    """The density, the gauge family and the path of the family commands."""
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    fam = load_family(args.family, ts)
    return L, fam, _load_path(args, ts, L.n, hi=len(ts) - 1 - fam.m)


def _cmd_check_invariance(args):
    L, fam, y = _family_problem(args)
    rep = nt.check_invariance(L, fam, y, trials=args.trials, seed=args.seed, tolerance=args.tol)
    return _report_sections([_section("invariance", rep, args.verbose)])


def _cmd_identity(args, time_variant: bool):
    fn = nt.noether_identity_time if time_variant else nt.noether_identity
    reports = fn(*_family_problem(args), tolerance=args.tol)
    return _report_sections([_section(f"identity-j{j}", rep, args.verbose) for j, rep in enumerate(reports)])


def load_family2d(path_or_name: str, grid: mg.GridD):
    data = _family_table(path_or_name)
    if not isinstance(data, dict) or "a" not in data:
        raise ValueError(f"{path_or_name}: a d-D family file needs an \"a\" coefficient table")
    return mg.GaugeFamilyD(grid, data["a"])


# Points per axis that check2d and em need: the identity takes three
# quotients along an axis, and one point must remain.
MIN_LATTICE_POINTS = 4


def _lattice(specs: list[str]) -> mg.GridD:
    grid = mg.GridD(tuple(parse_scale_spec(s) for s in specs))
    for ax, npts in enumerate(grid.shape):
        if npts < MIN_LATTICE_POINTS:
            raise ValueError(
                f"axis {ax} has {npts} points; the minimum is {MIN_LATTICE_POINTS} per axis"
            )
    return grid


def _cmd_check2d(args):
    grid = _lattice(args.grid.split(","))
    L = mg.catalog2d(args.lagrangian)
    fam = load_family2d(args.family, grid)
    u = tuple(
        mg.random_polynomial_field(grid, seed=[args.seed, 7 + k], degree=2, amplitude=1.0)
        for k in range(L.n)
    )
    inv = mg.check_invariance_d(L, fam, u, trials=args.trials, seed=args.seed, tolerance=args.inv_tol)
    ident = mg.noether_identity_d(L, fam, u, tolerance=args.tol)
    return _report_sections(
        [_section("invariance", inv, args.verbose), _section("identity", ident, args.verbose)]
    )


def _cmd_em(args):
    if args.lattice == "default":
        grid = em_mod.default_lattice(6)
    else:
        specs = args.lattice.split(",")
        if len(specs) != 4:
            raise ValueError("the lattice needs 4 scale specs")
        grid = _lattice(specs)

    fam = em_mod.em_gauge_family(grid)
    gauge_rep = em_mod._gauge_invariance(fam, args.trials, args.seed, 1e-12)
    ident = mg.noether_identity_d(
        em_mod.em_lagrangian(), fam, em_mod.random_em_field(grid, seed=[args.seed, 1]), tolerance=args.tol
    )
    A = em_mod.lorentz_field(grid)
    lorentz = em_mod.em_lorentz_check(A, tolerance=1e-10)
    wave = em_mod.em_wave_reduction_residual(A, tolerance=args.tol)
    sections = [
        _section("gauge-invariance", gauge_rep, args.verbose),
        _section("identity", ident, args.verbose),
        _section("lorentz", lorentz, args.verbose),
        _section("wave-form", wave, args.verbose),
    ]
    return _report_sections(sections)


def _cmd_oracle_fl(args):
    ts = parse_scale_spec(args.scale)
    m = args.order
    fs = nt.vanishing_coefficients(ts, m, np.random.default_rng([args.seed, 5]))
    if args.mode == "impulse":
        bump = fs[0].values[:, 0].copy()
        upper = bump.size
        bump[max(0, min(upper - 1 - m, upper // 2))] += 0.5
        fs[0] = GridFunction(ts, 0, bump)
    rep = nt.fundamental_lemma_oracle(ts, fs, tolerance=args.tol)
    section = {
        "name": "fundamental-lemma",
        "order": rep.m,
        "domain": list(rep.domain),
        "max_integral": rep.max_integral,
        "conclusion_sup": rep.conclusion_sup,
        "consistent": rep.consistent,
        "verdict": "pass" if rep.verdict else "fail",
    }
    return _report_sections([section])


if __name__ == "__main__":
    sys.exit(main())
