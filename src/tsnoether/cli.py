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
        parser.print_help(sys.stderr)
        return 2
    try:
        if getattr(args, "trials", 1) < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        report, ok = args.run(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
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

    def add(name, fn, seed=True, verbose=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", default=None, help="write the JSON report here")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if verbose:
            p.add_argument("--verbose", action="store_true", help="include per-point arrays")
        p.set_defaults(run=fn)
        return p

    def numbers(text):  # a type=: argparse's refusal names the option, this function and the text
        return [float(c) for c in text.split(",")]

    def polynomials(text):
        return [numbers(comp) for comp in text.split(";")]

    def family_args(p):
        p.add_argument("--scale", required=True)
        p.add_argument("--lagrangian", required=True)
        p.add_argument("--family", required=True, help="JSON family file or builtin name")
        p.add_argument("--y-poly", type=polynomials, help="path polynomials; default is a seeded random polynomial")

    p = add("scale", _cmd_scale, seed=False, verbose=False, help="inspect a scale spec")
    p.add_argument("--scale", required=True)

    for name, fn in (("derive", _cmd_derive), ("integrate", _cmd_integrate)):
        p = add(name, fn, verbose=name == "derive", help=f"{name} a grid function")
        p.add_argument("--scale", required=True)
        p.add_argument("--poly", type=polynomials, help="semicolon-separated component polynomials 'c0,c1,...'")
        p.add_argument("--csv", help="grid function CSV produced by this tool")
        if name == "derive":
            p.add_argument("--order", type=int, default=1)
            p.add_argument("--result-csv", help="write the derivative here")

    p = add("el", _cmd_el, help="Euler-Lagrange residual along a path")
    p.add_argument("--scale", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--poly", type=polynomials, help="path polynomials")
    p.add_argument("--csv")

    p = add("solve", _cmd_solve, seed=False, help="solve the Euler-Lagrange boundary value problem")
    p.add_argument("--scale", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--alpha", type=numbers, required=True, help="comma-separated left boundary values")
    p.add_argument("--beta", type=numbers, required=True, help="comma-separated right boundary values")
    p.add_argument("--result-csv", help="write the extremal here")

    p = add("check-invariance", _cmd_check_invariance, help="random-probe invariance check")
    family_args(p)
    p.add_argument("--trials", type=int, default=20)

    for name, time_variant, kind in (("check-noether", False, "gauge"), ("check-noether-time", True, "time-transformed")):
        p = add(name, functools.partial(_cmd_identity, time_variant=time_variant), help=f"{kind} identity residual")
        family_args(p)

    p = add("check2d", _cmd_check2d, help="double-integral invariance and identity")
    p.add_argument("--grid", required=True, help="comma-separated scale specs, one per axis")
    p.add_argument("--lagrangian", default="curl2")
    p.add_argument("--family", default="grad2")
    p.add_argument("--trials", type=int, default=20)

    p = add("em", _cmd_em, help="electromagnetic density checks on a 4-d lattice")
    p.add_argument("--lattice", default="default", help='"default" or 4 comma-separated scale specs')
    p.add_argument("--trials", type=int, default=50)

    p = add("oracle-fl", _cmd_oracle_fl, verbose=False, help="fundamental lemma brute-force oracle")
    p.add_argument("--scale", required=True)
    p.add_argument("--order", type=int, default=1, help="highest derivative order m")
    p.add_argument("--mode", choices=["vanishing", "impulse"], default="vanishing")

    return parser


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


def _load_path(args, ts: TimeScale, n: int, hi: int | None = None) -> GridFunction:
    """The path from --csv, from --poly / --y-poly on [0, hi], or else a
    seeded random cubic per component; every sample must be finite."""
    t = ts.points if hi is None else ts.points[: hi + 1]
    poly = getattr(args, "poly", None) or getattr(args, "y_poly", None)
    if getattr(args, "csv", None):
        y = read_csv(ts, args.csv)
    elif poly:
        if len(poly) != n:
            raise ValueError(f"expected {n} component polynomials")
        cols = []
        for coeffs in poly:
            with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below names the point
                cols.append(np.polynomial.polynomial.polyval(t, coeffs))
        y = GridFunction(ts, 0, np.column_stack(cols))
    else:
        coeffs = np.random.default_rng([args.seed, 97]).uniform(-1, 1, (n, 4))
        scaled = t[:, None] / max(1.0, np.max(np.abs(ts.points)))
        y = GridFunction(ts, 0, np.polynomial.polynomial.polyval(scaled, coeffs.T, tensor=False))
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


def load_family(path_or_name: str, build):
    """build(table) of the built-in table of that name, or else of the JSON
    family file at that path; each ValueError gains the name or path, once."""
    try:
        if path_or_name in _FAMILIES:
            return build(_FAMILIES[path_or_name])
        with open(path_or_name) as fh:
            return build(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{path_or_name}: {exc}") from None


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
    rep = el_residual(L, y)
    return _report_sections([_section("el", rep, args.verbose)])


def _cmd_solve(args):
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    y = solve_extremal(L, ts, BoundaryData(np.array(args.alpha), np.array(args.beta)))
    if args.result_csv:
        write_csv(y, args.result_csv)
    rep = el_residual(L, y)
    section = _section("solve", rep, args.verbose)
    section["solution"] = y.values.tolist() if args.verbose else None
    return _report_sections([section])


def _family_problem(args):
    """The density, the gauge family and the path of the family commands."""
    ts = parse_scale_spec(args.scale)
    L = catalog(args.lagrangian)
    fam = load_family(args.family, functools.partial(nt.GaugeFamily.from_table, ts))
    return L, fam, _load_path(args, ts, L.n, hi=fam.window[1])


def _cmd_check_invariance(args):
    L, fam, y = _family_problem(args)
    rep = nt.check_invariance(L, fam, y, trials=args.trials, seed=args.seed)
    return _report_sections([_section("invariance", rep, args.verbose)])


def _cmd_identity(args, time_variant: bool):
    fn = nt.noether_identity_time if time_variant else nt.noether_identity
    reports = fn(*_family_problem(args))
    return _report_sections([_section(f"identity-j{j}", rep, args.verbose) for j, rep in enumerate(reports)])


# Points per axis that check2d and em need: the identity takes three
# quotients along an axis, and one point must remain.
MIN_LATTICE_POINTS = 4


def _lattice(specs: list[str], d: int) -> mg.GridD:
    if len(specs) != d:
        raise ValueError(f"the lattice needs {d} scale specs, got {len(specs)}")
    grid = mg.GridD(tuple(parse_scale_spec(s) for s in specs))
    for ax, npts in enumerate(grid.shape):
        if npts < MIN_LATTICE_POINTS:
            raise ValueError(
                f"axis {ax} has {npts} points; the minimum is {MIN_LATTICE_POINTS} per axis"
            )
    return grid


def _cmd_check2d(args):
    L = mg.catalog2d(args.lagrangian)
    grid = _lattice(args.grid.split(","), L.d)
    fam = load_family(args.family, functools.partial(mg.GaugeFamilyD.from_table, grid))
    u = tuple(mg.random_polynomial_field(grid, seed=[args.seed, 7 + k]) for k in range(L.n))
    inv = mg.check_invariance_d(L, fam, u, trials=args.trials, seed=args.seed)
    ident = mg.noether_identity_d(L, fam, u)
    return _report_sections(
        [_section("invariance", inv, args.verbose), _section("identity", ident, args.verbose)]
    )


def _cmd_em(args):
    grid = em_mod.default_lattice() if args.lattice == "default" else _lattice(args.lattice.split(","), 4)

    # Each section becomes its dict as its check returns: no per_point or field outlives it.
    fam = em_mod.em_gauge_family(grid)
    sections = [_section("gauge-invariance", em_mod._gauge_invariance(fam, args.trials, args.seed), args.verbose)]
    ident = mg.noether_identity_d(em_mod.em_lagrangian(), fam, em_mod.random_em_field(grid, seed=[args.seed, 1]))
    sections.append(_section("identity", ident, args.verbose))
    del ident
    A = em_mod.lorentz_field(grid)
    sections.append(_section("lorentz", em_mod.em_lorentz_check(A), args.verbose))
    sections.append(_section("wave-form", em_mod.em_wave_reduction_residual(A), args.verbose))
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
    rep = nt.fundamental_lemma_oracle(ts, fs)
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
