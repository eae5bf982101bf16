import argparse
import functools
import inspect
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnoether import cli, noether
from tsnoether.cli import main
from tsnoether.timescale import MAX_POINTS, GridFunction, TimeScale, delta_integral, h_uniform, parse_scale_spec
from tsnoether.variational import Lagrangian, catalog, lagrangian_along

import reference


def run(tmp_path, *args, name="report.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def write_pairdiff_family(tmp_path, broken=False):
    fam = {
        "r": 1,
        "m": 0,
        "n": 2,
        "g": [[[1.1 if broken else 1.0], [1.0]]],
    }
    path = tmp_path / ("fam_broken.json" if broken else "fam.json")
    path.write_text(json.dumps(fam))
    return path


class TestExitCodes:
    def test_malformed_scale_spec(self, capsys):
        assert main(["scale", "--scale", "h:0:0:5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_lagrangian(self, capsys):
        assert main(["el", "--scale", "h:1:0:5", "--lagrangian", "nope"]) == 2

    def test_missing_family_file(self, capsys):
        code = main(
            ["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference",
             "--family", "does-not-exist.json"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: 'does-not-exist.json'\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["check-invariance", "--scale", "h:1:0:10", "--lagrangian", "pair-difference",
             "--family", "pairdiff-broken"],
            ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--family", "grad2-broken"],
            ["em", "--lattice", "default"],
        ],
        ids=["check-invariance", "check2d", "em"],
    )
    def test_no_trials_rejected(self, tmp_path, capsys, args):
        code, data, _ = run(tmp_path, *args, "--trials", "0")
        assert code == 2 and data is None
        assert "--trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "order, message",
        [("-1", "the order must be at least 0, got -1"), ("3", "order 3 needs a grid of at least 7 points, this one has 6")],
        ids=["negative", "too-large"],
    )
    def test_oracle_order_rejected(self, tmp_path, capsys, order, message):
        code, data, _ = run(tmp_path, "oracle-fl", "--scale", "h:1:0:5", "--order", order)
        assert code == 2 and data is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["check2d", "--grid", "h:1:0:5,q:2:1:3"], "axis 1 has 3 points; the minimum is 4 per axis"),
            (["em", "--lattice", "h:1:0:3,h:1:0:3,h:1:0:2,h:1:0:3"], "axis 2 has 3 points; the minimum is 4 per axis"),
        ],
        ids=["check2d", "em"],
    )
    def test_small_lattice_rejected(self, tmp_path, capsys, args, message):
        code, data, _ = run(tmp_path, *args, "--trials", "2")
        assert code == 2 and data is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["check-noether", "--scale", "h:1:0:20", "--lagrangian", "pair-difference",
             "--family", "pairdiff-broken", "--tol", "inf"],
            ["em", "--lattice", "default", "--trials", "2", "--tol", "nan"],
            ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2", "--inv-tol", "-1"],
            ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2", "--tol", "1e-3"],
            ["el", "--scale", "h:1:0:5", "--lagrangian", "dirichlet", "--tol", "1e-3"],
            ["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5",
             "--tol", "1e-3"],
            ["check-invariance", "--scale", "h:1:0:10", "--lagrangian", "pair-difference",
             "--family", "pairdiff-broken", "--tol", "inf"],
            ["check-noether-time", "--scale", "h:1:0:10", "--lagrangian", "pair-difference",
             "--family", "pairdiff-time0", "--tol", "1e-3"],
            ["oracle-fl", "--scale", "h:1:0:5", "--mode", "impulse", "--tol", "inf"],
        ],
        ids=["check-noether-inf", "em-nan", "check2d-inv-tol-negative", "check2d", "el", "solve",
             "check-invariance-inf", "check-noether-time", "oracle-fl-inf"],
    )
    def test_bad_tolerance_rejected(self, tmp_path, capsys, args):
        """No command takes a tolerance: each check uses its library default,
        so no option can pass a broken control or fail an exact identity."""
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, option, text",
        [
            (["el", "--scale", "h:1:0:5", "--lagrangian", "dirichlet", "--poly", "0,x"], "--poly", "0,x"),
            (["check-invariance", "--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--family", "pairdiff",
              "--y-poly", "0,1;1,,2"], "--y-poly", "0,1;1,,2"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "a", "--beta", "1"], "--alpha", "a"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "1;2"],
             "--beta", "1;2"),
        ],
        ids=["poly", "y-poly", "alpha", "beta"],
    )
    def test_number_list_refusal_names_its_option(self, tmp_path, capsys, args, option, text):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and not out.exists() and err.startswith("usage: noether")
        assert f"argument {option}: " in err and repr(text) in err

    def test_four_points_per_axis_suffice(self, tmp_path):
        assert run(tmp_path, "check2d", "--grid", "h:1:0:3,q:2:1:4", "--trials", "2")[0] == 0
        assert run(tmp_path, "em", "--lattice", ",".join(["h:1:0:3"] * 4), "--trials", "2")[0] == 0

    @pytest.mark.parametrize(
        "family, args, message",
        [
            ('{"a": [[0, NaN, 0], [0, 0, 1]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "coefficient a[0][1] is not finite: nan"),
            ('{"a": [[0, 1, 0], [0, 0, -Infinity]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "coefficient a[1][2] is not finite: -inf"),
            ('{"r": 1, "m": 0, "n": 2, "g": [[[NaN], [1.0]]]}',
             ["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference"],
             "coefficient g[0][0][0] is not finite"),
            ('{"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"poly": [0, Infinity]}]]]}',
             ["check-invariance", "--scale", "h:1:0:9", "--lagrangian", "pair-difference", "--trials", "2"],
             "coefficient g[0][1][0] is not finite"),
            ('{"b": [[0, 1, 0]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             'a d-D family file needs an "a" coefficient table'),
            ('{"a": [1, 2]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "the coefficient table must be rows of numbers"),
            ('{"a": [[0, true, 0], [0, 0, "1"]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "coefficient a[0][1] must be a number, got True"),
            ('{"a": [[0, 1, 0], [0, 0, "1"]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "coefficient a[1][2] must be a number, got '1'"),
            ('{"a": [[false, 1, 0], [0, 0, 1]]}', ["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2"],
             "coefficient a[0][0] must be a number, got False"),
        ],
        ids=["check2d-nan", "check2d-inf", "check-noether-nan", "check-invariance-inf-poly", "check2d-no-a",
             "check2d-rows", "check2d-bool", "check2d-string", "check2d-false"],
    )
    def test_bad_family_file_rejected(self, tmp_path, capsys, family, args, message):
        path = tmp_path / "fam.json"
        path.write_text(family)
        code, data, _ = run(tmp_path, *args, "--family", str(path))
        assert code == 2 and data is None
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0.0,0.0,1.0", "1.0,1.0,2.0", "2.0,2.0,3.0"], "line 2 has 3 fields, the header has 2"),
            (["0.0,0.0", "1.0,1.0,5.0", "2.0,2.0"], "line 3 has 3 fields, the header has 2"),
        ],
        ids=["wider-than-header", "ragged"],
    )
    def test_path_csv_row_width_checked(self, tmp_path, capsys, rows, message):
        path = tmp_path / "y.csv"
        path.write_text("\n".join(["t,y1", *rows]) + "\n")
        code, data, _ = run(tmp_path, "el", "--scale", "h:1:0:2", "--lagrangian", "dirichlet", "--csv", str(path))
        assert code == 2 and data is None
        assert message in capsys.readouterr().err

    def test_q_scale_overflow_named(self, capsys):
        assert main(["scale", "--scale", "q:3:1:1000"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad scale spec 'q:3:1:1000': point 647 of the geometric scale, a*q**647, is not a finite float\n"

    @pytest.mark.parametrize(
        "spec, named", [("real:0.5:0:inf", "b=inf"), ("h:1:-inf:0", "a=-inf")], ids=["real-b", "h-a"]
    )
    def test_infinite_uniform_bound_named(self, capsys, spec, named):
        assert main(["scale", "--scale", spec]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad scale spec {spec!r}: h, a and b must be finite, got {named}\n"

    @pytest.mark.parametrize(
        "spec, count",
        [
            ("h:1:0:1e12", "1000000000001"),
            ("h:1:0:10000000", "10000001"),
            ("real:5e-324:0:1", "inf"),
            ("q:1.5:1:10000000000000", "10000000000000"),
        ],
        ids=["h-huge", "h-limit-plus-one", "real-subnormal-step", "q-huge"],
    )
    def test_oversized_scale_refused_before_allocation(self, capsys, traced_peak, spec, count):
        code, peak = traced_peak(lambda: main(["scale", "--scale", spec]))
        assert code == 2 and peak < 2**20
        err = capsys.readouterr().err
        assert err == f"error: bad scale spec {spec!r}: the scale would have {count} points, more than the limit of {MAX_POINTS}\n"

    def test_scale_of_exactly_the_limit_is_built(self):
        # Well above the largest solver sweep (10^5 points); the limit itself
        # passes the check and reaches the allocation, stopped here unbuilt.
        assert MAX_POINTS >= 100 * 10**5

        class Allocating(Exception):
            pass

        with mock.patch("numpy.arange", side_effect=Allocating) as arange, pytest.raises(Allocating):
            main(["scale", "--scale", f"h:1:0:{MAX_POINTS - 1}"])
        assert arange.call_args.args == (MAX_POINTS,)

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["em", "--lattice", "q:1.5:2:30,h:0.001:0:30,h:1:1:9,h:0.5:1:9", "--trials", "1"], 137704590),
            (["check2d", "--grid", "h:1:0:9999,h:1:0:1000"], 10010000),
        ],
        ids=["em", "check2d"],
    )
    def test_oversized_lattice_refused_before_any_field(self, capsys, traced_peak, argv, count):
        # Each axis is within MAX_POINTS, their product is not.  A drawn field
        # or pattern fails the test before it allocates; the peak is that of
        # building the axes (1.4 MB for the 30,001-point one), far below one
        # lattice-sized field (1.1 GB for the em lattice).
        from tsnoether import em, multigrid

        drawn = AssertionError("a field was drawn on the lattice")
        with mock.patch.object(multigrid, "random_polynomial_field", side_effect=drawn), \
                mock.patch.object(em, "random_polynomial_field", side_effect=drawn), \
                mock.patch.object(multigrid, "_pattern_workspace", side_effect=drawn):
            code, peak = traced_peak(lambda: main(argv))
        assert code == 2 and peak < 4 * 2**20
        assert capsys.readouterr().err == f"error: the lattice would have {count} points, more than the limit of {MAX_POINTS}\n"

    def test_lattice_of_exactly_the_limit_is_built(self):
        from tsnoether.multigrid import GridD

        grid = GridD(tuple(parse_scale_spec(s) for s in ("h:1:0:9", "h:1:0:9", "h:1:0:99999")))
        assert grid.shape == (10, 10, 100000) and 10 * 10 * 100000 == MAX_POINTS

    @pytest.mark.parametrize("scale", ["h:1e-13:0:1e-11", "h:1:0:100", "h:1e13:0:1e15"])
    def test_csv_with_a_deleted_line_refused_at_any_step(self, tmp_path, capsys, scale):
        # A row's time must lie within 1e-12 max(|p|, mu(p)) of its point p, so
        # a row one point off is refused on a step of 1e-13 as on one of 1e13.
        csv = tmp_path / "d.csv"
        assert main(["derive", "--scale", scale, "--poly", "0,1,1", "--result-csv", str(csv)]) == 0
        el = ["el", "--scale", scale, "--lagrangian", "poisson", "--csv", str(csv), "--out", str(tmp_path / "e.json")]
        assert main(el) in (0, 1)
        lines = csv.read_text().splitlines(keepends=True)
        csv.write_text("".join(lines[:4] + lines[5:]))
        capsys.readouterr()
        assert main(el) == 2
        assert capsys.readouterr().err == f"error: {csv}: CSV times do not match the scale points\n"

    def test_family_order_beyond_the_scale_named(self, tmp_path, capsys):
        fam = tmp_path / "fam12.json"
        fam.write_text(json.dumps({"r": 1, "m": 12, "n": 2, "g": [[[1.0] * 13, [1.0] * 13]]}))
        # Refused before any coefficient is sampled.
        with mock.patch.object(noether, "_coeff_grid", side_effect=AssertionError("coefficient sampled")):
            code = main(["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference", "--family", str(fam)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {fam}: a family of order m = 12 needs more than 12 points, the scale has 10\n"

    def test_path_window_above_zero(self, tmp_path):
        # A path CSV that starts at t = 1 lives on the window [1, 5].
        path = tmp_path / "y.csv"
        path.write_text("t,y1\n" + "".join(f"{t}.0,{2 * t}.0\n" for t in range(1, 6)))
        code, data, _ = run(tmp_path, "el", "--scale", "h:1:0:5", "--lagrangian", "dirichlet", "--csv", str(path))
        assert code == 0
        assert data["sections"][0]["domain"] == [1, 3] and data["sections"][0]["sup_norm"] == 0.0

    @pytest.mark.parametrize("cmd", ["check-noether", "check-noether-time"])
    def test_identity_family_component_count_checked(self, tmp_path, capsys, cmd):
        fam = tmp_path / "fam_n1.json"
        fam.write_text(json.dumps({"r": 1, "m": 0, "n": 1, "g": [[[1.0]]], "f": [[0.0]]}))
        code, data, _ = run(tmp_path, cmd, "--scale", "h:1:0:10", "--lagrangian", "pair-difference",
                            "--family", str(fam), "--y-poly", "0,1,0.3;0,2")
        assert code == 2 and data is None
        assert capsys.readouterr().err == "error: component count mismatch: the family has n = 1, the path n = 2\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["check-invariance", "--scale", "h:1:0:20", "--lagrangian", "pair-difference", "--family", "{fam}"],
             "the family has n = 1, the path n = 2"),
            (["check2d", "--grid", "h:1:0:8,q:1.5:1:7", "--lagrangian", "dirichlet2", "--family", "grad2-broken"],
             "the family has n = 2, the field n = 1"),
        ],
        ids=["check-invariance", "check2d"],
    )
    def test_transform_component_count_named(self, tmp_path, capsys, args, message):
        fam = tmp_path / "fam_n1.json"
        fam.write_text(json.dumps({"r": 1, "m": 0, "n": 1, "g": [[[1.0]]]}))
        code, data, _ = run(tmp_path, *(a.format(fam=fam) for a in args))
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: component count mismatch: {message}\n"

    @pytest.mark.filterwarnings("error")  # a numpy warning would print before the message
    @pytest.mark.parametrize(
        "args, message",
        [
            (["integrate", "--scale", "h:1:0:5", "--poly", "inf"], "the path is not finite at t = 0.0"),
            (["derive", "--scale", "h:1:0:5", "--poly", "1,nan"], "the path is not finite at t = 0.0"),
            (["el", "--scale", "h:1:0:2", "--lagrangian", "dirichlet", "--csv", "{tmp}/y.csv"],
             "the path is not finite at t = 1.0"),
            (["check-invariance", "--scale", "h:1:0:10", "--lagrangian", "pair-difference", "--family", "pairdiff",
              "--y-poly", "0,1;0,1e308,1e308"], "the path is not finite at t = 1.0"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "nan", "--beta", "1"],
             "boundary values must be finite, got alpha [nan] and beta [1.0]"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta=-inf"],
             "boundary values must be finite, got alpha [0.0] and beta [-inf]"),
            (["integrate", "--scale", "h:1:0:5", "--poly", "0,0,inf"], "the path is not finite at t = 0.0"),
            (["integrate", "--scale", "h:1:0:5", "--poly", "0,0,1e308"], "the path is not finite at t = 2.0"),
            (["check-noether", "--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--family", "{tmp}/fam.json"],
             "{tmp}/fam.json: coefficient g[0][0][0] is not finite"),
        ],
        ids=["poly-inf", "poly-nan", "csv-nan", "y-poly-overflow", "alpha-nan", "beta-inf",
             "poly-invalid", "poly-overflow", "family-poly-overflow"],
    )
    def test_non_finite_path_or_boundary_refused(self, tmp_path, capsys, args, message):
        (tmp_path / "y.csv").write_text("t,y1\n0.0,1.0\n1.0,nan\n2.0,3.0\n")
        fam = {"r": 1, "m": 0, "n": 2, "g": [[[{"poly": [0.0, 0.0, 1e308]}], [1.0]]]}
        (tmp_path / "fam.json").write_text(json.dumps(fam))
        code, data, _ = run(tmp_path, *(a.replace("{tmp}", str(tmp_path)) for a in args))
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"

    def test_verdict_failure_exits_one(self, tmp_path):
        fam = write_pairdiff_family(tmp_path, broken=True)
        code, data, _ = run(
            tmp_path,
            "check-noether", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam),
        )
        assert code == 1 and data["verdict"] == "fail"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["scale", "--scale", "h:0.3:0:1"], "bad scale spec 'h:0.3:0:1': b - a must be a positive multiple of h"),
            (["scale", "--scale", "h:1:1:0"], "bad scale spec 'h:1:1:0': need b > a"),
            (["derive", "--scale", "h:1:0:5", "--order", "0"], "order must be >= 1"),
            (["solve", "--scale", "h:1:0:1", "--lagrangian", "poisson", "--alpha", "0", "--beta", "1"],
             "scale too small for a boundary value problem"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "0,1"],
             "alpha and beta dimensions differ: alpha has shape (1,), beta (2,)"),
            (["check2d", "--grid", "h:1:0:5"], "the lattice needs 2 scale specs, got 1"),
            (["check2d", "--grid", "h:1:0:5,h:1:0:5", "--lagrangian", "nope"], "unknown 2-d Lagrangian 'nope'"),
            (["check2d", "--grid", "h:1:0:5,h:1:0:5", "--family", "{tmp}/empty.json"],
             "{tmp}/empty.json: empty coefficient table"),
            (["em", "--lattice", "h:1:0:5,h:1:0:5"], "the lattice needs 4 scale specs, got 2"),
            (["integrate", "--scale", "h:1:0:5", "--poly", "1;2"], "expected 1 component polynomials"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "dirichlet", "--csv", "{tmp}/headless.csv"],
             "{tmp}/headless.csv: missing t,y1..yn header"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:0:1:1:1"],
             "bad inline quadratic spec 'quad:0:1:1:1': n must be at least 1"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:-1:1:1:1"],
             "bad inline quadratic spec 'quad:-1:1:1:1': n must be at least 1"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:1:x:0:0"], "bad inline quadratic spec 'quad:1:x:0:0'"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:1:1:1"], "bad inline quadratic spec 'quad:1:1:1'"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:1:nan:0:0", "--poly", "0,1"],
             "bad inline quadratic spec 'quad:1:nan:0:0': cv = nan is not finite"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:1:inf:0:0", "--poly", "0,1"],
             "bad inline quadratic spec 'quad:1:inf:0:0': cv = inf is not finite"),
            (["el", "--scale", "h:1:0:5", "--lagrangian", "quad:1:0.5:0:1e400", "--poly", "0,1"],
             "bad inline quadratic spec 'quad:1:0.5:0:1e400': cuv = inf is not finite"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "quad:1:nan:0:0", "--alpha", "0", "--beta", "1"],
             "bad inline quadratic spec 'quad:1:nan:0:0': cv = nan is not finite"),
            (["solve", "--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--alpha", "0", "--beta", "1"],
             "boundary dimension does not match the Lagrangian: boundary size 1, L.n = 2"),
            (["solve", "--scale", "h:1:0:9", "--lagrangian", "quad:2:1:0:0", "--alpha", "0", "--beta", "1"],
             "boundary dimension does not match the Lagrangian: boundary size 1, L.n = 2"),
            (["scale", "--scale", "explicit:@{tmp}/inf3.txt"],
             "bad scale spec 'explicit:@{tmp}/inf3.txt': point 2 of the scale, inf, is not a finite float"),
            (["scale", "--scale", "explicit:@{tmp}/inf2.txt"],
             "bad scale spec 'explicit:@{tmp}/inf2.txt': point 1 of the scale, inf, is not a finite float"),
            (["el", "--scale", "h:1:0:2", "--lagrangian", "dirichlet", "--csv", "{tmp}/word.csv"],
             "{tmp}/word.csv: line 3 has the field 'abc', which is not a number"),
            (["el", "--scale", "h:1:0:2", "--lagrangian", "dirichlet", "--csv", "{tmp}/blank.csv"],
             "{tmp}/blank.csv: line 4 has the field '', which is not a number"),
            (["scale", "--scale", "explicit:@{tmp}/word.txt"],
             "bad scale spec 'explicit:@{tmp}/word.txt': line 3 has the field 'abc', which is not a number"),
            (["scale", "--scale", "explicit:@{tmp}/gap.txt"],
             "bad scale spec 'explicit:@{tmp}/gap.txt': line 4 has the field '1 2', which is not a number"),
        ],
        ids=["scale-not-multiple", "scale-reversed", "derive-order-0", "solve-two-points", "solve-dimensions",
             "check2d-one-axis", "check2d-lagrangian", "check2d-empty-family", "em-two-axes", "integrate-components",
             "el-csv-header", "quad-zero-components", "quad-negative-components", "quad-coefficient-word",
             "quad-three-fields", "quad-nan", "quad-inf", "quad-overflow", "solve-quad-nan", "solve-boundary-dimension",
             "solve-quad-boundary-dimension",
             "explicit-inf-last", "explicit-inf-second", "csv-word", "csv-empty-field", "explicit-word",
             "explicit-two-numbers"],
    )
    @pytest.mark.filterwarnings("error")  # a numpy warning would print before the message
    def test_refusal_message(self, tmp_path, capsys, args, message):
        (tmp_path / "empty.json").write_text('{"a": []}')
        (tmp_path / "headless.csv").write_text("x,y1\n0.0,1.0\n")
        (tmp_path / "inf3.txt").write_text("0\n1\ninf\n")
        (tmp_path / "inf2.txt").write_text("0\ninf\n")
        (tmp_path / "word.csv").write_text("t,y1\n0.0,1.0\n1.0,abc\n2.0,3.0\n")
        (tmp_path / "blank.csv").write_text("t,y1\n0.0,1.0\n\n1.0,\n2.0,3.0\n")
        (tmp_path / "word.txt").write_text("0\n1\nabc\n3\n")
        (tmp_path / "gap.txt").write_text("0\n1\n\n1 2\n3\n")
        code, data, _ = run(tmp_path, *(a.replace("{tmp}", str(tmp_path)) for a in args))
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"

    def test_bare_command_exits_2(self, capsys):
        assert main([]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: noether")

    def test_singular_jacobian_exits_1(self, tmp_path, capsys):
        code, data, _ = run(tmp_path, "solve", "--scale", "h:1:0:4", "--lagrangian", "quad:1:1:-2:0",
                            "--alpha", "0", "--beta", "1")
        assert code == 1 and data is None
        assert capsys.readouterr().err.startswith("error: singular Jacobian:")


class TestScaleAndCalculus:
    def test_scale_report(self, tmp_path):
        code, data, _ = run(tmp_path, "scale", "--scale", "q:2:1:5")
        assert code == 0
        sec = data["sections"][0]
        assert sec["kind"] == "q-geometric"
        assert sec["condition_h"] == [2.0, 0.0]
        assert sec["points"] == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_step_that_divides_the_span_after_rounding(self, tmp_path):
        # 0.3 / 0.0001 is 2999.9999999999995 in floats: a multiple of h within rounding
        code, data, _ = run(tmp_path, "scale", "--scale", "h:0.0001:0:0.3")
        assert code == 0 and data["sections"][0]["n_points"] == 3001

    def test_derive_writes_csv(self, tmp_path):
        result = tmp_path / "d.csv"
        code = main(
            ["derive", "--scale", "h:1:0:5", "--poly", "0,0,1", "--order", "1",
             "--result-csv", str(result), "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        lines = result.read_text().splitlines()
        assert lines[0] == "t,y1"
        # derivative of t^2 on integers is 2t+1
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_integrate_value(self, tmp_path):
        code, data, _ = run(tmp_path, "integrate", "--scale", "q:2:1:4", "--poly", "0,1")
        assert code == 0
        assert data["sections"][0]["value"] == [21.0]

    def test_el_and_solve(self, tmp_path):
        code, data, _ = run(tmp_path, "el", "--scale", "h:1:0:5",
                            "--lagrangian", "dirichlet", "--poly", "0,1")
        assert code == 0 and data["sections"][0]["sup_norm"] == 0.0
        sol = tmp_path / "sol.csv"
        code = main(
            ["solve", "--scale", "h:1:0:5", "--lagrangian", "dirichlet",
             "--alpha", "0", "--beta", "5", "--result-csv", str(sol),
             "--out", str(tmp_path / "s.json")]
        )
        assert code == 0
        rows = [float(line.split(",")[1]) for line in sol.read_text().splitlines()[1:]]
        assert np.allclose(rows, np.arange(6.0), atol=1e-10)


class TestCheckers:
    def test_check_noether_family_file(self, tmp_path):
        fam = write_pairdiff_family(tmp_path)
        code, data, _ = run(
            tmp_path,
            "check-noether", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam),
        )
        assert code == 0
        assert data["sections"][0]["sup_norm"] <= 1e-9

    def test_check_noether_builtin_and_q_scale(self, tmp_path):
        code, data, _ = run(
            tmp_path,
            "check-noether", "--scale", "q:2:1:11",
            "--lagrangian", "pair-difference", "--family", "pairdiff",
        )
        assert code == 0 and data["verdict"] == "pass"

    def test_check_invariance(self, tmp_path):
        fam = write_pairdiff_family(tmp_path)
        code, data, _ = run(
            tmp_path,
            "check-invariance", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam),
            "--trials", "10",
        )
        assert code == 0

    def test_check_noether_time_zero_f(self, tmp_path):
        fam_path = tmp_path / "famt.json"
        fam_path.write_text(json.dumps({"r": 1, "m": 0, "n": 2,
                                        "g": [[[1.0], [1.0]]],
                                        "f": [[0.0]]}))
        code, data, _ = run(
            tmp_path,
            "check-noether-time", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam_path),
        )
        assert code == 0

    def test_check_noether_applies_the_family_f_table(self, tmp_path):
        # g = 0 and f = t: the family moves time alone, so its identity is
        # the f-weighted time-component term, and both commands report it.
        fam = tmp_path / "famf.json"
        fam.write_text(json.dumps({"r": 1, "m": 0, "n": 1, "g": [[[0.0]]], "f": [[{"poly": [0, 1]}]]}))
        args = ["--scale", "h:0.1:0:3", "--lagrangian", "dirichlet", "--family", str(fam), "--y-poly", "0,1,1"]
        code, plain, _ = run(tmp_path, "check-noether", *args)
        code_time, timed, _ = run(tmp_path, "check-noether-time", *args)
        assert code == code_time == 1
        assert plain["sections"] == timed["sections"]
        assert plain["sections"][0]["sup_norm"] == pytest.approx(39.44, rel=1e-6)

    def test_identity_commands_look_up_the_noether_functions(self, tmp_path, monkeypatch):
        # The parser is built once per process; each call must still reach
        # the functions bound on the noether module then, which is how the
        # benchmark's tracer times them.
        cli._build_parser()
        calls = []
        for name in ("noether_identity", "noether_identity_time"):
            original = getattr(cli.nt, name)
            monkeypatch.setattr(cli.nt, name, lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k))
        args = ["--scale", "h:1:0:10", "--lagrangian", "pair-difference", "--family", "pairdiff-time0"]
        assert run(tmp_path, "check-noether", *args)[0] == 0
        assert run(tmp_path, "check-noether-time", *args)[0] == 0
        assert calls == ["noether_identity", "noether_identity_time"]

    def test_check2d(self, tmp_path):
        code, data, _ = run(
            tmp_path,
            "check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "10",
        )
        assert code == 0
        names = {s["name"] for s in data["sections"]}
        assert names == {"invariance", "identity"}

    def test_check2d_broken_family(self, tmp_path):
        code, data, _ = run(
            tmp_path,
            "check2d", "--grid", "h:1:0:5,h:1:0:5", "--family", "grad2-broken",
            "--trials", "5",
        )
        assert code == 1

    def test_em_small_lattice(self, tmp_path):
        code, data, _ = run(
            tmp_path,
            "em", "--lattice", "h:1:0:4,h:1:0:4,h:1:0:4,h:1:0:4", "--trials", "5",
        )
        assert code == 0
        names = [s["name"] for s in data["sections"]]
        assert names == ["gauge-invariance", "identity", "lorentz", "wave-form"]

    def test_oracle_fl_modes(self, tmp_path):
        code, _, _ = run(tmp_path, "oracle-fl", "--scale", "h:1:0:8", "--order", "1")
        assert code == 0
        code, data, _ = run(tmp_path, "oracle-fl", "--scale", "h:1:0:8",
                            "--order", "1", "--mode", "impulse", name="r2.json")
        assert code == 1 and data["sections"][0]["consistent"]

    def test_explicit_affine_scale_reaches_identity_and_lemma(self, tmp_path):
        # sigma(t) = 1.25 t + 0.5 from -0.75: a jump law that is neither h nor
        # q, fitted on a scale that crosses 0.  Each control passes and each
        # broken one fails, the identity's by more than 10^3 x its tolerance.
        pts = [-0.75]
        for _ in range(19):
            pts.append(1.25 * pts[-1] + 0.5)
        points = tmp_path / "affine.txt"
        points.write_text("".join(f"{p!r}\n" for p in pts))
        scale = ["--scale", f"explicit:@{points}"]
        code, data, _ = run(tmp_path, "scale", *scale, name="scale.json")
        assert code == 0 and data["sections"][0]["condition_h"] == [1.25, 0.5]
        identity = ["check-noether", *scale, "--lagrangian", "pair-difference", "--family"]
        code, data, _ = run(tmp_path, *identity, "pairdiff", name="pairdiff.json")
        assert code == 0 and data["sections"][0]["sup_norm"] == 0.0
        code, data, _ = run(tmp_path, *identity, "pairdiff-broken", name="broken.json")
        section = data["sections"][0]
        assert code == 1 and section["sup_norm"] > 1e3 * section["tolerance"]
        code, data, _ = run(tmp_path, "oracle-fl", *scale, "--order", "2", name="fl.json")
        assert code == 0 and data["sections"][0]["consistent"]
        code, data, _ = run(tmp_path, "oracle-fl", *scale, "--order", "2", "--mode", "impulse", name="impulse.json")
        assert code == 1 and data["sections"][0]["consistent"]

    @pytest.mark.parametrize("step", [1e-114, 1e-14, 1e-13, 1.0, 1e13])
    def test_explicit_scale_off_its_fitted_law_refused_at_any_step(self, tmp_path, capsys, step):
        # sigma(t) = 2t + step fits the first two gaps, and the fourth point
        # lies 3.5 steps below sigma(3 step).  The fit rule 1e-12 max(1, |t|)
        # fitted (2, step) at steps of 1e-13 and less, and the identity passed
        # there with sup 0.
        points = tmp_path / "off.txt"
        points.write_text("".join(f"{p!r}\n" for p in (np.array([0, 1, 3, 3.5, 7, 7.2]) * step).tolist()))
        argv = ["check-noether", "--scale", f"explicit:@{points}", "--lagrangian", "pair-difference", "--family", "pairdiff"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: this check needs a scale with an affine jump law sigma(t) = b1*t + b0\n"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        fam = write_pairdiff_family(tmp_path)
        args = ["check-invariance", "--scale", "h:1:0:10",
                "--lagrangian", "pair-difference", "--family", str(fam),
                "--trials", "8", "--seed", "42"]
        _, _, out1 = run(tmp_path, *args, name="a.json")
        _, _, out2 = run(tmp_path, *args, name="b.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        args = ["em", "--lattice", "h:1:0:4,h:1:0:4,h:1:0:4,h:1:0:4", "--trials", "3"]
        _, _, out1 = run(tmp_path, *args, "--seed", "1", name="a.json")
        _, _, out2 = run(tmp_path, *args, "--seed", "2", name="b.json")
        assert out1.read_bytes() != out2.read_bytes()

    def test_verbose_adds_per_point(self, tmp_path):
        fam = write_pairdiff_family(tmp_path)
        _, slim, _ = run(tmp_path, "check-noether", "--scale", "h:1:0:10",
                         "--lagrangian", "pair-difference", "--family", str(fam),
                         name="slim.json")
        _, fat, _ = run(tmp_path, "check-noether", "--scale", "h:1:0:10",
                        "--lagrangian", "pair-difference", "--family", str(fam),
                        "--verbose", name="fat.json")
        _, slim_again, _ = run(tmp_path, "check-noether", "--scale", "h:1:0:10",
                               "--lagrangian", "pair-difference", "--family", str(fam),
                               name="slim_again.json")
        assert "per_point" not in slim["sections"][0]
        assert "per_point" in fat["sections"][0]
        assert slim_again == slim


class TestOneParser:
    """main builds its parser once per process; no call leaves state that
    changes the next one (for --verbose, see test_verbose_adds_per_point)."""

    CHECK = ["check-noether", "--scale", "h:1:0:10", "--lagrangian", "pair-difference", "--family", "pairdiff"]

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_out_does_not_stick(self, tmp_path, capsys):
        code, data, out = run(tmp_path, *self.CHECK)
        assert code == 0 and out.exists()
        capsys.readouterr()
        assert main(self.CHECK) == 0
        assert json.loads(capsys.readouterr().out) == data

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self.CHECK, "--no-such-option"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-option" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["el", "--scale", "h:1:0:5"])
        assert "required: --lagrangian" in capsys.readouterr().err
        code, data, _ = run(tmp_path, *self.CHECK, "--seed", "3")
        assert code == 0 and data["command"] == "check-noether" and data["seed"] == 3


class TestFamilyCoefficientForms:
    def test_polynomial_and_csv_coefficients(self, tmp_path):
        import tsnoether as tn

        ts = tn.parse_scale_spec("h:1:0:10")
        coeff = tn.GridFunction(ts, 0, np.full(11, 1.0))
        coeff_path = tmp_path / "g22.csv"
        tn.write_csv(coeff, coeff_path)
        fam = {
            "r": 1,
            "m": 0,
            "n": 2,
            "g": [[[{"poly": [1.0]}], [{"csv": str(coeff_path)}]]],
        }
        fam_path = tmp_path / "fam_forms.json"
        fam_path.write_text(json.dumps(fam))
        code, data, _ = run(
            tmp_path,
            "check-noether", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam_path),
        )
        assert code == 0 and data["sections"][0]["sup_norm"] <= 1e-9

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"m": 0, "n": 2, "g": [[[1.0], [1.0]]]}, "a family file needs r, m, n and g; missing: r"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], {"poly": [0, 1]}]]},
             "g[0][1] must be a list of m + 1 = 1 coefficient specs, got {'poly': [0, 1]}"),
            ({"r": 1, "m": 1, "n": 2, "g": [[[1.0, 0.5], [1.0]]]},
             "g[0][1] must be a list of m + 1 = 2 coefficient specs, got [1.0]"),
            ({"r": 1, "m": 0, "n": 2, "g": [1.0, 1.0]}, "bad.json: g must be r = 1 rows of n = 2 entries each"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0]]]}, "bad.json: g must be r = 1 rows of n = 2 entries each"),
            ('{"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0', "bad.json: Expecting ',' delimiter: line 1 column 44 (char 43)"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"csv": "gword.csv"}]]]},
             "coefficient g[0][1][0]: gword.csv: line 3 has the field 'abc', which is not a number"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"csv": "gshift.csv"}]]]},
             "coefficient g[0][1][0]: gshift.csv: CSV times do not match the scale points"),
            ({"r": None, "m": 0, "n": 2, "g": [[[1.0], [1.0]]]}, "r, m and n must be non-negative integers"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0]]], "f": []},
             "the f table needs one row per parameter (r = 1), got []"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"poly": 5}], [1.0]]]},
             'coefficient g[0][0][0]: "poly" must be a non-empty list of numbers, got 5'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"poly": None}], [1.0]]]},
             'coefficient g[0][0][0]: "poly" must be a non-empty list of numbers, got None'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"poly": [[1]]}]]]},
             'coefficient g[0][1][0]: "poly" must be a non-empty list of numbers, got [[1]]'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"poly": []}], [1.0]]]},
             'coefficient g[0][0][0]: "poly" must be a non-empty list of numbers, got []'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"poly": [0, True]}], [1.0]]]},
             'coefficient g[0][0][0]: "poly" must be a non-empty list of numbers, got [0, True]'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"csv": None}], [1.0]]]},
             'coefficient g[0][0][0]: "csv" must be a file path, got None'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[{"csv": 5}], [1.0]]]},
             'coefficient g[0][0][0]: "csv" must be a file path, got 5'),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [True]]]},
             'coefficient g[0][1][0] must be a number, {"poly": [...]} or {"csv": path}, got True'),
            ({"r": True, "m": 0, "n": 2, "g": [[[1.0], [1.0]]]},
             "r, m and n must be non-negative integers, got [True, 0, 2]"),
            ({"r": 1, "m": False, "n": 2, "g": [[[1.0], [1.0]]]},
             "r, m and n must be non-negative integers, got [1, False, 2]"),
            ({"r": 1, "m": 0, "n": True, "g": [[[1.0], [1.0]]]},
             "r, m and n must be non-negative integers, got [1, 0, True]"),
            ({"r": 0, "m": 0, "n": 2, "g": []}, "bad.json: r and n must be positive, got r = 0, n = 2"),
            ({"r": 1, "m": 0, "n": 0, "g": [[]]}, "bad.json: r and n must be positive, got r = 1, n = 0"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"csv": "g3.csv"}]]]},
             "coefficient g[0][1][0]: the CSV covers [0, 2], not the family window [0, 9]"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [{"csv": "nothere.csv"}]]]},
             "coefficient g[0][1][0]: [Errno 2] No such file or directory: 'nothere.csv'"),
        ],
        ids=["missing-r", "bare-spec", "short-row", "flat-g", "short-g", "truncated", "csv-word", "csv-times", "null-r",
             "short-f", "poly-number", "poly-null", "poly-nested", "poly-empty", "poly-bool", "csv-null", "csv-number",
             "bool-constant", "bool-r", "bool-m", "bool-n", "zero-r", "zero-n", "csv-short", "csv-missing"],
    )
    def test_malformed_family_file_named(self, tmp_path, monkeypatch, capsys, family, message):
        # g3.csv, a coefficient on 3 of the scale's 10 points, for the csv-short case,
        # and gshift.csv, whose times sit between the points; a string family is the
        # file's text.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g3.csv").write_text("t,y1\n0.0,1.0\n1.0,1.0\n2.0,1.0\n")
        (tmp_path / "gword.csv").write_text("t,y1\n0.0,1.0\n1.0,abc\n2.0,1.0\n")
        (tmp_path / "gshift.csv").write_text("t,y1\n0.5,1.0\n1.5,1.0\n")
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(family if isinstance(family, str) else json.dumps(family))
        code = main(["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference",
                     "--family", str(fam_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fam_path}: ") and message in err and err.count("bad.json") == 1

    @pytest.mark.parametrize(
        "family, message",
        [
            ('{"a": [[0, 1]]}', "row 0 needs d + 1 = 3 coefficients, got 2"),
            ('{"a": [[0, 1, 0], [0, 1, 0, 0]]}', "row 1 needs d + 1 = 3 coefficients, got 4"),
            ('{"a": 5}', "the coefficient table must be rows of numbers: 'int' object is not iterable"),
            ('{"a": []}', "empty coefficient table"),
            ('{"a": [[]]}', "empty coefficient table"),
            ('{"a": [[0, 1, 0]', "Expecting ',' delimiter: line 1 column 17 (char 16)"),
        ],
        ids=["short-row", "long-row", "number", "no-rows", "empty-row", "truncated"],
    )
    def test_malformed_2d_family_file_named(self, tmp_path, capsys, family, message):
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(family)
        code, data, _ = run(tmp_path, "check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2", "--family", str(fam_path))
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: {fam_path}: {message}\n"

    def test_csv_coefficient_with_two_components_named(self, tmp_path, capsys):
        import tsnoether as tn

        ts = tn.parse_scale_spec("h:1:0:9")
        coeff_path = tmp_path / "g00.csv"
        tn.write_csv(tn.GridFunction(ts, 0, np.ones((10, 2))), coeff_path)
        fam_path = tmp_path / "two.json"
        fam_path.write_text(json.dumps({"r": 1, "m": 0, "n": 2, "g": [[[{"csv": str(coeff_path)}], [1.0]]]}))
        code = main(["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference",
                     "--family", str(fam_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {fam_path}: coefficient g[0][0][0] must have one component\n"

    def test_bad_coefficient_spec(self, tmp_path):
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(json.dumps({"r": 1, "m": 0, "n": 1, "g": [[["nope"]]]}))
        code = main(["check-noether", "--scale", "h:1:0:10",
                     "--lagrangian", "dirichlet", "--family", str(fam_path)])
        assert code == 2


def test_em_default_lattice_passes(tmp_path):
    code, data, _ = run(tmp_path, "em", "--lattice", "default")
    assert code == 0 and data["verdict"] == "pass"


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(["h:0.25:-1:2", "q:1.5:0.5:12", "real:0.1:-3:-1", "q:3:1:600"]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_seeded_path_bitwise_equals_earlier_copy(spec, n, seed, data):
    ts = parse_scale_spec(spec)
    hi = data.draw(st.integers(0, len(ts) - 1))
    y = cli._load_path(argparse.Namespace(seed=seed), ts, n, hi)
    assert y.window == (0, hi) and y.values.flags.c_contiguous
    assert y.values.tobytes() == reference.seeded_path(seed, ts, n, hi).tobytes()


def test_each_operation_has_one_form(monkeypatch):
    # A window is set by restrict, a density is read through sample, and
    # only bad input's ValueError or OSError exits 2: no second form of any.
    assert list(inspect.signature(delta_integral).parameters) == ["f"]
    assert list(inspect.signature(GridFunction.from_callable).parameters) == ["ts", "fn"]
    assert list(inspect.signature(cli._load_path).parameters) == ["args", "ts", "n", "hi"]
    assert not hasattr(Lagrangian, "at")
    # A point is points[i], a gap np.diff of the points, a sample
    # values[i - lo], and a several-component path one np.column_stack.
    assert not any(hasattr(TimeScale, name) for name in ("t", "mu", "mu_array"))
    assert not any(hasattr(GridFunction, name) for name in ("at", "times", "stack"))
    assert not any(hasattr(noether, name) for name in ("_impulse", "_el_uniform"))
    # One return form: a tuple of one GridFunction per partial asked for.
    y = GridFunction(h_uniform(1.0, 0, 4), 0, np.arange(5.0))
    one = lagrangian_along(catalog("dirichlet"), y, "u")
    assert type(one) is tuple and len(one) == 1 and isinstance(one[0], GridFunction)

    def lookup_bug(spec):
        raise KeyError(spec)

    monkeypatch.setattr(cli, "parse_scale_spec", lookup_bug)
    with pytest.raises(KeyError):
        main(["scale", "--scale", "h:1:0:5"])


# The least argv of each command, and the commands that read --seed (a
# random path, probe or field) and --verbose (per-point arrays).
COMMAND_ARGS = {
    "scale": ["--scale", "h:1:0:5"],
    "derive": ["--scale", "h:1:0:5"],
    "integrate": ["--scale", "h:1:0:5"],
    "el": ["--scale", "h:1:0:5", "--lagrangian", "dirichlet"],
    "solve": ["--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5"],
    "check-invariance": ["--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--family", "pairdiff"],
    "check-noether": ["--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--family", "pairdiff"],
    "check-noether-time": ["--scale", "h:1:0:5", "--lagrangian", "pair-difference", "--family", "pairdiff-time0"],
    "check2d": ["--grid", "h:1:0:5,h:1:0:5"],
    "em": [],
    "oracle-fl": ["--scale", "h:1:0:5"],
}
READERS = {
    ("--seed", "1"): set(COMMAND_ARGS) - {"scale", "solve"},
    ("--verbose",): set(COMMAND_ARGS) - {"scale", "integrate", "oracle-fl"},
}


@pytest.mark.parametrize("option", list(READERS), ids=[o[0] for o in READERS])
@pytest.mark.parametrize("cmd", list(COMMAND_ARGS))
def test_options_only_where_read(capsys, cmd, option):
    """A command lists --seed and --verbose only when it reads them; the
    rest refuse them as usage errors."""
    argv = [cmd, *COMMAND_ARGS[cmd], *option]
    if cmd in READERS[option]:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, option[0][2:]) == (1 if option[0] == "--seed" else True)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: noether")
    assert f"unrecognized arguments: {' '.join(option)}" in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(fence: str) -> str:
    """The first ```<fence> block under README's "## Command line" heading."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


README_COMMANDS = [shlex.split(line) for line in readme_block("sh").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[1] for argv in README_COMMANDS])
def test_readme_command_examples_run(tmp_path, monkeypatch, capsys, argv):
    """Each documented command parses and runs: it exits 0 or 1, never 2, so
    the README cannot keep an option or input the program refuses."""
    monkeypatch.chdir(tmp_path)
    for name in ("fam.json", "famt.json"):
        (tmp_path / name).write_text(readme_block("json"))
    assert argv[0] == "noether"
    try:
        code = main(argv[1:])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1), capsys.readouterr().err


def test_ab_tool_on_two_copies_of_one_tree(tmp_path):
    # tools/ab.py imports each tree's package under its own name in one
    # process; two copies of one tree write the same bytes.
    root = Path(__file__).resolve().parent.parent
    for side in "ab":
        shutil.copytree(root / "src", tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    # --fixed-heap prints the default reading, then the one under fixed
    # malloc thresholds.
    trees = [str(tmp_path / "a"), str(tmp_path / "b"), "scale", "--scale", "h:1:0:3"]
    for mode, prefixes in (([], [""]), (["--fixed-heap"], ["default heap: ", "fixed heap:   "])):
        argv = [sys.executable, str(root / "tools" / "ab.py"), *mode, *trees]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == len(prefixes), done.stdout
        for prefix, line in zip(prefixes, lines):
            found = re.fullmatch(
                prefix + r"A \S+ ms, B \S+ ms; B/A median (\S+) \(IQR (\S+)-(\S+)\) over 30 pairs; "
                r"minor faults per call A (\S+), B (\S+); traced peak A (\S+) MiB, B (\S+) MiB; "
                r"stdout identical: yes",
                line,
            )
            assert found, done.stdout
            q1, median, q3 = float(found[2]), float(found[1]), float(found[3])
            assert 0 < q1 <= median <= q3
            assert all(float(found[i]) >= 0 for i in (4, 5, 6, 7))


def test_ab_tool_fixed_heap_refused_without_mallopt():
    # Where libc has no mallopt, --fixed-heap exits 2 before importing a tree.
    tool = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
    script = (
        "import ctypes, runpy, sys\n"
        "ctypes.CDLL = lambda name: object()\n"
        f"sys.argv = [{str(tool)!r}, '--fixed-heap', 'no-tree-a', 'no-tree-b', 'scale']\n"
        f"runpy.run_path({str(tool)!r}, run_name='__main__')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "mallopt" in done.stderr and not done.stdout


# The built-in 1-D families as the tables (g, f) they hold.
BUILTIN_FAMILIES = {
    "pairdiff": ([[[1.0], [1.0]]], None),
    "pairdiff-broken": ([[[1.1], [1.0]]], None),
    "pairdiff-time0": ([[[1.0], [1.0]]], [[0.0]]),
    "time-translation": ([[[0.0]]], [[1.0]]),
}


def family_bits(fam):
    """The scale, the window, and the shape and bytes of each table."""
    return fam.ts, fam.window, fam.g.shape, fam.g.tobytes(), None if fam.f is None else (fam.f.shape, fam.f.tobytes())


@pytest.mark.parametrize("name", list(BUILTIN_FAMILIES))
@pytest.mark.parametrize("spec", ["h:0.5:0:4", "q:2:1:7", "real:0.25:-1:1"])
def test_builtin_family_tables_equal_earlier_code(name, spec):
    ts = parse_scale_spec(spec)
    fam = cli.load_family(name, functools.partial(noether.GaugeFamily.from_table, ts))
    assert family_bits(fam) == family_bits(reference.constant_family(ts, *BUILTIN_FAMILIES[name]))


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(["h:0.5:0:4", "q:2:1:7", "real:0.25:-1:1"]),
    r=st.integers(1, 3),
    n=st.integers(1, 3),
    m=st.integers(0, 2),
    moves_time=st.booleans(),
    data=st.data(),
)
def test_constant_family_equals_earlier_code_and_family_file(spec, r, n, m, moves_time, data):
    # One builder: the constant case, its reference (each entry held along
    # the window) and the same table read from a JSON file give the same bits.
    ts = parse_scale_spec(spec)
    def rows(size, entry):
        return st.lists(entry, min_size=size, max_size=size)

    orders = rows(m + 1, st.floats(allow_nan=False, allow_infinity=False))
    g = data.draw(rows(r, rows(n, orders)), label="g")
    f = data.draw(rows(r, orders), label="f") if moves_time else None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fam.json"
        path.write_text(json.dumps({"r": r, "m": m, "n": n, "g": g, **({"f": f} if moves_time else {})}))
        from_file = cli.load_family(str(path), functools.partial(noether.GaugeFamily.from_table, ts))
    fam = noether.GaugeFamily.constant(ts, g, f=f)
    assert family_bits(fam) == family_bits(reference.constant_family(ts, g, f)) == family_bits(from_file)


def test_noether_time_on_a_million_points_peaks_below_90_mib(tmp_path, traced_peak):
    # The constant family holds one value per entry.  Held per point, its
    # tables and their copies took this command's traced peak to 106.8 MiB.
    argv = ["check-noether-time", "--scale", "h:1:0:999999", "--lagrangian", "pair-difference",
            "--family", "pairdiff-time0", "--out", str(tmp_path / "report.json")]
    code, peak = traced_peak(lambda: main(argv))
    assert code == 0 and peak < 90 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "name, rows",
    [("grad2", [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]), ("grad2-broken", [(0.0, 1.1, 0.0), (0.0, 0.0, 1.0)])],
)
def test_builtin_2d_family_tables_equal_earlier_code(name, rows):
    from tsnoether.multigrid import GaugeFamilyD

    grid = cli._lattice(["h:1:0:5", "q:2:1:6"], 2)
    assert cli.load_family(name, functools.partial(GaugeFamilyD.from_table, grid)) == GaugeFamilyD(grid, rows)


def test_one_family_reader(tmp_path):
    # cli resolves a name or a path and names it in each refusal, 1-D or
    # d-D alike; each family class reads its own table format.
    from tsnoether.multigrid import GaugeFamilyD

    assert list(inspect.signature(cli.load_family).parameters) == ["path_or_name", "build"]
    assert list(inspect.signature(noether.GaugeFamily.from_table).parameters) == ["ts", "table"]
    assert list(inspect.signature(GaugeFamilyD.from_table).parameters) == ["grid", "table"]
    assert not any(hasattr(cli, name) for name in ("_family_table", "load_family2d"))
    grid = cli._lattice(["h:1:0:5", "q:2:1:6"], 2)
    for table in ({"b": [[0.0, 1.0, 0.0]]}, [[0.0, 1.0, 0.0]], None):
        with pytest.raises(ValueError) as err:
            GaugeFamilyD.from_table(grid, table)
        assert str(err.value) == 'a d-D family file needs an "a" coefficient table'
    build = functools.partial(GaugeFamilyD.from_table, cli._lattice(["h:1:0:5"] * 3, 3))
    (tmp_path / "a2.json").write_text('{"a": [[0, 1]]}')
    (tmp_path / "anoa.json").write_text('{"b": [[0, 1, 0]]}')
    for name, message in (
        (str(tmp_path / "a2.json"), "row 0 needs d + 1 = 4 coefficients, got 2"),
        (str(tmp_path / "anoa.json"), 'a d-D family file needs an "a" coefficient table'),
        ("grad2", "row 0 needs d + 1 = 4 coefficients, got 3"),
    ):
        with pytest.raises(ValueError) as err:
            cli.load_family(name, build)
        assert str(err.value) == f"{name}: {message}"


def test_removed_parameters_are_gone():
    # One value each: the family window starts at the scale minimum, the
    # default lattice has one size, em draws one degree, and the lattice
    # command names its axis count.
    from tsnoether import em

    assert list(inspect.signature(noether.GaugeFamily).parameters) == ["ts", "g", "f"]
    assert list(inspect.signature(noether._coeff_grid).parameters) == ["ts", "spec", "hi", "name"]
    assert list(inspect.signature(em.default_lattice).parameters) == []
    assert list(inspect.signature(em.random_em_field).parameters) == ["grid", "seed"]
    assert list(inspect.signature(cli._lattice).parameters) == ["specs", "d"]


@contextmanager
def no_field_drawn():
    """Fail the test on any draw of a random lattice field, check2d's or em's."""
    from tsnoether import em, multigrid

    drawn = AssertionError("a lattice field was drawn")
    with mock.patch.object(multigrid, "random_polynomial_field", side_effect=drawn), \
            mock.patch.object(em, "random_polynomial_field", side_effect=drawn):
        yield


@pytest.mark.parametrize(
    "args, message",
    [
        (["check2d", "--grid", "h:1:0:5"], "the lattice needs 2 scale specs, got 1"),
        (["check2d", "--grid", ",".join(["h:1:0:5"] * 3)], "the lattice needs 2 scale specs, got 3"),
        (["check2d", "--grid", ",".join(["h:1:0:5"] * 3), "--family", "{tmp}/grad3.json"],
         "the lattice needs 2 scale specs, got 3"),
        (["check2d", "--grid", ",".join(["h:1:0:5"] * 4)], "the lattice needs 2 scale specs, got 4"),
        (["em", "--lattice", "h:1:0:5,h:1:0:5"], "the lattice needs 4 scale specs, got 2"),
    ],
    ids=["check2d-1", "check2d-3", "check2d-3-family-of-3-axes", "check2d-4", "em-2"],
)
def test_lattice_axis_count_refused_before_any_field(tmp_path, capsys, args, message):
    # The count is checked where the specs are read, so neither the built-in
    # family nor a family of as many axes as the grid is blamed for it.
    (tmp_path / "grad3.json").write_text('{"a": [[0, 1, 0, 0], [0, 0, 1, 0]]}')
    with no_field_drawn():
        code, data, _ = run(tmp_path, *(a.replace("{tmp}", str(tmp_path)) for a in args))
    assert code == 2 and data is None
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args", [["check2d", "--grid", "h:1:0:5,h:1:0:5"], ["em", "--lattice", "default"]])
def test_field_guard_fires_on_a_lattice_of_the_right_count(tmp_path, args):
    with no_field_drawn(), pytest.raises(AssertionError, match="a lattice field was drawn"):
        run(tmp_path, *args, "--trials", "1")


@pytest.mark.parametrize("lagrangian", ["pair-difference", "quad:2:0.5:0.3:0.2"])
@pytest.mark.parametrize(
    "spec", ["h:1:0:10", "q:1.1:1:40", "real:0.0001:0:1", "h:0.1:0:3", "explicit:@geo.txt", "explicit:@gaps.txt"]
)
def test_zero_time_table_leaves_invariance_bits(tmp_path, monkeypatch, capsys, spec, lagrangian):
    # An all-zero f table sends every trial through the image scale of the
    # identity time map; the report must be the one of the family without f.
    # geo.txt holds 1.05^k, k < 31; gaps.txt 31 points whose gaps, drawn
    # from uniform(0.5, 1.5), fit no jump law.
    monkeypatch.chdir(tmp_path)
    points = np.round(np.cumsum(np.random.default_rng(5).uniform(0.5, 1.5, 31)) - 1.0, 6)
    for name, pts in (("geo.txt", 1.05 ** np.arange(31)), ("gaps.txt", points)):
        (tmp_path / name).write_text("".join(f"{p!r}\n" for p in pts.tolist()))
    if spec == "explicit:@gaps.txt":
        assert parse_scale_spec(spec).condition_h is None
    reports = []
    for family in ("pairdiff", "pairdiff-time0"):
        code = main(["check-invariance", "--scale", spec, "--lagrangian", lagrangian, "--family", family, "--verbose"])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "density",
    ["dirichlet", "poisson", "pair-difference", "quad:3:0.5:-0.3:0.2", "curl2", "dirichlet2", "em"],
)
def test_every_command_density_has_all_its_partials(density):
    # A check refuses a density that lacks a partial it reads, so a command
    # density with all of them keeps every exit code and report byte.
    from tsnoether import em, multigrid

    rng = np.random.default_rng(7)
    if density in ("curl2", "dirichlet2", "em"):
        L = em.em_lagrangian() if density == "em" else multigrid.catalog2d(density)
        coords = tuple(rng.uniform(1, 2, 3).reshape((1,) * ax + (3,) + (1,) * (L.d - ax - 1)) for ax in range(L.d))
        U, G = rng.uniform(-2, 2, (L.n,) + (3,) * L.d), rng.uniform(-2, 2, (L.d, L.n) + (3,) * L.d)
        parts = [(w, L.sample(w, coords, U, G)) for w in "ug"]
    else:
        L = catalog(density)
        T, U, V = rng.uniform(-2, 2, 5), rng.uniform(-2, 2, (5, L.n)), rng.uniform(-2, 2, (5, L.n))
        parts = [(w, L.sample(w, T, U, V)) for w in "tuv"]
    assert all(getattr(L, f"d_{w}") is not None and np.all(np.isfinite(p)) for w, p in parts)
