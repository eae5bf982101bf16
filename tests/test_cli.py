import argparse
import json
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnoether import cli
from tsnoether.cli import main
from tsnoether.timescale import MAX_POINTS, parse_scale_spec


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
        "args, message",
        [
            (["check-noether", "--scale", "h:1:0:20", "--lagrangian", "pair-difference",
              "--family", "pairdiff-broken", "--tol", "inf"], "--tol must be finite and non-negative, got inf"),
            (["em", "--lattice", "default", "--trials", "2", "--tol", "nan"],
             "--tol must be finite and non-negative, got nan"),
            (["check2d", "--grid", "h:1:0:5,h:1:0:5", "--trials", "2", "--inv-tol", "-1"],
             "--inv-tol must be finite and non-negative, got -1.0"),
        ],
        ids=["check-noether-inf", "em-nan", "check2d-inv-tol-negative"],
    )
    def test_bad_tolerance_rejected(self, tmp_path, capsys, args, message):
        code, data, _ = run(tmp_path, *args)
        assert code == 2 and data is None
        assert capsys.readouterr().err == f"error: {message}\n"

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
        ],
        ids=["check2d-nan", "check2d-inf", "check-noether-nan", "check-invariance-inf-poly", "check2d-no-a",
             "check2d-rows"],
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
    def test_oversized_scale_refused_before_allocation(self, capsys, spec, count):
        tracemalloc.start()
        try:
            code = main(["scale", "--scale", spec])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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

    def test_family_order_beyond_the_scale_named(self, tmp_path, capsys):
        fam = tmp_path / "fam12.json"
        fam.write_text(json.dumps({"r": 1, "m": 12, "n": 2, "g": [[[1.0] * 13, [1.0] * 13]]}))
        # Refused before any coefficient is sampled.
        with mock.patch.object(cli, "_coeff_grid", side_effect=AssertionError("coefficient sampled")):
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
             "coefficient g[0][0][0] is not finite"),
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
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verdict_failure_exits_one(self, tmp_path):
        fam = write_pairdiff_family(tmp_path, broken=True)
        code, data, _ = run(
            tmp_path,
            "check-noether", "--scale", "h:1:0:10",
            "--lagrangian", "pair-difference", "--family", str(fam),
        )
        assert code == 1 and data["verdict"] == "fail"


class TestScaleAndCalculus:
    def test_scale_report(self, tmp_path):
        code, data, _ = run(tmp_path, "scale", "--scale", "q:2:1:5")
        assert code == 0
        sec = data["sections"][0]
        assert sec["kind"] == "q-geometric"
        assert sec["condition_h"] == [2.0, 0.0]
        assert sec["points"] == [1.0, 2.0, 4.0, 8.0, 16.0]

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
            ({"r": 1, "m": 0, "n": 2, "g": [1.0, 1.0]}, "family table shape does not match r and n"),
            ({"r": None, "m": 0, "n": 2, "g": [[[1.0], [1.0]]]}, "r, m and n must be non-negative integers"),
            ({"r": 1, "m": 0, "n": 2, "g": [[[1.0], [1.0]]], "f": []},
             "the f table needs one row per parameter (r = 1), got []"),
        ],
        ids=["missing-r", "bare-spec", "short-row", "flat-g", "null-r", "short-f"],
    )
    def test_malformed_family_file_named(self, tmp_path, capsys, family, message):
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(json.dumps(family))
        code = main(["check-noether", "--scale", "h:1:0:9", "--lagrangian", "pair-difference",
                     "--family", str(fam_path)])
        assert code == 2
        assert message in capsys.readouterr().err

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
        assert capsys.readouterr().err == "error: coefficient g[0][0][0] must have one component\n"

    def test_bad_coefficient_spec(self, tmp_path):
        fam_path = tmp_path / "bad.json"
        fam_path.write_text(json.dumps({"r": 1, "m": 0, "n": 1, "g": [[["nope"]]]}))
        code = main(["check-noether", "--scale", "h:1:0:10",
                     "--lagrangian", "dirichlet", "--family", str(fam_path)])
        assert code == 2


def test_em_default_lattice_passes(tmp_path):
    code, data, _ = run(tmp_path, "em", "--lattice", "default")
    assert code == 0 and data["verdict"] == "pass"


def earlier_seeded_path(seed, ts, n, lo, hi):
    """The random path of _load_path as it was before its coefficients were
    drawn at once: one draw of four and one polyval per component."""
    rng = np.random.default_rng([seed, 97])
    t = ts.points[lo : hi + 1] / max(1.0, np.max(np.abs(ts.points)))
    return np.column_stack([np.polynomial.polynomial.polyval(t, rng.uniform(-1, 1, 4)) for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(["h:0.25:-1:2", "q:1.5:0.5:12", "real:0.1:-3:-1", "q:3:1:600"]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_seeded_path_bitwise_equals_earlier_copy(spec, n, seed, data):
    ts = parse_scale_spec(spec)
    lo = data.draw(st.integers(0, 2))
    hi = data.draw(st.integers(lo, len(ts) - 1))
    y = cli._load_path(argparse.Namespace(seed=seed), ts, n, lo, hi)
    assert y.window == (lo, hi) and y.values.flags.c_contiguous
    assert y.values.tobytes() == earlier_seeded_path(seed, ts, n, lo, hi).tobytes()


def test_ab_tool_on_two_copies_of_one_tree(tmp_path):
    # tools/ab.py imports each tree's package under its own name in one
    # process; two copies of one tree write the same bytes.
    root = Path(__file__).resolve().parent.parent
    for side in "ab":
        shutil.copytree(root / "src", tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, str(root / "tools" / "ab.py"), str(tmp_path / "a"), str(tmp_path / "b")]
    done = subprocess.run([*argv, "scale", "--scale", "h:1:0:3"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found = re.search(r"B/A median (\S+) \(IQR (\S+)-(\S+)\) over 30 pairs; stdout identical: yes", done.stdout)
    assert found, done.stdout
    q1, median, q3 = float(found[2]), float(found[1]), float(found[3])
    assert 0 < q1 <= median <= q3


def earlier_builtin_family(name, ts):
    """The built-in 1-D families as code, before they were tables."""
    from tsnoether.noether import GaugeFamily

    g, f = {
        "pairdiff": ([[[1.0], [1.0]]], None),
        "pairdiff-broken": ([[[1.1], [1.0]]], None),
        "pairdiff-time0": ([[[1.0], [1.0]]], [[0.0]]),
        "time-translation": ([[[0.0]]], [[1.0]]),
    }[name]
    return GaugeFamily.constant(ts, g, f=f)


@pytest.mark.parametrize("name", ["pairdiff", "pairdiff-broken", "pairdiff-time0", "time-translation"])
@pytest.mark.parametrize("spec", ["h:0.5:0:4", "q:2:1:7", "real:0.25:-1:1"])
def test_builtin_family_tables_equal_earlier_code(name, spec):
    ts = parse_scale_spec(spec)
    new, old = cli.load_family(name, ts), earlier_builtin_family(name, ts)
    assert (new.ts, new.lo, new.g.shape, new.g.tobytes()) == (old.ts, old.lo, old.g.shape, old.g.tobytes())
    assert (new.f is None) == (old.f is None)
    assert new.f is None or (new.f.shape, new.f.tobytes()) == (old.f.shape, old.f.tobytes())


@pytest.mark.parametrize(
    "name, rows",
    [("grad2", [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]), ("grad2-broken", [(0.0, 1.1, 0.0), (0.0, 0.0, 1.0)])],
)
def test_builtin_2d_family_tables_equal_earlier_code(name, rows):
    from tsnoether.multigrid import GaugeFamilyD

    grid = cli._lattice(["h:1:0:5", "q:2:1:6"])
    assert cli.load_family2d(name, grid) == GaugeFamilyD(grid, rows)
