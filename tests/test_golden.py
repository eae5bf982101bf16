"""Frozen `noether solve` reports and extremal CSVs.

The files under tests/golden/ were written by the solver with a
one-column-at-a-time Newton Jacobian.  The coloured Jacobian computes the
same entries, so every Newton iterate, and with it every byte below, must
stay the same.  Regenerate a file only for a deliberate change of the
solver's arithmetic, and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from tsnoether.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("solve_h_poisson", ["--scale", "h:1:0:5", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5"], True),
    ("solve_q_poisson", ["--scale", "q:1.01:1:150", "--lagrangian", "poisson", "--alpha", "0", "--beta", "5"], True),
    (
        "solve_quad2_verbose",
        ["--scale", "h:0.1:0:3", "--lagrangian", "quad:2:0.5:0.1:0.2", "--alpha", "0,1", "--beta", "2,-1", "--verbose"],
        False,
    ),
]


@pytest.mark.parametrize("name, args, with_csv", CASES, ids=[c[0] for c in CASES])
def test_solve_report_is_byte_identical(tmp_path, name, args, with_csv):
    report = tmp_path / "report.json"
    csv = tmp_path / "extremal.csv"
    argv = ["solve", *args, "--out", str(report)]
    if with_csv:
        argv += ["--result-csv", str(csv)]
    assert main(argv) == 0
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    if with_csv:
        assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
