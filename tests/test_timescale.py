import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tsnoether import (
    GridFunction,
    delta_derivative,
    delta_integral,
    explicit_scale,
    h_uniform,
    mixed,
    parse_scale_spec,
    q_geometric,
    read_csv,
    real_approx,
    shift,
    write_csv,
)
from tsnoether import timescale
from tsnoether.noether import GaugeFamily, random_gauge_params, transform
from tsnoether.variational import BoundaryData, catalog, solve_extremal


def scales_zoo():
    return [
        h_uniform(1.0, 0, 9),
        h_uniform(0.5, 0, 4.5),
        q_geometric(2.0, 1.0, 10),
    ]


class TestConstruction:
    def test_h_uniform_points_and_jump_law(self):
        ts = h_uniform(1.0, 0, 5)
        assert np.array_equal(ts.points, [0, 1, 2, 3, 4, 5])
        assert ts.condition_h == (1.0, 1.0)

    def test_q_geometric_points_and_jump_law(self):
        ts = q_geometric(2.0, 1.0, 5)
        assert np.array_equal(ts.points, [1, 2, 4, 8, 16])
        assert ts.condition_h == (2.0, 0.0)

    def test_real_approx_behaves_like_uniform(self):
        ts = real_approx(0.25, 0, 1)
        assert ts.kind == "real-approx"
        assert ts.condition_h == (1.0, 0.25)

    def test_explicit_detection_accepts_affine_orbit(self):
        # {1,2,4,8} is the q=2 orbit; all non-maximal points obey sigma = 2t.
        ts = explicit_scale([1.0, 2.0, 4.0, 8.0])
        b1, b0 = ts.condition_h
        assert b1 == pytest.approx(2.0) and b0 == pytest.approx(0.0)

    def test_explicit_detection_rejects_mismatch(self):
        assert explicit_scale([0.0, 1.0, 2.0, 4.0]).condition_h is None

    @pytest.mark.parametrize(
        "bad",
        [[0.0], [0.0, 0.0, 1.0], [1.0, 0.5]],
    )
    def test_bad_point_lists(self, bad):
        with pytest.raises(ValueError):
            explicit_scale(bad)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            h_uniform(0.0, 0, 5)
        with pytest.raises(ValueError):
            h_uniform(-1.0, 0, 5)
        with pytest.raises(ValueError):
            q_geometric(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            q_geometric(2.0, -1.0, 5)
        with pytest.raises(ValueError):
            q_geometric(2.0, 1.0, 1)

    @pytest.mark.parametrize(
        "spec,npts",
        [("h:1:0:5", 6), ("q:2:1:5", 5), ("real:0.5:0:2", 5)],
    )
    def test_parse_scale_spec(self, spec, npts):
        assert len(parse_scale_spec(spec)) == npts

    def test_parse_explicit_file(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0.0\n1.5\n2.5\n")
        ts = parse_scale_spec(f"explicit:@{path}")
        assert np.array_equal(ts.points, [0.0, 1.5, 2.5])

    @pytest.mark.parametrize("spec", ["h:0:0:5", "x:1:2:3", "h:1:0", "q:2:1:one"])
    def test_parse_errors(self, spec):
        with pytest.raises(ValueError):
            parse_scale_spec(spec)

    def test_two_point_explicit_scale_takes_its_gap_as_the_jump(self):
        assert explicit_scale([0.0, 0.5]).condition_h == (1.0, 0.5)


def six_points():
    return GridFunction(h_uniform(1.0, 0, 5), 0, np.arange(6.0))


@pytest.mark.filterwarnings("error")  # a numpy warning would come before the refusal
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: timescale.TimeScale(np.arange(3.0), "explicit", (-1.0, 0.0)),
         "condition (H) slope b1 must be positive"),
        (lambda: timescale.TimeScale([0, 1, 3], "explicit", (1.0, 1.0)), "points do not satisfy the declared jump law"),
        (lambda: explicit_scale([0.0, 1.0, np.inf]), "point 2 of the scale, inf, is not a finite float"),
        (lambda: explicit_scale([0.0, np.nan, np.nan]), "point 1 of the scale, nan, is not a finite float"),
        (lambda: GridFunction(h_uniform(1.0, 0, 5), 0, np.empty((0, 1))), "values must be a nonempty (npoints, n) array"),
        (lambda: six_points().restrict(2, 1), "[2, 1] is not a subwindow of [0, 5]"),
        (lambda: six_points() + GridFunction(h_uniform(0.5, 0, 2.5), 0, np.arange(6.0)),
         "grid functions live on different scales"),
        (lambda: mixed(six_points(), 0, -1), "derivative order must be >= 0"),
    ],
    ids=["negative-slope", "jump-law", "infinite-point", "nan-point", "empty-values", "restrict-reversed",
         "two-scales", "negative-order"],
)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestJumpOperators:
    def test_h_half_sigma_mu(self):
        ts = h_uniform(0.5, 0, 3)
        i = 2  # t = 1.0
        assert ts.points[ts.sigma(i)] == 1.5
        assert np.diff(ts.points)[i] == 0.5

    def test_q2_sigma_mu(self):
        ts = q_geometric(2.0, 1.0, 5)
        i = 2  # t = 4
        assert ts.points[ts.sigma(i)] == 8.0
        assert np.diff(ts.points)[i] == 4.0

    def test_explicit_next_prev(self):
        ts = explicit_scale([0.0, 1.0, 3.0])
        assert ts.points[ts.sigma(1)] == 3.0
        assert ts.points[ts.rho(1)] == 0.0

    def test_saturation_at_ends(self):
        ts = h_uniform(1.0, 0, 3)
        assert ts.sigma(3) == 3
        assert ts.rho(0) == 0
        assert ts.points[ts.sigma(3)] - ts.points[3] == 0.0

    def test_sigma_rho_identity_off_minimum(self):
        for ts in scales_zoo():
            for i in range(1, len(ts)):
                assert ts.sigma(ts.rho(i)) == i
            for i in range(len(ts) - 1):
                assert ts.rho(ts.sigma(i)) == i

    def test_index_range_errors(self):
        ts = h_uniform(1.0, 0, 3)
        with pytest.raises(ValueError):
            ts.sigma(4)
        with pytest.raises(ValueError):
            ts.rho(-1)


class TestDerivative:
    def test_square_on_integers(self):
        ts = h_uniform(1.0, 0, 5)
        d = delta_derivative(GridFunction.from_callable(ts, lambda t: t * t))
        assert d.window == (0, 4)
        assert np.allclose(d.values[:, 0], 2 * np.arange(5) + 1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_derivative_vanishes(self, order):
        for ts in scales_zoo():
            d = delta_derivative(GridFunction.from_callable(ts, lambda t: 4.25), order)
            assert np.all(d.values == 0)

    def test_identity_on_q_scale(self):
        ts = q_geometric(2.0, 1.0, 6)
        d = delta_derivative(GridFunction.from_callable(ts, lambda t: t))
        assert np.allclose(d.values, 1.0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_kappa_shrinkage(self, order):
        ts = h_uniform(1.0, 0, 9)
        f = GridFunction.from_callable(ts, lambda t: t**3)
        d = delta_derivative(f, order)
        assert (d.hi - d.lo + 1) == (f.hi - f.lo + 1) - order

    def test_window_too_small(self):
        ts = h_uniform(1.0, 0, 3)
        f = GridFunction(ts, 1, np.array([2.0, 3.0]))
        with pytest.raises(ValueError):
            delta_derivative(f, 2)


class TestShift:
    def test_zero_shift_is_identity(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        assert shift(f, 0) is f

    def test_forward_shift_on_integers(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction.from_callable(ts, lambda t: 3 * t)
        g = shift(f, 1)
        assert g.window == (0, 4)
        assert np.allclose(g.values[:, 0], 3 * (np.arange(5) + 1))

    def test_shift_round_trip_interior(self):
        for ts in scales_zoo():
            f = GridFunction.from_callable(ts, lambda t: np.sin(t))
            g = shift(shift(f, -1), 1)
            lo, hi = g.window
            assert np.array_equal(g.values, f.values[lo - f.lo : hi - f.lo + 1])

    def test_rho_saturates_at_minimum(self):
        ts = h_uniform(1.0, 0, 4)
        f = GridFunction.from_callable(ts, lambda t: t)
        g = shift(f, -1)
        assert g.lo == 0
        assert g.values[0, 0] == f.values[0, 0]
        assert np.allclose(g.values[1:, 0], f.values[:-1, 0])

    def test_shift_exhaustion(self):
        ts = h_uniform(1.0, 0, 2)
        f = GridFunction(ts, 1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            shift(f, 5)


class TestMixed:
    def test_noop(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        assert mixed(f, 0, 0) is f

    def test_square_on_integers_both_orders(self):
        ts = h_uniform(1.0, 0, 6)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        sd = mixed(f, 1, 1)
        ds = shift(delta_derivative(f, 1), 1)
        lo, hi = 0, 4
        expect = 2 * np.arange(lo, hi + 1) + 3
        assert np.allclose(sd.restrict(lo, hi).values[:, 0], expect)
        assert np.allclose(ds.restrict(lo, hi).values[:, 0], expect)

    def test_commutation_factor_on_q_scale(self):
        # quotient evaluation at t=1, q=2: (f.sigma).delta = b1 * (f.delta).sigma
        ts = q_geometric(2.0, 1.0, 6)
        f = GridFunction.from_callable(ts, lambda t: t * t)
        sd = mixed(f, 1, 1)
        ds = shift(delta_derivative(f, 1), 1)
        q = 2.0
        sd0, ds0 = sd.values[0 - sd.lo, 0], ds.values[0 - ds.lo, 0]
        assert sd0 == pytest.approx(q * q * (q + 1))
        assert ds0 == pytest.approx((q + 1) * q)
        assert sd0 == pytest.approx(q * ds0)

    @pytest.mark.parametrize("ts", scales_zoo())
    def test_commutation_everywhere(self, ts):
        rng = np.random.default_rng(0)
        coeffs = rng.uniform(-1, 1, 4)
        f = GridFunction(ts, 0, np.polynomial.polynomial.polyval(ts.points, coeffs))
        b1 = ts.condition_h[0]
        sd = mixed(f, 1, 1)
        ds = b1 * shift(delta_derivative(f, 1), 1)
        lo, hi = 0, len(ts) - 3
        a = sd.restrict(lo, hi).values
        b = ds.restrict(lo, hi).values
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


class TestIntegral:
    def test_counting_measure(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction.from_callable(ts, lambda t: 1.0)
        assert delta_integral(f.restrict(0, 2))[0] == 3.0

    def test_q_scale_weighted_sum(self):
        ts = q_geometric(2.0, 1.0, 4)
        f = GridFunction.from_callable(ts, lambda t: t)
        assert delta_integral(f.restrict(0, 2))[0] == 21.0

    @pytest.mark.parametrize("ts", scales_zoo())
    def test_integration_by_parts(self, ts):
        rng = np.random.default_rng(7)
        pv = np.polynomial.polynomial.polyval
        f = GridFunction(ts, 0, pv(ts.points, rng.uniform(-1, 1, 4)))
        g = GridFunction(ts, 0, pv(ts.points, rng.uniform(-1, 1, 4)))
        lhs = delta_integral(delta_derivative(f) * shift(g, 1))[0]
        boundary = f.values[-1, 0] * g.values[-1, 0] - f.values[0, 0] * g.values[0, 0]
        rhs = boundary - delta_integral(f * delta_derivative(g))[0]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=2, max_size=5),
    alpha=st.floats(-2, 2),
    beta=st.floats(-2, 2),
)
@settings(max_examples=50, deadline=None)
def test_linearity_of_derivative_and_integral(coeffs, alpha, beta):
    ts = h_uniform(0.5, 0, 4)
    pv = np.polynomial.polynomial.polyval
    f = GridFunction(ts, 0, pv(ts.points, coeffs))
    g = GridFunction(ts, 0, pv(ts.points, coeffs[::-1]))
    combo = alpha * f + beta * g
    d_combo = delta_derivative(combo)
    d_split = alpha * delta_derivative(f) + beta * delta_derivative(g)
    assert np.allclose(d_combo.values, d_split.values, rtol=0, atol=1e-9)
    assert delta_integral(combo)[0] == pytest.approx(
        alpha * delta_integral(f)[0] + beta * delta_integral(g)[0], abs=1e-9
    )


CSV_SPECIALS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310]


@given(
    width=st.integers(1, 5),
    rows=st.sampled_from([1, 1023, 1024, 1025, 2049]),
    lo=st.integers(1, 4),
    kind=st.sampled_from(["h", "q", "q-large"]),
    values=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_csv_bytes_match_row_reference_and_read_back_bitwise(tmp_path_factory, width, rows, lo, kind, values):
    if kind == "h":
        ts = h_uniform(0.1, -7.0, -7.0 + 0.1 * (lo + rows))
    else:  # q-large: points from 3e5 to about 2e6, where one ulp exceeds 1e-12
        ts = q_geometric(1.001, 0.3 if kind == "q" else 3e5, lo + rows)
    elements = st.one_of(st.floats(allow_nan=False), st.sampled_from(CSV_SPECIALS))
    vals = values.draw(hnp.arrays(np.float64, (rows, width), elements=elements))
    f = GridFunction(ts, lo, vals)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_csv(f, path)
    lines = ["t," + ",".join(f"y{k + 1}" for k in range(width))]
    lines += [",".join(repr(float(v)) for v in (t, *row)) for t, row in zip(f.ts.points[f.lo : f.hi + 1], f.values)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    g = read_csv(ts, path)
    assert g.window == f.window
    assert g.values.tobytes() == f.values.tobytes()


def sequential_q_points(q, a, count):
    """a, a*q, (a*q)*q, ...: one Python float product per point."""
    pts = [a]
    for _ in range(count - 1):
        pts.append(pts[-1] * q)
    return np.array(pts)


@given(
    q=st.floats(1.0, 4.0, exclude_min=True),
    a=st.floats(1e-3, 1e3),
    count=st.integers(2, 20_000),
)
@example(q=1.1, a=0.3, count=2)
@example(q=1.1, a=0.3, count=3)
@example(q=3.0, a=1.0, count=1000)
@settings(max_examples=100, deadline=None)
def test_q_geometric_equals_sequential_products(q, a, count):
    ref = sequential_q_points(q, a, count)
    bad = np.flatnonzero(~np.isfinite(ref))
    if bad.size == 0:
        assert np.array_equal(q_geometric(q, a, count).points, ref)
        return
    # Past the largest float the scale is refused at its first infinite
    # point; the points before it are still the sequential products.
    with pytest.raises(ValueError, match=f"point {bad[0]} of the geometric scale"):
        q_geometric(q, a, count)
    if bad[0] >= 2:
        assert np.array_equal(q_geometric(q, a, int(bad[0])).points, ref[: bad[0]])


class TestGridFunction:
    def test_window_invariants(self):
        ts = h_uniform(1.0, 0, 5)
        with pytest.raises(ValueError):
            GridFunction(ts, 3, np.zeros((5, 1)))
        with pytest.raises(ValueError):
            GridFunction(ts, -1, np.zeros((2, 1)))

    def test_arithmetic_intersects_windows(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction(ts, 0, np.arange(4.0))
        g = GridFunction(ts, 2, np.ones(4))
        s = f + g
        assert s.window == (2, 3)
        assert np.allclose(s.values[:, 0], [3.0, 4.0])

    def test_disjoint_windows_error(self):
        ts = h_uniform(1.0, 0, 5)
        f = GridFunction(ts, 0, np.arange(2.0))
        g = GridFunction(ts, 4, np.ones(2))
        with pytest.raises(ValueError):
            _ = f + g

    def test_csv_round_trip(self, tmp_path):
        ts = q_geometric(2.0, 1.0, 5)
        special = [[-0.0, -np.inf], [np.inf, 1e-310], [np.nan, -5e-324], [5e-324, 0.0]]
        f = GridFunction(ts, 1, np.column_stack([ts.points[1:] ** 2, 1 / ts.points[1:], special]))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        assert path.read_text().splitlines()[0] == "t,y1,y2,y3,y4"
        g = read_csv(ts, path)
        assert g.window == f.window
        assert g.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("rows", [1, timescale.CSV_BLOCK_ROWS, 2 * timescale.CSV_BLOCK_ROWS + 3])
    def test_csv_bytes_match_row_loop(self, tmp_path, rows):
        ts = h_uniform(0.001, 0, 0.001 * (rows + 1))
        vals = np.random.default_rng(rows).uniform(-1e3, 1e3, (rows, 3))
        vals[0, :2] = [-0.0, 1e-300]
        f = GridFunction(ts, 1, vals)
        write_csv(f, tmp_path / "f.csv")
        lines = ["t,y1,y2,y3"]
        for t, row in zip(f.ts.points[f.lo : f.hi + 1], f.values):
            lines.append(",".join(repr(float(v)) for v in (t, *row)))
        assert (tmp_path / "f.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "spec, idx, fmt",
        [("h:0.3:0:30", 3, "{:.1f}"), ("q:1.1:1:50", 27, "{:.12f}"), ("h:0.3:0:0.9", 3, "{:.1f}")],
        ids=["h-0.9", "q-12-digits", "h-scale-end"],
    )
    def test_csv_first_time_just_above_its_point(self, tmp_path, spec, idx, fmt):
        # The file's first time lies above its scale point, within the row
        # tolerance, so the window starts at that point, not the next one.
        ts = parse_scale_spec(spec)
        times = [fmt.format(t) for t in ts.points[idx : idx + 3]]
        assert float(times[0]) > ts.points[idx]
        path = tmp_path / "f.csv"
        path.write_text("t,y1\n" + "".join(f"{t},{k}.0\n" for k, t in enumerate(times)))
        g = read_csv(ts, path)
        assert g.window == (idx, idx + len(times) - 1)
        assert np.array_equal(g.values[:, 0], np.arange(len(times)))

    def test_csv_times_match_relative_to_their_points(self, tmp_path):
        # One ulp above 65536 is 1.5e-11 away, more than 1e-12 but far
        # within 1e-12 of the point's magnitude.
        ts = parse_scale_spec("q:2:1:20")
        t = float(np.nextafter(65536.0, np.inf))
        path = tmp_path / "f.csv"
        path.write_text(f"t,y1\n32768.0,0.0\n{t!r},1.0\n")
        g = read_csv(ts, path)
        assert g.window == (15, 16) and np.array_equal(g.values[:, 0], [0.0, 1.0])
        path.write_text(f"t,y1\n32768.0,0.0\n{65536.0 * (1 + 2e-12)!r},1.0\n")
        with pytest.raises(ValueError, match="do not match the scale points"):
            read_csv(ts, path)

    @pytest.mark.parametrize("bad", [2, timescale.CSV_BLOCK_ROWS, timescale.CSV_BLOCK_ROWS + 3, 3001])
    def test_csv_line_numbers_and_blank_lines_across_blocks(self, tmp_path, bad):
        # Two blank lines straddle the first block boundary; they are skipped,
        # and a wrong field count is named by its line in the file.
        ts = h_uniform(1.0, 0, 2999)
        lines = ["t,y1"] + [f"{float(i)!r},{i / 7!r}" for i in range(3000)]
        lines[timescale.CSV_BLOCK_ROWS : timescale.CSV_BLOCK_ROWS] = ["", "  "]
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        g = read_csv(ts, path)
        assert g.window == (0, 2999) and g.values[:, 0].tobytes() == (np.arange(3000) / 7).tobytes()
        lines[bad - 1] += ",9.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_csv(ts, path)
        assert str(err.value) == f"{path}: line {bad} has 3 fields, the header has 2"

    def test_csv_read_memory_is_bounded(self, tmp_path):
        # Rows are parsed a block at a time and each block keeps only its
        # value columns: 10^5 rows of 3 components, a 2.4 MB result, peaked
        # at 34.9 MB when every field's text was held, and at 6.8 MB when
        # the whole table was joined before its value columns were copied.
        ts = h_uniform(1.0, 0, 10**5 - 1)
        f = GridFunction(ts, 0, np.random.default_rng(3).uniform(-1, 1, (10**5, 3)))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        tracemalloc.start()
        try:
            g = read_csv(ts, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.values.tobytes() == f.values.tobytes()
        assert peak <= 5.6e6, peak

    @pytest.mark.parametrize("rows", [1, timescale.CSV_BLOCK_ROWS, 2 * timescale.CSV_BLOCK_ROWS + 3])
    def test_csv_read_values_are_not_copied_again(self, tmp_path, count_copies, rows):
        # The joined value columns (or the one block's) are sealed, so the
        # GridFunction stores them as they are.
        ts = h_uniform(1.0, 0, rows + 1)
        f = GridFunction(ts, 1, np.random.default_rng(rows).uniform(-1, 1, (rows, 2)))
        write_csv(f, tmp_path / "f.csv")
        with count_copies(timescale) as copies:
            g = read_csv(ts, tmp_path / "f.csv")
        assert copies == []
        assert g.window == f.window and g.values.tobytes() == f.values.tobytes()

    def test_csv_time_mismatch_reported_before_a_later_block(self, tmp_path):
        # Each block's times are checked as it is parsed: a time off its
        # point in the first block is named before a bad row in the third.
        ts = h_uniform(1.0, 0, 2999)
        lines = ["t,y1"] + [f"{float(i)!r},0.0" for i in range(3000)]
        lines[5] = "4.5,0.0"
        lines[2500] += ",9.0"
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="do not match the scale points"):
            read_csv(ts, path)
        lines[5] = "4.0,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            read_csv(ts, path)
        assert str(err.value) == f"{path}: line 2501 has 3 fields, the header has 2"

    def test_csv_blocks_of_blank_lines_are_skipped(self, tmp_path):
        ts = h_uniform(1.0, 0, 9)
        path = tmp_path / "f.csv"
        path.write_text("t,y1\n" + "\n" * (timescale.CSV_BLOCK_ROWS + 5) + "3.0,1.5\n4.0,-0.0\n")
        g = read_csv(ts, path)
        assert g.window == (3, 4) and g.values[:, 0].tobytes() == np.array([1.5, -0.0]).tobytes()
        path.write_text("t,y1\n" + "\n" * 5)
        with pytest.raises(ValueError, match="empty grid function file"):
            read_csv(ts, path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y1\n0.0,1.0\n", "missing t,y1..yn header"),
            ("t,y1\n0.0,1.0\n1.0,2.0,3.0\n", "line 3 has 3 fields, the header has 2"),
            ("t,y1\n0.0,1.0\n1.0,abc\n", "line 3 has the field 'abc', which is not a number"),
            ("t,y1\n0.5,1.0\n1.5,2.0\n", "CSV times do not match the scale points"),
            ("t,y1\n\n", "empty grid function file"),
        ],
        ids=["header", "field-count", "bad-field", "time-mismatch", "empty"],
    )
    def test_csv_refusal_starts_with_its_path(self, tmp_path, text, message):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_csv(h_uniform(1.0, 0, 9), path)
        assert str(err.value) == f"{path}: {message}"

    def test_values_frozen(self):
        ts = h_uniform(1.0, 0, 3)
        f = GridFunction.from_callable(ts, lambda t: t)
        with pytest.raises(ValueError):
            f.values[0, 0] = 99.0


# Value ownership: results of the calculus are read-only and stored without a
# copy, sigma shifts are views of their source, and an array that a caller
# can still write to (directly or through the array it views) is copied.

ownership_scales = st.one_of(
    st.builds(
        lambda h, n: h_uniform(h, 0.0, h * (n - 1)),
        st.sampled_from([0.25, 0.5, 1.0]),
        st.integers(2, 10),
    ),
    st.builds(q_geometric, st.floats(1.05, 3.0), st.floats(0.5, 2.0), st.integers(2, 10)),
)


def rho_reference(ts, f, k):
    """The rho^k shift (k > 0) one index at a time, as (lo, values)."""

    def source(i):
        for _ in range(k):
            i = ts.rho(i)
        return i

    idx = [i for i in range(len(ts)) if f.lo <= source(i) <= f.hi]
    if not idx:
        return None
    return idx[0], np.array([f.values[source(i) - f.lo] for i in idx])


@given(ts=ownership_scales, n=st.integers(1, 3), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=100, deadline=None)
def test_value_ownership(count_copies, ts, n, seed, data):
    lo = data.draw(st.integers(0, len(ts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(ts) - 1), label="hi")
    k = data.draw(st.integers(1, 3), label="k")
    rng = np.random.default_rng(seed)
    caller = rng.uniform(-1, 1, (hi - lo + 1, n))
    snapshot = caller.copy()
    view = caller[:, ::-1]
    view.setflags(write=False)
    f = GridFunction(ts, lo, caller)
    g = GridFunction(ts, lo, view)
    flat = GridFunction(ts, lo, caller[:, 0])
    assert caller.flags.writeable
    caller += 1.0
    assert np.array_equal(f.values, snapshot)
    assert np.array_equal(g.values, snapshot[:, ::-1])
    assert np.array_equal(flat.values[:, 0], snapshot[:, 0])

    # Every kernel below stores what it computes without a copy.
    with count_copies(timescale) as copies:
        results = [f + g, f - 2.0, 3.0 * g, f * g, f.restrict(hi, hi), f.component(n - 1)]
        results.append(GridFunction.from_callable(ts, np.sin).restrict(lo, hi))
        # The probes and paths of the 1-D trial loops, and the Newton solution.
        params = random_gauge_params(GaugeFamily.constant(ts, [[[0.5]] * n]), seed)
        results += [*params, transform(GaugeFamily.constant(ts, [[[0.5]] * n]), params, f)[1]]
        if hi > lo:  # the image scale of a time family needs two points
            results += transform(GaugeFamily.constant(ts, [[[0.5]] * n], f=[[0.0]]), params, f)
        if len(ts) >= 3:
            results.append(solve_extremal(catalog(f"quad:{n}:0.5:1:0"), ts, BoundaryData([0.0] * n, [1.0] * n)))
        if hi > lo:
            results.append(delta_derivative(f))
        if hi >= k:
            sigma = shift(f, k)
            results.append(sigma)
        ref = rho_reference(ts, f, k)
        if ref is None:
            with pytest.raises(ValueError):
                shift(f, -k)
        else:
            rho = shift(f, -k)
            results.append(rho)
    assert copies == []
    if hi >= k:
        assert np.shares_memory(sigma.values, f.values)
        assert np.array_equal(sigma.values, f.values[max(lo - k, 0) + k - lo :])
    if ref is not None:
        assert rho.lo == ref[0] and np.array_equal(rho.values, ref[1])
    for r in results:
        assert not r.values.flags.writeable
        with pytest.raises(ValueError):
            r.values[0, 0] = 7.0
    assert np.array_equal(f.values, snapshot)


# The integral kernel: one summation order whatever the layout of its input.

kernel_scales = st.one_of(
    ownership_scales,
    st.builds(
        lambda gaps: explicit_scale(np.cumsum([0.5, *gaps])),
        st.lists(st.floats(0.1, 2.0), min_size=1, max_size=6),
    ),
)


def kernel_reference(scales, lo, values):
    """Per component, np.sum of a C-contiguous mu-weighted copy of the
    window's cells below every scale maximum."""
    hi = [min(l + n, len(s) - 1) for s, l, n in zip(scales, lo, values.shape)]
    w = values[tuple(slice(0, h - l) for l, h in zip(lo, hi))]
    for ax, (s, l, h) in enumerate(zip(scales, lo, hi)):
        mu = s.points[l + 1 : h + 1] - s.points[l:h]
        w = w * mu.reshape([-1 if a == ax else 1 for a in range(values.ndim)])
    return np.array([np.sum(np.ascontiguousarray(w[..., k])) for k in range(values.shape[-1])])


@given(d=st.integers(1, 4), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=150, deadline=None)
def test_window_integral_is_layout_independent(d, seed, data):
    scales = [data.draw(kernel_scales, label=f"scale{ax}") for ax in range(d)]
    lo, shape = [], []
    for s in scales:
        lo.append(data.draw(st.integers(0, len(s) - 1)))
        to_max = data.draw(st.booleans())
        shape.append(len(s) - lo[-1] if to_max else data.draw(st.integers(0, len(s) - lo[-1])))
    n = data.draw(st.integers(1, 3)) if d == 1 else 1
    flat = data.draw(st.sampled_from([None, *range(d)]), label="constant along")
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, (*shape, n))
    if flat is not None:
        values = np.broadcast_to(values[(slice(None),) * flat + (slice(0, 1),)], values.shape)
    layouts = [np.ascontiguousarray(values), np.asfortranarray(values)]
    layouts.append(layouts[0][:, np.arange(values.shape[1])])  # a gather along a later axis
    if flat is not None:
        layouts.append(values)
    ref = kernel_reference(scales, lo, layouts[0])
    assert ref.shape == (n,)
    if 0 in shape:
        assert np.array_equal(ref, np.zeros(n))
    for arr in layouts:
        assert timescale.window_integral(scales, lo, arr).tobytes() == ref.tobytes()


# The window kernel: operands that share one window are returned whole.

def general_overlap(*parts):
    """timescale._overlap without its one-window return."""
    lo = tuple(map(max, zip(*[l for l, _ in parts])))
    end = tuple(map(min, zip(*[[l_ + n for l_, n in zip(l, v.shape)] for l, v in parts])))
    if any(a >= b for a, b in zip(lo, end)):
        raise ValueError("windows do not overlap")
    return lo, [v[tuple(slice(a - l_, b - l_) for a, b, l_ in zip(lo, end, l))] for l, v in parts]


@pytest.mark.parametrize(
    "lows, shapes",
    [
        ([(3,), (3,)], [(10, 1), (10, 1)]),
        ([(3,), (3,)], [(10, 1), (10, 3)]),  # trailing component axes differ
        ([(0,), (0,), (0,)], [(4, 2), (4, 2), (4, 1)]),
        ([(1, 2), (1, 2)], [(5, 6), (5, 6)]),
        ([(0, 0, 1), (0, 0, 1)], [(3, 4, 5), (3, 4, 5)]),
        ([(3,), (4,)], [(10, 1), (9, 1)]),  # one window, but not one lo
        ([(3,), (3,)], [(10, 1), (9, 1)]),  # one lo, not one window
        ([(1, 2), (1, 2)], [(5, 6), (5, 5)]),
        ([(0,), (0,)], [(0, 2), (0, 2)]),  # empty windows
        ([(0,), (5,)], [(3, 1), (3, 1)]),  # disjoint windows
    ],
)
def test_overlap_of_one_window_equals_the_general_path(lows, shapes):
    rng = np.random.default_rng(len(shapes))
    parts = [(lo, rng.uniform(-1, 1, shape)) for lo, shape in zip(lows, shapes)]
    parts[-1] = (parts[-1][0], np.asfortranarray(parts[-1][1]))
    try:
        ref = general_overlap(*parts)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            timescale._overlap(*parts)
        return
    lo, views = timescale._overlap(*parts)
    assert lo == ref[0] and [v.shape for v in views] == [v.shape for v in ref[1]]
    assert [v.tobytes() for v in views] == [v.tobytes() for v in ref[1]]
    assert all(np.shares_memory(v, values) for v, (_, values) in zip(views, parts))
    if len(set(lows)) == 1 and len({s[: len(lows[0])] for s in shapes}) == 1:
        assert all(v is values for v, (_, values) in zip(views, parts))
