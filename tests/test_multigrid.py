from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsnoether import (
    FieldD,
    GridFunction,
    Lagrangian,
    GaugeFamilyD,
    GridD,
    LagrangianD,
    ResidualReport,
    catalog2d,
    check_invariance_d,
    delta_derivative,
    double_fundamental_oracle,
    explicit_scale,
    el_expressions,
    el_expressions_d,
    functional_d,
    gauge_field,
    gauge_field_adjoint,
    gauge_pairing,
    greens_residual,
    h_uniform,
    multi_integral,
    noether_identity_d,
    partial_delta,
    q_geometric,
    random_polynomial_field,
    second_el_expression,
    shift,
    shift_axis,
    transform_d,
)
from tsnoether import multigrid, variational
from tsnoether.timescale import forward_quotient


def grid_z2(nx=4, ny=3):
    return GridD((h_uniform(1.0, 0, nx - 1.0), h_uniform(1.0, 0, ny - 1.0)))


def grid_mixed():
    return GridD((h_uniform(0.5, 0, 3), q_geometric(2.0, 1.0, 6)))


def field_from(grid, fn):
    """Samples of fn(x0, x1, ...) on the whole grid."""
    coords = np.meshgrid(*[s.points for s in grid.scales], indexing="ij", sparse=True)
    return FieldD(grid, (0,) * grid.d, np.broadcast_to(fn(*coords), grid.shape))


def el_residual_d(L, u, tolerance=1e-8):
    """The Euler-Lagrange residual on the common window of the expressions."""
    es = el_expressions_d(L, u)
    lo = tuple(max(e.lo[ax] for e in es) for ax in range(es[0].grid.d))
    hi = tuple(min(e.hi[ax] for e in es) for ax in range(es[0].grid.d))
    stacked = np.stack([e.restrict(lo, hi).values for e in es])
    return ResidualReport.from_per_point((lo[0], hi[0]), stacked, tolerance)


class TestPartialDelta:
    def test_coordinate_slope(self):
        g = grid_z2()
        f = field_from(g, lambda x, y: x + 0 * y)
        d = partial_delta(f, 0)
        assert np.allclose(d.values, 1.0)
        assert d.hi == (2, 2)

    def test_product_keeps_other_argument(self):
        g = grid_z2()
        f = field_from(g, lambda x, y: x * y)
        d = partial_delta(f, 0)
        # ((x+1)y - xy)/1 = y with the unshifted second argument
        ys = g.scales[1].points
        assert np.allclose(d.values, np.broadcast_to(ys, d.values.shape))

    def test_constant_vanishes(self):
        g = grid_mixed()
        d = partial_delta(field_from(g, lambda x, y: 2.5 + 0 * x * y), 1)
        assert np.all(d.values == 0)

    def test_window_too_small(self):
        g = grid_z2()
        f = FieldD(g, (0, 0), np.ones((1, 3)))
        with pytest.raises(ValueError):
            partial_delta(f, 0)

    @pytest.mark.parametrize("grid", [grid_z2(5, 5), grid_mixed()])
    def test_mixed_partials_commute(self, grid):
        f = random_polynomial_field(grid, seed=0, degree=3)
        d01 = partial_delta(partial_delta(f, 0), 1)
        d10 = partial_delta(partial_delta(f, 1), 0)
        scale = max(1.0, np.max(np.abs(d01.values)))
        assert np.max(np.abs(d01.values - d10.values)) <= 1e-13 * scale


class TestMultiIntegral:
    def test_unit_density_counts_cells(self):
        g = grid_z2(4, 3)
        assert multi_integral(field_from(g, lambda x, y: 1.0 + 0 * x * y)) == 6.0

    def test_coordinate_density(self):
        g = grid_z2(4, 3)
        assert multi_integral(field_from(g, lambda x, y: x + 0 * y)) == 6.0

    def test_degenerate_window(self):
        g = grid_z2(4, 3)
        f = FieldD(g, (3, 0), np.ones((1, 3)))
        assert multi_integral(f) == 0.0

    def test_q_axis_weights(self):
        g = grid_mixed()
        val = multi_integral(field_from(g, lambda x, y: np.ones_like(x * y)))
        # x axis: 6 cells of 0.5; y axis: gaps 1,2,4,8,16
        assert val == pytest.approx(0.5 * 6 * 31.0)


class TestGreens:
    def test_zero_fields(self):
        g = grid_z2()
        z = field_from(g, lambda x, y: 0 * x * y)
        assert greens_residual(z, z) == 0.0

    def test_linear_n_equals_area(self):
        g = grid_z2(5, 4)
        M = field_from(g, lambda x, y: 0 * x * y)
        N = field_from(g, lambda x, y: x + 0 * y)
        assert greens_residual(M, N) <= 1e-12

    @pytest.mark.parametrize("grid", [grid_z2(6, 5), grid_mixed()])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_polynomials_exact(self, grid, seed):
        M = random_polynomial_field(grid, seed=[seed, 0], degree=3)
        N = random_polynomial_field(grid, seed=[seed, 1], degree=3)
        scale = max(1.0, np.max(np.abs(M.values)), np.max(np.abs(N.values)))
        assert greens_residual(M, N) <= 1e-12 * scale

    def test_dimension_guard(self):
        g2 = grid_z2()
        g4 = GridD(tuple(h_uniform(1.0, 0, 3) for _ in range(4)))
        f = FieldD(g4, (0,) * 4, np.ones((4,) * 4))
        with pytest.raises(ValueError):
            greens_residual(f, f)


class TestEulerLagrangeD:
    def test_harmonic_coordinate(self):
        g = grid_z2(5, 5)
        L = catalog2d("dirichlet2")
        u = (field_from(g, lambda x, y: x + 0 * y),)
        rep = el_residual_d(L, u)
        assert rep.sup_norm == 0.0

    def test_square_gives_constant(self):
        g = grid_z2(6, 6)
        L = catalog2d("dirichlet2")
        u = (field_from(g, lambda x, y: x * x + 0 * y),)
        es = el_expressions_d(L, u)
        assert np.allclose(es[0].values, -2.0)

    def test_independent_density(self):
        g = grid_z2(5, 5)
        L = LagrangianD(d=2, n=1, density=lambda c, U, G: c[0] + 0 * U[0])
        u = (random_polynomial_field(g, seed=1),)
        assert el_residual_d(L, u).sup_norm <= 1e-9

    def test_pattern_on_window_above_the_grid_minimum(self):
        # The slots of a field whose window starts past index 0 are the same
        # as on a grid that starts where the window does.
        full = GridD((h_uniform(1.0, 0, 5), q_geometric(2.0, 1.0, 6)))
        cut = GridD((h_uniform(1.0, 1, 5), q_geometric(2.0, 2.0, 5)))
        vals = random_polynomial_field(full, seed=4).values
        for name in ("curl2", "dirichlet2"):
            L = catalog2d(name)
            u = tuple(FieldD(full, (1, 1), vals[1:, 1:] + k) for k in range(L.n))
            v = tuple(FieldD(cut, (0, 0), vals[1:, 1:] + k) for k in range(L.n))
            assert functional_d(L, u) == functional_d(L, v)
            for a, b in zip(el_expressions_d(L, u), el_expressions_d(L, v)):
                assert a.lo == (1, 1) and np.array_equal(a.values, b.values)

    def test_components_on_different_grids_rejected(self):
        # Two 6 x 6 grids: the pattern would read only the first component's
        # points and steps, so the value would depend on the order.
        a = random_polynomial_field(grid_z2(6, 6), seed=5)
        b = random_polynomial_field(GridD((h_uniform(0.5, 0, 2.5), q_geometric(2.0, 1.0, 6))), seed=6)
        L = catalog2d("curl2")
        for u in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="different grids"):
                functional_d(L, u)
            with pytest.raises(ValueError, match="different grids"):
                el_expressions_d(L, u)

    def test_window_too_small(self):
        g = grid_z2(5, 5)
        L = catalog2d("dirichlet2")
        two = (FieldD(g, (1, 0), np.ones((2, 5))),)
        assert functional_d(L, two) == 0.0
        with pytest.raises(ValueError, match="too small for the Euler-Lagrange expressions"):
            el_expressions_d(L, two)
        with pytest.raises(ValueError, match="too small for the shifted argument pattern"):
            functional_d(L, (FieldD(g, (1, 0), np.ones((1, 5))),))

    def test_functional_value(self):
        g = grid_z2(4, 3)
        L = LagrangianD(d=2, n=1, density=lambda c, U, G: np.ones_like(U[0]))
        u = (field_from(g, lambda x, y: x * y),)
        assert functional_d(L, u) == 6.0


class TestGaugeOperators:
    def test_multiplicative_self_adjoint(self):
        g = grid_z2(5, 5)
        fam = GaugeFamilyD(g, [(1.0, 0.0, 0.0)])
        p = random_polynomial_field(g, seed=2)
        q = random_polynomial_field(g, seed=3)
        tp = gauge_field(fam, p, 0)
        tq = gauge_field_adjoint(fam, q, 0)
        assert np.allclose(tp.restrict((0, 0), (4, 4)).values, p.values)
        assert np.allclose(tq.restrict((0, 0), (4, 4)).values, q.values)

    def test_backward_difference_and_transpose_on_integers(self):
        g = grid_z2(5, 5)
        fam = GaugeFamilyD(g, [(0.0, 1.0, 0.0)])
        p = random_polynomial_field(g, seed=4)
        tp = gauge_field(fam, p, 0)
        pv = p.values
        assert np.allclose(tp.values[1:, :], pv[1:, :] - pv[:-1, :])
        q = random_polynomial_field(g, seed=5)
        tq = gauge_field_adjoint(fam, q, 0)
        qv = q.values
        assert np.allclose(tq.values, -(qv[1:, :] - qv[:-1, :]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_family_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"coefficient a\[1\]\[2\] is not finite"):
            GaugeFamilyD(grid_z2(), [(0.0, 1.0, 0.0), (0.0, 0.0, bad)])

    def test_family_rows_are_floats(self):
        fam = GaugeFamilyD(grid_z2(), [(0, 1, -0.0)])
        assert fam.a == ((0.0, 1.0, -0.0),) and all(type(c) is float for c in fam.a[0])
        with pytest.raises(ValueError, match="1 \\+ d coefficients"):
            GaugeFamilyD(grid_z2(), [(0.0, 1.0)])

    @pytest.mark.parametrize("grid", [grid_z2(5, 5), grid_mixed()])
    def test_adjoint_pairing(self, grid):
        rng = np.random.default_rng(6)
        fam = GaugeFamilyD(grid, [(0.4, -1.1, 0.8)])
        pv = np.zeros(grid.shape)
        pv[2:-2, 2:-2] = rng.uniform(-1, 1, tuple(max(n - 4, 0) for n in grid.shape))
        if pv[2:-2, 2:-2].size == 0:
            pv[2, 2] = 1.0
        p = FieldD(grid, (0, 0), pv)
        q = FieldD(grid, (0, 0), rng.uniform(-1, 1, grid.shape))
        lhs, rhs = gauge_pairing(fam, p, q, 0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestNoetherIdentityD:
    def curl_setup(self, grid, broken=False):
        L = catalog2d("curl2")
        fam_name = [(0.0, 1.1 if broken else 1.0, 0.0), (0.0, 0.0, 1.0)]
        fam = GaugeFamilyD(grid, fam_name)
        u = tuple(random_polynomial_field(grid, seed=[8, k], degree=2) for k in range(2))
        return L, fam, u

    @pytest.mark.parametrize("grid", [grid_z2(6, 6), grid_mixed()])
    def test_invariant_family_passes(self, grid):
        L, fam, u = self.curl_setup(grid)
        inv = check_invariance_d(L, fam, u, trials=50, seed=1)
        assert inv.verdict, inv.sup_norm
        rep = noether_identity_d(L, fam, u)
        assert rep.sup_norm <= 1e-9 and rep.verdict

    def test_broken_family_fails(self):
        grid = grid_z2(6, 6)
        L, fam, u = self.curl_setup(grid, broken=True)
        inv = check_invariance_d(L, fam, u, trials=20, seed=1)
        rep = noether_identity_d(L, fam, u)
        assert inv.sup_norm > 1e-3 and rep.sup_norm > 1e-3

    def test_zero_family_zero_residual(self):
        grid = grid_z2(5, 5)
        L = catalog2d("curl2")
        fam = GaugeFamilyD(grid, [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)])
        u = tuple(random_polynomial_field(grid, seed=[9, k]) for k in range(2))
        assert noether_identity_d(L, fam, u).sup_norm == 0.0

    @pytest.mark.parametrize("rows", [[(0.0, 1.0, 0.0)], [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0)]])
    def test_family_of_another_component_count_refused(self, rows):
        # One row would silently drop E_1 from the sum, three would index past it.
        L, _, u = self.curl_setup(grid_z2(5, 5))
        fam = GaugeFamilyD(u[0].grid, rows)
        with pytest.raises(ValueError, match=f"component count mismatch: the family has n = {len(rows)}, the density n = 2"):
            noether_identity_d(L, fam, u)

    def test_transform_zero_parameter(self):
        grid = grid_z2(5, 5)
        L, fam, u = self.curl_setup(grid)
        zero = FieldD(grid, (0, 0), np.zeros(grid.shape))
        ubar = transform_d(fam, zero, u)
        for a, b in zip(u, ubar):
            lo, hi = b.lo, b.hi
            assert np.array_equal(a.restrict(lo, hi).values, b.values)


class TestDoubleFundamentalLemma:
    def test_zero_field(self):
        g = grid_z2(5, 4)
        ints, sup, consistent = double_fundamental_oracle(FieldD(g, (0, 0), np.zeros(g.shape)))
        assert ints == 0.0 and sup == 0.0 and consistent

    def test_spike_detected(self):
        g = grid_mixed()
        vals = np.zeros(g.shape)
        vals[2, 1] = 0.7
        ints, sup, consistent = double_fundamental_oracle(FieldD(g, (0, 0), vals))
        assert ints > 1e-3 and sup == 0.7 and consistent


class TestFieldD:
    def test_window_validation(self):
        g = grid_z2()
        with pytest.raises(ValueError):
            FieldD(g, (0, 0), np.ones((9, 2)))
        with pytest.raises(ValueError):
            FieldD(g, (-1, 0), np.ones((2, 2)))

    def test_arithmetic_intersection(self):
        g = grid_z2(5, 5)
        a = FieldD(g, (0, 0), np.ones((3, 3)))
        b = FieldD(g, (2, 2), np.full((3, 3), 2.0))
        s = a + b
        assert s.lo == (2, 2) and s.values.shape == (1, 1)
        assert s.values[0, 0] == 3.0

    def test_shift_axis_round_trip_interior(self):
        g = grid_mixed()
        f = random_polynomial_field(g, seed=10)
        back = shift_axis(shift_axis(f, 1, -1), 1, 1)
        lo, hi = back.lo, back.hi
        assert np.array_equal(back.values, f.restrict(lo, hi).values)

    def test_values_frozen(self):
        g = grid_z2()
        f = FieldD(g, (0, 0), np.ones(g.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 5.0


class TestThreeAxes:
    def grid3(self):
        return GridD(
            (h_uniform(1.0, 0, 4), h_uniform(0.5, 0, 2), q_geometric(2.0, 1.0, 5))
        )

    def test_multi_integral_counts_cells(self):
        g = self.grid3()
        f = FieldD(g, (0, 0, 0), np.ones(g.shape))
        # 4 cells of 1.0, 4 cells of 0.5, q gaps 1+2+4+8
        assert multi_integral(f) == pytest.approx(4 * (4 * 0.5) * 15.0)

    def test_el_expressions_on_linear_field(self):
        g = self.grid3()

        def density(coords, U, G):
            return 0.5 * (G[0][0] ** 2 + G[1][0] ** 2 + G[2][0] ** 2)

        L = LagrangianD(d=3, n=1, density=density,
                        d_u=lambda c, U, G: np.zeros_like(U),
                        d_g=lambda c, U, G: G.copy())
        u = (field_from(g, lambda x, y, z: x + 2 * y + 0 * z),)
        assert el_residual_d(L, u).sup_norm <= 1e-13

    def test_gauge_adjoint_pairing(self):
        g = self.grid3()
        rng = np.random.default_rng(30)
        fam = GaugeFamilyD(g, [(0.5, 1.0, -0.4, 0.9)])
        pv = np.zeros(g.shape)
        pv[2, 2, 2] = 1.3
        p = FieldD(g, (0, 0, 0), pv)
        q = FieldD(g, (0, 0, 0), rng.uniform(-1, 1, g.shape))
        lhs, rhs = gauge_pairing(fam, p, q, 0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# The 1-D calculus (shift, delta_derivative) and the product-grid one
# (shift_axis, partial_delta) share their axis kernels; both must agree with
# a per-index reference that applies rho one step at a time.

scales = st.one_of(
    st.builds(
        lambda h, a, n: h_uniform(h, a, a + h * (n - 1)),
        st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]),
        st.integers(-5, 5),
        st.integers(2, 12),
    ),
    st.builds(q_geometric, st.floats(1.05, 3.0), st.floats(0.5, 2.0), st.integers(2, 12)),
    st.builds(
        lambda a, gaps: explicit_scale(a + np.cumsum([0.0, *gaps])),
        st.floats(-5.0, 5.0),
        st.lists(st.floats(0.01, 4.0), min_size=1, max_size=11),
    ),
)


def reference_shift(ts, lo, hi, vals, k):
    """Window start and values of the k-shift, or None when nothing is left."""

    def source(i):
        if k > 0:
            return i + k
        for _ in range(-k):
            i = ts.rho(i)
        return i

    idx = [i for i in range(len(ts)) if lo <= source(i) <= hi]
    if not idx:
        return None
    assert idx == list(range(idx[0], idx[-1] + 1))
    return idx[0], np.array([vals[source(i) - lo] for i in idx])


def reference_quotient(ts, lo, hi, vals):
    return np.array([(vals[i + 1 - lo] - vals[i - lo]) / ts.mu(i) for i in range(lo, hi)])


def signed_samples(rng, shape):
    """Uniform samples with about a fifth of them +0.0 or -0.0, and some
    pairs of neighbours equal, so that differences of zero occur."""
    vals = rng.uniform(-1, 1, shape)
    vals[rng.uniform(size=shape) < 0.1] = 0.0
    vals[rng.uniform(size=shape) < 0.1] = -0.0
    vals[rng.uniform(size=shape) < 0.1] = 0.5
    return vals


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(ts=scales, k=st.integers(-3, 3), axis=st.integers(0, 1), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=150, deadline=None)
def test_shift_and_quotient_agree_in_1d_and_2d(ts, k, axis, seed, data):
    lo = data.draw(st.integers(0, len(ts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(ts) - 1), label="hi")
    other = h_uniform(1.0, 0.0, 2.0)
    grid = GridD((ts, other) if axis == 0 else (other, ts))
    vals = signed_samples(np.random.default_rng(seed), (hi - lo + 1, len(other)))
    f1 = GridFunction(ts, lo, vals)
    fd = FieldD(grid, (lo, 0) if axis == 0 else (0, lo), vals if axis == 0 else vals.T)

    def along(fd_out):
        """The 2-d result as (window start on the drawn axis, (points, n) values)."""
        return fd_out.lo[axis], fd_out.values if axis == 0 else fd_out.values.T

    ref = reference_shift(ts, lo, hi, vals, k)
    if ref is None:
        with pytest.raises(ValueError):
            shift(f1, k)
        with pytest.raises(ValueError):
            shift_axis(fd, axis, k)
    else:
        s1 = shift(f1, k)
        sd_lo, sd_vals = along(shift_axis(fd, axis, k))
        assert s1.lo == sd_lo == ref[0]
        assert same_bytes(s1.values, np.ascontiguousarray(sd_vals)) and same_bytes(s1.values, ref[1])

    if hi == lo:
        with pytest.raises(ValueError):
            delta_derivative(f1)
        with pytest.raises(ValueError):
            partial_delta(fd, axis)
    else:
        d1 = delta_derivative(f1)
        dd_lo, dd_vals = along(partial_delta(fd, axis))
        assert d1.window == (dd_lo, dd_lo + dd_vals.shape[0] - 1) == (lo, hi - 1)
        assert same_bytes(d1.values, np.ascontiguousarray(dd_vals))
        assert same_bytes(d1.values, reference_quotient(ts, lo, hi, vals))


# Value ownership on product grids: kernel results are read-only and stored
# without a copy, sigma shifts are views of their source, rho shifts equal
# the per-index reference, and an array a caller can still write to (itself
# or through the array it views) is copied.

def axis_scales(max_points):
    return st.one_of(
        st.builds(
            lambda h, n: h_uniform(h, 0.0, h * (n - 1)),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.integers(2, max_points),
        ),
        st.builds(q_geometric, st.floats(1.05, 3.0), st.floats(0.5, 2.0), st.integers(2, max_points)),
    )


def rho_reference_d(f, axis, k):
    """rho^k (k > 0) along one axis one index at a time, as (lo, values)."""
    ts = f.grid.scales[axis]

    def source(i):
        for _ in range(k):
            i = ts.rho(i)
        return i

    idx = [i for i in range(len(ts)) if f.lo[axis] <= source(i) <= f.hi[axis]]
    if not idx:
        return None
    vals = np.stack([np.take(f.values, source(i) - f.lo[axis], axis=axis) for i in idx], axis=axis)
    return idx[0], vals


@given(
    scales=st.lists(axis_scales(7), min_size=2, max_size=3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_field_value_ownership(count_copies, scales, seed, data):
    grid = GridD(tuple(scales))
    lo = tuple(data.draw(st.integers(0, n - 1), label="lo") for n in grid.shape)
    hi = tuple(data.draw(st.integers(l, n - 1), label="hi") for l, n in zip(lo, grid.shape))
    axis = data.draw(st.integers(0, grid.d - 1), label="axis")
    k = data.draw(st.integers(1, 3), label="k")
    rng = np.random.default_rng(seed)
    caller = rng.uniform(-1, 1, tuple(h - l + 1 for l, h in zip(lo, hi)))
    snapshot = caller.copy()
    view = caller[::-1]
    view.setflags(write=False)
    f = FieldD(grid, lo, caller)
    g = FieldD(grid, lo, view)
    assert caller.flags.writeable
    caller += 1.0
    assert np.array_equal(f.values, snapshot)
    assert np.array_equal(g.values, snapshot[::-1])

    # Every kernel below stores what it computes without a copy.
    with count_copies(multigrid) as copies:
        results = [f + g, f - 2.0, 3.0 * g, f * g, -f, f.restrict(hi, hi)]
        results.append(random_polynomial_field(grid, seed=seed))
        if hi[axis] > lo[axis]:
            results.append(partial_delta(f, axis))
        if hi[axis] >= k:
            sigma = shift_axis(f, axis, k)
            results.append(sigma)
        ref = rho_reference_d(f, axis, k)
        if ref is None:
            with pytest.raises(ValueError):
                shift_axis(f, axis, -k)
        else:
            rho = shift_axis(f, axis, -k)
            results.append(rho)
    assert copies == []
    if hi[axis] >= k:
        assert np.shares_memory(sigma.values, f.values)
        start = max(lo[axis] - k, 0) + k - lo[axis]
        assert np.array_equal(sigma.values, np.take(f.values, range(start, f.values.shape[axis]), axis=axis))
    if ref is not None:
        assert rho.lo[axis] == ref[0] and np.array_equal(rho.values, ref[1])
    for r in results:
        assert not r.values.flags.writeable
        with pytest.raises(ValueError):
            r.values[(0,) * grid.d] = 7.0
    assert np.array_equal(f.values, snapshot)


# Bitwise differential of the axis kernels on product grids of 2 to 4 axes,
# against test-local copies of the earlier ones: the rho shift as one
# index-array gather, and the quotient as a divide by the window's gaps even
# where every gap is 1.0.

def earlier_shift_axis(f, axis, k):
    """rho^|k| (k < 0) along one axis by one gather of offset indices."""
    lo, hi = f.lo[axis], f.hi[axis]
    new_lo, new_hi = (lo if lo == 0 else lo - k), min(hi - k, f.grid.shape[axis] - 1)
    if new_lo > new_hi:
        return None
    index = np.maximum(np.arange(new_lo, new_hi + 1) + k, 0) - lo
    return new_lo, f.values[(slice(None),) * axis + (index,)]


def earlier_quotient(f, axis):
    shape = [1] * f.grid.d
    shape[axis] = f.values.shape[axis] - 1
    pts = f.grid.scales[axis].points[f.lo[axis] : f.hi[axis] + 1]
    return np.diff(f.values, axis=axis) / np.diff(pts).reshape(shape)


def unit_or_other_scales(max_points):
    """h scales of step 1.0, whose gaps are all 1.0 (whole offsets) or not
    all (offsets 0.9, 0.15 and 1/3 put a gap an ulp off 1.0 among the first
    two), and other h and q scales."""
    return st.one_of(
        st.builds(lambda a, n: h_uniform(1.0, a, a + n - 1.0), st.sampled_from([0.0, -3.0, 0.9, 0.15, 1 / 3]),
                  st.integers(2, max_points)),
        axis_scales(max_points),
    )


@given(d=st.integers(2, 4), scales=st.lists(unit_or_other_scales(6), min_size=4, max_size=4),
       seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=100, deadline=None)
def test_axis_kernels_bitwise_equal_earlier_copies(d, scales, seed, data):
    grid = GridD(tuple(scales[:d]))
    lo = tuple(data.draw(st.integers(0, min(2, n - 1)), label="lo") for n in grid.shape)
    hi = tuple(data.draw(st.integers(l, n - 1), label="hi") for l, n in zip(lo, grid.shape))
    f = FieldD(grid, lo, signed_samples(np.random.default_rng(seed), tuple(h - l + 1 for l, h in zip(lo, hi))))
    for axis in range(d):
        for k in (-1, -2, -3):
            ref = earlier_shift_axis(f, axis, k)
            if ref is None:
                with pytest.raises(ValueError):
                    shift_axis(f, axis, k)
            else:
                out = shift_axis(f, axis, k)
                assert out.lo[axis] == ref[0] and same_bytes(np.ascontiguousarray(out.values), ref[1])
        if hi[axis] > lo[axis]:
            q = partial_delta(f, axis).values
            assert same_bytes(np.ascontiguousarray(q), earlier_quotient(f, axis))


# Bitwise differential: the one-buffer polynomial field and the integral
# whose first weight multiply makes its only copy equal test-local copies of
# the earlier ones-and-multiply loop and copy-then-multiply integral, and the
# functional equals the field-by-field path below, on fields of every layout
# the kernels produce.

def earlier_random_polynomial_field(grid, seed, degree=2, amplitude=1.0):
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape)
    for _ in range(3):
        term = np.ones(grid.shape)
        for ax, s in enumerate(grid.scales):
            t = s.points
            span = np.max(np.abs(t))
            coeffs = rng.uniform(-1, 1, degree + 1)
            axis_vals = np.polynomial.polynomial.polyval(t / max(span, 1.0), coeffs)
            shape = [1] * grid.d
            shape[ax] = t.size
            term = term * axis_vals.reshape(shape)
        vals += term
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude / peak
    return vals


def earlier_multi_integral(f):
    lo = f.lo
    hi = [min(h, n - 2) for h, n in zip(f.hi, f.grid.shape)]
    if any(h < l for l, h in zip(lo, hi)):
        return 0.0
    vals = f.restrict(lo, hi).values.copy()
    for ax in range(f.grid.d):
        mu = f.grid.mu(ax)[lo[ax] : hi[ax] + 1]
        shape = [1] * f.grid.d
        shape[ax] = mu.size
        vals = vals * mu.reshape(shape)
    return float(np.sum(vals))


def density_d(d, n):
    """A density with products of slots, so that rounding shows."""
    if d == 2 and n == 2:
        return catalog2d("curl2")
    if d == 4 and n == 4:
        from tsnoether.em import em_lagrangian

        return em_lagrangian()

    def density(coords, U, G):
        out = 0.3 * U[0] * G[0, 0] + coords[0] * U[n - 1]
        for j in range(d):
            for k in range(n):
                out = out + 0.5 * G[j, k] * G[j, k]
        return out

    return LagrangianD(d=d, n=n, density=density)


@given(
    d=st.integers(2, 4),
    scales=st.lists(axis_scales(6).filter(lambda s: len(s) >= 4), min_size=4, max_size=4),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**16),
    degree=st.integers(0, 3),
    amplitude=st.sampled_from([1.0, 0.1, 37.5]),
)
@settings(max_examples=60, deadline=None)
def test_kernels_bitwise_equal_earlier_copies(d, scales, n, seed, degree, amplitude):
    grid = GridD(tuple(scales[:d]))
    n = 4 if d == 4 else n
    vals = random_polynomial_field(grid, [seed, 0], degree, amplitude).values
    assert vals.tobytes() == earlier_random_polynomial_field(grid, [seed, 0], degree, amplitude).tobytes()

    u = tuple(random_polynomial_field(grid, [seed, 1 + k]) for k in range(n))
    # The same fields as sigma views, rho gathers along every axis (a gather
    # along a later axis has a transposed layout) and gauge transforms.
    fields = [u[0], *(shift_axis(u[0], ax, k) for ax in range(d) for k in (1, -1))]
    for f in fields:
        assert np.float64(multi_integral(f)).tobytes() == np.float64(earlier_multi_integral(f)).tobytes()
    L = density_d(d, n)
    fam = GaugeFamilyD(grid, [tuple(0.5 * (j == k) + 0.25 for j in range(d + 1)) for k in range(n)])
    p = random_polynomial_field(grid, [seed, 9], amplitude=0.1)
    for args in (u, tuple(shift_axis(f, d - 1, -1) for f in u), transform_d(fam, p, u)):
        assert functional_d(L, args) == fieldwise_functional_d(L, args)


# Bitwise differential of the fused slot kernels.  The reference is the
# field-by-field path: each pattern slot built as partial_delta, then sigma
# on the other axes, then restrict, and copied into U and G; Euler-Lagrange
# expressions as FieldD differences of the copied P and Q slots; gauge
# coefficients as constant full-grid fields, skipped when every sample
# compares equal to zero.

def fieldwise_pattern_args(L, u):
    from tsnoether.multigrid import shift_all, shift_all_except

    grid = u[0].grid
    lo = tuple(max(f.lo[ax] for f in u) for ax in range(grid.d))
    hi = tuple(min(f.hi[ax] for f in u) for ax in range(grid.d))
    cell_hi = tuple(h - 1 for h in hi)
    parts = [f.restrict(lo, hi) for f in u]
    U = np.stack([shift_all(f).restrict(lo, cell_hi).values for f in parts])
    G = np.empty((grid.d, L.n) + U.shape[1:])
    for j in range(grid.d):
        for k, f in enumerate(parts):
            G[j, k] = shift_all_except(partial_delta(f, j), j).restrict(lo, cell_hi).values
    coords = []
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = cell_hi[ax] - lo[ax] + 1
        coords.append(grid.scales[ax].points[lo[ax] : cell_hi[ax] + 1].reshape(shape))
    return tuple(coords), U, G, lo


def fieldwise_functional_d(L, u):
    coords, U, G, lo = fieldwise_pattern_args(L, u)
    dens = np.broadcast_to(L.density(coords, U, G), U.shape[1:])
    return earlier_multi_integral(FieldD(u[0].grid, lo, dens))


def fieldwise_el_expressions_d(L, u):
    coords, U, G, lo = fieldwise_pattern_args(L, u)
    grid = u[0].grid
    P, Q = L.sample("u", coords, U, G), L.sample("g", coords, U, G)
    out = []
    for k in range(L.n):
        e = FieldD(grid, lo, P[k])
        for j in range(grid.d):
            e = e - partial_delta(FieldD(grid, lo, Q[j, k]), j)
        out.append(e)
    return tuple(out)


class ConstantFieldFamily:
    def __init__(self, grid, table):
        self.grid = grid
        self.n = len(table)
        self.a = tuple(
            tuple(FieldD(grid, (0,) * grid.d, np.full(grid.shape, float(c))) for c in row) for row in table
        )


def fieldwise_gauge_sum(row, term):
    out = None
    for i, c in enumerate(row):
        if not np.all(c.values == 0.0):
            out = term(i, c) if out is None else out + term(i, c)
    return out


def fieldwise_gauge_field(fam, p, k):
    out = fieldwise_gauge_sum(
        fam.a[k], lambda i, c: c * (p if i == 0 else shift_axis(partial_delta(p, i - 1), i - 1, -1))
    )
    return FieldD(p.grid, (0,) * p.grid.d, np.zeros(p.grid.shape)) if out is None else out


def fieldwise_gauge_field_adjoint(fam, q, k):
    out = fieldwise_gauge_sum(fam.a[k], lambda i, c: q * c if i == 0 else -partial_delta(q * c, i - 1))
    return FieldD(q.grid, (0,) * q.grid.d, np.zeros(q.grid.shape)) if out is None else out


def fieldwise_gauge_pairing(fam, p, q, k):
    from tsnoether.multigrid import shift_all, shift_all_except

    lhs_field = fieldwise_gauge_sum(
        fam.a[k],
        lambda i, c: c * (shift_all(p) if i == 0 else shift_all_except(partial_delta(p, i - 1), i - 1)),
    )
    if lhs_field is None:
        return 0.0, 0.0
    lhs = earlier_multi_integral(q * lhs_field)
    rhs = earlier_multi_integral(fieldwise_gauge_field_adjoint(fam, q, k) * shift_all(p))
    return lhs, rhs


def fieldwise_check_invariance_d(L, fam, u, trials, seed, amplitude=0.1, tolerance=1e-12):
    base = fieldwise_functional_d(L, u)

    def pair(trial):
        p = random_polynomial_field(fam.grid, seed=[seed, trial], amplitude=amplitude)
        return base, fieldwise_functional_d(L, tuple(u_k + fieldwise_gauge_field(fam, p, k) for k, u_k in enumerate(u)))

    return ResidualReport.from_trials((0, trials - 1), trials, pair, tolerance)


def fieldwise_noether_identity_d(L, fam, u, tolerance=1e-9):
    es = fieldwise_el_expressions_d(L, u)
    total = reduce(add, (fieldwise_gauge_field_adjoint(fam, es[k], k) for k in range(fam.n)))
    return ResidualReport.from_per_point((total.lo[0], total.hi[0]), total.values, tolerance)


def bits(x):
    """Everything a result is compared by: windows, shapes and raw bytes
    (so -0.0 differs from 0.0), for fields, reports, floats and tuples."""
    if isinstance(x, FieldD):
        return ("field", x.lo, x.values.shape, x.values.tobytes())
    if isinstance(x, ResidualReport):
        return ("report", x.domain, bits(x.per_point), bits(x.sup_norm), bits(x.l2_norm), x.verdict)
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    return ("array", np.asarray(x).shape, np.asarray(x, dtype=float).tobytes())


def lattice_axis():
    """h, q and explicit scales of 7 or 8 points."""
    count = st.integers(7, 8)
    return st.one_of(
        st.builds(lambda h, m: h_uniform(h, 0.0, h * (m - 1)), st.sampled_from([0.25, 0.5, 1.0]), count),
        st.builds(q_geometric, st.floats(1.05, 1.6), st.floats(0.5, 2.0), count),
        st.builds(
            lambda t0, gaps: explicit_scale(np.cumsum([t0, *gaps])),
            st.floats(-1.0, 1.0),
            st.lists(st.floats(0.125, 2.0), min_size=6, max_size=7),
        ),
    )


def density_with_partials(d, n, analytic):
    """A density with products of slots and a coordinate factor, with its
    partials given analytically or left to finite differences."""

    def density(coords, U, G):
        out = 0.3 * U[0] * G[0, 0] + coords[0] * U[n - 1] * U[0]
        for j in range(d):
            for k in range(n):
                out = out + (0.5 + 0.25 * j - 0.125 * k) * G[j, k] * G[j, k]
        return out

    def d_u(coords, U, G):
        out = np.zeros_like(U)
        out[0] += 0.3 * G[0, 0] + coords[0] * U[n - 1]
        out[n - 1] += coords[0] * U[0]
        return out

    def d_g(coords, U, G):
        out = np.empty_like(G)
        for j in range(d):
            for k in range(n):
                out[j, k] = 2.0 * (0.5 + 0.25 * j - 0.125 * k) * G[j, k]
        out[0, 0] += 0.3 * U[0]
        return out

    if analytic:
        return LagrangianD(d=d, n=n, density=density, d_u=d_u, d_g=d_g)
    return LagrangianD(d=d, n=n, density=density)


@given(
    d=st.integers(2, 4),
    scales=st.lists(lattice_axis(), min_size=4, max_size=4),
    n=st.integers(1, 3),
    analytic=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fused_slots_bitwise_equal_field_path(d, scales, n, analytic, seed, data):
    grid = GridD(tuple(scales[:d]))
    u = []
    for k in range(n):
        lo = tuple(data.draw(st.integers(0, 1), label=f"lo{k}") for _ in range(d))
        hi = tuple(data.draw(st.integers(m - 2, m - 1), label=f"hi{k}") for m in grid.shape)
        f = random_polynomial_field(grid, [seed, k], degree=3).restrict(lo, hi)
        if data.draw(st.booleans(), label=f"rho{k}"):
            f = shift_axis(f, d - 1, -1)  # a gather along the last axis has a transposed layout
        u.append(f)
    u = tuple(u)
    coeff = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.375, -2.5])
    table = [tuple(data.draw(coeff, label=f"a{k}") for _ in range(d + 1)) for k in range(n)]
    fam, fields = GaugeFamilyD(grid, table), ConstantFieldFamily(grid, table)
    L = density_with_partials(d, n, analytic)
    p = random_polynomial_field(grid, [seed, 9], amplitude=0.1)

    assert bits(functional_d(L, u)) == bits(fieldwise_functional_d(L, u))
    es = el_expressions_d(L, u)
    assert bits(es) == bits(fieldwise_el_expressions_d(L, u)) == bits(earlier_el_expressions_d(L, u))
    assert bits(noether_identity_d(L, fam, u)) == bits(fieldwise_noether_identity_d(L, fields, u))
    assert bits(check_invariance_d(L, fam, u, trials=2, seed=seed)) == bits(
        fieldwise_check_invariance_d(L, fields, u, trials=2, seed=seed)
    )
    for k in range(n):
        assert bits(gauge_field(fam, p, k)) == bits(fieldwise_gauge_field(fields, p, k))
        assert bits(gauge_field_adjoint(fam, es[k], k)) == bits(fieldwise_gauge_field_adjoint(fields, es[k], k))
        assert bits(gauge_pairing(fam, p, u[k], k)) == bits(fieldwise_gauge_pairing(fields, p, u[k], k))


def earlier_partial_u(L, coords, U, G):
    """LagrangianD's finite-difference u partial as it was before the 1-D and
    d-D loops shared one kernel, with its step 1e-6 * max(1, |x|)."""
    out = np.empty_like(U)
    for k in range(L.n):
        h = 1e-6 * np.maximum(1.0, np.abs(U[k]))
        up, um = U.copy(), U.copy()
        up[k] = U[k] + h
        um[k] = U[k] - h
        out[k] = (L.density(coords, up, G) - L.density(coords, um, G)) / (2 * h)
    return out


def earlier_partial_g(L, coords, U, G):
    out = np.empty_like(G)
    for j in range(L.d):
        for k in range(L.n):
            h = 1e-6 * np.maximum(1.0, np.abs(G[j, k]))
            gp, gm = G.copy(), G.copy()
            gp[j, k] = G[j, k] + h
            gm[j, k] = G[j, k] - h
            out[j, k] = (L.density(coords, U, gp) - L.density(coords, U, gm)) / (2 * h)
    return out


@given(
    d=st.integers(2, 4),
    n=st.integers(1, 3),
    spread=st.sampled_from([0.5, 3.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_central_differences_bitwise_equal_earlier_copies(d, n, spread, seed, data):
    rng = np.random.default_rng(seed)
    cells = tuple(data.draw(st.integers(1, 4), label=f"cells{ax}") for ax in range(d))
    coords = tuple(
        rng.uniform(-1, 1, cells[ax]).reshape([cells[ax] if a == ax else 1 for a in range(d)]) for ax in range(d)
    )
    U = rng.uniform(-spread, spread, (n,) + cells)
    G = rng.uniform(-spread, spread, (d, n) + cells)
    L = density_with_partials(d, n, analytic=False)
    assert L.sample("u", coords, U, G).tobytes() == earlier_partial_u(L, coords, U, G).tobytes()
    assert L.sample("g", coords, U, G).tobytes() == earlier_partial_g(L, coords, U, G).tobytes()


# The Euler-Lagrange assemblies as they were written before the 1-D and d-D
# stacks shared variational._el_values, kept as bitwise references.

def earlier_el_values(pu, pv, ts, lo):
    return pu[:-1] - forward_quotient(pv, ts, lo)


def earlier_el_expressions_d(L, u):
    coords, U, G, lo, cell_hi = multigrid._pattern_args(L, u)
    grid = u[0].grid
    P, Q = L.sample("u", coords, U, G), L.sample("g", coords, U, G)
    inner = tuple(slice(0, c - l) for l, c in zip(lo, cell_hi))
    out = []
    for k in range(L.n):
        e = P[k][inner].copy()
        for j in range(grid.d):
            slab = inner[:j] + (slice(None),) + inner[j + 1 :]
            e -= forward_quotient(Q[j, k][slab], grid.scales[j], lo[j], j)
        out.append(FieldD(grid, lo, e))
    return tuple(out)


def earlier_second_el_expression(L, y):
    T, U, V = variational._path_args(y)
    lt, lv, lval = (GridFunction(y.ts, y.lo, L.sample(w, T, U, V)) for w in "tvL")
    mu = (y.ts.points[y.lo + 1 : y.hi + 1] - y.ts.points[y.lo : y.hi])[:, None]
    inner = GridFunction(y.ts, y.lo, lval.values - np.sum(V * lv.values, axis=1, keepdims=True) - mu * lt.values)
    return lt.restrict(lt.lo, lt.hi - 1) - delta_derivative(inner, 1)


def elementwise_densities(n):
    """One elementwise density in the 1-D convention and in the d = 2 one:
    d_u = U^3 and d_v = d_g[0] = V (1 + U^2), with d_g[1] = 0.  Only the
    assemblies are compared, so the values and the time partial need not
    be the ones these partials integrate to."""
    path = Lagrangian(
        n=n,
        eval=lambda t, U, V: t * np.sum(U * V, axis=1),
        d_t=lambda t, U, V: np.sum(U * V, axis=1),
        d_u=lambda t, U, V: U * U * U,
        d_v=lambda t, U, V: V * (1 + U * U),
        vectorized=True,
    )
    lattice = LagrangianD(
        d=2,
        n=n,
        density=lambda coords, U, G: np.zeros(U.shape[1:]),
        d_u=lambda coords, U, G: U * U * U,
        d_g=lambda coords, U, G: np.stack([G[0] * (1 + U * U), np.zeros_like(G[1])]),
    )
    return path, lattice


@given(
    kind=st.sampled_from(["h", "q", "explicit"]),
    npts=st.integers(6, 40),
    lo=st.integers(0, 1),
    short_top=st.booleans(),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_path_equals_lattice_constant_along_a_second_axis(kind, npts, lo, short_top, n, seed):
    # A 1-D path is the d = 2 pattern of fields constant along a second
    # axis: every column of el_expressions_d(...)[k] is column k of
    # el_expressions(...), byte for byte, on the same axis-0 window.
    rng = np.random.default_rng(seed)
    if kind == "h":
        ts = h_uniform(0.25, -1.0, -1.0 + 0.25 * (npts - 1))
    elif kind == "q":
        ts = q_geometric(1.05, 0.5, npts)
    else:
        ts = explicit_scale(np.cumsum(rng.uniform(0.01, 1.0, npts)) - 2.0)
    y = GridFunction(ts, lo, rng.uniform(-2.0, 2.0, (npts - lo - short_top, n)))
    grid = GridD((ts, h_uniform(1.0, 0.0, 3.0)))
    u = tuple(FieldD(grid, (lo, 0), np.repeat(y.values[:, k : k + 1], 4, axis=1)) for k in range(n))
    path, lattice = elementwise_densities(n)

    e = el_expressions(path, y)
    pu, pv = variational.lagrangian_along(path, y, "u", "v")
    assert e.values.tobytes() == earlier_el_values(pu.values, pv.values, ts, lo).tobytes()
    es = el_expressions_d(lattice, u)
    assert bits(es) == bits(earlier_el_expressions_d(lattice, u))
    for k, ek in enumerate(es):
        assert ek.lo[0] == e.lo and ek.values.shape == (len(e.values), 2)
        for m in range(2):
            assert ek.values[:, m].tobytes() == e.values[:, k].tobytes()
    s, s_earlier = second_el_expression(path, y), earlier_second_el_expression(path, y)
    assert (s.lo, s.values.tobytes()) == (s_earlier.lo, s_earlier.values.tobytes())
