from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial, reduce
from itertools import accumulate
from math import prod
import gc
import operator
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
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
from tsnoether.em import lorentz_field
from tsnoether.timescale import window_integral

import reference


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
        L = reference.differenced_d(LagrangianD(d=2, n=1, density=lambda c, U, G: c[0] + 0 * U[0]))
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
        with pytest.raises(ValueError, match="^row 0 needs d \\+ 1 = 3 coefficients, got 2$"):
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


class TestMissingPartialsD:
    """A d-D check reads only the partials a density gives: one it lacks is
    a ValueError that names it, and the density alone serves the checks that
    read no partial."""

    def case(self, **missing):
        grid = grid_mixed()
        full = catalog2d("curl2")
        u = tuple(random_polynomial_field(grid, seed=[6, k], degree=2) for k in range(2))
        return full, replace(full, **missing), GaugeFamilyD(grid, TABLES_2D["curl2"]), u

    @pytest.mark.parametrize("missing", ["u", "g"])
    @pytest.mark.parametrize("check", ["el_expressions_d", "noether_identity_d"])
    def test_check_names_the_missing_partial(self, check, missing):
        _, L, fam, u = self.case(**{f"d_{missing}": None})
        args = (L, u) if check == "el_expressions_d" else (L, fam, u)
        with pytest.raises(ValueError) as err:
            getattr(multigrid, check)(*args)
        assert str(err.value) == f"the density has no {missing!r} partial (d_{missing})"

    def test_density_alone_serves_the_checks_that_read_no_partial(self):
        full, bare, fam, u = self.case(d_u=None, d_g=None)
        assert bits(functional_d(bare, u)) == bits(functional_d(full, u))
        assert bits(check_invariance_d(bare, fam, u, trials=3, seed=2)) == bits(
            check_invariance_d(full, fam, u, trials=3, seed=2)
        )


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FieldD(grid_z2(), (0,), np.ones(4)), "field dimension does not match the grid"),
        (lambda: FieldD(grid_z2(), (0, 0), np.ones((4, 3))) + FieldD(grid_mixed(), (0, 0), np.ones((4, 3))),
         "fields live on different grids"),
        (lambda: double_fundamental_oracle(FieldD(grid_z2(), (3, 0), np.ones((1, 3)))), "no base cells in the window"),
    ],
    ids=["one-axis-window", "two-grids", "window-at-the-top"],
)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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


# Kernel pins.  Every kernel below is pinned bit for bit to its plain
# reference in tests/reference.py, on scales and windows drawn from one set
# of strategies: h scales from below, at and above 0, with steps of 1.0
# whose gaps are all 1.0 (whole starts) or not all (starts 0.9, 0.15 and
# 1/3 put a gap an ulp off 1.0 among the first), q scales and explicit
# ones; windows at the scale minimum or above it; samples with signed zeros.

def axes(max_points, min_points=2):
    count = st.integers(min_points, max_points)
    return st.one_of(
        st.builds(lambda h, a, n: h_uniform(h, a, a + h * (n - 1)), st.sampled_from([1.0, 1.0, 0.1, 0.25, 0.5, 3.0]),
                  st.sampled_from([*map(float, range(-5, 6)), 0.5, 0.9, 0.15, 1 / 3]), count),
        st.builds(q_geometric, st.floats(1.05, 3.0), st.floats(0.5, 2.0), count),
        st.builds(lambda a, gaps: explicit_scale(a + np.cumsum([0.0, *gaps])),
                  st.one_of(st.sampled_from([-2.0, 0.0]), st.floats(-5.0, 5.0)),
                  st.lists(st.floats(0.01, 4.0), min_size=min_points - 1, max_size=max_points - 1)),
    )


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


def bits(x):
    """Everything a result is compared by: windows, shapes and raw bytes
    (so -0.0 differs from 0.0), for fields, reports, floats and tuples."""
    if isinstance(x, (FieldD, GridFunction)):
        return ("field", x.lo, x.values.shape, x.values.tobytes())
    if isinstance(x, ResidualReport):
        return ("report", x.domain, bits(x.per_point), bits(x.sup_norm), bits(x.l2_norm), x.verdict)
    if isinstance(x, tuple):
        return tuple(bits(v) for v in x)
    return ("array", np.asarray(x).shape, np.asarray(x, dtype=float).tobytes())


def rho_quotient(p, axis):
    """multigrid._rho_quotient's (lo, values) pair as a field."""
    return multigrid._field(p.grid, multigrid._rho_quotient(p, axis))


def outcome(fn, *args):
    """bits of fn(*args), or the message of the ValueError it raises."""
    try:
        return bits(fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


def window_field(grid, rng, data):
    """Signed samples on a window of grid that starts at index 0, 1 or 2 on every axis."""
    lo = tuple(data.draw(st.integers(0, min(2, n - 1)), label="lo") for n in grid.shape)
    hi = tuple(data.draw(st.integers(l, n - 1), label="hi") for l, n in zip(lo, grid.shape))
    return FieldD(grid, lo, signed_samples(rng, tuple(h - l + 1 for l, h in zip(lo, hi))))


@given(ts=axes(12), k=st.integers(-3, 3), axis=st.integers(0, 1), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=150, deadline=None)
def test_shift_and_quotient_agree_in_1d_and_2d(ts, k, axis, seed, data):
    # The 1-D calculus (shift, delta_derivative) and the product-grid one
    # (shift_axis, partial_delta) share their axis kernels.
    lo = data.draw(st.integers(0, len(ts) - 1), label="lo")
    hi = data.draw(st.integers(lo, len(ts) - 1), label="hi")
    other = h_uniform(1.0, 0.0, 2.0)
    grid = GridD((ts, other) if axis == 0 else (other, ts))
    vals = signed_samples(np.random.default_rng(seed), (hi - lo + 1, len(other)))
    f1 = GridFunction(ts, lo, vals)
    fd = FieldD(grid, (lo, 0) if axis == 0 else (0, lo), vals if axis == 0 else vals.T)
    assert outcome(shift, f1, k) == outcome(lambda: GridFunction(ts, *reference.shift(vals, lo, ts, k)))
    assert outcome(shift_axis, fd, axis, k) == outcome(reference.field_shift, fd, axis, k)
    if hi == lo:
        with pytest.raises(ValueError):
            delta_derivative(f1)
        with pytest.raises(ValueError):
            partial_delta(fd, axis)
    else:
        assert bits(delta_derivative(f1)) == bits(GridFunction(ts, lo, reference.quotient(vals, ts, lo)))
        assert bits(partial_delta(fd, axis)) == bits(FieldD(grid, fd.lo, reference.quotient(fd.values, ts, lo, axis)))


# Value ownership on product grids: kernel results are read-only and stored
# without a copy, sigma shifts are views of their source, and an array a
# caller can still write to (itself or through the array it views) is copied.

@given(
    scales=st.lists(axes(7), min_size=2, max_size=3),
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
        results += lorentz_field(GridD(tuple(scales * 2)[:4]))
        if hi[axis] > lo[axis]:
            results.append(partial_delta(f, axis))
            results.append(rho_quotient(f, axis))
        if hi[axis] >= k:
            sigma = shift_axis(f, axis, k)
            results.append(sigma)
        rho = outcome(shift_axis, f, axis, -k)
        if rho[0] != "error":
            results.append(shift_axis(f, axis, -k))
    assert copies == []
    if hi[axis] >= k:
        assert np.shares_memory(sigma.values, f.values)
        start = max(lo[axis] - k, 0) + k - lo[axis]
        assert np.array_equal(sigma.values, np.take(f.values, range(start, f.values.shape[axis]), axis=axis))
    assert rho == outcome(reference.field_shift, f, axis, -k)
    for r in results:
        assert not r.values.flags.writeable
        with pytest.raises(ValueError):
            r.values[(0,) * grid.d] = 7.0
    assert np.array_equal(f.values, snapshot)


@given(d=st.integers(2, 4), scales=st.lists(axes(6), min_size=4, max_size=4), seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=100, deadline=None)
def test_axis_kernels_bitwise_equal_earlier_copies(d, scales, seed, data):
    # rho shifts on every axis of 2 to 4, whose result has a transposed
    # layout along a later axis, and quotients on every axis.
    grid = GridD(tuple(scales[:d]))
    f = window_field(grid, np.random.default_rng(seed), data)
    for axis in range(d):
        for k in (-1, -2, -3):
            assert outcome(shift_axis, f, axis, k) == outcome(reference.field_shift, f, axis, k)
        ts, lo = grid.scales[axis], f.lo[axis]
        if f.hi[axis] > lo:
            assert bits(partial_delta(f, axis)) == bits(FieldD(grid, f.lo, reference.quotient(f.values, ts, lo, axis)))


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
    scales=st.lists(axes(6, 4), min_size=4, max_size=4),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_kernels_bitwise_equal_earlier_copies(d, scales, n, seed):
    # The integral and the action on fields of every layout the kernels
    # produce: sigma views, rho gathers along every axis (a gather along a
    # later axis has a transposed layout) and gauge transforms.
    grid = GridD(tuple(scales[:d]))
    n = 4 if d == 4 else n
    u = tuple(random_polynomial_field(grid, [seed, 1 + k]) for k in range(n))
    for f in [u[0], *(shift_axis(u[0], ax, k) for ax in range(d) for k in (1, -1))]:
        assert bits(multi_integral(f)) == bits(reference.multi_integral(f))
    L = density_d(d, n)
    fam = GaugeFamilyD(grid, [tuple(0.5 * (j == k) + 0.25 for j in range(d + 1)) for k in range(n)])
    p = random_polynomial_field(grid, [seed, 9], amplitude=0.1)
    for args in (u, tuple(shift_axis(f, d - 1, -1) for f in u), transform_d(fam, p, u)):
        assert bits(functional_d(L, args)) == bits(reference.functional_d(L, args))


@contextmanager
def fixed_draw(draw):
    """Every default_rng(seed).uniform(-1, 1, shape) returns a copy of draw."""

    class Draw:
        def uniform(self, low, high, shape):
            assert (low, high, shape) == (-1, 1, draw.shape)
            return draw.copy()

    with mock.patch.object(np.random, "default_rng", lambda seed: Draw()):
        yield


@given(
    d=st.integers(2, 4),
    scales=st.lists(axes(6), min_size=3, max_size=3),
    last=axes(9),
    degree=st.integers(0, 3),
    amplitude=st.sampled_from([1.0, 0.1, 37.5]),
    zeros=st.sampled_from(["none", "constant", "all"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_long_row_field_bitwise_equals_per_axis_copy(count_copies, d, scales, last, degree, amplitude, zeros, seed):
    # The last axis is shorter than the others' product (rows of the last
    # axis) or not (rows of the grid) on every d; "constant" zeroes one
    # axis's constant coefficients with random signs, so that all three
    # terms are signed zeros where its points are 0, and "all" zeroes every
    # coefficient, so that the peak is 0.  "none" draws from the seed itself.
    grid = GridD((*scales[: d - 1], last))
    rng = np.random.default_rng(seed)
    draw = rng.uniform(-1, 1, (3, d, degree + 1))
    signed_zeros = np.where(rng.integers(0, 2, draw.shape), -0.0, 0.0)
    if zeros == "constant":
        axis = int(rng.integers(0, d))
        draw[:, axis, 0] = signed_zeros[:, axis, 0]
    elif zeros == "all":
        draw = signed_zeros
    with fixed_draw(draw) if zeros != "none" else nullcontext():
        with count_copies(multigrid) as copies:
            f = random_polynomial_field(grid, seed, degree, amplitude)
        ref = reference.random_polynomial_field(grid, seed, degree, amplitude)
    assert copies == [] and bits(f) == bits(ref)


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2, 2, 3), (2, 2, 5), (2, 2, 2, 2), (2, 2, 2, 9)])
def test_field_sum_of_signed_zero_terms_is_positive_zero(shape):
    # All coefficients -0.0: each term is -0.0 where an odd number of axes
    # sits at a negative point, and the sum starts from +0.0 in both layouts.
    grid = GridD(tuple(h_uniform(1.0, -1.0, n - 2.0) for n in shape))
    with fixed_draw(np.full((3, len(shape), 1), -0.0)):
        vals = random_polynomial_field(grid, 0, degree=0).values
        ref = reference.random_polynomial_field(grid, 0, degree=0).values
    assert same_bytes(vals, ref)
    assert not np.signbit(vals).any() and np.array_equal(vals, np.zeros(shape))


@given(
    d=st.integers(2, 4),
    scales=st.lists(axes(5), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rho_quotient_bitwise_equals_two_kernel_copy(count_copies, d, scales, seed, data):
    # Windows start at the scale minimum or one or two points above it.
    grid = GridD(tuple(scales[:d]))
    rng = np.random.default_rng(seed)
    p = window_field(grid, rng, data)
    for axis in range(d):
        if p.hi[axis] == p.lo[axis]:
            with pytest.raises(ValueError, match="window too small"):
                rho_quotient(p, axis)
            continue
        with count_copies(multigrid) as copies:
            out = rho_quotient(p, axis)
        assert copies == [] and not out.values.flags.writeable
        assert bits(out) == bits(reference.rho_quotient(p, axis))
    # The gauge term of each component, with coefficients of 0 (skipped),
    # 1 and others on the parameter and on every axis.
    fam = GaugeFamilyD(grid, rng.choice([0.0, 1.0, -1.0, 0.5], (2, d + 1)))
    for k in range(2):
        assert outcome(gauge_field, fam, p, k) == outcome(reference.gauge_field, fam, p, k)


def test_both_invariance_loops_draw_probes_of_sup_probe_amplitude():
    # One home for the probe sup: report.PROBE_AMPLITUDE, which the 1-D loop
    # (through random_gauge_params) and the d-D loop both read.
    from tsnoether import noether, report

    assert noether.PROBE_AMPLITUDE is report.PROBE_AMPLITUDE and multigrid.PROBE_AMPLITUDE is report.PROBE_AMPLITUDE
    fam = noether.GaugeFamily.constant(q_geometric(1.25, 0.5, 9), [[[1.0, 0.5]], [[0.25, -1.0]]])
    for p in noether.random_gauge_params(fam, [3, 1]):
        assert np.max(np.abs(p.values)) == pytest.approx(report.PROBE_AMPLITUDE, rel=1e-15)
    grid = GridD((h_uniform(1.0, 0.0, 6.0), q_geometric(1.5, 1.0, 7)))
    L, fam = catalog2d("curl2"), GaugeFamilyD(grid, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    u = tuple(random_polynomial_field(grid, seed=[4, k]) for k in range(2))
    with mock.patch.object(multigrid, "random_polynomial_field", wraps=random_polynomial_field) as draw:
        inv = check_invariance_d(L, fam, u, trials=3, seed=5)
    assert [c.kwargs["amplitude"] for c in draw.call_args_list] == [report.PROBE_AMPLITUDE] * 3
    assert bits(inv) == bits(reference.check_invariance_d(L, fam, u, 3, 5))


@pytest.mark.parametrize(
    "d, count, counts",
    [(3, 2, "n = 2 on d = 3"), (2, 1, "n = 1 on d = 2")],
    ids=["fields-on-3-axes", "one-field"],
)
def test_pattern_mismatch_names_both_counts(d, count, counts):
    grid = GridD((h_uniform(1.0, 0.0, 4.0),) * d)
    u = tuple(FieldD(grid, (0,) * d, np.zeros(grid.shape)) for _ in range(count))
    with pytest.raises(ValueError) as err:
        functional_d(catalog2d("curl2"), u)
    assert str(err.value) == f"component or dimension mismatch: the density has n = 2 on d = 2 axes, the fields {counts}"


def density_with_partials(d, n, analytic):
    """A density with products of slots and a coordinate factor, with its
    partials given analytically or taken by central differences."""

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
    return reference.differenced_d(LagrangianD(d=d, n=n, density=density))


@given(
    d=st.integers(2, 4),
    scales=st.lists(axes(8, 7), min_size=4, max_size=4),
    n=st.integers(1, 3),
    analytic=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fused_slots_bitwise_equal_field_path(d, scales, n, analytic, seed, data):
    # Components on windows of their own, some rho-shifted along the last
    # axis (a transposed layout), and coefficients of either zero and 1.0.
    grid = GridD(tuple(scales[:d]))
    u = []
    for k in range(n):
        lo = tuple(data.draw(st.integers(0, 1), label=f"lo{k}") for _ in range(d))
        hi = tuple(data.draw(st.integers(m - 2, m - 1), label=f"hi{k}") for m in grid.shape)
        f = random_polynomial_field(grid, [seed, k], degree=3).restrict(lo, hi)
        if data.draw(st.booleans(), label=f"rho{k}"):
            f = shift_axis(f, d - 1, -1)
        u.append(f)
    u = tuple(u)
    coeff = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.375, -2.5])
    fam = GaugeFamilyD(grid, [tuple(data.draw(coeff, label=f"a{k}") for _ in range(d + 1)) for k in range(n)])
    L = density_with_partials(d, n, analytic)
    p = random_polynomial_field(grid, [seed, 9], amplitude=0.1)

    assert bits(functional_d(L, u)) == bits(reference.functional_d(L, u))
    es = el_expressions_d(L, u)
    assert bits(es) == bits(reference.el_expressions_d(L, u))
    assert bits(noether_identity_d(L, fam, u)) == bits(reference.noether_identity_d(L, fam, u))
    assert bits(check_invariance_d(L, fam, u, trials=2, seed=seed)) == bits(reference.check_invariance_d(L, fam, u, 2, seed))
    for k in range(n):
        assert bits(gauge_field(fam, p, k)) == bits(reference.gauge_field(fam, p, k))
        assert bits(gauge_field_adjoint(fam, es[k], k)) == bits(reference.gauge_field_adjoint(fam, es[k], k))
        assert bits(gauge_pairing(fam, p, u[k], k)) == bits(reference.gauge_pairing(fam, p, u[k], k))


@given(
    d=st.integers(2, 4),
    scales=st.lists(axes(6, 4), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_gauge_pairing_is_summation_by_parts_of_the_earlier_sum(d, scales, seed, data):
    # <q, (G p)^sigma> and <G* q, p^sigma>; windows start 0 or 1 above the
    # minimum and end 0 or 1 below the top, and a row may be all zeros of
    # either sign.
    grid = GridD(tuple(scales[:d]))
    zero_row = data.draw(st.booleans(), label="zero row")
    coeff = st.sampled_from([0.0, -0.0] if zero_row else [0.0, -0.0, 1.0, -1.0, 0.375, -2.5])
    fam = GaugeFamilyD(grid, [tuple(data.draw(coeff, label=f"a{i}") for i in range(d + 1))])

    def window(name):
        lo = tuple(data.draw(st.integers(0, 1), label=f"{name} lo") for _ in range(d))
        hi = tuple(m - 1 - data.draw(st.integers(0, 1), label=f"{name} hi") for m in grid.shape)
        return lo, hi

    p = random_polynomial_field(grid, [seed, 0], amplitude=0.1).restrict(*window("p"))
    q = random_polynomial_field(grid, [seed, 1]).restrict(*window("q"))
    assert outcome(gauge_pairing, fam, p, q, 0) == outcome(reference.gauge_pairing, fam, p, q, 0)


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
    assert bits(e) == bits(reference.el_expressions(path, y))
    es = el_expressions_d(lattice, u)
    assert bits(es) == bits(reference.el_expressions_d(lattice, u))
    for k, ek in enumerate(es):
        assert ek.lo[0] == e.lo and ek.values.shape == (len(e.values), 2)
        for m in range(2):
            assert ek.values[:, m].tobytes() == e.values[:, k].tobytes()
    assert bits(second_el_expression(path, y)) == bits(reference.second_el_expression(path, y))


@pytest.mark.parametrize("expressions, axis", [("el", 0), ("second-el", 0), ("el-d", 0), ("el-d", 1)])
def test_every_euler_lagrange_expression_refuses_a_two_point_window(expressions, axis):
    # One window rule, in the assembly that 1-D and d-D share.
    ts = q_geometric(1.05, 0.5, 6)
    path, lattice = elementwise_densities(1)
    y = GridFunction(ts, 1, np.array([[0.5], [-1.0]]))
    shape = (2, 4) if axis == 0 else (4, 2)
    u = (FieldD(GridD((ts, h_uniform(1.0, 0.0, 3.0))), (1, 0), np.ones(shape)),)
    call = {"el": partial(el_expressions, path, y), "second-el": partial(second_el_expression, path, y),
            "el-d": partial(el_expressions_d, lattice, u)}[expressions]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == "window too small for the Euler-Lagrange expressions"


@given(
    d=st.integers(1, 4),
    scales=st.lists(axes(8, 7), min_size=4, max_size=4),
    n=st.integers(1, 3),
    scalar=st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.375, np.nan]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_window_arithmetic_bitwise_equals_earlier_copies(d, scales, n, scalar, seed, data):
    # Operands on windows of their own, which may start above 0, overlap in
    # one cell or touch without overlapping; 1-D operands of 1 to 3
    # components (n against 1 broadcasts, 2 against 3 is refused).
    rng = np.random.default_rng(seed)
    shape = tuple(len(s) for s in scales[:d])

    def operand(label, *components):
        if data.draw(st.booleans(), label=f"wide {label}"):
            lo = [data.draw(st.integers(0, 3), label=f"lo {label}") for m in shape]
            hi = [data.draw(st.integers(m - 4, m - 1), label=f"hi {label}") for m in shape]
        else:
            lo = [data.draw(st.integers(0, m - 1), label=f"lo {label}") for m in shape]
            hi = [data.draw(st.integers(l, m - 1), label=f"hi {label}") for l, m in zip(lo, shape)]
        vals = signed_samples(rng, tuple(h - l + 1 for l, h in zip(lo, hi)) + components)
        vals[rng.uniform(size=vals.shape) < 0.05] = np.nan
        if d == 1:
            return GridFunction(scales[0], lo[0], vals)
        return FieldD(GridD(tuple(scales[:d])), tuple(lo), vals)

    if d == 1:
        f, g = (operand(label, data.draw(st.integers(1, 3), label=f"n {label}")) for label in "fg")
    else:
        f, g = operand("f"), operand("g")
        assert outcome(operator.neg, f) == bits(FieldD(f.grid, f.lo, -f.values))
    for op, ufunc in ((operator.add, np.add), (operator.sub, np.subtract), (operator.mul, np.multiply)):
        for a, b in ((f, g), (g, f), (f, scalar)):
            assert outcome(op, a, b) == outcome(reference.binary, a, b, ufunc)
    assert outcome(operator.mul, scalar, f) == outcome(reference.binary, f, scalar, np.multiply)
    if d == 1:
        return
    if d == 2:
        assert outcome(greens_residual, f, g) == outcome(reference.greens_residual, f, g)
    u = tuple(operand(f"u{k}") for k in range(n))
    L = density_with_partials(d, n, analytic=True)
    assert outcome(functional_d, L, u) == outcome(reference.functional_d, L, u)
    assert outcome(el_expressions_d, L, u) == outcome(reference.el_expressions_d, L, u)


def field_strength_component(grid, kind, seed, lo):
    """A polynomial field, a constant one (every F entry it takes part in
    is an exact zero) or signed samples with +-0.0 and equal neighbours,
    on the window at lo."""
    if kind == "poly":
        vals = random_polynomial_field(grid, seed).values
    elif kind == "signed":
        vals = signed_samples(np.random.default_rng(seed), grid.shape)
    else:
        vals = np.full(grid.shape, {"zero": 0.0, "negzero": -0.0, "const": 1.5}[kind])
    return FieldD(grid, (0,) * grid.d, vals).restrict(lo, tuple(n - 1 for n in grid.shape))


@given(
    em=st.booleans(),
    scales=st.lists(axes(8, 7), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
# No explain phase: it reruns a failing example under a line tracer, about 300 s
# in all for this test.
@settings(max_examples=60, deadline=None, phases=tuple(p for p in Phase if p is not Phase.explain))
def test_field_strength_densities_equal_earlier_copies(em, scales, seed, data):
    # One field-strength builder serves curl2 and em.  Each slot of the g
    # partial sums from +0.0, so where F is +0.0 both slots hold +0.0.
    from tsnoether.em import em_lagrangian

    d = 4 if em else 2
    grid = GridD(tuple(scales[:d]))
    kinds = st.sampled_from(["poly", "signed", "zero", "negzero", "const"])
    u = tuple(
        field_strength_component(
            grid,
            data.draw(kinds, label=f"kind{k}"),
            [seed, k],
            tuple(data.draw(st.integers(0, 1), label=f"lo{k}") for _ in range(d)),
        )
        for k in range(d)
    )
    new = em_lagrangian() if em else catalog2d("curl2")
    ref = reference.field_strength_lagrangian(4, reference.ELECTRIC, reference.MAGNETIC) if em else (
        reference.field_strength_lagrangian(2, ((0, 1),)))
    coords, U, G, _, _ = multigrid._pattern_args(new, u)
    for which in "Lu":
        assert new.sample(which, coords, U, G).tobytes() == ref.sample(which, coords, U, G).tobytes()
    # The g partial writes over the G it is given, so each call gets its own
    # copy; the slots it does not declare keep the pattern's NaN.
    dg, dg_ref = (L.sample("g", coords, U, G.copy()) for L in (new, ref))
    assert all(dg[s].tobytes() == dg_ref[s].tobytes() for s in ref.g_slots)
    assert all(dg[s].tobytes() == G[s].tobytes() for s in undeclared(new))
    assert new.g_slots == ref.g_slots and not np.signbit(dg[dg == 0.0]).any()
    assert bits(functional_d(new, u)) == bits(functional_d(ref, u))
    assert bits(el_expressions_d(new, u)) == bits(el_expressions_d(ref, u))


@given(
    d=st.integers(2, 4),
    scales=st.lists(axes(5), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_shift_all_except_none_shifts_every_axis(d, scales, seed, data):
    from tsnoether.multigrid import shift_all_except

    grid = GridD(tuple(scales[:d]))
    lo = tuple(data.draw(st.integers(1, n - 1), label="lo") for n in grid.shape)
    hi = tuple(data.draw(st.integers(l, n - 1), label="hi") for l, n in zip(lo, grid.shape))
    f = FieldD(grid, lo, signed_samples(np.random.default_rng(seed), tuple(h - l + 1 for l, h in zip(lo, hi))))
    out = shift_all_except(f, None)
    assert out.lo == tuple(l - 1 for l in lo) and bits(out) == bits(reference.sigma_all(f))
    assert same_bytes(out.values, f.values)


# The grid's pattern workspace: every action on a grid writes its U and G
# into the one pair the grid holds, which must change no bit.  A fresh pair
# is taken by re-homing the fields on a new GridD of the same scales.


def rehomed(u, grid=None):
    """u's components on `grid`, by default a new GridD of u's scales, whose
    workspace is empty."""
    grid = GridD(u[0].grid.scales) if grid is None else grid
    return tuple(FieldD(grid, f.lo, f.values) for f in u)


@contextmanager
def recorded_actions(module, name):
    """Patch module.name, an action taking (..., fields), so that each call
    logs its fields, its value, the workspace of the fields' grid and the
    (U, G) pair the call left in it."""
    log = []
    real = getattr(module, name)

    def recording(*args):
        value = real(*args)
        workspace = args[-1][0].grid._workspace
        log.append((args[-1], value, workspace, tuple(workspace[:2])))
        return value

    with mock.patch.object(module, name, recording):
        yield log


def assert_one_held_pair_bitwise_fresh(log, L):
    """Every logged action wrote into the first action's workspace and (U, G)
    pair, and equals a call on a fresh pair bit for bit.  (The asserts
    compare plain values: explaining a failure by the repr of the fields
    and slots would take minutes.)"""
    first = log[0]
    one_list = all(workspace is first[2] for _, _, workspace, _ in log)
    one_pair = all(len(pair) == 2 and all(a is b for a, b in zip(pair, first[3])) for _, _, _, pair in log)
    assert one_list and one_pair
    for fields, value, _, _ in log:
        fresh = functional_d(L, rehomed(fields))
        assert bits(value) == bits(fresh)


def em_lattice(kind, n):
    """n^4 points, all axes h:1 or the mixed h(0.5)/q/h(1)/q axes."""
    if kind == "uniform":
        return GridD(tuple(h_uniform(1.0, 0.0, n - 1.0) for _ in range(4)))
    return GridD(
        (h_uniform(0.5, 0.0, 0.5 * (n - 1)), q_geometric(1.1, 1.0, n), h_uniform(1.0, 0.0, n - 1.0),
         q_geometric(1.15, 0.5, n))
    )


def grid_2d(kind, k):
    h, q = h_uniform(1.0, 0.0, k - 1.0), q_geometric(1 + 3 / k, 1.0, k)
    return GridD((h, q) if kind == "hq" else (q, h))


TABLES_2D = {"curl2": [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)], "dirichlet2": [(0.375, 1.0, -2.5)]}


@contextmanager
def gc_disabled():
    """Run the body with the cycle collector off, so that only reference
    counts free objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_workspace_freed_with_its_grid():
    # The loops leave their pair in the grid's workspace, and dropping the
    # grid and its fields frees the pair by reference count alone.
    from tsnoether import em

    with gc_disabled():
        fam = em.em_gauge_family(em_lattice("mixed", 5))
        em._gauge_invariance(fam, 3, 1)
        grid = grid_2d("hq", 20)
        u = tuple(random_polynomial_field(grid, seed=[1, k]) for k in range(2))
        check_invariance_d(catalog2d("curl2"), GaugeFamilyD(grid, TABLES_2D["curl2"]), u, trials=3, seed=1)
        pairs = [weakref.ref(a) for g in (fam.grid, grid) for a in g._workspace[:2]]
        alive = [ref() is not None for ref in pairs]
        del fam, grid, u
        dead = [ref() is None for ref in pairs]
    assert alive == dead == [True] * 4


@contextmanager
def made_grids():
    """Log a weak reference to every GridD made in the body."""
    refs = []
    real = GridD.__post_init__

    def logging(self):
        real(self)
        refs.append(weakref.ref(self))

    with mock.patch.object(GridD, "__post_init__", logging):
        yield refs


@pytest.mark.parametrize("name", ["check2d-hq", "em-mixed"])
def test_no_grid_outlives_the_lattice_commands(name):
    with gc_disabled(), made_grids() as refs:
        code, out = cli_stdout([*LATTICE_COMMANDS[name], "--seed", "2"])
        assert code in (0, 1) and out and len(refs) == 1
        assert refs[0]() is None


def test_held_slots_reallocated_when_the_pattern_shape_changes():
    grid = GridD((h_uniform(0.5, 0.0, 4.5), q_geometric(1.2, 1.0, 10)))
    L = catalog2d("curl2")
    full = tuple(random_polynomial_field(grid, seed=[3, k]) for k in range(2))
    small = tuple(f.restrict((1, 2), (8, 9)) for f in full)
    moved = tuple(f.restrict((0, 0), (7, 7)) for f in full)  # small's shape on another window
    three = GridD((*grid.scales, h_uniform(1.0, 0.0, 5.0)))
    L3 = LagrangianD(d=3, n=2, density=lambda coords, U, G: G[2, 1] * G[0, 0] + coords[1] * U[0])
    cube = tuple(random_polynomial_field(three, seed=[4, k]) for k in range(2))
    # The workspace holds the window's coordinates and gap tables, so a
    # window of the same shape at another lo is made again, then reused;
    # the cube's grid has a workspace of its own.
    for lagrangian, u, reused in ((L, full, False), (L, small, False), (L, moved, False), (L, moved, True),
                                  (L, full, False), (L3, cube, False), (L3, cube, True), (L, full, True)):
        workspace = u[0].grid._workspace
        before = workspace[1] if workspace else None
        value = functional_d(lagrangian, u)
        assert bits(value) == bits(functional_d(lagrangian, rehomed(u))) == bits(reference.functional_d(lagrangian, u))
        _, U, G, _, _ = multigrid._pattern_args(lagrangian, rehomed(u))
        assert (workspace[0].shape, workspace[1].shape) == (U.shape, G.shape)
        assert (workspace[1] is before) == reused


def test_held_slots_made_again_for_other_declared_slots():
    # A pair made for a density that declares every slot holds values in the
    # slots curl2 leaves undeclared; a curl2 copy that reads one must still
    # read NaN there, as from a fresh pair.
    grid = GridD((h_uniform(1.0, 0.0, 9.0),) * 2)
    u = tuple(random_polynomial_field(grid, seed=[1, k]) for k in range(2))
    curl2 = catalog2d("curl2")
    every = replace(curl2, g_slots=None)
    reading = replace(curl2, density=lambda coords, U, G: curl2.density(coords, U, G) + 0.0 * G[0, 0])
    values = [functional_d(L, u) for L in (every, reading, every)]
    assert np.isnan(values[1]) and np.isnan(functional_d(reading, rehomed(u)))
    assert bits(values[0]) == bits(values[2]) == bits(functional_d(every, rehomed(u)))


def test_held_slots_divide_by_mu_on_every_call():
    grid = GridD((q_geometric(1.3, 0.5, 9), h_uniform(1.0, 0.0, 8.0), h_uniform(0.25, 0.0, 2.0)))
    L = LagrangianD(d=3, n=2, density=lambda coords, U, G: G[0, 0] * G[2, 1] - G[1, 1] * U[0])
    f = tuple(random_polynomial_field(grid, seed=[5, k]) for k in range(2))
    g = tuple(random_polynomial_field(grid, seed=[6, k], amplitude=3.0).restrict((1, 0, 1), (8, 7, 8)) for k in range(2))
    workspace = grid._workspace
    for u in (f, g, f, g, g):
        value = functional_d(L, u)
        _, U, G, _, _ = multigrid._pattern_args(L, rehomed(u))
        assert workspace[0].tobytes() == U.tobytes() and workspace[1].tobytes() == G.tobytes()
        assert bits(value) == bits(functional_d(L, rehomed(u))) == bits(reference.functional_d(L, u))


def test_held_slots_with_a_density_that_returns_a_view_of_g():
    grid = grid_2d("qh", 12)
    L = LagrangianD(d=2, n=1, density=lambda coords, U, G: G[1, 0])
    u = (random_polynomial_field(grid, seed=[8, 0]),)
    coords, U, G, _, _ = multigrid._pattern_args(L, u)
    assert np.shares_memory(L.sample("L", coords, U, G), G)
    fam = GaugeFamilyD(grid, [(0.5, 1.0, -0.75)])
    with recorded_actions(multigrid, "functional_d") as log:
        report = check_invariance_d(L, fam, u, trials=4, seed=8)
    assert bits(report) == bits(reference.check_invariance_d(L, fam, u, 4, 8))
    values = {bits(entry[1]) for entry in log}
    assert len(values) == 5
    assert_one_held_pair_bitwise_fresh(log, L)


@given(
    kind=st.sampled_from(["uniform", "mixed", "hq", "qh"]),
    size=st.integers(5, 7),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    density=st.sampled_from(sorted(TABLES_2D)),
)
# No explain phase: it reruns failing examples under a line tracer, which took
# about 4 s per example of this numpy-heavy test and minutes per failure.
@settings(max_examples=40, deadline=None, phases=tuple(p for p in Phase if p is not Phase.explain))
def test_held_slot_actions_bitwise_equal_fresh_calls(kind, size, trials, seed, density):
    from tsnoether import em

    if kind in ("uniform", "mixed"):
        fam = em.em_gauge_family(em_lattice(kind, size))
        with recorded_actions(em, "em_functional") as log:
            report = em._gauge_invariance(fam, trials, seed)
        actions = len(log)
        assert bits(report) == bits(reference.em_gauge_invariance(fam, trials, seed))
        assert actions == 2 * trials
        assert_one_held_pair_bitwise_fresh(log, em.em_lagrangian())
    else:
        grid = grid_2d(kind, 6 * size)
        L = catalog2d(density)
        u = tuple(random_polynomial_field(grid, seed=[seed, 7 + k]) for k in range(L.n))
        fam = GaugeFamilyD(grid, TABLES_2D[density])
        with recorded_actions(multigrid, "functional_d") as log:
            report = check_invariance_d(L, fam, u, trials=trials, seed=seed)
        actions, base_actions = len(log), [entry[0] is u for entry in log].count(True)
        assert bits(report) == bits(reference.check_invariance_d(L, fam, u, trials, seed))
        assert (actions, base_actions) == (trials + 1, 1)
        assert_one_held_pair_bitwise_fresh(log, L)


# Declared gradient slots: a density names the G slots it reads
# (LagrangianD.g_slots), and the pattern writes only those and leaves NaN in
# the others.


def field_strength_densities():
    from tsnoether.em import em_lagrangian

    return {"em": em_lagrangian(), "curl2": catalog2d("curl2")}


def undeclared(L):
    return [s for s in np.ndindex(L.d, L.n) if s not in L.g_slots]


def test_builtin_densities_declare_their_slots():
    densities = field_strength_densities()
    counts = {name: (len(L.g_slots), len(set(L.g_slots)), L.d * L.n) for name, L in densities.items()}
    assert counts == {"em": (12, 12, 16), "curl2": (2, 2, 4)}
    assert all(set(undeclared(L)) == {(j, j) for j in range(L.d)} for L in densities.values())
    assert catalog2d("dirichlet2").g_slots is None


@given(name=st.sampled_from(["em", "curl2"]), seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_undeclared_slots_change_no_bit(name, seed, data):
    L = field_strength_densities()[name]
    rng = np.random.default_rng(seed)
    cells = tuple(data.draw(st.integers(1, 4), label=f"cells{ax}") for ax in range(L.d))
    coords = tuple(rng.uniform(-1, 1, c).reshape([c if a == ax else 1 for a in range(L.d)]) for ax, c in enumerate(cells))
    U = signed_samples(rng, (L.n,) + cells)
    G = signed_samples(rng, (L.d, L.n) + cells)

    def partials(G):
        # The g partial writes its declared slots over a copy of G and leaves the others as G has them.
        d_g = L.sample("g", coords, U, G.copy())
        assert all(d_g[s].tobytes() == G[s].tobytes() for s in undeclared(L))
        return [L.sample(which, coords, U, G).tobytes() for which in "Lu"] + [d_g[s].tobytes() for s in L.g_slots]

    reference = partials(G)
    for fill in (lambda: rng.uniform(-1e3, 1e3, cells), lambda: np.full(cells, np.nan)):
        moved = G.copy()
        for s in undeclared(L):
            moved[s] = fill()
        assert partials(moved) == reference


@pytest.mark.parametrize("name", ["em", "curl2"])
def test_pattern_writes_only_the_declared_slots(name):
    L = field_strength_densities()[name]
    every = replace(L, g_slots=None, d_u=held_zero_d_u)
    grid = em_lattice("mixed", 6) if name == "em" else grid_2d("qh", 12)
    full = [tuple(random_polynomial_field(grid, seed=[seed, k]) for k in range(L.n)) for seed in (1, 2)]
    inner = tuple(f.restrict((1,) * grid.d, tuple(n - 2 for n in grid.shape)) for f in full[0])
    # The grid's workspace, reused on the repeated windows, and a fresh one.
    for u in (full[0], full[1], inner, full[1], full[0]):
        _, U_all, G_all, lo_all, _ = multigrid._pattern_args(every, rehomed(u))
        for fields in (u, rehomed(u)):
            _, U, G, lo, _ = multigrid._pattern_args(L, fields)
            assert (lo, U.shape) == (lo_all, U_all.shape) and np.isnan(U).all()
            assert all(G[s].tobytes() == G_all[s].tobytes() for s in L.g_slots)
            assert all(np.isnan(G[s]).all() for s in undeclared(L))
            assert not np.isnan(G_all).any()


def test_density_reading_an_undeclared_slot_fails():
    grid = grid_2d("hq", 20)
    curl2 = catalog2d("curl2")
    honest = replace(curl2, density=lambda coords, U, G: curl2.density(coords, U, G) + 0.0 * G[0, 0], g_slots=None)
    reading = replace(honest, g_slots=curl2.g_slots)
    u = tuple(random_polynomial_field(grid, seed=[3, k]) for k in range(2))
    fam = GaugeFamilyD(grid, TABLES_2D["curl2"])
    assert check_invariance_d(honest, fam, u, trials=3, seed=3).verdict
    report = check_invariance_d(reading, fam, u, trials=3, seed=3)
    assert not report.verdict and np.isnan(report.sup_norm)
    assert np.isnan(functional_d(reading, u))


# Lattice kernels in long passes.  A ufunc passes an operand's short strided
# or broadcast rows through numpy's buffer, so four kernels were rewritten to
# run in long contiguous passes: the probe product by einsum in the grid's
# layout, the rho-quotient as one difference over the flat values, the slot
# operand copied before its subtract and the unit-step integral copied in
# place of a multiply by 1.0.  Each is pinned here, at the benchmark's sizes,
# to its reference.

PROBE_GRIDS = ("hq-300", "qh-300", "short-first", "short-last", "uniform-10", "uniform-12", "uniform-16", "mixed-14",
               "hqh-3d")
RHO_GRIDS = ("q-half", "unit-q", "half-unit-q", "q-q-half", "unit-half-q-unit", "q-half-unit-q")


def named_grid(name):
    """The check2d grids (300 x 300 and 40 x 300 in both orientations), the
    em lattices at 10^4, 12^4, 16^4 and 14^4 and a 3-d grid, each with an h
    axis from 0 (PROBE_GRIDS); and grids of 2 to 4 axes with non-unit axes
    (q and h:0.5) at every position, the last one included, and some unit
    axes among them (RHO_GRIDS)."""
    h, q, short = h_uniform(1.0, 0.0, 299.0), q_geometric(1.01, 1.0, 300), h_uniform(0.5, 0.0, 19.5)
    q7, half, unit = q_geometric(1.2, 0.5, 7), h_uniform(0.5, -1.0, 2.0), h_uniform(1.0, 0.0, 5.0)
    if name.startswith(("uniform", "mixed")):
        kind, n = name.split("-")
        return em_lattice(kind, int(n))
    return GridD({
        "hq-300": (h, q), "qh-300": (q, h), "short-first": (short, q), "short-last": (q, short),
        "hqh-3d": (h_uniform(1.0, 0.0, 11.0), q_geometric(1.2, 1.0, 9), h_uniform(0.25, 0.0, 2.0)),
        "q-half": (q7, half), "unit-q": (unit, q7), "half-unit-q": (half, unit, q7),
        "q-q-half": (q7, q_geometric(1.5, 1.0, 5), half), "unit-half-q-unit": (unit, half, q7, h_uniform(1.0, 0.0, 3.0)),
        "q-half-unit-q": (q7, half, unit, q_geometric(1.05, 2.0, 4)),
    }[name])


@pytest.mark.parametrize("zeros", ["none", "constant", "wide"])
@pytest.mark.parametrize("name", sorted(PROBE_GRIDS))
def test_probe_field_bitwise_equals_outer_products(name, zeros):
    # "constant" zeroes the constant coefficients of the first axis that
    # starts at 0 with random signs, so that every product on that point is
    # a signed zero; "wide" draws magnitudes of 1e-20 to 1e20, and one term
    # near 1e-320 / d per axis, whose products are subnormal.  "none" also
    # draws from the seed itself.
    grid = named_grid(name)
    axis = next(ax for ax, s in enumerate(grid.scales) if s.points[0] == 0.0)
    for seed in range(3):
        rng = np.random.default_rng([31, seed])
        draw = rng.uniform(-1, 1, (3, grid.d, 3))
        if zeros == "constant":
            draw[:, axis, 0] = np.where(rng.integers(0, 2, 3), -0.0, 0.0)
        elif zeros == "wide":
            draw *= 10.0 ** rng.uniform(-20, 20, draw.shape)
            draw[2] = rng.uniform(-1, 1, (grid.d, 3)) * 10.0 ** (-320 / grid.d)
        with fixed_draw(draw):
            vals = random_polynomial_field(grid, seed, amplitude=0.1).values
            refs = [reference.random_polynomial_field(grid, seed, amplitude=0.1).values]
        if zeros == "none":
            refs.append(reference.random_polynomial_field(grid, [31, seed], amplitude=0.1).values)
        assert all(same_bytes(vals, ref) for ref in refs), f"{name}, seed {seed}"


def rho_windows(grid):
    """A field on the whole grid, one on a window that starts above the scale
    minimum on every axis, and one whose values are a strided view (the sigma
    shift along the last axis, which keeps the window at the minimum)."""
    rng = np.random.default_rng(grid.shape)
    whole = FieldD(grid, (0,) * grid.d, signed_samples(rng, grid.shape))
    above = whole.restrict((1,) * grid.d, tuple(n - 1 for n in grid.shape))
    strided = shift_axis(whole, grid.d - 1, 1)
    assert whole.values.flags.c_contiguous and not strided.values.flags.c_contiguous
    assert strided.lo == (0,) * grid.d
    return {"whole": whole, "above": above, "strided": strided}


@pytest.mark.parametrize("window", ["whole", "above", "strided"])
@pytest.mark.parametrize("name", ["hq-300", "qh-300", "uniform-16", "mixed-14", "hqh-3d", *sorted(RHO_GRIDS)])
def test_flat_rho_quotient_bitwise_equals_shifted_quotient(name, window):
    grid = named_grid(name)
    p = rho_windows(grid)[window]
    for axis in range(grid.d):
        assert bits(rho_quotient(p, axis)) == bits(reference.rho_quotient(p, axis)), axis


@pytest.mark.parametrize("specials", ["zeros", "inf", "-inf", "both-inf"])
@pytest.mark.parametrize("second", [None, "h", "q", "q-h", "h-h-h"])
def test_unit_step_integral_copy_bitwise_equals_multiply(second, specials):
    # Samples of +-0.0 (a column of -0.0 only, too) and +-inf, with a
    # component axis and in a strided (transposed) layout, and one C-order
    # component, which a window of unit steps only ("h" is h:1) sums where
    # it lies; a q axis after unit ones takes the one product.
    unit, h, q = h_uniform(1.0, -3.0, 40.0), h_uniform(1.0, 0.0, 6.0), q_geometric(1.3, 1.0, 7)
    others = {None: (), "h": (h,), "q": (q,), "q-h": (q, h), "h-h-h": (h, h_uniform(1.0, 2.0, 5.0), h)}[second]
    scales = (unit, *others)
    shape = tuple(len(s) for s in scales)
    rng = np.random.default_rng(len(shape))
    vals = signed_samples(rng, shape + (3,))
    vals[..., 2] = -0.0
    if specials != "zeros":
        picks = rng.uniform(size=shape) < 0.05
        vals[..., 1][picks] = {"inf": np.inf, "-inf": -np.inf, "both-inf": np.inf}[specials]
        if specials == "both-inf":
            vals[..., 1][rng.uniform(size=shape) < 0.05] = -np.inf
    for lo in ((0,) * len(scales), (2,) * len(scales)):
        window = vals[tuple(slice(l, None) for l in lo)]
        for layout in (window, np.asfortranarray(window), np.ascontiguousarray(window[..., 1:2])):
            with np.errstate(invalid="ignore"):  # inf - inf
                out, ref = window_integral(scales, lo, layout), reference.integral(scales, lo, layout)
            assert out.tobytes() == ref.tobytes(), lo


@pytest.mark.parametrize("kind", ["uniform", "mixed", "hq", "qh"])
def test_held_slot_functional_bitwise_equals_fresh_and_subtracted_view(kind):
    # Each action writes its slots by copying the shifted view and
    # subtracting it in place.  A window above the minimum changes the
    # pattern shape, so that the held pair is made again and then reused.
    from tsnoether import em

    if kind in ("uniform", "mixed"):
        grid, densities = em_lattice(kind, 9), [em.em_lagrangian()]
        fields = [em.random_em_field(grid, seed=[31, t]) for t in range(3)]
    else:
        grid, densities = grid_2d(kind, 120), [catalog2d("curl2"), catalog2d("dirichlet2")]
        fields = [tuple(random_polynomial_field(grid, seed=[31, t, k]) for k in range(2)) for t in range(3)]
    above = tuple(f.restrict((1,) * grid.d, tuple(n - 1 for n in grid.shape)) for f in fields[0])
    for L in densities:
        for u in [*fields, above, fields[1]]:
            u = u[: L.n]
            held = functional_d(L, u)
            assert bits(held) == bits(functional_d(L, rehomed(u))) == bits(reference.functional_d(L, u))


# Each probe field in one contraction, and no lattice pass that changes no
# bit.  The probe sum is one einsum of the stacked heads with the last
# axis's polynomials; the rho-quotient off unit steps divides its whole
# buffer once, by 1.0 and the gaps; window_integral copies nothing before
# its first product, nor a C-order window of unit steps; and the
# Euler-Lagrange expressions read no undeclared slot.  The long-pass tests
# above pin the first three bit for bit to their references; these pin what
# bits cannot show, and the last to the reference that subtracts every slot.

def test_probe_points_are_cached_and_read_only():
    grid = em_lattice("mixed", 6)
    points = grid.probe_points
    assert points is grid.probe_points and not points.flags.writeable
    ref = np.concatenate([s.points / max(np.max(np.abs(s.points)), 1.0) for s in grid.scales])
    assert same_bytes(points, ref)


@pytest.mark.parametrize("name", sorted(RHO_GRIDS))
def test_one_pass_rho_quotient_reads_no_unwritten_entry(name):
    # np.empty is made to return signalling NaNs: the head that the flat
    # difference leaves unwritten is zeroed before the divide, so no
    # invalid operation is raised, and every other entry is written.
    grid = named_grid(name)
    p = rho_windows(grid)["whole"]
    real = np.empty

    def signalling(shape, *args, **kwargs):
        return np.full(shape, np.uint64(0x7FF0000000000001)).view(np.float64)

    for axis in range(grid.d):
        ref = rho_quotient(p, axis).values
        with mock.patch.object(multigrid.np, "empty", signalling), np.errstate(invalid="raise"):
            out = rho_quotient(p, axis).values
        assert same_bytes(out, ref), axis
    assert np.empty is real


def test_integral_copies_its_window_at_most_once():
    # 960 kB of C-order samples on unit axes are summed where they lie; in
    # another layout, or weighted by a q axis, they are copied once, so the
    # product is taken in C order and not copied again to be summed.
    import tracemalloc

    unit, q = h_uniform(1.0, 0.0, 400.0), q_geometric(1.001, 1.0, 301)
    values = np.random.default_rng(0).uniform(-1, 1, (400, 300, 1))
    peaks = {}
    for second in ("unit", "q"):
        scales = (unit, h_uniform(1.0, 0.0, 300.0) if second == "unit" else q)
        for order in "CF":
            layout = np.asarray(values, order=order)
            tracemalloc.start()
            window_integral(scales, (0, 0), layout)
            peaks[second, order] = tracemalloc.get_traced_memory()[1] / values.nbytes
            tracemalloc.stop()
    assert peaks.pop(("unit", "C")) < 0.1
    assert all(1.0 <= peak < 1.5 for peak in peaks.values()), peaks


def differenced_density(g_slots=((2, 0), (0, 1), (1, 1), (1, 0))):
    """A 3-d, two-component density given by its values, declaring four of
    its six slots by default, with central differences for its partials."""

    def density(coords, U, G):
        return G[0, 1] * G[2, 0] + coords[1] * G[0, 1] ** 2 + U[1] * G[2, 0] ** 3 + 0.5 * G[1, 1] * U[0]

    return reference.differenced_d(LagrangianD(d=3, n=2, density=density, g_slots=g_slots))


@pytest.mark.parametrize("name", ["em-mixed", "em-uniform", "curl2", "dirichlet2", "differenced", "differenced-all"])
def test_el_expressions_bitwise_equal_full_assembly(name):
    from tsnoether import em

    L = {"em-mixed": em.em_lagrangian(), "em-uniform": em.em_lagrangian(), "curl2": catalog2d("curl2"),
         "dirichlet2": catalog2d("dirichlet2"), "differenced": differenced_density(),
         "differenced-all": differenced_density(g_slots=None)}[name]
    grid = {"em-mixed": em_lattice("mixed", 7), "em-uniform": em_lattice("uniform", 8), "curl2": grid_2d("qh", 40),
            "dirichlet2": grid_2d("hq", 40)}.get(name, GridD((q_geometric(1.2, 1.0, 8), h_uniform(0.5, 0.0, 3.0),
                                                              h_uniform(1.0, 0.0, 5.0))))
    fields = [tuple(random_polynomial_field(grid, seed=[33, t, k]) for k in range(L.n)) for t in range(2)]
    fields.append(tuple(f.restrict((1,) * grid.d, tuple(n - 1 for n in grid.shape)) for f in fields[0]))
    quotients = []
    real = variational._quotient

    def counting(*args):
        quotients.append(args[3])
        return real(*args)

    for u in fields:
        ref = reference.el_expressions_d(L, u)
        quotients.clear()
        with mock.patch.object(variational, "_quotient", counting):
            out = el_expressions_d(L, u)
        assert bits(out) == bits(ref)
        assert len(quotients) == (L.d * L.n if L.g_slots is None else len(L.g_slots))


@pytest.mark.parametrize("kind", ["uniform", "mixed"])
def test_em_euler_lagrange_call_allocates_less_than_one_G(kind):
    # The field-strength g partial is written over the pattern's own G, so on
    # a built workspace the call allocates only the expressions and their quotients.
    import tracemalloc

    from tsnoether import em

    grid, L = em_lattice(kind, 10), em.em_lagrangian()
    A = em.random_em_field(grid, seed=[0, 1])
    el_expressions_d(L, A)
    tracemalloc.start()
    try:
        el_expressions_d(L, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid._workspace[1].nbytes


def test_zero_u_partial_is_one_scalar():
    from tsnoether import em

    for L in (em.em_lagrangian(), catalog2d("curl2"), catalog2d("dirichlet2")):
        U, G = np.ones((L.n, 3, 4)[: 1 + L.d]), np.ones((L.d, L.n, 3, 4)[: 2 + L.d])
        assert np.asarray(L.d_u((), U, G)).shape == ()
        assert same_bytes(np.ascontiguousarray(L.sample("u", (), U, G)), np.zeros(U.shape))


@pytest.mark.parametrize(
    "values",
    [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [3.0, -5.0, 4.0], [-np.inf, 2.0], [np.inf, -np.inf], [5e-324, -1e-320, 0.0],
     [1e150, -1e154, 2.0], [np.nan, 1.0], [1.0, -np.nan]],
)
def test_report_sup_bitwise_equals_abs_max(values):
    arr = np.array(values)
    rep = ResidualReport.from_per_point((0, 0), arr.reshape(-1, 1)[::-1], 1.0)
    ref = float(np.max(np.abs(arr)))
    assert np.float64(rep.sup_norm).tobytes() == np.float64(ref).tobytes() or (np.isnan(rep.sup_norm) and np.isnan(ref))
    assert not np.signbit(rep.sup_norm) or np.isnan(rep.sup_norm)


# One pattern workspace per lattice command.  check2d and em make one
# grid, whose workspace serves every pattern section: U, G, the key, the
# cell coordinates, a plan of slot views and per-axis C-order gap tables,
# which divide the slots and weigh the integral as the broadcast gaps did.
# Probe fields take polyval's Horner steps inline and their heads by
# broadcast products.

LATTICE_COMMANDS = {
    "check2d-hq": ["check2d", "--grid", "h:1:0:59,q:1.05:1:60", "--family", "grad2", "--trials", "3"],
    "check2d-qh": ["check2d", "--grid", "q:1.05:1:60,h:0.5:0:29.5", "--lagrangian", "curl2", "--trials", "3"],
    "em-uniform": ["em", "--lattice", "h:1:0:6,h:1:0:6,h:1:0:6,h:1:0:6", "--trials", "3"],
    "em-mixed": ["em", "--lattice", "h:0.5:0:3,q:1.1:1:8,h:1:0:7,q:1.15:0.5:8", "--trials", "3"],
}


def cli_stdout(argv):
    import io
    from contextlib import redirect_stdout

    from tsnoether import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(LATTICE_COMMANDS))
def test_lattice_commands_share_one_workspace_bitwise_as_fresh_pairs(name):
    # Every pattern of the command goes through one grid's workspace; with a
    # fresh workspace for every call instead, the report keeps every byte.
    argv = [*LATTICE_COMMANDS[name], "--seed", "5"]
    real = multigrid._pattern_args
    lists = []

    def recording(L, u):
        lists.append(u[0].grid._workspace)
        return real(L, u)

    def fresh(L, u):
        u[0].grid._workspace.clear()  # a new workspace on every call
        return real(L, u)

    with mock.patch.object(multigrid, "_pattern_args", recording):
        shared = cli_stdout(argv)
    with mock.patch.object(multigrid, "_pattern_args", fresh):
        unshared = cli_stdout(argv)
    # check2d: the base action, 3 trial actions and the identity; em: 2
    # actions per trial, the identity and the wave form.
    calls = {"check2d": 1 + 3 + 1, "em": 2 * 3 + 1 + 1}[argv[0]]
    assert len(lists) == calls and all(s is lists[0] for s in lists)
    assert shared == unshared and shared[0] in (0, 1)


def holds_el_state_of(workspace, L, u):
    """The workspace's U is the pattern of u and its G the g partial of that
    pattern, which the last call, an Euler-Lagrange one, wrote over G."""
    coords, U, G, _, _ = multigrid._pattern_args(L, rehomed(u))
    return same_bytes(workspace[0], U) and same_bytes(workspace[1], L.sample("g", coords, U, G))


@pytest.mark.parametrize("kind", ["uniform", "mixed"])
def test_em_sections_on_one_workspace_bitwise_equal_fresh_calls(kind):
    from tsnoether import em

    grid = em_lattice(kind, 7)
    fam = em.em_gauge_family(grid)
    workspace = grid._workspace
    gauge = em._gauge_invariance(fam, 3, 5)
    U, plan = workspace[0], workspace[4]
    ident = noether_identity_d(em.em_lagrangian(), fam, em.random_em_field(grid, seed=[5, 1]))
    assert holds_el_state_of(workspace, em.em_lagrangian(), em.random_em_field(grid, seed=[5, 1]))
    wave = em.em_wave_reduction_residual(lorentz_field(grid))
    assert holds_el_state_of(workspace, em.em_lagrangian(), lorentz_field(grid))
    assert workspace[0] is U and workspace[4] is plan  # one key on the grid for all three sections
    assert bits(gauge) == bits(reference.em_gauge_invariance(fam, 3, 5))
    fresh = GridD(grid.scales)
    assert bits(ident) == bits(noether_identity_d(em.em_lagrangian(), em.em_gauge_family(fresh),
                                                  em.random_em_field(fresh, seed=[5, 1])))
    assert bits(wave) == bits(em.em_wave_reduction_residual(lorentz_field(GridD(grid.scales))))


@pytest.mark.parametrize("kind", ["hq", "qh"])
def test_check2d_sections_on_one_workspace_bitwise_equal_fresh_calls(kind):
    grid = grid_2d(kind, 40)
    workspace = grid._workspace
    for name, table in TABLES_2D.items():
        L = catalog2d(name)
        u = tuple(random_polynomial_field(grid, seed=[6, 7 + k]) for k in range(L.n))
        inv = check_invariance_d(L, GaugeFamilyD(grid, table), u, trials=3, seed=6)
        U = workspace[0]
        ident = noether_identity_d(L, GaugeFamilyD(grid, table), u)
        assert workspace[0] is U and holds_el_state_of(workspace, L, u)
        assert bits(inv) == bits(reference.check_invariance_d(L, GaugeFamilyD(grid, table), u, 3, 6))
        fresh = GridD(grid.scales)
        assert bits(ident) == bits(noether_identity_d(L, GaugeFamilyD(fresh, table), rehomed(u, fresh)))


def test_workspace_made_again_when_lo_or_grid_changes():
    # Same cell shape, density and declared slots: a window at another lo
    # has other coordinates and gaps, and the same window on another grid
    # goes to that grid's own workspace.
    grid = GridD((q_geometric(1.2, 1.0, 10), h_uniform(0.5, 0.0, 4.5)))
    other = GridD((q_geometric(1.3, 0.5, 10), h_uniform(0.25, 1.0, 3.25)))
    L = LagrangianD(d=2, n=1, density=lambda coords, U, G: G[0, 0] * coords[0] + G[1, 0] * coords[1] + U[0])
    f = random_polynomial_field(grid, seed=[9, 0])
    g = FieldD(other, f.lo, f.values)
    for u, made in (((f.restrict((0, 0), (7, 7)),), True), ((f.restrict((2, 1), (9, 8)),), True),
                    ((f.restrict((2, 1), (9, 8)),), False), ((g.restrict((2, 1), (9, 8)),), True),
                    ((g.restrict((2, 1), (9, 8)),), False), ((f.restrict((0, 0), (7, 7)),), True)):
        workspace = u[0].grid._workspace
        before = workspace[0] if workspace else None
        value = functional_d(L, u)
        assert (workspace[0] is not before) == made
        assert bits(value) == bits(functional_d(L, rehomed(u))) == bits(reference.functional_d(L, u))
        coords, U, G, _, _ = multigrid._pattern_args(L, u)
        coords_ref, U_ref, G_ref, _ = reference.pattern(L, u)
        assert same_bytes(U, U_ref) and same_bytes(G, G_ref)
        assert all(same_bytes(c, r) for c, r in zip(coords, coords_ref))


@pytest.mark.parametrize("name", sorted(RHO_GRIDS))
def test_gap_tables_bitwise_equal_broadcast_gaps(name):
    # The slot divides and the integral weights by C-order tables equal the
    # broadcast forms; each table is the broadcast gap in C order, None on
    # unit steps.  Fields on the whole grid, above the minimum on every
    # axis, and at the minimum one point short on axis 0 (C-ordered).
    grid = named_grid(name)
    windows = rho_windows(grid)
    short = windows["whole"].restrict((0,) * grid.d, (grid.shape[0] - 2, *(n - 1 for n in grid.shape[1:])))
    L = LagrangianD(d=grid.d, n=2, density=lambda coords, U, G: G.sum(axis=(0, 1)) * U[1] - coords[-1] * G[-1, 0])
    for p in (windows["whole"], windows["above"], short):
        u = (p, p * p)
        coords, U, G, lo, gaps = multigrid._pattern_args(L, u)
        _, U_ref, G_ref, _ = reference.pattern(L, u)
        assert same_bytes(U, U_ref) and same_bytes(G, G_ref) and gaps is grid._workspace[5]
        cells = U.shape[1:]
        for ax, (s, table) in enumerate(zip(grid.scales, gaps)):
            if s.unit_steps:
                assert table is None
                continue
            mu = np.diff(s.points[lo[ax] : lo[ax] + cells[ax] + 1]).reshape((1,) * ax + (-1,) + (1,) * (grid.d - ax - 1))
            assert table.flags.c_contiguous and same_bytes(table, np.broadcast_to(mu, cells))
        rng = np.random.default_rng(grid.shape)
        vals = signed_samples(rng, cells + (1,))
        vals[rng.uniform(size=vals.shape) < 0.05] = np.inf
        weighted = window_integral(grid.scales, lo, vals, gaps)
        assert same_bytes(weighted, window_integral(grid.scales, lo, vals))
        assert bits(functional_d(L, u)) == bits(reference.functional_d(L, u))
    # _rho_quotient divides by the grid's table cut to the field's shape: on
    # the whole grid, on the short window, and on C-ordered windows at the
    # minimum of the quotient's axis that start above it on every other.
    whole = windows["whole"].values
    for axis in range(grid.d):
        lo = tuple(0 if ax == axis else 1 for ax in range(grid.d))
        inner = FieldD(grid, lo, whole[tuple(slice(l, None) for l in lo)].copy())
        for p in (windows["whole"], windows["above"], short, inner):
            assert bits(rho_quotient(p, axis)) == bits(reference.rho_quotient(p, axis)), axis


def test_grid_divisor_tables_are_cached_and_read_only():
    grid = named_grid("q-half-unit-q")
    tables = grid.rho_divisors
    assert tables is grid.rho_divisors
    for ax, (s, table) in enumerate(zip(grid.scales, tables)):
        if s.unit_steps:
            assert table is None
            continue
        assert not table.flags.writeable and table.flags.c_contiguous and table.shape == grid.shape
        gaps = np.concatenate(([1.0], np.diff(s.points))).reshape((-1,) + (1,) * (grid.d - ax - 1))
        assert same_bytes(table, np.broadcast_to(gaps, grid.shape))
        with pytest.raises(ValueError):
            table[(0,) * grid.d] = 2.0


def contraction_operands(grid, draw):
    """The heads and the last axis's polynomials that random_polynomial_field
    contracts, taken from its einsum call on a fixed draw."""
    calls, real = [], np.einsum

    def spy(spec, a, b, **kwargs):
        calls.append((a.copy(), b.copy()))
        return real(spec, a, b, **kwargs)

    with fixed_draw(draw), mock.patch.object(multigrid.np, "einsum", spy), np.errstate(all="ignore"):
        random_polynomial_field(grid, 0, degree=draw.shape[2] - 1)
    ((a, b),) = calls
    return (b, a) if grid.shape[-1] < prod(grid.shape[:-1]) else (a, b)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_inline_horner_and_heads_bitwise_equal_polyval_and_outer(degree):
    # Coefficients with signed zeros (a -0.0 top coefficient becomes +0.0
    # through x * 0, as in polyval), points below zero, and magnitudes up to
    # 1e+-300, whose products overflow to inf and NaN.
    neg, q, half = h_uniform(0.5, -3.0, 1.0), q_geometric(1.3, 0.25, 5), h_uniform(1.0, -2.0, 2.0)
    grids = [GridD((neg, q)), GridD((q, neg, half)), GridD((half, neg, q, half)), GridD((q, half))]
    rng = np.random.default_rng([34, degree])
    for case in range(60):
        grid = grids[case % len(grids)]
        draw = rng.uniform(-1, 1, (3, grid.d, degree + 1))
        if case % 3:
            draw[rng.uniform(size=draw.shape) < 0.3] = 0.0
            draw *= np.where(rng.uniform(size=draw.shape) < 0.5, -1.0, 1.0)
        if case % 4 == 3:
            draw *= 10.0 ** rng.uniform(-300, 300, draw.shape)
        with np.errstate(all="ignore"):
            table = np.polynomial.polynomial.polyval(
                grid.probe_points, np.repeat(draw, grid.shape, axis=1).transpose(2, 0, 1), tensor=False
            )
            *axes, last = (table[:, e - n : e] for n, e in zip(grid.shape, accumulate(grid.shape)))
            heads = np.array([reduce(np.multiply.outer, [a[i] for a in axes]).ravel() for i in range(3)])
        got_heads, got_last = contraction_operands(grid, draw)
        assert same_bytes(got_last, last) and same_bytes(got_heads, heads), case


# transform_d and em's per-component step write each transformed component
# over the buffer its gauge term was just formed in: the bits must be those
# of u_k + gauge_field(fam, p, k), and neither p nor any u_k may be written.

TRANSFORM_AXES = {
    "unit": lambda m: h_uniform(1.0, -1.0, m - 2.0),
    "h": lambda m: h_uniform(0.5, 0.0, 0.5 * (m - 1)),
    "q": lambda m: q_geometric(1.5, 0.5, m),
}


def special_field(grid, rng, lo, hi, own):
    """Signed samples with +-inf entries on [lo, hi]: a view of a C-order
    array, or (own) a C-order array of the window's own."""
    vals = signed_samples(rng, grid.shape)
    vals[rng.uniform(size=grid.shape) < 0.05] = np.inf
    vals[rng.uniform(size=grid.shape) < 0.05] = -np.inf
    f = FieldD(grid, (0,) * grid.d, vals).restrict(lo, hi)
    return FieldD(grid, f.lo, f.values.copy()) if own else f


@given(
    d=st.integers(2, 4),
    kinds=st.lists(st.sampled_from(sorted(TRANSFORM_AXES)), min_size=4, max_size=4),
    sizes=st.lists(st.integers(3, 5), min_size=4, max_size=4),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_transform_in_gauge_buffer_bitwise_equals_sum_and_writes_no_input(d, kinds, sizes, n, seed, data):
    # p at the scale minimum (the one-buffer rho quotient) or above it (a
    # view), u_k on windows of their own, some of p's shape at another lo,
    # and rows of coefficients 0, -0.0, +-1.0, 1.1 and 0.5, so that a row
    # may hold a lone p term of 1.0 (p's own values) or two nonzero terms.
    grid = GridD(tuple(TRANSFORM_AXES[kind](m) for kind, m in zip(kinds[:d], sizes[:d])))
    rng = np.random.default_rng(seed)

    def field(label):
        lo = tuple(data.draw(st.integers(0, 1), label=f"{label} lo") for _ in range(d))
        hi = tuple(l + m - 2 + data.draw(st.integers(0, 1 - l), label=f"{label} hi") for l, m in zip(lo, grid.shape))
        return special_field(grid, rng, lo, hi, data.draw(st.booleans(), label=f"{label} own"))

    p = field("p")
    u = tuple(field(f"u{k}") for k in range(n))
    coeff = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.1, 0.5])
    fam = GaugeFamilyD(grid, [tuple(data.draw(coeff, label=f"a{k}") for _ in range(d + 1)) for k in range(n)])
    inputs = [f.values.tobytes() for f in (p, *u)]

    with np.errstate(all="ignore"):  # inf - inf, inf * 0.5, inf + -inf
        expected = [outcome(lambda k: u[k] + gauge_field(fam, p, k), k) for k in range(n)]
        for k in range(n):
            assert outcome(multigrid._transformed, fam, p, u[k], k) == expected[k]
            assert bits(gauge_field(fam, p, k)) == bits(reference.gauge_field(fam, p, k))
        whole = next((e for e in expected if e[0] == "error"), tuple(expected))
        assert outcome(transform_d, fam, p, u) == outcome(reference.transform_d, fam, p, u) == whole
        if whole[0] != "error":
            each = tuple(multigrid._transformed(fam, p, u_k, k) for k, u_k in enumerate(u))
            for f in transform_d(fam, p, u) + each:
                assert not f.values.flags.writeable and f.values.flags.c_contiguous
    assert [f.values.tobytes() for f in (p, *u)] == inputs


# Densities whose u partial is multigrid._zero_d_u read no u slot: the
# pattern holds no U rows, one scratch cell array takes each component's
# all-sigma view before its G slots, and U is a read-only NaN broadcast.

def reads_no_u_densities():
    """The built-in densities whose u partial is _zero_d_u, and a 3-d
    field-strength density."""
    from tsnoether.em import em_lagrangian

    return {"em": em_lagrangian(), "curl2": catalog2d("curl2"), "dirichlet2": catalog2d("dirichlet2"),
            "strength3": multigrid._field_strength_lagrangian(3, 3, ((1, 0), (2, 0)), ((1, 2),))}


def held_zero_d_u(coords, U, G):
    """A zero u partial other than _zero_d_u, with which the pattern holds U."""
    return 0.0


@given(
    name=st.sampled_from(sorted(reads_no_u_densities())),
    kinds=st.lists(st.sampled_from(sorted(TRANSFORM_AXES)), min_size=4, max_size=4),
    sizes=st.lists(st.integers(5, 6), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_densities_reading_no_u_bitwise_equal_a_held_u(name, kinds, sizes, seed, data):
    # The action, E and the identity sum of a density that reads no U
    # equal those of the same density with a U held, by bytes, on the
    # grid's one workspace (switched between the two) and on fresh ones.
    L = reads_no_u_densities()[name]
    held = replace(L, d_u=held_zero_d_u)
    grid = GridD(tuple(TRANSFORM_AXES[kind](m) for kind, m in zip(kinds[: L.d], sizes[: L.d])))
    u = []
    for k in range(L.n):
        lo = tuple(data.draw(st.integers(0, 1), label=f"lo{k}") for _ in range(L.d))
        u.append(random_polynomial_field(grid, [seed, k]).restrict(lo, tuple(m - 1 for m in grid.shape)))
    u = tuple(u)
    coeff = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.375, -2.5])
    fam = GaugeFamilyD(grid, [tuple(data.draw(coeff, label=f"a{k}") for _ in range(L.d + 1)) for k in range(L.n)])

    def results(density, fields):
        return (bits(functional_d(density, fields)), bits(el_expressions_d(density, fields)),
                bits(noether_identity_d(density, GaugeFamilyD(fields[0].grid, fam.a), fields)))

    expected = results(held, rehomed(u))
    assert results(L, u) == results(held, u) == results(L, u) == expected
    assert results(L, rehomed(u)) == expected


def test_density_reading_u_its_zero_u_partial_leaves_unread_gets_nan():
    # A density or g partial that reads U beside the u partial _zero_d_u
    # reads NaN; with another zero u partial the pattern holds U.
    grid = grid_2d("qh", 12)
    curl2 = catalog2d("curl2")
    u = tuple(random_polynomial_field(grid, seed=[4, k]) for k in range(2))
    for field in ("density", "d_g"):
        base = getattr(curl2, field)
        reading = replace(curl2, **{field: lambda coords, U, G, base=base: base(coords, U, G) + 0.0 * U[1]})
        honest = replace(reading, d_u=held_zero_d_u)
        values = (functional_d(reading, u),) if field == "density" else (e.values for e in el_expressions_d(reading, u))
        assert all(np.isnan(v).all() for v in values), field
        assert np.isfinite(functional_d(honest, u)) and all(np.isfinite(e.values).all() for e in el_expressions_d(honest, u))
    _, U, _, _, _ = multigrid._pattern_args(curl2, u)
    assert U.shape == (2, 11, 11) and np.isnan(U).all() and not U.flags.writeable


def test_workspace_key_holds_whether_u_is_held():
    # One window and declared slots, with and without a u slot: each switch
    # makes a new workspace, whose U a density that reads it finds written.
    grid = grid_2d("hq", 10)
    curl2 = catalog2d("curl2")
    held = replace(curl2, d_u=held_zero_d_u, density=lambda coords, U, G: curl2.density(coords, U, G) + U[0] * U[1])
    u = tuple(random_polynomial_field(grid, seed=[8, k]) for k in range(2))
    workspace = grid._workspace
    keys = []
    for L in (curl2, held, curl2, held):
        value = functional_d(L, u)
        keys.append(workspace[2])
        assert bits(value) == bits(functional_d(L, rehomed(u)))
        assert np.isnan(workspace[0]).all() == (L is curl2)
    assert keys[0] == keys[2] != keys[1] == keys[3]
    assert workspace[0].nbytes == np.empty((2, 9, 9)).nbytes and workspace[0].flags.writeable


def test_identity_drops_the_fields_before_the_assembly():
    # noether_identity_d writes the pattern of u and drops u before E is
    # assembled, so that no component is alive beside the assembly.
    grid = em_lattice("mixed", 6)
    from tsnoether import em

    real, alive = multigrid._el_fields, []
    refs = []

    def fields():
        u = em.random_em_field(grid, seed=[2, 1])
        refs.extend(weakref.ref(f) for f in u)
        return u

    def checking(*args):
        alive.append(sum(r() is not None for r in refs))
        return real(*args)

    expected = bits(noether_identity_d(em.em_lagrangian(), em.em_gauge_family(grid), fields()))
    refs.clear()
    with gc_disabled(), mock.patch.object(multigrid, "_el_fields", checking):
        # Not inside an assert, whose rewriting would hold the fields.
        got = bits(noether_identity_d(em.em_lagrangian(), em.em_gauge_family(grid), fields()))
    assert alive == [0] and got == expected


@given(
    d=st.integers(2, 4),
    kinds=st.lists(st.sampled_from(sorted(TRANSFORM_AXES)), min_size=4, max_size=4),
    sizes=st.lists(st.integers(3, 5), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_adjoint_terms_in_own_buffers_bitwise_equal_reference(d, kinds, sizes, seed, data):
    # Each axis term of the adjoint is negated in its quotient's buffer and
    # the terms are summed in place: the bytes of tests/reference.py's new
    # arrays, on windows at or above the scale minimum, with q unwritten.
    # NaNs of both signs go only into a lone axis term, whose negation
    # must flip each NaN's sign: where two NaNs of opposite sign meet in an
    # add, the one that comes out can depend on the loop numpy takes.
    grid = GridD(tuple(TRANSFORM_AXES[kind](m) for kind, m in zip(kinds[:d], sizes[:d])))
    rng = np.random.default_rng(seed)
    lo = tuple(data.draw(st.integers(0, 1), label="lo") for _ in range(d))
    q = special_field(grid, rng, lo, tuple(m - 1 for m in grid.shape), data.draw(st.booleans(), label="own"))
    if data.draw(st.booleans(), label="lone NaN term"):
        row = [0.0] * (d + 1)
        row[data.draw(st.integers(1, d), label="axis")] = data.draw(st.sampled_from([1.0, -1.0, 1.1, 0.5]), label="a")
        values = q.values.copy()
        nan = rng.uniform(size=values.shape) < 0.1
        values[nan] = np.where(rng.uniform(size=nan.sum()) < 0.5, np.nan, -np.nan)
        q = FieldD(grid, q.lo, values)
    else:
        row = [data.draw(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.1, 0.5]), label="a") for _ in range(d + 1)]
    fam = GaugeFamilyD(grid, [row])
    before = q.values.tobytes()
    with np.errstate(all="ignore"):  # inf - inf, inf * 0.5, inf + -inf
        assert outcome(gauge_field_adjoint, fam, q, 0) == outcome(reference.gauge_field_adjoint, fam, q, 0)
    assert q.values.tobytes() == before


def test_em_adjoint_peak_in_grid_arrays():
    # The em family's one axis term per component, c q with c = -1.0 and its
    # quotient, negated in place: 1.94 arrays of the 16^4 grid's shape,
    # where negating into a new array read 2.88.
    import tracemalloc

    from tsnoether import em

    grid = em_lattice("mixed", 16)
    fam, q = em.em_gauge_family(grid), random_polynomial_field(grid, seed=[3, 0])
    for k in range(4):
        tracemalloc.start()
        try:
            gauge_field_adjoint(fam, q, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * q.values.nbytes, k
