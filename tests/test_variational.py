from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsnoether import (
    BoundaryData,
    ConvergenceError,
    GridFunction,
    Lagrangian,
    catalog,
    el_expressions,
    el_residual,
    eval_functional,
    explicit_scale,
    first_variation,
    h_uniform,
    parse_scale_spec,
    q_geometric,
    real_approx,
    solve_extremal,
)
from tsnoether import GaugeFamily, check_invariance, noether, noether_identity_time, second_el_expression, timescale
from tsnoether import variational
from tsnoether.report import ResidualReport
from tsnoether.variational import _cyclic_reduction, _el_sample, _jacobian_bands, _path_sample, lagrangian_along
from tsnoether.variational import variation_pairing

from differencing import FD_STEP, differenced, earlier_central_difference


def random_quadratic(rng, n):
    """Autonomous quadratic density with analytic partials."""
    A = rng.uniform(-1, 1, (n, n))
    B = rng.uniform(-1, 1, (n, n))
    C = rng.uniform(-1, 1, (n, n))
    A = (A + A.T) / 2
    B = (B + B.T) / 2
    d = rng.uniform(-1, 1, n)
    e = rng.uniform(-1, 1, n)
    return Lagrangian(
        n=n,
        eval=lambda t, u, v: float(u @ A @ u + v @ B @ v + u @ C @ v + d @ u + e @ v),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: 2 * A @ u + C @ v + d,
        d_v=lambda t, u, v: 2 * B @ v + C.T @ u + e,
    )


class TestFunctional:
    def test_kinetic_along_identity(self):
        ts = h_uniform(1.0, 0, 5)
        y = GridFunction.from_callable(ts, lambda t: t)
        assert eval_functional(catalog("dirichlet"), y) == 2.5

    def test_zero_density(self):
        ts = q_geometric(2.0, 1.0, 6)
        L = Lagrangian(n=1, eval=lambda t, u, v: 0.0)
        y = GridFunction.from_callable(ts, lambda t: np.sin(t))
        assert eval_functional(L, y) == 0.0

    def test_negative_zero_density_sums_to_positive_zero(self):
        # An action of -0.0 terms is +0.0: eval_functional adds +0.0 to the
        # sum, so the sign does not hang on where np.sum starts.
        ts = q_geometric(2.0, 1.0, 6)
        y = GridFunction.from_callable(ts, lambda t: np.sin(t))
        for L in (Lagrangian(n=1, eval=lambda t, u, v: -0.0), Lagrangian(n=1, eval=lambda t, U, V: -0.0 * t, vectorized=True)):
            assert str(eval_functional(L, y)) == "0.0"

    def test_negative_zero_integral_returns_positive_zero(self):
        # The guard itself, whatever np.sum returns for -0.0 terms: an
        # integral kernel that gives -0.0 still yields an action of +0.0.
        ts = h_uniform(1.0, 0, 4)
        y = GridFunction(ts, 0, np.zeros((5, 1)))
        with mock.patch.object(variational, "window_integral", lambda *args: np.array([-0.0])):
            action = eval_functional(catalog("dirichlet"), y)
        assert action == 0.0 and not np.signbit(action)

    def test_positional_density_sums_shifted_values(self):
        ts = h_uniform(1.0, 0, 3)
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(u[0]),
            d_u=lambda t, u, v: np.ones(1),
            d_v=lambda t, u, v: np.zeros(1),
        )
        y = GridFunction.from_callable(ts, lambda t: t)
        assert eval_functional(L, y) == 6.0

    def test_window_above_zero_reads_next_row(self):
        # L = u sums y(sigma(t)) * mu over [2, 5]: 3^2 + 4^2 + 5^2 + 6^2.
        ts = h_uniform(1.0, 0, 6)
        L = Lagrangian(n=1, eval=lambda t, u, v: float(u[0]))
        y = GridFunction(ts, 2, ts.points[2:] ** 2)
        assert eval_functional(L, y) == 86.0

    def test_dimension_mismatch(self):
        ts = h_uniform(1.0, 0, 3)
        y = GridFunction(ts, 0, np.zeros((4, 2)))
        with pytest.raises(ValueError):
            eval_functional(catalog("dirichlet"), y)


class TestFirstVariation:
    def test_zero_direction(self):
        ts = h_uniform(1.0, 0, 5)
        y = GridFunction.from_callable(ts, lambda t: t * t)
        eta = GridFunction(ts, 0, np.zeros((6, 1)))
        assert first_variation(catalog("dirichlet"), y, eta) == 0.0

    def test_kinetic_telescopes(self):
        ts = h_uniform(1.0, 0, 5)
        y = GridFunction.from_callable(ts, lambda t: t)
        vals = np.array([0.0, 0.3, -0.7, 1.1, 0.2, 0.0])
        eta = GridFunction(ts, 0, vals)
        assert first_variation(catalog("dirichlet"), y, eta) == pytest.approx(0.0, abs=1e-14)

    def test_inadmissible_direction(self):
        ts = h_uniform(1.0, 0, 5)
        y = GridFunction.from_callable(ts, lambda t: t)
        eta = GridFunction(ts, 0, np.ones((6, 1)))
        with pytest.raises(ValueError):
            first_variation(catalog("dirichlet"), y, eta)

    @pytest.mark.parametrize("scale_idx", range(3))
    @pytest.mark.parametrize("trial", range(4))
    def test_matches_difference_quotient(self, scale_idx, trial):
        ts = [h_uniform(1.0, 0, 8), h_uniform(0.5, 0, 4), q_geometric(2.0, 1.0, 9)][scale_idx]
        rng = np.random.default_rng([scale_idx, trial])
        n = 2
        L = random_quadratic(rng, n)
        npts = len(ts)
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (npts, n)))
        ev = rng.uniform(-1, 1, (npts, n))
        ev[0] = ev[-1] = 0.0
        eta = GridFunction(ts, 0, ev)
        got = first_variation(L, y, eta)
        eps = 1e-5
        num = (eval_functional(L, y + eps * eta) - eval_functional(L, y - eps * eta)) / (2 * eps)
        assert got == pytest.approx(num, rel=1e-6, abs=1e-9)


class TestEulerLagrange:
    def test_linear_path_is_extremal(self):
        ts = h_uniform(1.0, 0, 5)
        rep = el_residual(catalog("dirichlet"), GridFunction.from_callable(ts, lambda t: t))
        assert rep.sup_norm == 0.0 and rep.verdict

    def test_square_path_residual(self):
        ts = h_uniform(1.0, 0, 5)
        rep = el_residual(catalog("dirichlet"), GridFunction.from_callable(ts, lambda t: t * t))
        assert np.allclose(rep.per_point, -2.0)
        assert rep.domain == (0, 3)

    def test_zero_path_of_potential_density(self):
        ts = q_geometric(2.0, 1.0, 6)
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(u @ u),
            d_u=lambda t, u, v: 2 * u,
            d_v=lambda t, u, v: np.zeros(1),
        )
        rep = el_residual(L, GridFunction(ts, 0, np.zeros((6, 1))))
        assert rep.sup_norm == 0.0

    def test_window_shrinks_twice(self):
        ts = h_uniform(1.0, 0, 9)
        e = el_expressions(catalog("dirichlet"), GridFunction.from_callable(ts, lambda t: t**3))
        assert e.window == (0, 7)

    def test_linear_in_density(self):
        ts = h_uniform(0.5, 0, 4)
        rng = np.random.default_rng(3)
        L1 = random_quadratic(rng, 1)
        L2 = random_quadratic(rng, 1)
        a, b = 0.7, -1.3
        combo = Lagrangian(
            n=1,
            eval=lambda t, u, v: a * L1.eval(t, u, v) + b * L2.eval(t, u, v),
            d_u=lambda t, u, v: a * L1.d_u(t, u, v) + b * L2.d_u(t, u, v),
            d_v=lambda t, u, v: a * L1.d_v(t, u, v) + b * L2.d_v(t, u, v),
        )
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (9, 1)))
        lhs = el_expressions(combo, y).values
        rhs = a * el_expressions(L1, y).values + b * el_expressions(L2, y).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


class TestMissingPartials:
    """A check reads only the partials a density gives: one it lacks is a
    ValueError that names it, and no partial is made up from the values."""

    @staticmethod
    def density(given):
        """pair-difference with only the partials named in given."""
        full = catalog("pair-difference")
        return Lagrangian(n=2, eval=full.eval, vectorized=True, **{f"d_{w}": getattr(full, f"d_{w}") for w in given})

    @staticmethod
    def path():
        ts = q_geometric(1.5, 1.0, 8)
        return GridFunction(ts, 0, np.random.default_rng(4).uniform(-2, 2, (len(ts), 2)))

    @pytest.mark.parametrize(
        "check, given, missing",
        [
            (el_expressions, "tv", "u"),
            (el_expressions, "tu", "v"),
            (el_residual, "", "u"),
            (second_el_expression, "uv", "t"),
            (second_el_expression, "tu", "v"),
            (lambda L, y: variation_pairing(L, y, y), "tv", "u"),
            (lambda L, y: variation_pairing(L, y, y), "tu", "v"),
            (lambda L, y: lagrangian_along(L, y, "L", "t"), "uv", "t"),
        ],
        ids=["el-u", "el-v", "el-residual", "second-t", "second-v", "pairing-u", "pairing-v", "along-t"],
    )
    def test_check_names_the_missing_partial(self, check, given, missing):
        with pytest.raises(ValueError) as err:
            check(self.density(given), self.path())
        assert str(err.value) == f"the density has no {missing!r} partial (d_{missing})"

    @pytest.mark.parametrize("given, missing", [("tv", "u"), ("tu", "v"), ("", "u")])
    def test_solve_refuses_before_any_jacobian(self, given, missing):
        with mock.patch.object(variational, "_jacobian_bands") as bands:
            with pytest.raises(ValueError) as err:
                solve_extremal(self.density(given), h_uniform(1.0, 0, 6), BoundaryData([0.0, 1.0], [2.0, -1.0]))
        assert str(err.value) == f"the density has no {missing!r} partial (d_{missing})"
        assert not bands.called

    def test_values_alone_serve_the_checks_that_read_no_partial(self):
        y = self.path()
        bare, full = self.density(""), catalog("pair-difference")
        fam = GaugeFamily.constant(y.ts, [[[1.0], [1.0]]])
        assert eval_functional(bare, y) == eval_functional(full, y)
        a, b = check_invariance(bare, fam, y, trials=4, seed=5), check_invariance(full, fam, y, trials=4, seed=5)
        assert (a.per_point.tobytes(), a.sup_norm, a.verdict) == (b.per_point.tobytes(), b.sup_norm, b.verdict)


class TestSecondEulerLagrange:
    def test_autonomous_kinetic_along_identity(self):
        ts = h_uniform(1.0, 0, 5)
        e = second_el_expression(catalog("dirichlet"), GridFunction.from_callable(ts, lambda t: t))
        assert np.max(np.abs(e.values)) == 0.0

    def test_pure_time_density_on_integers(self):
        ts = h_uniform(1.0, 0, 6)
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(t),
            d_t=lambda t, u, v: 1.0,
            d_u=lambda t, u, v: np.zeros(1),
            d_v=lambda t, u, v: np.zeros(1),
        )
        y = GridFunction.from_callable(ts, lambda t: np.cos(t))
        e = second_el_expression(L, y)
        assert np.max(np.abs(e.values)) == pytest.approx(0.0, abs=1e-14)

    def test_constant_density(self):
        ts = q_geometric(2.0, 1.0, 7)
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: 3.25,
            d_t=lambda t, u, v: 0.0,
            d_u=lambda t, u, v: np.zeros(1),
            d_v=lambda t, u, v: np.zeros(1),
        )
        y = GridFunction.from_callable(ts, lambda t: 1.0 / t)
        assert np.max(np.abs(second_el_expression(L, y).values)) == 0.0


class TestOnePathSample:
    """Each expression samples (t, y^sigma, y^delta) once for all the
    partials it needs."""

    @pytest.fixture
    def path_samples(self):
        calls = []
        real = variational._path_args

        def counting(L, y):
            calls.append(y.window)
            return real(L, y)

        with mock.patch.object(variational, "_path_args", counting):
            yield calls

    def test_expressions(self, path_samples):
        ts = q_geometric(1.5, 1.0, 12)
        L = catalog("quad:2:0.5:0.3:0.2")
        rng = np.random.default_rng(0)
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), 2)))
        eta = GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), 2)))
        fam = GaugeFamily.constant(ts, [[[1.0], [1.0]]], f=[[1.0]])
        for fn, args, samples in (
            (lagrangian_along, (L, y, "t", "u", "v", "L"), 1),
            (el_expressions, (L, y), 1),
            (second_el_expression, (L, y), 1),
            (variation_pairing, (L, y, eta), 1),
            (noether_identity_time, (L, fam, y), 2),
        ):
            path_samples.clear()
            fn(*args)
            assert len(path_samples) == samples, fn.__name__

    def test_el_expressions_copy_no_values_and_sample_u_and_v_once(self, count_copies):
        # Through lagrangian_along's GridFunctions they made two copies,
        # shapes (11, 2) and (11, 2), on this path.
        base = catalog("quad:2:0.5:0.3:0.2")
        calls = []

        def counted(name, fn):
            def wrapped(t, U, V):
                calls.append(name)
                return fn(t, U, V)

            return wrapped

        L = Lagrangian(n=2, eval=base.eval, d_t=base.d_t, d_u=counted("u", base.d_u), d_v=counted("v", base.d_v),
                       vectorized=True)
        ts = q_geometric(1.5, 1.0, 12)
        y = GridFunction(ts, 0, np.random.default_rng(2).uniform(-1, 1, (len(ts), 2)))
        with count_copies(timescale) as copies:
            e = el_expressions(L, y)
        assert copies == [] and sorted(calls) == ["u", "v"]
        assert e.values.tobytes() == el_expressions(base, y).values.tobytes()

    def test_several_partials_equal_one_at_a_time(self):
        ts = h_uniform(0.5, 0, 4)
        L = catalog("quad:2:0.5:0.3:0.2")
        y = GridFunction(ts, 0, np.random.default_rng(1).uniform(-1, 1, (len(ts), 2)))
        for w, gf in zip("tuvL", lagrangian_along(L, y, *"tuvL")):
            assert np.array_equal(gf.values, lagrangian_along(L, y, w)[0].values)


def earlier_el_expressions(L, y):
    """el_expressions as it was before Newton's sampler became the one 1-D
    assembly: the partials copied into GridFunctions by lagrangian_along."""
    pu, pv = lagrangian_along(L, y, "u", "v")
    return variational._el_values(pu.values, pv.values[None], (y.ts,), (y.lo,))


@given(
    kind=st.sampled_from(["h", "q", "explicit"]),
    npts=st.integers(6, 12),
    lo=st.integers(1, 2),
    short_top=st.integers(0, 1),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_el_expressions_are_newtons_assembly(kind, npts, lo, short_top, n, seed):
    # Windows start above index 0, where the gaps of a q or explicit scale
    # differ from those at index 0.
    rng = np.random.default_rng(seed)
    if kind == "h":
        ts = h_uniform(0.25, -1.0, -1.0 + 0.25 * (npts - 1))
    elif kind == "q":
        ts = q_geometric(1.3, 0.5, npts)
    else:
        ts = explicit_scale(np.cumsum(rng.uniform(0.01, 1.0, npts)) - 2.0)
    L = Lagrangian(
        n=n,
        eval=lambda t, U, V: t * np.sum(U * V, axis=1),
        d_u=lambda t, U, V: U * U * U + t[:, None] * V,
        d_v=lambda t, U, V: V * (1 + U * U),
        vectorized=True,
    )
    y = GridFunction(ts, lo, rng.uniform(-2.0, 2.0, (npts - lo - short_top, n)))
    e = el_expressions(L, y)
    newton = _el_sample(L, ts, lo, *_path_sample(ts, lo, y.values))[1]
    assert e.window == (lo, y.hi - 2)
    assert e.values.tobytes() == newton.tobytes() == earlier_el_expressions(L, y).tobytes()


class TestPathWindowAboveZero:
    """Paths whose window starts above index 0 against a per-point reference:
    at each i in [lo, hi-1] the arguments are t_i, y(i+1) and
    (y(i+1) - y(i)) / mu_i."""

    @staticmethod
    def reference(L, y):
        t = y.ts.points
        rows = range(y.lo, y.hi)
        mu = np.array([t[i + 1] - t[i] for i in rows])
        v = y.values
        args = [(t[i], v[i + 1 - y.lo], (v[i + 1 - y.lo] - v[i - y.lo]) / (t[i + 1] - t[i])) for i in rows]
        lt, lu, lv, lval = (np.array([per_point_sample(L, w, *arg) for arg in args]) for w in "tuvL")
        el = lu[:-1] - (lv[1:] - lv[:-1]) / mu[:-1, None]
        inner = np.array([lval[k] - np.sum(args[k][2] * lv[k]) - mu[k] * lt[k] for k in range(len(args))])
        second = lt[:-1] - (inner[1:] - inner[:-1]) / mu[:-1]
        return lu, lv, el, second

    @pytest.mark.parametrize("kind", ["h", "q", "explicit"])
    @pytest.mark.parametrize("lo", [1, 4])
    @pytest.mark.parametrize("density", ["quad", "rational"])
    def test_expressions_match_per_point_reference(self, kind, lo, density):
        rng = np.random.default_rng(lo)
        ts = differential_scale(kind, 12, rng)
        if density == "quad":
            fast, slow = catalog("quad:2:0.5:0.3:0.2"), per_point_quadratic(2, 0.5, 0.3, 0.2)
            source = slow
        else:
            source = rational_density(2, False)
            fast, slow = differenced(rational_density(2, True)), differenced(source)
        y = GridFunction(ts, lo, rng.uniform(-2, 2, (len(ts) - lo - 1, 2)))
        eta = GridFunction(ts, lo, rng.uniform(-2, 2, (len(ts) - lo - 1, 2)))
        lu, lv, el, second = self.reference(source, y)
        t, e = ts.points, eta.values
        pairing = sum(
            (t[i + 1] - t[i]) * (lu[k] @ e[i + 1 - lo] + lv[k] @ ((e[i + 1 - lo] - e[i - lo]) / (t[i + 1] - t[i])))
            for k, i in enumerate(range(y.lo, y.hi))
        )
        for L in (fast, slow):
            pu, pv = lagrangian_along(L, y, "u", "v")
            assert pu.window == (lo, y.hi - 1)
            assert np.array_equal(pu.values, lu) and np.array_equal(pv.values, lv)
            e = el_expressions(L, y)
            assert e.window == (lo, y.hi - 2) and np.array_equal(e.values, el)
            e2 = second_el_expression(L, y)
            assert e2.window == (lo, y.hi - 2) and np.array_equal(e2.values[:, 0], second)
            assert variation_pairing(L, y, eta) == pytest.approx(pairing, rel=1e-12, abs=1e-12)


class TestSolver:
    def test_straight_line(self):
        ts = h_uniform(1.0, 0, 5)
        y = solve_extremal(catalog("dirichlet"), ts, BoundaryData([0.0], [5.0]))
        assert np.max(np.abs(y.values[:, 0] - np.arange(6.0))) <= 1e-10

    def test_discrete_poisson(self):
        ts = h_uniform(1.0, 0, 5)
        y = solve_extremal(catalog("poisson"), ts, BoundaryData([0.0], [5.0]))
        rep = el_residual(catalog("poisson"), y)
        assert rep.sup_norm <= 1e-8
        assert y.values[0, 0] == 0.0 and y.values[-1, 0] == 5.0

    def test_zero_boundaries_zero_solution(self):
        ts = h_uniform(1.0, 0, 5)
        y = solve_extremal(catalog("dirichlet"), ts, BoundaryData([0.0], [0.0]))
        assert np.max(np.abs(y.values)) <= 1e-12

    def test_nonlinear_density_converges(self):
        ts = h_uniform(0.5, 0, 3)
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(0.5 * v @ v + np.cosh(u[0])),
            d_u=lambda t, u, v: np.array([np.sinh(u[0])]),
            d_v=lambda t, u, v: v.copy(),
        )
        y = solve_extremal(L, ts, BoundaryData([0.0], [1.0]))
        assert el_residual(L, y).sup_norm <= 1e-8

    def test_reports_final_residual_on_failure(self):
        ts = h_uniform(1.0, 0, 4)
        # concave density: Newton step exists but cannot meet a 0 tolerance
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(np.sin(10 * u[0]) + 0.5 * v @ v),
            d_u=lambda t, u, v: np.array([10 * np.cos(10 * u[0])]),
            d_v=lambda t, u, v: v.copy(),
        )
        with pytest.raises(ConvergenceError) as err:
            solve_extremal(L, ts, BoundaryData([0.0], [0.1]), tol=0.0, max_iter=2)
        assert err.value.final_residual > 0
        assert len(err.value.history) == 2
        assert err.value.history[-1][0] == err.value.final_residual
        assert all(0.0 < scale <= 1.0 for _, scale in err.value.history)

    def test_singular_jacobian_history(self):
        # dL/du = 1 and dL/dv = 0: the residual is 1 everywhere, the Jacobian 0
        L = Lagrangian(
            n=1,
            eval=lambda t, u, v: float(u[0]),
            d_u=lambda t, u, v: np.ones(1),
            d_v=lambda t, u, v: np.zeros(1),
        )
        with pytest.raises(ConvergenceError, match="singular") as err:
            solve_extremal(L, h_uniform(1.0, 0, 4), BoundaryData([0.0], [1.0]))
        assert err.value.history == [(1.0, 0.0)]
        assert err.value.final_residual == 1.0

    def test_damping_halves_down_to_the_floor(self):
        # 1/2 v^2 - 1/4 u^4 pulled to beta = 5: full Newton steps overshoot,
        # so the steps are halved, until no scale down to 2^-20 lowers the
        # residual and Newton stops there instead of stepping uphill
        samples = []

        def d_u(t, U, V):
            samples.append(len(t))
            return -(U**3)

        L = Lagrangian(
            n=1,
            eval=lambda t, U, V: 0.5 * V[:, 0] * V[:, 0] - 0.25 * U[:, 0] ** 4,
            d_t=lambda t, U, V: np.zeros(len(t)),
            d_u=d_u,
            d_v=lambda t, U, V: V.copy(),
            vectorized=True,
        )
        ts = h_uniform(0.1, 0, 1)
        with pytest.raises(ConvergenceError, match=r"no step scale from 1 down to 2\^-20") as err:
            solve_extremal(L, ts, BoundaryData([0.0], [5.0]))
        sampled = len(samples)
        *steps, (last, stop) = err.value.history
        assert 0 < len(steps) < 49 and stop == 0.0
        assert last == err.value.final_residual == steps[-1][0]
        scales = [scale for _, scale in steps]
        assert min(scales) < 1.0
        assert all(2.0**-20 <= scale <= 1.0 and np.log2(scale).is_integer() for scale in scales)
        start = el_residual(L, GridFunction(ts, 0, np.linspace(0.0, 5.0, len(ts)))).sup_norm
        before = [start] + [r for r, _ in steps[:-1]]
        assert all(r < prev for prev, (r, _) in zip(before, steps))
        # One L_u sample per trial path (1 - log2(scale) for an accepted step,
        # all 21 scales in the last iteration), two per Jacobian and the start.
        trials = sum(1 - int(np.log2(scale)) for scale in scales) + 21
        assert sampled == 1 + 2 * (len(steps) + 1) + trials


def five_points():
    return GridFunction(h_uniform(1.0, 0, 4), 0, np.arange(5.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eval_functional(catalog("dirichlet"), five_points().restrict(0, 0)), "path window too small"),
        (lambda: variation_pairing(catalog("dirichlet"), five_points(), five_points().restrict(0, 3)),
         "eta must share the path window and component count"),
        (lambda: el_expressions(catalog("dirichlet"), five_points().restrict(0, 1)),
         "window too small for the Euler-Lagrange expressions"),
        (lambda: second_el_expression(catalog("dirichlet"), five_points().restrict(0, 1)),
         "window too small for the Euler-Lagrange expressions"),
        (lambda: solve_extremal(catalog("pair-difference"), h_uniform(1.0, 0, 4), BoundaryData([0.0], [1.0])),
         "boundary dimension does not match the Lagrangian: boundary size 1, L.n = 2"),
        (lambda: BoundaryData([0.0, 1.0], [2.0]), "alpha and beta dimensions differ: alpha has shape (2,), beta (1,)"),
        (lambda: solve_extremal(catalog("quad:2:1:0:0"), h_uniform(1.0, 0, 5), BoundaryData([[0.0, 1.0]], [[2.0, 3.0]])),
         "boundary values must be 1-D: alpha has shape (1, 2), beta (1, 2)"),
        (lambda: catalog("quad:1:x:0:0"), "bad inline quadratic spec 'quad:1:x:0:0'"),
        (lambda: catalog("quad:1:1:1"), "bad inline quadratic spec 'quad:1:1:1'"),
        (lambda: catalog("quad:1:nan:0:0"), "bad inline quadratic spec 'quad:1:nan:0:0': cv = nan is not finite"),
        (lambda: catalog("quad:1:0.5:0:1e400"), "bad inline quadratic spec 'quad:1:0.5:0:1e400': cuv = inf is not finite"),
    ],
    ids=["one-point-action", "eta-window", "el-two-points", "second-el-two-points", "boundary-dimension",
         "boundary-alpha-beta", "boundary-two-axes", "quad-coefficient-word", "quad-three-fields", "quad-nan", "quad-overflow"],
)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def interior_residual(L, ts, start):
    """The Euler-Lagrange expressions over the full scale as a function of
    the flattened interior rows, with the end rows taken from start."""
    npts, n = start.shape

    def residual(z):
        vals = start.copy()
        vals[1:-1] = z.reshape(npts - 2, n)
        return el_expressions(L, GridFunction(ts, 0, vals)).values.ravel()

    return residual


def brute_force_jacobian(fn, z, f0):
    """Perturb one unknown at a time: column k is (fn(z + h e_k) - f0) / h
    with h = 1e-7 * max(1, |z_k|)."""
    jac = np.empty((f0.size, z.size))
    for k in range(z.size):
        h = 1e-7 * max(1.0, abs(z[k]))
        zp = z.copy()
        zp[k] += h
        jac[:, k] = (fn(zp) - f0) / h
    return jac


def dense_from_bands(A, B, C):
    """The (m n) x (m n) block tridiagonal matrix of the bands, without A_0
    and C_{m-1}, which would multiply the pinned end rows."""
    m, n, _ = B.shape
    jac = np.zeros((m * n, m * n))
    for i in range(m):
        rows = slice(i * n, (i + 1) * n)
        jac[rows, rows] = B[i]
        if i > 0:
            jac[rows, (i - 1) * n : i * n] = A[i]
        if i < m - 1:
            jac[rows, (i + 1) * n : (i + 2) * n] = C[i]
    return jac


def block_thomas(A, B, C, f):
    """Sequential block LU of a block tridiagonal system, one row at a time."""
    m = len(B)
    pivots, rhs = [B[0]], [f[0]]
    for i in range(1, m):
        w = A[i] @ np.linalg.inv(pivots[-1])
        pivots.append(B[i] - w @ C[i - 1])
        rhs.append(f[i] - w @ rhs[-1])
    x = [np.linalg.solve(pivots[-1], rhs[-1])]
    for i in range(m - 2, -1, -1):
        x.insert(0, np.linalg.solve(pivots[i], rhs[i] - C[i] @ x[0]))
    return np.array(x)


def nonlinear_density(rng, n):
    """Coupled, time-dependent, non-polynomial density given by its values,
    with every partial a central difference of them."""
    a = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(-1, 1, n)
    c = float(rng.uniform(-1, 1))
    return differenced(Lagrangian(
        n=n,
        eval=lambda t, u, v: float(0.5 * a @ (v * v) + np.cos(b @ u) * (1 + 0.1 * np.sin(t)) + c * np.tanh(u @ v)),
    ))


def quartic_density(n, calls):
    """0.5|v|^2 + 0.25|u|^4 + sin(t) sum(u); calls[0] counts dL/dv samples."""

    def d_v(t, u, v):
        calls[0] += 1
        return v.copy()

    return Lagrangian(
        n=n,
        eval=lambda t, u, v: float(0.5 * v @ v + 0.25 * (u @ u) ** 2 + np.sin(t) * np.sum(u)),
        d_u=lambda t, u, v: (u @ u) * u + np.sin(t),
        d_v=d_v,
    )


class TestBandedNewton:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        npts=st.integers(3, 14),
        geometric=st.booleans(),
        nonlinear=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, npts=3, geometric=False, nonlinear=True, seed=0)
    @example(n=3, npts=4, geometric=True, nonlinear=False, seed=1)
    @example(n=1, npts=4, geometric=False, nonlinear=True, seed=2)
    def test_bands_match_one_column_at_a_time(self, n, npts, geometric, nonlinear, seed):
        """Both Jacobians are forward quotients, with steps of at least 1e-7,
        of samples that carry an absolute error delta: eps * max|P| with
        analytic partials, eps * max|L| / FD_STEP with central-difference
        ones.  An entry of either sums at most four such quotients scaled by
        at most 1 / mu_min^2, so they differ by at most
        16 delta / (1e-7 mu_min^2).  The quadratic has no truncation error,
        and over 3,000 random cases on these grids the gap of either density,
        truncation included, stayed within 1.3 delta / (1e-7 mu_min^2)."""
        rng = np.random.default_rng(seed)
        ts = q_geometric(1.1, 0.5, npts) if geometric else h_uniform(0.25, 0.0, 0.25 * (npts - 1))
        L = nonlinear_density(rng, n) if nonlinear else random_quadratic(rng, n)
        start = rng.uniform(-2, 2, (npts, n))
        residual = interior_residual(L, ts, start)
        # entries beyond 1 in magnitude exercise the relative step
        z = rng.uniform(-3, 3, (npts - 2) * n)
        f0 = residual(z)
        vals = start.copy()
        vals[1:-1] = z.reshape(npts - 2, n)
        path, r = _el_sample(L, ts, 0, *_path_sample(ts, 0, vals))
        assert np.array_equal(r.ravel(), f0)
        A, B, C = _jacobian_bands(L, path, np.diff(ts.points))
        assert A.shape == B.shape == C.shape == (npts - 2, n, n)
        assert np.all(A[0] == 0.0) and np.all(C[-1] == 0.0)
        T, U, V, Pu, Pv = path
        eps = np.finfo(float).eps
        if nonlinear:
            delta = eps * np.max(np.abs(L.sample("L", T, U, V))) / FD_STEP
        else:
            delta = eps * max(np.max(np.abs(Pu)), np.max(np.abs(Pv)))
        bound = 16 * delta / (1e-7 * np.min(np.diff(ts.points)) ** 2)
        gap = np.abs(dense_from_bands(A, B, C) - brute_force_jacobian(residual, z, f0))
        assert np.max(gap) <= bound

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quotient_steps_follow_each_entry(self, n):
        # Every perturbed sample moves one column of U or of V by
        # 1e-7 * max(1, |x|) of its own entries x and leaves the rest alone.
        seen = []

        def d_v(t, U, V):
            seen.append((U.copy(), V.copy()))
            return V.copy()

        L = Lagrangian(
            n=n,
            eval=lambda t, U, V: 0.5 * np.sum(V * V, axis=1),
            d_u=lambda t, U, V: np.zeros_like(U),
            d_v=d_v,
            vectorized=True,
        )
        ts = q_geometric(1.5, 1.0, 9)
        vals = np.random.default_rng(n).uniform(-40, 40, (9, n))
        path = _el_sample(L, ts, 0, *_path_sample(ts, 0, vals))[0]
        T, U, V = path[:3]
        seen.clear()
        _jacobian_bands(L, path, np.diff(ts.points))
        assert len(seen) == 2 * n
        for (Up, Vp), (slot, k) in zip(seen, [(s, k) for s in range(2) for k in range(n)]):
            X, Xp, other, other_p = (U, Up, V, Vp) if slot == 0 else (V, Vp, U, Up)
            assert np.array_equal(other_p, other)
            assert np.array_equal(np.delete(Xp, k, axis=1), np.delete(X, k, axis=1))
            assert np.array_equal(Xp[:, k], X[:, k] + 1e-7 * np.maximum(1.0, np.abs(X[:, k])))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 33])
    def test_cyclic_reduction_matches_block_thomas(self, m, n):
        rng = np.random.default_rng([m, n])
        A, B, C = rng.uniform(-1, 1, (3, m, n, n))
        # Block diagonally dominant: each diagonal block outweighs its row's
        # off-diagonal blocks, so both eliminations meet nonsingular pivots.
        B += 3 * n * np.eye(n)
        f = rng.uniform(-1, 1, (m, n))
        # Finite garbage in A_0 and C_{m-1}, which must meet only zeros.
        x = _cyclic_reduction(A, B, C, f)
        A[0], C[-1] = 0.0, 0.0
        expected = block_thomas(A, B, C, f)
        assert x.shape == (m, n)
        assert np.max(np.abs(x - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(dense_from_bands(A, B, C) @ x.ravel() - f.ravel())) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ts", [h_uniform(0.1, 0.0, 2.0), q_geometric(1.05, 1.0, 21)])
    def test_density_samples_per_newton_step(self, n, ts):
        calls = [0]
        L = quartic_density(n, calls)
        alpha, beta = np.linspace(-1.0, 1.0, n), np.linspace(2.0, 0.5, n)
        with pytest.raises(ConvergenceError) as err:
            solve_extremal(L, ts, BoundaryData(alpha, beta), tol=0.0, max_iter=4)
        per_eval = len(ts) - 1  # dL/dv is sampled once per point of [0, N-2]
        assert calls[0] % per_eval == 0
        # The start is sampled once.  Each step then samples 2n perturbed
        # paths for the Jacobian and its damping trials: a step accepted at
        # scale 2^-j made j + 1 trials; when all 20 fail (scale 2^-20) the 20
        # trials plus one recompute make 21 too.
        trials = [round(-np.log2(scale)) + 1 for _, scale in err.value.history]
        assert len(trials) == 4
        assert calls[0] // per_eval == 1 + sum(2 * n + j for j in trials)

    @pytest.mark.parametrize(
        "density, spec, alpha, beta",
        [
            ("poisson", "h:1:0:5", [0.0], [5.0]),
            ("poisson", "q:1.01:1:150", [0.0], [5.0]),
            ("quad:2:0.5:0.1:0.2", "h:0.1:0:3", [0.0, 1.0], [2.0, -1.0]),
            ("quartic", "q:1.05:1:21", [-1.0], [2.0]),
        ],
    )
    def test_final_residual_is_el_residual(self, density, spec, alpha, beta):
        # Newton's last residual is the one el_residual reports, to the bit.
        L = quartic_density(1, [0]) if density == "quartic" else catalog(density)
        real = variational._el_values
        seen = []

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        with mock.patch.object(variational, "_el_values", spy):
            y = solve_extremal(L, parse_scale_spec(spec), BoundaryData(alpha, beta))
        assert float(np.max(np.abs(seen[-1]))) == el_residual(L, y).sup_norm <= 1e-8


class TestRealApproxConvergence:
    def test_el_residual_first_order_at_sampled_solution(self):
        # potential density 0.5 v^2 - cos(u); classical solution of the
        # pendulum linearization is not closed-form, use 0.5 v^2 + u (Poisson)
        # with quadratic solution y = t(1-t)/(-2)... keep the harmonic case:
        sups = []
        for h in (0.1, 0.05, 0.025):
            ts = real_approx(h, 0.0, 2.0)
            L = catalog("quad:1:0.5:-0.5:0")
            y = GridFunction.from_callable(ts, lambda t: np.sin(t))
            sups.append(el_residual(L, y).sup_norm)
        assert sups[0] > sups[1] > sups[2]
        assert sups[1] / sups[0] < 0.75 and sups[2] / sups[1] < 0.75


# Per-point copies of the catalog densities, one point per call.  The
# vectorized catalog must reproduce every sample and action bit for bit.

def per_point_quadratic(n, cv, cu, cuv):
    return Lagrangian(
        n=n,
        eval=lambda t, u, v: float(cv * v @ v + cu * u @ u + cuv * u @ v),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: 2 * cu * u + cuv * v,
        d_v=lambda t, u, v: 2 * cv * v + cuv * u,
    )


PER_POINT_CATALOG = {
    "poisson": Lagrangian(
        n=1,
        eval=lambda t, u, v: float(0.5 * v @ v + u[0]),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: np.ones(1),
        d_v=lambda t, u, v: v.copy(),
    ),
    "pair-difference": Lagrangian(
        n=2,
        # one multiply rounds the exact square once; a scalar ** 2 calls libm pow
        eval=lambda t, u, v: float((v[0] - v[1]) * (v[0] - v[1])),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: np.zeros(2),
        d_v=lambda t, u, v: np.array([2 * (v[0] - v[1]), -2 * (v[0] - v[1])]),
    ),
}


def rational_density(n, vectorized):
    """A density given by its values only, the same formula in either
    calling convention; differenced(...) gives it partials."""
    if vectorized:
        def density(t, U, V):
            w = U[:, -1] - V[:, 0]
            return t * U[:, 0] * V[:, -1] + w * w * w / (1.0 + V[:, 0] * V[:, 0])
    else:
        def density(t, u, v):
            w = u[-1] - v[0]
            return float(t * u[0] * v[-1] + w * w * w / (1.0 + v[0] * v[0]))
    return Lagrangian(n=n, eval=density, vectorized=vectorized)


def per_point_sample(L, which, t, u, v):
    """One point of L or a partial, reading each missing partial as a
    central difference with the step FD_STEP * max(1, |x_k|) per entry: the
    reference for differenced(...) of a value-only density."""
    if which == "L":
        return L.eval(t, u, v)
    fn = {"t": L.d_t, "u": L.d_u, "v": L.d_v}[which]
    if fn is not None:
        return fn(t, u, v)
    if which == "t":
        h = FD_STEP * max(1.0, abs(t))
        return (L.eval(t + h, u, v) - L.eval(t - h, u, v)) / (2 * h)
    x = u if which == "u" else v
    out = np.empty(x.size)
    for k in range(x.size):
        h = FD_STEP * max(1.0, abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        if which == "u":
            out[k] = (L.eval(t, xp, v) - L.eval(t, xm, v)) / (2 * h)
        else:
            out[k] = (L.eval(t, u, xp) - L.eval(t, u, xm)) / (2 * h)
    return out


def differential_scale(kind, npts, rng):
    if kind == "h":
        return h_uniform(0.25, -1.0, -1.0 + 0.25 * (npts - 1))
    if kind == "q":
        return q_geometric(1.05, 0.5, npts)
    return explicit_scale(np.cumsum(rng.uniform(0.01, 1.0, npts)) - 2.0)


class TestArrayDensities:
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(["quad", "poisson", "pair-difference", "rational"]),
        n=st.integers(1, 3),
        cv=coefficient,
        cu=coefficient,
        cuv=coefficient,
        kind=st.sampled_from(["h", "q", "explicit"]),
        npts=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(name="quad", n=2, cv=0.5, cu=0.3, cuv=0.2, kind="q", npts=200, seed=0)
    @example(name="pair-difference", n=2, cv=0.0, cu=0.0, cuv=0.0, kind="explicit", npts=150, seed=1)
    # one sample of this path is 1 ulp off under libm pow
    @example(name="pair-difference", n=2, cv=0.0, cu=0.0, cuv=0.0, kind="explicit", npts=150, seed=8)
    @example(name="rational", n=3, cv=0.0, cu=0.0, cuv=0.0, kind="h", npts=100, seed=2)
    def test_catalog_equals_per_point_copy(self, name, n, cv, cu, cuv, kind, npts, seed):
        if name == "quad":
            fast = catalog(f"quad:{n}:{cv!r}:{cu!r}:{cuv!r}")
            slow = source = per_point_quadratic(n, cv, cu, cuv)
        elif name == "rational":
            source = rational_density(n, False)
            fast, slow = differenced(rational_density(n, True)), differenced(source)
        else:
            fast, slow = catalog(name), PER_POINT_CATALOG[name]
            source = slow
        assert fast.vectorized and not slow.vectorized
        rng = np.random.default_rng(seed)
        ts = differential_scale(kind, npts, rng)
        # entries beyond 1 in magnitude exercise the relative difference step
        y = GridFunction(ts, 0, rng.uniform(-3, 3, (npts, fast.n)))
        # The path arguments (t, y^sigma, y^delta), one point at a time, and
        # the action in the integral kernel's order: np.sum of the mu-weighted
        # per-point values.
        mu = np.diff(ts.points)
        args = list(zip(ts.points[:-1], y.values[1:], np.diff(y.values, axis=0) / mu[:, None]))
        for which in ("t", "u", "v", "L"):
            (a,), (b,) = lagrangian_along(fast, y, which), lagrangian_along(slow, y, which)
            assert a.window == b.window == (0, npts - 2)
            ref = np.array([per_point_sample(source, which, *arg) for arg in args], dtype=float)
            assert np.array_equal(a.values, b.values) and np.array_equal(b.values, ref.reshape(b.values.shape)), which
        action = np.sum(mu * np.array([slow.eval(*arg) for arg in args], dtype=float))
        assert eval_functional(fast, y) == eval_functional(slow, y) == action


class TestPairDifferenceSquare:
    # |v| <= 1e150 keeps (v0 - v1)^2 below the largest float
    bounded = st.floats(-1e150, 1e150, allow_nan=False)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(bounded, bounded), min_size=1, max_size=40))
    @example(pairs=[(0.687611213910762, 0.0), (1.0, -0.9686715461435784), (2.0**-540, 0.0)])
    def test_density_is_the_correctly_rounded_square(self, pairs):
        V = np.array(pairs, dtype=float)
        w = V[:, 0] - V[:, 1]
        out = catalog("pair-difference").eval(np.zeros(len(V)), np.zeros_like(V), V)
        assert np.array_equal(out, w * w)
        assert out.tolist() == [float(Fraction(x) ** 2) for x in w.tolist()]


def self_check(L: Lagrangian, seed: int) -> float:
    """Worst relative gap between L's analytic partials and central
    differences of its values on 20 random probe points."""
    probes = np.random.default_rng(seed).uniform(-2, 2, (20, 1 + 2 * L.n))
    T, U, V = probes[:, 0], probes[:, 1 : 1 + L.n], probes[:, 1 + L.n :]
    worst = 0.0
    for which, fn in (("t", L.d_t), ("u", L.d_u), ("v", L.d_v)):
        if fn is not None:
            fd = earlier_central_difference(L, which, T, U, V)
            worst = max(worst, float(np.max(np.abs(L.sample(which, T, U, V) - fd) / np.maximum(1.0, np.abs(fd)))))
    return worst


class TestLagrangianPartials:
    @pytest.mark.parametrize("name", ["dirichlet", "poisson", "pair-difference", "quad:3:0.5:-0.3:0.2"])
    def test_self_check_passes_for_catalog(self, name):
        assert catalog(name).d_u is not None and catalog(name).d_v is not None
        assert self_check(catalog(name), seed=2) < 1e-6


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    width=st.integers(1, 4),
    vectorized=st.booleans(),
    npts=st.integers(1, 12),
    spread=st.sampled_from([0.5, 3.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_central_differences_bitwise_equal_earlier_copy(n, width, vectorized, npts, spread, seed):
    # The reparametrization oracle's kernel, in the u and v slots it takes.
    # Entries on both sides of 1 in magnitude take both branches of the step.
    # u and v may be wider or narrower than n: each of their own columns is
    # differenced, as the density itself takes them.
    rng = np.random.default_rng(seed)
    T, U, V = (rng.uniform(-spread, spread, shape) for shape in ((npts,), (npts, width), (npts, width)))
    L = rational_density(n, vectorized)
    for slot in (1, 2):
        new = noether._central_difference(lambda *args: L.sample("L", *args), (T, U, V), slot)
        assert new.shape == (npts, width)
        assert new.tobytes() == earlier_central_difference(L, "tuv"[slot], T, U, V).tobytes()


class TestResidualReport:
    def test_norms_consistent_with_per_point(self):
        rng = np.random.default_rng(5)
        arr = rng.uniform(-2, 2, (7, 3))
        rep = ResidualReport.from_per_point((0, 6), arr, tolerance=1.0)
        assert rep.sup_norm == pytest.approx(np.max(np.abs(arr)), abs=1e-14)
        assert rep.l2_norm == pytest.approx(np.sqrt(np.sum(arr**2)), abs=1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_l2_norm_independent_of_layout(self, seed):
        # A rho gather along a later axis of a lattice field has a transposed
        # layout; the norm must add the same pairs as for a C-ordered copy.
        arr = np.random.default_rng(seed).uniform(-2, 2, (6, 6, 6, 6))
        gathered = arr[:, :, :, [0, 0, 1, 2, 3, 4]]
        rep = ResidualReport.from_per_point((0, 5), gathered, tolerance=1.0)
        rep_c = ResidualReport.from_per_point((0, 5), np.ascontiguousarray(gathered), tolerance=1.0)
        assert rep.l2_norm == rep_c.l2_norm
        assert rep.per_point.tolist() == rep_c.per_point.tolist()

    def test_empty_per_point_fails(self):
        rep = ResidualReport.from_per_point((0, -1), [], tolerance=1.0)
        assert rep.sup_norm == 0.0 and rep.verdict is False
        assert rep.to_json()["verdict"] == "fail"

    def test_json_shape(self):
        rep = ResidualReport.from_per_point((2, 4), [0.0, 1e-12, 0.0], tolerance=1e-9)
        js = rep.to_json()
        assert js["verdict"] == "pass" and "per_point" not in js
        assert "per_point" in rep.to_json(include_per_point=True)

    def test_catalog_unknown(self):
        with pytest.raises(ValueError):
            catalog("nope")
