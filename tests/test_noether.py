from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tsnoether import (
    GaugeFamily,
    GridFunction,
    check_invariance,
    catalog,
    delta_derivative,
    el_expressions,
    eval_functional,
    explicit_scale,
    fundamental_lemma_oracle,
    h_uniform,
    identity_lhs_h_calculus,
    identity_lhs_q_calculus,
    mixed,
    necessary_condition_residual,
    noether_identity,
    noether_identity_time,
    q_geometric,
    random_gauge_params,
    second_el_expression,
    second_el_via_reparametrization,
    shift,
    solve_extremal,
    transform,
)
from tsnoether.variational import BoundaryData, Lagrangian, variation_pairing

PAIRDIFF = catalog("pair-difference")


def pairdiff_family(ts, broken=False):
    g1 = 1.1 if broken else 1.0
    return GaugeFamily.constant(ts, [[[g1], [1.0]]])


def random_path(ts, n, seed, lo=0, hi=None):
    hi = len(ts) - 1 if hi is None else hi
    rng = np.random.default_rng(seed)
    return GridFunction(ts, lo, rng.uniform(-1, 1, (hi - lo + 1, n)))


class TestGaugeFamily:
    def test_constant_tables_are_read_only_arrays_along_the_window(self, count_copies):
        from tsnoether import timescale

        ts = h_uniform(1.0, 0, 6)
        fam = GaugeFamily.constant(ts, [[[0.5, -1.0]], [[2.0, 0.0]]], f=[[0.1, 0.2], [0.0, 0.3]])
        assert (fam.r, fam.n, fam.m, fam.window) == (2, 1, 1, (0, 5))
        assert fam.g.shape == (2, 1, 2, 6) and fam.f.shape == (2, 2, 6)
        assert not fam.g.flags.writeable and not fam.f.flags.writeable
        assert np.all(fam.g[0, 0, 1] == -1.0) and np.all(fam.f[1, 1] == 0.3)
        # A row is a view of the read-only table, so wrapping it copies nothing.
        with count_copies(timescale) as copies:
            row = GridFunction(fam.ts, fam.lo, fam.g[1, 0, 0])
        assert copies == [] and row.window == fam.window

    @pytest.mark.parametrize("m", [2, 4], ids=["m-equals-points", "m-beyond-points"])
    def test_constant_order_beyond_the_scale_named(self, m):
        with pytest.raises(ValueError) as err:
            GaugeFamily.constant(h_uniform(1.0, 0, 1), [[[1.0] * (m + 1)]])
        assert str(err.value) == f"a family of order m = {m} needs more than {m} points, the scale has 2"

    def test_caller_table_is_copied(self):
        ts = h_uniform(1.0, 0, 4)
        g = np.ones((1, 1, 1, 3))
        fam = GaugeFamily(ts, 1, g)
        g[:] = 7.0
        assert fam.window == (1, 3) and np.all(fam.g == 1.0)

    @pytest.mark.parametrize("g", [np.ones((1, 1, 5)), np.ones((1, 1, 1, 1, 5)), np.ones((1, 0, 1, 5))])
    def test_rejects_g_that_is_not_a_nonempty_4d_table(self, g):
        with pytest.raises(ValueError, match=r"g must be a nonempty \[parameter\]\[component\]\[order\]\[point\] table"):
            GaugeFamily(h_uniform(1.0, 0, 4), 0, g)

    @pytest.mark.parametrize("f_shape", [(1, 2), (2, 2, 5), (1, 1, 5), (1, 2, 4)])
    def test_rejects_f_that_is_not_parameter_order_point(self, f_shape):
        with pytest.raises(ValueError, match=r"f must be a \[parameter\]\[order\]\[point\] table of shape \(1, 2, 5\)"):
            GaugeFamily(h_uniform(1.0, 0, 5), 0, np.ones((1, 1, 2, 5)), np.ones(f_shape))

    @pytest.mark.parametrize("lo, npts", [(1, 5), (0, 6), (-1, 3)])
    def test_rejects_window_past_the_scale(self, lo, npts):
        with pytest.raises(ValueError, match=f"the window of {npts} points at {lo} does not fit inside the scale"):
            GaugeFamily(h_uniform(1.0, 0, 4), lo, np.ones((1, 1, 1, npts)))


def gauge_term(fam, params):
    """The perturbation of a one-component family, read off transform on a
    zero path over the family window."""
    y = GridFunction(fam.ts, fam.lo, np.zeros((fam.g.shape[3], 1)))
    return transform(fam, params, y)[1]


class TestGaugeTerm:
    def test_order_zero_unit_coefficient_is_rho_shift(self):
        ts = h_uniform(1.0, 0, 6)
        fam = GaugeFamily.constant(ts, [[[1.0]]])
        p = GridFunction.from_callable(ts, lambda t: t * t)
        term = gauge_term(fam, (p,))
        # value at t is p(rho(t)); at the minimum rho saturates
        expect = np.array([0.0, 0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
        assert np.allclose(term.values[:, 0], expect)

    def test_zero_parameter_gives_zero(self):
        ts = q_geometric(2.0, 1.0, 7)
        fam = GaugeFamily.constant(ts, [[[0.3, -0.4]]])
        p = GridFunction(ts, 0, np.zeros(7))
        term = gauge_term(fam, (p,))
        assert np.all(term.values == 0)

    def test_first_order_backward_difference_on_integers(self):
        ts = h_uniform(1.0, 0, 7)
        fam = GaugeFamily.constant(ts, [[[0.0, 1.0]]])
        p = GridFunction.from_callable(ts, lambda t: t**3)
        term = gauge_term(fam, (p,))
        t = ts.points[1 : term.hi + 1]
        assert np.allclose(term.values[1:, 0], t**3 - (t - 1) ** 3)

    def test_linear_in_parameters(self):
        ts = q_geometric(2.0, 1.0, 9)
        fam = GaugeFamily.constant(ts, [[[0.5, -1.0, 0.25]]])
        pa = random_gauge_params(fam, seed=1)
        pb = random_gauge_params(fam, seed=2)
        combo = (pa[0] * 2.0 + pb[0] * (-3.0),)
        lhs = gauge_term(fam, combo).values
        rhs = 2.0 * gauge_term(fam, pa).values - 3.0 * gauge_term(fam, pb).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestTransform:
    def test_zero_params_identity(self):
        ts = h_uniform(1.0, 0, 8)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=0)
        zero = (GridFunction(ts, 0, np.zeros(9)),)
        tbar, ybar = transform(fam, zero, y)
        assert tbar is None
        assert np.array_equal(ybar.values, y.values)

    def test_common_shift_applied_to_both_components(self):
        ts = h_uniform(1.0, 0, 6)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=1)
        params = random_gauge_params(fam, seed=2)
        _, ybar = transform(fam, params, y)
        delta = ybar.values - y.values
        assert np.allclose(delta[:, 0], delta[:, 1])

    def test_time_case_small_amplitude_increases(self):
        ts = h_uniform(1.0, 0, 8)
        fam = GaugeFamily.constant(ts, [[[0.0]]], f=[[0.05]])
        y = random_path(ts, 1, seed=3)
        params = random_gauge_params(fam, seed=4)
        alpha, ybar = transform(fam, params, y)
        assert np.all(np.diff(alpha.values[:, 0]) > 0)
        assert len(ybar.ts) == len(ts)
        assert np.allclose(ybar.ts.points, alpha.values[:, 0])

    @pytest.mark.parametrize(
        "count, n, message",
        [(0, 1, "family expects 1 parameters"), (2, 1, "family expects 1 parameters"), (1, 2, "parameter functions are scalar")],
        ids=["none", "two", "vector"],
    )
    def test_parameter_count_and_scalar_checked(self, count, n, message):
        ts = h_uniform(1.0, 0, 8)
        y = random_path(ts, 2, seed=1)
        params = tuple(GridFunction(ts, 0, np.ones((9, n))) for _ in range(count))
        with pytest.raises(ValueError, match=message):
            transform(pairdiff_family(ts), params, y)
        with pytest.raises(ValueError, match=message):
            necessary_condition_residual(PAIRDIFF, pairdiff_family(ts), y, params)

    def test_time_case_monotonicity_violation_raises(self):
        ts = h_uniform(1.0, 0, 8)
        fam = GaugeFamily.constant(ts, [[[0.0]]], f=[[1.0]])
        y = random_path(ts, 1, seed=3)
        sawtooth = GridFunction(ts, 0, np.where(np.arange(9) % 2 == 0, 0.9, -0.9))
        with pytest.raises(ValueError):
            transform(fam, (sawtooth,), y)


class TestInvariance:
    def test_zero_params_zero_deviation(self):
        ts = h_uniform(1.0, 0, 8)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=5)
        zero = (GridFunction(ts, 0, np.zeros(9)),)
        _, ybar = transform(fam, zero, y)
        assert eval_functional(PAIRDIFF, ybar) == eval_functional(PAIRDIFF, y)

    @pytest.mark.parametrize("ts", [h_uniform(1.0, 0, 10), q_geometric(2.0, 1.0, 11)])
    def test_pair_difference_family_invariant(self, ts):
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=6)
        rep = check_invariance(PAIRDIFF, fam, y, trials=100, seed=9)
        assert rep.verdict and rep.sup_norm <= rep.tolerance

    def test_broken_family_detected(self):
        ts = h_uniform(1.0, 0, 10)
        fam = pairdiff_family(ts, broken=True)
        y = random_path(ts, 2, seed=6)
        rep = check_invariance(PAIRDIFF, fam, y, trials=25, seed=9)
        assert rep.sup_norm > 1e-3 and not rep.verdict


class TestNecessaryCondition:
    def test_zero_params(self):
        ts = h_uniform(1.0, 0, 9)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=7)
        zero = (GridFunction(ts, 0, np.zeros(10)),)
        assert necessary_condition_residual(PAIRDIFF, fam, y, zero) == 0.0

    def test_invariant_family_near_zero(self):
        ts = q_geometric(2.0, 1.0, 10)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=8)
        params = random_gauge_params(fam, seed=10)
        assert abs(necessary_condition_residual(PAIRDIFF, fam, y, params)) <= 1e-12

    def test_broken_family_order_one(self):
        ts = h_uniform(1.0, 0, 9)
        fam = pairdiff_family(ts, broken=True)
        y = random_path(ts, 2, seed=8)
        params = tuple(10.0 * p for p in random_gauge_params(fam, seed=10))  # sup 1
        assert abs(necessary_condition_residual(PAIRDIFF, fam, y, params)) > 1e-3


class TestNoetherIdentity:
    @pytest.mark.parametrize(
        "ts", [h_uniform(1.0, 0, 10), h_uniform(0.5, 0, 5), q_geometric(2.0, 1.0, 11)]
    )
    def test_pair_difference_identity(self, ts):
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=11)
        reps = noether_identity(PAIRDIFF, fam, y)
        assert len(reps) == 1
        assert reps[0].sup_norm <= 1e-9 and reps[0].verdict

    def test_zero_coefficients_zero_identity(self):
        ts = h_uniform(1.0, 0, 8)
        fam = GaugeFamily.constant(ts, [[[0.0], [0.0]]])
        y = random_path(ts, 2, seed=12)
        assert noether_identity(PAIRDIFF, fam, y)[0].sup_norm == 0.0

    def test_broken_family_fails(self):
        ts = h_uniform(1.0, 0, 10)
        fam = pairdiff_family(ts, broken=True)
        y = random_path(ts, 2, seed=11)
        rep = noether_identity(PAIRDIFF, fam, y)[0]
        assert rep.sup_norm > 1e-3 and not rep.verdict

    @pytest.mark.parametrize("n", [1, 3])
    def test_family_of_another_component_count_refused(self, n):
        # Fewer rows would silently drop Euler-Lagrange expressions, more
        # would index past them.
        ts = h_uniform(1.0, 0, 10)
        fam = GaugeFamily.constant(ts, [[[1.0]] * n], f=[[0.0]])
        y = random_path(ts, 2, seed=11)
        for identity in (noether_identity, noether_identity_time):
            with pytest.raises(ValueError, match=f"component count mismatch: the family has n = {n}, the path n = 2"):
                identity(PAIRDIFF, fam, y)

    def test_window_shrinks_by_order_plus_two(self):
        ts = h_uniform(1.0, 0, 12)
        m = 2
        hi = len(ts) - 1 - m
        fam = GaugeFamily.constant(ts, [[[0.2, -0.5, 1.0]]])
        y = random_path(ts, 1, seed=13, hi=hi)
        rep = noether_identity(catalog("dirichlet"), fam, y, tolerance=np.inf)[0]
        assert rep.domain == (0, hi - 2 - m)

    def test_requires_affine_jump_law(self):
        ts = explicit_scale([0.0, 1.0, 2.0, 4.0, 5.0])
        assert ts.condition_h is None
        fam = GaugeFamily.constant(ts, [[[1.0], [1.0]]])
        y = random_path(ts, 2, seed=14)
        with pytest.raises(ValueError):
            noether_identity(PAIRDIFF, fam, y)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_h_calculus_form_matches_generic(self, m):
        h = 0.5
        ts = h_uniform(h, 0, 7)
        hi = len(ts) - 1 - m
        t = ts.points
        g_callables = [[(lambda c: (lambda tt: 1 + c * tt))(0.1 * (i + 1)) for i in range(m + 1)]]
        fam = GaugeFamily(ts, 0, [[[g(t[: hi + 1]) for g in row] for row in g_callables]])
        L = catalog("quad:1:0.5:0.3:0.1")
        y = random_path(ts, 1, seed=[15, m], hi=hi)
        generic = noether_identity(L, fam, y, tolerance=np.inf)[0].per_point[:, 0]
        coro = identity_lhs_h_calculus(L, [g_callables[0]], t[: hi + 1], y.values[:, 0], h, m)
        k = generic.shape[0]
        scale = np.maximum(1.0, np.abs(generic))
        assert np.max(np.abs(generic - coro[:k]) / scale) <= 1e-12

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_q_calculus_form_matches_generic(self, m):
        q = 2.0
        ts = q_geometric(q, 1.0, 12)
        hi = len(ts) - 1 - m
        t = ts.points
        g_callables = [[(lambda c: (lambda tt: 1 + c * tt / 100))(0.3 * (i + 1)) for i in range(m + 1)]]
        fam = GaugeFamily(ts, 0, [[[g(t[: hi + 1]) for g in row] for row in g_callables]])
        L = catalog("quad:1:0.5:0.3:0.1")
        y = random_path(ts, 1, seed=[16, m], hi=hi)
        generic = noether_identity(L, fam, y, tolerance=np.inf)[0].per_point[:, 0]
        coro = identity_lhs_q_calculus(L, [g_callables[0]], t[: hi + 1], y.values[:, 0], q, m)
        k = generic.shape[0]
        scale = np.maximum(1.0, np.abs(generic))
        assert np.max(np.abs(generic - coro[:k]) / scale) <= 1e-12


    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(0, 2),
        n=st.integers(1, 2),
        geometric=st.booleans(),
        step=st.sampled_from([0, 1, 2]),
        npts=st.integers(8, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_calculus_forms_match_generic_for_random_coefficients(self, m, n, geometric, step, npts, seed):
        # Random quadratic coefficient polynomials g[k][i] and a random
        # quadratic density; the h- and q-forms keep their own quotients.
        rng = np.random.default_rng(seed)
        if geometric:
            q = (1.5, 2.0, 1.1)[step]
            ts = q_geometric(q, 1.0, npts)
        else:
            h = (0.5, 0.25, 0.1)[step]
            ts = h_uniform(h, 0, h * (npts - 1))
        hi = len(ts) - 1 - m
        t = ts.points
        coeffs = rng.uniform(-1, 1, (n, m + 1, 3)) / t[hi] ** np.arange(3)
        g_callables = [
            [(lambda c: (lambda tt: np.polynomial.polynomial.polyval(tt, c)))(coeffs[k, i]) for i in range(m + 1)]
            for k in range(n)
        ]
        fam = GaugeFamily(ts, 0, [[[g(t[: hi + 1]) for g in row] for row in g_callables]])
        cv, cu, cuv = rng.uniform(0.2, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        L = catalog(f"quad:{n}:{cv!r}:{cu!r}:{cuv!r}")
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (hi + 1, n)))
        generic = noether_identity(L, fam, y, tolerance=np.inf)[0].per_point[:, 0]
        if geometric:
            form = identity_lhs_q_calculus(L, g_callables, t[: hi + 1], y.values, q, m)
        else:
            form = identity_lhs_h_calculus(L, g_callables, t[: hi + 1], y.values, h, m)
        k = generic.shape[0]
        # Where t + h or q t is inexact the coefficients are sampled at
        # points an ulp apart; the gap is rounding of the summed terms,
        # whose size the sup of the residual stands for.
        assert np.max(np.abs(generic - form[:k])) <= 1e-12 * max(1.0, np.max(np.abs(generic)))


class TestNoetherIdentityTime:
    def test_zero_f_reduces_bitwise(self):
        ts = q_geometric(2.0, 1.0, 10)
        g = [[[1.0], [1.0]]]
        fam_time = GaugeFamily.constant(ts, g, f=[[0.0]])
        fam_plain = GaugeFamily.constant(ts, g)
        y = random_path(ts, 2, seed=17)
        a = noether_identity_time(PAIRDIFF, fam_time, y)[0]
        b = noether_identity(PAIRDIFF, fam_plain, y)[0]
        assert np.array_equal(a.per_point, b.per_point)
        assert a.sup_norm == b.sup_norm and a.l2_norm == b.l2_norm

    def test_requires_f(self):
        ts = h_uniform(1.0, 0, 8)
        fam = pairdiff_family(ts)
        y = random_path(ts, 2, seed=18)
        with pytest.raises(ValueError):
            noether_identity_time(PAIRDIFF, fam, y)

    def test_both_terms_small_along_extremal(self):
        # velocity-only density: along its extremal the slope is constant, so
        # the time-component expression vanishes along with the ordinary one
        ts = h_uniform(1.0, 0, 7)
        L = catalog("quad:1:0.5:0:0.3")
        y = solve_extremal(L, ts, BoundaryData([0.0], [1.0]), tol=1e-12)
        assert el_expressions(L, y).values.max() <= 1e-10
        assert np.max(np.abs(second_el_expression(L, y).values)) <= 1e-10
        fam = GaugeFamily.constant(ts, [[[1.0]]], f=[[1.0]])
        rep = noether_identity_time(L, fam, y, tolerance=1e-8)[0]
        assert rep.sup_norm <= 1e-8

    @pytest.mark.parametrize("trial", range(6))
    def test_reparametrization_oracle_matches_analytic(self, trial):
        ts = [h_uniform(1.0, 0, 7), h_uniform(0.5, 0, 4), q_geometric(2.0, 1.0, 8)][trial % 3]
        rng = np.random.default_rng([19, trial])
        cv, cu, cuv = rng.uniform(0.2, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        L = catalog(f"quad:1:{cv}:{cu}:{cuv}")
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (len(ts), 1)))
        analytic = second_el_expression(L, y).values[:, 0]
        oracle = second_el_via_reparametrization(L, y).values[:, 0]
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - oracle)) / scale <= 1e-5


class TestBoundaryVanishingChains:
    @pytest.mark.parametrize("ts", [h_uniform(0.5, 0, 5), q_geometric(2.0, 1.0, 12)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_chains_vanish_exactly(self, ts, m):
        rng = np.random.default_rng(20)
        vals = rng.uniform(-1, 1, len(ts))
        vals[: m + 1] = 0.0  # forces the first m delta derivatives to vanish at a
        eta = GridFunction(ts, 0, vals)
        for i in range(m + 1):
            if i:
                assert delta_derivative(eta, i).at(0)[0] == 0.0
            assert mixed(eta, i, 0).at(0)[0] == 0.0
        for i in range(1, m - 1):
            assert mixed(eta, i, m - 1 - i).at(0)[0] == 0.0


class TestFundamentalLemmaOracle:
    def test_order_zero_zero_function_passes(self):
        ts = h_uniform(1.0, 0, 8)
        f0 = GridFunction(ts, 0, np.zeros(8))
        rep = fundamental_lemma_oracle(ts, [f0])
        assert rep.verdict and rep.consistent

    def test_order_zero_interior_spike_fails_both(self):
        ts = h_uniform(1.0, 0, 8)
        vals = np.zeros(8)
        vals[3] = 1.0
        rep = fundamental_lemma_oracle(ts, [GridFunction(ts, 0, vals)])
        assert not rep.integrals_vanish and not rep.conclusion_vanishes
        assert rep.consistent and not rep.verdict

    @pytest.mark.parametrize(
        "ts",
        [h_uniform(1.0, 0, 6), h_uniform(0.5, 0, 3.5), q_geometric(2.0, 1.0, 8)],
    )
    def test_order_one_constructed_vanishing(self, ts):
        rng = np.random.default_rng(21)
        upper = len(ts) - 1
        f1 = GridFunction(ts, 0, rng.uniform(-1, 1, upper))
        d = delta_derivative(f1, 1)
        vals = np.zeros(upper)
        vals[: d.values.shape[0]] = d.values[:, 0]
        f0 = GridFunction(ts, 0, vals)
        rep = fundamental_lemma_oracle(ts, [f0, f1])
        assert rep.verdict, (rep.max_integral, rep.conclusion_sup)

    @pytest.mark.parametrize(
        "ts",
        [h_uniform(1.0, 0, 9), h_uniform(0.5, 0, 5), q_geometric(2.0, 1.0, 11)],
    )
    def test_order_two_constructed_vanishing_and_impulse(self, ts):
        rng = np.random.default_rng(22)
        b1 = ts.condition_h[0]
        upper = len(ts) - 2
        f1 = GridFunction(ts, 0, rng.uniform(-1, 1, upper))
        f2 = GridFunction(ts, 0, rng.uniform(-1, 1, upper))
        target = np.zeros(upper)
        d1 = delta_derivative(f1, 1)
        target[: d1.values.shape[0]] += d1.values[:, 0]
        d2 = delta_derivative(f2, 2)
        target[: d2.values.shape[0]] -= (1.0 / b1) * d2.values[:, 0]
        f0 = GridFunction(ts, 0, target)
        rep = fundamental_lemma_oracle(ts, [f0, f1, f2])
        assert rep.verdict, (rep.max_integral, rep.conclusion_sup)
        spiked = target.copy()
        spiked[1] += 0.5
        rep2 = fundamental_lemma_oracle(ts, [GridFunction(ts, 0, spiked), f1, f2])
        assert not rep2.verdict and rep2.consistent
        assert rep2.max_integral > 1e-3 and rep2.conclusion_sup > 1e-3

    def test_grid_too_small(self):
        ts = h_uniform(1.0, 0, 3)
        fs = [GridFunction(ts, 0, np.zeros(2)) for _ in range(3)]
        with pytest.raises(ValueError):
            fundamental_lemma_oracle(ts, fs)

    def test_needs_affine_jump_law(self):
        ts = explicit_scale([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0])
        fs = [GridFunction(ts, 0, np.zeros(6))]
        with pytest.raises(ValueError):
            fundamental_lemma_oracle(ts, fs)


class TestTimeShiftTerm:
    def test_constant_time_family(self):
        ts = h_uniform(1.0, 0, 8)
        fam = GaugeFamily.constant(ts, [[[0.0]]], f=[[1.0]])
        p = GridFunction.from_callable(ts, lambda t: 0.1 * t)
        alpha, _ = transform(fam, (p,), GridFunction(ts, 0, np.zeros(9)))
        # order zero term is p(rho(t)), added to the time t
        assert alpha.at(4)[0] == pytest.approx(4.3)

    def test_missing_f(self):
        # Without f coefficients the family moves no time.
        ts = h_uniform(1.0, 0, 8)
        fam = GaugeFamily.constant(ts, [[[1.0]]])
        p = GridFunction.from_callable(ts, lambda t: t)
        alpha, ybar = transform(fam, (p,), GridFunction(ts, 0, np.zeros(9)))
        assert alpha is None and ybar.ts is ts


class TestSpecNegativeControlVariant:
    def test_zeroed_second_component_breaks_invariance_and_identity(self):
        ts = h_uniform(1.0, 0, 10)
        fam = GaugeFamily.constant(ts, [[[1.0], [0.0]]])
        rng = np.random.default_rng(23)
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (11, 2)))
        inv = check_invariance(PAIRDIFF, fam, y, trials=15, seed=2)
        assert inv.sup_norm > 1e-3
        rep = noether_identity(PAIRDIFF, fam, y)[0]
        assert rep.sup_norm > 1e-3


class TestVelocityChainFamily:
    """Order-1 family T1(p) = p, T2(p) = (p o rho)^delta paired with the
    density (v1 - u2)^2 / 2.  The chain closes exactly on uniform scales
    (the shifted backward quotient equals the forward one) but not on
    geometric ones, where the gap is a factor of the step ratio."""

    L = Lagrangian(
        n=2,
        eval=lambda t, u, v: float(0.5 * (v[0] - u[1]) ** 2),
        d_t=lambda t, u, v: 0.0,
        d_u=lambda t, u, v: np.array([0.0, -(v[0] - u[1])]),
        d_v=lambda t, u, v: np.array([v[0] - u[1], 0.0]),
    )

    def family(self, ts):
        return GaugeFamily.constant(ts, [[[1.0, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("ts", [h_uniform(1.0, 0, 10), h_uniform(0.5, 0, 5)])
    def test_uniform_scale_invariant_and_identity(self, ts):
        fam = self.family(ts)
        y = random_path(ts, 2, seed=24, hi=len(ts) - 2)
        inv = check_invariance(self.L, fam, y, trials=30, seed=3)
        assert inv.verdict, inv.sup_norm
        rep = noether_identity(self.L, fam, y)[0]
        assert rep.sup_norm <= 1e-9

    def test_geometric_scale_breaks_both(self):
        ts = q_geometric(2.0, 1.0, 12)
        fam = self.family(ts)
        y = random_path(ts, 2, seed=24, hi=len(ts) - 2)
        inv = check_invariance(self.L, fam, y, trials=30, seed=3)
        rep = noether_identity(self.L, fam, y)[0]
        assert inv.sup_norm > 1e-3 and rep.sup_norm > 1e-3


@given(
    vals=st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=6, max_size=14
    )
)
@settings(max_examples=40, deadline=None)
def test_pair_difference_identity_for_arbitrary_paths(vals):
    ts = h_uniform(0.5, 0, 0.5 * (len(vals) - 1))
    y = GridFunction(ts, 0, np.array(vals))
    fam = GaugeFamily.constant(ts, [[[1.0], [1.0]]])
    rep = noether_identity(PAIRDIFF, fam, y, tolerance=1e-9)[0]
    assert rep.sup_norm <= 1e-9


# Test-local copies of the gauge pass as it was before each term
# p_j^(sigma^(m-i-1), delta^i) was taken once for all components and the
# time table, and of the probe generator before its coefficients were
# drawn at once.  transform and random_gauge_params must match them bit
# for bit.

def earlier_term_sum(fam, row, p):
    total = reduce(add, (GridFunction(fam.ts, fam.lo, c) * mixed(p, fam.m - i - 1, i) for i, c in enumerate(row)))
    lo, hi = fam.window
    if total.lo > lo or total.hi < hi:
        raise ValueError("parameter window too small for the requested term")
    return total.restrict(lo, hi)


def earlier_perturbation(fam, params, y):
    cols = []
    for k in range(fam.n):
        acc = reduce(add, (earlier_term_sum(fam, fam.g[j, k], params[j]) for j in range(fam.r)))
        cols.append(acc.restrict(y.lo, y.hi).values)
    return np.hstack(cols)


def earlier_transform(fam, params, y):
    """(alpha values or None, ybar values), without the input checks."""
    ybar = y.values + earlier_perturbation(fam, params, y)
    if fam.f is None:
        return None, ybar
    hsum = reduce(add, (earlier_term_sum(fam, fam.f[j], params[j]) for j in range(fam.r)))
    return y.ts.points[y.lo : y.hi + 1] + hsum.restrict(y.lo, y.hi).values[:, 0], ybar


def earlier_random_gauge_params(fam, seed):
    rng = np.random.default_rng(seed)
    ps = []
    for _ in range(fam.r):
        vals = np.polynomial.polynomial.polyval(fam.ts.points, rng.uniform(-1, 1, fam.m + 3))
        peak = np.max(np.abs(vals))
        if peak > 0:
            vals = vals * (0.1 / peak)
        ps.append(GridFunction(fam.ts, 0, vals))
    return tuple(ps)


def gauge_scale(kind, npts, rng):
    if kind == "h":
        return h_uniform(0.5, -1.0, -1.0 + 0.5 * (npts - 1))
    if kind == "q":
        return q_geometric(1.25, 0.5, npts)
    return explicit_scale(np.cumsum(rng.uniform(0.25, 1.0, npts)))


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 2),
    n=st.integers(1, 3),
    m=st.integers(0, 2),
    with_f=st.booleans(),
    kind=st.sampled_from(["h", "q", "explicit"]),
    scale=st.sampled_from([1.0, 10.0, 375.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_gauge_pass_bitwise_equals_earlier_copy(r, n, m, with_f, kind, scale, seed, data):
    rng = np.random.default_rng(seed)
    ts = gauge_scale(kind, data.draw(st.integers(m + 2, 14), label="npts"), rng)
    top = len(ts) - 1 - m  # the highest index every term of a whole-scale parameter reaches
    flo = data.draw(st.integers(0, top - 1), label="family lo")
    fhi = data.draw(st.integers(flo + 1, top), label="family hi")
    ylo = data.draw(st.integers(flo, fhi - 1), label="path lo")
    yhi = data.draw(st.integers(ylo + 1, fhi), label="path hi")
    width = fhi - flo + 1
    f = rng.uniform(-1, 1, (r, m + 1, width)) if with_f else None
    fam = GaugeFamily(ts, flo, rng.uniform(-1, 1, (r, n, m + 1, width)), f)
    params = random_gauge_params(fam, [seed, 1])
    for new, old in zip(params, earlier_random_gauge_params(fam, [seed, 1])):
        assert new.window == old.window and new.values.tobytes() == old.values.tobytes()
    params = tuple(scale * p for p in params)  # sups 0.1, 1 and 37.5
    # Parameters on windows that start above the scale minimum: rho no
    # longer saturates there, and a window above the family's is refused.
    plo = data.draw(st.integers(0, flo + 1), label="parameter lo")
    params = tuple(p.restrict(plo, p.hi) for p in params)
    y = GridFunction(ts, ylo, rng.uniform(-1, 1, (yhi - ylo + 1, n)))
    try:
        alpha, ybar = earlier_transform(fam, params, y)
    except ValueError as exc:
        # The earlier pass could also fail on windows that do not overlap.
        event(f"refused: {exc}")
        with pytest.raises(ValueError, match="parameter window too small|shift exhausts|window too small"):
            transform(fam, params, y)
        return
    if alpha is not None and not np.all(np.diff(alpha) > 0):
        event("refused: time reparametrization is not strictly increasing")
        with pytest.raises(ValueError, match="time reparametrization is not strictly increasing"):
            transform(fam, params, y)
        return
    new_alpha, new_ybar = transform(fam, params, y)
    assert new_ybar.values.tobytes() == ybar.tobytes()
    if alpha is None:
        assert new_alpha is None and new_ybar.ts is ts
    else:
        assert new_alpha.values[:, 0].tobytes() == alpha.tobytes()
        assert new_ybar.ts.points.tobytes() == alpha.tobytes()
    L = catalog(f"quad:{n}:0.5:0.25:0.125")
    eta = GridFunction(ts, ylo, earlier_perturbation(fam, params, y))
    assert necessary_condition_residual(L, fam, y, params) == variation_pairing(L, y, eta)


def test_parameter_window_too_small_refused_as_before():
    ts = h_uniform(1.0, 0, 8)
    fam = GaugeFamily.constant(ts, [[[1.0, 0.5]]])
    p = GridFunction(ts, 2, np.ones(7))  # its terms start at index 2 and 3, the family at 0
    y = GridFunction(ts, 0, np.zeros((8, 1)))
    for apply in (transform, earlier_transform):
        with pytest.raises(ValueError, match="parameter window too small for the requested term"):
            apply(fam, (p,), y)


def earlier_identity_time(L, fam, y, tolerance=1e-9):
    """noether_identity_time as it was before it shared noether_identity's
    loop, with its own copy of the identity's terms."""
    b1 = y.ts.condition_h[0]
    E, Es = el_expressions(L, y), second_el_expression(L, y)

    def identity_sum(table, E):
        def term(k, i, row):
            t = shift(GridFunction(fam.ts, fam.lo, row), 1) * E.component(k)
            return (-1.0) ** i * (1.0 / b1) ** ((i * (i + 1)) // 2) * (delta_derivative(t, i) if i else t)

        return reduce(add, (term(k, i, row) for k, rows in enumerate(table) for i, row in enumerate(rows)))

    totals = []
    for j in range(fam.r):
        total = identity_sum(fam.g[j], E)
        if np.any(fam.f[j] != 0.0):
            total = total + identity_sum(fam.f[j][None], Es)
        totals.append(total)
    return totals


def time_family_case(r, n, m, geometric, zero_row, seed):
    """A quadratic density, a family with random g and f tables (f's first
    row all zero when zero_row) and a random path on an h or q scale."""
    rng = np.random.default_rng(seed)
    ts = q_geometric(1.25, 0.5, 12) if geometric else h_uniform(0.25, -1.0, 1.75)
    hi = len(ts) - 1 - m
    f = rng.uniform(-1, 1, (r, m + 1, hi + 1))
    if zero_row:
        f[0] = 0.0
    fam = GaugeFamily(ts, 0, rng.uniform(-1, 1, (r, n, m + 1, hi + 1)), f)
    L = catalog(f"quad:{n}:0.5:0.25:0.125")
    return L, fam, GridFunction(ts, 0, rng.uniform(-1, 1, (hi + 1, n)))


TIME_FAMILY_CASES = dict(
    r=st.integers(1, 2),
    n=st.integers(1, 2),
    m=st.integers(0, 2),
    geometric=st.booleans(),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**TIME_FAMILY_CASES)
def test_time_identity_bitwise_equals_earlier_copy(r, n, m, geometric, zero_row, seed):
    # The f-weighted time-component term enters with random, non-zero f; a
    # zero f row is skipped, not added.
    L, fam, y = time_family_case(r, n, m, geometric, zero_row, seed)
    reports = noether_identity_time(L, fam, y)
    for rep, total in zip(reports, earlier_identity_time(L, fam, y), strict=True):
        assert rep.domain == total.window and rep.per_point.tobytes() == total.values.tobytes()


@settings(max_examples=60, deadline=None)
@given(**TIME_FAMILY_CASES)
def test_identity_applies_f_bitwise_as_time_identity(r, n, m, geometric, zero_row, seed):
    # One identity path: both functions add the f term of every nonzero f
    # row, so they agree bit for bit on every family with f, an all-zero
    # one (r = 1 with zero_row) included.
    L, fam, y = time_family_case(r, n, m, geometric, zero_row, seed)
    plain, timed = noether_identity(L, fam, y), noether_identity_time(L, fam, y)
    assert len(plain) == len(timed) == r
    for a, b in zip(plain, timed):
        assert a.domain == b.domain and a.per_point.tobytes() == b.per_point.tobytes()
        assert (a.sup_norm, a.l2_norm, a.tolerance, a.verdict) == (b.sup_norm, b.l2_norm, b.tolerance, b.verdict)
