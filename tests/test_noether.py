import tempfile
from dataclasses import replace
from pathlib import Path

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
    el_residual,
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
    parse_scale_spec,
    q_geometric,
    random_gauge_params,
    second_el_expression,
    second_el_via_reparametrization,
    solve_extremal,
    transform,
    vanishing_coefficients,
)
from tsnoether.noether import _identity_lhs_affine, _perturbation
from tsnoether.variational import BoundaryData, Lagrangian, variation_pairing

import reference
from reference import differenced

PAIRDIFF = catalog("pair-difference")


def pairdiff_family(ts, broken=False):
    g1 = 1.1 if broken else 1.0
    return GaugeFamily.constant(ts, [[[g1], [1.0]]])


def random_path(ts, n, seed, lo=0, hi=None):
    hi = len(ts) - 1 if hi is None else hi
    rng = np.random.default_rng(seed)
    return GridFunction(ts, lo, rng.uniform(-1, 1, (hi - lo + 1, n)))


def affine_scale(b1, b0, t0, npts):
    """The explicit scale t0, b1*t0 + b0, ...; its jump law is fitted, not declared."""
    pts = [t0]
    for _ in range(npts - 1):
        pts.append(b1 * pts[-1] + b0)
    return explicit_scale(pts)


# Affine jump laws sigma(t) = b1*t + b0 that are neither h nor q: with b0 > 0,
# crossing 0, and with b0 < 0.  Each is (b1, b0, t0).
AFFINE_LAWS = [(1.5, 0.25, 0.1), (1.25, 0.5, -0.75), (2.0, -0.5, 1.0)]
AFFINE_IDS = ["1.5t+0.25", "1.25t+0.5", "2t-0.5"]


def corollary_form(L, g_funcs, t, y, ts, m):
    """The independent identity form of ts's jump law: the public h- or q-form
    on those scales, the one condition-(H) form with the fitted law on others."""
    b1, b0 = ts.condition_h
    if ts.kind == "q-geometric":
        return identity_lhs_q_calculus(L, g_funcs, t, y, b1, m)
    if ts.kind == "explicit":
        return _identity_lhs_affine(L, g_funcs, t, y, b1, b0, m)
    return identity_lhs_h_calculus(L, g_funcs, t, y, b0, m)


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
            row = GridFunction(fam.ts, 0, fam.g[1, 0, 0])
        assert copies == [] and row.window == fam.window

    @pytest.mark.parametrize("m", [2, 4], ids=["m-equals-points", "m-beyond-points"])
    def test_constant_order_beyond_the_scale_named(self, m):
        with pytest.raises(ValueError) as err:
            GaugeFamily.constant(h_uniform(1.0, 0, 1), [[[1.0] * (m + 1)]])
        assert str(err.value) == f"a family of order m = {m} needs more than {m} points, the scale has 2"

    @pytest.mark.parametrize(
        "g, f, entry",
        [([[[np.nan]]], None, "g[0][0][0]"), ([[[1.0, -np.inf]], [[0.5, 0.0]]], None, "g[0][0][1]"),
         ([[[1.0]]], [[np.nan]], "f[0][0]")],
    )
    def test_constant_refuses_non_finite_entries(self, g, f, entry):
        # As a family file does: NaN always fails.
        with pytest.raises(ValueError) as err:
            GaugeFamily.constant(h_uniform(1.0, 0, 4), g, f=f)
        assert str(err.value) == f"coefficient {entry} is not finite"

    def test_caller_table_is_copied(self):
        ts = h_uniform(1.0, 0, 4)
        g = np.ones((1, 1, 1, 3))
        fam = GaugeFamily(ts, g)
        g[:] = 7.0
        assert fam.window == (0, 2) and np.all(fam.g == 1.0)

    @pytest.mark.parametrize("g", [np.ones((1, 1, 5)), np.ones((1, 1, 1, 1, 5)), np.ones((1, 0, 1, 5))])
    def test_rejects_g_that_is_not_a_nonempty_4d_table(self, g):
        with pytest.raises(ValueError, match=r"g must be a nonempty \[parameter\]\[component\]\[order\]\[point\] table"):
            GaugeFamily(h_uniform(1.0, 0, 4), g)

    @pytest.mark.parametrize("f_shape", [(1, 2), (2, 2, 5), (1, 1, 5), (1, 2, 4)])
    def test_rejects_f_that_is_not_parameter_order_point(self, f_shape):
        with pytest.raises(ValueError, match=r"f must be a \[parameter\]\[order\]\[point\] table of shape \(1, 2, 5\)"):
            GaugeFamily(h_uniform(1.0, 0, 5), np.ones((1, 1, 2, 5)), np.ones(f_shape))

    def test_rejects_window_past_the_scale(self):
        with pytest.raises(ValueError) as err:
            GaugeFamily(h_uniform(1.0, 0, 4), np.ones((1, 1, 1, 6)))
        assert str(err.value) == "the window of 6 points does not fit inside the scale of 5 points"


def gauge_term(fam, params):
    """The perturbation of a one-component family, read off transform on a
    zero path over the family window."""
    y = GridFunction(fam.ts, 0, np.zeros((fam.g.shape[3], 1)))
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
        rep = noether_identity(catalog("dirichlet"), fam, y)[0]
        assert rep.domain == (0, hi - 2 - m)

    def test_requires_affine_jump_law(self):
        ts = explicit_scale([0.0, 1.0, 2.0, 4.0, 5.0])
        assert ts.condition_h is None
        fam = GaugeFamily.constant(ts, [[[1.0], [1.0]]])
        y = random_path(ts, 2, seed=14)
        with pytest.raises(ValueError):
            noether_identity(PAIRDIFF, fam, y)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize(
        "ts, slope, div, seed",
        [(h_uniform(0.5, 0, 7), 0.1, 1, 15), (q_geometric(2.0, 1.0, 12), 0.3, 100, 16),
         *((affine_scale(*law, 12), 0.3, 100, 43) for law in AFFINE_LAWS)],
        ids=["h", "q", *AFFINE_IDS],
    )
    def test_calculus_form_matches_generic(self, ts, slope, div, seed, m):
        hi = len(ts) - 1 - m
        t = ts.points
        g_callables = [[(lambda c: (lambda tt: 1 + c * tt / div))(slope * (i + 1)) for i in range(m + 1)]]
        fam = GaugeFamily(ts, [[[g(t[: hi + 1]) for g in row] for row in g_callables]])
        L = catalog("quad:1:0.5:0.3:0.1")
        y = random_path(ts, 1, seed=[seed, m], hi=hi)
        generic = noether_identity(L, fam, y)[0].per_point[:, 0]
        coro = corollary_form(L, [g_callables[0]], t[: hi + 1], y.values[:, 0], ts, m)
        k = generic.shape[0]
        scale = np.maximum(1.0, np.abs(generic))
        assert np.max(np.abs(generic - coro[:k]) / scale) <= 1e-12


    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(0, 2),
        n=st.integers(1, 2),
        kind=st.sampled_from(["h", "q", "affine"]),
        step=st.sampled_from([0, 1, 2]),
        npts=st.integers(8, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_calculus_forms_match_generic_for_random_coefficients(self, m, n, kind, step, npts, seed):
        # Random quadratic coefficient polynomials g[k][i] and a random
        # quadratic density; the forms keep their own quotients.  An affine
        # law draws b1, b0 and the first gap, so its scale may cross 0.
        rng = np.random.default_rng(seed)
        if kind == "q":
            ts = q_geometric((1.5, 2.0, 1.1)[step], 1.0, npts)
        elif kind == "h":
            h = (0.5, 0.25, 0.1)[step]
            ts = h_uniform(h, 0, h * (npts - 1))
        else:
            b1, b0, gap = rng.choice([1.1, 1.25, 1.5, 2.0, 3.0]), rng.uniform(-1, 1), rng.uniform(0.1, 1)
            ts = affine_scale(b1, b0, (gap - b0) / (b1 - 1), npts)
        hi = len(ts) - 1 - m
        t = ts.points
        coeffs = rng.uniform(-1, 1, (n, m + 1, 3)) / np.max(np.abs(t[: hi + 1])) ** np.arange(3)
        g_callables = [
            [(lambda c: (lambda tt: np.polynomial.polynomial.polyval(tt, c)))(coeffs[k, i]) for i in range(m + 1)]
            for k in range(n)
        ]
        fam = GaugeFamily(ts, [[[g(t[: hi + 1]) for g in row] for row in g_callables]])
        cv, cu, cuv = rng.uniform(0.2, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)
        L = catalog(f"quad:{n}:{cv!r}:{cu!r}:{cuv!r}")
        y = GridFunction(ts, 0, rng.uniform(-1, 1, (hi + 1, n)))
        generic = noether_identity(L, fam, y)[0].per_point[:, 0]
        form = corollary_form(L, g_callables, t[: hi + 1], y.values, ts, m)
        k = generic.shape[0]
        # Where b1 t + b0 is inexact the coefficients are sampled at
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
        rep = noether_identity_time(L, fam, y)[0]
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
        terms = [mixed(eta, i, 0) for i in range(m + 1)] + [delta_derivative(eta, i) for i in range(1, m + 1)]
        for term in terms + [mixed(eta, i, m - 1 - i) for i in range(1, m - 1)]:
            assert term.lo == 0 and term.values[0, 0] == 0.0


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
        [h_uniform(1.0, 0, 6), h_uniform(0.5, 0, 3.5), q_geometric(2.0, 1.0, 8),
         *(affine_scale(*law, 8) for law in AFFINE_LAWS)],
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
        [h_uniform(1.0, 0, 9), h_uniform(0.5, 0, 5), q_geometric(2.0, 1.0, 11),
         *(affine_scale(*law, 11) for law in AFFINE_LAWS)],
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

    @pytest.mark.parametrize("m, hi", [(0, 9), (1, 9), (2, 8)])
    def test_vanishing_coefficients_span_the_summands(self, m, hi):
        # On 11 points the summands are t_0 .. t_(10 - max(m, 1)): the
        # maximum, where mu = 0, never is one, whatever the order.
        ts = affine_scale(*AFFINE_LAWS[1], 11)
        fs = vanishing_coefficients(ts, m, np.random.default_rng(44))
        assert [f.window for f in fs] == [(0, hi)] * (m + 1)
        rep = fundamental_lemma_oracle(ts, fs)
        assert rep.verdict and rep.consistent

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
        assert alpha.values[4 - alpha.lo, 0] == pytest.approx(4.3)

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
    rep = noether_identity(PAIRDIFF, fam, y)[0]
    assert rep.sup_norm <= 1e-9


# The gauge pass and the probe generator against their references: each
# term p_j^(sigma^(m-i-1), delta^i) shifted and differenced one index at a
# time, and one polyval per parameter.

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
    flo = 0  # every family window starts at the scale minimum
    fhi = data.draw(st.integers(flo + 1, top), label="family hi")
    ylo = data.draw(st.integers(flo, fhi - 1), label="path lo")
    yhi = data.draw(st.integers(ylo + 1, fhi), label="path hi")
    width = fhi - flo + 1
    f = rng.uniform(-1, 1, (r, m + 1, width)) if with_f else None
    fam = GaugeFamily(ts, rng.uniform(-1, 1, (r, n, m + 1, width)), f)
    params = random_gauge_params(fam, [seed, 1])
    for new, old in zip(params, reference.random_gauge_params(fam, [seed, 1]), strict=True):
        assert new.window == old.window and new.values.tobytes() == old.values.tobytes()
    params = tuple(scale * p for p in params)  # sups 0.1, 1 and 37.5
    # Parameters on windows that start above the scale minimum: rho no
    # longer saturates there, and a window above the family's is refused.
    plo = data.draw(st.integers(0, flo + 1), label="parameter lo")
    params = tuple(p.restrict(plo, p.hi) for p in params)
    y = GridFunction(ts, ylo, rng.uniform(-1, 1, (yhi - ylo + 1, n)))
    try:
        alpha, ybar = reference.transform(fam, params, y)
    except ValueError as exc:
        event(f"refused: {exc}")
        if str(exc).startswith("time reparametrization"):
            match = "^time reparametrization is not strictly increasing$"
        else:  # the reference also fails on windows that do not overlap
            match = "parameter window too small|shift exhausts|window too small"
        with pytest.raises(ValueError, match=match):
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
    eta = GridFunction(ts, ylo, reference.perturbation(fam, params, y)[0])
    assert necessary_condition_residual(L, fam, y, params) == variation_pairing(L, y, eta)


def test_parameter_window_too_small_refused_as_before():
    ts = h_uniform(1.0, 0, 8)
    fam = GaugeFamily.constant(ts, [[[1.0, 0.5]]])
    p = GridFunction(ts, 2, np.ones(7))  # its terms start at index 2 and 3, the family at 0
    y = GridFunction(ts, 0, np.zeros((8, 1)))
    for apply in (transform, reference.transform):
        with pytest.raises(ValueError, match="parameter window too small for the requested term"):
            apply(fam, (p,), y)


# A family of constants is held as a broadcast of its [j, k, i] table,
# stride 0 along the points, and the kernels read each row as one scalar;
# every result must keep the bits of the same family held per point
# (reference.constant_family).

def explicit_at(points):
    """The scale that "explicit:@<file>" reads from a file of these points."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.txt"
        path.write_text("".join(f"{p!r}\n" for p in points))
        return parse_scale_spec(f"explicit:@{path}")


# Scales of 13 or 14 points with an affine jump law: h, q, real and an
# explicit 1.5t + 0.25 read from a file.
FORM_SCALES = {
    "h": parse_scale_spec("h:0.5:-1:5"),
    "q": parse_scale_spec("q:1.25:0.5:13"),
    "real": parse_scale_spec("real:0.1:0:1.2"),
    "explicit": explicit_at(affine_scale(1.5, 0.25, 0.1, 14).points.tolist()),
}
HELD_ENTRIES = [0.0, -0.0, 1.0, -1.0, 0.7, 1.1, 1e-300, 1e300]


def draw_tables(data, r, n, m, with_f, entries):
    def table(shape):
        size = int(np.prod(shape))
        cells = data.draw(st.lists(st.sampled_from(entries), min_size=size, max_size=size))
        return np.reshape(cells, shape)

    return table((r, n, m + 1)), table((r, m + 1)) if with_f else None


def both_forms(ts, g, f):
    """The family of the constant tables g and f held as a broadcast, and held per point."""
    held, sampled = GaugeFamily.constant(ts, g, f), reference.constant_family(ts, g, f)
    for a, b in ((held.g, sampled.g), (held.f, sampled.f)):
        assert a is None and b is None or a.strides[-1] == 0 and b.strides[-1] != 0 and a.shape == b.shape
    return held, sampled


def outcome(call, bits):
    """bits(call()), or the message of the ValueError it raises."""
    try:
        result = call()
    except ValueError as exc:
        return str(exc)
    return bits(result)


def report_bits(rep):
    """The report's fields, each float as its bytes, so that a NaN equals itself."""
    return rep.domain, rep.per_point.tobytes(), np.array([rep.sup_norm, rep.l2_norm, rep.tolerance]).tobytes(), rep.verdict


def values_bits(*arrays):
    return tuple(None if a is None else (a.shape, a.tobytes()) for a in arrays)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(list(FORM_SCALES)),
    r=st.integers(1, 3),
    n=st.integers(1, 3),
    m=st.integers(0, 2),
    with_f=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_held_family_bitwise_equals_family_per_point(kind, r, n, m, with_f, seed, data):
    ts = FORM_SCALES[kind]
    forms = both_forms(ts, *draw_tables(data, r, n, m, with_f, HELD_ENTRIES))
    hi = forms[0].window[1]
    ylo = data.draw(st.integers(0, 2), label="path lo")
    yhi = data.draw(st.one_of(st.just(hi), st.integers(ylo + 1, hi)), label="path hi")
    y = GridFunction(ts, ylo, np.random.default_rng(seed).uniform(-1, 1, (yhi - ylo + 1, n)))
    params = random_gauge_params(forms[0], [seed, 1])
    L = catalog(f"quad:{n}:0.5:0.25:0.125")

    def transformed(pair):
        alpha, ybar = pair
        return values_bits(None if alpha is None else alpha.values, ybar.values, ybar.ts.points)

    def results(fam):
        with np.errstate(all="ignore"):  # the 1e300 entries overflow
            return (
                outcome(lambda: _perturbation(fam, params, y), lambda pair: values_bits(*pair)),
                outcome(lambda: transform(fam, params, y), transformed),
                outcome(lambda: check_invariance(L, fam, y, trials=3, seed=seed), report_bits),
                outcome(lambda: noether_identity(L, fam, y), lambda reps: [report_bits(rep) for rep in reps]),
                outcome(lambda: noether_identity_time(L, fam, y), lambda reps: [report_bits(rep) for rep in reps]),
            )

    held, sampled = results(forms[0]), results(forms[1])
    for name, a, b in zip(("perturbation", "transform", "invariance", "identity", "time identity"), held, sampled):
        event(f"{name}: {b if isinstance(b, str) else 'computed'}")
        assert a == b, name


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_unit_rows_keep_the_window_of_their_shifted_row(m):
    # A 1.0 row is E_k itself on the window it shares with the
    # sigma-shifted row; with every row 1.0 only that window bounds the sum.
    ts = h_uniform(0.5, 0.0, 6.0)
    L = catalog("quad:1:0.5:0.25:0.125")
    y = random_path(ts, 1, m)
    held, sampled = both_forms(ts, [[[1.0] * (m + 1)]], None)
    (a,), (b,) = noether_identity(L, held, y), noether_identity(L, sampled, y)
    assert a.domain == b.domain == (0, min(len(ts) - 3, len(ts) - m - 2) - m)
    assert report_bits(a) == report_bits(b)


def test_constant_family_holds_no_point_array(traced_peak):
    ts = h_uniform(1.0, 0.0, 999_999.0)
    fam, peak = traced_peak(lambda: GaugeFamily.constant(ts, [[[1.1], [1.0]]], f=[[0.0]]))
    assert fam.g.shape == (1, 2, 1, 10**6) and fam.f.shape == (1, 1, 10**6)
    assert peak < 0.01 * 8 * 10**6, f"building the family peaked at {peak} bytes"


# ROADMAP item 22's bit half for the 1-D Euler-Lagrange expressions and the
# identity sums: each density below has E linear in y, so the path 2^k y,
# at k where nothing under- or overflows, gives 2^k times every per-point
# value of the path y, bit for bit.  The families move no time: the
# time-component expression is quadratic in y.

@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(list(FORM_SCALES)),
    density=st.sampled_from(["pair-difference", "dirichlet", "quad"]),
    held=st.booleans(),
    m=st.integers(0, 2),
    k=st.integers(-40, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_el_and_identity_scale_with_the_path_by_powers_of_two(kind, density, held, m, k, seed, data):
    ts = FORM_SCALES[kind]
    n = {"pair-difference": 2, "dirichlet": 1}.get(density) or data.draw(st.integers(1, 3), label="n")
    L = catalog(f"quad:{n}:0.5:0.25:0.125" if density == "quad" else density)
    g, _ = draw_tables(data, data.draw(st.integers(1, 2), label="r"), n, m, False, [0.0, -0.0, 1.0, -1.0, 0.7, 1.1])
    fam = both_forms(ts, g, None)[0 if held else 1]
    vals = np.random.default_rng(seed).uniform(-1, 1, (fam.window[1] + 1, n))
    y, scaled = (GridFunction(ts, 0, v) for v in (vals, vals * 2.0**k))
    pairs = [(el_residual(L, y), el_residual(L, scaled))]
    pairs += zip(noether_identity(L, fam, y), noether_identity(L, fam, scaled), strict=True)
    for base, rep in pairs:
        assert rep.domain == base.domain
        assert rep.per_point.tobytes() == (base.per_point * 2.0**k).tobytes()


def time_family_case(r, n, m, geometric, zero_row, seed):
    """A quadratic density, a family with random g and f tables (f's first
    row all zero when zero_row) and a random path on an h or q scale."""
    rng = np.random.default_rng(seed)
    ts = q_geometric(1.25, 0.5, 12) if geometric else h_uniform(0.25, -1.0, 1.75)
    hi = len(ts) - 1 - m
    f = rng.uniform(-1, 1, (r, m + 1, hi + 1))
    if zero_row:
        f[0] = 0.0
    fam = GaugeFamily(ts, rng.uniform(-1, 1, (r, n, m + 1, hi + 1)), f)
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
    for rep, total in zip(reports, reference.identity(L, fam, y), strict=True):
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


# The identity forms and the reparametrization oracle against their
# references, which read the density one point at a time (through a one-row
# sample).

def oracle_density(kind, n):
    """A time-dependent density of n components: vectorized or per point,
    with analytic partials or with central differences for all of them."""
    quad = catalog(f"quad:{n}:0.5:0.3:0.1")
    if kind == "vectorized":
        return quad
    if kind == "vectorized-fd":
        return differenced(
            Lagrangian(n=n, eval=lambda t, U, V: quad.eval(t, U, V) + 0.1 * t * U[:, 0], vectorized=True)
        )

    def d_u(t, u, v):
        out = -np.sin(u)
        out[0] += 0.1 * t
        return out

    bare = Lagrangian(n=n, eval=lambda t, u, v: float(0.5 * v @ v + np.sum(np.cos(u)) + 0.1 * t * u[0]))
    if kind == "per-point-fd":
        return differenced(bare)
    return replace(bare, d_t=lambda t, u, v: 0.1 * u[0], d_u=d_u, d_v=lambda t, u, v: v.copy())


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["vectorized", "vectorized-fd", "per-point", "per-point-fd"]),
    ts=st.sampled_from([parse_scale_spec(spec) for spec in ("h:0.5:0:7", "q:1.5:1:14", "real:0.1:0:2")]
                       + [affine_scale(*law, 14) for law in AFFINE_LAWS]),
    n=st.integers(1, 3),
    m=st.integers(0, 2),
    lo=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracles_bitwise_equal_per_point_copies(kind, ts, n, m, lo, seed):
    L = oracle_density(kind, n)
    rng = np.random.default_rng(seed)
    hi = len(ts) - 1 - m
    t = ts.points[: hi + 1]
    y = rng.uniform(-1, 1, (hi + 1, n))
    coeffs = rng.uniform(-1, 1, (n, m + 1, 3)) / t[hi] ** np.arange(3)
    g_funcs = [
        [(lambda c: (lambda tt: np.polynomial.polynomial.polyval(tt, c)))(coeffs[k, i]) for i in range(m + 1)]
        for k in range(n)
    ]
    b1, b0 = ts.condition_h
    if ts.kind == "q-geometric":
        sigma, mu = b1 * t, (b1 - 1) * t
    elif ts.kind == "explicit":
        sigma, mu = b1 * t + b0, (b1 - 1) * t + b0
    else:
        sigma, mu = t + b0, np.full(t.size, b0)
    out = corollary_form(L, g_funcs, t, y, ts, m)
    assert np.array_equal(out, reference.identity_form(L, g_funcs, t, y, m, sigma, mu, b1))
    path = GridFunction(ts, lo, y[lo:])
    a = second_el_via_reparametrization(L, path)
    assert a.window == (lo, len(ts) - 1 - m - 2) and np.array_equal(a.values[:, 0], reference.reparametrization(L, path))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaugeFamily.constant(h_uniform(1.0, 0, 5), [[1.0, 1.0]]), "g must be indexed [parameter][component][order]"),
        (lambda: transform(GaugeFamily(h_uniform(1.0, 0, 5), [[[np.ones(4)]]]),
                           (GridFunction(h_uniform(1.0, 0, 5), 0, np.zeros(6)),),
                           GridFunction(h_uniform(1.0, 0, 5), 0, np.zeros(6))),
         "family coefficients do not cover the path window"),
        (lambda: fundamental_lemma_oracle(h_uniform(1.0, 0, 5), []), "need at least f_0"),
        (lambda: fundamental_lemma_oracle(h_uniform(1.0, 0, 5), [GridFunction(h_uniform(1.0, 0, 5), 0, np.zeros(2))]),
         "coefficient windows too small"),
    ],
    ids=["constant-two-axes", "path-beyond-family", "no-coefficients", "short-coefficient"],
)
def test_refusal_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
