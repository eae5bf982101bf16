from functools import reduce
from operator import add

import numpy as np
import pytest

from tsnoether import (
    EMField,
    FieldD,
    GaugeFamilyD,
    GridD,
    default_lattice,
    em_el_expressions,
    em_functional,
    em_gauge_family,
    em_lagrangian,
    em_lorentz_check,
    em_wave_form,
    em_wave_reduction_residual,
    h_uniform,
    lorentz_field,
    multi_integral,
    noether_identity_d,
    partial_delta,
    q_geometric,
    random_em_field,
    random_polynomial_field,
    shift_all_except,
    shift_axis,
    transform_d,
)


def zero_field(grid):
    z = np.zeros(grid.shape)
    return EMField(grid, tuple(FieldD(grid, (0,) * 4, z) for _ in range(4)))


def mixed_lattice():
    return GridD(
        (
            h_uniform(1.0, 0, 4),
            q_geometric(2.0, 1.0, 5),
            h_uniform(1.0, 0, 4),
            h_uniform(0.5, 0, 2),
        )
    )


GRID = default_lattice(6)
LATTICES = [GRID, mixed_lattice()]
_ELECTRIC = ((1, 0), (2, 0), (3, 0))
_MAGNETIC = ((2, 3), (3, 1), (1, 2))


# Field-by-field references for what em computes on the generic d-D path:
# the density written with the FieldD operators, the gauge that adds the
# rho_k-shifted axis-k quotient of p, and the divergence of the
# Euler-Lagrange expressions.


def ref_pg(A, axis):
    """Axis quotient with sigma on every other axis (the density's pattern)."""
    return shift_all_except(partial_delta(A, axis), axis)


def ref_density(F):
    total = None
    for j, k in _ELECTRIC:
        w = ref_pg(F.A[k], j) - ref_pg(F.A[j], k)
        term = 0.5 * (w * w)
        total = term if total is None else total + term
    for j, k in _MAGNETIC:
        w = ref_pg(F.A[k], j) - ref_pg(F.A[j], k)
        total = total - 0.5 * (w * w)
    return total


def ref_gauge(F, p):
    return tuple(A_k + shift_axis(partial_delta(p, k), k, -1) for k, A_k in enumerate(F.A))


def ref_divergence(F):
    return reduce(add, (partial_delta(e, k) for k, e in enumerate(em_el_expressions(F))))


def gauge(F, p):
    """em's trial transformation: A_k + (Delta_k p)^rho_k."""
    return EMField(F.grid, transform_d(em_gauge_family(F.grid), -p, F.A))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDensity:
    def test_zero_potential(self):
        F = zero_field(GRID)
        assert np.all(ref_density(F).values == 0.0)
        assert em_functional(F) == 0.0

    def test_linear_scalar_potential(self):
        # A0 = x coordinate: grad A0 = (1,0,0), density 1/2 everywhere
        t1 = GRID.scales[1].points
        A0 = np.broadcast_to(t1[None, :, None, None], GRID.shape)
        F = zero_field(GRID)
        F = EMField(GRID, (FieldD(GRID, (0,) * 4, A0),) + F.A[1:])
        assert np.allclose(ref_density(F).values, 0.5)
        # 5^4 unit base cells
        assert em_functional(F) == pytest.approx(0.5 * 5**4)

    def test_pure_gauge_density_vanishes(self):
        F = zero_field(GRID)
        p = random_polynomial_field(GRID, seed=0, degree=2)
        Fg = gauge(F, p)
        assert np.max(np.abs(ref_density(Fg).values)) <= 1e-12
        assert abs(em_functional(Fg)) <= 1e-12

    @pytest.mark.parametrize("grid", LATTICES)
    def test_functional_integrates_reference_density(self, grid):
        for seed in range(10):
            F = random_em_field(grid, seed=[12, seed])
            assert multi_integral(ref_density(F)) == em_functional(F)


class TestGaugeInvariance:
    def test_zero_parameter_identity(self):
        F = random_em_field(GRID, seed=1)
        Fg = gauge(F, FieldD(GRID, (0,) * 4, np.zeros(GRID.shape)))
        for a, b in zip(F.A, Fg.A):
            assert np.array_equal(a.values, b.values)

    def test_constant_parameter_identity(self):
        F = random_em_field(GRID, seed=2)
        Fg = gauge(F, FieldD(GRID, (0,) * 4, np.full(GRID.shape, 3.7)))
        for a, b in zip(F.A, Fg.A):
            assert np.allclose(a.values, b.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_functional_invariant(self, seed):
        F = random_em_field(GRID, seed=[3, seed])
        base = em_functional(F)
        p = random_polynomial_field(GRID, seed=[4, seed])
        dev = abs(em_functional(gauge(F, p)) - base)
        assert dev <= 1e-12 * max(1.0, abs(base))

    def test_functional_invariant_on_mixed_lattice(self):
        grid = mixed_lattice()
        F = random_em_field(grid, seed=5)
        base = em_functional(F)
        p = random_polynomial_field(grid, seed=6)
        dev = abs(em_functional(gauge(F, p)) - base)
        assert dev <= 1e-12 * max(1.0, abs(base))

    @pytest.mark.parametrize("grid", LATTICES)
    def test_family_transform_equals_reference_gauge(self, grid):
        F = random_em_field(grid, seed=13)
        p = random_polynomial_field(grid, seed=14)
        for a, b in zip(gauge(F, p).A, ref_gauge(F, p)):
            assert a.lo == b.lo and same_bits(a.values, b.values)

    def test_family_subtracts_the_quotient(self):
        F = random_em_field(GRID, seed=15)
        p = random_polynomial_field(GRID, seed=16)
        plus = ref_gauge(F, p)
        minus = transform_d(em_gauge_family(GRID), p, F.A)
        for a, b, c in zip(F.A, plus, minus):
            assert np.allclose((b - a).values, (a - c).values, rtol=0, atol=1e-12)
            assert np.max(np.abs((b - a).values)) > 1e-3


class TestNoetherResidual:
    def test_zero_potential(self):
        F = zero_field(GRID)
        assert noether_identity_d(em_lagrangian(), em_gauge_family(GRID), F.A).sup_norm == 0.0

    @pytest.mark.parametrize("grid", LATTICES)
    def test_random_polynomial_potential(self, grid):
        F = random_em_field(grid, seed=7, degree=2)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(grid), F.A)
        assert rep.sup_norm <= 1e-9 and rep.verdict

    @pytest.mark.parametrize("grid", LATTICES)
    def test_identity_equals_reference_divergence(self, grid):
        # Bitwise, signed zeros included: the adjoint of the -1 family is
        # +sum_k Delta_k E_k, not its negation.
        F = random_em_field(grid, seed=8)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(grid), F.A)
        div = ref_divergence(F)
        assert rep.domain == (div.lo[0], div.hi[0])
        assert same_bits(rep.per_point, div.values)

    def test_family_identity_form_passes(self):
        F = random_em_field(GRID, seed=9)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(GRID), F.A)
        assert rep.sup_norm <= 1e-9

    def test_broken_family_negative_control(self):
        F = random_em_field(GRID, seed=10)
        table = [list(row) for row in em_gauge_family(GRID).a]
        table[1][2] = -1.1
        fam = GaugeFamilyD.constant(GRID, table)
        rep = noether_identity_d(em_lagrangian(), fam, F.A)
        assert rep.sup_norm > 1e-3


class TestLorentzAndWave:
    def test_zero_potential_all_zero(self):
        F = zero_field(GRID)
        assert em_lorentz_check(F).sup_norm == 0.0
        assert em_wave_reduction_residual(F).sup_norm == 0.0

    def test_linear_lorentz_example(self):
        # A0 = t0, A1 = x1: both sides of every continuity condition equal 1
        t0 = GRID.scales[0].points
        t1 = GRID.scales[1].points
        A0 = np.broadcast_to(t0[:, None, None, None], GRID.shape)
        A1 = np.broadcast_to(t1[None, :, None, None], GRID.shape)
        z = np.zeros(GRID.shape)
        F = EMField(
            GRID,
            (
                FieldD(GRID, (0,) * 4, A0),
                FieldD(GRID, (0,) * 4, A1),
                FieldD(GRID, (0,) * 4, z),
                FieldD(GRID, (0,) * 4, z),
            ),
        )
        assert em_lorentz_check(F).sup_norm == 0.0
        for e, w in zip(em_el_expressions(F), em_wave_form(F)):
            assert np.max(np.abs(e.values)) <= 1e-13
            assert np.max(np.abs(w.values)) <= 1e-13

    @pytest.mark.parametrize("grid", [GRID, mixed_lattice()])
    def test_constructed_lorentz_field_reduces(self, grid):
        F = lorentz_field(grid)
        lc = em_lorentz_check(F)
        assert lc.sup_norm <= 1e-10 and lc.verdict
        wr = em_wave_reduction_residual(F)
        assert wr.sup_norm <= 1e-9 and wr.verdict
        # the reduction is non-trivial here: the expressions themselves are not zero
        assert max(np.max(np.abs(e.values)) for e in em_el_expressions(F)) > 0.5

    def test_generic_field_fails_lorentz(self):
        F = random_em_field(GRID, seed=11)
        assert em_lorentz_check(F).sup_norm > 1e-3


class TestConstruction:
    def test_dimension_checks(self):
        g2 = GridD((h_uniform(1.0, 0, 3), h_uniform(1.0, 0, 3)))
        with pytest.raises(ValueError):
            EMField(g2, tuple(FieldD(g2, (0, 0), np.zeros(g2.shape)) for _ in range(4)))

    def test_functional_of_gauge_on_integration_window(self):
        # em functional integrates over base cells only
        F = zero_field(GRID)
        assert multi_integral(ref_density(F)) == 0.0
