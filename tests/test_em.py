from functools import reduce
from operator import add

import numpy as np
import pytest

from tsnoether import (
    FieldD,
    GaugeFamilyD,
    GridD,
    default_lattice,
    el_expressions_d,
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
    parse_scale_spec,
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
    return tuple(FieldD(grid, (0,) * 4, z) for _ in range(4))


def mixed_lattice():
    return GridD(
        (
            h_uniform(1.0, 0, 4),
            q_geometric(2.0, 1.0, 5),
            h_uniform(1.0, 0, 4),
            h_uniform(0.5, 0, 2),
        )
    )


GRID = default_lattice()
LATTICES = [GRID, mixed_lattice()]
Q_TIME_LATTICE = GridD(tuple(parse_scale_spec(s) for s in ("q:1.5:1:6", "h:1:0:5", "q:2:1:6", "h:0.5:0:2.5")))
_ELECTRIC = ((1, 0), (2, 0), (3, 0))
_MAGNETIC = ((2, 3), (3, 1), (1, 2))


# Field-by-field references for what em computes on the generic d-D path:
# the density written with the FieldD operators, the gauge that adds the
# rho_k-shifted axis-k quotient of p, and the divergence of the
# Euler-Lagrange expressions.


def ref_pg(A, axis):
    """Axis quotient with sigma on every other axis (the density's pattern)."""
    return shift_all_except(partial_delta(A, axis), axis)


def ref_density(A):
    total = None
    for j, k in _ELECTRIC:
        w = ref_pg(A[k], j) - ref_pg(A[j], k)
        term = 0.5 * (w * w)
        total = term if total is None else total + term
    for j, k in _MAGNETIC:
        w = ref_pg(A[k], j) - ref_pg(A[j], k)
        total = total - 0.5 * (w * w)
    return total


def ref_gauge(A, p):
    return tuple(A_k + shift_axis(partial_delta(p, k), k, -1) for k, A_k in enumerate(A))


def el_expressions(A):
    return el_expressions_d(em_lagrangian(), A)


def ref_divergence(A):
    return reduce(add, (partial_delta(e, k) for k, e in enumerate(el_expressions(A))))


def gauge(A, p):
    """em's trial transformation: A_k + (Delta_k p)^rho_k."""
    return transform_d(em_gauge_family(A[0].grid), -p, A)


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
        F = (FieldD(GRID, (0,) * 4, A0),) + F[1:]
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
        for a, b in zip(F, Fg):
            assert np.array_equal(a.values, b.values)

    def test_constant_parameter_identity(self):
        F = random_em_field(GRID, seed=2)
        Fg = gauge(F, FieldD(GRID, (0,) * 4, np.full(GRID.shape, 3.7)))
        for a, b in zip(F, Fg):
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
        for a, b in zip(gauge(F, p), ref_gauge(F, p)):
            assert a.lo == b.lo and same_bits(a.values, b.values)

    def test_family_subtracts_the_quotient(self):
        F = random_em_field(GRID, seed=15)
        p = random_polynomial_field(GRID, seed=16)
        plus = ref_gauge(F, p)
        minus = transform_d(em_gauge_family(GRID), p, F)
        for a, b, c in zip(F, plus, minus):
            assert np.allclose((b - a).values, (a - c).values, rtol=0, atol=1e-12)
            assert np.max(np.abs((b - a).values)) > 1e-3


class TestNoetherResidual:
    def test_zero_potential(self):
        F = zero_field(GRID)
        assert noether_identity_d(em_lagrangian(), em_gauge_family(GRID), F).sup_norm == 0.0

    @pytest.mark.parametrize("grid", LATTICES)
    def test_random_polynomial_potential(self, grid):
        F = random_em_field(grid, seed=7)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(grid), F)
        assert rep.sup_norm <= 1e-9 and rep.verdict

    @pytest.mark.parametrize("grid", LATTICES)
    def test_identity_equals_reference_divergence(self, grid):
        # Bitwise, signed zeros included: the adjoint of the -1 family is
        # +sum_k Delta_k E_k, not its negation.
        F = random_em_field(grid, seed=8)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(grid), F)
        div = ref_divergence(F)
        assert rep.domain == (div.lo[0], div.hi[0])
        assert same_bits(rep.per_point, div.values)

    def test_family_identity_form_passes(self):
        F = random_em_field(GRID, seed=9)
        rep = noether_identity_d(em_lagrangian(), em_gauge_family(GRID), F)
        assert rep.sup_norm <= 1e-9

    def test_broken_family_negative_control(self):
        F = random_em_field(GRID, seed=10)
        table = [list(row) for row in em_gauge_family(GRID).a]
        table[1][2] = -1.1
        fam = GaugeFamilyD(GRID, table)
        rep = noether_identity_d(em_lagrangian(), fam, F)
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
        F = (
            FieldD(GRID, (0,) * 4, A0),
            FieldD(GRID, (0,) * 4, A1),
            FieldD(GRID, (0,) * 4, z),
            FieldD(GRID, (0,) * 4, z),
        )
        assert em_lorentz_check(F).sup_norm == 0.0
        for e, w in zip(el_expressions(F), em_wave_form(F)):
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
        assert max(np.max(np.abs(e.values)) for e in el_expressions(F)) > 0.5

    def test_generic_field_fails_lorentz(self):
        F = random_em_field(GRID, seed=11)
        assert em_lorentz_check(F).sup_norm > 1e-3

    @pytest.mark.parametrize("grid", [GRID, mixed_lattice(), Q_TIME_LATTICE], ids=["uniform", "mixed", "q-time"])
    def test_broadcast_lorentz_field_gives_the_bits_of_copies(self, grid):
        # A_0 = t0*t1 is constant along axes 2 and 3, A_1 along 0, 2 and 3,
        # and A_2 = A_3 = 0 everywhere: each is a read-only view that repeats
        # its small product with stride 0, and the checks read it as they
        # read a full C-order copy of the same values.
        F = lorentz_field(grid)
        for f, flat in zip(F, ((2, 3), (0, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3))):
            assert f.values.shape == grid.shape and not f.values.flags.writeable
            assert [ax for ax in range(4) if f.values.strides[ax] == 0] == list(flat)
        copies = tuple(FieldD(grid, f.lo, np.ascontiguousarray(f.values)) for f in F)
        for check in (em_lorentz_check, em_wave_reduction_residual):
            assert same_bits(check(F).per_point, check(copies).per_point)


class TestConstruction:
    def test_dimension_checks(self):
        g2 = GridD((h_uniform(1.0, 0, 3), h_uniform(1.0, 0, 3)))
        with pytest.raises(ValueError, match="component or dimension mismatch"):
            em_functional(tuple(FieldD(g2, (0, 0), np.zeros(g2.shape)) for _ in range(4)))

    def test_functional_of_gauge_on_integration_window(self):
        # em functional integrates over base cells only
        F = zero_field(GRID)
        assert multi_integral(ref_density(F)) == 0.0


def test_em_command_peak_in_cell_arrays():
    # Each em section becomes its report as soon as it returns, the g partial
    # takes no array of its own, and each section holds one working set
    # beside the pattern workspace, whose 16 G slots and one scratch array
    # hold no U for a density that reads none (17 cell arrays; 20 with U):
    # at 12^4 the traced peak of a second run (the first builds the parser)
    # is 25.73 arrays of the pattern's cell shape, 11^4 floats.  The gauge
    # trial's transform binds, which replaces one A_k at a time beside -p
    # and forms each new A_k in its gauge term's buffer.  The identity drops
    # the potential once its pattern is written and peaks 2.6 below it.
    # With U held and the potential alive through the identity's
    # Euler-Lagrange assembly, which then bound, the peak read 30.35.
    import io
    import tracemalloc
    from contextlib import redirect_stdout

    from tsnoether.cli import main

    argv = ["em", "--lattice", "h:1:0:11,h:1:0:11,h:1:0:11,h:1:0:11", "--trials", "2"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 26.2 * 8 * 11**4


def test_em_identity_and_euler_lagrange_peaks_in_cell_arrays():
    # On a 12^4 grid whose pattern workspace is built, the identity's traced
    # peak, its potential drawn inside the call, is 6.1 arrays of the cell
    # shape: it drops the potential once the pattern is written (10.24
    # when held through the assembly).  E alone, on a potential drawn
    # before, peaks at 4.56: the assembly drops each axis quotient before
    # the next is formed (5.24 when held).
    import tracemalloc

    from tsnoether.multigrid import el_expressions_d, noether_identity_d

    grid = GridD(tuple(h_uniform(1.0, 0.0, 11.0) for _ in range(4)))
    fam, L = em_gauge_family(grid), em_lagrangian()
    A = random_em_field(grid, seed=[0, 1])
    peaks = []
    for call in (lambda: noether_identity_d(L, fam, random_em_field(grid, seed=[0, 1])), lambda: el_expressions_d(L, A)):
        call()
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * 11**4))
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6.5 and peaks[1] < 4.9, peaks


def test_em_identity_report_dropped_before_the_lorentz_section():
    # em turns the identity's report into its section and drops it, so no
    # per_point of it is alive while the lorentz and wave sections run.
    import gc
    import io
    import weakref
    from contextlib import redirect_stdout
    from unittest import mock

    from tsnoether import cli, em, multigrid

    real_identity, real_lorentz = multigrid.noether_identity_d, em.em_lorentz_check
    refs, alive = [], []

    def identity(*args):
        report = real_identity(*args)
        refs.append(weakref.ref(report))
        return report

    def lorentz(A):
        alive.append([ref() is not None for ref in refs])
        return real_lorentz(A)

    was_enabled = gc.isenabled()
    gc.disable()  # reference counts alone must free it
    try:
        with mock.patch.object(multigrid, "noether_identity_d", identity), \
                mock.patch.object(em, "em_lorentz_check", lorentz), redirect_stdout(io.StringIO()):
            assert cli.main(["em", "--trials", "2"]) == 0
    finally:
        if was_enabled:
            gc.enable()
    assert alive == [[False]]


def test_check_noether_command_peak_in_point_arrays():
    # The 1-D bound beside em's: the Euler-Lagrange assembly writes over its
    # quotient, and the gauge and identity terms make no transposing copy,
    # so the traced peak of a second check-noether run (the first builds the
    # parser) on a 10^4-point q scale is 14.1 arrays of 10^4 floats (16.9
    # before the long column passes).
    import io
    import tracemalloc
    from contextlib import redirect_stdout

    from tsnoether.cli import main

    argv = ["check-noether", "--scale", "q:1.0005:1:10000", "--lagrangian", "pair-difference", "--family", "pairdiff"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 14.5 * 8 * 10**4


def test_em_wave_form_peak_in_cell_arrays():
    # The wave-form section forms E_k minus its wave one component at a time
    # and drops both before the next: on a 12^4 grid whose pattern workspace
    # is built, the traced peak of the residual is 7.5 arrays of the cell
    # shape, where forming every wave first reads 9.5.
    import tracemalloc

    grid = GridD(tuple(h_uniform(1.0, 0.0, 11.0) for _ in range(4)))
    F = lorentz_field(grid)
    em_wave_reduction_residual(F)
    tracemalloc.start()
    try:
        em_wave_reduction_residual(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 8 * 11**4


def test_em_gauge_trial_peak_in_cell_arrays():
    # The gauge trial forms each new A_k in its gauge term's buffer and
    # drops -p before its second action: on a 16^4 grid whose pattern
    # workspace is built, the traced peak of a trial is the transform's,
    # 7.86 arrays of the cell shape (15^4 floats), with each probe field
    # contracted in its own buffer.  A grid-sized contraction array beside
    # each probe read 8.2, also holding -p through the second action 8.5,
    # and also forming each quotient, product and sum in an array of its
    # own 9.1.
    import tracemalloc

    from tsnoether.em import _gauge_invariance, em_gauge_family

    fam = em_gauge_family(GridD(tuple(h_uniform(1.0, 0.0, 15.0) for _ in range(4))))
    _gauge_invariance(fam, 1, 0)
    tracemalloc.start()
    try:
        _gauge_invariance(fam, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 8 * 15**4
