"""Electromagnetic density on a 4-d lattice of time scales.

Axis 0 is time, axes 1..3 are space, and the potentials are a tuple
(A_0, A_1, A_2, A_3) of FieldD on one grid.  The density is a LagrangianD on the
shifted argument pattern of multigrid: with G[j, k] the axis-j quotient of
A_k taken with sigma on every other axis, the field strength entries are
the antisymmetric differences G[j, k] - G[k, j], and the density is

    1/2 |grad A_0 - dA/dt|^2 - 1/2 |curl A|^2.

The gauge family subtracts from each A_k the axis-k quotient of the
rho_k-shifted scalar p, A_k - (Delta_k p)^rho_k.  That leaves every
field-strength entry unchanged, so the action is gauge invariant, and the
generic identity of multigrid (the sum of the family's adjoints applied to
the Euler-Lagrange expressions, here the divergence sum_k Delta_k E_k)
vanishes identically.  When the four shifted continuity (Lorentz)
conditions hold, each Euler-Lagrange expression collapses to a wave
operator applied to A_k.
"""

from __future__ import annotations

from functools import reduce
from operator import add

import numpy as np

from .report import INVARIANCE_TOLERANCE, ResidualReport
from .multigrid import (
    FieldD,
    GaugeFamilyD,
    GridD,
    LagrangianD,
    el_expressions_d,
    functional_d,
    partial_delta,
    random_polynomial_field,
    shift_all_except,
    _field_strength_lagrangian,
    _transformed,
)
from .timescale import _sealed, h_uniform


# Field strength index pairs appearing in the density: electric (i, 0) and
# the three cyclic magnetic pairs.
_ELECTRIC = ((1, 0), (2, 0), (3, 0))
_MAGNETIC = ((2, 3), (3, 1), (1, 2))


def em_lagrangian() -> LagrangianD:
    return _field_strength_lagrangian(4, 4, _ELECTRIC, _MAGNETIC)


def em_functional(A: tuple) -> float:
    return functional_d(em_lagrangian(), A)


def em_gauge_family(grid: GridD) -> GaugeFamilyD:
    """The Maxwell gauge A_k - (Delta_k p)^rho_k as a gauge family: a0 = 0
    and the axis-k coefficient of component k equal to minus one."""
    return GaugeFamilyD(grid, [[-1.0 if i == 1 + k else 0.0 for i in range(5)] for k in range(4)])


def _gauge_invariance(fam: GaugeFamilyD, trials: int, seed: int) -> ResidualReport:
    """Action deviation under the gauge family `fam`: trial t draws a
    potential (seed [seed, 1, t]) and a parameter p (seed [seed, 2, t])."""

    def pair(trial: int) -> tuple[float, float]:
        A = list(random_em_field(fam.grid, seed=[seed, 1, trial]))
        before = em_functional(tuple(A))
        # The family subtracts the quotient; -p adds it, as the golden reports pin.
        # Each A_k is replaced as it is transformed, so no second potential is
        # held, and -p is dropped before the second action.
        minus_p = -random_polynomial_field(fam.grid, seed=[seed, 2, trial])
        for k in range(fam.n):
            A[k] = _transformed(fam, minus_p, A[k], k)
        del minus_p
        return before, em_functional(tuple(A))

    return ResidualReport.from_trials((0, trials - 1), trials, pair, INVARIANCE_TOLERANCE)


def em_lorentz_check(A: tuple) -> ResidualReport:
    """Residual of div A = dA_0/dt at the four shifted argument patterns
    (sigma on every axis except one in turn)."""
    div = reduce(add, (partial_delta(A[i], i) for i in (1, 2, 3)))
    dA0 = partial_delta(A[0], 0)
    fields = [shift_all_except(div, k) - shift_all_except(dA0, k) for k in range(4)]
    del div, dA0
    return _fields_report(fields, 1e-10)


def _fields_report(fields: list, tolerance: float) -> ResidualReport:
    """One report over the ravelled values of fields, on the last one's
    axis-0 window; it empties the list before the report's sums."""
    domain = (fields[-1].lo[0], fields[-1].hi[0])
    per_point = np.concatenate([f.values.ravel() for f in fields])
    fields.clear()
    return ResidualReport.from_per_point(domain, per_point, tolerance)


def em_wave_form(A: tuple) -> tuple:
    """The wave operator each Euler-Lagrange expression equals under the
    Lorentz conditions: the second time quotient at (t0, sigma...) minus the
    spatial operator sum_i d^2/dx_i^2 at (sigma on all axes but i).

    For this density the time component carries the operator with a plus
    sign and the spatial components with a minus sign; expanding E_k and
    substituting the continuity conditions forces the split (the quadratic
    cross terms cancel with opposite orientations for k = 0 and k > 0).
    """
    return tuple(_wave(A_k, k) for k, A_k in enumerate(A))


def _wave(A_k: FieldD, k: int) -> FieldD:
    """Component k of em_wave_form."""
    wave = shift_all_except(partial_delta(partial_delta(A_k, 0), 0), 0)
    for i in (1, 2, 3):
        wave = wave - shift_all_except(partial_delta(partial_delta(A_k, i), i), i)
    return wave if k == 0 else -wave


def em_wave_reduction_residual(A: tuple) -> ResidualReport:
    """Gap between the Euler-Lagrange expressions and the wave form; small
    only when the Lorentz conditions hold.  Each E_k and its wave are
    dropped before the next component's are formed."""
    es = list(el_expressions_d(em_lagrangian(), A))
    return _fields_report([es.pop(0) - _wave(A_k, k) for k, A_k in enumerate(A)], 1e-9)


def default_lattice() -> GridD:
    """The lattice of `noether em --lattice default`: six unit-step points per axis."""
    return GridD(tuple(h_uniform(1.0, 0.0, 5.0) for _ in range(4)))


def random_em_field(grid: GridD, seed) -> tuple:
    return tuple(random_polynomial_field(grid, seed=[seed, k]) for k in range(4))


def lorentz_field(grid: GridD) -> tuple:
    """A field satisfying the continuity conditions exactly: A_0 = t0*t1,
    A_1 the axis-1 delta antiderivative of t1, A_2 = A_3 = 0, so that
    div A and dA_0/dt both equal t1 as fields.  Each component is a
    read-only broadcast view of its small product, not a grid-sized copy."""
    t0 = grid.scales[0].points
    t1 = grid.scales[1].points
    A0 = _sealed(t0[:, None] * t1[None, :])[:, :, None, None]
    A1 = _sealed(np.concatenate(([0.0], np.cumsum(np.diff(t1) * t1[:-1]))))[None, :, None, None]
    zeros = _sealed(np.zeros(1))
    return tuple(FieldD(grid, (0,) * 4, np.broadcast_to(v, grid.shape)) for v in (A0, A1, zeros, zeros))
