"""Rectangular products of time scales in 2 to 4 dimensions.

Fields are scalar sample arrays on a per-axis index window of the product
grid; vector quantities are tuples of fields.  Partial delta derivatives
are forward quotients along one axis (the window loses its top index on
that axis).  The variational machinery mirrors the single-integral case:
the density of a functional is evaluated with the forward-shifted argument
pattern (each gradient slot sees sigma applied on every axis except its
own), Euler-Lagrange expressions live on the doubly shrunk interior, and
first-order gauge operators come with an explicit summation-by-parts
adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Callable

import numpy as np

from .report import ResidualReport
from .timescale import _frozen, _sealed, forward_quotient, shift_values, window_integral
from .variational import _central_difference, _el_values


@dataclass(frozen=True, eq=False)
class GridD:
    """A d-dimensional rectangle built from one time scale per axis."""

    scales: tuple

    def __post_init__(self):
        scales = tuple(self.scales)
        if not 2 <= len(scales) <= 4:
            raise ValueError("supported dimensions are 2..4")
        object.__setattr__(self, "scales", scales)

    @property
    def d(self) -> int:
        return len(self.scales)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.scales)

    def mu(self, axis: int) -> np.ndarray:
        return self.scales[axis].mu_array()

    def same_as(self, other: "GridD") -> bool:
        return self is other or (
            self.d == other.d and all(a.same_as(b) for a, b in zip(self.scales, other.scales))
        )


@dataclass(frozen=True, eq=False)
class FieldD:
    """Scalar samples on a rectangular index window of a GridD."""

    grid: GridD
    lo: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        lo = tuple(int(x) for x in self.lo)
        shape = self.grid.shape
        if vals.ndim != len(shape) or len(lo) != len(shape):
            raise ValueError("field dimension does not match the grid")
        for ax, (l, n, size) in enumerate(zip(lo, vals.shape, shape)):
            if n == 0 or l < 0 or l + n - 1 >= size:
                raise ValueError(f"window exceeds the grid on axis {ax}")
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "lo", lo)

    @property
    def hi(self) -> tuple:
        return tuple(l + n - 1 for l, n in zip(self.lo, self.values.shape))

    @property
    def window(self) -> tuple:
        return tuple(zip(self.lo, self.hi))

    def restrict(self, lo, hi) -> "FieldD":
        sl = []
        for ax in range(self.grid.d):
            if lo[ax] < self.lo[ax] or hi[ax] > self.hi[ax] or lo[ax] > hi[ax]:
                raise ValueError(f"not a subwindow on axis {ax}")
            sl.append(slice(lo[ax] - self.lo[ax], hi[ax] - self.lo[ax] + 1))
        return FieldD(self.grid, tuple(lo), self.values[tuple(sl)])

    def _binary(self, other, op) -> "FieldD":
        if isinstance(other, FieldD):
            if not self.grid.same_as(other.grid):
                raise ValueError("fields live on different grids")
            lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
            hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
            if any(l > h for l, h in zip(lo, hi)):
                raise ValueError("windows do not overlap")
            return FieldD(self.grid, lo, _sealed(op(self.restrict(lo, hi).values, other.restrict(lo, hi).values)))
        return FieldD(self.grid, self.lo, _sealed(op(self.values, float(other))))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __rmul__(self, other):
        return self._binary(other, np.multiply)

    def __neg__(self):
        return FieldD(self.grid, self.lo, _sealed(-self.values))


def partial_delta(f: FieldD, axis: int) -> FieldD:
    """Forward difference quotient along one axis; its top index is lost."""
    if f.values.shape[axis] < 2:
        raise ValueError(f"window too small on axis {axis}")
    return FieldD(f.grid, f.lo, forward_quotient(f.values, f.grid.scales[axis], f.lo[axis], axis))


def shift_axis(f: FieldD, axis: int, k: int) -> FieldD:
    """Compose with sigma^k (k > 0, pure translation, a view of f) or
    rho^|k| (k < 0, saturating at the scale minimum) along one axis; see
    shift_values."""
    if k == 0:
        return f
    new_lo, values = shift_values(f.values, axis, f.lo[axis], f.grid.shape[axis], k)
    lo = list(f.lo)
    lo[axis] = new_lo
    return FieldD(f.grid, tuple(lo), _sealed(values))


def shift_all_except(f: FieldD, axis: int) -> FieldD:
    out = f
    for ax in range(f.grid.d):
        if ax != axis:
            out = shift_axis(out, ax, 1)
    return out


def shift_all(f: FieldD) -> FieldD:
    out = f
    for ax in range(f.grid.d):
        out = shift_axis(out, ax, 1)
    return out


def multi_integral(f: FieldD) -> float:
    """Iterated delta integral: sum of f * prod(mu_i) over the window with
    the top index excluded on every axis (where mu is defined)."""
    return float(window_integral(f.grid.scales, f.lo, f.values[..., None])[0])


def greens_residual(M: FieldD, N: FieldD) -> float:
    """|double integral of (dN/dx - dM/dy) - fence circulation| on the common
    rectangle (d = 2 only).

    The fence is walked counterclockwise: delta sums along the bottom and
    right edges, and the reversed (nabla-with-the-traversal) sums along the
    top and left edges, which on a rectangle are delta sums with a minus
    sign.  This pairing telescopes exactly.
    """
    if M.grid.d != 2 or not M.grid.same_as(N.grid):
        raise ValueError("Green residual is defined for two fields on one 2-d grid")
    lo = tuple(max(a, b) for a, b in zip(M.lo, N.lo))
    hi = tuple(min(a, b) for a, b in zip(M.hi, N.hi))
    Mv = M.restrict(lo, hi)
    Nv = N.restrict(lo, hi)
    lhs = multi_integral(partial_delta(Nv, 0) - partial_delta(Mv, 1))
    sx, sy = M.grid.scales
    bottom, top = window_integral((sx,), (lo[0],), Mv.values[:-1, [0, -1]])
    left, right = window_integral((sy,), (lo[1],), Nv.values[[0, -1], :-1].T)
    return float(abs(lhs - (bottom + right - top - left)))


@dataclass(frozen=True)
class LagrangianD:
    """Density L(coords, u, g) for a d-fold integral with n path components.

    u has one slot per component, g one slot per (axis, component) pair.
    All callables are vectorized over trailing cell axes: u is passed with
    shape (n, *cells) and g with shape (d, n, *cells); coords is a tuple of
    broadcastable coordinate arrays.  `sample` is the only caller of the
    callables.  Missing partials are filled in by central differences, one
    slot entry U[k] or G[j, k] at a time.
    """

    d: int
    n: int
    density: Callable
    d_u: Callable | None = None
    d_g: Callable | None = None

    def sample(self, which: str, coords, U, G) -> np.ndarray:
        """L ("L") or its partial ("u", "g") at the pattern (coords, U, G),
        broadcast to the cell shape U.shape[1:], to U.shape or to G.shape."""
        fn = {"L": self.density, "u": self.d_u, "g": self.d_g}[which]
        if fn is None:
            args, slot = (coords, U, G), "Lug".index(which)
            out = _central_difference(self.density, args, slot, np.ndindex(args[slot].shape[:slot]))
        else:
            out = np.asarray(fn(coords, U, G), dtype=float)
        return np.broadcast_to(out, {"L": U.shape[1:], "u": U.shape, "g": G.shape}[which])


def _pattern_args(L: LagrangianD, u: tuple):
    """Shifted-argument slots on the base-cell window shared by all of them.

    The u slot carries sigma on every axis; gradient slot j carries the
    axis-j quotient with sigma on every other axis.  Each slot is written
    straight from the component's own values: U[k] is the all-sigma view,
    and G[j, k] the difference of that view and the one without sigma on
    axis j, divided by mu_j, element by element as forward_quotient does
    (and, like it, not divided on a scale of unit steps).
    """
    grid = u[0].grid
    if len(u) != L.n or L.d != grid.d:
        raise ValueError("component or dimension mismatch")
    if not all(f.grid.same_as(grid) for f in u):
        raise ValueError("components live on different grids")
    lo = tuple(max(f.lo[ax] for f in u) for ax in range(grid.d))
    cell_hi = tuple(min(f.hi[ax] for f in u) - 1 for ax in range(grid.d))
    if any(c < l for l, c in zip(lo, cell_hi)):
        raise ValueError("window too small for the shifted argument pattern")
    cells = tuple(c - l + 1 for l, c in zip(lo, cell_hi))
    coords, mus = [], []
    for ax in range(grid.d):
        shape = [1] * grid.d
        shape[ax] = cells[ax]
        coords.append(grid.scales[ax].points[lo[ax] : cell_hi[ax] + 1].reshape(shape))
        mus.append(None if grid.scales[ax].unit_steps else grid.mu(ax)[lo[ax] : cell_hi[ax] + 1].reshape(shape))
    U = np.empty((L.n,) + cells)
    G = np.empty((grid.d, L.n) + cells)
    for k, f in enumerate(u):
        up = [slice(l + 1 - fl, c + 2 - fl) for l, c, fl in zip(lo, cell_hi, f.lo)]
        U[k] = f.values[tuple(up)]
        for j in range(grid.d):
            down = list(up)
            down[j] = slice(lo[j] - f.lo[j], cell_hi[j] + 1 - f.lo[j])
            np.subtract(U[k], f.values[tuple(down)], out=G[j, k])
            if mus[j] is not None:
                G[j, k] /= mus[j]
    return tuple(coords), U, G, lo, cell_hi


def functional_d(L: LagrangianD, u: tuple) -> float:
    """The d-fold delta integral of the density along the shifted pattern."""
    coords, U, G, lo, cell_hi = _pattern_args(L, u)
    return float(window_integral(u[0].grid.scales, lo, L.sample("L", coords, U, G)[..., None])[0])


def el_expressions_d(L: LagrangianD, u: tuple) -> tuple:
    """Euler-Lagrange expressions dL/du_k - sum_j d/dx_j (dL/dg_jk), one field
    per component, on the doubly shrunk interior; each is one array, taken
    by the assembly _el_values that the 1-D expressions share."""
    coords, U, G, lo, cell_hi = _pattern_args(L, u)
    if any(c == l for l, c in zip(lo, cell_hi)):
        raise ValueError("window too small for the Euler-Lagrange expressions")
    grid = u[0].grid
    P, Q = L.sample("u", coords, U, G), L.sample("g", coords, U, G)
    return tuple(FieldD(grid, lo, _sealed(_el_values(P[k], Q[:, k], grid.scales, lo))) for k in range(L.n))


@dataclass(frozen=True)
class GaugeFamilyD:
    """First-order gauge coefficients, constant on the grid: for each
    component k, a multiplier a[k][0] and one weight a[k][1+j] per axis j
    of the axis-j quotient of the parameter taken at the rho-shifted own
    coordinate."""

    grid: GridD
    a: tuple

    def __post_init__(self):
        try:
            a = tuple(tuple(float(c) for c in row) for row in self.a)
        except TypeError as exc:
            raise ValueError(f"the coefficient table must be rows of numbers: {exc}") from exc
        if not a or not a[0]:
            raise ValueError("empty coefficient table")
        for k, row in enumerate(a):
            if len(row) != self.grid.d + 1:
                raise ValueError("each component needs 1 + d coefficients")
            for i, c in enumerate(row):
                if not np.isfinite(c):
                    raise ValueError(f"coefficient a[{k}][{i}] is not finite: {c}")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return len(self.a)


def _gauge_sum(row, term) -> FieldD | None:
    """Sum of term(i, row[i]) over the coefficients that are not zero (of
    either sign), so that skipped terms do not shrink the window; None if
    all are."""
    out = None
    for i, c in enumerate(row):
        if c != 0.0:
            out = term(i, c) if out is None else out + term(i, c)
    return out


def _times(c: float, f: FieldD) -> FieldD:
    """c * f, or f itself when c is 1.0, where the product changes no bit."""
    return f if c == 1.0 else c * f


def gauge_field(fam: GaugeFamilyD, p: FieldD, k: int) -> FieldD:
    """The perturbation of component k:
    a0*p + sum_j a_{j} * (dp/dx_j at the rho_j-shifted point).

    Zero coefficients contribute nothing and are skipped so they do not
    shrink the window.
    """
    out = _gauge_sum(
        fam.a[k], lambda i, c: _times(c, p if i == 0 else shift_axis(partial_delta(p, i - 1), i - 1, -1))
    )
    if out is None:
        return FieldD(p.grid, (0,) * p.grid.d, _sealed(np.zeros(p.grid.shape)))
    return out


def gauge_field_adjoint(fam: GaugeFamilyD, q: FieldD, k: int) -> FieldD:
    """Summation-by-parts transpose: q*a0 - sum_j d/dx_j (q * a_j)."""
    out = _gauge_sum(fam.a[k], lambda i, c: _times(c, q) if i == 0 else -partial_delta(_times(c, q), i - 1))
    if out is None:
        return FieldD(q.grid, (0,) * q.grid.d, _sealed(np.zeros(q.grid.shape)))
    return out


def gauge_pairing(fam: GaugeFamilyD, p: FieldD, q: FieldD, k: int) -> tuple[float, float]:
    """Both sides of the adjoint relation:
    integral of q * (shifted-pattern gauge term of p) versus
    integral of adjoint(q) * p^sigma.  They agree when p vanishes near the
    fence."""
    lhs_field = _gauge_sum(
        fam.a[k],
        lambda i, c: _times(c, shift_all(p) if i == 0 else shift_all_except(partial_delta(p, i - 1), i - 1)),
    )
    if lhs_field is None:
        return 0.0, 0.0
    lhs = multi_integral(q * lhs_field)
    rhs = multi_integral(gauge_field_adjoint(fam, q, k) * shift_all(p))
    return lhs, rhs


def transform_d(fam: GaugeFamilyD, p: FieldD, u: tuple) -> tuple:
    if len(u) != fam.n:
        raise ValueError("component count mismatch")
    return tuple(u_k + gauge_field(fam, p, k) for k, u_k in enumerate(u))


def random_polynomial_field(grid: GridD, seed, degree: int = 2, amplitude: float = 1.0) -> FieldD:
    """Seeded separable polynomial samples scaled to the given sup amplitude.

    The coefficients are one draw of shape (3, d, degree + 1): term, axis,
    power.  Each axis evaluates its three polynomials in one polyval call.
    Each of the three terms is the product of one polynomial per axis,
    multiplied out axis by axis, ((a0*a1)*a2)*a3, by broadcasting; only the
    last product has the grid's size, and it reuses one buffer.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, (3, grid.d, degree + 1))
    factors = []
    for ax, s in enumerate(grid.scales):
        t = s.points
        shape = [3] + [1] * grid.d
        shape[1 + ax] = t.size
        axis_vals = np.polynomial.polynomial.polyval(t / max(np.max(np.abs(t)), 1.0), coeffs[:, ax].T)
        factors.append(axis_vals.reshape(shape))
    vals = np.zeros(grid.shape)
    term = np.empty(grid.shape)
    for i in range(3):
        np.multiply(reduce(np.multiply, [f[i] for f in factors[:-1]]), factors[-1][i], out=term)
        vals += term
    peak = np.max(np.abs(vals, out=term))
    if peak > 0:
        vals *= amplitude / peak
    return FieldD(grid, (0,) * grid.d, _sealed(vals))


def check_invariance_d(
    L: LagrangianD,
    fam: GaugeFamilyD,
    u: tuple,
    trials: int = 20,
    seed: int = 0,
    tolerance: float = 1e-12,
) -> ResidualReport:
    """Functional deviation under seeded random polynomial parameters of
    sup 0.1."""
    base = functional_d(L, u)

    def pair(trial: int) -> tuple[float, float]:
        p = random_polynomial_field(fam.grid, seed=[seed, trial], amplitude=0.1)
        return base, functional_d(L, transform_d(fam, p, u))

    return ResidualReport.from_trials((0, trials - 1), trials, pair, tolerance)


def noether_identity_d(
    L: LagrangianD, fam: GaugeFamilyD, u: tuple, tolerance: float = 1e-9
) -> ResidualReport:
    """Residual of sum_k adjoint_k(E_k) on the largest interior window."""
    if fam.n != L.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the density n = {L.n}")
    es = el_expressions_d(L, u)
    total = reduce(add, (gauge_field_adjoint(fam, es[k], k) for k in range(fam.n)))
    return ResidualReport.from_per_point((total.lo[0], total.hi[0]), total.values, tolerance)


def double_fundamental_oracle(M: FieldD, tolerance: float = 1e-12) -> tuple[float, float, bool]:
    """Impulse form of the double fundamental lemma on the field's window.

    Pairs M against eta^sigma for every unit impulse eta placed at a point
    whose sigma-preimage is a base cell, by actually evaluating the double
    integral.  Returns (max |pairing|, sup |M| on the base cells, flag that
    both vanish or neither does).
    """
    grid = M.grid
    lo = M.lo
    hi = tuple(min(h, n - 2) for h, n in zip(M.hi, grid.shape))
    if any(h < l for l, h in zip(lo, hi)):
        raise ValueError("no base cells in the window")
    max_integral = 0.0
    for cell in np.ndindex(*(h - l + 1 for l, h in zip(lo, hi))):
        spike = np.zeros(grid.shape)
        spike[tuple(c + l + 1 for c, l in zip(cell, lo))] = 1.0
        eta_sigma = shift_all(FieldD(grid, (0,) * grid.d, spike))
        max_integral = max(max_integral, abs(multi_integral(M * eta_sigma)))
    sup_m = float(np.max(np.abs(M.restrict(lo, hi).values)))
    consistent = (max_integral <= tolerance) == (sup_m <= tolerance)
    return max_integral, sup_m, consistent


# Built-in 2-d densities and gauge families selectable by name from the
# command line.

def _zero_d_u(coords, U, G):
    return np.zeros_like(U)


def catalog2d(name: str) -> LagrangianD:
    """Named 2-d densities: curl2 (1/2 (g_01 - g_10)^2, two components) and
    dirichlet2 (1/2 |grad u|^2, one component)."""
    if name == "curl2":
        def density(coords, U, G):
            return 0.5 * (G[0][1] - G[1][0]) ** 2

        def d_g(coords, U, G):
            out = np.zeros_like(G)
            F = G[0][1] - G[1][0]
            out[0][1] = F
            out[1][0] = -F
            return out

        return LagrangianD(d=2, n=2, density=density, d_u=_zero_d_u, d_g=d_g)
    if name == "dirichlet2":
        def density(coords, U, G):
            return 0.5 * (G[0][0] ** 2 + G[1][0] ** 2)

        def d_g(coords, U, G):
            return G.copy()

        return LagrangianD(d=2, n=1, density=density, d_u=_zero_d_u, d_g=d_g)
    raise ValueError(f"unknown 2-d Lagrangian {name!r}")


def builtin_family2d(name: str, grid: GridD) -> GaugeFamilyD | None:
    """grad2 adds the axis-j quotient of the parameter to component j;
    grad2-broken scales the axis-0 term by 1.1.  None for other names."""
    if name == "grad2":
        return GaugeFamilyD(grid, [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    if name == "grad2-broken":
        return GaugeFamilyD(grid, [(0.0, 1.1, 0.0), (0.0, 0.0, 1.0)])
    return None
