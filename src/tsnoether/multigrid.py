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
from itertools import accumulate
from math import prod
from operator import add
from typing import Callable

import numpy as np

from .report import IDENTITY_TOLERANCE, INVARIANCE_TOLERANCE, PROBE_AMPLITUDE, ResidualReport
from .timescale import MAX_POINTS, _Arithmetic, _frozen, _overlap, _quotient, _sealed, shift_values, window_integral
from .variational import _el_values


@dataclass(frozen=True, eq=False)
class GridD:
    """A d-dimensional rectangle built from one time scale per axis, of at
    most MAX_POINTS points in all, refused before any field is drawn on it.
    It owns the pattern workspace of the actions on it (see _pattern_args), which
    lives and dies with the grid and which any action on the grid rewrites,
    so one grid is not used from two threads at once: G, with U for a density
    that reads it and else one scratch cell array, n + d n or 1 + d n cell
    arrays.  After an Euler-Lagrange call its G may hold the g partial, not
    the pattern."""

    scales: tuple

    def __post_init__(self):
        scales = tuple(self.scales)
        if not 2 <= len(scales) <= 4:
            raise ValueError("supported dimensions are 2..4")
        points = prod(len(s) for s in scales)
        if points > MAX_POINTS:
            raise ValueError(f"the lattice would have {points} points, more than the limit of {MAX_POINTS}")
        object.__setattr__(self, "scales", scales)

    @property
    def d(self) -> int:
        return len(self.scales)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.scales)

    @cached_property
    def probe_points(self) -> np.ndarray:
        """Each axis's points over max(max |t|, 1), end to end: the probe's polyval argument."""
        return _sealed(np.concatenate([s.points / max(np.max(np.abs(s.points)), 1.0) for s in self.scales]))

    @cached_property
    def rho_divisors(self) -> tuple:
        """Per axis, None on unit steps, else 1.0 and the axis's gaps as a
        read-only C-order table of the grid's shape: _rho_quotient's divisor,
        whose leading corner serves a field at the scale minimum."""
        return tuple(
            None if s.unit_steps else _sealed(_table(np.concatenate(([1.0], np.diff(s.points))), ax, self.shape))
            for ax, s in enumerate(self.scales)
        )

    @cached_property
    def _workspace(self) -> list:  # _pattern_args's, empty until the first action
        return []

    def same_as(self, other: "GridD") -> bool:
        return self is other or (
            self.d == other.d and all(a.same_as(b) for a, b in zip(self.scales, other.scales))
        )


@dataclass(frozen=True, eq=False)
class FieldD(_Arithmetic):
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
            lo, (a, b) = _overlap((self.lo, self.values), (other.lo, other.values))
            return FieldD(self.grid, lo, _sealed(op(a, b)))
        return FieldD(self.grid, self.lo, _sealed(op(self.values, float(other))))

    def __neg__(self):
        # np.negative flips the sign of a NaN; multiplying by -1.0 does not.
        return FieldD(self.grid, self.lo, _sealed(-self.values))


def partial_delta(f: FieldD, axis: int) -> FieldD:
    """Forward difference quotient along one axis; its top index is lost."""
    return FieldD(f.grid, f.lo, _sealed(_partial(f.grid, f.lo, f.values, axis)))


def _partial(grid: GridD, lo: tuple, values: np.ndarray, axis: int) -> np.ndarray:
    """partial_delta's values for the samples values at lo, writeable."""
    if values.shape[axis] < 2:
        raise ValueError(f"window too small on axis {axis}")
    return _quotient(values, grid.scales[axis], lo[axis], axis)


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


def shift_all_except(f: FieldD, axis: int | None) -> FieldD:
    """Compose with sigma on every axis but `axis` (on all when it is None)."""
    out = f
    for ax in range(f.grid.d):
        if ax != axis:
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
    lo, (m, n) = _overlap((M.lo, M.values), (N.lo, N.values))
    lhs = multi_integral(partial_delta(FieldD(N.grid, lo, n), 0) - partial_delta(FieldD(M.grid, lo, m), 1))
    sx, sy = M.grid.scales
    bottom, top = window_integral((sx,), (lo[0],), m[:-1, [0, -1]])
    left, right = window_integral((sy,), (lo[1],), n[[0, -1], :-1].T)
    return float(abs(lhs - (bottom + right - top - left)))


@dataclass(frozen=True)
class LagrangianD:
    """Density L(coords, u, g) for a d-fold integral with n path components.

    u has one slot per component, g one slot per (axis, component) pair.
    All callables are vectorized over trailing cell axes: u is passed with
    shape (n, *cells) and g with shape (d, n, *cells); coords is a tuple of
    broadcastable coordinate arrays.  `sample` is the only caller of the
    callables, and a check that reads a partial the density lacks raises
    ValueError naming it.

    `g_slots`, a tuple of (j, k) pairs, names the gradient slots that the
    density and its partials read; None means every slot.  The pattern
    writes only those, and its other G slots hold NaN, so a density that
    reads one fails.  A g partial is taken as 0.0 outside them, the partial
    of a density that does not read them: el_expressions_d reads it in no
    other slot.  A g partial may return G itself, written over: its only
    reader, el_expressions_d, takes the u partial first and reads nothing
    of the pattern after it, and the next action on the grid writes the
    pattern again.

    A density whose u partial is this module's _zero_d_u (the
    field-strength densities and dirichlet2) reads no u slot: the pattern
    holds no U rows, and U is a read-only NaN broadcast of its shape, so a
    density or g partial that reads it anyway gets NaN, as from an
    undeclared G slot.
    """

    d: int
    n: int
    density: Callable
    d_u: Callable | None = None
    d_g: Callable | None = None
    g_slots: tuple | None = None

    def sample(self, which: str, coords, U, G) -> np.ndarray:
        """L ("L") or its partial ("u", "g") at the pattern (coords, U, G),
        broadcast to the cell shape U.shape[1:], to U.shape or to G.shape."""
        fn = {"L": self.density, "u": self.d_u, "g": self.d_g}[which]
        if fn is None:
            raise ValueError(f"the density has no {which!r} partial (d_{which})")
        shape = {"L": U.shape[1:], "u": U.shape, "g": G.shape}[which]
        return np.broadcast_to(np.asarray(fn(coords, U, G), dtype=float), shape)


def _table(mu: np.ndarray, axis: int, shape: tuple) -> np.ndarray:
    """mu along one axis, repeated over the others into a C-order array of
    shape: a divisor or weight that a ufunc reads in one contiguous pass, as
    it would pass the short runs of the broadcast mu through numpy's buffer."""
    return np.broadcast_to(mu.reshape((-1,) + (1,) * (len(shape) - axis - 1)), shape).copy()


def _pattern_workspace(L: LagrangianD, grid: GridD, lo: tuple, cells: tuple, key: tuple) -> list:
    """A new [U, G, key, coords, plan, gaps] workspace for _pattern_args."""
    d, cell_hi = grid.d, tuple(l + c - 1 for l, c in zip(lo, cells))
    coords, gaps = [], []
    for ax, s in enumerate(grid.scales):
        coords.append(s.points[lo[ax] : cell_hi[ax] + 1].reshape((1,) * ax + (-1,) + (1,) * (d - ax - 1)))
        gaps.append(None if s.unit_steps else _table(np.diff(s.points[lo[ax] : cell_hi[ax] + 2]), ax, cells))
    holds_u = L.d_u is not _zero_d_u
    G = np.empty((d, L.n) + cells)
    U = np.empty((L.n,) + cells) if holds_u else np.broadcast_to(np.nan, (L.n,) + cells)
    minuends = U if holds_u else (np.empty(cells),) * L.n
    up = (slice(1, None),) * d
    plan = []
    for k in range(L.n):
        written = []
        for j in range(d):
            if L.g_slots is None or (j, k) in L.g_slots:
                written.append((G[j, k], up[:j] + (slice(0, -1),) + up[j + 1 :], gaps[j]))
            else:
                G[j, k] = np.nan
        plan.append((minuends[k], up, tuple(written)))
    return [U, G, key, tuple(coords), tuple(plan), tuple(gaps)]


def _pattern_args(L: LagrangianD, u: tuple):
    """Shifted-argument slots on the base-cell window shared by all of them.

    The u slot carries sigma on every axis; gradient slot j carries the
    axis-j quotient with sigma on every other axis.  Each slot is written
    straight from the component's own values: U[k] is the all-sigma view,
    and G[j, k] the difference of that view and the one without sigma on
    axis j, divided by mu_j, element by element as forward_quotient does
    (and, like it, not divided on a scale of unit steps).  The second view
    is copied into the slot and subtracted there, and mu_j is a C-order
    table of the cell shape, as a ufunc would pass short strided or
    broadcast rows through numpy's buffer and a copy does not.  Only the G
    slots of L.g_slots are written; the others are NaN from the pair's
    making.  For a density that reads no U (see LagrangianD), one scratch
    cell array takes every component's all-sigma view in turn, just before
    that component's G slots, and U is NaN.

    The pair lives in the workspace of u[0].grid: [U, G, key, coords, plan,
    gaps], where the plan names per component the U[k] view (or the
    scratch) and, per written slot, the G[j, k] view, the source slice and
    the divisor, and gaps holds each axis's table (None on unit steps),
    returned last as window_integral's weights.  The key is the window's lo
    and cell shape, L.n, L.g_slots and whether U is held; when it matches,
    the call only copies, subtracts and divides, and when it does not, a
    new workspace is made and stored, so a reused pair gives the bits of a
    fresh one, NaN slots included.  No key holds the grid, so that
    refcounting frees the grid and its pair.
    """
    grid = u[0].grid
    if len(u) != L.n or L.d != grid.d:
        raise ValueError(f"component or dimension mismatch: the density has n = {L.n} on d = {L.d} axes,"
                         f" the fields n = {len(u)} on d = {grid.d}")
    if not all(f.grid.same_as(grid) for f in u):
        raise ValueError("components live on different grids")
    lo, views = _overlap(*((f.lo, f.values) for f in u))
    cells = tuple(n - 1 for n in views[0].shape)
    if 0 in cells:
        raise ValueError("window too small for the shifted argument pattern")
    key = (lo, cells, L.n, L.g_slots, L.d_u is not _zero_d_u)
    workspace = grid._workspace
    if not workspace or workspace[2] != key:
        workspace[:] = _pattern_workspace(L, grid, lo, cells, key)
    U, G, _, coords, plan, gaps = workspace
    for v, (U_k, up, written) in zip(views, plan):
        U_k[...] = v[up]
        for G_jk, src, mu in written:
            G_jk[...] = v[src]
            np.subtract(U_k, G_jk, out=G_jk)
            if mu is not None:
                G_jk /= mu
    return coords, U, G, lo, gaps


def functional_d(L: LagrangianD, u: tuple) -> float:
    """The d-fold delta integral of the density along the shifted pattern,
    weighted by the pattern's gap tables.  The density's result is summed
    before the call returns, so a result that is a view of the grid's G is
    never read after the next action rewrites it."""
    coords, U, G, lo, gaps = _pattern_args(L, u)
    return float(window_integral(u[0].grid.scales, lo, L.sample("L", coords, U, G)[..., None], gaps)[0])


def el_expressions_d(L: LagrangianD, u: tuple) -> tuple:
    """Euler-Lagrange expressions dL/du_k - sum_j d/dx_j (dL/dg_jk), one field
    per component, on the doubly shrunk interior; each is one array, taken
    by the assembly _el_values that the 1-D expressions share, over the
    declared slots (j, k) only.  P and Q are taken before the call returns,
    as for functional_d."""
    return _el_fields(L, u[0].grid, _pattern_args(L, u))


def _el_fields(L: LagrangianD, grid: GridD, pattern: tuple) -> tuple:
    """el_expressions_d on a pattern _pattern_args made, so that a caller
    may drop the fields first."""
    coords, U, G, lo, _ = pattern
    P, Q = L.sample("u", coords, U, G), L.sample("g", coords, U, G)
    axes = [None if L.g_slots is None else {j for j, c in L.g_slots if c == k} for k in range(L.n)]
    return tuple(FieldD(grid, lo, _sealed(_el_values(P[k], Q[:, k], grid.scales, lo, axes[k]))) for k in range(L.n))


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
            rows = tuple(tuple(row) for row in self.a)
            for k, row in enumerate(rows):
                for i, c in enumerate(row):
                    if isinstance(c, (bool, np.bool_, str, bytes)):  # float() takes True and "1"
                        raise ValueError(f"coefficient a[{k}][{i}] must be a number, got {c!r}")
            a = tuple(tuple(float(c) for c in row) for row in rows)
        except TypeError as exc:
            raise ValueError(f"the coefficient table must be rows of numbers: {exc}") from exc
        if not a or not a[0]:
            raise ValueError("empty coefficient table")
        for k, row in enumerate(a):
            if len(row) != self.grid.d + 1:
                raise ValueError(f"row {k} needs d + 1 = {self.grid.d + 1} coefficients, got {len(row)}")
            for i, c in enumerate(row):
                if not np.isfinite(c):
                    raise ValueError(f"coefficient a[{k}][{i}] is not finite: {c}")
        object.__setattr__(self, "a", a)

    @staticmethod
    def from_table(grid: GridD, table) -> "GaugeFamilyD":
        """The family of a d-D family-file table, {"a": rows}."""
        if not isinstance(table, dict) or "a" not in table:
            raise ValueError('a d-D family file needs an "a" coefficient table')
        return GaugeFamilyD(grid, table["a"])

    @property
    def n(self) -> int:
        return len(self.a)


def _gauge_sum(row, term, grid: GridD) -> tuple:
    """Sum of term(i, row[i]) over the coefficients that are not zero (of
    either sign), so that skipped terms do not shrink the window; the zero
    field on the whole grid if all are.  Terms and sum are _sum's pairs."""
    out = None
    for i, c in enumerate(row):
        if c != 0.0:
            out = term(i, c) if out is None else _sum(out, term(i, c))
    return ((0,) * grid.d, np.zeros(grid.shape)) if out is None else out


def _sum(a: tuple, b: tuple) -> tuple:
    """a + b for (lo, values) pairs whose values are writeable only when
    made for this sum: on one window, written over b's buffer or else a's
    (a stays the first operand); else a new array on the common window."""
    (lo, x), (lo_b, y) = a, b
    if lo == lo_b and x.shape == y.shape:
        for buf in (y, x):
            if buf.flags.writeable:
                return lo, np.add(x, y, out=buf)
    lo, (x, y) = _overlap(a, b)
    return lo, np.add(x, y)


def _times(c: float, term: tuple) -> tuple:
    """c times a _sum pair: the pair itself when c is 1.0, where the product
    changes no bit, else formed over its values when they are writeable."""
    lo, values = term
    if c == 1.0:
        return term
    return lo, np.multiply(values, c, out=values if values.flags.writeable else None)


def _field(grid: GridD, term: tuple) -> FieldD:
    """The field of a _sum pair, its values sealed."""
    lo, values = term
    return FieldD(grid, lo, _sealed(values))


def _rho_quotient(p: FieldD, axis: int) -> tuple:
    """shift_axis(partial_delta(p, axis), axis, -1) as a _sum pair.  On a
    window at the scale minimum, of C-ordered values, it is one new buffer
    of p's shape: the differences at the axis stride over the flat values,
    written after the first flat slab and right everywhere but where the
    axis index is 0, then off unit steps the unwritten head zeroed and the
    whole divided in one pass by 1.0 and the gaps (the leading corner of
    the grid's rho_divisors table, of p's shape: the table is constant off
    its axis), and slab 1 repeated over slab 0.  Above the minimum the
    shift is a view."""
    n = p.values.shape[axis]
    if p.lo[axis] or n < 2 or not p.values.flags.c_contiguous:
        f = shift_axis(partial_delta(p, axis), axis, -1)
        return f.lo, f.values
    before = (slice(None),) * axis
    out = np.empty(p.values.shape)
    src, step = p.values.ravel(), prod(p.values.shape[axis + 1 :])
    np.subtract(src[step:], src[:-step], out=out.ravel()[step:])
    if not p.grid.scales[axis].unit_steps:
        out.ravel()[:step] = 0.0
        out /= p.grid.rho_divisors[axis][tuple(map(slice, out.shape))]
    out[before + (slice(0, 1),)] = out[before + (slice(1, 2),)]
    return p.lo, out


def _gauge_values(fam: GaugeFamilyD, p: FieldD, k: int) -> tuple:
    """gauge_field as a _sum pair: each term and its coefficient formed in the
    term's own buffer, and the terms summed over one of theirs."""
    return _gauge_sum(fam.a[k], lambda i, c: _times(c, (p.lo, p.values) if i == 0 else _rho_quotient(p, i - 1)), p.grid)


def gauge_field(fam: GaugeFamilyD, p: FieldD, k: int) -> FieldD:
    """The perturbation of component k:
    a0*p + sum_j a_{j} * (dp/dx_j at the rho_j-shifted point).

    Zero coefficients contribute nothing and are skipped so they do not
    shrink the window.
    """
    return _field(p.grid, _gauge_values(fam, p, k))


def gauge_field_adjoint(fam: GaugeFamilyD, q: FieldD, k: int) -> FieldD:
    """Summation-by-parts transpose: q*a0 - sum_j d/dx_j (q * a_j).  Each
    axis term is negated in its quotient's own buffer."""

    def term(i, c):
        lo, qc = _times(c, (q.lo, q.values))
        if i == 0:
            return lo, qc
        out = _partial(q.grid, lo, qc, i - 1)
        return lo, np.negative(out, out=out)

    return _field(q.grid, _gauge_sum(fam.a[k], term, q.grid))


def gauge_pairing(fam: GaugeFamilyD, p: FieldD, q: FieldD, k: int) -> tuple[float, float]:
    """Both sides of summation by parts, <q, (G p)^sigma> = <G* q, p^sigma>:
    the integral of q times the gauge field of p with sigma on every axis
    versus the integral of the adjoint field of q times p^sigma.  They agree
    when p vanishes near the fence."""
    lhs = multi_integral(q * shift_all_except(gauge_field(fam, p, k), None))
    return lhs, multi_integral(gauge_field_adjoint(fam, q, k) * shift_all_except(p, None))


def _transformed(fam: GaugeFamilyD, p: FieldD, u_k: FieldD, k: int) -> FieldD:
    """u_k + gauge_field(fam, p, k), over the gauge term's own buffer when it
    has one on u_k's window; p and u_k are never written."""
    if not u_k.grid.same_as(p.grid):
        raise ValueError("fields live on different grids")
    return _field(u_k.grid, _sum((u_k.lo, u_k.values), _gauge_values(fam, p, k)))


def transform_d(fam: GaugeFamilyD, p: FieldD, u: tuple) -> tuple:
    if len(u) != fam.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the field n = {len(u)}")
    return tuple(_transformed(fam, p, u_k, k) for k, u_k in enumerate(u))


def random_polynomial_field(grid: GridD, seed, degree: int = 2, amplitude: float = 1.0) -> FieldD:
    """Seeded separable polynomial samples scaled to the given sup amplitude.

    The coefficients are one draw of shape (3, d, degree + 1): term, axis,
    power, evaluated on the grid's probe_points by polyval's own Horner
    steps, inline: the top coefficient plus x * 0 (which turns a -0.0 into
    +0.0, as polyval does), then c + t * x down the powers.  The sum
    ((0.0 + t0) + t1) + t2 of the terms ((a0*a1)*a2)*a3 is one einsum
    contraction of the leading axes' stacked products (heads, one broadcast
    product per leading axis, in that order) with the last axis's
    polynomials, adding k = 0, 1, 2 in order to +0.0 with each product and
    sum rounded.  It runs in rows of the last axis when that axis is the
    shorter, so that inner loops run over the long heads (factors commute
    bit for bit), written transposed into the grid's layout, and otherwise
    in that layout; either way it is scaled there.  The peak
    max(max x, -min x) is max |x| exactly.
    """
    coeffs = np.random.default_rng(seed).uniform(-1, 1, (3, grid.d, degree + 1))
    c, x = np.repeat(coeffs, grid.shape, axis=1), grid.probe_points
    table = c[..., -1] + x * 0
    for i in range(2, degree + 2):
        table = c[..., -i] + table * x
    heads, *axes, last = (table[:, e - n : e] for n, e in zip(grid.shape, accumulate(grid.shape)))
    for a in axes:
        heads = (heads[:, :, None] * a[:, None, :]).reshape(3, -1)
    vals = np.empty(grid.shape)
    flat = vals.reshape(len(heads[0]), -1)
    if flat.shape[1] < flat.shape[0]:
        np.einsum("ki,kj->ij", last, heads, out=flat.T)
    else:
        np.einsum("ki,kj->ij", heads, last, out=flat)
    peak = np.maximum(flat.max(), -flat.min())
    flat *= amplitude / peak if peak > 0 else 1.0
    return FieldD(grid, (0,) * grid.d, _sealed(vals))


def check_invariance_d(L: LagrangianD, fam: GaugeFamilyD, u: tuple, trials: int = 20, seed: int = 0) -> ResidualReport:
    """Functional deviation under seeded random polynomial parameters of
    sup PROBE_AMPLITUDE."""
    base = functional_d(L, u)

    def pair(trial: int) -> tuple[float, float]:
        p = random_polynomial_field(fam.grid, seed=[seed, trial], amplitude=PROBE_AMPLITUDE)
        return base, functional_d(L, transform_d(fam, p, u))

    return ResidualReport.from_trials((0, trials - 1), trials, pair, INVARIANCE_TOLERANCE)


def noether_identity_d(L: LagrangianD, fam: GaugeFamilyD, u: tuple) -> ResidualReport:
    """Residual of sum_k adjoint_k(E_k) on the largest interior window.  u
    is dropped once its pattern is written, before E is assembled, and each
    E_k as its adjoint term is added."""
    if fam.n != L.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the density n = {L.n}")
    grid, pattern = u[0].grid, _pattern_args(L, u)
    del u
    es = list(_el_fields(L, grid, pattern))
    total = reduce(add, (gauge_field_adjoint(fam, es.pop(0), k) for k in range(fam.n)))
    return ResidualReport.from_per_point((total.lo[0], total.hi[0]), total.values, IDENTITY_TOLERANCE)


def double_fundamental_oracle(M: FieldD) -> tuple[float, float, bool]:
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
        eta_sigma = shift_all_except(FieldD(grid, (0,) * grid.d, spike), None)
        max_integral = max(max_integral, abs(multi_integral(M * eta_sigma)))
    sup_m = float(np.max(np.abs(M.restrict(lo, hi).values)))
    integrals_vanish, m_vanishes = (value <= 1e-12 for value in (max_integral, sup_m))
    return max_integral, sup_m, integrals_vanish == m_vanishes


# The field-strength densities (curl2 and em) and the named 2-d densities.

def _zero_d_u(coords, U, G):
    return 0.0


def _field_strength_lagrangian(d: int, n: int, plus: tuple, minus: tuple = ()) -> LagrangianD:
    """Squared field strengths, which no gauge A_k + Delta_k p changes: the
    sum of 1/2 (G[j, k] - G[k, j])^2 over the pairs (j, k) of plus minus
    that over minus, formed in place term by term in pair order.  The first
    term starts the sum: adding it to 0.0 would change no bit.  The density
    reads no u slot, as its zero u partial tells the pattern, and of G only
    the slots of the pairs and their transposes, which it declares; no two
    pairs share a slot, so the g
    partial writes each slot once, over G, as 0.0 plus or minus the pair's
    difference, which it takes before it writes either slot of the pair."""

    def density(coords, U, G):
        out = F = None
        for accumulate, pairs in ((np.add, plus), (np.subtract, minus)):
            for j, k in pairs:
                F = np.subtract(G[j, k], G[k, j], out=F)
                np.multiply(F, F, out=F)
                F *= 0.5
                if out is None:
                    out, F = F, None
                else:
                    accumulate(out, F, out=out)
        return out

    def d_g(coords, U, G):
        for (first, second), pairs in (((np.add, np.subtract), plus), ((np.subtract, np.add), minus)):
            for j, k in pairs:
                F = np.subtract(G[j, k], G[k, j], out=G[j, k])
                second(0.0, F, out=G[k, j])
                first(0.0, F, out=F)
        return G

    slots = tuple(s for j, k in plus + minus for s in ((j, k), (k, j)))
    return LagrangianD(d=d, n=n, density=density, d_u=_zero_d_u, d_g=d_g, g_slots=slots)


def catalog2d(name: str) -> LagrangianD:
    """Named 2-d densities: curl2 (1/2 (g_01 - g_10)^2, two components, the
    magnetic term of em on two axes) and dirichlet2 (1/2 |grad u|^2, one
    component)."""
    if name == "curl2":
        return _field_strength_lagrangian(2, 2, ((0, 1),))
    if name == "dirichlet2":
        def density(coords, U, G):
            return 0.5 * (G[0][0] ** 2 + G[1][0] ** 2)

        def d_g(coords, U, G):
            return G

        return LagrangianD(d=2, n=1, density=density, d_u=_zero_d_u, d_g=d_g)
    raise ValueError(f"unknown 2-d Lagrangian {name!r}")
