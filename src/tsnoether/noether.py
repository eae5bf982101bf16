"""Gauge transformation families and the identities they force.

A family of order m with r parameter functions perturbs each path
component by

    sum_j  sum_{i=0..m}  g[j][k][i] * p_j^(sigma^(m-i-1), delta^i)

where the parameter p_j is first shifted (sigma^(m-i-1); the exponent -1
means rho) and then delta-differentiated i times.  An optional second
coefficient table f produces a time reparametrization of the same shape.

On scales with an affine jump law sigma(t) = b1*t + b0, invariance of the
action under such a family forces, for each j, a weighted dependency
among the Euler-Lagrange expressions:

    sum_k sum_i (-1)^i (1/b1)^(i(i+1)/2) ((g[j][k][i])^sigma E_k)^(delta^i) = 0

and, for a family that also moves time, an extra term of the same shape
pairing each nonzero f row with the time-component expression.  This
module evaluates those residuals, checks invariance numerically, and
provides the brute-force summation oracle for the weighted fundamental
lemma that underlies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .report import ResidualReport
from .timescale import (
    GridFunction,
    TimeScale,
    _frozen,
    _sealed,
    delta_derivative,
    explicit_scale,
    mixed,
    shift,
)
from .variational import (
    Lagrangian,
    el_expressions,
    eval_functional,
    second_el_expression,
    variation_pairing,
)


@dataclass(frozen=True, eq=False)
class GaugeFamily:
    """Coefficient tables for a gauge transformation family.

    g[j, k, i] holds the samples, on the family window starting at index lo
    of the scale ts, of the coefficient multiplying the i-th order term of
    parameter j in component k; the optional f[j, i] plays the same role for
    the time reparametrization.  The window is the interval the identity
    lives on.  Both tables are stored as read-only float arrays.
    """

    ts: TimeScale
    lo: int
    g: np.ndarray
    f: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 4 or 0 in g.shape:
            raise ValueError(f"g must be a nonempty [parameter][component][order][point] table, got shape {g.shape}")
        if self.lo < 0 or self.lo + g.shape[3] > len(self.ts):
            raise ValueError(f"the window of {g.shape[3]} points at {self.lo} does not fit inside the scale")
        object.__setattr__(self, "g", _frozen(g))
        if self.f is not None:
            f = np.asarray(self.f, dtype=float)
            want = (g.shape[0],) + g.shape[2:]
            if f.shape != want:
                raise ValueError(f"f must be a [parameter][order][point] table of shape {want}, got {f.shape}")
            object.__setattr__(self, "f", _frozen(f))

    @property
    def r(self) -> int:
        return self.g.shape[0]

    @property
    def n(self) -> int:
        return self.g.shape[1]

    @property
    def m(self) -> int:
        return self.g.shape[2] - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.lo + self.g.shape[3] - 1)

    @staticmethod
    def constant(
        ts: TimeScale,
        g,
        f=None,
    ) -> "GaugeFamily":
        """Build a family from nested constant tables g[j][k][i] (and f[j][i]),
        each entry held along the window [0, len(ts) - 1 - m]."""
        g = np.asarray(g, dtype=float)
        if g.ndim != 3:
            raise ValueError("g must be indexed [parameter][component][order]")
        _check_order(g.shape[2] - 1, ts, "")
        width = len(ts) - g.shape[2] + 1

        def along(table) -> np.ndarray:
            table = np.asarray(table, dtype=float)
            return np.broadcast_to(table[..., None], table.shape + (width,))

        return GaugeFamily(ts, 0, along(g), None if f is None else along(f))


def _check_order(m: int, ts: TimeScale, source: str) -> None:
    """Refuse a family order m that leaves no window on ts; source starts the message."""
    if m >= len(ts):
        raise ValueError(f"{source}a family of order m = {m} needs more than {m} points, the scale has {len(ts)}")


def _perturbation(fam: GaugeFamily, params: tuple, y: GridFunction) -> tuple[np.ndarray, np.ndarray | None]:
    """What the family adds on y's window: to the components, shape
    (points, n), and to the times, shape (points,) or None without f.

    params holds one scalar GridFunction per parameter.  Each term
    D[j, i] = p_j^(sigma^(m-i-1), delta^i) is taken once on the family
    window, and the g and f tables weight it with left-to-right sums, i
    inside and j outside.
    """
    if len(params) != fam.r:
        raise ValueError(f"family expects {fam.r} parameters")
    if any(p.n != 1 for p in params):
        raise ValueError("parameter functions are scalar")
    if y.n != fam.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the path n = {y.n}")
    lo, hi = fam.window
    if y.lo < lo or y.hi > hi:
        raise ValueError("family coefficients do not cover the path window")
    D = np.empty((fam.r, fam.m + 1, hi - lo + 1))
    for j, p in enumerate(params):
        for i in range(fam.m + 1):
            term = mixed(p, fam.m - i - 1, i)
            if term.lo > lo or term.hi < hi:
                raise ValueError("parameter window too small for the requested term")
            D[j, i] = term.values[lo - term.lo : hi - term.lo + 1, 0]
    rows = slice(y.lo - lo, y.hi - lo + 1)

    def weighted(table: np.ndarray) -> np.ndarray:
        sums = (reduce(add, (table[j, ..., i, :] * D[j, i] for i in range(fam.m + 1))) for j in range(fam.r))
        return reduce(add, sums)[..., rows]

    return weighted(fam.g).T, None if fam.f is None else weighted(fam.f)


def transform(fam: GaugeFamily, params: tuple, y: GridFunction):
    """Apply the family with one scalar parameter GridFunction per slot.

    Returns (None, ybar) without time coefficients.  With them, returns
    (alpha, ybar) where alpha holds the new times on y's window and ybar
    lives on the image scale alpha(points); alpha must come out strictly
    increasing.
    """
    dy, dt = _perturbation(fam, params, y)
    ybar_vals = _sealed(y.values + dy)
    if dt is None:
        return None, GridFunction(y.ts, y.lo, ybar_vals)
    alpha_vals = _sealed(y.ts.points[y.lo : y.hi + 1] + dt)
    if not np.all(np.diff(alpha_vals) > 0):
        raise ValueError("time reparametrization is not strictly increasing")
    alpha = GridFunction(y.ts, y.lo, alpha_vals)
    image = explicit_scale(alpha_vals)
    return alpha, GridFunction(image, 0, ybar_vals)


# Sup of each seeded probe parameter of the invariance checks.
PROBE_AMPLITUDE = 0.1


def random_gauge_params(fam: GaugeFamily, seed) -> tuple:
    """Seeded polynomial probes of degree m+2 scaled to sup PROBE_AMPLITUDE,
    defined on the whole scale: one scalar GridFunction per parameter, from
    one draw of (r, m+3) coefficients."""
    coeffs = np.random.default_rng(seed).uniform(-1, 1, (fam.r, fam.m + 3))
    vals = _sealed(np.polynomial.polynomial.polyval(fam.ts.points, coeffs.T))
    peaks = np.max(np.abs(vals), axis=1)
    return tuple(
        GridFunction(fam.ts, 0, _sealed(v * (PROBE_AMPLITUDE / peak)) if peak > 0 else v)
        for v, peak in zip(vals, peaks)
    )


def check_invariance(
    L: Lagrangian,
    fam: GaugeFamily,
    y: GridFunction,
    trials: int = 20,
    seed: int = 0,
    tolerance: float = 1e-12,
) -> ResidualReport:
    """Action deviation |action(y) - action(ybar)| over the seeded probes
    of random_gauge_params.

    The verdict tolerance is scaled by max(1, |action(y)|).  Families with
    time coefficients are evaluated on the image scale of each trial.
    """
    base = eval_functional(L, y)

    def pair(trial: int) -> tuple[float, float]:
        params = random_gauge_params(fam, seed=[seed, trial])
        return base, eval_functional(L, transform(fam, params, y)[1])

    return ResidualReport.from_trials(y.window, trials, pair, tolerance)


def necessary_condition_residual(
    L: Lagrangian, fam: GaugeFamily, y: GridFunction, params: tuple
) -> float:
    """Value of the first-variation pairing of the path with the family's
    perturbation; zero (to rounding) whenever the action is invariant."""
    return variation_pairing(L, y, GridFunction(y.ts, y.lo, _perturbation(fam, params, y)[0]))


def _require_condition_h(ts: TimeScale) -> float:
    if ts.condition_h is None:
        raise ValueError("this check needs a scale with an affine jump law sigma(t) = b1*t + b0")
    return ts.condition_h[0]


def noether_identity(
    L: Lagrangian, fam: GaugeFamily, y: GridFunction, tolerance: float = 1e-9
) -> list[ResidualReport]:
    """Per-parameter residual of the gauge dependency among the
    Euler-Lagrange expressions, on the largest window all terms share.

    A parameter whose f row is not all zero also gets the f-weighted
    time-component term; an all-zero row is skipped, not added as zeros,
    so such a family's residual is bitwise that of the family without f.
    """
    return _identity_reports(L, fam, y, tolerance)


def noether_identity_time(
    L: Lagrangian, fam: GaugeFamily, y: GridFunction, tolerance: float = 1e-9
) -> list[ResidualReport]:
    """noether_identity for a family that must have f coefficients."""
    if fam.f is None:
        raise ValueError("time variant needs a family with f coefficients")
    return _identity_reports(L, fam, y, tolerance)


def _identity_reports(L: Lagrangian, fam: GaugeFamily, y: GridFunction, tolerance: float) -> list[ResidualReport]:
    if fam.n != y.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the path n = {y.n}")
    b1 = _require_condition_h(y.ts)
    E = el_expressions(L, y)
    moves_time = [fam.f is not None and np.any(fam.f[j] != 0.0) for j in range(fam.r)]
    Es = second_el_expression(L, y) if any(moves_time) else None
    reports = []
    for j in range(fam.r):
        total = _identity_sum(fam, fam.g[j], E, b1)
        if moves_time[j]:
            total = total + _identity_sum(fam, fam.f[j][None], Es, b1)
        reports.append(ResidualReport.from_per_point(total.window, total.values, tolerance))
    return reports


def _identity_sum(fam: GaugeFamily, table: np.ndarray, E: GridFunction, b1: float) -> GridFunction:
    """The identity's terms for one parameter: table[k, i] pairs with E's
    component k at order i."""
    def term(k: int, i: int, row: np.ndarray) -> GridFunction:
        t = shift(GridFunction(fam.ts, fam.lo, row), 1) * E.component(k)
        return (-1.0) ** i * (1.0 / b1) ** ((i * (i + 1)) // 2) * (delta_derivative(t, i) if i else t)

    return reduce(add, (term(k, i, row) for k, rows in enumerate(table) for i, row in enumerate(rows)))


def second_el_via_reparametrization(L: Lagrangian, y: GridFunction) -> GridFunction:
    """Finite-difference oracle for the time-component expression.

    Time is adjoined as a path component s with s(t) = t and the density
    rescaled accordingly; the ordinary Euler-Lagrange expression of the s
    component, computed purely by finite differences, must match
    second_el_expression.
    """
    ts = y.ts
    pts = ts.points
    gaps = np.append(np.diff(pts), 0.0)

    def mu_of(t: float) -> float:
        i = int(np.searchsorted(pts, t))
        if i >= pts.size or abs(pts[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError("time not on the scale")
        return float(gaps[i])

    def density(t, U, V):
        return L.at("L", U[0] - mu_of(t) * V[0], U[1:], V[1:] / V[0]) * V[0]

    augmented = Lagrangian(n=L.n + 1, eval=density)
    s = GridFunction(ts, y.lo, pts[y.lo : y.hi + 1])
    z = GridFunction.stack([s, y])
    return el_expressions(augmented, z).component(0)


# Independent single-scale forms of the identity, used to cross-check the
# generic weights on uniform and geometric grids.  These work on raw sample
# arrays with their own difference quotients (constant-step division for
# uniform grids, (q-1)*t division for geometric ones).

def identity_lhs_h_calculus(L: Lagrangian, g_funcs, t: np.ndarray, y: np.ndarray, h: float, m: int) -> np.ndarray:
    """sum_k sum_i (-1)^i [g(t+h) * E_k]^(i-fold forward difference / h)."""
    y = np.atleast_2d(y.T).T
    E = _el_uniform(L, t, y, h)
    npts = E.shape[0]
    out = np.zeros(npts - m)
    for k in range(y.shape[1]):
        for i in range(m + 1):
            w = np.array([g_funcs[k][i](tv + h) for tv in t[:npts]]) * E[:, k]
            for _ in range(i):
                w = (w[1:] - w[:-1]) / h
            out += (-1.0) ** i * w[: npts - m]
    return out


def _el_uniform(L: Lagrangian, t: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    u = y[1:]
    v = (y[1:] - y[:-1]) / h
    pu = np.array([L.at("u", tv, uu, vv) for tv, uu, vv in zip(t[:-1], u, v)])
    pv = np.array([L.at("v", tv, uu, vv) for tv, uu, vv in zip(t[:-1], u, v)])
    return pu[:-1] - (pv[1:] - pv[:-1]) / h


def identity_lhs_q_calculus(L: Lagrangian, g_funcs, t: np.ndarray, y: np.ndarray, q: float, m: int) -> np.ndarray:
    """sum_k sum_i (-1)^i (1/q)^(i(i+1)/2) [g(q t) * E_k]^(i-fold q-difference)."""
    y = np.atleast_2d(y.T).T
    u = y[1:]
    v = (y[1:] - y[:-1]) / ((q - 1) * t[:-1])[:, None]
    pu = np.array([L.at("u", tv, uu, vv) for tv, uu, vv in zip(t[:-1], u, v)])
    pv = np.array([L.at("v", tv, uu, vv) for tv, uu, vv in zip(t[:-1], u, v)])
    E = pu[:-1] - (pv[1:] - pv[:-1]) / ((q - 1) * t[:-2])[:, None]
    npts = E.shape[0]
    out = np.zeros(npts - m)
    for k in range(y.shape[1]):
        for i in range(m + 1):
            w = np.array([g_funcs[k][i](q * tv) for tv in t[:npts]]) * E[:, k]
            tt = t[:npts]
            for _ in range(i):
                w = (w[1:] - w[:-1]) / ((q - 1) * tt[: w.size - 1])
                tt = tt[: w.size]
            out += (-1.0) ** i * (1.0 / q) ** (i * (i + 1) // 2) * w[: npts - m]
    return out


@dataclass(frozen=True)
class FundamentalLemmaReport:
    """Two-sided check of the weighted fundamental lemma on one instance.

    max_integral: largest |pairing integral| over the impulse basis of
    admissible variations.  conclusion_sup: sup of the weighted alternating
    derivative combination on the window those impulses can reach.
    verdict: both vanish.  consistent: the lemma's biconditional holds.
    """

    m: int
    domain: tuple[int, int]
    max_integral: float
    conclusion_sup: float
    integrals_vanish: bool
    conclusion_vanishes: bool
    verdict: bool
    consistent: bool


def fundamental_lemma_oracle(
    ts: TimeScale, fs, tolerance: float = 1e-10
) -> FundamentalLemmaReport:
    """Brute-force both directions of the weighted fundamental lemma.

    fs = [f_0 .. f_m].  The pairing integral sums
    mu(t) * sum_i f_i(t) * eta^(sigma^(m-i), delta^i)(t) over the integration
    window; every unit impulse eta honoring the boundary-vanishing pattern
    (first m and last m points pinned) spans the admissible variations.
    """
    m = len(fs) - 1
    if m < 0:
        raise ValueError("need at least f_0")
    b1 = _require_condition_h(ts)
    npts = len(ts)
    if npts < 2 * m + 1:
        raise ValueError(f"grid needs at least {2 * m + 1} points for order {m}")
    upper = npts - m if m >= 1 else npts - 1  # summand indices [0, upper-1]
    for f in fs:
        if f.lo > 0 or f.hi < upper - 1:
            raise ValueError("coefficient windows too small")

    free_lo = m if m >= 1 else 0
    free_hi = npts - m - 1 if m >= 1 else npts - 2
    mu = ts.mu_array()

    max_integral = 0.0
    for s in range(free_lo, free_hi + 1):
        eta = GridFunction(ts, 0, _impulse(npts, s))
        integrand = None
        for i, f in enumerate(fs):
            term = f * mixed(eta, m - i, i)
            integrand = term if integrand is None else integrand + term
        lo, hi = integrand.window
        if lo > 0 or hi < upper - 1:
            raise ValueError("variation terms do not cover the integration window")
        val = float(np.sum(mu[:upper] * integrand.values[0 - integrand.lo : upper - integrand.lo, 0]))
        max_integral = max(max_integral, abs(val))

    conclusion = None
    for i, f in enumerate(fs):
        term = f if i == 0 else delta_derivative(f, i)
        term = (-1.0) ** i * (1.0 / b1) ** ((i * (i - 1)) // 2) * term
        conclusion = term if conclusion is None else conclusion + term
    reach_hi = upper - 1 - m
    window = (0, min(conclusion.hi, reach_hi))
    sup = float(np.max(np.abs(conclusion.restrict(*window).values)))

    ints_ok = max_integral <= tolerance
    concl_ok = sup <= tolerance
    return FundamentalLemmaReport(
        m=m,
        domain=window,
        max_integral=max_integral,
        conclusion_sup=sup,
        integrals_vanish=ints_ok,
        conclusion_vanishes=concl_ok,
        verdict=ints_ok and concl_ok,
        consistent=ints_ok == concl_ok,
    )


def vanishing_coefficients(ts: TimeScale, m: int, rng) -> list[GridFunction]:
    """Coefficients f_0 .. f_m for fundamental_lemma_oracle whose weighted
    alternating combination vanishes: f_1 .. f_m are uniform draws on
    [-1, 1] from the numpy Generator rng, and f_0 is solved for."""
    if m < 0:
        raise ValueError(f"the order must be at least 0, got {m}")
    if len(ts) < 2 * m + 1:
        raise ValueError(f"order {m} needs a grid of at least {2 * m + 1} points, this one has {len(ts)}")
    b1 = _require_condition_h(ts)
    upper = len(ts) - m if m >= 1 else len(ts) - 1
    fs = [GridFunction(ts, 0, rng.uniform(-1, 1, upper)) for _ in range(m)]
    target = np.zeros(upper)
    for i, f in enumerate(fs, start=1):
        term = delta_derivative(f, i)
        w = (-1.0) ** i * (1.0 / b1) ** ((i * (i - 1)) // 2)
        target[: term.values.shape[0]] -= w * term.values[:, 0]
    return [GridFunction(ts, 0, target)] + fs


def _impulse(npts: int, at: int) -> np.ndarray:
    vals = np.zeros(npts)
    vals[at] = 1.0
    return vals
