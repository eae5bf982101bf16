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

from .report import IDENTITY_TOLERANCE, INVARIANCE_TOLERANCE, PROBE_AMPLITUDE, ResidualReport
from .timescale import (
    GridFunction,
    TimeScale,
    _frozen,
    _overlap,
    _sealed,
    delta_derivative,
    explicit_scale,
    mixed,
    read_csv,
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

    g[j, k, i] holds the samples, on the family window [0, width - 1] of the
    scale ts, of the coefficient multiplying the i-th order term of
    parameter j in component k; the optional f[j, i] plays the same role for
    the time reparametrization.  The window is the interval the identity
    lives on.  Both tables are stored as read-only float arrays; a table of
    constants from from_table is a broadcast of its [j, k, i] values, one
    value per entry with stride 0 along the points (_constant).
    """

    ts: TimeScale
    g: np.ndarray
    f: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 4 or 0 in g.shape:
            raise ValueError(f"g must be a nonempty [parameter][component][order][point] table, got shape {g.shape}")
        if g.shape[3] > len(self.ts):
            raise ValueError(f"the window of {g.shape[3]} points does not fit inside the scale of {len(self.ts)} points")
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
        return (0, self.g.shape[3] - 1)

    @staticmethod
    def from_table(ts: TimeScale, table) -> "GaugeFamily":
        """The family of a family-file table (integers r, n >= 1 and m >= 0,
        g[j][k] and an optional f[j], each a list of m + 1 _coeff_grid specs)
        on the window [0, len(ts) - 1 - m]."""
        missing = [key for key in ("r", "m", "n", "g") if not isinstance(table, dict) or key not in table]
        if missing:
            raise ValueError(f"a family file needs r, m, n and g; missing: {', '.join(missing)}")
        if not all(type(table[key]) is int and table[key] >= 0 for key in "rmn"):
            raise ValueError(f"r, m and n must be non-negative integers, got {[table[k] for k in 'rmn']}")
        r, m, n = table["r"], table["m"], table["n"]
        if r == 0 or n == 0:
            raise ValueError(f"r and n must be positive, got r = {r}, n = {n}")
        if m >= len(ts):
            raise ValueError(f"a family of order m = {m} needs more than {m} points, the scale has {len(ts)}")
        hi = len(ts) - 1 - m

        def row(spec, name: str) -> list:
            """The m + 1 coefficients of one g[j][k] or f[j] entry."""
            if not isinstance(spec, list) or len(spec) != m + 1:
                raise ValueError(f"{name} must be a list of m + 1 = {m + 1} coefficient specs, got {spec!r}")
            return [_coeff_grid(ts, c, hi, f"{name}[{i}]") for i, c in enumerate(spec)]

        g = table["g"]
        if not isinstance(g, list) or len(g) != r or any(not isinstance(comp, list) or len(comp) != n for comp in g):
            raise ValueError(f"g must be r = {r} rows of n = {n} entries each")
        entries = [c for j in range(r) for k in range(n) for c in row(g[j][k], f"g[{j}][{k}]")]
        g = _coeff_table(entries, (r, n, m + 1), hi + 1)
        f = table.get("f")
        if f is not None and (not isinstance(f, list) or len(f) != r):
            raise ValueError(f"the f table needs one row per parameter (r = {r}), got {f!r}")
        f = None if f is None else _coeff_table([c for j in range(r) for c in row(f[j], f"f[{j}]")], (r, m + 1), hi + 1)
        return GaugeFamily(ts, g, f)

    @staticmethod
    def constant(ts: TimeScale, g, f=None) -> "GaugeFamily":
        """from_table of nested constant tables g[j][k][i] (and f[j][i]),
        with r, n and m + 1 the shape of g: each table is held as one value
        per entry (a broadcast along the window), and a non-finite entry is
        refused."""
        g = np.asarray(g, dtype=float)
        if g.ndim != 3:
            raise ValueError("g must be indexed [parameter][component][order]")
        r, n, width = g.shape
        f = None if f is None else np.asarray(f, dtype=float).tolist()
        return GaugeFamily.from_table(ts, {"r": r, "m": width - 1, "n": n, "g": g.tolist(), "f": f})


def _coeff_grid(ts: TimeScale, spec, hi: int, name: str) -> float | np.ndarray:
    """One family-table coefficient spec: a number as its float, or the
    samples on [0, hi] of {"poly": [c0, c1, ...]} or of {"csv": path} with
    one value column."""
    t = ts.points[: hi + 1]
    if type(spec) in (int, float):  # exact types: JSON true and false are bools, which are ints
        vals = float(spec)
    elif isinstance(spec, dict) and "poly" in spec:
        coeffs = spec["poly"]
        if not isinstance(coeffs, list) or not coeffs or not all(type(c) in (int, float) for c in coeffs):
            raise ValueError(f"coefficient {name}: \"poly\" must be a non-empty list of numbers, got {coeffs!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check below reports it
            vals = np.polynomial.polynomial.polyval(t, [float(c) for c in coeffs])
    elif isinstance(spec, dict) and "csv" in spec:
        if not isinstance(spec["csv"], str):
            raise ValueError(f"coefficient {name}: \"csv\" must be a file path, got {spec['csv']!r}")
        try:
            c = read_csv(ts, spec["csv"])
        except (ValueError, OSError) as exc:
            raise ValueError(f"coefficient {name}: {exc}") from None
        if c.lo > 0 or c.hi < hi:
            raise ValueError(f"coefficient {name}: the CSV covers [{c.lo}, {c.hi}], not the family window [0, {hi}]")
        if c.n != 1:
            raise ValueError(f"coefficient {name} must have one component")
        vals = c.values[: hi + 1, 0]
    else:
        raise ValueError(f"coefficient {name} must be a number, {{\"poly\": [...]}} or {{\"csv\": path}}, got {spec!r}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"coefficient {name} is not finite")
    return vals


def _coeff_table(entries: list, shape: tuple, width: int) -> np.ndarray:
    """The read-only table of shape + (width,) that holds, in C order, the
    entries of _coeff_grid for a family window of width points.  Where every
    entry is a float, the table is a broadcast of those floats along the
    window; otherwise each entry is sampled per point."""
    if all(isinstance(c, float) for c in entries):
        return np.broadcast_to(_sealed(np.array(entries)).reshape(shape + (1,)), shape + (width,))
    table = np.empty((len(entries), width))
    for samples, c in zip(table, entries):
        samples[...] = c
    return _sealed(table).reshape(shape + (width,))


def _constant(table: np.ndarray) -> bool:
    """Whether each row of a coefficient table holds one value: the table
    is a broadcast with stride 0 along the points, as _coeff_table stores a
    family of constants.  A kernel then reads row[..., 0] as a scalar, whose
    products have the bits of the products by the row."""
    return table.strides[-1] == 0


def _perturbation(fam: GaugeFamily, params: tuple, y: GridFunction) -> tuple[np.ndarray, np.ndarray | None]:
    """What the family adds on y's window: to the components, shape
    (points, n), and to the times, shape (points,) or None without f.

    params holds one scalar GridFunction per parameter.  Each term
    D[j][i] = p_j^(sigma^(m-i-1), delta^i) is taken once, must cover the
    family window, and is read on y's window, where the g and f tables
    weight it with left-to-right sums, i inside and j outside.  Each
    product is written points-first, so both results are new writeable
    C-order arrays: a table of constants writes one column per component,
    D[j][i] times its scalar (a copy of D[j][i] for 1.0), and a per-point
    table one transposed product.
    """
    if len(params) != fam.r:
        raise ValueError(f"family expects {fam.r} parameters")
    if any(p.n != 1 for p in params):
        raise ValueError("parameter functions are scalar")
    if y.n != fam.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the path n = {y.n}")
    hi = fam.window[1]
    if y.hi > hi:
        raise ValueError("family coefficients do not cover the path window")
    rows = slice(y.lo, y.hi + 1)
    D = [[] for _ in params]
    for p, terms in zip(params, D):
        for i in range(fam.m + 1):
            term = mixed(p, fam.m - i - 1, i)
            if term.lo > 0 or term.hi < hi:
                raise ValueError("parameter window too small for the requested term")
            terms.append(term.values[rows, 0])

    def weighted(table: np.ndarray) -> np.ndarray:
        def product(j: int, i: int) -> np.ndarray:
            out = np.empty((len(y.values),) + table.shape[1:-2])
            if not _constant(table):
                np.multiply(table[j, ..., i, rows], D[j][i], out=out.T)
                return out
            for column, c in zip(out.reshape(len(out), -1).T, table[j, ..., i, 0].reshape(-1).tolist()):
                if c == 1.0:  # a multiply by 1.0 changes no bit
                    column[...] = D[j][i]
                else:
                    np.multiply(D[j][i], c, out=column)
            return out

        sums = (reduce(add, (product(j, i) for i in range(fam.m + 1))) for j in range(fam.r))
        return reduce(add, sums)

    return weighted(fam.g), None if fam.f is None else weighted(fam.f)


def transform(fam: GaugeFamily, params: tuple, y: GridFunction):
    """Apply the family with one scalar parameter GridFunction per slot.

    Returns (None, ybar) without time coefficients.  With them, returns
    (alpha, ybar) where alpha holds the new times on y's window and ybar
    lives on the image scale alpha(points); alpha must come out strictly
    increasing.
    """
    dy, dt = _perturbation(fam, params, y)
    ybar_vals = _sealed(np.add(y.values, dy, out=dy))
    if dt is None:
        return None, GridFunction(y.ts, y.lo, ybar_vals)
    alpha_vals = _sealed(np.add(y.ts.points[y.lo : y.hi + 1], dt, out=dt))
    if not np.all(np.diff(alpha_vals) > 0):
        raise ValueError("time reparametrization is not strictly increasing")
    alpha = GridFunction(y.ts, y.lo, alpha_vals)
    image = explicit_scale(alpha_vals)
    return alpha, GridFunction(image, 0, ybar_vals)


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
    L: Lagrangian, fam: GaugeFamily, y: GridFunction, trials: int = 20, seed: int = 0
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

    return ResidualReport.from_trials(y.window, trials, pair, INVARIANCE_TOLERANCE)


def necessary_condition_residual(
    L: Lagrangian, fam: GaugeFamily, y: GridFunction, params: tuple
) -> float:
    """Value of the first-variation pairing of the path with the family's
    perturbation; zero (to rounding) whenever the action is invariant."""
    return variation_pairing(L, y, GridFunction(y.ts, y.lo, _sealed(_perturbation(fam, params, y)[0])))


def _require_condition_h(ts: TimeScale) -> float:
    if ts.condition_h is None:
        raise ValueError("this check needs a scale with an affine jump law sigma(t) = b1*t + b0")
    return ts.condition_h[0]


def noether_identity(L: Lagrangian, fam: GaugeFamily, y: GridFunction) -> list[ResidualReport]:
    """Per-parameter residual of the gauge dependency among the
    Euler-Lagrange expressions, on the largest window all terms share.

    A parameter whose f row is not all zero also gets the f-weighted
    time-component term; an all-zero row is skipped, not added as zeros,
    so such a family's residual is bitwise that of the family without f.
    """
    return _identity_reports(L, fam, y)


def noether_identity_time(L: Lagrangian, fam: GaugeFamily, y: GridFunction) -> list[ResidualReport]:
    """noether_identity for a family that must have f coefficients."""
    if fam.f is None:
        raise ValueError("time variant needs a family with f coefficients")
    return _identity_reports(L, fam, y)


def _identity_reports(L: Lagrangian, fam: GaugeFamily, y: GridFunction) -> list[ResidualReport]:
    if fam.n != y.n:
        raise ValueError(f"component count mismatch: the family has n = {fam.n}, the path n = {y.n}")
    if not fam.ts.same_as(y.ts):
        raise ValueError("grid functions live on different scales")
    b1 = _require_condition_h(y.ts)
    E = el_expressions(L, y)
    f = fam.f if fam.f is None or not _constant(fam.f) else fam.f[..., :1]
    moves_time = [f is not None and np.any(f[j] != 0.0) for j in range(fam.r)]
    Es = second_el_expression(L, y) if any(moves_time) else None
    reports = []
    for j in range(fam.r):
        total = _identity_sum(fam, fam.g[j], E, b1)
        if moves_time[j]:
            total = total + _identity_sum(fam, fam.f[j][None], Es, b1)
        reports.append(ResidualReport.from_per_point(total.window, total.values, IDENTITY_TOLERANCE))
    return reports


def _identity_sum(fam: GaugeFamily, table: np.ndarray, E: GridFunction, b1: float) -> GridFunction:
    """The identity's terms for one parameter: table[k, i] pairs with E's
    component k at order i.  A constant row c gives c * E_k, or E_k itself
    for 1.0, on the common window of E and the sigma-shifted row."""
    def term(k: int, i: int, row: np.ndarray) -> GridFunction:
        if _constant(row):
            (lo,), (_, e) = _overlap(((0,), row[1:]), ((E.lo,), E.values[:, k]))
            t = GridFunction(E.ts, lo, e if row[0] == 1.0 else _sealed(np.multiply(e, float(row[0]))))
        else:
            t = shift(GridFunction(fam.ts, 0, row), 1) * E.component(k)
        c = (-1.0) ** i * (1.0 / b1) ** ((i * (i + 1)) // 2)
        t = delta_derivative(t, i) if i else t
        return t if c == 1.0 else c * t  # a multiply by 1.0 changes no bit

    return reduce(add, (term(k, i, row) for k, rows in enumerate(table) for i, row in enumerate(rows)))


# The relative step of the oracle's central differences (_central_difference).
FD_STEP = 1e-6


def _central_difference(fn, args: tuple, slot: int) -> np.ndarray:
    """Central differences of fn(*args) in each column of the 2-D argument
    args[slot], shaped like it: the entries x of a column move together by
    +-h, h = FD_STEP * max(1, |x|) elementwise, and the quotient
    (fn(x + h) - fn(x - h)) / (2h) fills that column."""
    X = args[slot]
    out = np.empty(X.shape)
    for k in range(X.shape[1]):
        h = FD_STEP * np.maximum(1.0, np.abs(X[:, k]))
        values = []
        for step in (h, -h):
            moved = X.copy()
            moved[:, k] += step
            values.append(fn(*args[:slot], moved, *args[slot + 1 :]))
        out[:, k] = (values[0] - values[1]) / (2 * h)
    return out


def second_el_via_reparametrization(L: Lagrangian, y: GridFunction) -> GridFunction:
    """Finite-difference oracle for the time-component expression.

    Time is adjoined as a path component s with s(t) = t and the density
    rescaled accordingly; the ordinary Euler-Lagrange expression of the s
    component, with the augmented density's u and v partials taken by
    central differences of its values, must match second_el_expression.
    """
    pts = y.ts.points
    gaps = np.append(np.diff(pts), 0.0)

    def density(T, U, V):  # T is always the path's own scale points
        mu = gaps[np.searchsorted(pts, T)]
        return L.sample("L", U[:, 0] - mu * V[:, 0], U[:, 1:], V[:, 1:] / V[:, :1]) * V[:, 0]

    augmented = Lagrangian(
        n=L.n + 1,
        eval=density,
        d_u=lambda T, U, V: _central_difference(density, (T, U, V), 1),
        d_v=lambda T, U, V: _central_difference(density, (T, U, V), 2),
        vectorized=True,
    )
    z = GridFunction(y.ts, y.lo, _sealed(np.column_stack((pts[y.lo : y.hi + 1], y.values))))
    return el_expressions(augmented, z).component(0)


# An independent form of the identity under condition (H), sigma(t) = b1*t + b0,
# used to cross-check the generic weights.  It works on raw sample arrays with
# its own quotients by mu = (b1 - 1)*t + b0; with b1 = 1 (h-calculus) or b0 = 0
# (q-calculus) each operation rounds as in a form written for that case alone.

def _identity_lhs_affine(L: Lagrangian, g_funcs, t: np.ndarray, y: np.ndarray, b1: float, b0: float, m: int) -> np.ndarray:
    """sum_k sum_i (-1)^i (1/b1)^(i(i+1)/2) [g(b1 t + b0) * E_k]^(i-fold delta quotient)."""
    y = np.atleast_2d(y.T).T
    mu = (b1 - 1.0) * t + b0
    u = y[1:]
    v = (y[1:] - y[:-1]) / mu[:-1, None]
    pu, pv = L.sample("u", t[:-1], u, v), L.sample("v", t[:-1], u, v)
    E = pu[:-1] - (pv[1:] - pv[:-1]) / mu[:-2, None]
    npts = E.shape[0]
    out = np.zeros(npts - m)
    for k in range(y.shape[1]):
        for i in range(m + 1):
            w = np.array([g_funcs[k][i](b1 * tv + b0) for tv in t[:npts]]) * E[:, k]
            for _ in range(i):
                w = (w[1:] - w[:-1]) / mu[: w.size - 1]
            out += (-1.0) ** i * (1.0 / b1) ** (i * (i + 1) // 2) * w[: npts - m]
    return out


def identity_lhs_h_calculus(L: Lagrangian, g_funcs, t: np.ndarray, y: np.ndarray, h: float, m: int) -> np.ndarray:
    """sum_k sum_i (-1)^i [g(t+h) * E_k]^(i-fold forward difference / h)."""
    return _identity_lhs_affine(L, g_funcs, t, y, 1.0, h, m)


def identity_lhs_q_calculus(L: Lagrangian, g_funcs, t: np.ndarray, y: np.ndarray, q: float, m: int) -> np.ndarray:
    """sum_k sum_i (-1)^i (1/q)^(i(i+1)/2) [g(q t) * E_k]^(i-fold q-difference)."""
    return _identity_lhs_affine(L, g_funcs, t, y, q, 0.0, m)


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


def fundamental_lemma_oracle(ts: TimeScale, fs) -> FundamentalLemmaReport:
    """Brute-force both directions of the weighted fundamental lemma.

    fs = [f_0 .. f_m].  The pairing integral sums
    mu(t) * sum_i f_i(t) * eta^(sigma^(m-i), delta^i)(t) over the integration
    window; the unit impulses eta at indices m .. npts - max(m, 1) - 1 span the
    admissible variations (the boundary-vanishing pattern pins m points at
    each end, and the maximum, where mu = 0, is never a summand).
    """
    m = len(fs) - 1
    if m < 0:
        raise ValueError("need at least f_0")
    b1 = _require_condition_h(ts)
    npts = len(ts)
    if npts < 2 * m + 1:
        raise ValueError(f"grid needs at least {2 * m + 1} points for order {m}")
    upper = npts - max(m, 1)  # summand indices [0, upper-1]
    for f in fs:
        if f.lo > 0 or f.hi < upper - 1:
            raise ValueError("coefficient windows too small")

    mu = np.diff(ts.points)

    max_integral = 0.0
    for s in range(m, upper):
        eta = GridFunction(ts, 0, np.eye(1, npts, s)[0])
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

    ints_ok, concl_ok = (value <= 1e-10 for value in (max_integral, sup))
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
    upper = len(ts) - max(m, 1)
    fs = [GridFunction(ts, 0, rng.uniform(-1, 1, upper)) for _ in range(m)]
    target = np.zeros(upper)
    for i, f in enumerate(fs, start=1):
        term = delta_derivative(f, i)
        w = (-1.0) ** i * (1.0 / b1) ** ((i * (i - 1)) // 2)
        target[: term.values.shape[0]] -= w * term.values[:, 0]
    return [GridFunction(ts, 0, target)] + fs
