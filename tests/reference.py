"""Plain references for the kernels, one per layer.

Each is written in the operation order that its kernel's docstring states,
with no workspace, no fast path and no option: it divides by every gap and
multiplies by every coefficient (1.0 included), builds every window by
index, and reads a density through its sample method.  The tests pin each
kernel to its reference bit for bit.  Only the value classes, the density
and family classes and the report are imported, never a kernel pinned here.
"""

from dataclasses import replace
from functools import partial, reduce

import numpy as np

from tsnoether import FieldD, GaugeFamily, GridFunction, LagrangianD, ResidualReport
from tsnoether.report import IDENTITY_TOLERANCE, INVARIANCE_TOLERANCE
from tsnoether.variational import Lagrangian

# Relative step: each perturbed entry x moves by FD_STEP * max(1, |x|).
FD_STEP = 1e-6
# The probes' sup, report.PROBE_AMPLITUDE written out, so that the pins check its value.
PROBE_SUP = 0.1


def _axis(ndim, axis):
    """The reshape that lays a 1-D array along axis of an ndim array (trailing axes broadcast)."""
    return (-1,) + (1,) * (ndim - axis - 1)


# The shift and the quotient: timescale.shift_values and forward_quotient.

def shift(values, lo, ts, k, axis=0):
    """sigma^k (k > 0) or rho^|k| (k < 0) along one axis, index by index through ts.rho: (lo, values)."""

    def source(i):
        for _ in range(-k):
            i = ts.rho(i)
        return i + max(k, 0)

    hi = lo + values.shape[axis] - 1
    idx = [i for i in range(len(ts)) if lo <= source(i) <= hi]
    if not idx:
        raise ValueError("shift exhausts the window")
    return idx[0], np.stack([np.take(values, source(i) - lo, axis=axis) for i in idx], axis=axis)


def quotient(values, ts, lo, axis=0):
    """(v[i + 1] - v[i]) / (t[i + 1] - t[i]) along one axis of samples on the window at lo."""
    n = values.shape[axis] - 1
    if n < 1:
        raise ValueError(f"window too small on axis {axis}")
    gaps = ts.points[lo + 1 : lo + n + 1] - ts.points[lo : lo + n]
    diff = np.take(values, range(1, n + 1), axis=axis) - np.take(values, range(n), axis=axis)
    return diff / gaps.reshape(_axis(values.ndim, axis))


def field_shift(f, axis, k):
    """shift of a field along one axis, as a FieldD."""
    lo, values = shift(f.values, f.lo[axis], f.grid.scales[axis], k, axis)
    return FieldD(f.grid, f.lo[:axis] + (lo,) + f.lo[axis + 1 :], values)


def rho_quotient(p, axis):
    """multigrid._rho_quotient: the axis quotient of p, then rho on that axis."""
    return field_shift(FieldD(p.grid, p.lo, quotient(p.values, p.grid.scales[axis], p.lo[axis], axis)), axis, -1)


def sigma_all(f):
    """sigma on every axis of a field."""
    return reduce(lambda f, ax: field_shift(f, ax, 1), range(f.grid.d), f)


# The integral: timescale.window_integral, multi_integral and greens_residual.

def integral(scales, lo, values):
    """Per component (trailing axis), np.sum of a C-order copy of the cells
    below every scale maximum, multiplied by each axis's gaps in axis order."""
    hi = [min(l + n, len(s) - 1) for s, l, n in zip(scales, lo, values.shape)]
    w = values[tuple(slice(0, h - l) for l, h in zip(lo, hi))]
    for ax, (s, l, h) in enumerate(zip(scales, lo, hi)):
        w = w * (s.points[l + 1 : h + 1] - s.points[l:h]).reshape(_axis(values.ndim, ax))
    return np.array([np.sum(np.ascontiguousarray(w[..., c])) for c in range(values.shape[-1])])


def multi_integral(f):
    return float(integral(f.grid.scales, f.lo, f.values[..., None])[0])


def greens_residual(M, N):
    """|double integral of (dN/dx - dM/dy) - the fence sums| on the common window."""
    lo, (m, n) = overlap((M.lo, M.values), (N.lo, N.values))
    sx, sy = M.grid.scales
    dn, dm = quotient(n, sx, lo[0], 0), quotient(m, sy, lo[1], 1)
    lhs = multi_integral(binary(FieldD(M.grid, lo, dn), FieldD(M.grid, lo, dm), np.subtract))
    bottom, top = (integral((sx,), (lo[0],), m[:-1, [c]])[0] for c in (0, -1))
    left, right = (integral((sy,), (lo[1],), n[[r], :-1].T)[0] for r in (0, -1))
    return float(abs(lhs - (bottom + right - top - left)))


# Window arithmetic: timescale._overlap and the _binary of both value classes.

def overlap(*parts):
    """The common window of (lo, values) pairs and each values cut to it."""
    lo = tuple(map(max, zip(*[l for l, _ in parts])))
    end = tuple(min(l[a] + v.shape[a] for l, v in parts) for a in range(len(lo)))
    if any(a >= b for a, b in zip(lo, end)):
        raise ValueError("windows do not overlap")
    return lo, [v[tuple(slice(a - la, b - la) for a, b, la in zip(lo, end, l))] for l, v in parts]


def binary(f, other, op):
    """f op other on the common window of two GridFunctions or two FieldDs, or f op float(other)."""
    one_d = isinstance(f, GridFunction)
    if not isinstance(other, type(f)):
        return type(f)(f.ts if one_d else f.grid, f.lo, op(f.values, float(other)))
    if not (f.ts.same_as(other.ts) if one_d else f.grid.same_as(other.grid)):
        raise ValueError("grid functions live on different scales" if one_d else "fields live on different grids")
    lo, (a, b) = overlap(((f.lo,) if one_d else f.lo, f.values), ((other.lo,) if one_d else other.lo, other.values))
    if one_d and a.shape[1] != b.shape[1] and 1 not in (a.shape[1], b.shape[1]):
        raise ValueError("component counts differ")
    return GridFunction(f.ts, lo[0], op(a, b)) if one_d else FieldD(f.grid, lo, op(a, b))


# The probe fields: multigrid.random_polynomial_field and noether.random_gauge_params.

def scaled(vals, amplitude):
    """vals times amplitude / max |vals|, unless that is 0."""
    peak = np.max(np.abs(vals))
    return vals * (amplitude / peak) if peak > 0 else vals


def random_polynomial_field(grid, seed, degree=2, amplitude=1.0):
    """((0.0 + t0) + t1) + t2 of the terms ((a0*a1)*a2)*a3, each a_ax one polyval of the draw's
    (term, axis) row at the axis's points over max(max |t|, 1), then scaled to sup amplitude."""
    coeffs = np.random.default_rng(seed).uniform(-1, 1, (3, grid.d, degree + 1))
    vals = np.zeros(grid.shape)
    for term in coeffs:
        factors = (np.polynomial.polynomial.polyval(s.points / max(np.max(np.abs(s.points)), 1.0), c)
                   for s, c in zip(grid.scales, term))
        vals = vals + reduce(np.multiply, (a.reshape(_axis(grid.d, ax)) for ax, a in enumerate(factors)))
    return FieldD(grid, (0,) * grid.d, scaled(vals, amplitude))


def random_gauge_params(fam, seed):
    """One polyval of degree m + 2 per parameter at the scale's points, from
    one (r, m + 3) draw, each scaled to sup PROBE_SUP."""
    coeffs = np.random.default_rng(seed).uniform(-1, 1, (fam.r, fam.m + 3))
    return tuple(GridFunction(fam.ts, 0, scaled(np.polynomial.polynomial.polyval(fam.ts.points, c), PROBE_SUP))
                 for c in coeffs)


def seeded_path(seed, ts, n, hi):
    """cli._load_path's path: per component a cubic, drawn at once from
    [seed, 97], at the points over max(1, max |t|), on [0, hi]."""
    t = ts.points[: hi + 1] / max(1.0, np.max(np.abs(ts.points)))
    coeffs = np.random.default_rng([seed, 97]).uniform(-1, 1, (n, 4))
    return np.column_stack([np.polynomial.polynomial.polyval(t, c) for c in coeffs])


# The pattern, the action and the Euler-Lagrange expressions E, 1-D and d-D.

def pattern(L, u):
    """(coords, U, G, lo) on the common window's base cells: U[k] is u_k with sigma on every axis,
    G[j, k] its axis-j quotient with sigma on every other axis, NaN in a slot L does not declare."""
    grid, d = u[0].grid, u[0].grid.d
    lo, views = overlap(*((f.lo, f.values) for f in u))
    cells = tuple(n - 1 for n in views[0].shape)
    if 0 in cells:
        raise ValueError("window too small for the shifted argument pattern")
    U = np.stack([v[(slice(1, None),) * d] for v in views])
    G = np.full((d, L.n) + cells, np.nan)
    for j, k in np.ndindex(d, L.n):
        if L.g_slots is None or (j, k) in L.g_slots:
            q = quotient(views[k], grid.scales[j], lo[j], j)
            G[j, k] = q[tuple(slice(0 if a == j else 1, None) for a in range(d))]
    coords = tuple(s.points[l : l + c].reshape([c if a == ax else 1 for a in range(d)])
                   for ax, (s, l, c) in enumerate(zip(grid.scales, lo, cells)))
    return coords, U, G, lo


def functional_d(L, u):
    coords, U, G, lo = pattern(L, u)
    return float(integral(u[0].grid.scales, lo, L.sample("L", coords, U, G)[..., None])[0])


def el_values(P, Q, scales, lo):
    """P minus the axis-j quotient of every Q[j], in axis order, one entry
    fewer on each leading axis (a trailing component axis kept whole)."""
    d = len(scales)
    if any(n < 2 for n in P.shape[:d]):
        raise ValueError("window too small for the Euler-Lagrange expressions")
    e = P[(slice(0, -1),) * d]
    for j, (ts, l) in enumerate(zip(scales, lo)):
        e = e - quotient(Q[j], ts, l, j)[tuple(slice(None) if a == j else slice(0, -1) for a in range(d))]
    return e


def el_expressions_d(L, u):
    """The g partial taken as 0.0 outside the declared slots, where it may hold anything."""
    coords, U, G, lo = pattern(L, u)
    P, Q = L.sample("u", coords, U, G), np.array(L.sample("g", coords, U, G))
    for s in np.ndindex(Q.shape[:2]):
        if L.g_slots is not None and s not in L.g_slots:
            Q[s] = 0.0
    return tuple(FieldD(u[0].grid, lo, el_values(P[k], Q[:, k], u[0].grid.scales, lo)) for k in range(L.n))


def path_args(y):
    """Times, y(sigma(t)) and y_delta(t) on [lo, hi - 1]."""
    return y.ts.points[y.lo : y.hi], y.values[1:], quotient(y.values, y.ts, y.lo)


def el_expressions(L, y):
    T, U, V = path_args(y)
    return GridFunction(y.ts, y.lo, el_values(L.sample("u", T, U, V), L.sample("v", T, U, V)[None], (y.ts,), (y.lo,)))


def second_el_expression(L, y):
    """dL/dt - (L - sum_k v_k dL/dv_k - mu dL/dt)_delta."""
    T, U, V = path_args(y)
    lt, lv, lval = (L.sample(w, T, U, V).reshape(len(T), -1) for w in "tvL")
    mu = (y.ts.points[y.lo + 1 : y.hi + 1] - y.ts.points[y.lo : y.hi])[:, None]
    inner = lval - np.sum(V * lv, axis=1, keepdims=True) - mu * lt
    return GridFunction(y.ts, y.lo, el_values(lt, inner[None], (y.ts,), (y.lo,)))


# The field-strength densities: multigrid._field_strength_lagrangian.

ELECTRIC, MAGNETIC = ((1, 0), (2, 0), (3, 0)), ((2, 3), (3, 1), (1, 2))


def field_strength_lagrangian(d, plus, minus=()):
    """Sum over plus minus sum over minus of 1/2 F^2, F = G[j, k] - G[k, j], from the
    first term in pair order; d_g is 0.0 + F in (j, k), 0.0 - F in (k, j), swapped over minus."""
    pairs = [(1.0, p) for p in plus] + [(-1.0, p) for p in minus]

    def density(coords, U, G):
        terms = [(sign, 0.5 * ((G[j, k] - G[k, j]) * (G[j, k] - G[k, j]))) for sign, (j, k) in pairs]
        return reduce(lambda out, t: out + t[1] if t[0] > 0 else out - t[1], terms[1:], terms[0][1])

    def d_g(coords, U, G):
        out = np.zeros(G.shape)
        for sign, (j, k) in pairs:
            out[j, k] = 0.0 + sign * (G[j, k] - G[k, j])
            out[k, j] = 0.0 - sign * (G[j, k] - G[k, j])
        return out

    return LagrangianD(d=d, n=d, density=density, d_u=lambda c, U, G: np.zeros(U.shape), d_g=d_g,
                       g_slots=tuple(s for _, (j, k) in pairs for s in ((j, k), (k, j))))


# The gauge operators, the trial loops and the d-D identity.

def gauge_sum(row, term, grid):
    """term(i, c) summed left to right over the coefficients c != 0.0; the zero field if none."""
    terms = [term(i, c) for i, c in enumerate(row) if c != 0.0]
    zero = FieldD(grid, (0,) * grid.d, np.zeros(grid.shape))
    return reduce(partial(binary, op=np.add), terms) if terms else zero


def gauge_field(fam, p, k):
    """a0 p + sum_j a_j (the axis-j quotient of p at the rho_j-shifted point)."""
    return gauge_sum(fam.a[k], lambda i, c: binary(p if i == 0 else rho_quotient(p, i - 1), c, np.multiply), p.grid)


def gauge_field_adjoint(fam, q, k):
    """q a0 - sum_j (the axis-j quotient of q a_j)."""

    def term(i, c):
        qc = binary(q, c, np.multiply)
        return qc if i == 0 else FieldD(q.grid, q.lo, -quotient(qc.values, q.grid.scales[i - 1], q.lo[i - 1], i - 1))

    return gauge_sum(fam.a[k], term, q.grid)


def gauge_pairing(fam, p, q, k):
    lhs = multi_integral(binary(q, sigma_all(gauge_field(fam, p, k)), np.multiply))
    return lhs, multi_integral(binary(gauge_field_adjoint(fam, q, k), sigma_all(p), np.multiply))


def transform_d(fam, p, u):
    return tuple(binary(u_k, gauge_field(fam, p, k), np.add) for k, u_k in enumerate(u))


def invariance(L, fam, trials, draw):
    """The trial report of (S(u), S(transform_d(fam, p, u))) with (u, p) = draw(trial)."""

    def pair(trial):
        u, p = draw(trial)
        return functional_d(L, u), functional_d(L, transform_d(fam, p, u))

    return ResidualReport.from_trials((0, trials - 1), trials, pair, INVARIANCE_TOLERANCE)


def check_invariance_d(L, fam, u, trials, seed):
    return invariance(L, fam, trials, lambda t: (u, random_polynomial_field(fam.grid, [seed, t], amplitude=PROBE_SUP)))


def em_gauge_invariance(fam, trials, seed):
    """em's gauge section: trial t draws A (seeds [[seed, 1, t], k]) and p (seed [seed, 2, t]), and applies -p."""
    return invariance(field_strength_lagrangian(4, ELECTRIC, MAGNETIC), fam, trials, lambda t: (
        tuple(random_polynomial_field(fam.grid, [[seed, 1, t], k]) for k in range(4)),
        binary(random_polynomial_field(fam.grid, [seed, 2, t]), -1.0, np.multiply)))


def noether_identity_d(L, fam, u):
    es = el_expressions_d(L, u)
    total = reduce(partial(binary, op=np.add), (gauge_field_adjoint(fam, es[k], k) for k in range(fam.n)))
    return ResidualReport.from_per_point((total.lo[0], total.hi[0]), total.values, IDENTITY_TOLERANCE)


# The 1-D family: noether._perturbation, transform and the identity sums.

def constant_family(ts, g, f=None):
    """A family whose tables g[j][k][i] (and f[j][i]) are held along the window [0, len(ts) - 1 - m]."""
    width = len(ts) - np.shape(g)[2] + 1

    def along(table):
        return None if table is None else np.repeat(np.asarray(table, dtype=float)[..., None], width, axis=-1)

    return GaugeFamily(ts, along(g), along(f))


def perturbation(fam, params, y):
    """What the family adds on y's window, per component and to the times (or None): the sum over
    parameters j of the sums over orders i of the table entry times p_j^(sigma^(m-i-1), delta^i)."""
    hi, D = fam.window[1], [[] for _ in params]
    for p, row in zip(params, D):
        for i in range(fam.m + 1):
            lo, vals = shift(p.values, p.lo, p.ts, fam.m - i - 1)
            for _ in range(i):
                vals = quotient(vals, p.ts, lo)
            if lo > 0 or lo + len(vals) - 1 < hi:
                raise ValueError("parameter window too small for the requested term")
            row.append(vals[: hi + 1, 0])

    def weighted(table):  # table(j) holds the m + 1 rows of parameter j
        sums = (reduce(np.add, (table(j)[i] * D[j][i] for i in range(fam.m + 1))) for j in range(fam.r))
        return reduce(np.add, sums)[y.lo : y.hi + 1]

    dt = None if fam.f is None else weighted(lambda j: fam.f[j])
    return np.column_stack([weighted(lambda j: fam.g[j, k]) for k in range(fam.n)]), dt


def transform(fam, params, y):
    """(new times or None, new path values) on y's window."""
    dy, dt = perturbation(fam, params, y)
    alpha = None if dt is None else y.ts.points[y.lo : y.hi + 1] + dt
    if alpha is not None and not np.all(np.diff(alpha) > 0):
        raise ValueError("time reparametrization is not strictly increasing")
    return alpha, y.values + dy


def identity(L, fam, y):
    """Per parameter j, sum_k sum_i (-1)^i (1/b1)^(i(i+1)/2) ((g[j][k][i])^sigma E_k)^(delta^i), plus
    the same of f[j] with the time-component expression when f[j] is not all zero."""
    b1, add = y.ts.condition_h[0], partial(binary, op=np.add)

    def total(table, E):
        terms = []
        for k, i in np.ndindex(table.shape[:2]):
            t = binary(GridFunction(fam.ts, *shift(table[k, i], 0, fam.ts, 1)), GridFunction(E.ts, E.lo, E.values[:, k]), np.multiply)
            for _ in range(i):
                t = GridFunction(t.ts, t.lo, quotient(t.values, t.ts, t.lo))
            terms.append(binary(t, (-1.0) ** i * (1.0 / b1) ** ((i * (i + 1)) // 2), np.multiply))
        return reduce(add, terms)

    E = el_expressions(L, y)
    return [add(total(fam.g[j], E), total(fam.f[j][None], second_el_expression(L, y)))
            if fam.f is not None and np.any(fam.f[j] != 0.0) else total(fam.g[j], E) for j in range(fam.r)]


# The oracles' forms: the h- and q-forms, the reparametrization oracle and central differences.

def at(L, which, t, u, v):
    """L or a partial at one point, through a one-row sample."""
    row = L.sample(which, np.array([t], dtype=float), np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0]
    return float(row) if which in ("L", "t") else row


def identity_form(L, g_funcs, t, y, m, sigma, mu, b1):
    """The identity's form under the jump law sigma = b1 t + b0, with
    mu = (b1 - 1) t + b0: the h-form has b1 = 1, the q-form b0 = 0.  It
    reads L one point at a time."""
    y = np.atleast_2d(y.T).T
    u, v = y[1:], (y[1:] - y[:-1]) / mu[:-1, None]
    pu, pv = (np.array([at(L, w, *point) for point in zip(t[:-1], u, v)]) for w in "uv")
    E = pu[:-1] - (pv[1:] - pv[:-1]) / mu[:-2, None]
    npts = E.shape[0]
    out = np.zeros(npts - m)
    for k in range(y.shape[1]):
        for i in range(m + 1):
            w = np.array([g_funcs[k][i](s) for s in sigma[:npts]]) * E[:, k]
            for _ in range(i):
                w = (w[1:] - w[:-1]) / mu[: w.size - 1]
            out += (-1.0) ** i * (1.0 / b1) ** (i * (i + 1) // 2) * w[: npts - m]
    return out


def reparametrization(L, y):
    """E of the time component s(t) = t adjoined to the path, for the density
    L(s - mu s_delta, u, v / s_delta) s_delta read per point and differenced."""
    pts = y.ts.points
    gaps = np.append(np.diff(pts), 0.0)

    def density(t, U, V):
        return at(L, "L", U[0] - gaps[np.searchsorted(pts, t)] * V[0], U[1:], V[1:] / V[0]) * V[0]

    z = GridFunction(y.ts, y.lo, np.column_stack((pts[y.lo : y.hi + 1], y.values)))
    return el_expressions(differenced(Lagrangian(n=L.n + 1, eval=density)), z).values[:, 0]


def central_difference(fn, X, slots):
    """Per slot s (an index of X), (fn(X + h e_s) - fn(X - h e_s)) / (2h) with
    h = FD_STEP * max(1, |X[s]|) entrywise; 0.0 in the other slots."""
    out = np.zeros(X.shape)
    for s in slots:
        h = FD_STEP * np.maximum(1.0, np.abs(X[s]))
        up, down = X.copy(), X.copy()
        up[s] += h
        down[s] -= h
        out[s] = (fn(up) - fn(down)) / (2 * h)
    return out


def path_partial(L, which, T, U, V):
    """L's t, u or v partial by central differences of its values, one column at a time."""
    args, slot = [T, U, V], "tuv".index(which)
    shape = np.shape(args[slot])

    def values(X):
        return L.sample("L", *args[:slot], X.reshape(shape), *args[slot + 1 :])

    X = np.reshape(args[slot], (len(T), -1))
    return central_difference(values, X, [(slice(None), k) for k in range(X.shape[1])]).reshape(shape)


def differenced(L):
    """L with its t, u and v partials by path_partial, in L's own calling
    convention: per point, each is the one-row difference."""

    def one_point(which, t, u, v):
        row = path_partial(L, which, np.array([t], dtype=float), np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0]
        return float(row) if which == "t" else row

    return replace(L, **{f"d_{w}": partial(path_partial, L, w) if L.vectorized else partial(one_point, w) for w in "tuv"})


def differenced_d(L):
    """A LagrangianD with its u and g partials by central differences of its
    density, the g partial in the declared slots only (every slot for None)."""
    g_slots = list(np.ndindex(L.d, L.n)) if L.g_slots is None else L.g_slots
    return replace(L, d_u=lambda c, U, G: central_difference(lambda X: L.density(c, X, G), U, range(L.n)),
                   d_g=lambda c, U, G: central_difference(lambda X: L.density(c, U, X), G, g_slots))
