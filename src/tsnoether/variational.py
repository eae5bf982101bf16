"""Single-integral variational calculus on a finite time scale.

The action of a Lagrangian L(t, u, v) over a path y is the delta integral
of L(t, y(sigma(t)), y_delta(t)).  This module evaluates that action, its
first variation, the Euler-Lagrange expressions (both kinds), and solves
discrete Euler-Lagrange boundary value problems by damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import ResidualReport
from .timescale import GridFunction, TimeScale, delta_derivative, delta_integral, shift, window_integral


class ConvergenceError(RuntimeError):
    """Newton failed; carries the final residual sup-norm and the iteration
    history, one (residual sup after the step, damping scale) per Newton
    iteration.  An iteration whose Jacobian was singular took no step and
    records its residual with scale 0.0."""

    def __init__(self, message: str, final_residual: float, history=()):
        super().__init__(message)
        self.final_residual = final_residual
        self.history = list(history)


@dataclass(frozen=True)
class Lagrangian:
    """An evaluable density L(t, u, v) with u, v in R^n.

    Per point (vectorized=False), each callable takes (t, u[n], v[n]) and
    returns a float (eval, d_t) or an n-vector (d_u, d_v).  Vectorized, it
    takes a whole path (t[N], U[N, n], V[N, n]) and returns (N,) or (N, n).
    `sample` is the only caller of the callables in either convention.
    Analytic partials are optional; central finite differences with a step
    of fd_step * max(1, |value|) fill in for any that are missing.
    """

    n: int
    eval: Callable
    d_t: Callable | None = None
    d_u: Callable | None = None
    d_v: Callable | None = None
    fd_step: float = 1e-6
    vectorized: bool = False

    def sample(self, which: str, T: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """L ("L") or its partial ("t", "u", "v") at the points (T[i], U[i], V[i]):
        shape (N,) for "L" and "t", (N, n) for "u" and "v"."""
        fn = {"L": self.eval, "t": self.d_t, "u": self.d_u, "v": self.d_v}[which]
        if fn is None:
            return self._central_difference(which, T, U, V)
        if self.vectorized:
            out = np.asarray(fn(T, U, V), dtype=float)
        else:
            out = np.array([fn(t, u, v) for t, u, v in zip(T, U, V)], dtype=float)
        return out.reshape(len(T), -1) if which in ("u", "v") else out.reshape(len(T))

    def _central_difference(self, which: str, T: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Central differences of L in the slot of `which`, one column at a time."""
        args = [T, U, V]
        slot = "tuv".index(which)
        shape = args[slot].shape
        X = np.reshape(args[slot], (len(T), -1))
        out = np.empty(X.shape)
        for k in range(X.shape[1]):
            h = self.fd_step * np.maximum(1.0, np.abs(X[:, k]))
            Xp, Xm = X.copy(), X.copy()
            Xp[:, k] += h
            Xm[:, k] -= h
            args[slot] = Xp.reshape(shape)
            fp = self.sample("L", *args)
            args[slot] = Xm.reshape(shape)
            out[:, k] = (fp - self.sample("L", *args)) / (2 * h)
        return out.reshape(shape)

    def at(self, which: str, t: float, u, v):
        """One point of `sample`: a float for "L" and "t", an n-vector for
        "u" and "v".  The per-point oracles read the density through this."""
        row = self.sample(which, np.array([t], dtype=float), np.reshape(u, (1, -1)), np.reshape(v, (1, -1)))[0]
        return float(row) if which in ("L", "t") else row

    def self_check(self, seed: int = 0, trials: int = 20, rtol: float = 1e-6) -> float:
        """Worst relative gap between analytic partials and central differences
        on random probe points, all sampled in one call per partial.  Raises
        if it exceeds rtol."""
        probes = np.random.default_rng(seed).uniform(-2, 2, (trials, 1 + 2 * self.n))
        T, U, V = probes[:, 0], probes[:, 1 : 1 + self.n], probes[:, 1 + self.n :]
        worst = 0.0
        for which, fn in (("t", self.d_t), ("u", self.d_u), ("v", self.d_v)):
            if fn is not None:
                fd = self._central_difference(which, T, U, V)
                gap = np.abs(self.sample(which, T, U, V) - fd) / np.maximum(1.0, np.abs(fd))
                worst = max(worst, float(np.max(gap)))
        if worst > rtol:
            raise ValueError(f"analytic partials disagree with finite differences: {worst:.3e}")
        return worst


@dataclass(frozen=True)
class BoundaryData:
    """Endpoint values y(a) = alpha, y(b) = beta."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if a.shape != b.shape:
            raise ValueError("alpha and beta dimensions differ")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def _check_dims(L: Lagrangian, y: GridFunction) -> None:
    if y.n != L.n:
        raise ValueError(f"Lagrangian has n={L.n} but path has n={y.n} components")


def _path_args(y: GridFunction):
    """Times, y(sigma(t)) and y_delta(t) on [lo, hi-1]."""
    if y.hi - y.lo < 1:
        raise ValueError("path window too small")
    # sigma of each row in [lo, hi-1] is the next row.
    return y.ts.points[y.lo : y.hi], y.values[1:], delta_derivative(y, 1).values


def eval_functional(L: Lagrangian, y: GridFunction) -> float:
    """Delta integral of L(t, y(sigma(t)), y_delta(t)) over the path window."""
    _check_dims(L, y)
    ts, us, vs = _path_args(y)
    # Adding +0.0 makes an action of -0.0 terms +0.0 however np.sum starts.
    return float(window_integral((y.ts,), (y.lo,), L.sample("L", ts, us, vs)[:, None])[0] + 0.0)


def lagrangian_along(L: Lagrangian, y: GridFunction, *which: str):
    """Sample L ("L") or a partial ("t", "u", "v") along
    (t, y(sigma(t)), y_delta(t)) on [lo, hi-1]: one GridFunction per entry
    of which, all from one sample of the path arguments, and a tuple of
    them when there are several."""
    _check_dims(L, y)
    ts, us, vs = _path_args(y)
    out = tuple(GridFunction(y.ts, y.lo, L.sample(w, ts, us, vs)) for w in which)
    return out[0] if len(out) == 1 else out


def first_variation(L: Lagrangian, y: GridFunction, eta: GridFunction) -> float:
    """Directional derivative of the action at y along an admissible eta."""
    if np.any(eta.values[0] != 0) or np.any(eta.values[-1] != 0):
        raise ValueError("eta must vanish at both endpoints")
    return variation_pairing(L, y, eta)


def variation_pairing(L: Lagrangian, y: GridFunction, eta: GridFunction) -> float:
    """Delta integral of L_u . eta^sigma + L_v . eta^delta along y, for any
    eta on the path window (first_variation when eta vanishes at the ends)."""
    _check_dims(L, y)
    if eta.n != y.n or eta.lo != y.lo or eta.hi != y.hi:
        raise ValueError("eta must share the path window and component count")
    pu, pv = lagrangian_along(L, y, "u", "v")
    integrand = pu * shift(eta, 1) + pv * delta_derivative(eta, 1)
    return float(np.sum(delta_integral(integrand)))


def el_expressions(L: Lagrangian, y: GridFunction) -> GridFunction:
    """The n Euler-Lagrange expressions dL/du_k - (dL/dv_k)_delta along y.

    The outer delta derivative costs one more point, so the result lives
    on [lo, hi-2].
    """
    _check_dims(L, y)
    if y.hi - y.lo < 2:
        raise ValueError("need at least 3 points to form Euler-Lagrange expressions")
    pu, pv = lagrangian_along(L, y, "u", "v")
    return pu.restrict(pu.lo, pu.hi - 1) - delta_derivative(pv, 1)


def el_residual(L: Lagrangian, y: GridFunction, tolerance: float = 1e-8) -> ResidualReport:
    e = el_expressions(L, y)
    return ResidualReport.from_per_point(e.window, e.values, tolerance)


def second_el_expression(L: Lagrangian, y: GridFunction) -> GridFunction:
    """The time-component expression
    dL/dt - (L - sum_k v_k dL/dv_k - mu dL/dt)_delta along y, on [lo, hi-2]."""
    _check_dims(L, y)
    if y.hi - y.lo < 2:
        raise ValueError("need at least 3 points")
    # One sample of the path serves the three partials and y_delta (vs).
    ts, us, vs = _path_args(y)
    lt, lv, lval = (GridFunction(y.ts, y.lo, L.sample(w, ts, us, vs)) for w in "tvL")
    mu = (y.ts.points[y.lo + 1 : y.hi + 1] - y.ts.points[y.lo : y.hi])[:, None]
    inner_vals = lval.values - np.sum(vs * lv.values, axis=1, keepdims=True) - mu * lt.values
    inner = GridFunction(y.ts, y.lo, inner_vals)
    return lt.restrict(lt.lo, lt.hi - 1) - delta_derivative(inner, 1)


def second_el_residual(L: Lagrangian, y: GridFunction, tolerance: float = 1e-8) -> ResidualReport:
    e = second_el_expression(L, y)
    return ResidualReport.from_per_point(e.window, e.values, tolerance)


def solve_extremal(
    L: Lagrangian,
    ts: TimeScale,
    boundary: BoundaryData,
    y0: GridFunction | None = None,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> GridFunction:
    """Solve the Euler-Lagrange system over the full scale window with the
    endpoint rows pinned to the boundary data.

    Newton iteration with step halving (up to 20 times per step) when the
    residual does not decrease.  Success means el sup-norm <= tol.
    """
    n = L.n
    if boundary.alpha.size != n:
        raise ValueError("boundary dimension does not match the Lagrangian")
    npts = len(ts)
    if npts < 3:
        raise ValueError("scale too small for a boundary value problem")
    if y0 is None:
        lam = np.linspace(0.0, 1.0, npts)[:, None]
        start = (1 - lam) * boundary.alpha[None, :] + lam * boundary.beta[None, :]
    else:
        if y0.lo != 0 or y0.hi != npts - 1 or y0.n != n:
            raise ValueError("y0 must cover the full scale with matching components")
        if not (np.allclose(y0.values[0], boundary.alpha) and np.allclose(y0.values[-1], boundary.beta)):
            raise ValueError("y0 does not satisfy the boundary data")
        start = y0.values.copy()
        start[0], start[-1] = boundary.alpha, boundary.beta

    residual = _interior_residual(L, ts, start)
    z = start[1:-1].ravel().copy()
    r = residual(z)
    rnorm = float(np.max(np.abs(r)))
    history: list[tuple[float, float]] = []
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        jac = _coloured_jacobian(residual, z, r, n)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            history.append((rnorm, 0.0))
            raise ConvergenceError(f"singular Jacobian: {exc}", rnorm, history) from exc
        # Damping: halve until the residual norm decreases.
        scale = 1.0
        for _ in range(20):
            trial = z + scale * step
            r_trial = residual(trial)
            if np.max(np.abs(r_trial)) < rnorm:
                z, r = trial, r_trial
                break
            scale *= 0.5
        else:
            z = z + scale * step
            r = residual(z)
        rnorm = float(np.max(np.abs(r)))
        history.append((rnorm, scale))
    if not rnorm <= tol:  # a NaN residual fails too
        raise ConvergenceError(f"Newton did not converge: residual {rnorm:.3e}", rnorm, history)
    vals = start.copy()
    vals[1:-1] = z.reshape(npts - 2, n)
    return GridFunction(ts, 0, vals)


def _interior_residual(L: Lagrangian, ts: TimeScale, start: np.ndarray):
    """The Euler-Lagrange expressions over the full scale as a function of
    the flattened interior rows, with the endpoint rows taken from start."""
    npts, n = start.shape

    def residual(z: np.ndarray) -> np.ndarray:
        vals = start.copy()
        vals[1:-1] = z.reshape(npts - 2, n)
        return el_expressions(L, GridFunction(ts, 0, vals)).values.ravel()

    return residual


def _coloured_jacobian(fn, z: np.ndarray, f0: np.ndarray, n: int) -> np.ndarray:
    """Forward-difference Jacobian of the interior residual, 3*n evaluations.

    Row block i of the residual reads y[i], y[i+1], y[i+2], i.e. unknown
    blocks i-1, i, i+1, so columns whose blocks are 3 apart share no row
    and are perturbed together (Curtis, Powell & Reid 1974).  Each entry is
    the same quotient (fn(z + h e_k) - f0) / h as a one-column-at-a-time
    Jacobian, with h = 1e-7 * max(1, |z_k|); entries off the band are 0.
    """
    m = z.size // n
    jac = np.zeros((f0.size, z.size))
    h = 1e-7 * np.maximum(1.0, np.abs(z))
    blocks = np.arange(m)
    for c in range(min(3, m)):
        # The one block of colour c among i-1, i, i+1 owns row block i.
        owner = blocks - 1 + (c - blocks + 1) % 3
        ok = (owner >= 0) & (owner < m)
        rows = (blocks[ok, None] * n + np.arange(n)).ravel()
        for k in range(n):
            zp = z.copy()
            cols = np.arange(c, m, 3) * n + k
            zp[cols] += h[cols]
            row_cols = np.repeat(owner[ok] * n + k, n)
            jac[rows, row_cols] = (fn(zp)[rows] - f0[rows]) / h[row_cols]
    return jac


# Built-in densities selectable by name from the command line.  They are
# vectorized; each value rounds exactly as the same formula evaluated one
# point at a time.

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i.  A stack of (1, n) @ (n, 1) products
    takes the same dot kernel as a 1-D a[i] @ b[i]; np.sum(a * b, axis=1)
    and einsum round differently."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _zeros(t, U, V) -> np.ndarray:
    return np.zeros(len(t))


def _quadratic(n: int, cv: float, cu: float, cuv: float) -> Lagrangian:
    return Lagrangian(
        n=n,
        eval=lambda t, U, V: _rowdot(cv * V, V) + _rowdot(cu * U, U) + _rowdot(cuv * U, V),
        d_t=_zeros,
        d_u=lambda t, U, V: 2 * cu * U + cuv * V,
        d_v=lambda t, U, V: 2 * cv * V + cuv * U,
        vectorized=True,
    )


def _pair_difference_dv(t, U, V) -> np.ndarray:
    w = V[:, 0] - V[:, 1]
    return np.column_stack([2 * w, -2 * w])


def catalog(name: str) -> Lagrangian:
    """Named 1-D densities: dirichlet, poisson, pair-difference, or an inline
    quadratic "quad:<n>:<cv>:<cu>:<cuv>" meaning cv*|v|^2 + cu*|u|^2 + cuv*u.v."""
    if name == "dirichlet":
        return _quadratic(1, 0.5, 0.0, 0.0)
    if name == "poisson":
        return Lagrangian(
            n=1,
            eval=lambda t, U, V: _rowdot(0.5 * V, V) + U[:, 0],
            d_t=_zeros,
            d_u=lambda t, U, V: np.ones((len(t), 1)),
            d_v=lambda t, U, V: V.copy(),
            vectorized=True,
        )
    if name == "pair-difference":
        return Lagrangian(
            n=2,
            # A scalar ** 2 calls libm pow, which float_power also calls per
            # element; an array ** 2 multiplies and differs in the last bit
            # in about one value in a thousand.
            eval=lambda t, U, V: np.float_power(V[:, 0] - V[:, 1], 2),
            d_t=_zeros,
            d_u=lambda t, U, V: np.zeros((len(t), 2)),
            d_v=_pair_difference_dv,
            vectorized=True,
        )
    if name.startswith("quad:"):
        try:
            n_s, cv_s, cu_s, cuv_s = name.split(":")[1:]
            return _quadratic(int(n_s), float(cv_s), float(cu_s), float(cuv_s))
        except ValueError as exc:
            raise ValueError(f"bad inline quadratic spec {name!r}") from exc
    raise ValueError(f"unknown Lagrangian {name!r}")
