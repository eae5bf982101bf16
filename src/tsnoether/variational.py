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
from .timescale import GridFunction, TimeScale, _sealed, delta_derivative, delta_integral, forward_quotient, shift
from .timescale import window_integral


class ConvergenceError(RuntimeError):
    """Newton failed; carries the final residual sup-norm and the iteration
    history, one (residual sup after the step, damping scale) per Newton
    iteration.  An iteration that took no step, because its Jacobian was
    singular or no damping scale lowered the residual, records its residual
    with scale 0.0; solve_extremal states when that can happen."""

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
    Partials are optional, but a check that reads one the density lacks
    raises ValueError naming it: no partial is made up from eval.
    """

    n: int
    eval: Callable
    d_t: Callable | None = None
    d_u: Callable | None = None
    d_v: Callable | None = None
    vectorized: bool = False

    def sample(self, which: str, T: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """L ("L") or its partial ("t", "u", "v") at the points (T[i], U[i], V[i]):
        shape (N,) for "L" and "t", (N, n) for "u" and "v"."""
        fn = {"L": self.eval, "t": self.d_t, "u": self.d_u, "v": self.d_v}[which]
        if fn is None:
            raise ValueError(f"the density has no {which!r} partial (d_{which})")
        if self.vectorized:
            out = np.asarray(fn(T, U, V), dtype=float)
        else:
            out = np.array([fn(t, u, v) for t, u, v in zip(T, U, V)], dtype=float)
        return out.reshape(len(T), -1) if which in ("u", "v") else out.reshape(len(T))


@dataclass(frozen=True)
class BoundaryData:
    """Endpoint values y(a) = alpha, y(b) = beta."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if a.shape != b.shape:
            raise ValueError(f"alpha and beta dimensions differ: alpha has shape {a.shape}, beta {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError(f"boundary values must be finite, got alpha {a.tolist()} and beta {b.tolist()}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def _check_dims(L: Lagrangian, y: GridFunction) -> None:
    if y.n != L.n:
        raise ValueError(f"Lagrangian has n={L.n} but path has n={y.n} components")


def _path_args(y: GridFunction):
    """Times, y(sigma(t)) and y_delta(t) on [lo, hi-1]."""
    if y.hi - y.lo < 1:
        raise ValueError("path window too small")
    return _path_sample(y.ts, y.lo, y.values)


def _path_sample(ts: TimeScale, lo: int, vals: np.ndarray):
    """Times, y(sigma(t)) and y_delta(t) of the samples vals on the window
    of ts at lo, one row fewer than vals: sigma of each row is the next row."""
    return ts.points[lo : lo + len(vals) - 1], vals[1:], forward_quotient(vals, ts, lo)


def eval_functional(L: Lagrangian, y: GridFunction) -> float:
    """Delta integral of L(t, y(sigma(t)), y_delta(t)) over the path window."""
    _check_dims(L, y)
    ts, us, vs = _path_args(y)
    # Adding +0.0 makes an action of -0.0 terms +0.0 however np.sum starts.
    return float(window_integral((y.ts,), (y.lo,), L.sample("L", ts, us, vs)[:, None])[0] + 0.0)


def lagrangian_along(L: Lagrangian, y: GridFunction, *which: str):
    """Sample L ("L") or a partial ("t", "u", "v") along
    (t, y(sigma(t)), y_delta(t)) on [lo, hi-1]: a tuple of one GridFunction
    per entry of which, all from one sample of the path arguments."""
    _check_dims(L, y)
    ts, us, vs = _path_args(y)
    return tuple(GridFunction(y.ts, y.lo, L.sample(w, ts, us, vs)) for w in which)


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
    return GridFunction(y.ts, y.lo, _sealed(_el_values(pu.values, pv.values[None], (y.ts,), (y.lo,))))


def _el_values(P: np.ndarray, Q: np.ndarray, scales: tuple, lo: tuple, axes=None) -> np.ndarray:
    """P minus the axis-j quotient of each Q[j], subtracted in axis order, from
    samples on the window at lo of the product of scales: one entry fewer on
    each leading axis, a trailing component axis kept whole.  Every
    Euler-Lagrange expression, 1-D and d-D, and Newton's residual take this.
    Given `axes`, any other Q[j] is taken as 0.0: its quotient would change no bit."""
    inner = (slice(0, -1),) * len(scales)
    e = P[inner].copy()
    for j, (ts, l) in enumerate(zip(scales, lo)):
        if axes is None or j in axes:
            e -= forward_quotient(Q[j][inner[:j] + (slice(None),) + inner[j + 1 :]], ts, l, j)
    return e


# The Euler-Lagrange threshold: el_residual's verdict and solve_extremal's
# default stopping test, so a converged solve passes its el report.
EL_TOLERANCE = 1e-8


def el_residual(L: Lagrangian, y: GridFunction) -> ResidualReport:
    e = el_expressions(L, y)
    return ResidualReport.from_per_point(e.window, e.values, EL_TOLERANCE)


def second_el_expression(L: Lagrangian, y: GridFunction) -> GridFunction:
    """The time-component expression
    dL/dt - (L - sum_k v_k dL/dv_k - mu dL/dt)_delta along y, on [lo, hi-2]."""
    _check_dims(L, y)
    if y.hi - y.lo < 2:
        raise ValueError("need at least 3 points")
    # One sample of the path serves the three partials and y_delta (vs).
    ts, us, vs = _path_args(y)
    lt, lv, lval = (L.sample(w, ts, us, vs).reshape(len(ts), -1) for w in "tvL")
    mu = np.diff(y.ts.points[y.lo : y.hi + 1])[:, None]
    inner = lval - np.sum(vs * lv, axis=1, keepdims=True) - mu * lt
    return GridFunction(y.ts, y.lo, _sealed(_el_values(lt, inner[None], (y.ts,), (y.lo,))))


def solve_extremal(
    L: Lagrangian,
    ts: TimeScale,
    boundary: BoundaryData,
    tol: float = EL_TOLERANCE,
    max_iter: int = 50,
) -> GridFunction:
    """Solve the Euler-Lagrange system over the full scale window with the
    endpoint rows pinned to the boundary data.

    Newton iteration from the straight line between the boundary values,
    with step halving when the residual does not decrease: the scales 1,
    1/2, ..., 2^-20 are tried in turn, and when none of the 21 lowers the
    residual Newton stops there with a ConvergenceError, taking no uphill
    step.  Success means el sup-norm <= tol, the residual being
    el_expressions' to the bit.  Each trial path is sampled once, and the
    accepted one's samples also serve the next Jacobian (see
    _jacobian_bands), which _cyclic_reduction solves in O(N n^3).

    E_i reads y_i, y_{i+1} and y_{i+2} only, so the Jacobian J is block
    tridiagonal.  E_i is (dS/dy_{i+1}) / mu_i for the action S, so J is
    diag(mu)^-1 times the Hessian of S.  Cyclic reduction is block LU in
    odd-even order without pivoting across blocks: its pivot blocks are
    nonsingular whenever that Hessian is positive definite.  On an
    indefinite Hessian it can report a singular Jacobian where a pivoted
    dense LU would not.
    """
    n = L.n
    if boundary.alpha.size != n:
        raise ValueError(f"boundary dimension does not match the Lagrangian: boundary size {boundary.alpha.size}, L.n = {n}")
    npts = len(ts)
    if npts < 3:
        raise ValueError("scale too small for a boundary value problem")
    lam = np.linspace(0.0, 1.0, npts)[:, None]
    y = (1 - lam) * boundary.alpha[None, :] + lam * boundary.beta[None, :]

    mu = np.diff(ts.points)
    path, r = _newton_sample(L, ts, y)
    rnorm = float(np.max(np.abs(r)))
    history: list[tuple[float, float]] = []
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        try:
            step = _cyclic_reduction(*_jacobian_bands(L, path, mu), -r)
        except np.linalg.LinAlgError as exc:
            history.append((rnorm, 0.0))
            raise ConvergenceError(f"singular Jacobian: {exc}", rnorm, history) from exc
        # Damping: halve until the residual norm decreases, down to 2^-20.
        scale = 1.0
        for _ in range(21):
            trial = y.copy()
            trial[1:-1] += scale * step
            path_trial, r_trial = _newton_sample(L, ts, trial)
            if np.max(np.abs(r_trial)) < rnorm:
                break
            scale *= 0.5
        else:
            history.append((rnorm, 0.0))
            raise ConvergenceError(
                f"Newton stopped: no step scale from 1 down to 2^-20 lowers the residual {rnorm:.3e}", rnorm, history
            )
        y, path, r = trial, path_trial, r_trial
        rnorm = float(np.max(np.abs(r)))
        history.append((rnorm, scale))
    if not rnorm <= tol:  # a NaN residual fails too
        raise ConvergenceError(f"Newton did not converge: residual {rnorm:.3e}", rnorm, history)
    return GridFunction(ts, 0, _sealed(y))


def _newton_sample(L: Lagrangian, ts: TimeScale, vals: np.ndarray):
    """The path sample (T, U, V, Pu, Pv) of the full-scale path vals and its
    Euler-Lagrange expressions, as el_expressions computes them."""
    T, U, V = _path_sample(ts, 0, vals)
    Pu, Pv = L.sample("u", T, U, V), L.sample("v", T, U, V)
    return (T, U, V, Pu, Pv), _el_values(Pu, Pv[None], (ts,), (0,))


def _jacobian_bands(L: Lagrangian, path, mu: np.ndarray):
    """The blocks A_i, B_i, C_i = dE_i/dy_i, dE_i/dy_{i+1}, dE_i/dy_{i+2}
    of the Newton Jacobian, each of shape (N-2, n, n), with A_0 and C_{N-3}
    zero because the end rows are pinned.

    P_j = L_u or L_v at (T_j, U_j, V_j) reads U_j = y_{j+1} and
    V_j = (y_{j+1} - y_j) / mu_j.  Its local partials in U and V are
    forward quotients of 2n sample passes, one per column of U and of V,
    with steps h = 1e-7 * max(1, |x|) of each entry x, against the base
    sample of path (Curtis, Powell & Reid 1974, with the pattern of the
    density instead of a colouring).  The chain rule then gives
    dP_j/dy_{j+1} = P_U + P_V / mu_j and dP_j/dy_j = -P_V / mu_j, and
    E_i = Pu_i - (Pv_{i+1} - Pv_i) / mu_i gives the bands.
    """
    T, U, V, Pu, Pv = path
    n = U.shape[1]
    # H[p, s, j, :, k]: the quotient of Pu (p = 0) or Pv (p = 1) at row j
    # in column k of U (s = 0) or V (s = 1).
    H = np.empty((2, 2) + U.shape + (n,))
    for s, X in enumerate((U, V)):
        for k in range(n):
            h = 1e-7 * np.maximum(1.0, np.abs(X[:, k]))
            Xp = X.copy()
            Xp[:, k] += h
            args = (T, Xp, V) if s == 0 else (T, U, Xp)
            H[0, s, :, :, k] = (L.sample("u", *args) - Pu) / h[:, None]
            H[1, s, :, :, k] = (L.sample("v", *args) - Pv) / h[:, None]
    by_v = H[:, 1] / mu[:, None, None]
    up, down = H[:, 0] + by_v, -by_v  # dP_j/dy_{j+1}, dP_j/dy_j
    mi = mu[:-1, None, None]
    A = down[0, :-1] + down[1, :-1] / mi
    B = up[0, :-1] - (down[1, 1:] - up[1, :-1]) / mi
    C = -up[1, 1:] / mi
    A[0] = 0.0
    C[-1] = 0.0
    return A, B, C


def _cyclic_reduction(A: np.ndarray, B: np.ndarray, C: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve A_i x_{i-1} + B_i x_i + C_i x_{i+1} = f_i for i = 0 .. m-1
    (blocks (m, n, n), f and x (m, n)) by block cyclic reduction (Buzbee,
    Golub & Nielson 1970).

    Each level solves the odd rows' diagonal blocks against [A | C | f] in
    one batched np.linalg.solve, which keeps X = B_odd^-1 [A | C | f],
    substitutes x_odd = X_f - X_A x_left - X_C x_right into the even rows
    and recurses on them; back-substitution then needs matmuls only.  A
    zero block pads the missing neighbours at both ends, so A_0 and C_{m-1}
    meet only zeros.  A singular pivot raises np.linalg.LinAlgError.
    """
    m, n = f.shape
    if m == 1:
        return np.linalg.solve(B, f[:, :, None])[:, :, 0]
    even = slice(0, None, 2)
    odd = slice(1, None, 2)
    X = np.linalg.solve(B[odd], np.concatenate((A[odd], C[odd], f[odd, :, None]), axis=2))
    k = m - m // 2
    pad = np.zeros((1,) + X.shape[1:])
    padded = np.concatenate((pad, X, pad))
    AX = A[even] @ padded[:k]
    CX = C[even] @ padded[1 : k + 1]
    x_even = _cyclic_reduction(
        -AX[:, :, :n],
        B[even] - AX[:, :, n : 2 * n] - CX[:, :, :n],
        -CX[:, :, n : 2 * n],
        f[even] - AX[:, :, 2 * n] - CX[:, :, 2 * n],
    )
    x = np.empty_like(f)
    x[even] = x_even
    x_pad = np.concatenate((x_even, np.zeros((1, n))))
    n_odd = m // 2
    sides = np.concatenate((x_pad[:n_odd], x_pad[1 : n_odd + 1]), axis=1)[:, :, None]
    x[odd] = X[:, :, 2 * n] - (X[:, :, : 2 * n] @ sides)[:, :, 0]
    return x


# Built-in densities selectable by name from the command line.  They are
# vectorized; each value rounds exactly as the same formula evaluated one
# point at a time, with a square taken as the product w * w.

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
            # One correctly rounded multiply, as w * w; libm pow (a scalar
            # ** 2, or float_power) is 1 ulp off for about 0.09% of w.
            eval=lambda t, U, V: np.square(V[:, 0] - V[:, 1]),
            d_t=_zeros,
            d_u=lambda t, U, V: np.zeros((len(t), 2)),
            d_v=_pair_difference_dv,
            vectorized=True,
        )
    if name.startswith("quad:"):
        try:
            n_s, cv_s, cu_s, cuv_s = name.split(":")[1:]
            n, cv, cu, cuv = int(n_s), float(cv_s), float(cu_s), float(cuv_s)
        except ValueError as exc:
            raise ValueError(f"bad inline quadratic spec {name!r}") from exc
        if n < 1:
            raise ValueError(f"bad inline quadratic spec {name!r}: n must be at least 1")
        for coeff, value in (("cv", cv), ("cu", cu), ("cuv", cuv)):
            if not np.isfinite(value):
                raise ValueError(f"bad inline quadratic spec {name!r}: {coeff} = {value} is not finite")
        return _quadratic(n, cv, cu, cuv)
    raise ValueError(f"unknown Lagrangian {name!r}")
