"""Test-local central differences for densities given by their values only.

The library makes up no partial: a check that reads one a density lacks
raises ValueError.  Tests that use value-only densities as a tool give them
these partials instead, with the step the library's checks once took.
"""

from dataclasses import replace
from functools import partial

import numpy as np

# Relative step: each perturbed entry x moves by FD_STEP * max(1, |x|).
FD_STEP = 1e-6


def earlier_central_difference(L, which, T, U, V):
    """Lagrangian's central differences as they were before the 1-D and d-D
    loops shared one kernel: one column at a time, step 1e-6 * max(1, |x|)."""
    args = [T, U, V]
    slot = "tuv".index(which)
    shape = args[slot].shape
    X = np.reshape(args[slot], (len(T), -1))
    out = np.empty(X.shape)
    for k in range(X.shape[1]):
        h = FD_STEP * np.maximum(1.0, np.abs(X[:, k]))
        Xp, Xm = X.copy(), X.copy()
        Xp[:, k] += h
        Xm[:, k] -= h
        args[slot] = Xp.reshape(shape)
        fp = L.sample("L", *args)
        args[slot] = Xm.reshape(shape)
        out[:, k] = (fp - L.sample("L", *args)) / (2 * h)
    return out.reshape(shape)


def _one_point(L, which, t, u, v):
    row = earlier_central_difference(
        L, which, np.array([t], dtype=float), np.reshape(u, (1, -1)), np.reshape(v, (1, -1))
    )[0]
    return float(row) if which == "t" else row


def differenced(L):
    """L with its t, u and v partials taken by earlier_central_difference of
    its values, in L's own calling convention.  Per point, each partial is
    the one-row difference, which rounds as the row of a whole path does."""
    kernel = earlier_central_difference if L.vectorized else _one_point
    return replace(L, **{f"d_{w}": partial(kernel, L, w) for w in "tuv"})
