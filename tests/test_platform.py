"""Behaviours of numpy and its BLAS that kernels or golden bytes rely on.

The goldens were frozen on numpy 2.4.6 with scipy-openblas 0.3.31.  On
another numpy or BLAS a golden diff would otherwise be the only sign of a
changed behaviour; each test here asserts one behaviour directly, and its
failure message names what depends on it and the versions in use.
"""

import numpy as np
import pytest

from tsnoether.variational import _rowdot


def platform() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return f"numpy {np.__version__}, BLAS {name}"


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5])
def test_sum_of_negative_zeros_is_positive_zero(n):
    total = np.sum(np.full(n, -0.0))
    assert total == 0.0 and not np.signbit(total), (
        f"np.sum of {n} -0.0 terms gave -0.0 ({platform()}); variational.functional keeps a + 0.0 "
        "guard for this, but timescale.window_integral's other sums (multigrid.functional_d, the em "
        "actions in the goldens) have none and would print -0.0 where they printed 0.0"
    )


def test_negative_flips_the_sign_of_nan():
    x = np.array([np.nan, -np.nan])
    assert np.array_equal(np.signbit(-x), ~np.signbit(x)), (
        f"np.negative did not flip a NaN's sign ({platform()}); multigrid.FieldD.__neg__ relies on it, "
        "and test_multigrid's window-arithmetic tests compare NaN bits with the earlier copies"
    )


@pytest.mark.parametrize("n", [4, 5, 8, 16, 33])
def test_rowdot_rounds_by_memory_order(n):
    rng = np.random.default_rng(n)
    a, b = rng.uniform(-1, 1, (2, 1000, n))
    assert not np.array_equal(_rowdot(np.asfortranarray(a), np.asfortranarray(b)), _rowdot(a, b)), (
        f"_rowdot of F-order rows now equals C-order at n = {n} ({platform()}); the reason that "
        "variational._path_sample and multigrid._pattern_args are kept apart (ROADMAP item 3) is gone"
    )


def test_solve_on_scalar_blocks_divides_with_one_rhs_and_multiplies_with_three():
    rng = np.random.default_rng(0)
    size = (10_000, 1, 1)
    B = rng.choice([-1.0, 1.0], size) * rng.uniform(0.5, 2.0, size) * 10.0 ** rng.uniform(-30, 30, size)
    R = rng.uniform(-1, 1, (10_000, 1, 3)) * 10.0 ** rng.uniform(-30, 30, (10_000, 1, 3))
    why = (
        f"({platform()}); variational._cyclic_reduction solves stacks of 1x1 blocks with np.linalg.solve, "
        "and the solve goldens and a scalar-block path (ROADMAP item 13) rest on this rounding"
    )
    one = np.linalg.solve(B, R[:, :, :1])
    assert np.array_equal(one, R[:, :, :1] / B), "1x1 solve with one right-hand side is not R / B " + why
    assert np.array_equal(np.linalg.solve(B, R), R * (1.0 / B)), (
        "1x1 solve with three right-hand sides is not R * (1 / B) " + why
    )
