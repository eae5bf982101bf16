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
        "and test_multigrid's window-arithmetic tests compare NaN bits with tests/reference.py"
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


def signed_operands(rng, n):
    """Uniform values with about a fifth of them +0.0 or -0.0."""
    x = rng.uniform(-1, 1, n)
    x[rng.uniform(size=n) < 0.1] = 0.0
    x[rng.uniform(size=n) < 0.1] = -0.0
    return x


@pytest.mark.parametrize("shape", [(300, 300), (40, 300), (7, 9)])
def test_einsum_outer_product_equals_multiply_outer_but_for_zero_signs(shape):
    rng = np.random.default_rng(shape)
    terms = []
    for _ in range(3):
        head, last = signed_operands(rng, shape[0]), signed_operands(rng, shape[1])
        outer = np.multiply.outer(head, last)
        einsum = np.einsum("i,j->ij", head, last, out=np.empty(shape))
        nonzero = outer != 0.0
        same = np.array_equal(einsum[nonzero].view(np.int64), outer[nonzero].view(np.int64))
        assert same and not einsum[~nonzero].any(), (
            f"np.einsum('i,j->ij') differs from np.multiply.outer on a nonzero product at {shape} ({platform()}); "
            "multigrid.random_polynomial_field forms the probe terms of grids whose last axis is the longer "
            "(the check2d grids) by einsum, and its values would no longer be those of the outer products"
        )
        terms.append((outer, einsum))
    sums = []
    for form in (0, 1):
        acc = np.empty(shape)
        for i, pair in enumerate(terms):
            np.add(acc if i else 0.0, pair[form], out=acc)
        sums.append(acc)
    assert sums[0].tobytes() == sums[1].tobytes(), (
        f"((0.0 + t0) + t1) + t2 depends on whether einsum or np.multiply.outer made the terms at {shape} "
        f"({platform()}); multigrid.random_polynomial_field relies on the +0.0 start erasing the sign of a "
        "zero product, so that its probe fields keep the bits of the outer products"
    )


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_c_order_copy_equals_multiply_by_one(layout):
    rng = np.random.default_rng(1)
    x = signed_operands(rng, 3 * 50 * 7).reshape(3, 50, 7)
    x[rng.uniform(size=x.shape) < 0.05] = np.inf
    x[rng.uniform(size=x.shape) < 0.05] = -np.inf
    x = {"C": x, "F": np.asfortranarray(x), "strided": np.moveaxis(x, -1, 0)[:, ::2]}[layout]
    ones = np.ones((x.shape[1], 1))
    copied, multiplied = np.array(x, order="C"), np.multiply(x, ones, order="C")
    assert copied.flags.c_contiguous and multiplied.flags.c_contiguous
    assert copied.tobytes() == multiplied.tobytes(), (
        f"a C-order copy differs from the product by 1.0 on +-0.0 and +-inf samples ({platform()}); "
        "timescale.window_integral copies the first axis in place of multiplying by its mu when that "
        "axis has unit steps, and its integrals would no longer be those of the product"
    )


@pytest.mark.parametrize("shape", [(4096, 16), (2744, 14), (300, 300), (40, 300), (300, 40), (7, 9)])
def test_einsum_contraction_of_three_terms_is_their_sequential_sum(shape):
    # Both layouts of the probe sum: rows of the grid (heads, last) and rows
    # of a shorter last axis (last, heads), each as a fresh result and into a
    # given buffer; operands with +-0.0, subnormals and exponents of +-20.
    rng = np.random.default_rng(shape)
    heads, last = (signed_operands(rng, 3 * n).reshape(3, n) * 10.0 ** rng.uniform(-20, 20, (3, n)) for n in shape)
    heads[rng.uniform(size=heads.shape) < 0.05] = 5e-324
    last[rng.uniform(size=last.shape) < 0.05] = -3e-310
    for a, b in ((heads, last), (last, heads)):
        ref = np.empty((a.shape[1], b.shape[1]))
        for k in range(3):
            np.add(ref if k else 0.0, np.multiply.outer(a[k], b[k]), out=ref)
        for out in (np.einsum("ki,kj->ij", a, b), np.einsum("ki,kj->ij", a, b, out=np.empty(ref.shape))):
            assert out.tobytes() == ref.tobytes(), (
                f"np.einsum('ki,kj->ij') over three terms differs from ((0.0 + t0) + t1) + t2 at "
                f"{ref.shape} ({platform()}); multigrid.random_polynomial_field forms each probe field's sum "
                "by this contraction, and its values would no longer be those of the termwise sum"
            )


def held_operands(rng):
    """Random samples with +-0.0, +-inf and subnormals among them."""
    x = signed_operands(rng, 1000) * 10.0 ** rng.uniform(-20, 20, 1000)
    x[rng.uniform(size=x.size) < 0.05] = np.inf
    x[rng.uniform(size=x.size) < 0.05] = -np.inf
    x[rng.uniform(size=x.size) < 0.05] = 5e-324
    x[rng.uniform(size=x.size) < 0.05] = -3e-310
    return x


@pytest.mark.parametrize("c", [0.7, 1.1, -1.0, 0.0, -0.0])
def test_product_by_a_scalar_equals_product_by_its_row(c):
    x = held_operands(np.random.default_rng(7))
    with np.errstate(invalid="ignore"):  # inf * 0.0
        scalar = np.multiply(x, c)
        products = [(np.multiply(x, row), np.multiply(row, x)) for row in (np.broadcast_to(c, x.shape), np.full(x.shape, c))]
    for right, left in products:
        assert scalar.tobytes() == right.tobytes() == left.tobytes(), (
            f"x * {c!r} differs from the product by a row of {c!r} on +-0.0, +-inf and subnormal samples "
            f"({platform()}); noether's kernels multiply by a constant family's scalar where a row of samples "
            "held it, and its reports would no longer be those of the per-point tables"
        )


def test_product_by_one_is_the_value():
    x = held_operands(np.random.default_rng(8))
    assert np.multiply(x, 1.0).tobytes() == x.tobytes(), (
        f"x * 1.0 is not x on +-0.0, +-inf and subnormal samples ({platform()}); noether's kernels take "
        "a family's 1.0 coefficient as the term itself (a copy or a view), not its product"
    )
