"""Bit and layout pins of the 1-D kernels on (N, n) path samples.

forward_quotient, the Euler-Lagrange assembly _el_values (1-D and d-D) and
the expressions built on it, the gauge perturbation and transform, the
identity sums and the pair-difference v partial are pinned to
tests/reference.py by raw bytes: on n = 1, 2, 3, 8 and 33 components
(forward_quotient divides two columns one by one, any other count through
a broadcast), on unit-step h, q, real-approx and explicit scales (an
affine one and one of subnormal gaps), with -0.0, infinite, NaN and
subnormal entries, and with family tables held per point or, for
constants, as a broadcast.  Each result must also come back in C
order, since an F-order (N, n) array makes every later pass over it run
rows of n entries (ROADMAP item 1), and each kernel result read-only but
the perturbation, which transform writes over.

The NaN entries are the NaN that invalid operations make (inf - inf), so
that every NaN in a kernel has the same bits: where two NaNs of opposite
sign meet in an add, numpy's vector loops keep one or the other by the
position in the loop, and a path of other lengths or layout (or the
reference's) may keep the other.
"""

import numpy as np
import pytest

from tsnoether import (
    GaugeFamily,
    GridFunction,
    catalog,
    delta_derivative,
    el_expressions,
    explicit_scale,
    h_uniform,
    noether_identity,
    q_geometric,
    real_approx,
    second_el_expression,
)
from tsnoether.noether import _identity_sum, _perturbation, transform
from tsnoether.timescale import forward_quotient
from tsnoether.variational import _el_values

import reference

COUNTS = (1, 2, 3, 8, 33)
KINDS = ("h", "q", "real", "explicit", "subnormal")
with np.errstate(invalid="ignore"):
    SPECIAL = np.array([-0.0, np.inf, -np.inf, np.subtract(np.inf, np.inf), 5e-324, -5e-324, 1e-310])


@pytest.fixture(autouse=True)
def quiet():
    with np.errstate(all="ignore"):  # the special entries overflow and make NaN on purpose
        yield


def scale(kind, npts):
    """npts points: unit steps (h), ratio 1.05 (q), a real-approx grid of
    step 0.25, sigma(t) = 1.25 t + 0.5 from -0.75 given point by point
    (explicit), or gaps of the smallest subnormal.  Each has condition (H)."""
    if kind == "h":
        return h_uniform(1.0, -3.0, npts - 4.0)
    if kind == "q":
        return q_geometric(1.05, 0.5, npts)
    if kind == "real":
        return real_approx(0.25, -1.0, -1.0 + 0.25 * (npts - 1))
    if kind == "explicit":
        pts = [-0.75]
        for _ in range(npts - 1):
            pts.append(1.25 * pts[-1] + 0.5)
        return explicit_scale(pts)
    return explicit_scale(np.arange(npts) * 5e-324)


def samples(rng, shape):
    """Draws from [-2, 2], about one in seven replaced by a special value."""
    vals = rng.uniform(-2.0, 2.0, shape)
    mask = rng.uniform(size=shape) < 0.15
    vals[mask] = rng.choice(SPECIAL, int(mask.sum()))
    return vals


def path(kind, n, seed, npts=30):
    """A scale and a path of n components on a window that starts at index 0, 1 or 2."""
    rng = np.random.default_rng([seed, n, KINDS.index(kind)])
    ts = scale(kind, npts)
    lo = int(rng.integers(0, 3))
    return rng, ts, GridFunction(ts, lo, samples(rng, (npts - lo - int(rng.integers(0, 3)), n)))


def assert_pinned(out, ref, read_only=True):
    """out has ref's shape and bytes, in C order, and is read-only when asked."""
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    assert out.flags.c_contiguous
    assert not (read_only and out.flags.writeable)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_quotient_pinned_in_c_order(kind, n):
    for seed in range(3):
        _, ts, y = path(kind, n, seed)
        ref = reference.quotient(y.values, ts, y.lo)
        assert_pinned(forward_quotient(y.values, ts, y.lo), ref)
        assert_pinned(delta_derivative(y).values, ref)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_el_values_pinned_in_c_order_1d_and_2d(kind, n):
    for seed in range(3):
        rng, ts, y = path(kind, n, seed)
        P, Q = samples(rng, y.values.shape), samples(rng, (1,) + y.values.shape)
        ref = reference.el_values(P, Q, (ts,), (y.lo,))
        assert_pinned(_el_values(P, Q, (ts,), (y.lo,)), ref, read_only=False)
        # A 2-D window with a trailing component axis; an axis outside
        # `axes` is the reference's quotient of zeros.
        scales, lo = (ts, q_geometric(1.1, 1.0, 6)), (y.lo, 1)
        P = samples(rng, (len(y.values), 5, n))
        Q = samples(rng, (2,) + P.shape)
        for axes in (None, {0}, {1}, set()):
            Q0 = Q.copy()
            for j in {0, 1} - (axes if axes is not None else {0, 1}):
                Q0[j] = 0.0
            ref = reference.el_values(P, Q0, scales, lo)
            assert_pinned(_el_values(P, Q, scales, lo, axes), ref, read_only=False)


@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_euler_lagrange_expressions_pinned_in_c_order(kind, n):
    L = catalog(f"quad:{n}:0.5:0.25:0.125")
    for seed in range(3):
        _, _, y = path(kind, n, seed)
        assert_pinned(el_expressions(L, y).values, reference.el_expressions(L, y).values)
        assert_pinned(second_el_expression(L, y).values, reference.second_el_expression(L, y).values)


# The entries of the held families: each sign of zero, +-1.0 (a copy or a
# view, not a product), a subnormal and a value whose products overflow.
CONSTANTS = np.array([0.0, -0.0, 1.0, -1.0, 0.7, 5e-324, 1e300])


def family(rng, ts, r, n, m, f_shape, held):
    """A family of random tables, f's of 1e-3 * uniform draws when f_shape
    is given: per point, with the special values among g's samples, or
    held as constants (a broadcast) drawn from CONSTANTS."""
    width = len(ts) - m
    if held:
        f = None if f_shape is None else 1e-3 * rng.uniform(-1, 1, f_shape)
        return GaugeFamily.constant(ts, rng.choice(CONSTANTS, (r, n, m + 1)), f)
    f = None if f_shape is None else 1e-3 * rng.uniform(-1, 1, f_shape + (width,))
    return GaugeFamily(ts, samples(rng, (r, n, m + 1, width)), f)


@pytest.mark.parametrize("with_f", [False, True])
@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_perturbation_and_transform_pinned_in_c_order(kind, n, with_f):
    perturbation_and_transform_pinned(kind, n, with_f, held=False)


@pytest.mark.parametrize("with_f", [False, True])
@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_held_perturbation_and_transform_pinned_in_c_order(kind, n, with_f):
    perturbation_and_transform_pinned(kind, n, with_f, held=True)


def perturbation_and_transform_pinned(kind, n, with_f, held):
    for seed in range(3):
        rng = np.random.default_rng([seed, n, KINDS.index(kind), with_f])
        ts = scale(kind, 20)
        r, m = 1 + seed % 2, seed
        width = len(ts) - m
        fam = family(rng, ts, r, n, m, (r, m + 1) if with_f else None, held)
        f = fam.f
        params = reference.random_gauge_params(fam, [seed, 1])
        lo = int(rng.integers(0, 3))
        y = GridFunction(ts, lo, samples(rng, (width - lo - int(rng.integers(0, 3)), n)))

        def inputs():
            arrays = (y.values, ts.points, fam.g, *(q.values for q in params)) + (() if fam.f is None else (fam.f,))
            return [a.tobytes() for a in arrays]

        before = inputs()
        dy, dt = _perturbation(fam, params, y)
        ref_dy, ref_dt = reference.perturbation(fam, params, y)
        assert_pinned(dy, ref_dy, read_only=False)
        assert dt is None if f is None else dt.tobytes() == ref_dt.tobytes()
        try:
            alpha, ybar = reference.transform(fam, params, y)
        except ValueError:
            with pytest.raises(ValueError, match="^time reparametrization is not strictly increasing$"):
                transform(fam, params, y)
            assert inputs() == before
            continue
        new_alpha, new_ybar = transform(fam, params, y)
        assert_pinned(new_ybar.values, ybar)
        assert new_alpha is None if alpha is None else new_alpha.values[:, 0].tobytes() == alpha.tobytes()
        assert not (new_alpha is not None and new_alpha.values.flags.writeable)
        # The sums are written over the perturbation's own buffers, never over y or the scale.
        assert inputs() == before


@pytest.mark.parametrize("with_f", [False, True])
@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_identity_sums_pinned_in_c_order(kind, n, with_f):
    identity_sums_pinned(kind, n, with_f, held=False)


@pytest.mark.parametrize("with_f", [False, True])
@pytest.mark.parametrize("n", COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_held_identity_sums_pinned_in_c_order(kind, n, with_f):
    identity_sums_pinned(kind, n, with_f, held=True)


def identity_sums_pinned(kind, n, with_f, held):
    L = catalog(f"quad:{n}:0.5:0.25:0.125")
    for seed in range(3):
        rng = np.random.default_rng([seed, n, KINDS.index(kind), with_f])
        ts = scale(kind, 20)
        r, m = 1 + seed % 2, seed
        hi = len(ts) - 1 - m
        if held:
            fam = family(rng, ts, r, n, m, (r, m + 1) if with_f else None, held=True)
        else:
            f = samples(rng, (r, m + 1, hi + 1)) if with_f else None
            fam = GaugeFamily(ts, samples(rng, (r, n, m + 1, hi + 1)), f)
        f = fam.f
        y = GridFunction(ts, 0, samples(rng, (hi + 1, n)))
        totals = reference.identity(L, fam, y)
        for rep, total in zip(noether_identity(L, fam, y), totals, strict=True):
            assert rep.domain == total.window and rep.per_point.tobytes() == total.values.tobytes()
        if f is None:
            one = _identity_sum(fam, fam.g[0], el_expressions(L, y), ts.condition_h[0])
            assert one.window == totals[0].window
            assert_pinned(one.values, totals[0].values)


def test_pair_difference_v_partial_pinned_in_c_order():
    L = catalog("pair-difference")
    for seed in range(5):
        rng = np.random.default_rng(seed)
        V = samples(rng, (int(rng.integers(1, 40)), 2))
        out = L.sample("v", np.zeros(len(V)), np.zeros(V.shape), V)
        assert_pinned(out, reference.pair_difference_dv(V), read_only=False)
