"""Finite time scales and exact delta calculus on them.

A time scale here is a finite, strictly increasing grid of real points.
The jump operators sigma/rho act on indices (saturating at the ends),
the graininess mu, the gap to the next point, is np.diff of the points,
and delta derivatives are forward difference quotients.  Grid functions
carry an explicit index window so that every domain shrink (one point
lost from the top per derivative order) is visible in the result.  The
kernels shift_values, forward_quotient and window_integral also serve the
product grids of multigrid.

Values are read-only and copied only when needed: a kernel marks the
arrays it creates read-only and they are stored as they are, a sigma shift
(and a rho shift that does not reach the scale minimum) is a view of its
source, and an array from a caller is copied once (see _frozen).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import add, ge, sub

import numpy as np

# Relative tolerance used when detecting an affine jump law sigma(t) = b1*t + b0.
AFFINE_JUMP_RTOL = 1e-12
# Rows that write_csv formats per write and read_csv parses per block.
CSV_BLOCK_ROWS = 1024
# Most points a uniform or geometric scale spec may ask for: 100 times the
# largest grid the solver sweeps are timed on (10^5), 80 MB of float points.
MAX_POINTS = 10**7


@dataclass(frozen=True, eq=False)
class TimeScale:
    """A strictly increasing grid of at least two real points.

    ``condition_h`` is the affine jump law ``(b1, b0)`` with
    ``sigma(t) = b1*t + b0`` at every non-maximal point, or ``None`` when no
    such law fits.  The uniform and geometric constructors set it exactly;
    explicit grids get it fitted from the first two gaps and validated
    against all points.
    """

    points: np.ndarray
    kind: str  # "explicit" | "h-uniform" | "q-geometric" | "real-approx"
    condition_h: tuple[float, float] | None = None

    def __post_init__(self):
        pts = _frozen(np.asarray(self.points, dtype=float))
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("time scale needs at least 2 points")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts))[0]
            raise ValueError(f"point {bad} of the scale, {pts[bad]}, is not a finite float")
        if not np.all(pts[1:] > pts[:-1]):
            raise ValueError("time scale points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        if self.condition_h is not None:
            b1, b0 = self.condition_h
            if b1 <= 0:
                raise ValueError("condition (H) slope b1 must be positive")
            if not _affine_jump_holds(pts, b1, b0):
                raise ValueError("points do not satisfy the declared jump law")

    def __len__(self) -> int:
        return self.points.size

    def sigma(self, i: int) -> int:
        """Index of the next point; the maximum maps to itself."""
        self._check_index(i)
        return min(i + 1, self.points.size - 1)

    def rho(self, i: int) -> int:
        """Index of the previous point; the minimum maps to itself."""
        self._check_index(i)
        return max(i - 1, 0)

    @cached_property
    def unit_steps(self) -> bool:
        """Whether every gap is exactly 1.0, so that dividing by mu changes
        no bit (the h = 1 calculus, whose delta derivative is the forward
        difference); decided once per scale, from the first gap alone when
        that is not 1.0."""
        pts = self.points
        return bool(pts[1] - pts[0] == 1.0 and np.all(np.diff(pts) == 1.0))

    def same_as(self, other: "TimeScale") -> bool:
        return self is other or (
            self.points.size == other.points.size
            and bool(np.array_equal(self.points, other.points))
        )

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.points.size:
            raise ValueError(f"index {i} out of range [0, {self.points.size - 1}]")


def _frozen(values: np.ndarray) -> np.ndarray:
    """The read-only array a grid value class stores.

    values itself when it and every array in its .base chain are read-only
    (a kernel result, or a view of one), since nothing can write to it;
    otherwise a read-only copy, so a caller's writeable array, or a
    read-only view of one, can change later without changing the field.
    """
    arr = values
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        arr = arr.base
    if arr is None:
        return values
    out = values.copy()
    out.setflags(write=False)
    return out


def _sealed(values: np.ndarray) -> np.ndarray:
    """Mark an array a kernel just created read-only, so that _frozen
    stores it without a copy.  A kernel may also seal a view it took of
    read-only field values (a sigma shift, or a rho shift above the scale
    minimum); those values are read-only already."""
    values.setflags(write=False)
    return values


def _affine_jump_holds(pts: np.ndarray, b1: float, b0: float) -> bool:
    """Whether each t_{i+1} is within 1e-12 (|b1 t_i| + |b0| + |t_0|) of b1 t_i + b0:
    no floor, so no unit of time, but a looser rule near 0 on a scale that
    starts far from 0 (the |t_0| term, the rounding of a + k h)."""
    gap = b1 * pts[:-1]  # |t_{i+1} - (b1 t_i + b0)| and its tolerance, two buffers
    gap += b0
    np.abs(np.subtract(pts[1:], gap, out=gap), out=gap)
    tol = np.multiply(b1, pts[:-1])
    np.abs(tol, out=tol)
    tol += abs(b0) + abs(pts[0])
    tol *= AFFINE_JUMP_RTOL
    return bool(np.all(gap <= tol))


def _fit_affine_jump(pts: np.ndarray) -> tuple[float, float] | None:
    """Fit sigma(t) = b1*t + b0 from the first two gaps, validate everywhere."""
    if pts.size == 2:
        return (1.0, float(pts[1] - pts[0]))
    b1 = float((pts[2] - pts[1]) / (pts[1] - pts[0]))
    b0 = float(pts[1] - b1 * pts[0])
    if b1 > 0 and _affine_jump_holds(pts, b1, b0):
        return (b1, b0)
    return None


def h_uniform(h: float, a: float, b: float) -> TimeScale:
    """Uniform grid a, a+h, ..., b.  Requires b - a to be a multiple of h."""
    return _uniform(h, a, b, kind="h-uniform")


def real_approx(h: float, a: float, b: float) -> TimeScale:
    """Uniform grid used as a stand-in for a dense interval."""
    return _uniform(h, a, b, kind="real-approx")


def _uniform(h: float, a: float, b: float, kind: str) -> TimeScale:
    bad = [f"{name}={v}" for name, v in (("h", h), ("a", a), ("b", b)) if not np.isfinite(v)]
    if bad:
        raise ValueError(f"h, a and b must be finite, got {', '.join(bad)}")
    if h <= 0:
        raise ValueError("step h must be positive")
    if b <= a:
        raise ValueError("need b > a")
    steps = (b - a) / h
    _check_point_count(steps + 1)
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, abs(steps)):
        raise ValueError("b - a must be a positive multiple of h")
    pts = np.arange(n + 1, dtype=float)  # a + h * k, in place
    pts *= h
    pts += a
    return TimeScale(_sealed(pts), kind=kind, condition_h=(1.0, h))


def _check_point_count(npts: float) -> None:
    """Refuse a scale of more than MAX_POINTS points before allocating it."""
    if not npts <= MAX_POINTS:
        raise ValueError(f"the scale would have {npts:.0f} points, more than the limit of {MAX_POINTS}")


def q_geometric(q: float, a: float, count: int) -> TimeScale:
    """Geometric grid a, a*q, ..., a*q**(count-1) with q > 1, a > 0."""
    if q <= 1:
        raise ValueError("ratio q must exceed 1")
    if a <= 0:
        raise ValueError("start a must be positive")
    if count < 2:
        raise ValueError("need at least 2 points")
    _check_point_count(count)
    # Cumulative products keep sigma(t) == q*t exact in floating point;
    # accumulate takes them one after another, as a loop would.
    pts = np.full(count, float(q))
    pts[0] = a
    with np.errstate(over="ignore"):
        np.multiply.accumulate(pts, out=pts)
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts))[0]
        raise ValueError(f"point {bad} of the geometric scale, a*q**{bad}, is not a finite float")
    return TimeScale(_sealed(pts), kind="q-geometric", condition_h=(float(q), 0.0))


def explicit_scale(points) -> TimeScale:
    """Explicit point list; the affine jump law is detected, not asserted,
    once the points have passed TimeScale's checks."""
    pts = TimeScale(points, kind="explicit").points
    return TimeScale(pts, kind="explicit", condition_h=_fit_affine_jump(pts))


def parse_scale_spec(spec: str) -> TimeScale:
    """Parse "h:<h>:<a>:<b>", "q:<q>:<a>:<count>", "real:<h>:<a>:<b>",
    or "explicit:@<path>" (one point per line)."""
    parts = spec.split(":")
    try:
        head = parts[0]
        if head == "h" and len(parts) == 4:
            return h_uniform(float(parts[1]), float(parts[2]), float(parts[3]))
        if head == "real" and len(parts) == 4:
            return real_approx(float(parts[1]), float(parts[2]), float(parts[3]))
        if head == "q" and len(parts) == 4:
            return q_geometric(float(parts[1]), float(parts[2]), int(parts[3]))
        if head == "explicit" and len(parts) == 2 and parts[1].startswith("@"):
            with open(parts[1][1:]) as fh:
                lines = fh.readlines()
            try:
                pts = [float(line) for line in lines if line.strip()]
            except ValueError:
                raise _bad_field((lineno, [line]) for lineno, line in enumerate(lines, start=1) if line.strip()) from None
            return explicit_scale(pts)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad scale spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad scale spec {spec!r}")


def _bad_field(rows) -> ValueError:
    """The refusal of the first field that float() rejects among rows of
    (line number, fields), for a parse that has failed."""
    for lineno, fields in rows:
        for field in fields:
            try:
                float(field)
            except ValueError:
                return ValueError(f"line {lineno} has the field {field.strip()!r}, which is not a number")


def _overlap(*parts) -> tuple[tuple, list]:
    """The common window of (lo, values) pairs, lo a tuple over the leading
    axes of values (a further component axis is carried whole): its lo, and
    each values cut to it as a view.  Raises when the windows are disjoint."""
    (lo, first), k = parts[0], len(parts[0][0])
    if 0 not in first.shape[:k] and all(l == lo and v.shape[:k] == first.shape[:k] for l, v in parts):
        return lo, [v for _, v in parts]  # one window: each values whole
    lo = tuple(map(max, zip(*[l for l, _ in parts])))
    end = tuple(map(min, zip(*[map(add, l, v.shape) for l, v in parts])))
    if any(map(ge, lo, end)):
        raise ValueError("windows do not overlap")
    return lo, [v[tuple(map(slice, map(sub, lo, l), map(sub, end, l)))] for l, v in parts]


class _Arithmetic:
    """+, - and * (also reflected) on the common window of two operands, or
    with a scalar, through the class's own _binary(other, op)."""

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class GridFunction(_Arithmetic):
    """Vector-valued samples on the index window [lo, hi] of a time scale.

    values has shape (hi - lo + 1, n).  All arithmetic restricts to the
    window intersection of the operands.
    """

    ts: TimeScale
    lo: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] == 0:
            raise ValueError("values must be a nonempty (npoints, n) array")
        if self.lo < 0 or self.lo + vals.shape[0] - 1 >= len(self.ts):
            raise ValueError("window [lo, hi] does not fit inside the scale")
        object.__setattr__(self, "values", _frozen(vals))

    @property
    def hi(self) -> int:
        return self.lo + self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def component(self, k: int) -> "GridFunction":
        return GridFunction(self.ts, self.lo, self.values[:, k : k + 1])

    def restrict(self, lo: int, hi: int) -> "GridFunction":
        if lo < self.lo or hi > self.hi or lo > hi:
            raise ValueError(f"[{lo}, {hi}] is not a subwindow of [{self.lo}, {self.hi}]")
        return GridFunction(self.ts, lo, self.values[lo - self.lo : hi - self.lo + 1])

    @staticmethod
    def from_callable(ts: TimeScale, fn) -> "GridFunction":
        """fn sampled at every point of the scale; restrict the result for a
        subwindow."""
        rows = [np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in ts.points.tolist()]
        return GridFunction(ts, 0, _sealed(np.vstack(rows)))

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            if not self.ts.same_as(other.ts):
                raise ValueError("grid functions live on different scales")
            (lo,), (a, b) = _overlap(((self.lo,), self.values), ((other.lo,), other.values))
            if a.shape[1] != b.shape[1] and 1 not in (a.shape[1], b.shape[1]):
                raise ValueError("component counts differ")
            return GridFunction(self.ts, lo, _sealed(op(a, b)))
        return GridFunction(self.ts, self.lo, _sealed(op(self.values, float(other))))


def forward_quotient(values: np.ndarray, ts: TimeScale, lo: int, axis: int = 0) -> np.ndarray:
    """Forward difference quotient of float samples along one axis, whose
    window on the scale ts starts at index lo: np.diff of the values over
    np.diff of the window's points.  The result has one entry fewer on that
    axis and is a fresh read-only array in the layout of values: C order
    for C-order values, so (N - 1, n) rows for (N, n) path samples."""
    return _sealed(_quotient(values, ts, lo, axis))


def _quotient(values: np.ndarray, ts: TimeScale, lo: int, axis: int) -> np.ndarray:
    """forward_quotient's result, writeable, for a caller that writes over it.
    It is divided in place, and not at all on a scale of unit steps.  Along
    axis 0 of a two-column sample, such as a pair path or a 2-D field two
    points wide, each column is divided in its own pass: against an (N, 1)
    gap, rows of two run one inner loop per point (ROADMAP item 1).  From
    three columns on, and for one, the broadcast is as fast or faster."""
    out = np.diff(values, axis=axis)
    if not ts.unit_steps:
        shape = [1] * values.ndim
        shape[axis] = out.shape[axis]
        mu = np.diff(ts.points[lo : lo + shape[axis] + 1])
        if values.ndim == 2 and axis == 0 and out.shape[1] == 2:
            for column in out.T:
                column /= mu
        else:
            out /= mu.reshape(shape)
    return out


def shift_values(values: np.ndarray, axis: int, lo: int, npts: int, k: int) -> tuple[int, np.ndarray]:
    """Window start and values of the composition with sigma^k (k > 0) or
    the saturating rho^|k| (k < 0) along one axis of the samples values,
    whose window starts at index lo of an npts-point axis.

    Positive k is a pure index translation, so the window moves down and
    may gain the scale maximum only through values that already exist; the
    result is a view (of the whole window when lo >= k, so the shift only
    relabels lo).  Negative k saturates at the scale minimum, where the
    value repeats (sigma(rho(t)) = t holds off the minimum only).  On a
    window above the minimum nothing saturates and the result is a view as
    well; on one at the minimum it is a fresh array, the minimum's slab
    repeated over the first |k| entries and then one slice of the values.
    Only an empty new window is an error.
    """
    hi = lo + values.shape[axis] - 1
    if k > 0:
        new_lo, new_hi = max(lo - k, 0), hi - k
    else:
        new_lo, new_hi = (lo if lo == 0 else lo - k), min(hi - k, npts - 1)
    if new_lo > new_hi:
        raise ValueError("shift exhausts the window")
    size = new_hi - new_lo + 1
    head = min(-k, size) if k < 0 and lo == 0 else 0
    before = (slice(None),) * axis
    start = max(new_lo + head + k - lo, 0)
    tail = values[before + (slice(start, start + size - head),)]
    if not head:
        return new_lo, tail
    shape = list(values.shape)
    shape[axis] = size
    out = np.empty(shape)
    out[before + (slice(0, head),)] = values[before + (slice(0, 1),)]
    out[before + (slice(head, size),)] = tail
    return new_lo, out


def delta_derivative(f: GridFunction, order: int = 1) -> GridFunction:
    """Iterated forward difference quotient (f(sigma(t)) - f(t)) / mu(t).

    Each order consumes one point from the top of the window.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    out = f
    for _ in range(order):
        if out.hi - out.lo < 1:
            raise ValueError("window too small for another delta derivative")
        out = GridFunction(out.ts, out.lo, forward_quotient(out.values, out.ts, out.lo))
    return out


def shift(f: GridFunction, k: int) -> GridFunction:
    """Composition with sigma^k; negative k composes with rho^|k|
    (see shift_values for the window rules)."""
    if k == 0:
        return f
    new_lo, values = shift_values(f.values, 0, f.lo, len(f.ts), k)
    return GridFunction(f.ts, new_lo, _sealed(values))


def mixed(f: GridFunction, s: int, d: int) -> GridFunction:
    """Shift by sigma^s first, then apply d delta derivatives."""
    if d < 0:
        raise ValueError("derivative order must be >= 0")
    out = shift(f, s)
    if d:
        out = delta_derivative(out, d)
    return out


def window_integral(scales, lo, values: np.ndarray, _gaps: tuple | None = None) -> np.ndarray:
    """Delta integral of samples with a trailing component axis on the window
    at lo of a product of 1 to 4 time scales: cells at a scale maximum are
    dropped, the rest weighted by each axis's mu, one np.sum per component.
    The first product is the only copy, component-major in C order whatever
    the layout of values (a strided shift view, a transposed edge, a
    broadcast), so np.sum adds the same pairs every time; the others run in
    place.  On an axis of unit steps, where the product changes no bit, it
    is not taken, and a window of unit steps on every axis is summed from
    its C-order values, copied only when they are in another layout.
    `_gaps`, given, holds each axis's mu as a C-order table of the window's
    cell shape (multigrid's pattern workspace), read in place of the
    broadcast mu: the same products in the same order."""
    cells = tuple(slice(0, min(n, len(s) - 1 - l)) for s, l, n in zip(scales, lo, values.shape))
    view = weighted = np.moveaxis(values[cells], -1, 0)
    for ax, (s, l) in enumerate(zip(scales, lo)):
        if not s.unit_steps:
            shape = (weighted.shape[ax + 1],) + (1,) * (len(scales) - ax - 1)
            mu = np.diff(s.points[l : l + shape[0] + 1]).reshape(shape) if _gaps is None else _gaps[ax]
            weighted = np.multiply(weighted, mu, out=None if weighted is view else weighted, order="C")
    return np.array([np.sum(c) for c in np.ascontiguousarray(weighted)])


def delta_integral(f: GridFunction) -> np.ndarray:
    """Delta integral over the window of f: the sum of mu(i) * f(i) over its
    indices, the scale maximum (mu = 0) dropped.  To integrate from
    points[a] to points[b], restrict f to [a, b - 1] first."""
    return window_integral((f.ts,), (f.lo,), f.values)


def write_csv(f: GridFunction, path) -> None:
    """CSV with header t,y1..yn and the repr of each value, one row per
    window index; one %-format per block, so the text is never held whole."""
    table = np.column_stack((f.ts.points[f.lo : f.hi + 1], f.values))
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"y{k + 1}" for k in range(f.n)) + "\n")
        for i in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[i : i + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_csv(ts: TimeScale, path) -> GridFunction:
    """Read a GridFunction written by write_csv; each row must have the
    header's field count and its time t match its scale point p with
    |t - p| <= 1e-12 * max(|p|, mu(p)), mu(p) the gap to the next point (0
    at the scale maximum), the first row's time placing the window at its
    nearest point.  Rows are parsed CSV_BLOCK_ROWS lines at a time,
    and a block keeps only its value columns once its times match."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("t,"):
            raise ValueError(f"{path}: missing t,y1..yn header")
        width = header.count(",") + 1
        rows, blocks = enumerate(fh, start=2), []
        for lines in iter(lambda: list(islice(rows, CSV_BLOCK_ROWS)), []):
            fields = []
            for lineno, line in lines:
                row = line.split(",")
                if len(row) == width:
                    fields += row
                elif line.strip():
                    raise ValueError(f"{path}: line {lineno} has {len(row)} fields, the header has {width}")
            try:
                block = np.fromiter(map(float, fields), dtype=float, count=len(fields)).reshape(-1, width)
            except ValueError:
                bad = _bad_field((lineno, line.split(",")) for lineno, line in lines if line.strip())
                raise ValueError(f"{path}: {bad}") from None
            if not block.size:
                continue
            if not blocks:
                t0 = block[0, 0]
                lo = end = int(np.searchsorted(ts.points, t0))
                if lo == len(ts) or (lo > 0 and t0 - ts.points[lo - 1] < ts.points[lo] - t0):
                    lo = end = lo - 1  # the nearer point: t0 may sit just above it
            near = ts.points[end : end + len(block) + 1]  # the block's points and the next one
            pts, size, mu = near[: len(block)], np.abs(near[: len(block)]), np.diff(near)
            np.maximum(size[: mu.size], mu, out=size[: mu.size])  # max(|p|, mu(p)), mu 0 at the maximum
            if pts.size < len(block) or not np.all(np.abs(block[:, 0] - pts) <= 1e-12 * size):
                raise ValueError(f"{path}: CSV times do not match the scale points")
            blocks.append(block[:, 1:].copy())
            end += len(block)
    if not blocks:
        raise ValueError(f"{path}: empty grid function file")
    return GridFunction(ts, lo, _sealed(blocks[0] if len(blocks) == 1 else np.concatenate(blocks)))
