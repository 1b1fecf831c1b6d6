"""Piecewise Linear Coarsening (PLC) — paper Sec. 4.1, Eq. (8)-(9), Fig. 3.

The exact GHE transformation ``Phi`` has one breakpoint per grayscale level
(``O(|G|)`` segments), far too many for the reference-voltage driver.  The
PLC problem asks for the best approximation ``Lambda`` with a given number of
segments ``m``, where "best" means minimum mean squared error between the two
curves and the approximation's breakpoints must be a subset of the original
ones that keeps the first and last point (Eq. 8).

The paper solves PLC with the dynamic program of Eq. (9):

    E(n, m) = min_{j in 1..n-1} ( E(j, m-1) + e(j) )

where ``e(j)`` is the squared error of replacing all original segments
between breakpoint ``j`` and breakpoint ``n`` by the single chord from
``p_j`` to ``p_n``.  The complexity is ``O(m n^2)``; the chord errors are
precomputed in ``O(n^2)`` with prefix sums, so the whole solver is fast
enough to run per frame.

Kernel layout: chord errors are computed for ``i < j`` only (cached
``triu_indices``, 1-D ``take`` from one stacked prefix table), the terms that
depend on ``x`` alone are cached per abscissa vector (a GHE curve's ``x`` is
always ``arange(n)``), and the DP runs on a transposed ``(j, i)`` table whose
forbidden triangle is filled once, so each step is a contiguous add plus a
row-wise ``argmin``/``min``.  Every entry keeps the per-element formula's
operations and their order, so results are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.transforms import LUTTransform, PiecewiseLinearTransform

__all__ = [
    "PiecewiseLinearCurve",
    "segment_error",
    "chord_error_matrix",
    "coarsen_curve",
    "coarsen_transform",
    "kband_spreading_function",
]


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """A piecewise-linear curve defined by its breakpoints.

    Attributes
    ----------
    x, y:
        Breakpoint coordinates; ``x`` strictly increasing.
    mean_squared_error:
        Mean squared error of this curve against the curve it approximates
        (0 for an exact curve).
    breakpoint_indices:
        Indices into the original breakpoint set (Eq. 8's requirement that
        ``Q`` is a subset of ``P``); empty tuple for curves not produced by
        coarsening.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    mean_squared_error: float = 0.0
    breakpoint_indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size or x.size < 2:
            raise ValueError("need matching 1-D breakpoint arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x breakpoints must be strictly increasing")
        if self.mean_squared_error < 0:
            raise ValueError("mean squared error cannot be negative")
        object.__setattr__(self, "x", tuple(float(v) for v in x))
        object.__setattr__(self, "y", tuple(float(v) for v in y))

    @property
    def n_points(self) -> int:
        """Number of breakpoints."""
        return len(self.x)

    @property
    def n_segments(self) -> int:
        """Number of linear segments (``n_points - 1``)."""
        return len(self.x) - 1

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate the curve by linear interpolation (flat extrapolation)."""
        result = np.interp(np.asarray(x, dtype=np.float64), self.x, self.y)
        return float(result) if np.isscalar(x) else result

    def slopes(self) -> np.ndarray:
        """Slope of every segment."""
        x = np.asarray(self.x)
        y = np.asarray(self.y)
        return np.diff(y) / np.diff(x)

    def is_monotone(self) -> bool:
        """Whether the curve is non-decreasing."""
        return bool(np.all(np.diff(np.asarray(self.y)) >= -1e-12))

    @classmethod
    def from_lut(cls, lut: LUTTransform, levels: int | None = None
                 ) -> "PiecewiseLinearCurve":
        """Exact curve of a per-level LUT: one breakpoint per grayscale level.

        ``x`` runs over the integer levels and ``y`` over the LUT outputs
        scaled to levels (the set ``P`` of Eq. 8).
        """
        n = lut.levels if levels is None else levels
        x = np.arange(n, dtype=np.float64)
        y = np.asarray(lut.table, dtype=np.float64) * (n - 1)
        return cls(tuple(x), tuple(y), 0.0, tuple(range(n)))


def segment_error(x: Sequence[float], y: Sequence[float], start: int,
                  end: int) -> float:
    """Squared error of replacing points ``start..end`` by a single chord.

    This is the paper's ``e(j)`` (with ``start = j`` and ``end = n``): the
    chord runs from ``(x[start], y[start])`` to ``(x[end], y[end])`` and the
    error is the sum of squared vertical deviations of the intermediate
    original points from the chord.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not 0 <= start < end < x.size:
        raise ValueError(f"invalid chord indices ({start}, {end}) for {x.size} points")
    xs, ys = x[start:end + 1], y[start:end + 1]
    slope = (ys[-1] - ys[0]) / (xs[-1] - xs[0])
    predicted = ys[0] + slope * (xs - xs[0])
    return float(np.sum((ys - predicted) ** 2))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays`` made read-only: cached tables are shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=4)
def _chord_indices(n: int) -> tuple[np.ndarray, ...]:
    """Index tables of the ``n (n - 1) / 2`` chords ``i < j``, row-major.

    Returns the chord starts and ends, ``end + 1`` (where each chord's
    prefix-sum window ends), the positions of the adjacent chords
    (``j = i + 1``) and each chord's flat position in the transposed
    ``(j, i)`` DP table.
    """
    start, end = np.triu_indices(n, 1)
    return _frozen(start, end, end + 1, np.flatnonzero(end == start + 1),
                   end * n + start)


@lru_cache(maxsize=4)
def _abscissa_terms(x_bytes: bytes) -> tuple[np.ndarray, ...]:
    """The chord-error terms that depend on ``x`` only, per chord.

    Keyed on the abscissas' bytes: a GHE curve's ``x`` is always
    ``arange(n)``, so per-frame solves compute these once.
    """
    x = np.frombuffer(x_bytes, dtype=np.float64)
    start, end, window_end = _chord_indices(x.size)[:3]
    prefix = np.zeros((2, x.size + 1))
    np.cumsum(np.stack([x, x * x]), axis=1, out=prefix[:, 1:])
    sum_x, sum_xx = prefix.take(window_end, axis=1) - prefix.take(start, axis=1)
    count = (end - start + 1).astype(np.float64)
    x_i = x[start]
    with np.errstate(over="ignore", invalid="ignore"):
        x_span = x[end] - x_i
        sum_b2 = sum_xx - 2.0 * x_i * sum_x + count * x_i * x_i
        count_x = count * x_i
    return _frozen(count, x_i, x_span, sum_x, sum_b2, count_x)


def _upper_chord_errors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Chord errors of every ``i < j`` in ``np.triu_indices(n, 1)`` order."""
    n = x.size
    start, end, window_end, adjacent, _ = _chord_indices(n)
    count, x_i, x_span, sum_x, sum_b2, count_x = _abscissa_terms(x.tobytes())
    prefix = np.zeros((3, n + 1))
    np.cumsum(np.stack([y, y * y, x * y]), axis=1, out=prefix[:, 1:])
    sums = prefix.take(window_end, axis=1)
    sums -= prefix.take(start, axis=1)
    sum_y, sum_yy, sum_xy = sums

    # The chord error of every pair, evaluated in place (chord-sized
    # temporaries dominate the cost otherwise) with every product and sum in
    # the order of the plain expressions, so the result is bit-identical:
    #   slope  = (y_j - y_i) / (x_j - x_i)
    #   sum_a2 = sum_yy - 2 y_i sum_y + count y_i y_i
    #   sum_ab = sum_xy - x_i sum_y - y_i sum_x + (count x_i) y_i
    #   errors = sum_a2 - 2 slope sum_ab + slope slope sum_b2
    y_i, slope = y.take(start), y.take(end)
    term = np.empty_like(y_i)
    mul = np.multiply
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope -= y_i
        slope /= x_span
        sum_a2 = sum_yy
        sum_a2 -= mul(mul(2.0, y_i, out=term), sum_y, out=term)
        sum_a2 += mul(mul(count, y_i, out=term), y_i, out=term)
        sum_ab = sum_xy
        sum_ab -= mul(x_i, sum_y, out=term)
        sum_ab -= mul(y_i, sum_x, out=term)
        sum_ab += mul(count_x, y_i, out=term)
        errors = sum_a2
        errors -= mul(mul(2.0, slope, out=term), sum_ab, out=term)
        errors += mul(mul(slope, slope, out=term), sum_b2, out=term)

    # Adjacent breakpoints form a chord with no interior points: the error is
    # exactly zero, but the formula above can produce 0 * inf = nan when two
    # x values are almost coincident (huge slope).  Force the exact value.
    errors[adjacent] = 0.0
    # Any other non-finite entry (overflowing slope across a near-duplicate
    # abscissa) is treated as an unusable chord.
    errors[~np.isfinite(errors)] = np.inf
    return np.maximum(errors, 0.0, out=errors)  # clamp tiny negative round-off


def chord_error_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs chord errors ``err[i, j]`` for ``i < j`` in ``O(n^2)``.

    Uses prefix sums of ``y``, ``y^2``, ``x``, ``x^2`` and ``x*y`` so each
    entry costs O(1): with ``a_k = y_k - y_i`` and ``b_k = x_k - x_i`` the
    chord error is ``sum a_k^2 - 2 s sum a_k b_k + s^2 sum b_k^2`` where
    ``s`` is the chord slope.  Entries with ``i >= j`` are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    start, end = _chord_indices(x.size)[:2]
    matrix = np.zeros((x.size, x.size))
    matrix[start, end] = _upper_chord_errors(x, y)
    return matrix


def coarsen_curve(curve: PiecewiseLinearCurve, n_segments: int
                  ) -> PiecewiseLinearCurve:
    """Solve the PLC problem: best subset approximation with <= ``n_segments``.

    Implements the dynamic program of Eq. (9) with the endpoint constraints
    of Eq. (8): the result keeps the first and last breakpoint of ``curve``,
    selects its interior breakpoints from the original set, and minimizes the
    summed squared vertical error at the original breakpoints.  The reported
    error is the *mean* squared error over the original breakpoints (the
    paper's objective).

    One refinement over the paper's statement: the segment budget is treated
    as an upper bound ("at most m") rather than an exact count.  Because the
    approximation must pass through original breakpoints, forcing an extra
    breakpoint can occasionally *increase* the error; the hardware constraint
    (number of controllable voltage sources) is an upper bound anyway.
    """
    if n_segments < 1:
        raise ValueError("need at least one segment")
    x = np.asarray(curve.x, dtype=np.float64)
    y = np.asarray(curve.y, dtype=np.float64)
    n = x.size
    if n_segments >= n - 1:
        # The curve already has at most the requested number of segments.
        return PiecewiseLinearCurve(curve.x, curve.y, 0.0,
                                    tuple(range(n)))

    # chords[j, i]: error of the chord i -> j; infinite unless i < j.
    chords = np.full((n, n), np.inf)
    chords.ravel()[_chord_indices(n)[4]] = _upper_chord_errors(x, y)

    # cost[s, j]: minimal summed error covering breakpoints 0..j with exactly
    # s chords ending at breakpoint j; parent[s, j] is the chord's start.
    cost = np.full((n_segments + 1, n), np.inf)
    parent = np.full((n_segments + 1, n), -1, dtype=np.int64)
    cost[0, 0] = 0.0
    candidate = np.empty_like(chords)
    for s in range(1, n_segments + 1):
        # candidate[j, i] = cost of reaching i with s-1 chords + chord i->j
        np.add(chords, cost[s - 1], out=candidate)
        parent[s] = np.argmin(candidate, axis=1)
        np.min(candidate, axis=1, out=cost[s])

    # Use *at most* n_segments chords: because the approximation must
    # interpolate a subset of the original breakpoints (Eq. 8), adding a
    # breakpoint can occasionally increase the error, so the best segment
    # count may be smaller than the budget.  The hardware constraint is an
    # upper bound on the segment count, so picking fewer is always legal.
    final_costs = cost[1:, n - 1]
    if not np.any(np.isfinite(final_costs)):
        raise RuntimeError("PLC dynamic program failed to reach the last point")
    best_segments = int(np.argmin(final_costs)) + 1
    total_error = float(final_costs[best_segments - 1])

    # backtrack the chosen breakpoints
    indices = [n - 1]
    node, s = n - 1, best_segments
    while s > 0:
        node = int(parent[s, node])
        indices.append(node)
        s -= 1
    indices.reverse()

    selected_x = tuple(float(x[i]) for i in indices)
    selected_y = tuple(float(y[i]) for i in indices)
    return PiecewiseLinearCurve(
        selected_x,
        selected_y,
        mean_squared_error=float(total_error) / n,
        breakpoint_indices=tuple(indices),
    )


def coarsen_transform(transform: LUTTransform, n_segments: int
                      ) -> PiecewiseLinearCurve:
    """Coarsen an exact GHE LUT transform directly (convenience wrapper)."""
    return coarsen_curve(PiecewiseLinearCurve.from_lut(transform), n_segments)


def kband_spreading_function(curve: PiecewiseLinearCurve,
                             levels: int = 256) -> PiecewiseLinearTransform:
    """Convert a coarsened curve into a normalized k-band transform (Fig. 3).

    The curve's breakpoints (in grayscale levels) are normalized to ``[0, 1]``
    and wrapped in a :class:`PiecewiseLinearTransform` that can be applied to
    images or programmed into the hierarchical reference driver.
    """
    if not curve.is_monotone():
        raise ValueError("a grayscale-spreading function must be monotone")
    scale = float(levels - 1)
    x = np.clip(np.asarray(curve.x) / scale, 0.0, 1.0)
    y = np.clip(np.asarray(curve.y) / scale, 0.0, 1.0)
    # guard against duplicate normalized x after clipping
    x = np.maximum.accumulate(x)
    keep = np.concatenate([[True], np.diff(x) > 0])
    return PiecewiseLinearTransform(tuple(x[keep]), tuple(y[keep]))
