"""Frozen reference copies of the PLC and distortion kernels.

These are the chord-error matrix, the PLC dynamic program and the
effective-distortion measure (with the UQI, variance-gain, window-pooling and
HVS-weight helpers they call) exactly as they were before the kernels were
rewritten for speed.  ``test_kernel_parity.py`` asserts that the library's
kernels still return bit-identical results.  Do not edit the function bodies:
their floating-point evaluation order is what the parity tests pin.

The one adaptation is structural: the HVS methods live on
:class:`ReferenceHVSModel`, a subclass of the library's
:class:`~repro.quality.hvs.HVSModel`, so the reference
:func:`effective_distortion` (which says ``HVSModel()``) builds its weights
with the frozen code.
"""

from __future__ import annotations

import numpy as np

from repro.core.plc import PiecewiseLinearCurve
from repro.imaging.image import Image
from repro.quality import hvs as _hvs

#: Numerical guard used when both denominators vanish (flat windows).
_EPSILON = 1e-12

LUMINANCE_ADAPTATION_EXPONENT = 0.15
CONTRAST_LOSS_EXPONENT = 0.40


def chord_error_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-pairs chord errors ``err[i, j]`` for ``i < j`` in ``O(n^2)``.

    Uses prefix sums of ``y``, ``y^2``, ``x``, ``x^2`` and ``x*y`` so each
    entry costs O(1): with ``a_k = y_k - y_i`` and ``b_k = x_k - x_i`` the
    chord error is ``sum a_k^2 - 2 s sum a_k b_k + s^2 sum b_k^2`` where
    ``s`` is the chord slope.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    prefix = {
        "y": np.concatenate([[0.0], np.cumsum(y)]),
        "yy": np.concatenate([[0.0], np.cumsum(y * y)]),
        "x": np.concatenate([[0.0], np.cumsum(x)]),
        "xx": np.concatenate([[0.0], np.cumsum(x * x)]),
        "xy": np.concatenate([[0.0], np.cumsum(x * y)]),
    }

    def window_sum(table: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # inclusive sum over indices i..j
        return table[j + 1] - table[i]

    i_index, j_index = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    valid = j_index > i_index
    i_flat = i_index[valid]
    j_flat = j_index[valid]

    count = (j_flat - i_flat + 1).astype(np.float64)
    sum_y = window_sum(prefix["y"], i_flat, j_flat)
    sum_yy = window_sum(prefix["yy"], i_flat, j_flat)
    sum_x = window_sum(prefix["x"], i_flat, j_flat)
    sum_xx = window_sum(prefix["xx"], i_flat, j_flat)
    sum_xy = window_sum(prefix["xy"], i_flat, j_flat)

    x_i, y_i = x[i_flat], y[i_flat]
    x_j, y_j = x[j_flat], y[j_flat]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = (y_j - y_i) / (x_j - x_i)

        sum_a2 = sum_yy - 2.0 * y_i * sum_y + count * y_i * y_i
        sum_b2 = sum_xx - 2.0 * x_i * sum_x + count * x_i * x_i
        sum_ab = sum_xy - x_i * sum_y - y_i * sum_x + count * x_i * y_i

        errors = sum_a2 - 2.0 * slope * sum_ab + slope * slope * sum_b2

    # Adjacent breakpoints form a chord with no interior points: the error is
    # exactly zero, but the formula above can produce 0 * inf = nan when two
    # x values are almost coincident (huge slope).  Force the exact value.
    errors = np.where(j_flat == i_flat + 1, 0.0, errors)
    # Any other non-finite entry (overflowing slope across a near-duplicate
    # abscissa) is treated as an unusable chord.
    errors = np.where(np.isfinite(errors), errors, np.inf)

    matrix = np.zeros((n, n), dtype=np.float64)
    matrix[valid] = np.maximum(errors, 0.0)  # clamp tiny negative round-off
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

    errors = chord_error_matrix(x, y)

    # cost[j, s]: minimal summed error covering breakpoints 0..j with exactly
    # s chords ending at breakpoint j.
    infinity = np.inf
    cost = np.full((n, n_segments + 1), infinity)
    parent = np.full((n, n_segments + 1), -1, dtype=np.int64)
    cost[0, 0] = 0.0
    for s in range(1, n_segments + 1):
        previous = cost[:, s - 1]
        # candidate[i, j] = cost of reaching i with s-1 chords + chord i->j
        candidate = previous[:, None] + errors
        candidate[np.tril_indices(n)] = infinity  # only i < j allowed
        best_parent = np.argmin(candidate, axis=0)
        best_cost = candidate[best_parent, np.arange(n)]
        cost[:, s] = best_cost
        parent[:, s] = best_parent

    # Use *at most* n_segments chords: because the approximation must
    # interpolate a subset of the original breakpoints (Eq. 8), adding a
    # breakpoint can occasionally increase the error, so the best segment
    # count may be smaller than the budget.  The hardware constraint is an
    # upper bound on the segment count, so picking fewer is always legal.
    final_costs = cost[n - 1, 1:n_segments + 1]
    if not np.any(np.isfinite(final_costs)):
        raise RuntimeError("PLC dynamic program failed to reach the last point")
    best_segments = int(np.argmin(final_costs)) + 1
    total_error = float(final_costs[best_segments - 1])

    # backtrack the chosen breakpoints
    indices = [n - 1]
    node, s = n - 1, best_segments
    while s > 0:
        node = int(parent[node, s])
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


def _sliding_window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum of ``values`` over every ``window x window`` patch (valid mode).

    Implemented with a 2-D summed-area table so the whole UQI map is
    O(H*W) instead of O(H*W*window^2).
    """
    padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=np.float64)
    padded[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
    return (
        padded[window:, window:]
        - padded[:-window, window:]
        - padded[window:, :-window]
        + padded[:-window, :-window]
    )


def uqi_components_map(original: Image, transformed: Image, window: int = 8
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-window UQI factors: ``(correlation, luminance, contrast)``.

    The Wang-Bovik index is the product of three factors measured on each
    sliding window:

    * **correlation** ``sigma_xy / (sigma_x sigma_y)`` — structural
      similarity; 1 when the window contents are linearly related,
    * **luminance** ``2 mu_x mu_y / (mu_x^2 + mu_y^2)`` — closeness of the
      mean intensities,
    * **contrast** ``2 sigma_x sigma_y / (sigma_x^2 + sigma_y^2)`` —
      closeness of the local contrasts.

    The decomposition is what the paper's HVS-aware "effective distortion"
    needs: the human eye largely adapts to global luminance and contrast
    changes (that is the very premise of backlight compensation), so those
    two factors are discounted while structural loss is charged in full (see
    :func:`repro.quality.distortion.effective_distortion`).

    Flat windows are handled with the Wang-Bovik conventions: if both
    windows are flat the correlation and contrast are taken as 1; if exactly
    one is flat the correlation and contrast are 0 (all structure lost).
    """
    if original.shape != transformed.shape:
        raise ValueError(
            f"image shapes differ: {original.shape} vs {transformed.shape}"
        )
    reference = original.to_grayscale().as_float()
    candidate = transformed.to_grayscale().as_float()
    if window < 2:
        raise ValueError("window must be at least 2 pixels")
    if window > min(reference.shape):
        raise ValueError(
            f"window ({window}) larger than image ({reference.shape})"
        )

    n = float(window * window)
    sum_x = _sliding_window_sums(reference, window)
    sum_y = _sliding_window_sums(candidate, window)
    sum_xx = _sliding_window_sums(reference * reference, window)
    sum_yy = _sliding_window_sums(candidate * candidate, window)
    sum_xy = _sliding_window_sums(reference * candidate, window)

    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = np.maximum(sum_xx / n - mean_x**2, 0.0)
    var_y = np.maximum(sum_yy / n - mean_y**2, 0.0)
    cov_xy = sum_xy / n - mean_x * mean_y
    std_x = np.sqrt(var_x)
    std_y = np.sqrt(var_y)

    both_flat = (var_x < _EPSILON) & (var_y < _EPSILON)
    one_flat = ((var_x < _EPSILON) ^ (var_y < _EPSILON))

    correlation = np.ones_like(mean_x)
    generic = ~both_flat & ~one_flat
    correlation[generic] = cov_xy[generic] / (std_x[generic] * std_y[generic])
    correlation[one_flat] = 0.0
    correlation = np.clip(correlation, -1.0, 1.0)

    luminance = np.ones_like(mean_x)
    lum_defined = mean_x**2 + mean_y**2 >= _EPSILON
    luminance[lum_defined] = (
        2.0 * mean_x[lum_defined] * mean_y[lum_defined]
        / (mean_x[lum_defined] ** 2 + mean_y[lum_defined] ** 2)
    )

    contrast = np.ones_like(mean_x)
    contrast[generic] = (
        2.0 * std_x[generic] * std_y[generic]
        / (var_x[generic] + var_y[generic])
    )
    contrast[one_flat] = 0.0

    return correlation, luminance, contrast


def _windowed_weights(weights: np.ndarray, window: int) -> np.ndarray:
    """Down-sample a per-pixel weight map to the per-window quality grid.

    The UQI/SSIM maps are defined on valid sliding windows; each window is
    weighted by the per-pixel HVS weight at its top-left anchor averaged over
    the window extent (a cheap but adequate pooling).
    """
    out_h = weights.shape[0] - window + 1
    out_w = weights.shape[1] - window + 1
    padded = np.zeros((weights.shape[0] + 1, weights.shape[1] + 1))
    padded[1:, 1:] = np.cumsum(np.cumsum(weights, axis=0), axis=1)
    sums = (
        padded[window:, window:]
        - padded[:-window, window:]
        - padded[window:, :-window]
        + padded[:-window, :-window]
    )
    return sums[:out_h, :out_w] / float(window * window)


def _box_blur(values: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur with edge replication (no external dependencies)."""
    if radius <= 0:
        return values.copy()
    kernel = 2 * radius + 1
    padded = np.pad(values, radius, mode="edge")
    # horizontal pass via cumulative sums
    csum = np.cumsum(padded, axis=1)
    horizontal = np.empty_like(values, dtype=np.float64)
    horizontal = (
        csum[:, kernel - 1:]
        - np.concatenate(
            [np.zeros((csum.shape[0], 1)), csum[:, :-kernel]], axis=1
        )
    ) / kernel
    horizontal = horizontal[radius:-radius, :] if radius else horizontal
    # vertical pass
    padded_v = np.pad(horizontal, ((radius, radius), (0, 0)), mode="edge")
    csum_v = np.cumsum(padded_v, axis=0)
    vertical = (
        csum_v[kernel - 1:, :]
        - np.concatenate(
            [np.zeros((1, csum_v.shape[1])), csum_v[:-kernel, :]], axis=0
        )
    ) / kernel
    return vertical


class ReferenceHVSModel(_hvs.HVSModel):
    """The library's HVS model with the frozen weight computation."""

    def background_luminance(self, image: Image) -> np.ndarray:
        """Local background luminance estimate in ``[0, 1]`` per pixel."""
        values = image.to_grayscale().as_float()
        return _box_blur(values, self.neighborhood_radius)

    def local_activity(self, image: Image) -> np.ndarray:
        """Local activity (texture) estimate in ``[0, 1]`` per pixel.

        Measured as the locally averaged absolute deviation from the local
        mean — a cheap stand-in for local contrast energy.
        """
        values = image.to_grayscale().as_float()
        background = _box_blur(values, self.neighborhood_radius)
        deviation = np.abs(values - background)
        return np.clip(_box_blur(deviation, self.neighborhood_radius) * 4.0,
                       0.0, 1.0)

    def weights(self, image: Image) -> np.ndarray:
        """Per-pixel perceptual weight in ``[floor, 1]``.

        High weight means an error at that pixel is highly visible (dark,
        flat regions); low weight means it is partially masked (bright or
        busy regions).
        """
        luminance = self.background_luminance(image)
        activity = self.local_activity(image)
        adaptation = 1.0 / (1.0 + self.adaptation_strength * luminance)
        masking = 1.0 / (1.0 + self.masking_strength * activity)
        weights = adaptation * masking
        # normalize so the most visible region has weight exactly 1
        weights = weights / weights.max()
        return np.clip(weights, self.floor, 1.0)


#: The frozen measure below builds its default model with the frozen code.
HVSModel = ReferenceHVSModel


def effective_distortion(original: Image, transformed: Image,
                         window: int = 8,
                         hvs_model: HVSModel | None = None,
                         luminance_exponent: float = LUMINANCE_ADAPTATION_EXPONENT,
                         contrast_loss_exponent: float = CONTRAST_LOSS_EXPONENT,
                         ) -> float:
    """The paper's distortion rate, in percent.

    The measure combines "the mathematical difference between pixel values"
    (the Wang-Bovik UQI factors) with "a model of the human visual system"
    (Sec. 2) in three ways:

    1. **Structure first.**  The UQI of every sliding window is decomposed
       into correlation (structure), luminance and contrast factors.  The
       correlation factor — whether the local detail survives at all — is
       charged in full: grayscale-level collapse, flat-band clipping and
       saturation destroy it.
    2. **Adaptation.**  The eye adapts to smooth global luminance and
       contrast remapping — which is exactly what a monotone
       backlight-compensation transform produces, and what a display's own
       brightness/contrast controls change — so the luminance factor enters
       with a small exponent, and the contrast factor is charged only where
       local contrast is *lost* (``sigma_out < sigma_in``); pure contrast
       *enhancement* (what histogram equalization does in densely populated
       grayscale regions) is treated as visually benign.
    3. **Visibility weighting.**  Every window is weighted by the HVS
       visibility of its neighbourhood in the *original* image (Weber
       luminance adaptation + texture masking): errors in dark, flat regions
       count more than errors in bright or busy regions.

    The weighted mean quality ``Q_w`` is reported as ``100 * (1 - Q_w)``
    percent.

    Returns
    -------
    float
        Distortion rate; 0 for identical images, a few percent for mild
        dynamic-range compression, tens of percent when most grayscale
        levels have collapsed.
    """
    if not 0.0 <= luminance_exponent <= 1.0:
        raise ValueError("luminance_exponent must be in [0, 1]")
    if not 0.0 <= contrast_loss_exponent <= 1.0:
        raise ValueError("contrast_loss_exponent must be in [0, 1]")
    correlation, luminance, contrast = uqi_components_map(
        original, transformed, window=window)
    structure = np.clip(correlation, 0.0, 1.0)
    luminance = np.clip(luminance, 0.0, 1.0) ** luminance_exponent

    # Contrast is only charged where it was lost.  The Wang-Bovik contrast
    # factor 2*sx*sy/(sx^2+sy^2) is symmetric in gain and loss, so detect
    # loss separately: wherever the transformed window is *more* contrasty
    # than the original the factor is forced to 1 (full adaptation).
    contrast = np.clip(contrast, 0.0, 1.0)
    variance_gain = _local_variance_gain(original, transformed, window)
    contrast = np.where(variance_gain >= 1.0, 1.0, contrast)
    contrast = contrast ** contrast_loss_exponent

    quality = structure * luminance * contrast

    weights = (hvs_model or HVSModel()).weights(original)
    pooled_weights = _windowed_weights(weights, window)
    weighted_quality = float(
        np.sum(quality * pooled_weights) / np.sum(pooled_weights)
    )
    return max(0.0, 100.0 * (1.0 - weighted_quality))


def _local_variance_gain(original: Image, transformed: Image,
                         window: int) -> np.ndarray:
    """Per-window ratio of transformed to original pixel variance.

    Values >= 1 mean the transformation locally *increased* contrast
    (enhancement); values < 1 mean contrast was lost.  Flat original windows
    report a gain of 1 (nothing to lose).
    """
    reference = original.to_grayscale().as_float()
    candidate = transformed.to_grayscale().as_float()
    n = float(window * window)

    def _window_variance(values: np.ndarray) -> np.ndarray:
        padded = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
        padded[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
        sums = (padded[window:, window:] - padded[:-window, window:]
                - padded[window:, :-window] + padded[:-window, :-window])
        padded_sq = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
        padded_sq[1:, 1:] = np.cumsum(np.cumsum(values * values, axis=0), axis=1)
        sums_sq = (padded_sq[window:, window:] - padded_sq[:-window, window:]
                   - padded_sq[window:, :-window] + padded_sq[:-window, :-window])
        return np.maximum(sums_sq / n - (sums / n) ** 2, 0.0)

    var_x = _window_variance(reference)
    var_y = _window_variance(candidate)
    gain = np.ones_like(var_x)
    nonzero = var_x > 1e-12
    gain[nonzero] = var_y[nonzero] / var_x[nonzero]
    return gain
