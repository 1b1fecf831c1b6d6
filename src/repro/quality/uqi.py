"""Universal image Quality Index (Wang & Bovik, 2002) — the paper's ref. [8].

The paper adopts the UQI as the distortion basis for its distortion
characteristic curve (Sec. 5.1c).  The index factors image quality into three
components measured on a sliding window: loss of correlation, luminance
distortion, and contrast distortion:

    Q = [ sigma_xy / (sigma_x sigma_y) ]
        * [ 2 mean_x mean_y / (mean_x^2 + mean_y^2) ]
        * [ 2 sigma_x sigma_y / (sigma_x^2 + sigma_y^2) ]

which collapses to the single expression

    Q = 4 sigma_xy mean_x mean_y /
        ( (sigma_x^2 + sigma_y^2) (mean_x^2 + mean_y^2) )

Q lies in ``[-1, 1]`` with 1 meaning the images are identical up to the
window statistics.  Following the original paper the global index is the
average of the window indices computed on a sliding window (default 8x8).
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image

__all__ = ["universal_quality_index", "uqi_map", "uqi_components_map"]

#: Numerical guard used when both denominators vanish (flat windows).
_EPSILON = 1e-12


def _window_moments(original: Image, transformed: Image, window: int,
                    *extra: np.ndarray) -> np.ndarray:
    """Window sums of ``x``, ``y``, ``x^2``, ``y^2``, ``xy`` and ``extra``.

    ``x`` and ``y`` are the grayscale pixel values of ``original`` and
    ``transformed`` in ``[0, 1]``; ``extra`` planes of the same shape ride
    along.  Every plane is summed over every ``window x window`` patch (valid
    mode) in one pass through a stacked 2-D summed-area table, so a quality
    map costs O(H*W) per plane instead of O(H*W*window^2).  Returns a
    ``(5 + len(extra), H - window + 1, W - window + 1)`` stack.
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
    # The summed-area table of every plane, built in place: row 0 and
    # column 0 of ``padded`` stay zero.
    height, width = reference.shape
    padded = np.zeros((5 + len(extra), height + 1, width + 1))
    table = padded[:, 1:, 1:]
    table[0], table[1] = reference, candidate
    np.multiply(reference, reference, out=table[2])
    np.multiply(candidate, candidate, out=table[3])
    np.multiply(reference, candidate, out=table[4])
    if extra:
        table[5:] = extra
    np.cumsum(table, axis=1, out=table)
    np.cumsum(table, axis=2, out=table)
    sums = padded[:, window:, window:] - padded[:, :-window, window:]
    sums -= padded[:, window:, :-window]
    sums += padded[:, :-window, :-window]
    return sums


def uqi_map(original: Image, transformed: Image, window: int = 8) -> np.ndarray:
    """Per-window quality index map (valid windows only).

    Parameters
    ----------
    original, transformed:
        Images of identical shape.  RGB images are converted to grayscale.
    window:
        Side of the square sliding window; the original paper uses 8.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(H - window + 1, W - window + 1)`` with the local
        quality index of every window.
    """
    n = float(window * window)
    sum_x, sum_y, sum_xx, sum_yy, sum_xy = _window_moments(
        original, transformed, window)

    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = sum_xx / n - mean_x**2
    var_y = sum_yy / n - mean_y**2
    cov_xy = sum_xy / n - mean_x * mean_y

    numerator = 4.0 * cov_xy * mean_x * mean_y
    denominator = (var_x + var_y) * (mean_x**2 + mean_y**2)

    quality = np.ones_like(numerator)
    # Case 1: both denominater factors are ~0 (flat and dark windows in both
    # images) -> identical statistics -> quality 1 (handled by the init).
    # Case 2: variances vanish but means do not -> only the luminance term
    # survives (the Wang-Bovik convention).
    luminance_only = (var_x + var_y < _EPSILON) & (mean_x**2 + mean_y**2 >= _EPSILON)
    quality[luminance_only] = (
        2.0 * mean_x[luminance_only] * mean_y[luminance_only]
        / (mean_x[luminance_only] ** 2 + mean_y[luminance_only] ** 2)
    )
    # Case 3: the generic expression.
    generic = denominator >= _EPSILON
    quality[generic] = numerator[generic] / denominator[generic]
    return quality


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
    return _uqi_factors(_window_moments(original, transformed, window),
                        window)[:3]


def _uqi_factors(moments: np.ndarray, window: int) -> tuple[np.ndarray, ...]:
    """``(correlation, luminance, contrast, var_x, var_y)`` per window.

    ``moments`` starts with the five planes of :func:`_window_moments`.
    """
    n = float(window * window)
    sum_x, sum_y, sum_xx, sum_yy, sum_xy = moments[:5]

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

    return correlation, luminance, contrast, var_x, var_y


def universal_quality_index(original: Image, transformed: Image,
                            window: int = 8) -> float:
    """Global UQI: the mean of the sliding-window quality map.

    Returns a value in ``[-1, 1]``; 1 means the transformed image is
    statistically indistinguishable from the original at the window scale.
    """
    return float(np.mean(uqi_map(original, transformed, window=window)))
