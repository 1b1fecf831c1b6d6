"""Structural SIMilarity index (Wang, Bovik, Sheikh, Simoncelli 2004).

The paper cites SSIM (its ref. [6]) as the state-of-the-art perceptual
quality measure and names "alternative distortion measures" as future work
(Sec. 6).  We implement it so the ablation benchmark can swap the distortion
basis of the characteristic curve between UQI, SSIM and the naive measures.

SSIM generalizes the UQI by adding the stabilizing constants C1 and C2:

    SSIM = (2 mu_x mu_y + C1)(2 sigma_xy + C2) /
           ((mu_x^2 + mu_y^2 + C1)(sigma_x^2 + sigma_y^2 + C2))

computed on a sliding window (the reference implementation uses a Gaussian
window; we use the same uniform window as our UQI so the two are directly
comparable, which is the configuration the ablation cares about).
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image
from repro.quality.uqi import _window_moments

__all__ = ["ssim", "ssim_map"]


def ssim_map(original: Image, transformed: Image, window: int = 8,
             k1: float = 0.01, k2: float = 0.03) -> np.ndarray:
    """Per-window SSIM map (valid windows only).

    Parameters
    ----------
    original, transformed:
        Images of identical shape; RGB inputs are converted to grayscale.
    window:
        Side of the square sliding window.
    k1, k2:
        Stabilizing constants of the SSIM definition (defaults from the
        original paper); the dynamic range L is 1 because we operate on
        normalized pixel values.
    """
    c1 = (k1 * 1.0) ** 2
    c2 = (k2 * 1.0) ** 2
    n = float(window * window)
    sum_x, sum_y, sum_xx, sum_yy, sum_xy = _window_moments(
        original, transformed, window)

    mean_x = sum_x / n
    mean_y = sum_y / n
    var_x = sum_xx / n - mean_x**2
    var_y = sum_yy / n - mean_y**2
    cov_xy = sum_xy / n - mean_x * mean_y

    numerator = (2.0 * mean_x * mean_y + c1) * (2.0 * cov_xy + c2)
    denominator = (mean_x**2 + mean_y**2 + c1) * (var_x + var_y + c2)
    return numerator / denominator


def ssim(original: Image, transformed: Image, window: int = 8,
         k1: float = 0.01, k2: float = 0.03) -> float:
    """Global SSIM: the mean of the sliding-window SSIM map (in ``[-1, 1]``)."""
    return float(np.mean(ssim_map(original, transformed, window=window,
                                  k1=k1, k2=k2)))
