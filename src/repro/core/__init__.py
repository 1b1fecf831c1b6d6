"""The paper's primary contribution: Histogram Equalization for Backlight Scaling.

Modules
-------
* :mod:`~repro.core.histogram` — marginal and cumulative image histograms,
  uniform target histograms (Sec. 4 footnote 3), histogram statistics.
* :mod:`~repro.core.transforms` — the pixel-transformation-function family
  of Fig. 2 plus generic LUT / piecewise-linear transforms.
* :mod:`~repro.core.equalization` — the Global Histogram Equalization (GHE)
  solver, Eq. (4)-(7).
* :mod:`~repro.core.plc` — Piecewise Linear Coarsening via dynamic
  programming, Eq. (8)-(9), and the k-band grayscale-spreading function.
* :mod:`~repro.core.distortion_curve` — the distortion characteristic curve
  (Sec. 3 / 5.1c) that maps a distortion budget to a minimum admissible
  dynamic range.
* :mod:`~repro.core.pipeline` — the end-to-end HEBS flow of Fig. 4.
* :mod:`~repro.core.color` — applying the pipeline to RGB images (Sec. 2's
  colour-LCD discussion).
* :mod:`~repro.core.temporal` — the flicker-free building blocks of
  frame-stream control (smoothing, rolling histograms, scene-change
  detection) that :class:`~repro.api.session.StreamSession` drives.
* :mod:`~repro.core.equalization_variants` — alternative equalization
  methods (clipped / bi-histogram), the paper's stated future work.
"""

from repro.core.histogram import Histogram, CumulativeHistogram, uniform_cumulative
from repro.core.transforms import (
    PixelTransform,
    IdentityTransform,
    GrayscaleShiftTransform,
    GrayscaleSpreadTransform,
    SingleBandSpreadTransform,
    PiecewiseLinearTransform,
    LUTTransform,
)
from repro.core.equalization import (
    GHEResult,
    equalize_histogram,
    equalization_transform,
    equalization_objective,
)
from repro.core.plc import (
    PiecewiseLinearCurve,
    coarsen_curve,
    segment_error,
    kband_spreading_function,
)
from repro.core.distortion_curve import (
    DistortionCharacteristicCurve,
    DistortionSample,
    build_distortion_curve,
)
from repro.core.pipeline import HEBS, HEBSConfig, HEBSResult
from repro.core.color import ColorHEBS, ColorHEBSResult
from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
)
from repro.core.equalization_variants import (
    clipped_equalization,
    bi_histogram_equalization,
    available_equalizers,
    get_equalizer,
)

__all__ = [
    "Histogram",
    "CumulativeHistogram",
    "uniform_cumulative",
    "PixelTransform",
    "IdentityTransform",
    "GrayscaleShiftTransform",
    "GrayscaleSpreadTransform",
    "SingleBandSpreadTransform",
    "PiecewiseLinearTransform",
    "LUTTransform",
    "GHEResult",
    "equalize_histogram",
    "equalization_transform",
    "equalization_objective",
    "PiecewiseLinearCurve",
    "coarsen_curve",
    "segment_error",
    "kband_spreading_function",
    "DistortionCharacteristicCurve",
    "DistortionSample",
    "build_distortion_curve",
    "HEBS",
    "HEBSConfig",
    "HEBSResult",
    "ColorHEBS",
    "ColorHEBSResult",
    "BacklightSmoother",
    "RollingHistogram",
    "SceneChangeDetector",
    "clipped_equalization",
    "bi_histogram_equalization",
    "available_equalizers",
    "get_equalizer",
]
