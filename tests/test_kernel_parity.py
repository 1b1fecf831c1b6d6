"""The PLC and distortion kernels are bit-identical to their frozen references.

``kernel_reference.py`` holds the chord-error matrix, the PLC dynamic program
and the effective-distortion measure as they were before the kernels were
rewritten for speed.  Every result here must be ``==`` to the reference, not
merely close: cached solutions, driver programs and power figures downstream
depend on the exact bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as reference
from repro.bench.suite import benchmark_images
from repro.core.equalization import equalize_histogram
from repro.core.histogram import Histogram
from repro.core.plc import (
    PiecewiseLinearCurve,
    chord_error_matrix,
    coarsen_curve,
    kband_spreading_function,
)
from repro.imaging.image import Image
from repro.quality.distortion import effective_distortion
from repro.quality.hvs import HVSModel

RANGES = (1, 2, 5, 50, 130, 200, 255)
SEGMENTS = (1, 3, 8)
SUITE = tuple(benchmark_images())


@pytest.mark.parametrize("name", SUITE)
def test_suite_kernels_match_reference(name):
    image = benchmark_images(names=(name,))[name]
    histogram = Histogram.of_image(image.to_grayscale())
    for target_range in RANGES:
        ghe = equalize_histogram(histogram, 0, target_range)
        curve = PiecewiseLinearCurve.from_lut(ghe.transform)
        x, y = np.asarray(curve.x), np.asarray(curve.y)
        assert np.array_equal(chord_error_matrix(x, y),
                              reference.chord_error_matrix(x, y))
        for n_segments in SEGMENTS:
            coarse = coarsen_curve(curve, n_segments)
            assert coarse == reference.coarsen_curve(curve, n_segments)
            transformed = kband_spreading_function(coarse).apply(image)
            assert (effective_distortion(image, transformed)
                    == reference.effective_distortion(image, transformed))


def test_distortion_matches_reference_off_defaults(lena, pout):
    """Custom HVS models, windows, exponents and RGB inputs match too."""
    rgb = Image(np.stack([lena.pixels, pout.pixels, lena.pixels[::-1]],
                         axis=-1))
    darker = Image(rgb.pixels // 2)
    model = dict(adaptation_strength=0.3, masking_strength=5.0,
                 neighborhood_radius=2, floor=0.5)
    for original, transformed in ((lena, pout), (rgb, darker)):
        for window in (2, 5, 16):
            got = effective_distortion(
                original, transformed, window=window,
                hvs_model=HVSModel(**model), luminance_exponent=1.0,
                contrast_loss_exponent=0.0)
            want = reference.effective_distortion(
                original, transformed, window=window,
                hvs_model=reference.ReferenceHVSModel(**model),
                luminance_exponent=1.0, contrast_loss_exponent=0.0)
            assert got == want


def _abscissas(gaps: list[float], start: float) -> np.ndarray:
    """Strictly increasing abscissas from ``start`` with (at least) ``gaps``.

    A gap that vanishes in floating point becomes one ulp, so tiny gaps give
    the near-duplicate abscissas whose chord slopes overflow.
    """
    x = [start]
    for gap in gaps:
        x.append(max(x[-1] + gap, np.nextafter(x[-1], np.inf)))
    return np.asarray(x)


gaps = st.one_of(
    st.floats(1e-3, 50.0),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1.0]),
)
curves = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(gaps, min_size=n, max_size=n),
    st.sampled_from([0.0, -1e-300, 3.0, 1e6]),
    st.lists(st.floats(-1e4, 1e4), min_size=n + 1, max_size=n + 1),
))


@given(curve=curves, n_segments=st.integers(1, 33))
@settings(max_examples=300, deadline=None)
def test_random_curves_match_reference(curve, n_segments):
    spacing, start, values = curve
    x = _abscissas(spacing, start)
    y = np.asarray(values)
    with np.errstate(all="ignore"):
        want_matrix = reference.chord_error_matrix(x, y)
    assert np.array_equal(chord_error_matrix(x, y), want_matrix)

    curve = PiecewiseLinearCurve(tuple(x), tuple(y))
    try:
        with np.errstate(all="ignore"):
            want = reference.coarsen_curve(curve, n_segments)
    except RuntimeError as error:
        with pytest.raises(RuntimeError, match=str(error)):
            coarsen_curve(curve, n_segments)
    else:
        assert coarsen_curve(curve, n_segments) == want
