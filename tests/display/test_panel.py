"""Unit tests for the TFT panel transmissivity and power models (Eq. 1, 12)."""

import numpy as np
import pytest

from repro.bench.suite import benchmark_images
from repro.display.panel import (
    LP064V1_PANEL,
    PanelModel,
    TransmissivityModel,
    simulate_panel_measurements,
)
from repro.imaging.image import Image


class TestTransmissivityModel:
    def test_ideal_model_is_identity(self):
        model = TransmissivityModel()
        x = np.linspace(0, 1, 11)
        assert np.allclose(model.transmittance(x), x)

    def test_leaky_model_offsets_black(self):
        model = TransmissivityModel(t_off=0.05, t_on=0.95)
        assert model.transmittance(0.0) == pytest.approx(0.05)
        assert model.transmittance(1.0) == pytest.approx(0.95)

    def test_inverse(self):
        model = TransmissivityModel(t_off=0.02, t_on=0.9)
        for x in (0.0, 0.3, 0.7, 1.0):
            assert model.pixel_value(model.transmittance(x)) == pytest.approx(x)

    def test_validation(self):
        with pytest.raises(ValueError, match="t_off"):
            TransmissivityModel(t_off=0.5, t_on=0.4)
        with pytest.raises(ValueError, match="t_off"):
            TransmissivityModel(t_off=-0.1)

    def test_luminance_eq_1a(self):
        model = TransmissivityModel()
        assert model.luminance(0.8, backlight=0.5) == pytest.approx(0.4)

    def test_luminance_backlight_validation(self):
        with pytest.raises(ValueError, match="backlight factor"):
            TransmissivityModel().luminance(0.5, backlight=1.5)

    def test_backlight_for_range_ideal(self):
        model = TransmissivityModel()
        assert model.backlight_for_range(255) == pytest.approx(1.0)
        assert model.backlight_for_range(128) == pytest.approx(128 / 255)
        assert model.backlight_for_range(0) == pytest.approx(1 / 255)

    def test_backlight_for_range_with_leakage_is_higher(self):
        leaky = TransmissivityModel(t_off=0.1)
        ideal = TransmissivityModel()
        assert leaky.backlight_for_range(128) > ideal.backlight_for_range(128)

    def test_backlight_for_range_validation(self):
        with pytest.raises(ValueError, match="dynamic range"):
            TransmissivityModel().backlight_for_range(300)


class TestPanelPower:
    def test_lp064v1_coefficients(self):
        assert LP064V1_PANEL.quadratic == pytest.approx(0.02449)
        assert LP064V1_PANEL.linear == pytest.approx(0.04984)
        assert LP064V1_PANEL.constant == pytest.approx(0.993)

    def test_normally_white_power_decreases_with_pixel_value(self):
        powers = LP064V1_PANEL.pixel_power(np.linspace(0, 1, 20))
        assert np.all(np.diff(powers) <= 1e-12)

    def test_normally_black_power_increases_with_pixel_value(self):
        model = PanelModel(normally_white=False)
        powers = model.pixel_power(np.linspace(0, 1, 20))
        assert np.all(np.diff(powers) >= -1e-12)

    def test_fig6b_magnitudes(self):
        """Fig. 6b spans roughly 0.965..1.0 normalized power."""
        low = LP064V1_PANEL.pixel_power(1.0)
        high = LP064V1_PANEL.pixel_power(0.0)
        assert high == pytest.approx(0.993, abs=1e-6)
        assert 0.955 < low < 0.985

    def test_variation_is_small_versus_ccfl(self):
        """Sec. 5.1b: the panel-power change is negligible next to the CCFL."""
        swing = LP064V1_PANEL.pixel_power(0.0) - LP064V1_PANEL.pixel_power(1.0)
        assert swing < 0.05

    def test_frame_power_averages_pixels(self, gradient_image):
        frame = LP064V1_PANEL.frame_power(gradient_image)
        direct = float(np.mean(LP064V1_PANEL.pixel_power(
            gradient_image.as_float())))
        assert frame == pytest.approx(direct)

    def test_frame_power_dark_vs_bright(self):
        dark = Image.constant(10, shape=(8, 8))
        bright = Image.constant(245, shape=(8, 8))
        assert LP064V1_PANEL.frame_power(dark) > LP064V1_PANEL.frame_power(bright)

    @pytest.mark.parametrize("name", tuple(benchmark_images()))
    def test_frame_power_independent_of_memory_layout(self, name):
        """A photo and its Fortran-ordered copy draw exactly the same power.

        The wire delivers C-ordered pixels while generators may produce
        Fortran-ordered ones; both must account to the same bits.
        """
        pixels = benchmark_images(names=(name,))[name].pixels
        fortran = LP064V1_PANEL.frame_power(Image(np.asfortranarray(pixels)))
        c_order = LP064V1_PANEL.frame_power(Image(np.ascontiguousarray(pixels)))
        assert fortran == c_order == LP064V1_PANEL.frame_power(Image(pixels))

    def test_power_vs_transmittance_uses_inverse_map(self):
        value = LP064V1_PANEL.power_vs_transmittance(0.5)
        assert value == pytest.approx(LP064V1_PANEL.pixel_power(0.5))

    def test_constant_validation(self):
        with pytest.raises(ValueError, match="constant"):
            PanelModel(constant=-1.0)


class TestPanelMeasurementSimulator:
    def test_deterministic(self):
        first = simulate_panel_measurements(seed=3)
        second = simulate_panel_measurements(seed=3)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_zero_noise_matches_model(self):
        transmittance, power = simulate_panel_measurements(noise=0.0)
        assert np.allclose(power, LP064V1_PANEL.power_vs_transmittance(transmittance))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            simulate_panel_measurements(n_points=3)
        with pytest.raises(ValueError, match="noise"):
            simulate_panel_measurements(noise=-1.0)
