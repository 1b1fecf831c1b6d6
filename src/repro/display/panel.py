"""TFT-LCD panel model: transmissivity and panel power — paper Eq. (1), (12).

Two pieces of physics matter for backlight scaling:

* **Transmissivity.**  For a pixel driven to value ``X`` the emitted
  luminance is ``I(X) = b * t(X)`` (Eq. 1a) where ``b`` is the backlight
  factor and ``t`` the cell transmissivity.  Ideally ``t`` is a linear map
  from the pixel-value domain to ``[t_off, t_on]`` — Sec. 2 calls it "a
  linear mapping from [0,255] domain to [0,1] range".  The class
  :class:`TransmissivityModel` captures that map plus the small leakage
  ``t_off`` of a real cell, and provides the inverse used to compute
  compensation factors.

* **Panel power.**  The a-Si:H TFT panel power is a quadratic function of
  the (normalized) pixel value (Eq. 12): ``P(x) = a x^2 + b x + c`` with the
  LP064V1 coefficients ``a = 0.02449``, ``b = 0.04984`` (negative for the
  normally-white panel where power *decreases* with transmittance, see
  Fig. 6b) and ``c = 0.993``.  The paper notes the dependence is tiny
  compared to the CCFL; we keep it anyway because Table-1/Fig-8 savings are
  quoted against the *total* display power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.image import Image

__all__ = [
    "TransmissivityModel",
    "PanelModel",
    "LP064V1_PANEL",
    "simulate_panel_measurements",
]


@dataclass(frozen=True)
class TransmissivityModel:
    """Linear pixel-value -> cell-transmittance map.

    Parameters
    ----------
    t_off:
        Transmittance of a fully 'off' (black) cell.  Real panels leak a
        little light; 0 gives the idealized model used in the paper's
        derivations.
    t_on:
        Transmittance of a fully 'on' (white) cell.
    """

    t_off: float = 0.0
    t_on: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_off < self.t_on <= 1.0:
            raise ValueError(
                f"need 0 <= t_off < t_on <= 1, got ({self.t_off}, {self.t_on})"
            )

    def transmittance(self, x: float | np.ndarray) -> float | np.ndarray:
        """Cell transmittance for normalized pixel value ``x`` in ``[0, 1]``."""
        x_array = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        result = self.t_off + (self.t_on - self.t_off) * x_array
        return float(result) if np.isscalar(x) else result

    def pixel_value(self, transmittance: float | np.ndarray) -> float | np.ndarray:
        """Inverse map: normalized pixel value producing ``transmittance``."""
        t_array = np.clip(np.asarray(transmittance, dtype=np.float64),
                          self.t_off, self.t_on)
        result = (t_array - self.t_off) / (self.t_on - self.t_off)
        return float(result) if np.isscalar(transmittance) else result

    def luminance(self, x: float | np.ndarray,
                  backlight: float) -> float | np.ndarray:
        """Perceived luminance ``I = b * t(x)`` (Eq. 1a)."""
        if not 0.0 <= backlight <= 1.0:
            raise ValueError(f"backlight factor must be in [0, 1], got {backlight}")
        result = backlight * np.asarray(self.transmittance(x))
        return float(result) if np.isscalar(x) else result

    def backlight_for_range(self, dynamic_range: int, levels: int = 256) -> float:
        """Maximum dimming factor for an image confined to ``[0, R]``.

        If every pixel of the transformed image lies in ``[0, R]`` the
        compensated pixel values ``Lambda(x)/beta`` stay representable as
        long as ``beta >= t(R/(levels-1)) / t(1)``; the most aggressive
        admissible dimming is therefore that ratio (paper step 1 & 2: the
        minimum dynamic range "also produces the optimum backlight scaling
        factor").  With the idealized ``t_off = 0`` model this reduces to
        ``beta = R / (levels - 1)``.
        """
        if not 0 <= dynamic_range <= levels - 1:
            raise ValueError(
                f"dynamic range must be in [0, {levels - 1}], got {dynamic_range}"
            )
        top = float(self.transmittance(dynamic_range / (levels - 1)))
        full = float(self.transmittance(1.0))
        return max(top / full, 1.0 / (levels - 1))


@dataclass(frozen=True)
class PanelModel:
    """Quadratic a-Si:H TFT panel power model (Eq. 12).

    ``P(x) = a x^2 + b x + c`` per pixel in normalized power units, with
    ``x`` the normalized pixel value.  ``normally_white = True`` means power
    decreases slightly as global transmittance increases (the LP064V1 case,
    Fig. 6b); the normally-black variant flips the sign of the linear and
    quadratic terms.
    """

    quadratic: float = 0.02449
    linear: float = 0.04984
    constant: float = 0.993
    normally_white: bool = True
    transmissivity: TransmissivityModel = TransmissivityModel()

    def __post_init__(self) -> None:
        if self.constant < 0:
            raise ValueError("constant power term must be non-negative")

    def _signed_coefficients(self) -> tuple[float, float]:
        """Quadratic/linear coefficients with the panel-polarity sign applied.

        For the normally-white LP064V1 the fitted curve of Fig. 6b decreases
        from ``c`` at zero transmittance to ``c - b + a`` at full
        transmittance (``P(x) = a x^2 - b x + c``); the normally-black
        variant mirrors the linear term so power grows with transmittance.
        """
        if self.normally_white:
            return abs(self.quadratic), -abs(self.linear)
        return abs(self.quadratic), abs(self.linear)

    def pixel_power(self, x: float | np.ndarray) -> float | np.ndarray:
        """Per-pixel panel power for normalized pixel value ``x``."""
        a, b = self._signed_coefficients()
        x_array = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        result = a * x_array**2 + b * x_array + self.constant
        return float(result) if np.isscalar(x) else result

    def frame_power(self, image: Image) -> float:
        """Average per-pixel panel power for a whole frame.

        The source drivers refresh every pixel each frame, so the panel
        power of a frame is the mean of the per-pixel powers (normalized
        per-pixel units, same scale as the CCFL model).  The mean runs over
        a C-ordered copy so the result does not depend on the pixel array's
        memory layout.
        """
        power = self.pixel_power(image.to_grayscale().as_float())
        return float(np.mean(np.ascontiguousarray(power)))

    def power_vs_transmittance(self, transmittance: float | np.ndarray
                               ) -> float | np.ndarray:
        """Panel power as a function of global transmittance (Fig. 6b x-axis)."""
        x = self.transmissivity.pixel_value(transmittance)
        return self.pixel_power(x)


#: LG-Philips LP064V1 panel coefficients (paper Sec. 5.1b, Fig. 6b).
LP064V1_PANEL = PanelModel()


def simulate_panel_measurements(
    model: PanelModel = LP064V1_PANEL,
    n_points: int = 20,
    noise: float = 0.0015,
    seed: int = 1996,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the current/power measurement behind Fig. 6b.

    Returns ``(transmittance, power)`` pairs: the analytic quadratic model
    sampled on a transmittance grid with a small reproducible additive noise
    (the paper's plotted measurements scatter by well under 1%).  The Fig. 6b
    experiment re-fits a quadratic to these pseudo-measurements and compares
    the recovered coefficients against Eq. (12).
    """
    if n_points < 4:
        raise ValueError("need at least 4 measurement points")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    transmittance = np.linspace(0.05, 1.0, n_points)
    power = np.asarray(model.power_vs_transmittance(transmittance),
                       dtype=np.float64)
    power = power + noise * rng.standard_normal(n_points)
    return transmittance, power
