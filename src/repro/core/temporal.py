"""Temporal (video) building blocks for flicker-free backlight scaling.

The paper evaluates stills; its predecessor DLS [4] targets video, where two
extra concerns appear:

* **Flicker.**  The backlight factor must not jump between consecutive
  frames; abrupt luminance steps are far more visible than a static
  luminance error.  :class:`BacklightSmoother` applies exponential smoothing
  plus a slew-rate limit to the per-frame target factors.
* **Per-frame cost.**  Recomputing the full histogram for every frame is
  wasteful when consecutive frames are similar.  :class:`RollingHistogram`
  maintains an exponentially weighted histogram that can be updated cheaply
  and re-used until a scene change; :class:`SceneChangeDetector` flags when
  the histogram moved enough that the transformation must be re-derived.

The stream controller that drives these pieces frame by frame is
:class:`~repro.api.session.StreamSession` (``Engine.open_session``, or
``Engine.process_stream`` for a finite clip).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.histogram import Histogram
from repro.imaging.image import Image

__all__ = [
    "BacklightSmoother",
    "RollingHistogram",
    "SceneChangeDetector",
]


@dataclass
class BacklightSmoother:
    """Exponential smoothing + slew-rate limiting of the backlight factor.

    Parameters
    ----------
    smoothing:
        Weight of the new target in the exponential update (1 = no
        smoothing, small values react slowly).
    max_step:
        Largest allowed change of the backlight factor between consecutive
        frames (the flicker limit).
    initial:
        Backlight factor before the first frame (1.0 = full backlight).
    """

    smoothing: float = 0.5
    max_step: float = 0.05
    initial: float = 1.0
    _current: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 < self.max_step <= 1.0:
            raise ValueError("max_step must be in (0, 1]")
        if not 0.0 < self.initial <= 1.0:
            raise ValueError("initial must be in (0, 1]")
        self._current = float(self.initial)

    @property
    def current(self) -> float:
        """The backlight factor currently applied."""
        return self._current

    def update(self, target: float) -> float:
        """Advance one frame towards ``target`` and return the applied factor."""
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target}")
        blended = (1.0 - self.smoothing) * self._current + self.smoothing * target
        limited = float(np.clip(blended, self._current - self.max_step,
                                self._current + self.max_step))
        self._current = float(np.clip(limited, 0.0, 1.0))
        return self._current

    def reset(self, value: float | None = None) -> None:
        """Jump immediately to ``value`` (or the initial factor)."""
        self._current = float(self.initial if value is None else value)

    def reset_within_limit(self, value: float,
                           reference: float | None = None) -> bool:
        """A guarded :meth:`reset`: jump to ``value`` only when it honors
        the flicker bound — within ``max_step`` of ``reference`` (the
        current factor when omitted).  Returns whether the jump was taken;
        on rejection the state is unchanged."""
        anchor = self._current if reference is None else float(reference)
        if abs(value - anchor) > self.max_step + 1e-12:
            return False
        self._current = float(value)
        return True


@dataclass
class RollingHistogram:
    """Exponentially weighted histogram over a frame stream.

    ``update`` folds a new frame's histogram into the running estimate with
    weight ``alpha``; the running estimate is what the GHE transformation is
    derived from, so a single noisy frame cannot yank the transfer function
    around.
    """

    levels: int = 256
    alpha: float = 0.3
    _weights: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError("levels must be at least 2")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    @property
    def is_empty(self) -> bool:
        """Whether no frame has been folded in yet."""
        return self._weights is None

    def update(self, frame: Image) -> Histogram:
        """Fold ``frame`` into the rolling estimate and return it."""
        histogram = Histogram.of_image(frame)
        if histogram.levels != self.levels:
            raise ValueError(
                f"frame has {histogram.levels} levels, expected {self.levels}")
        fresh = histogram.counts.astype(np.float64)
        if self._weights is None:
            self._weights = fresh
        else:
            self._weights = (1.0 - self.alpha) * self._weights + self.alpha * fresh
        return self.current()

    def current(self) -> Histogram:
        """The rolling histogram as an integer-count :class:`Histogram`."""
        if self._weights is None:
            raise RuntimeError("no frame has been observed yet")
        counts = np.rint(self._weights).astype(np.int64)
        if counts.sum() == 0:
            counts[int(np.argmax(self._weights))] = 1
        return Histogram(counts)

    def reset(self) -> None:
        """Forget all history."""
        self._weights = None


@dataclass
class SceneChangeDetector:
    """Flags frames whose histogram moved far from the rolling estimate.

    The distance is the normalized L1 histogram distance (0..1); a scene
    change resets the rolling histogram and forces a re-derivation of the
    pixel transformation.
    """

    threshold: float = 0.25
    _previous: Histogram | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")

    def observe(self, frame: Image) -> bool:
        """Return True when ``frame`` starts a new scene."""
        histogram = Histogram.of_image(frame)
        if self._previous is None:
            self._previous = histogram
            return True
        distance = histogram.l1_distance(self._previous)
        self._previous = histogram
        return distance > self.threshold

    def reset(self) -> None:
        """Forget the previous frame."""
        self._previous = None
