"""Unit tests for the temporal (video) building blocks."""

import pytest

from repro.core.temporal import (
    BacklightSmoother,
    RollingHistogram,
    SceneChangeDetector,
)


class TestBacklightSmoother:
    def test_validation(self):
        with pytest.raises(ValueError, match="smoothing"):
            BacklightSmoother(smoothing=0.0)
        with pytest.raises(ValueError, match="max_step"):
            BacklightSmoother(max_step=0.0)
        with pytest.raises(ValueError, match="initial"):
            BacklightSmoother(initial=0.0)

    def test_step_limit_enforced(self):
        smoother = BacklightSmoother(smoothing=1.0, max_step=0.1, initial=1.0)
        applied = smoother.update(0.3)
        assert applied == pytest.approx(0.9)

    def test_converges_to_constant_target(self):
        smoother = BacklightSmoother(smoothing=0.5, max_step=0.2, initial=1.0)
        for _ in range(40):
            value = smoother.update(0.4)
        assert value == pytest.approx(0.4, abs=0.02)

    def test_no_overshoot(self):
        smoother = BacklightSmoother(smoothing=1.0, max_step=0.5, initial=1.0)
        assert smoother.update(0.8) == pytest.approx(0.8)

    def test_reset(self):
        smoother = BacklightSmoother(initial=0.9)
        smoother.update(0.3)
        smoother.reset()
        assert smoother.current == 0.9
        smoother.reset(0.5)
        assert smoother.current == 0.5

    def test_target_validation(self):
        with pytest.raises(ValueError, match="target"):
            BacklightSmoother().update(0.0)

    def test_reset_within_limit(self):
        smoother = BacklightSmoother(max_step=0.1, initial=0.8)
        assert smoother.reset_within_limit(0.75)
        assert smoother.current == 0.75
        # beyond the flicker bound: rejected, state unchanged
        assert not smoother.reset_within_limit(0.5)
        assert smoother.current == 0.75
        # an explicit reference anchors the bound instead of the current
        assert not smoother.reset_within_limit(0.75, reference=0.5)
        assert smoother.reset_within_limit(0.55, reference=0.5)
        assert smoother.current == 0.55


class TestRollingHistogram:
    def test_first_frame_initializes(self, lena):
        rolling = RollingHistogram()
        assert rolling.is_empty
        histogram = rolling.update(lena)
        assert histogram.n_pixels == pytest.approx(lena.n_pixels, rel=0.01)

    def test_blends_towards_new_content(self, lena, pout):
        rolling = RollingHistogram(alpha=0.5)
        rolling.update(lena)
        blended = rolling.update(pout)
        distance_to_pout = blended.l1_distance(
            RollingHistogram().update(pout))
        distance_to_lena = blended.l1_distance(
            RollingHistogram().update(lena))
        # after one 50% update the estimate sits between the two images
        assert 0.0 < distance_to_pout
        assert 0.0 < distance_to_lena

    def test_alpha_one_tracks_instantly(self, lena, pout):
        rolling = RollingHistogram(alpha=1.0)
        rolling.update(lena)
        tracked = rolling.update(pout)
        assert tracked.l1_distance(RollingHistogram().update(pout)) == \
            pytest.approx(0.0, abs=1e-9)

    def test_current_before_update_raises(self):
        with pytest.raises(RuntimeError, match="no frame"):
            RollingHistogram().current()

    def test_reset(self, lena):
        rolling = RollingHistogram()
        rolling.update(lena)
        rolling.reset()
        assert rolling.is_empty

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RollingHistogram(alpha=0.0)
        with pytest.raises(ValueError, match="levels"):
            RollingHistogram(levels=1)


class TestSceneChangeDetector:
    def test_first_frame_is_a_scene_change(self, lena):
        assert SceneChangeDetector().observe(lena) is True

    def test_similar_frame_is_not(self, lena):
        detector = SceneChangeDetector()
        detector.observe(lena)
        assert detector.observe(lena) is False

    def test_hard_cut_detected(self, lena, pout):
        detector = SceneChangeDetector(threshold=0.2)
        detector.observe(lena)
        assert detector.observe(pout) is True

    def test_reset(self, lena):
        detector = SceneChangeDetector()
        detector.observe(lena)
        detector.reset()
        assert detector.observe(lena) is True

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            SceneChangeDetector(threshold=0.0)


class TestDataclassHygiene:
    """The private mutable state of the temporal dataclasses must be
    init-excluded, repr-excluded, and honestly annotated."""

    def test_rolling_histogram_weights_field(self):
        import typing

        field = RollingHistogram.__dataclass_fields__["_weights"]
        assert not field.init
        assert not field.repr
        hints = typing.get_type_hints(RollingHistogram)
        assert type(None) in typing.get_args(hints["_weights"])
        assert RollingHistogram().is_empty        # default really is None

    def test_smoother_current_field(self):
        field = BacklightSmoother.__dataclass_fields__["_current"]
        assert not field.init
        assert not field.repr
        # the repr stays a constructor-shaped view of the public knobs
        assert "_current" not in repr(BacklightSmoother(initial=0.5))

    def test_smoother_current_cannot_be_injected(self):
        with pytest.raises(TypeError):
            BacklightSmoother(_current=0.2)

    def test_rolling_weights_cannot_be_injected(self):
        with pytest.raises(TypeError):
            RollingHistogram(_weights=None)
