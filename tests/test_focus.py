"""Focus measures and curve utilities."""

import numpy as np
import pytest

from focusrl import focus
from focusrl.focus import FocusCurve, focus_curve, normalize, tenengrad
from focusrl.imaging import Image, defocus_blur, generate_stack


class TestTenengrad:
    def test_constant_image_is_zero(self):
        assert tenengrad(Image(np.full((5, 5), 0.7))) == 0.0

    def test_vertical_step_hand_value(self):
        # single interior pixel: Gx = 4, Gy = 0, mean of one value = 16
        img = Image(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        assert tenengrad(img) == pytest.approx(16.0)

    def test_threshold_suppresses_small_gradients(self):
        img = Image(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        assert tenengrad(img, threshold=5.0) == 0.0
        assert tenengrad(img, threshold=3.9) == pytest.approx(16.0)

    def test_blur_never_sharpens(self, small_scene):
        x = small_scene.content
        for sigma in (0.5, 1.0, 3.0):
            assert tenengrad(x) >= tenengrad(defocus_blur(x, sigma))

    def test_rejects_undersized_image(self):
        with pytest.raises(ValueError):
            tenengrad(Image(np.zeros((2, 3))))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            tenengrad(Image(np.zeros((3, 3))), threshold=-1.0)


class TestFocusCurve:
    def test_single_image_stack(self, small_scene):
        stack = generate_stack(
            small_scene, z_min=32.9, z_max=33.1, spacing=0.2, z_star=33.0, blur_gain=0.5
        )
        # 2 positions is the smallest legal stack with z_star interior; take
        # the degenerate single-frame case through FocusCurve directly.
        curve = FocusCurve.from_values([5.0])
        assert len(curve.values) == 1
        assert curve.argmax_index == 0
        assert curve.max_value == 5.0
        assert len(focus_curve(stack).values) == 2

    def test_equals_scoring_every_frame(self, tiny_stack):
        by_frame = np.array([tenengrad(frame) for frame in tiny_stack.frames])
        assert focus_curve(tiny_stack).values.tobytes() == by_frame.tobytes()

    def test_shared_frames_scored_once(self, tiny_stack, monkeypatch):
        scored = []

        def counting(frame):
            scored.append(frame)
            return tenengrad(frame)

        monkeypatch.setattr(focus, "tenengrad", counting)
        focus_curve(tiny_stack)
        distinct = {id(frame) for frame in tiny_stack.frames}
        assert len(scored) == len(distinct) < len(tiny_stack)

    def test_argmax_at_sharpest_index(self, tiny_stack):
        curve = focus_curve(tiny_stack)
        assert curve.argmax_index == tiny_stack.sharpest_index

    def test_normalized_curve_has_exactly_one_unit_value(self, tiny_stack):
        norm = normalize(focus_curve(tiny_stack))
        assert np.count_nonzero(np.asarray(norm.values) == 1.0) == 1

    def test_values_non_negative(self, tiny_stack):
        assert np.all(np.asarray(focus_curve(tiny_stack).values) >= 0)

    def test_max_value_consistency(self, tiny_stack):
        curve = focus_curve(tiny_stack)
        values = np.asarray(curve.values)
        assert curve.max_value == values.max()
        assert curve.argmax_index == int(np.argmax(values))


class TestNormalize:
    def test_divides_by_max(self):
        out = normalize(FocusCurve.from_values([2.0, 4.0, 8.0]))
        np.testing.assert_allclose(out.values, [0.25, 0.5, 1.0])
        assert out.max_value == 1.0

    def test_idempotent(self):
        once = normalize(FocusCurve.from_values([1.0, 3.0, 2.0]))
        twice = normalize(once)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_preserves_argmax(self, tiny_stack):
        curve = focus_curve(tiny_stack)
        assert normalize(curve).argmax_index == curve.argmax_index

    def test_rejects_all_zero_curve(self):
        with pytest.raises(ValueError):
            normalize(FocusCurve.from_values([0.0, 0.0]))

    def test_success_region_is_contiguous(self, tiny_stack, exp1_stack):
        for stack in (tiny_stack, exp1_stack):
            norm = normalize(focus_curve(stack))
            hits = np.flatnonzero(np.asarray(norm.values) >= 0.9)
            assert hits.size >= 1
            assert np.all(np.diff(hits) == 1)


class TestTranslationInvariance:
    def test_replicated_border_changes_measure_under_5_percent(self):
        # stated for canonical 256px frames; smaller images dilute the mean
        # faster because the border is a larger area fraction
        from focusrl.imaging import render_scene

        scene = render_scene(seed=1, width=256, height=256)
        padded = Image(np.pad(scene.content.pixels, 5, mode="edge"))
        a, b = tenengrad(scene.content), tenengrad(padded)
        assert abs(a - b) / a < 0.05
