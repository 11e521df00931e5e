"""Image I/O, preprocessing, scene rendering, and focal-stack generation."""

from dataclasses import replace

import numpy as np
import pytest

from focusrl.env import AutofocusEnv, EnvConfig
from focusrl.focus import tenengrad
from focusrl.imaging import (
    Image,
    PgmError,
    crop,
    defocus_blur,
    defocus_series,
    generate_stack,
    load_pgm,
    load_stack,
    position_count,
    quantize,
    render_scene,
    resize_bilinear,
    save_pgm,
    save_stack,
    to_grayscale,
)
from focusrl.imaging.filters import gaussian_blur_array, gaussian_kernel


def _two_axis_blur(arr, sigma):
    """Reference: the two-axis tap loop, each pass along its own axis."""
    if sigma == 0:
        return arr.copy()
    kernel = gaussian_kernel(sigma)

    def correlate(a, axis):
        radius = len(kernel) // 2
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(a, pad, mode="reflect")
        out = np.zeros_like(a)
        for i, tap in enumerate(kernel):
            if axis == 0:
                out += tap * padded[i : i + a.shape[0], :]
            else:
                out += tap * padded[:, i : i + a.shape[1]]
        return out

    return correlate(correlate(arr, 0), 1)


class TestImage:
    def test_rejects_out_of_range_intensities(self):
        with pytest.raises(ValueError, match="intensities"):
            Image(np.array([[0.0, 1.5]]))
        with pytest.raises(ValueError, match="intensities"):
            Image(np.array([[-0.1]]))

    def test_rejects_non_2d_data(self):
        with pytest.raises(ValueError):
            Image(np.zeros(4))
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3)))

    def test_dimensions(self):
        img = Image(np.zeros((3, 5)))
        assert img.width == 5
        assert img.height == 3
        assert img.shape == (3, 5)


class TestPgm:
    def test_p5_scaling(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert img.shape == (2, 2)
        expected = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        np.testing.assert_array_equal(img.pixels, expected)

    def test_p2_single_black_pixel(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P2 1 1 255 0")
        img = load_pgm(path)
        assert img.shape == (1, 1)
        assert img.pixels[0, 0] == 0.0

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# comment line\n2 1\n100\n50 100\n")
        img = load_pgm(path)
        np.testing.assert_array_equal(img.pixels, np.array([[0.5, 1.0]]))

    def test_16bit_p5_uses_big_endian_pairs(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n" + (65535).to_bytes(2, "big"))
        assert load_pgm(path).pixels[0, 0] == 1.0

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "e.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmError, match="magic"):
            load_pgm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(PgmError, match="malformed"):
            load_pgm(path)

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(path)

    def test_save_full_white_pixel(self, tmp_path):
        path = tmp_path / "h.pgm"
        save_pgm(Image(np.array([[1.0]])), path, maxval=255)
        assert path.read_bytes().endswith(b"\n255\n\xff")

    def test_save_half_rounds_up(self, tmp_path):
        # round(127.5) stores as 128 under round-half-up
        path = tmp_path / "i.pgm"
        save_pgm(Image(np.array([[0.5]])), path, maxval=255)
        assert path.read_bytes()[-1] == 128

    def test_save_rejects_odd_maxval(self, tmp_path):
        with pytest.raises(ValueError, match="maxval"):
            save_pgm(Image(np.array([[0.5]])), tmp_path / "j.pgm", maxval=100)

    def test_round_trip_is_quantization(self, tmp_path, rng):
        img = Image(rng.uniform(0.0, 1.0, size=(17, 23)))
        path = tmp_path / "k.pgm"
        save_pgm(img, path, maxval=255)
        np.testing.assert_array_equal(load_pgm(path).pixels, quantize(img, 255).pixels)

    def test_round_trip_of_quantized_data_is_exact(self, tmp_path, rng):
        img = quantize(Image(rng.uniform(0.0, 1.0, size=(8, 8))), 255)
        path = tmp_path / "l.pgm"
        save_pgm(img, path, maxval=255)
        np.testing.assert_array_equal(load_pgm(path).pixels, img.pixels)


class TestResize:
    def test_identity_when_dimensions_match(self, rng):
        img = Image(rng.uniform(0.0, 1.0, size=(9, 7)))
        out = resize_bilinear(img, 7, 9)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_checkerboard_to_single_pixel_averages(self):
        img = Image(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = resize_bilinear(img, 1, 1)
        assert out.pixels[0, 0] == pytest.approx(0.5)

    def test_upsample_row_is_monotone(self):
        out = resize_bilinear(Image(np.array([[0.0, 1.0]])), 4, 1)
        row = out.pixels[0]
        assert np.all(np.diff(row) >= 0)
        assert row[0] == pytest.approx(0.0) and row[-1] == pytest.approx(1.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            resize_bilinear(Image(np.zeros((2, 2))), 0, 2)

    def test_output_stays_in_range(self, rng):
        img = Image(rng.uniform(0.0, 1.0, size=(13, 11)))
        out = resize_bilinear(img, 31, 5)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0


class TestGrayscale:
    def test_equal_planes_pass_through(self, rng):
        x = Image(rng.uniform(0.0, 1.0, size=(4, 4)))
        np.testing.assert_allclose(to_grayscale(x, x, x).pixels, x.pixels)

    def test_pure_red(self):
        one = Image(np.ones((2, 2)))
        zero = Image(np.zeros((2, 2)))
        assert to_grayscale(one, zero, zero).pixels[0, 0] == pytest.approx(0.299)

    def test_pure_blue(self):
        one = Image(np.ones((2, 2)))
        zero = Image(np.zeros((2, 2)))
        assert to_grayscale(zero, zero, one).pixels[0, 0] == pytest.approx(0.114)

    def test_rejects_mismatched_planes(self):
        with pytest.raises(ValueError):
            to_grayscale(Image(np.zeros((2, 2))), Image(np.zeros((2, 3))), Image(np.zeros((2, 2))))


class TestCrop:
    def test_extracts_window(self):
        img = Image(np.arange(12).reshape(3, 4) / 11.0)
        out = crop(img, 1, 0, 2, 2)
        np.testing.assert_array_equal(out.pixels, img.pixels[0:2, 1:3])

    def test_rejects_out_of_bounds_window(self):
        with pytest.raises(ValueError):
            crop(Image(np.zeros((3, 3))), 2, 0, 2, 2)


class TestRenderScene:
    def test_same_seed_is_bit_identical(self):
        a = render_scene(seed=11, width=64, height=64)
        b = render_scene(seed=11, width=64, height=64)
        np.testing.assert_array_equal(a.content.pixels, b.content.pixels)

    def test_scene_has_edges(self, small_scene):
        assert tenengrad(small_scene.content) > 0

    def test_distinct_seeds_differ(self):
        a = render_scene(seed=1, width=64, height=64).content.pixels
        b = render_scene(seed=2, width=64, height=64).content.pixels
        differing = np.count_nonzero(a != b)
        assert differing >= 0.01 * a.size

    def test_rejects_tiny_dimensions(self):
        with pytest.raises(ValueError):
            render_scene(seed=1, width=16, height=64)


class TestDefocusBlur:
    def test_sigma_zero_is_identity(self, small_scene):
        out = defocus_blur(small_scene.content, 0.0)
        np.testing.assert_array_equal(out.pixels, small_scene.content.pixels)

    def test_constant_image_unchanged(self):
        img = Image(np.full((16, 16), 0.25))
        out = defocus_blur(img, 3.0)
        np.testing.assert_allclose(out.pixels, img.pixels, atol=1e-12)

    def test_blur_reduces_tenengrad(self, small_scene):
        assert tenengrad(defocus_blur(small_scene.content, 2.0)) < tenengrad(small_scene.content)

    def test_monotone_in_sigma(self, small_scene):
        sharp = [tenengrad(defocus_blur(small_scene.content, s)) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(sharp, sharp[1:]))

    def test_rejects_negative_sigma(self, small_scene):
        with pytest.raises(ValueError):
            defocus_blur(small_scene.content, -0.1)


class TestBlurMatchesTwoAxisLoop:
    """The contiguous blur keeps every product and its summation order."""

    @pytest.mark.parametrize(
        "shape, sigma",
        [
            ((37, 90), 1.3),  # wide
            ((90, 37), 2.5),  # tall
            ((40, 40), 0.1),  # a radius of one tap
            ((40, 40), 0.34),
            ((23, 61), 7.0),  # radius 21, close to the 23 rows
            ((12, 50), 6.0),  # radius 18 reflects past the 12 rows
        ],
    )
    def test_bytes_equal(self, shape, sigma):
        arr = np.random.default_rng(sum(shape)).random(shape)
        got = gaussian_blur_array(arr, sigma)
        assert got.tobytes() == _two_axis_blur(arr, sigma).tobytes()
        assert got.flags.c_contiguous

    def test_negative_inputs(self):
        # Like the texture noise that render_scene blurs before scaling.
        noise = np.random.default_rng(5).standard_normal((48, 64))
        got = gaussian_blur_array(noise, 2.5)
        assert got.tobytes() == _two_axis_blur(noise, 2.5).tobytes()

    def test_float32_input(self):
        arr = np.random.default_rng(6).random((30, 44)).astype(np.float32)
        got = gaussian_blur_array(arr, 1.7)
        assert got.dtype == np.float32
        assert got.tobytes() == _two_axis_blur(arr, 1.7).tobytes()

    def test_non_contiguous_input(self):
        arr = np.random.default_rng(7).random((50, 36))
        for view in (arr.T, arr[::2, 1:]):
            got = gaussian_blur_array(view, 1.5)
            assert got.flags.c_contiguous
            assert got.tobytes() == _two_axis_blur(view, 1.5).tobytes()

    def test_rendered_scene_unchanged(self, monkeypatch):
        # render_scene blurs its texture noise and then its content.
        got = render_scene(seed=11, width=48, height=40).content.pixels
        monkeypatch.setattr("focusrl.imaging.scene.gaussian_blur_array", _two_axis_blur)
        assert got.tobytes() == render_scene(seed=11, width=48, height=40).content.pixels.tobytes()


class TestDefocusSeries:
    """One transform of the padded image blurs it at every sigma."""

    SIGMAS = (0.1, 0.34, 1.3, 2.5, 6.0, 12.0, 25.0)

    @pytest.mark.parametrize("shape", [(37, 90), (90, 37), (12, 50)])  # wide, tall, reflecting
    def test_matches_two_axis_loop(self, shape):
        img = Image(np.random.default_rng(sum(shape)).random(shape))
        frames = defocus_series(img, self.SIGMAS)
        for sigma, frame in zip(self.SIGMAS, frames):
            want = np.clip(_two_axis_blur(img.pixels, sigma), 0.0, 1.0)
            np.testing.assert_allclose(frame.pixels, want, rtol=0, atol=1e-12, err_msg=str(sigma))
            assert frame.pixels.flags.c_contiguous

    def test_sigma_zero_is_the_exact_identity(self, small_scene):
        frames = defocus_series(small_scene.content, [0.0, 3.0, 0.0])
        for frame in (frames[0], frames[2]):
            assert frame.pixels.tobytes() == small_scene.content.pixels.tobytes()

    def test_defocus_blur_is_the_one_sigma_case(self, small_scene):
        got = defocus_blur(small_scene.content, 2.5).pixels
        assert got.tobytes() == defocus_series(small_scene.content, [2.5])[0].pixels.tobytes()

    def test_rejects_negative_sigma(self, small_scene):
        with pytest.raises(ValueError):
            defocus_series(small_scene.content, [1.0, -0.1])


class TestSharedFrames:
    """Positions of equal blur share one frame."""

    # Best focus, z_star = 32.4, sits on index c = 8 of the 0.3 grid.
    ARGS = dict(z_min=30.0, z_max=36.0, spacing=0.3, z_star=32.4, blur_gain=0.5)

    @pytest.fixture(scope="class")
    def stack(self, small_scene):
        return generate_stack(small_scene, **self.ARGS)

    def test_frames_and_values_match_per_position_loop(self, stack, small_scene):
        for k, frame in enumerate(stack.frames):
            sigma = 0.5 * 0.3 * abs(k - 8)
            want = np.clip(_two_axis_blur(small_scene.content.pixels, sigma), 0.0, 1.0)
            np.testing.assert_allclose(frame.pixels, want, rtol=0, atol=1e-12)
            assert stack.focus_values[k] == tenengrad(frame)
        assert stack.frames[8].pixels.tobytes() == small_scene.content.pixels.tobytes()

    def test_frames_are_c_contiguous(self, stack):
        assert all(frame.pixels.flags.c_contiguous for frame in stack.frames)

    def test_one_frame_per_distinct_sigma(self, stack):
        sigmas = {stack.blur_gain * stack.spacing * abs(k - 8) for k in range(len(stack))}
        ids = {id(frame) for frame in stack.frames}
        assert len(ids) == len(sigmas) == 13 < len(stack)

    def test_off_half_grid_z_star_is_not_snapped(self, small_scene):
        # c = (32.45 - 30) / 0.3 = 8.17: no two positions are equally far from it.
        stack = generate_stack(small_scene, **dict(self.ARGS, z_star=32.45))
        assert len({id(frame) for frame in stack.frames}) == len(stack) == 21
        assert stack.sharpest_index == 8
        sharp = stack.frames[8].pixels
        assert sharp.tobytes() != small_scene.content.pixels.tobytes()
        want = np.clip(_two_axis_blur(small_scene.content.pixels, 0.15 * (2.45 / 0.3 - 8)), 0, 1)
        np.testing.assert_allclose(sharp, want, rtol=0, atol=1e-12)


class TestGenerateStack:
    def test_position_count_131(self, small_scene):
        stack = generate_stack(
            small_scene, z_min=30.0, z_max=69.0, spacing=0.3, z_star=51.0, blur_gain=0.5
        )
        assert len(stack.frames) == 131
        assert len(stack.positions) == 131

    def test_sharpest_frame_nearest_z_star(self, tiny_stack):
        positions = np.asarray(tiny_stack.positions)
        nearest = int(np.argmin(np.abs(positions - tiny_stack.z_star)))
        assert tiny_stack.sharpest_index == nearest

    def test_curve_decreases_away_from_peak(self, tiny_stack):
        values = np.asarray(tiny_stack.focus_values)
        peak = tiny_stack.sharpest_index
        right = values[peak:]
        left = values[: peak + 1][::-1]
        # strict decrease from 3 indices out on both sides
        assert np.all(np.diff(right[2:]) < 0)
        assert np.all(np.diff(left[2:]) < 0)

    def test_positions_exactly_arithmetic(self, tiny_stack):
        diffs = np.diff(np.asarray(tiny_stack.positions))
        np.testing.assert_allclose(diffs, tiny_stack.spacing, atol=1e-12)

    def test_rejects_z_star_outside_range(self, small_scene):
        with pytest.raises(ValueError):
            generate_stack(small_scene, z_min=30.0, z_max=36.0, spacing=0.3, z_star=29.0)

    def test_rejects_non_integral_count(self, small_scene):
        with pytest.raises(ValueError):
            generate_stack(small_scene, z_min=30.0, z_max=36.1, spacing=0.3, z_star=33.0)

    def test_fractional_spacing_within_half_ulp_accepted(self, small_scene):
        # 30.0..30.7 by 0.1 does not divide exactly in binary floats but
        # lands within tolerance, so it must parse as 8 positions.
        stack = generate_stack(
            small_scene, z_min=30.0, z_max=30.7, spacing=0.1, z_star=30.3, blur_gain=0.5
        )
        assert len(stack.frames) == 8

    def test_n_between_spacing_grid(self, small_scene):
        assert position_count(30.0, 36.0, 0.3) == 21


class TestStackRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path, tiny_stack):
        save_stack(tiny_stack, tmp_path / "stack")
        loaded = load_stack(tmp_path / "stack")
        assert loaded.view_id == tiny_stack.view_id
        assert loaded.z_min == tiny_stack.z_min
        assert loaded.z_max == tiny_stack.z_max
        assert loaded.spacing == tiny_stack.spacing
        assert loaded.z_star == tiny_stack.z_star
        assert loaded.blur_gain == tiny_stack.blur_gain
        assert loaded.seed == tiny_stack.seed
        assert len(loaded.frames) == len(tiny_stack.frames)
        np.testing.assert_allclose(
            np.asarray(loaded.focus_values), np.asarray(tiny_stack.focus_values)
        )
        # frames go through one 8-bit quantization on disk
        worst = max(
            float(np.abs(a.pixels - b.pixels).max())
            for a, b in zip(loaded.frames, tiny_stack.frames)
        )
        assert worst <= 0.5 / 255

    def test_manifest_lists_expected_keys(self, tmp_path, tiny_stack):
        import json

        save_stack(tiny_stack, tmp_path / "stack")
        manifest = json.loads((tmp_path / "stack" / "manifest.json").read_text())
        for key in ("view_id", "z_min", "z_max", "spacing", "z_star", "blur_gain", "seed"):
            assert key in manifest
        assert manifest["focus_max"] == tiny_stack.focus_max

    def test_positions_and_maximum_derive_from_the_stored_fields(self, tmp_path, tiny_stack):
        import json

        save_stack(tiny_stack, tmp_path / "stack")
        path = tmp_path / "stack" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["focus_max"] = 1.0  # a stale copy is not trusted
        path.write_text(json.dumps(manifest))
        loaded = load_stack(tmp_path / "stack")
        want = 30.0 + 0.3 * np.arange(21, dtype=np.float64)
        assert loaded.positions.tobytes() == tiny_stack.positions.tobytes() == want.tobytes()
        assert loaded.focus_max == tiny_stack.focus_max == tiny_stack.focus_values.max()

    def test_positions_with_equal_files_share_one_frame(self, tmp_path, tiny_stack):
        save_stack(tiny_stack, tmp_path / "stack")
        loaded = load_stack(tmp_path / "stack")
        files = {path.read_bytes() for path in (tmp_path / "stack").glob("*.pgm")}
        # 13 blurs; the sharpest frame and its neighbours quantise alike.
        assert len({id(frame) for frame in loaded.frames}) == len(files) == 12
        unshared = replace(loaded, frames=[Image(f.pixels.copy()) for f in loaded.frames])
        ids = AutofocusEnv(EnvConfig(stack=loaded, net_input_size=32)).frame_ids
        assert ids == AutofocusEnv(EnvConfig(stack=unshared, net_input_size=32)).frame_ids

    @staticmethod
    def _fail_midway(obj, fh, **kwargs):
        fh.write('{"view_id": ')
        raise OSError("disk full")

    def test_a_failed_manifest_write_leaves_no_manifest(self, tmp_path, tiny_stack, monkeypatch):
        monkeypatch.setattr("focusrl.imaging.stack.json.dump", self._fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_stack(tiny_stack, tmp_path / "stack")
        assert sorted(p.name for p in (tmp_path / "stack").iterdir()) == [
            f"frame_{i:04d}.pgm" for i in range(len(tiny_stack))]
        with pytest.raises(FileNotFoundError, match="no stack manifest"):
            load_stack(tmp_path / "stack")

    def test_a_failed_rewrite_keeps_the_old_manifest(self, tmp_path, tiny_stack, monkeypatch):
        save_stack(tiny_stack, tmp_path / "stack")
        before = (tmp_path / "stack" / "manifest.json").read_bytes()
        monkeypatch.setattr("focusrl.imaging.stack.json.dump", self._fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_stack(tiny_stack, tmp_path / "stack")
        assert (tmp_path / "stack" / "manifest.json").read_bytes() == before
        assert not list((tmp_path / "stack").glob(".*"))

    @pytest.mark.parametrize("key", ["view_id", "seed", "z_min", "z_max", "spacing", "z_star",
                                     "blur_gain", "focus_curve"])
    def test_manifest_without_a_key_is_a_value_error(self, tmp_path, tiny_stack, key):
        import json

        save_stack(tiny_stack, tmp_path / "stack")
        path = tmp_path / "stack" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"lacks {key}"):
            load_stack(tmp_path / "stack")


def test_all_frames_stay_in_range(tiny_stack):
    for frame in tiny_stack.frames:
        assert frame.pixels.min() >= 0.0
        assert frame.pixels.max() <= 1.0
