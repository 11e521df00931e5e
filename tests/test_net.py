"""Q-network forward/backward correctness, accounting, and checkpoints."""

import dataclasses
import json
from pathlib import Path
import struct

import numpy as np
import pytest

from focusrl.env import NULL_ACTION_CODE, StateSeq
from focusrl.net import (
    MAC_BUDGET,
    MAC_TOLERANCE,
    PARAM_BUDGET,
    PARAM_TOLERANCE,
    REDUCED_CHECK_ARCH,
    Mode,
    NetArch,
    Params,
    backward_batch,
    copy_params,
    count_macs,
    count_params,
    dense_counts,
    forward_batch,
    gradient_check,
    init_params,
    learnable_names,
    load_checkpoint,
    param_spec,
    save_checkpoint,
    states_to_batch,
    _Workspace,
    _bn_forward,
    _conv_backward,
    _conv_forward,
    _pool_backward,
    _pool_forward,
    _pool_windows,
)

SMALL = NetArch(input_size=16, conv_channels=(2, 3, 4, 5), reduce_channels=3, embed_dim=6, fc_width=8)


def _random_batch(arch, rng, batch=4, dtype=np.float32):
    x = rng.uniform(0.0, 1.0, size=(batch, arch.history, arch.input_size, arch.input_size))
    onehot = np.zeros((batch, arch.onehot_len), dtype=dtype)
    codes = rng.integers(0, arch.action_vocab, size=(batch, arch.history))
    for b in range(batch):
        for k in range(arch.history):
            onehot[b, k * arch.action_vocab + codes[b, k]] = 1.0
    return x.astype(dtype), onehot


class TestNetArch:
    def test_rejects_indivisible_input(self):
        with pytest.raises(ValueError):
            NetArch(input_size=60)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            NetArch(kernel_size=4)

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ValueError, match="positive integers"):
            NetArch(input_size=64.0)
        with pytest.raises(ValueError, match="positive integers"):
            NetArch(conv_channels=(8, 16, 0, 64))

    def test_rejects_wrong_stage_count(self):
        with pytest.raises(ValueError):
            NetArch(conv_channels=(8, 16, 32))

    @pytest.mark.parametrize(
        "field,value",
        [("bn_momentum", "0.99"), ("bn_momentum", 1.5), ("bn_momentum", 1.0),
         ("bn_momentum", -0.1), ("bn_momentum", True), ("bn_momentum", float("nan")),
         ("bn_eps", "x"), ("bn_eps", -1.0), ("bn_eps", 0.0), ("bn_eps", True),
         ("bn_eps", float("inf"))],
    )
    def test_rejects_bad_batch_norm_constants(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetArch(**{field: value})

    def test_accepts_batch_norm_constants_at_their_bounds(self):
        assert NetArch(bn_momentum=0, bn_eps=1).bn_eps == 1
        assert NetArch(bn_momentum=np.float64(0.5)).bn_momentum == 0.5

    def test_round_trip_dict(self):
        arch = NetArch(input_size=32)
        assert NetArch.from_dict(arch.to_dict()) == arch

    def test_dict_keeps_the_fixed_sizes(self):
        # Checkpoint headers and run_meta.json keep their keys and values.
        assert NetArch().to_dict() == {
            "input_size": 64, "conv_channels": [8, 16, 32, 64], "reduce_channels": 32,
            "embed_dim": 512, "fc_width": 256, "kernel_size": 5, "history": 3,
            "action_vocab": 6, "n_actions": 5, "bn_momentum": 0.99, "bn_eps": 1e-5,
        }

    def test_feature_sizes(self):
        arch = NetArch()
        assert arch.final_map_size == 4
        assert arch.image_feature_len == 4 * 4 * arch.reduce_channels
        assert arch.onehot_len == 18


class TestInitParams:
    def test_running_variance_all_one(self, rng):
        params = init_params(NetArch(input_size=32), rng)
        for i in range(1, 5):
            np.testing.assert_array_equal(params[f"bn{i}_rvar"], 1.0)
            np.testing.assert_array_equal(params[f"bn{i}_rmean"], 0.0)

    def test_same_seed_identical(self):
        a = init_params(SMALL, np.random.default_rng(9))
        b = init_params(SMALL, np.random.default_rng(9))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_forward_after_init_is_sane(self):
        rng = np.random.default_rng(0)
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        assert q.shape == (4, 5)
        assert np.all(np.isfinite(q))
        assert np.all(np.abs(q) < 100)

    def test_null_embedding_rows_start_zero(self, rng):
        params = init_params(SMALL, rng)
        for slot in SMALL.null_slots:
            np.testing.assert_array_equal(params["embed_w"][slot], 0.0)

    def test_spec_matches_arrays(self, rng):
        params = init_params(SMALL, rng)
        spec = {name: shape for name, shape, _ in param_spec(SMALL)}
        assert set(spec) == set(params)
        for name, arr in params.items():
            assert arr.shape == spec[name]


class TestParams:
    def test_views_share_one_vector_in_spec_order(self, rng):
        params = init_params(SMALL, rng)
        assert list(params) == [name for name, _, _ in param_spec(SMALL)]
        start = 0
        for name, shape, _ in param_spec(SMALL):
            view = params[name]
            assert view.shape == shape and np.shares_memory(view, params.flat)
            offset = view.__array_interface__["data"][0] - params.flat.__array_interface__["data"][0]
            assert offset == start * params.flat.itemsize, name
            start += view.size
        assert params.flat.shape == (start,)
        params.flat[:] = np.arange(start)
        assert params["head_b"][-1] == start - 1

    def test_rejects_a_vector_of_another_size(self, rng):
        flat = init_params(SMALL, rng).flat
        with pytest.raises(ValueError, match="flat vector"):
            Params(SMALL, flat[:-1])
        with pytest.raises(ValueError, match="flat vector"):
            Params(SMALL, flat.reshape(1, -1))


class TestForward:
    def test_zero_params_pass_output_bias_through(self, rng):
        params = init_params(SMALL, rng)
        for name, arr in params.items():
            if name.endswith("_rvar"):
                arr[...] = 1.0
            else:
                arr[...] = 0.0
        params["head_b"][...] = np.array([1.0, -2.0, 3.0, 0.5, 0.0], dtype=np.float32)
        x, onehot = _random_batch(SMALL, rng, batch=2)
        for mode in Mode:
            q, _ = forward_batch(params, SMALL, x, onehot, mode)
            np.testing.assert_allclose(q, np.tile(params["head_b"], (2, 1)), atol=1e-6)

    def test_output_shape_is_five(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng, batch=7)
        q, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        assert q.shape == (7, 5)

    def test_infer_is_batch_size_independent(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng, batch=5)
        q_all, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        for b in range(5):
            q_one, _ = forward_batch(params, SMALL, x[b : b + 1], onehot[b : b + 1], Mode.INFER)
            np.testing.assert_allclose(q_one[0], q_all[b], rtol=1e-5, atol=1e-6)

    def test_infer_is_pure(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q1, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        q2, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        np.testing.assert_array_equal(q1, q2)

    def test_shape_mismatch_reported(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        with pytest.raises(ValueError, match="batch shape"):
            forward_batch(params, SMALL, x[:, :2], onehot, Mode.INFER)
        with pytest.raises(ValueError, match="one-hot"):
            forward_batch(params, SMALL, x, onehot[:, :-1], Mode.INFER)

    def test_null_action_embedding_is_inert(self, rng):
        # all-null codes contribute exactly nothing to the action vector
        params = init_params(SMALL, rng)
        x, _ = _random_batch(SMALL, rng, batch=1)
        null = np.zeros((1, SMALL.onehot_len), dtype=np.float32)
        for slot in SMALL.null_slots:
            null[0, slot] = 1.0
        v_act = null @ params["embed_w"]
        np.testing.assert_array_equal(v_act, 0.0)


class TestBatchNorm:
    def test_train_mode_normalizes_per_channel(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng, batch=8)
        _, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        for ctx in cache["bn"]:
            xhat = ctx["xhat"]
            means = xhat.mean(axis=(1, 2, 3))
            variances = xhat.var(axis=(1, 2, 3))
            assert np.abs(means).max() < 1e-6
            # Normalized variance is var/(var + eps), so channels with small
            # batch variance sit a few 1e-4 below 1.0 by construction.
            assert np.abs(variances - 1.0).max() < 1e-3

    def test_running_stats_untouched_without_flag(self, rng):
        # BATCH_STATS and INFER leave the running statistics alone.
        params = init_params(SMALL, rng)
        before = {k: v.copy() for k, v in params.items() if "_r" in k}
        x, onehot = _random_batch(SMALL, rng)
        forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        forward_batch(params, SMALL, x, onehot, Mode.INFER)
        for k, v in before.items():
            np.testing.assert_array_equal(params[k], v)

    def test_running_stats_move_with_flag(self, rng):
        # TRAIN, the learner's pass, updates them.
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        forward_batch(params, SMALL, x, onehot, Mode.TRAIN)
        assert not np.allclose(params["bn1_rmean"], 0.0)
        assert not np.allclose(params["bn1_rvar"], 1.0)

    def test_momentum_blend(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        xt = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        from focusrl.net import _conv_forward

        conv_out, _ = _conv_forward(xt.astype(np.float32), params["conv1_w"], "probe")
        mean = conv_out.mean(axis=(1, 2, 3))
        var = conv_out.var(axis=(1, 2, 3))
        forward_batch(params, SMALL, x, onehot, Mode.TRAIN)
        np.testing.assert_allclose(params["bn1_rmean"], 0.01 * mean, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(params["bn1_rvar"], 0.99 + 0.01 * var, rtol=1e-4)

    def test_renormalized_training_computes_the_infer_function(self, rng):
        params = init_params(SMALL, rng, dtype=np.float64)
        for i in range(1, 5):
            params[f"bn{i}_rmean"] += rng.normal(size=params[f"bn{i}_rmean"].shape)
            params[f"bn{i}_rvar"] *= rng.uniform(0.5, 2.0, size=params[f"bn{i}_rvar"].shape)
        x, onehot = _random_batch(SMALL, rng, dtype=np.float64)
        q_infer, _ = forward_batch(params, SMALL, x, onehot, Mode.INFER)
        # On copies: a TRAIN pass updates the running statistics after use.
        q_train, _ = forward_batch(copy_params(params), SMALL, x, onehot, Mode.TRAIN)
        np.testing.assert_allclose(q_train, q_infer, rtol=1e-9, atol=1e-9)
        # and a single sample scores the same inside any batch
        q_one, _ = forward_batch(copy_params(params), SMALL, x[:1], onehot[:1], Mode.TRAIN)
        np.testing.assert_allclose(q_one[0], q_train[0], rtol=1e-9, atol=1e-9)

    def test_renormalization_at_batch_statistics_is_batch_norm(self, rng):
        # With running statistics equal to the batch's own, r = 1 and d = 0,
        # so the renormalized forward and backward are the batch-statistics ones.
        arch = dataclasses.replace(SMALL, bn_momentum=0.0)
        params = init_params(arch, rng, dtype=np.float64)
        x, onehot = _random_batch(arch, rng, dtype=np.float64)
        # At momentum 0, the k-th TRAIN pass sets stage k's running statistics
        # to the batch statistics that a BATCH_STATS pass computes there.
        for _ in range(4):
            forward_batch(params, arch, x, onehot, Mode.TRAIN)
        q, cache = forward_batch(params, arch, x, onehot, Mode.BATCH_STATS)
        want = backward_batch(params, arch, cache, q.copy())
        q_re, cache = forward_batch(params, arch, x, onehot, Mode.TRAIN)
        got = backward_batch(params, arch, cache, q_re.copy())
        np.testing.assert_allclose(q_re, q, rtol=1e-9, atol=1e-9)
        for name in learnable_names(arch):
            np.testing.assert_allclose(got[name], want[name], rtol=1e-7, atol=1e-9)


class TestBackward:
    def test_zero_dq_gives_zero_grads(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        grads = backward_batch(params, SMALL, cache, np.zeros_like(q))
        for name in learnable_names(SMALL):
            np.testing.assert_array_equal(grads[name], 0.0)

    def test_gradients_scale_linearly(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        dq = rng.standard_normal(q.shape).astype(np.float32)
        g1 = backward_batch(params, SMALL, cache, dq.copy())
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        g2 = backward_batch(params, SMALL, cache, 2.0 * dq)
        for name in learnable_names(SMALL):
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-4, atol=1e-5)

    def test_null_embedding_rows_get_no_gradient(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        # force null codes into one slot so the row is actually exercised
        onehot[:, :] = 0.0
        onehot[:, SMALL.null_slots[0]] = 1.0
        onehot[:, SMALL.action_vocab + 1] = 1.0
        onehot[:, 2 * SMALL.action_vocab + 2] = 1.0
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        grads = backward_batch(params, SMALL, cache, np.ones_like(q))
        for slot in SMALL.null_slots:
            np.testing.assert_array_equal(grads["embed_w"][slot], 0.0)

    def test_gradients_shape_congruent(self, rng):
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        grads = backward_batch(params, SMALL, cache, q)
        for name in learnable_names(SMALL):
            assert grads[name].shape == params[name].shape

    def test_stale_cache_rejected(self, rng):
        # A later TRAIN forward overwrites the buffers an earlier cache points
        # into, which would silently corrupt that cache's gradients.
        params = init_params(SMALL, rng)
        x_a, onehot_a = _random_batch(SMALL, rng)
        x_b, onehot_b = _random_batch(SMALL, rng)
        q, cache_a = forward_batch(params, SMALL, x_a, onehot_a, Mode.BATCH_STATS)
        forward_batch(params, SMALL, x_b, onehot_b, Mode.TRAIN)
        with pytest.raises(RuntimeError, match="stale"):
            backward_batch(params, SMALL, cache_a, q)

    def test_infer_forward_makes_a_train_cache_stale(self, rng):
        # Inference runs on the same stage buffers, at any batch size.
        params = init_params(SMALL, rng)
        x, onehot = _random_batch(SMALL, rng)
        q, cache = forward_batch(params, SMALL, x, onehot, Mode.BATCH_STATS)
        forward_batch(params, SMALL, x[:1], onehot[:1], Mode.INFER)
        with pytest.raises(RuntimeError, match="stale"):
            backward_batch(params, SMALL, cache, q)


class TestWorkspace:
    def test_smaller_views_are_prefixes_of_one_buffer(self):
        ws = _Workspace()
        small = ws.get("k", (2, 3), np.float32)
        assert ws.get("k", (2, 3), np.float32) is small  # one dict hit
        big = ws.get("k", (4, 5), np.float32)
        assert big.flags.c_contiguous
        again = ws.get("k", (2, 3), np.float32)
        assert again.ctypes.data == big.ctypes.data and again.flags.c_contiguous
        flags = ws.get("k", (3, 4), bool)
        assert flags.ctypes.data == big.ctypes.data
        assert [buf.nbytes for buf in ws._bufs.values()] == [4 * 5 * 4]

    def test_buffers_grow_to_the_largest_request(self):
        ws = _Workspace()
        ws.get("k", (8,), np.float64)
        ws.get("k", (3,), np.float32)
        assert ws._bufs["k"].nbytes == 64
        ws.get("k", (32,), np.float32)
        assert ws._bufs["k"].nbytes == 128


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes: tells +0.0 from -0.0, unlike ==."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _reference_pool_backward(x, pooled, dout, relu_mask):
    """Compare every cell with the window max; the first equal one takes
    the gradient, then the full-size ReLU mask applies."""
    dx = np.zeros(x.shape, dout.dtype)
    taken = np.zeros(dout.shape, bool)
    for w, slot in zip(_pool_windows(x), _pool_windows(dx)):
        win = (w == pooled) & ~taken
        np.copyto(slot, dout, where=win)
        taken |= win
    dx *= relu_mask
    return dx


def _windows_of_every_tie(dtype):
    """(1, n, 2, 2) pre-ReLU windows: for each of the 15 non-empty sets of
    cells, the set holds the maximum (positive, zero or negative) and the
    rest lie below; plus windows mixing -0.0 and +0.0."""
    windows = []
    for top in (3.0, 0.0, -1.0):
        for cells in range(1, 16):
            win = np.full(4, top - 2.0)
            win[[bit for bit in range(4) if cells >> bit & 1]] = top
            windows.append(win)
    windows.append(np.array([-0.0, 0.0, -0.0, 0.0]))
    windows.append(np.array([0.0, -0.0, 0.0, -0.0]))
    return np.array(windows, dtype=dtype).reshape(1, -1, 2, 2)


class TestPoolRouting:
    """The routed pool backward against the compare-every-cell reference."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_tie_routes_to_the_first_max(self, dtype):
        z = _windows_of_every_tie(dtype)
        z = np.concatenate([z, -z], axis=1)
        relu_mask = z > 0
        x = z * relu_mask  # as the forward pass applies the ReLU
        rng = np.random.default_rng(2)
        for dout_sign in (1.0, -1.0):
            pooled, ctx = _pool_forward(x, role="probe", route=True)
            dout = (dout_sign * rng.uniform(0.5, 2.0, size=pooled.shape)).astype(dtype)
            want = _reference_pool_backward(x, pooled.copy(), dout, relu_mask)
            got = _pool_backward(dout.copy(), ctx, role="probe")
            assert _bits_equal(got, want)

    def test_random_maps_with_ties(self):
        rng = np.random.default_rng(3)
        # Few distinct levels make ties common; negatives exercise the ReLU.
        z = rng.integers(-3, 4, size=(3, 4, 8, 8)).astype(np.float32)
        relu_mask = z > 0
        x = z * relu_mask
        pooled, ctx = _pool_forward(x, role="probe", route=True)
        dout = rng.standard_normal(pooled.shape).astype(np.float32)
        want = _reference_pool_backward(x, pooled.copy(), dout, relu_mask)
        assert _bits_equal(_pool_backward(dout, ctx, role="probe"), want)

    def test_routing_leaves_the_pooled_values_alone(self):
        x = np.random.default_rng(4).standard_normal((2, 3, 6, 6)).astype(np.float32)
        plain, _ = _pool_forward(x, role="probe_plain")
        routed, _ = _pool_forward(x, role="probe_routed", route=True)
        assert _bits_equal(routed, plain)


class TestBatchNormVariance:
    @pytest.mark.parametrize("shape", [(3, 5, 7, 9), (4, 8, 16, 16), (2, 32, 32, 32)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_variance_is_np_var(self, shape, dtype):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
        c = shape[0]
        gamma, beta = np.ones(c, dtype), np.zeros(c, dtype)
        rmean, rvar = np.zeros(c, dtype), np.ones(c, dtype)
        # Momentum 0 makes the running variance the batch variance itself.
        _, ctx = _bn_forward(x.copy(), gamma, beta, rmean, rvar, momentum=0.0, eps=1e-5,
                             renorm=True, role="probe")
        var = x.var(axis=(1, 2, 3))
        mean = x.mean(axis=(1, 2, 3))
        assert _bits_equal(rvar, var)
        # Without renormalization the context keeps the batch's own scale.
        _, ctx = _bn_forward(x.copy(), gamma, beta, rmean, rvar, momentum=0.0, eps=1e-5,
                             renorm=False, role="probe")
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        assert _bits_equal(ctx["inv_std"], inv_std)
        assert _bits_equal(ctx["xhat"], (x - mean[:, None, None, None]) * inv_std[:, None, None, None])


def _reference_col2im(dcols, shape, k):
    """Scatter-add (C*k*k, B*H*W) patch gradients, columns in (B, H, W) order."""
    c, b, h, w = shape
    pad = k // 2
    dcols = dcols.reshape(c, k, k, b, h, w)
    dxpad = np.zeros((c, b, h + 2 * pad, w + 2 * pad), dcols.dtype)
    for ki in range(k):
        for kj in range(k):
            dxpad[:, :, ki : ki + h, kj : kj + w] += dcols[:, ki, kj]
    return dxpad[:, :, pad : pad + h, pad : pad + w]


class TestPaddedRows:
    """Patch-matrix products on padded rows against contiguous copies.

    The input gradient also checks `_col2im`'s (H, W, B) column order
    against the scatter-add over (B, H, W) columns.
    """

    @pytest.mark.parametrize("shape", [(3, 8, 32, 32), (8, 4, 16, 16), (2, 1, 4, 4)])
    def test_conv_forward_and_backward(self, shape):
        rng = np.random.default_rng(6)
        c_in, b, h, w_ = shape
        c_out, k = 6, 5
        x = rng.standard_normal(shape).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
        out, cols = _conv_forward(x, w, role="probe")
        assert cols.strides[0] > cols.shape[1] * cols.itemsize  # rows are padded
        # the patches themselves, from a zero-padded copy
        xpad = np.pad(x, ((0, 0), (0, 0), (2, 2), (2, 2)))
        want_cols = np.stack(
            [xpad[:, :, i : i + h, j : j + w_] for i in range(k) for j in range(k)], axis=1
        ).reshape(c_in * k * k, b * h * w_)
        assert _bits_equal(cols, want_cols)
        w2d = w.reshape(c_out, -1)
        assert _bits_equal(out, (w2d @ want_cols).reshape(c_out, b, h, w_))

        dout = rng.standard_normal(out.shape).astype(np.float32)
        dout_mat = dout.reshape(c_out, -1)
        dx, dw = _conv_backward(dout, cols, w, shape, need_dx=True, role="probe")
        assert _bits_equal(dw, (want_cols @ dout_mat.T).T.reshape(w.shape))
        assert _bits_equal(dx, _reference_col2im(w2d.T @ dout_mat, shape, k))


class TestGradientCheck:
    def test_linear_head_is_exact(self):
        # the output layer sees a quadratic loss, where central differences
        # are exact up to rounding
        err, checked = gradient_check(names=("head_w", "head_b"))
        assert checked > 0
        assert err < 1e-9

    def test_deterministic(self):
        a, na = gradient_check(names=("fc1_b", "fc2_b"))
        b, nb = gradient_check(names=("fc1_b", "fc2_b"))
        assert a == b
        assert na == nb

    def test_reduced_net_under_1e_4(self):
        err, checked = gradient_check()
        # every learnable scalar of the reduced net except frozen rows
        assert checked == 797
        assert err < 1e-4


class TestCounting:
    def test_single_fc_10_to_5(self):
        params, macs = dense_counts(10, 5)
        assert params == 55
        assert macs == 50

    def test_reference_arch_inside_budget_windows(self):
        arch = NetArch()
        p, m = count_params(arch), count_macs(arch)
        assert abs(p - PARAM_BUDGET) <= PARAM_TOLERANCE * PARAM_BUDGET
        assert abs(m - MAC_BUDGET) <= MAC_TOLERANCE * MAC_BUDGET

    def test_reference_arch_exact_counts(self):
        # frozen realized values; a drift here means the architecture changed
        assert count_params(NetArch()) == 408_813
        assert count_macs(NetArch()) == 12_658_944

    def test_count_matches_actual_arrays(self, rng):
        for arch in (SMALL, NetArch(input_size=32)):
            params = init_params(arch, rng)
            total = sum(
                params[name].size
                for name, _, learnable in param_spec(arch)
                if learnable
            )
            assert total == count_params(arch)

    def test_counts_are_arch_functions_only(self):
        assert count_params(NetArch()) == count_params(NetArch())
        assert count_macs(NetArch(input_size=32)) == count_macs(NetArch(input_size=32))


class TestStatesToBatch:
    def test_layout(self, tiny_env):
        state = tiny_env.reset_at(4)
        arch = NetArch(input_size=32)
        x, onehot = states_to_batch([state], tiny_env.net_frames, arch)
        assert x.shape == (1, 3, 32, 32)
        assert x.dtype == onehot.dtype == np.float32
        for k in range(3):
            assert x[0, k].tobytes() == tiny_env.net_frames[4].tobytes()
        assert onehot.shape == (1, 18)
        for k in range(3):
            assert onehot[0, k * arch.action_vocab + NULL_ACTION_CODE] == 1.0
        assert onehot.sum() == 3.0

    def test_rejects_wrong_frame_size(self, exp1_env):
        state = exp1_env.reset_at(0)  # 64px frames
        with pytest.raises(ValueError, match="input"):
            states_to_batch([state], exp1_env.net_frames, NetArch(input_size=32))

    @pytest.mark.parametrize("positions", [(0, 0, 21), (-1, 0, 0)])
    def test_rejects_positions_outside_the_frames(self, tiny_env, positions):
        rows = np.array([[positions, (NULL_ACTION_CODE,) * 3]])
        with pytest.raises(ValueError, match="positions"):
            states_to_batch(rows, tiny_env.net_frames, NetArch(input_size=32))

    @pytest.mark.parametrize("codes", [(0, 1, NULL_ACTION_CODE + 1), (-1, 0, 0)])
    def test_rejects_action_codes_outside_the_vocabulary(self, tiny_env, codes):
        rows = np.array([[(0, 1, 2), codes]])
        with pytest.raises(ValueError, match="action codes"):
            states_to_batch(rows, tiny_env.net_frames, NetArch(input_size=32))

    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_bitwise_equal_to_the_masked_gather(self, tiny_env, batch):
        frames = tiny_env.net_frames
        arch = NetArch(input_size=32)
        rng = np.random.default_rng(batch)
        positions = rng.integers(0, len(frames), size=(batch, arch.history))
        codes = rng.integers(0, arch.action_vocab, size=(batch, arch.history))
        # The first state holds the lowest position and code, the last the highest.
        positions[0], codes[0] = 0, 0
        positions[-1, -1], codes[-1, -1] = len(frames) - 1, NULL_ACTION_CODE
        rows = np.stack([positions, codes], axis=1)
        states = [StateSeq(tuple(p), tuple(c)) for p, c in zip(positions.tolist(), codes.tolist())]
        for given in (rows, rows.reshape(batch, -1), states):
            got = states_to_batch(given, frames, arch)
            want = _reference_states_to_batch(given, frames, arch)
            for a, b in zip(got, want):
                assert _bits_equal(a, b)

    @pytest.mark.parametrize("row", [
        (0, 0, 21, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 6, 0), (0, 0, 0, 0, 0, -1),
        (2**62, 0, 0, 0, 0, 0), (0, -2**62, 0, 0, 0, 0), (0, 0, 0, 2**62, 0, 0),
        (0, 0, 0, 0, 0),
    ])
    def test_rejects_what_the_masked_gather_rejects(self, tiny_env, row):
        arch = NetArch(input_size=32)
        rows = np.array([row])
        for fn in (_reference_states_to_batch, states_to_batch):
            with pytest.raises(ValueError):
                fn(rows, tiny_env.net_frames, arch)


def _reference_states_to_batch(states, frames, arch):
    """`states_to_batch` as a masked range check and fancy-indexed gathers."""
    if frames.shape[1:] != (arch.input_size,) * 2:
        raise ValueError(f"frames of {frames.shape[1:]} do not match net input {arch.input_size}")
    rows = np.asarray(states, dtype=np.intp).reshape(len(states), 2, arch.history)
    if ((rows < 0) | (rows >= np.array([[len(frames)], [arch.action_vocab]]))).any():
        raise ValueError("states out of range")
    onehot = np.eye(arch.action_vocab, dtype=frames.dtype)[rows[:, 1]]
    return frames[rows[:, 0]], onehot.reshape(len(rows), arch.onehot_len)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        path = tmp_path / "ckpt"
        save_checkpoint(path, params, SMALL, step=1234)
        loaded, arch, step = load_checkpoint(path)
        assert arch == SMALL
        assert step == 1234
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_rejects_arch_mismatch(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        path = tmp_path / "ckpt"
        save_checkpoint(path, params, SMALL, step=1)
        with pytest.raises(ValueError, match="does not match"):
            load_checkpoint(path, expect_arch=NetArch(input_size=32))

    @pytest.mark.parametrize("field,value", [
        ("history", 2), ("history", 4), ("action_vocab", 5), ("n_actions", 4), ("n_actions", 6),
        ("n_actions", 5.0),
    ])
    def test_rejects_a_header_with_other_fixed_sizes(self, tmp_path, rng, field, value):
        path = tmp_path / "ckpt"
        save_checkpoint(path, init_params(SMALL, rng), SMALL, step=1)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[8 : 8 + header_len])
        header["arch"][field] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob + data[8 + header_len :])
        with pytest.raises(ValueError, match=f"{field} is fixed"):
            load_checkpoint(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        path = tmp_path / "ckpt"
        save_checkpoint(path, params, SMALL, step=1)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        path = tmp_path / "ckpt"
        save_checkpoint(path, params, SMALL, step=1)
        before = path.read_bytes()
        # The vector cannot convert to float32, so the write fails after
        # the header is out.
        broken = Params(SMALL, np.full(params.flat.shape, "x"))
        with pytest.raises(ValueError):
            save_checkpoint(path, broken, SMALL, step=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_data_section_is_the_flat_vector(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        path = tmp_path / "ckpt"
        save_checkpoint(path, params, SMALL, step=1)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[4:8])
        assert data[8 + header_len :] == params.flat.astype("<f4").tobytes()

    def test_loads_views_of_one_vector(self, tmp_path, rng):
        params = init_params(SMALL, rng)
        save_checkpoint(tmp_path / "ckpt", params, SMALL, step=1)
        loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
        assert isinstance(loaded, Params) and loaded.arch == SMALL
        assert loaded.flat.dtype == np.float32 and loaded.flat.flags.writeable
        assert all(np.shares_memory(view, loaded.flat) for view in loaded.values())
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_rejects_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "ckpt"
        save_checkpoint(path, init_params(SMALL, rng), SMALL, step=1)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_rewrite_reproduces_committed_bytes(self, tmp_path):
        committed = Path(__file__).parents[1] / "artifacts" / "tiny_s7" / "ckpt_20000"
        params, arch, step = load_checkpoint(committed)
        save_checkpoint(tmp_path / "ckpt", params, arch, step)
        assert (tmp_path / "ckpt").read_bytes() == committed.read_bytes()

    def test_copy_params_is_deep(self, rng):
        params = init_params(SMALL, rng)
        dup = copy_params(params)
        dup["head_b"][0] = 99.0
        assert params["head_b"][0] != 99.0
