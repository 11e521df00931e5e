"""From-scratch convolutional Q-network on dense numpy tensors.

Forward and backward passes are written out by hand: im2col convolutions,
batch normalization, max pooling, a 1x1 channel-reduction layer, an action
history embedding, and a small fully connected head.  `gradient_check`
compares every analytic parameter gradient against central differences on
a reduced copy of the network.

Layout is NCHW throughout.  The three frames of a state become the three
input channels; the three action codes become an 18-way one-hot vector
(3 history slots x 6 codes).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
import json
import os
from pathlib import Path
import struct
from typing import Sequence

import numpy as np

from focusrl.env import ACTION_HISTORY, NULL_ACTION_CODE, StateSeq

CHECKPOINT_MAGIC = b"FRLQ"
CHECKPOINT_VERSION = 1


class Mode(Enum):
    TRAIN = "train"  # differentiable; batch statistics unless told otherwise
    INFER = "infer"  # normalize with running statistics


@dataclass(frozen=True)
class NetArch:
    """Shape of the Q-network.  The default is the reference configuration."""

    input_size: int = 64
    conv_channels: tuple[int, int, int, int] = (8, 16, 32, 64)
    reduce_channels: int = 32
    embed_dim: int = 512
    fc_width: int = 256
    kernel_size: int = 5
    history: int = ACTION_HISTORY
    action_vocab: int = NULL_ACTION_CODE + 1
    n_actions: int = 5
    bn_momentum: float = 0.99
    bn_eps: float = 1e-5

    def __post_init__(self):
        if len(self.conv_channels) != 4:
            raise ValueError("expected exactly four conv stages")
        sizes = (
            self.input_size, *self.conv_channels, self.reduce_channels, self.embed_dim,
            self.fc_width, self.kernel_size, self.history, self.action_vocab, self.n_actions,
        )
        if any(type(size) is not int or size < 1 for size in sizes):
            raise ValueError(f"sizes and counts must be positive integers, got {sizes}")
        if self.input_size % 16 != 0 or self.input_size < 16:
            raise ValueError(
                f"input_size must be a positive multiple of 16, got {self.input_size}"
            )
        if self.kernel_size % 2 != 1:
            raise ValueError("kernel_size must be odd for same-size convolution")

    @property
    def final_map_size(self) -> int:
        # Four 2x2 pools halve the map four times.
        return self.input_size // 16

    @property
    def image_feature_len(self) -> int:
        return self.final_map_size * self.final_map_size * self.reduce_channels

    @property
    def feature_len(self) -> int:
        return self.image_feature_len + self.embed_dim

    @property
    def onehot_len(self) -> int:
        return self.history * self.action_vocab

    @property
    def null_slots(self) -> tuple[int, ...]:
        """One-hot positions of the padding code, one per history slot."""
        return tuple(
            k * self.action_vocab + NULL_ACTION_CODE for k in range(self.history)
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "conv_channels": list(self.conv_channels)}

    @classmethod
    def from_dict(cls, data: dict) -> "NetArch":
        data = dict(data)
        data["conv_channels"] = tuple(data["conv_channels"])
        return cls(**data)


def param_spec(arch: NetArch) -> list[tuple[str, tuple[int, ...], bool]]:
    """(name, shape, learnable) for every array, in checkpoint order."""
    k = arch.kernel_size
    spec: list[tuple[str, tuple[int, ...], bool]] = []
    c_in = arch.history
    for i, c_out in enumerate(arch.conv_channels, start=1):
        # No conv bias: the following batch norm subtracts any channel
        # constant, so a bias there is a dead parameter.
        spec.append((f"conv{i}_w", (c_out, c_in, k, k), True))
        spec.append((f"bn{i}_gamma", (c_out,), True))
        spec.append((f"bn{i}_beta", (c_out,), True))
        spec.append((f"bn{i}_rmean", (c_out,), False))
        spec.append((f"bn{i}_rvar", (c_out,), False))
        c_in = c_out
    spec.append(("reduce_w", (arch.reduce_channels, arch.conv_channels[-1]), True))
    spec.append(("reduce_b", (arch.reduce_channels,), True))
    spec.append(("embed_w", (arch.onehot_len, arch.embed_dim), True))
    spec.append(("fc1_w", (arch.feature_len, arch.fc_width), True))
    spec.append(("fc1_b", (arch.fc_width,), True))
    spec.append(("fc2_w", (arch.fc_width, arch.fc_width), True))
    spec.append(("fc2_b", (arch.fc_width,), True))
    spec.append(("head_w", (arch.fc_width, arch.n_actions), True))
    spec.append(("head_b", (arch.n_actions,), True))
    return spec


def learnable_names(arch: NetArch) -> list[str]:
    return [name for name, _, learnable in param_spec(arch) if learnable]


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def init_params(arch: NetArch, rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Fan-in He-uniform weights, zero biases, identity batch norm."""
    k = arch.kernel_size
    params: dict[str, np.ndarray] = {}
    for name, shape, _ in param_spec(arch):
        if name.endswith("_w") and name.startswith("conv"):
            fan_in = shape[1] * k * k
            arr = _he_uniform(rng, shape, fan_in)
        elif name == "reduce_w":
            arr = _he_uniform(rng, shape, shape[1])
        elif name == "embed_w":
            arr = _he_uniform(rng, shape, shape[0])
        elif name.endswith("_w"):
            arr = _he_uniform(rng, shape, shape[0])
        elif name.endswith("_gamma") or name.endswith("_rvar"):
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        params[name] = arr.astype(dtype)
    # Padding-code rows stay at zero forever; their gradients are masked.
    params["embed_w"][list(arch.null_slots), :] = 0.0
    return params


def copy_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in params.items()}


# -- layer primitives ----------------------------------------------------


class _Workspace:
    """Role-keyed scratch buffers, reused across steps.

    Each role (e.g. the stage-2 training-pass patch matrix) keeps one
    buffer alive and overwrites it.  Page faults of fresh allocations are
    not what makes the big matrix products slow: on a 2-vCPU Xeon with
    OpenBLAS 0.3.31 on one thread, the stage-2 dx patch product at exp1
    scale (batch 32) took 19.4 ms into a fresh array, 19.2 ms into a
    preallocated one, and 8.1 ms (7.9 ms fresh) with rows padded as in
    `_im2col`.  Inside the train loop, fresh arrays for every role did cost
    about 8% of env steps/s.
    A buffer is only valid until the next call that claims the same role.
    Every TRAIN forward claims the training roles, so a cached forward pass
    is only usable until the next TRAIN forward: `train_passes` counts
    them, and `backward_batch` refuses a cache from an earlier one.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}
        self.train_passes = 0

    def get(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype)
            self._bufs[key] = buf
        return buf


_WS = _Workspace()

# Patch-matrix rows are this many elements longer than their data; see
# `_im2col`.
ROW_PAD = 16


def _im2col(x: np.ndarray, k: int, role: str) -> np.ndarray:
    """(C, B, H, W) -> (C*k*k, B*H*W) patches of the zero-padded input.

    The trunk keeps activations channel-major so these patch copies and the
    matmul results are contiguous within a row without any transposes.
    Rows are B*H*W + ROW_PAD elements apart.  At batch 32, B*H*W is a
    power of two (a stage-1 row at exp1 scale is 512 KiB), and the skinny
    matmuls that read or write rows a power of two apart keep hitting the
    same cache sets; the padding spreads them out without changing any
    product.
    """
    c, b, h, w = x.shape
    pad = k // 2
    n = b * h * w
    xpad = _WS.get(f"{role}.xpad", (c, b, h + 2 * pad, w + 2 * pad), x.dtype)
    xpad[:, :, :pad, :] = 0
    xpad[:, :, h + pad :, :] = 0
    xpad[:, :, pad : h + pad, :pad] = 0
    xpad[:, :, pad : h + pad, w + pad :] = 0
    xpad[:, :, pad : h + pad, pad : w + pad] = x
    cols = _WS.get(f"{role}.cols", (c * k * k, n + ROW_PAD), x.dtype)[:, :n]
    # Every window of xpad as a (C, k, k, B, H, W) view, copied in one pass.
    sc, sb, sh, sw = xpad.strides
    windows = np.ndarray((c, k, k, b, h, w), xpad.dtype, xpad, 0, (sc, sh, sw, sb, sh, sw))
    cols.reshape(c, k, k, b, h, w)[...] = windows  # a view: only the unpadded axis splits
    return cols


def _col2im(dcols: np.ndarray, shape: tuple[int, int, int, int], k: int, role: str) -> np.ndarray:
    """Scatter-add the transpose of `_im2col` back to a (C, B, H, W) view.

    `dcols` holds its columns in (H, W, B) order, not `_im2col`'s (B, H,
    W), and so does the padded accumulator: each of the k*k shifted adds
    then runs over W*B contiguous elements instead of W.  Every element
    still sums the same k*k terms in the same order.
    """
    c, b, h, w = shape
    pad = k // 2
    dcols = dcols.reshape(c, k, k, h, w, b)
    dxpad = _WS.get(f"{role}.dxpad", (c, h + 2 * pad, w + 2 * pad, b), dcols.dtype)
    dxpad.fill(0)
    for ki in range(k):
        for kj in range(k):
            dxpad[:, ki : ki + h, kj : kj + w] += dcols[:, ki, kj]
    return dxpad[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)


def _conv_forward(x: np.ndarray, w: np.ndarray, role: str) -> tuple[np.ndarray, np.ndarray]:
    c, b, h, width = x.shape
    c_out, _, k, _ = w.shape
    cols = _im2col(x, k, role)
    out = _WS.get(f"{role}.out", (c_out, b * h * width), x.dtype)
    np.matmul(w.reshape(c_out, -1), cols, out=out)
    return out.reshape(c_out, b, h, width), cols


def _conv_backward(
    dout: np.ndarray,
    cols: np.ndarray,
    w: np.ndarray,
    x_shape: tuple[int, int, int, int],
    need_dx: bool,
    role: str,
) -> tuple[np.ndarray | None, np.ndarray]:
    c_out, b, h, width = dout.shape
    k = w.shape[2]
    dout_mat = dout.reshape(c_out, b * h * width)
    # (cols @ dout.T).T runs noticeably faster here than dout @ cols.T.
    dw = (cols @ dout_mat.T).T.reshape(w.shape)
    dx = None
    if need_dx:
        # Columns in (H, W, B) order for `_col2im`; permuting the columns
        # of a matrix product leaves each of its elements as it was.  Rows
        # padded as in `_im2col`, in a fresh buffer: one kept per stage
        # would add its size to the peak memory of every forward pass.
        n = b * h * width
        dout_hwb = np.ascontiguousarray(dout.transpose(0, 2, 3, 1)).reshape(c_out, n)
        dcols = np.empty((cols.shape[0], n + ROW_PAD), dout.dtype)[:, :n]
        np.matmul(w.reshape(c_out, -1).T, dout_hwb, out=dcols)
        dx = _col2im(dcols, x_shape, k, role)
    return dx, dw


def _bn_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    rmean: np.ndarray,
    rvar: np.ndarray,
    momentum: float,
    eps: float,
    update_running: bool,
    batch_stats: bool = True,
    role: str = "bn",
) -> tuple[np.ndarray, dict]:
    """Batch norm of a TRAIN pass; INFER folds it into the conv weights.

    Overwrites `x` with the output: the input is dead once centred.
    """
    bc = (slice(None), None, None, None)  # broadcast per-channel over (C, B, H, W)
    mean = x.mean(axis=(1, 2, 3))
    xhat = _WS.get(f"{role}.xhat", x.shape, x.dtype)
    np.subtract(x, mean[bc], out=xhat)
    out = x
    # x.var's own steps on the centred buffer, with `out` holding the
    # squares: mean of the squared deviations.  Dividing in the array's
    # dtype rounds like np.var's float64 division does, because a count
    # under 2**24 is exact in float32.
    np.square(xhat, out=out)
    var = out.sum(axis=(1, 2, 3))
    var /= x[0].size
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[bc]
    renorm = None
    if batch_stats:
        np.multiply(xhat, gamma[bc], out=out)
        out += beta[bc]
    else:
        # Batch renormalization without clipping: r * xhat + d is x
        # normalized by the running statistics (as they were before this
        # batch's update), and r, d are constants of the backward pass.
        inv_std_run = 1.0 / np.sqrt(rvar + eps)
        renorm = (inv_std_run / inv_std, (mean - rmean) * inv_std_run)
        np.multiply(xhat, (gamma * renorm[0])[bc], out=out)
        out += (beta + gamma * renorm[1])[bc]
        inv_std = inv_std_run  # dx scales by r * inv_std, which is this
    if update_running:
        rmean *= momentum
        rmean += (1.0 - momentum) * mean
        rvar *= momentum
        rvar += (1.0 - momentum) * var
    return out, {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "renorm": renorm}


def _bn_backward(
    dout: np.ndarray, ctx: dict, role: str = "bn"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """May overwrite `dout`; its buffer is not needed afterwards."""
    xhat = ctx["xhat"]
    inv_std = ctx["inv_std"]
    gamma = ctx["gamma"]
    bc = (slice(None), None, None, None)
    n = dout.shape[1] * dout.shape[2] * dout.shape[3]
    dgamma = np.einsum("cbhw,cbhw->c", dout, xhat)
    dbeta = dout.sum(axis=(1, 2, 3))
    # Gradient through the batch statistics as well as the normalization:
    # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    # with dxhat = gamma * dout, written to minimize full-size temporaries.
    dx = _WS.get(f"{role}.dbn", dout.shape, dout.dtype)
    np.multiply(xhat, ((gamma * dgamma) / n)[bc], out=dx)
    dx += ((gamma * dbeta) / n)[bc]
    dout *= gamma[bc]
    dx -= dout
    dx *= -inv_std[bc]
    if ctx["renorm"] is not None:
        r, d = ctx["renorm"]
        dgamma = r * dgamma + d * dbeta  # gamma scales r * xhat + d
    return dx, dgamma, dbeta


def _pool_windows(x: np.ndarray) -> tuple[np.ndarray, ...]:
    return (x[..., 0::2, 0::2], x[..., 0::2, 1::2], x[..., 1::2, 0::2], x[..., 1::2, 1::2])


def _pool_forward(
    x: np.ndarray, role: str = "pool", route: bool = False
) -> tuple[np.ndarray, tuple | None]:
    """2x2 max pool.

    With `route`, the context records which cell of each window won, for
    `_pool_backward`: the first maximal cell in the order 00, 01, 10, 11.
    """
    w00, w01, w10, w11 = _pool_windows(x)
    out = _WS.get(f"{role}.pout", w00.shape, x.dtype)
    tmp = _WS.get(f"{role}.ptmp", w00.shape, x.dtype)
    np.maximum(w00, w01, out=out)
    np.maximum(w10, w11, out=tmp)
    if not route:
        np.maximum(out, tmp, out=out)
        return out, None
    # A later cell wins a pair only if strictly greater, so ties go first.
    right = np.greater(w01, w00, out=_WS.get(f"{role}.right", w00.shape, bool))
    low_right = np.greater(w11, w10, out=_WS.get(f"{role}.lowright", w00.shape, bool))
    low = np.greater(tmp, out, out=_WS.get(f"{role}.low", w00.shape, bool))
    np.maximum(out, tmp, out=out)
    return out, (x.shape, out, right, low_right, low)


def _pool_backward(dout: np.ndarray, ctx: tuple, role: str) -> np.ndarray:
    """Gradient at the ReLU input of a routed `_pool_forward`.

    Each output gradient goes to the winning cell of its window, times the
    ReLU mask there, which is `pooled > 0` since the pool input is the
    ReLU output; every other cell gets +0.0.
    The selections run on the float bits as integers, where a multiply by
    a 0/1 flag gives either the bits or +0.0 exactly.
    """
    x_shape, pooled, right, low_right, low = ctx
    grad = np.multiply(dout, pooled > 0, order="C")
    as_int = np.dtype(f"i{grad.itemsize}")
    bits = grad.view(as_int)
    dx = _WS.get(f"{role}.dpool", x_shape, grad.dtype)
    d00, d01, d10, d11 = (q.view(as_int) for q in _pool_windows(dx))
    lower = bits * low
    upper = np.subtract(bits, lower, out=bits)
    np.multiply(upper, right, out=d01)
    np.subtract(upper, d01, out=d00)
    np.multiply(lower, low_right, out=d11)
    np.subtract(lower, d11, out=d10)
    return dx


# -- full network --------------------------------------------------------


def states_to_batch(
    states: Sequence[StateSeq], arch: NetArch, dtype=np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Stack states into (B, history, S, S) frames and (B, 18) one-hots."""
    size = arch.input_size
    x = np.empty((len(states), arch.history, size, size), dtype=dtype)
    onehot = np.zeros((len(states), arch.onehot_len), dtype=dtype)
    for b, state in enumerate(states):
        for k, frame in enumerate(state.frames):
            if frame.shape != (size, size):
                raise ValueError(
                    f"frame shape {frame.shape} does not match net input {size}x{size}"
                )
            x[b, k] = frame.pixels
        for k, code in enumerate(state.action_codes):
            onehot[b, k * arch.action_vocab + code] = 1.0
    return x, onehot


def forward_batch(
    params: dict[str, np.ndarray],
    arch: NetArch,
    x: np.ndarray,
    onehot: np.ndarray,
    mode: Mode,
    update_running: bool = False,
    want_cache: bool = False,
    batch_stats: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Q-values (B, n_actions); optionally a cache for `backward_batch`.

    In TRAIN mode, `batch_stats=False` applies batch renormalization
    without clipping (Ioffe 2017, arXiv:1702.03275): the Q-values equal
    INFER's, so a sample's values do not depend on the rest of the batch,
    while `backward_batch` returns the batch-statistics gradient with the
    corrections r = sigma_B / sigma and d = (mu_B - mu) / sigma held
    constant.  That is not the exact gradient of these Q-values; it keeps
    batch norm's conditioning of the updates.
    """
    if x.ndim != 4 or x.shape[1] != arch.history or x.shape[2] != arch.input_size:
        raise ValueError(f"bad image batch shape {x.shape}")
    if onehot.shape != (x.shape[0], arch.onehot_len):
        raise ValueError(f"bad one-hot batch shape {onehot.shape}")
    if mode is Mode.INFER and (update_running or want_cache):
        raise ValueError("running-stat updates and backward caches need TRAIN mode")

    cache: dict = {"x_shapes": [], "cols": [], "bn": [], "pool": []}
    # The trunk runs channel-major (C, B, H, W); see `_im2col`.
    out = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    if mode is Mode.INFER:
        # Frozen statistics let the normalization fold into the conv
        # weights: BN(W @ x) == (s * W) @ x + t with per-channel s and t.
        for i in range(1, 5):
            gamma = params[f"bn{i}_gamma"]
            scale = gamma / np.sqrt(params[f"bn{i}_rvar"] + arch.bn_eps)
            shift = params[f"bn{i}_beta"] - params[f"bn{i}_rmean"] * scale
            w = params[f"conv{i}_w"] * scale[:, None, None, None].astype(out.dtype)
            conv_out, _ = _conv_forward(out, w, role=f"infer{i}")
            conv_out += shift[:, None, None, None]
            np.maximum(conv_out, 0, out=conv_out)
            out, _ = _pool_forward(conv_out, role=f"infer{i}")
    else:
        _WS.train_passes += 1
        cache["train_pass"] = _WS.train_passes
        for i in range(1, 5):
            x_in = out
            conv_out, cols = _conv_forward(x_in, params[f"conv{i}_w"], role=f"train{i}")
            bn_out, bn_ctx = _bn_forward(
                conv_out,
                params[f"bn{i}_gamma"],
                params[f"bn{i}_beta"],
                params[f"bn{i}_rmean"],
                params[f"bn{i}_rvar"],
                arch.bn_momentum,
                arch.bn_eps,
                update_running,
                batch_stats,
                role=f"train{i}",
            )
            bn_out *= bn_out > 0  # the normalized buffer becomes the ReLU output
            pool_out, pool_ctx = _pool_forward(bn_out, role=f"train{i}", route=want_cache)
            if want_cache:
                cache["x_shapes"].append(x_in.shape)
                cache["cols"].append(cols)
                cache["bn"].append(bn_ctx)
                cache["pool"].append(pool_ctx)
            out = pool_out

    # 1x1 reduction (a single matmul over channels) then flatten per sample.
    b = x.shape[0]
    m = arch.final_map_size
    xm = out.reshape(arch.conv_channels[-1], b * m * m)
    red = params["reduce_w"] @ xm + params["reduce_b"][:, None]
    red_mask = red > 0
    red *= red_mask
    v_img = (
        red.reshape(arch.reduce_channels, b, m * m)
        .transpose(1, 0, 2)
        .reshape(b, arch.image_feature_len)
    )

    v_act = onehot @ params["embed_w"]
    feat = np.concatenate([v_img, v_act], axis=1)

    h1 = feat @ params["fc1_w"] + params["fc1_b"]
    h1_mask = h1 > 0
    h1 *= h1_mask
    h2 = h1 @ params["fc2_w"] + params["fc2_b"]
    h2_mask = h2 > 0
    h2 *= h2_mask
    q = h2 @ params["head_w"] + params["head_b"]

    if not want_cache:
        return q, None
    cache.update(
        {
            "xm": xm,
            "red_mask": red_mask,
            "onehot": onehot,
            "feat": feat,
            "h1": h1,
            "h1_mask": h1_mask,
            "h2": h2,
            "h2_mask": h2_mask,
        }
    )
    return q, cache


def backward_batch(
    params: dict[str, np.ndarray],
    arch: NetArch,
    cache: dict,
    dq: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of every learnable parameter given dL/dq.

    `cache` must come from the latest TRAIN forward: a later one overwrites
    the buffers it points into, so a stale cache raises RuntimeError.
    """
    if cache["train_pass"] != _WS.train_passes:
        raise RuntimeError(
            "stale forward cache: a later TRAIN forward reused its buffers; "
            "run the forward pass again before backward_batch"
        )
    grads: dict[str, np.ndarray] = {}

    grads["head_w"] = cache["h2"].T @ dq
    grads["head_b"] = dq.sum(axis=0)
    dh2 = (dq @ params["head_w"].T) * cache["h2_mask"]
    grads["fc2_w"] = cache["h1"].T @ dh2
    grads["fc2_b"] = dh2.sum(axis=0)
    dh1 = (dh2 @ params["fc2_w"].T) * cache["h1_mask"]
    grads["fc1_w"] = cache["feat"].T @ dh1
    grads["fc1_b"] = dh1.sum(axis=0)
    dfeat = dh1 @ params["fc1_w"].T

    dv_img = dfeat[:, : arch.image_feature_len]
    dv_act = dfeat[:, arch.image_feature_len :]

    grads["embed_w"] = cache["onehot"].T @ dv_act
    grads["embed_w"][list(arch.null_slots), :] = 0.0  # padding rows never move

    b = dq.shape[0]
    m = arch.final_map_size
    dred = np.ascontiguousarray(
        dv_img.reshape(b, arch.reduce_channels, m * m).transpose(1, 0, 2)
    ).reshape(arch.reduce_channels, b * m * m)
    dred *= cache["red_mask"]
    grads["reduce_w"] = dred @ cache["xm"].T
    grads["reduce_b"] = dred.sum(axis=1)
    dout = (params["reduce_w"].T @ dred).reshape(arch.conv_channels[-1], b, m, m)

    for i in range(4, 0, -1):
        drelu = _pool_backward(dout, cache["pool"][i - 1], role=f"bwd{i}")
        dconv, dgamma, dbeta = _bn_backward(drelu, cache["bn"][i - 1], role=f"bwd{i}")
        grads[f"bn{i}_gamma"] = dgamma
        grads[f"bn{i}_beta"] = dbeta
        dout, dw = _conv_backward(
            dconv,
            cache["cols"][i - 1],
            params[f"conv{i}_w"],
            cache["x_shapes"][i - 1],
            need_dx=(i > 1),
            role=f"bwd{i}",
        )
        grads[f"conv{i}_w"] = dw
    return grads


# -- verification --------------------------------------------------------

REDUCED_CHECK_ARCH = NetArch(
    input_size=16,
    conv_channels=(2, 2, 2, 2),
    reduce_channels=2,
    embed_dim=8,
    fc_width=8,
)


def gradient_check(
    arch: NetArch = REDUCED_CHECK_ARCH,
    batch: int = 4,
    h: float = 1e-5,
    seed: int = 0,
    names: Sequence[str] | None = None,
) -> tuple[float, int]:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64 on a reduced network so every learnable coordinate is
    affordable to probe.  The loss is L = 0.5 * sum(q^2), whose gradient
    at the outputs is simply q.  Frozen embedding rows are constants, not
    free parameters, so they are skipped.  `names` restricts the probe to a
    subset of parameters; the default checks them all.
    """
    rng = np.random.default_rng(seed)
    params = init_params(arch, rng, dtype=np.float64)
    x = rng.uniform(0.0, 1.0, size=(batch, arch.history, arch.input_size, arch.input_size))
    codes = rng.integers(0, arch.action_vocab, size=(batch, arch.history))
    onehot = np.zeros((batch, arch.onehot_len))
    for b in range(batch):
        for k in range(arch.history):
            onehot[b, k * arch.action_vocab + codes[b, k]] = 1.0

    def loss(p: dict[str, np.ndarray]) -> float:
        q, _ = forward_batch(p, arch, x, onehot, Mode.TRAIN)
        return 0.5 * float(np.sum(q * q))

    q, cache = forward_batch(params, arch, x, onehot, Mode.TRAIN, want_cache=True)
    grads = backward_batch(params, arch, cache, q)

    frozen = set(arch.null_slots)
    worst = 0.0
    checked = 0
    targets = learnable_names(arch) if names is None else [n for n in learnable_names(arch) if n in set(names)]
    for name in targets:
        arr = params[name]
        grad = grads[name]
        for idx in np.ndindex(arr.shape):
            if name == "embed_w" and idx[0] in frozen:
                continue
            keep = arr[idx]
            arr[idx] = keep + h
            hi = loss(params)
            arr[idx] = keep - h
            lo = loss(params)
            arr[idx] = keep
            numeric = (hi - lo) / (2.0 * h)
            analytic = float(grad[idx])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
            checked += 1
    return worst, checked


# -- budget accounting ---------------------------------------------------

# Size targets the stock architecture was tuned against, with the windows
# the counts must land in.
PARAM_BUDGET = 381_000
PARAM_TOLERANCE = 0.10
MAC_BUDGET = 13_800_000
MAC_TOLERANCE = 0.25


def dense_counts(n_in: int, n_out: int, bias: bool = True) -> tuple[int, int]:
    """(parameters, multiply-accumulates) of one dense layer."""
    return n_in * n_out + (n_out if bias else 0), n_in * n_out


def conv_counts(
    height: int, width: int, c_in: int, c_out: int, kernel: int, bias: bool = True
) -> tuple[int, int]:
    """(parameters, MACs) of one same-padded convolution at the given map size."""
    params = c_out * c_in * kernel * kernel + (c_out if bias else 0)
    macs = height * width * c_out * c_in * kernel * kernel
    return params, macs


def count_params(arch: NetArch) -> int:
    """Learnable scalars only; batch-norm running statistics are buffers."""
    total = 0
    for _, shape, learnable in param_spec(arch):
        if learnable:
            total += int(np.prod(shape))
    return total


def count_macs(arch: NetArch) -> int:
    """Multiply-accumulates of one forward pass at batch 1.

    Convolutions count `out_pixels * c_in * k^2` per output channel, dense
    layers count `n_in * n_out`; normalization and pooling are free.  The
    embedding is the dense layer one-hot @ weights.
    """
    total = 0
    size = arch.input_size
    c_in = arch.history
    for c_out in arch.conv_channels:
        total += conv_counts(size, size, c_in, c_out, arch.kernel_size)[1]
        size //= 2
        c_in = c_out
    total += conv_counts(size, size, c_in, arch.reduce_channels, 1)[1]
    total += dense_counts(arch.onehot_len, arch.embed_dim, bias=False)[1]
    total += dense_counts(arch.feature_len, arch.fc_width)[1]
    total += dense_counts(arch.fc_width, arch.fc_width)[1]
    total += dense_counts(arch.fc_width, arch.n_actions)[1]
    return total


# -- checkpoints ---------------------------------------------------------


@contextmanager
def atomic_open(path: str | Path, mode: str, **kwargs):
    """Write a temp file beside `path` that replaces it only once the block ends cleanly."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], arch: NetArch, step: int) -> None:
    """Magic, header length, JSON header, then flat little-endian float32."""
    names = [name for name, _, _ in param_spec(arch)]
    header = {
        "version": CHECKPOINT_VERSION,
        "arch": arch.to_dict(),
        "step": int(step),
        "arrays": [
            {"name": name, "shape": list(params[name].shape)} for name in names
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())


def _is_array_entry(entry) -> bool:
    """A manifest entry: a string name and a list of non-negative int dims."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(dim) is int and dim >= 0 for dim in entry["shape"])
    )


def load_checkpoint(path: str | Path, expect_arch: NetArch | None = None) -> tuple[dict[str, np.ndarray], NetArch, int]:
    """Read a `save_checkpoint` file; a malformed one raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise ValueError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<I", raw_len)
        # Malformed JSON or UTF-8 raises a ValueError subclass.
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        missing = [key for key in ("arch", "step", "arrays") if key not in header]
        if missing:
            raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
        if not isinstance(header["arch"], dict):
            raise ValueError(f"{path}: checkpoint architecture is not a JSON object")
        try:
            arch = NetArch.from_dict(header["arch"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: bad checkpoint architecture: {type(exc).__name__}: {exc}"
            ) from None
        if expect_arch is not None and arch != expect_arch:
            raise ValueError(
                f"{path}: checkpoint architecture {arch.to_dict()} does not match "
                f"the requested architecture {expect_arch.to_dict()}"
            )
        step = header["step"]
        if type(step) is not int or step < 0:
            raise ValueError(f"{path}: checkpoint step must be a non-negative integer, got {step!r}")
        arrays = header["arrays"]
        if not isinstance(arrays, list) or not all(_is_array_entry(e) for e in arrays):
            raise ValueError(
                f"{path}: checkpoint arrays must be a list of entries with a string name "
                "and a list of non-negative integer shape"
            )
        manifest = {entry["name"]: tuple(entry["shape"]) for entry in arrays}
        expected = {name: shape for name, shape, _ in param_spec(arch)}
        if len(manifest) != len(arrays) or manifest != expected:
            raise ValueError(f"{path}: array manifest does not match the declared architecture")
        params: dict[str, np.ndarray] = {}
        for name, shape in manifest.items():
            count = int(np.prod(shape)) if shape else 1
            data = fh.read(count * 4)
            if len(data) != count * 4:
                raise ValueError(f"{path}: truncated checkpoint data at {name}")
            params[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float32)
        extra = fh.read(1)
        if extra:
            raise ValueError(f"{path}: trailing bytes after the last array")
    return params, arch, step
