"""From-scratch convolutional Q-network on dense numpy tensors.

Forward and backward passes are written out by hand: im2col convolutions,
batch normalization, max pooling, a 1x1 channel-reduction layer, an action
history embedding, and a small fully connected head.  `gradient_check`
compares every analytic parameter gradient against central differences on
a reduced copy of the network.

Layout is NCHW throughout.  A state's three positions pick its three input
channels from the env's `net_frames`; its three action codes become an
18-way one-hot vector (3 history slots x 6 codes).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum
import json
import math
from pathlib import Path
import struct
from typing import ClassVar, Sequence

import numpy as np

from focusrl.env import ACTION_HISTORY, NULL_ACTION_CODE, Action
from focusrl.fileio import atomic_open

CHECKPOINT_MAGIC = b"FRLQ"
CHECKPOINT_VERSION = 1


class Mode(Enum):
    """How `forward_batch` normalizes, and whether it returns a backward cache."""

    INFER = "infer"  # running statistics folded into the conv weights; no cache
    TRAIN = "train"  # batch renormalization; updates the running statistics
    BATCH_STATS = "batch_stats"  # plain batch norm, running statistics untouched


@dataclass(frozen=True)
class NetArch:
    """Shape of the Q-network.  The default is the reference configuration.

    The env fixes the history, the action codes (five actions and the
    padding code) and so the outputs; those, the kernel size and the batch
    norm constants are constants, not fields.
    """

    history: ClassVar[int] = ACTION_HISTORY
    action_vocab: ClassVar[int] = NULL_ACTION_CODE + 1
    n_actions: ClassVar[int] = len(Action)
    kernel_size: ClassVar[int] = 5
    bn_momentum: ClassVar[float] = 0.99
    bn_eps: ClassVar[float] = 1e-5
    _FIXED: ClassVar[tuple[str, ...]] = (
        "history", "action_vocab", "n_actions", "kernel_size", "bn_momentum", "bn_eps")

    input_size: int = 64
    conv_channels: tuple[int, int, int, int] = (8, 16, 32, 64)
    reduce_channels: int = 32
    embed_dim: int = 512
    fc_width: int = 256

    def __post_init__(self):
        if len(self.conv_channels) != 4:
            raise ValueError("expected exactly four conv stages")
        sizes = (
            self.input_size, *self.conv_channels, self.reduce_channels, self.embed_dim,
            self.fc_width,
        )
        if any(type(size) is not int or size < 1 for size in sizes):
            raise ValueError(f"sizes and counts must be positive integers, got {sizes}")
        if self.input_size % 16 != 0 or self.input_size < 16:
            raise ValueError(
                f"input_size must be a positive multiple of 16, got {self.input_size}"
            )

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
        """The fields plus the fixed sizes, which checkpoint headers record."""
        fixed = {name: getattr(self, name) for name in self._FIXED}
        return {**asdict(self), "conv_channels": list(self.conv_channels), **fixed}

    @classmethod
    def from_dict(cls, data: dict) -> "NetArch":
        data = dict(data)
        for name in cls._FIXED:
            value, fixed = data.pop(name), getattr(cls, name)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"{name} is fixed at {fixed!r}, got {value!r}")
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


class Params(dict):
    """Every array of the network, as named views of one flat vector.

    `flat` holds the arrays back to back in `param_spec` order, so a copy,
    an optimizer step or a checkpoint's data is one operation on it;
    `params[name]` is the array reshaped from its slice.  Assign through a
    view (`params[name][...] = ...`): rebinding a name detaches it.
    """

    def __init__(self, arch: NetArch, flat: np.ndarray):
        if flat.shape != (param_size(arch),):
            raise ValueError(
                f"expected a flat vector of {param_size(arch)} values, got shape {flat.shape}"
            )
        super().__init__()
        start = 0
        for name, shape, _ in param_spec(arch):
            size = math.prod(shape)
            self[name] = flat[start : start + size].reshape(shape)
            start += size
        self.arch = arch
        self.flat = flat


def param_size(arch: NetArch) -> int:
    """Scalars in a `Params`, running statistics included."""
    return sum(math.prod(shape) for _, shape, _ in param_spec(arch))


def init_params(arch: NetArch, rng: np.random.Generator, dtype=np.float32) -> Params:
    """Fan-in He-uniform weights, zero biases, identity batch norm."""
    k = arch.kernel_size
    params = Params(arch, np.zeros(param_size(arch), dtype))
    for name, arr in params.items():
        shape = arr.shape
        if name.endswith("_w") and name.startswith("conv"):
            arr[...] = _he_uniform(rng, shape, shape[1] * k * k)
        elif name == "reduce_w":
            arr[...] = _he_uniform(rng, shape, shape[1])
        elif name.endswith("_w"):
            arr[...] = _he_uniform(rng, shape, shape[0])
        elif name.endswith("_gamma") or name.endswith("_rvar"):
            arr[...] = 1.0
    # Padding-code rows stay at zero forever; their gradients are masked.
    params["embed_w"][list(arch.null_slots), :] = 0.0
    return params


def copy_params(params: Params) -> Params:
    return Params(params.arch, params.flat.copy())


# -- layer primitives ----------------------------------------------------


class _Workspace:
    """One set of scratch buffers per conv stage, shared by every pass.

    Each key (e.g. `stage2.cols`, the stage-2 patch matrix) keeps one flat
    buffer that grows to the largest size ever asked of it; `get` returns
    its first elements as a contiguous array of the asked shape, so a
    batch-1 pass lays its data out as in a buffer of its own.  Fresh arrays
    instead cost the train loop about 8% of env steps/s.
    The backward reuses what the forward no longer needs: the pool gradient,
    then the (H, W, B)-ordered conv gradient, go into `out`; the batch-norm
    input gradient over `xhat` once dgamma is taken; the dx patch product
    into `cols` once dw is taken; the `_col2im` accumulator into `xpad`.
    So any forward, TRAIN or INFER, overwrites what an earlier cache points
    into: `passes` counts forwards, and `backward_batch` refuses a cache
    from any but the latest.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}
        self._views: dict[tuple, np.ndarray] = {}
        self.passes = 0

    def get(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        view = self._views.get((key, shape, dtype))
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            buf = self._bufs.get(key)
            if buf is None or buf.size < nbytes:
                buf = self._bufs[key] = np.empty(nbytes, np.uint8)
                self._views = {k: v for k, v in self._views.items() if k[0] != key}
            view = self._views[key, shape, dtype] = buf[:nbytes].view(dtype).reshape(shape)
        return view


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
    dxpad = _WS.get(f"{role}.xpad", (c, h + 2 * pad, w + 2 * pad, b), dcols.dtype)
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
        # `cols` is dead once dw is taken and `out` once the conv gradient
        # is in `xhat`: the dx patch product goes into the padded rows of
        # the one, its (H, W, B)-ordered input into the other.  Permuting
        # the columns of a matrix product leaves each element as it was.
        dout_hwb = _WS.get(f"{role}.out", (c_out, h, width, b), dout.dtype)
        np.copyto(dout_hwb, dout.transpose(0, 2, 3, 1))
        np.matmul(w.reshape(c_out, -1).T, dout_hwb.reshape(c_out, b * h * width), out=cols)
        dx = _col2im(cols, x_shape, k, role)
    return dx, dw


def _bn_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    rmean: np.ndarray,
    rvar: np.ndarray,
    momentum: float,
    eps: float,
    renorm: bool,
    role: str = "bn",
) -> tuple[np.ndarray, dict]:
    """Batch norm of a differentiable pass; INFER folds it into the conv weights.

    With `renorm`, batch renormalization that then updates the running
    statistics; without, plain batch norm that leaves them alone.
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
    if not renorm:
        np.multiply(xhat, gamma[bc], out=out)
        out += beta[bc]
        return out, {"xhat": xhat, "inv_std": inv_std, "gamma": gamma, "renorm": None}
    # Batch renormalization without clipping: r * xhat + d is x normalized
    # by the running statistics (as they were before this batch's update),
    # and r, d are constants of the backward pass.
    inv_std_run = 1.0 / np.sqrt(rvar + eps)
    r_d = (inv_std_run / inv_std, (mean - rmean) * inv_std_run)
    np.multiply(xhat, (gamma * r_d[0])[bc], out=out)
    out += (beta + gamma * r_d[1])[bc]
    rmean *= momentum
    rmean += (1.0 - momentum) * mean
    rvar *= momentum
    rvar += (1.0 - momentum) * var
    # dx scales by r * inv_std, which is inv_std_run.
    return out, {"xhat": xhat, "inv_std": inv_std_run, "gamma": gamma, "renorm": r_d}


def _bn_backward(dout: np.ndarray, ctx: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Writes the input gradient over `ctx["xhat"]` and may overwrite `dout`."""
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
    dx = xhat  # dead once dgamma is taken
    dx *= ((gamma * dgamma) / n)[bc]
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
    dx = _WS.get(f"{role}.out", x_shape, grad.dtype)  # the pool input is dead
    d00, d01, d10, d11 = (q.view(as_int) for q in _pool_windows(dx))
    lower = bits * low
    upper = np.subtract(bits, lower, out=bits)
    np.multiply(upper, right, out=d01)
    np.subtract(upper, d01, out=d00)
    np.multiply(lower, low_right, out=d11)
    np.subtract(lower, d11, out=d10)
    return dx


# -- full network --------------------------------------------------------


def states_to_batch(states, frames: np.ndarray, arch: NetArch) -> tuple[np.ndarray, np.ndarray]:
    """Gather (B, history, S, S) frames and (B, history * vocab) one-hots.

    `states` holds `StateSeq`s or their integer rows: positions, oldest
    first, then action codes.  `frames` is the env's `net_frames`.
    """
    if frames.shape[1:] != (arch.input_size,) * 2:
        raise ValueError(f"frames of {frames.shape[1:]} do not match net input {arch.input_size}")
    rows = np.asarray(states, dtype=np.intp).reshape(len(states), 2, arch.history)
    # One reduction checks both ranges: as unsigned, a negative exceeds both.
    top_position, top_code = rows.view(np.uintp).max(axis=(0, 2), initial=0).tolist()
    if top_position >= len(frames) or top_code >= arch.action_vocab:
        raise ValueError(f"states outside the {len(frames)} positions or {arch.action_vocab} "
                         f"action codes: {rows.tolist()}")
    onehot = np.eye(arch.action_vocab, dtype=frames.dtype).take(rows[:, 1], axis=0)
    return frames.take(rows[:, 0], axis=0), onehot.reshape(len(rows), arch.onehot_len)


def forward_batch(
    params: dict[str, np.ndarray],
    arch: NetArch,
    x: np.ndarray,
    onehot: np.ndarray,
    mode: Mode,
) -> tuple[np.ndarray, dict | None]:
    """Q-values (B, n_actions), plus a cache for `backward_batch` unless INFER.

    INFER normalizes with the running statistics.  TRAIN, the learner's
    pass, applies batch renormalization without clipping (Ioffe 2017,
    arXiv:1702.03275), then updates the running statistics: its Q-values
    equal INFER's, so a sample's values do not depend on the rest of the
    batch, while `backward_batch` returns the batch-statistics gradient
    with the corrections r = sigma_B / sigma and d = (mu_B - mu) / sigma
    held constant.  That is not the exact gradient of these Q-values; it
    keeps batch norm's conditioning of the updates.  BATCH_STATS uses the
    batch's own statistics and leaves the running ones alone: the function
    whose exact gradient `backward_batch` returns, as `gradient_check` probes.
    """
    if x.ndim != 4 or x.shape[1] != arch.history or x.shape[2] != arch.input_size:
        raise ValueError(f"bad image batch shape {x.shape}")
    if onehot.shape != (x.shape[0], arch.onehot_len):
        raise ValueError(f"bad one-hot batch shape {onehot.shape}")

    _WS.passes += 1
    cache: dict = {"pass": _WS.passes, "x_shapes": [], "cols": [], "bn": [], "pool": []}
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
            conv_out, _ = _conv_forward(out, w, role=f"stage{i}")
            conv_out += shift[:, None, None, None]
            np.maximum(conv_out, 0, out=conv_out)
            out, _ = _pool_forward(conv_out, role=f"stage{i}")
    else:
        for i in range(1, 5):
            cache["x_shapes"].append(out.shape)
            conv_out, cols = _conv_forward(out, params[f"conv{i}_w"], role=f"stage{i}")
            bn_out, bn_ctx = _bn_forward(
                conv_out,
                params[f"bn{i}_gamma"],
                params[f"bn{i}_beta"],
                params[f"bn{i}_rmean"],
                params[f"bn{i}_rvar"],
                arch.bn_momentum,
                arch.bn_eps,
                renorm=mode is Mode.TRAIN,
                role=f"stage{i}",
            )
            bn_out *= bn_out > 0  # the normalized buffer becomes the ReLU output
            out, pool_ctx = _pool_forward(bn_out, role=f"stage{i}", route=True)
            cache["cols"].append(cols)
            cache["bn"].append(bn_ctx)
            cache["pool"].append(pool_ctx)

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

    if mode is Mode.INFER:
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
    params: Params,
    arch: NetArch,
    cache: dict,
    dq: np.ndarray,
) -> Params:
    """Gradients given dL/dq, as a `Params` over a fresh zero vector.

    The slots of the running statistics and of the padding-code embedding
    rows hold 0.  `cache` must come from the latest forward, TRAIN or
    INFER: a later one overwrites the buffers it points into, so a stale
    cache raises RuntimeError.  The backward then reuses those buffers in
    turn.
    """
    if cache["pass"] != _WS.passes:
        raise RuntimeError(
            "stale forward cache: a later forward reused its buffers; "
            "run the forward pass again before backward_batch"
        )
    grads = Params(arch, np.zeros_like(params.flat))

    grads["head_w"][...] = cache["h2"].T @ dq
    grads["head_b"][...] = dq.sum(axis=0)
    dh2 = (dq @ params["head_w"].T) * cache["h2_mask"]
    grads["fc2_w"][...] = cache["h1"].T @ dh2
    grads["fc2_b"][...] = dh2.sum(axis=0)
    dh1 = (dh2 @ params["fc2_w"].T) * cache["h1_mask"]
    grads["fc1_w"][...] = cache["feat"].T @ dh1
    grads["fc1_b"][...] = dh1.sum(axis=0)
    dfeat = dh1 @ params["fc1_w"].T

    dv_img = dfeat[:, : arch.image_feature_len]
    dv_act = dfeat[:, arch.image_feature_len :]

    grads["embed_w"][...] = cache["onehot"].T @ dv_act
    grads["embed_w"][list(arch.null_slots), :] = 0.0  # padding rows never move

    b = dq.shape[0]
    m = arch.final_map_size
    dred = np.ascontiguousarray(
        dv_img.reshape(b, arch.reduce_channels, m * m).transpose(1, 0, 2)
    ).reshape(arch.reduce_channels, b * m * m)
    dred *= cache["red_mask"]
    grads["reduce_w"][...] = dred @ cache["xm"].T
    grads["reduce_b"][...] = dred.sum(axis=1)
    dout = (params["reduce_w"].T @ dred).reshape(arch.conv_channels[-1], b, m, m)

    for i in range(4, 0, -1):
        drelu = _pool_backward(dout, cache["pool"][i - 1], role=f"stage{i}")
        dconv, dgamma, dbeta = _bn_backward(drelu, cache["bn"][i - 1])
        grads[f"bn{i}_gamma"][...] = dgamma
        grads[f"bn{i}_beta"][...] = dbeta
        dout, dw = _conv_backward(
            dconv,
            cache["cols"][i - 1],
            params[f"conv{i}_w"],
            cache["x_shapes"][i - 1],
            need_dx=(i > 1),
            role=f"stage{i}",
        )
        grads[f"conv{i}_w"][...] = dw
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
    frames = rng.uniform(0.0, 1.0, size=(batch * arch.history, arch.input_size, arch.input_size))
    codes = rng.integers(0, arch.action_vocab, size=(batch, arch.history))
    positions = np.arange(batch * arch.history).reshape(codes.shape)
    x, onehot = states_to_batch(np.stack([positions, codes], axis=1), frames, arch)

    def loss(p: dict[str, np.ndarray]) -> float:
        q, _ = forward_batch(p, arch, x, onehot, Mode.BATCH_STATS)
        return 0.5 * float(np.sum(q * q))

    q, cache = forward_batch(params, arch, x, onehot, Mode.BATCH_STATS)
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
        total += size * size * c_out * c_in * arch.kernel_size * arch.kernel_size
        size //= 2
        c_in = c_out
    total += size * size * c_in * arch.reduce_channels  # the 1x1 reduction
    total += dense_counts(arch.onehot_len, arch.embed_dim, bias=False)[1]
    total += dense_counts(arch.feature_len, arch.fc_width)[1]
    total += dense_counts(arch.fc_width, arch.fc_width)[1]
    total += dense_counts(arch.fc_width, arch.n_actions)[1]
    return total


# -- checkpoints ---------------------------------------------------------


def save_checkpoint(path: str | Path, params: Params, arch: NetArch, step: int) -> None:
    """Magic, header length, JSON header, then `params.flat` as little-endian float32.

    The header's `arrays` manifest names each array of the data section in
    `param_spec` order.
    """
    header = {
        "version": CHECKPOINT_VERSION,
        "arch": arch.to_dict(),
        "step": int(step),
        "arrays": [
            {"name": name, "shape": list(params[name].shape)} for name, _, _ in param_spec(arch)
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f4", copy=False))  # no copy on a little-endian host


def _is_array_entry(entry) -> bool:
    """A manifest entry: a string name and a list of non-negative int dims."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(dim) is int and dim >= 0 for dim in entry["shape"])
    )


def load_checkpoint(path: str | Path, expect_arch: NetArch | None = None) -> tuple[Params, NetArch, int]:
    """Read a `save_checkpoint` file into one float32 vector.

    A malformed file raises ValueError, and so does a manifest that lists
    other arrays, or the same ones in another order, than `param_spec`.
    """
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
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in arrays]
        if manifest != [(name, shape) for name, shape, _ in param_spec(arch)]:
            raise ValueError(f"{path}: array manifest does not match the declared architecture")
        flat = np.empty(param_size(arch), dtype="<f4")
        if fh.readinto(flat) != flat.nbytes:
            raise ValueError(f"{path}: truncated checkpoint data")
        extra = fh.read(1)
        if extra:
            raise ValueError(f"{path}: trailing bytes after the last array")
    return Params(arch, flat.astype(np.float32, copy=False)), arch, step
