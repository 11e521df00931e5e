"""Sharpness measures and per-stack focus curves.

Both measures score gradient energy over the image interior only, so they
never depend on an arbitrary border-padding convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported for annotations only; avoids a package cycle
    from focusrl.imaging.image import Image
    from focusrl.imaging.stack import FocalStack


class FocusMeasure(Enum):
    TENENGRAD = "tenengrad"
    LAPLACIAN_VARIANCE = "laplacian_variance"


@dataclass(frozen=True)
class FocusCurve:
    """Per-position sharpness values for one focal stack."""

    values: np.ndarray
    max_value: float
    argmax_index: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "FocusCurve":
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("focus curve needs a non-empty 1-D value array")
        # np.argmax returns the first maximum, which pins ties deterministically.
        return cls(values=v, max_value=float(v.max()), argmax_index=int(v.argmax()))

    def __len__(self) -> int:
        return len(self.values)


def tenengrad(image: Image, threshold: float = 0.0) -> float:
    """Mean squared Sobel gradient magnitude over interior pixels.

    Each interior pixel contributes Gx^2 + Gy^2 when that sum exceeds
    threshold^2; the total is divided by the interior pixel count either
    way.  The default threshold of 0 keeps every gradient.
    """
    px = image.pixels
    if px.shape[0] < 3 or px.shape[1] < 3:
        raise ValueError(f"tenengrad needs at least 3x3 pixels, got {px.shape}")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    # 3x3 Sobel responses via shifted slices; rows/cols are interior-aligned.
    tl = px[:-2, :-2]
    tc = px[:-2, 1:-1]
    tr = px[:-2, 2:]
    ml = px[1:-1, :-2]
    mr = px[1:-1, 2:]
    bl = px[2:, :-2]
    bc = px[2:, 1:-1]
    br = px[2:, 2:]
    gx = (tr + 2.0 * mr + br) - (tl + 2.0 * ml + bl)
    gy = (bl + 2.0 * bc + br) - (tl + 2.0 * tc + tr)
    g2 = gx * gx + gy * gy
    kept = np.where(g2 > threshold * threshold, g2, 0.0)
    return float(kept.sum() / g2.size)


def laplacian_variance(image: Image) -> float:
    """Variance of the 4-neighbour Laplacian over interior pixels.

    Exactly zero on constant and linear-ramp images, since the Laplacian
    annihilates affine intensity fields.
    """
    px = image.pixels
    if px.shape[0] < 3 or px.shape[1] < 3:
        raise ValueError(f"laplacian_variance needs at least 3x3 pixels, got {px.shape}")
    lap = (
        px[:-2, 1:-1] + px[2:, 1:-1] + px[1:-1, :-2] + px[1:-1, 2:] - 4.0 * px[1:-1, 1:-1]
    )
    return float(lap.var())


_MEASURES = {
    FocusMeasure.TENENGRAD: tenengrad,
    FocusMeasure.LAPLACIAN_VARIANCE: laplacian_variance,
}


def focus_curve(stack: FocalStack, measure: FocusMeasure = FocusMeasure.TENENGRAD) -> FocusCurve:
    """Score every stored frame of a stack; a frame that positions share, once."""
    if len(stack.frames) == 0:
        raise ValueError("cannot compute a focus curve for an empty stack")
    fn = _MEASURES[FocusMeasure(measure)]
    # Images hash by identity, so each shared frame is one key.
    scores = {frame: fn(frame) for frame in dict.fromkeys(stack.frames)}
    return FocusCurve.from_values(np.array([scores[frame] for frame in stack.frames]))


def normalize(curve: FocusCurve) -> FocusCurve:
    """Scale a curve so its maximum is exactly 1."""
    if curve.max_value <= 0.0:
        raise ValueError("cannot normalize a curve whose maximum is not positive")
    return FocusCurve(
        values=curve.values / curve.max_value,
        max_value=1.0,
        argmax_index=curve.argmax_index,
    )
