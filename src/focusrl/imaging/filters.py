"""Separable Gaussian blur used for defocus simulation and scene shaping."""

from __future__ import annotations

import math

import numpy as np

from focusrl.imaging.image import Image


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian taps with radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError(f"kernel needs sigma > 0, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(xs * xs) / (2.0 * sigma * sigma))
    return k / k.sum()


def _correlate_rows(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate along axis 0: each tap adds one contiguous block of rows."""
    # Mirror padding without repeating the edge sample (reflect-101).
    radius = len(kernel) // 2
    padded = np.pad(arr, [(radius, radius), (0, 0)], mode="reflect")
    out = np.zeros_like(arr)
    product = np.empty(arr.shape, dtype=np.result_type(arr, kernel))
    for i, tap in enumerate(kernel):
        np.multiply(padded[i : i + len(arr)], tap, out=product)
        out += product
    return out


def gaussian_blur_array(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Blur a 2-D array; sigma == 0 is the identity.

    The result is C-contiguous, since later reductions sum in memory order.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0:
        return arr.copy()
    kernel = gaussian_kernel(sigma)
    vertical = _correlate_rows(np.ascontiguousarray(arr), kernel)
    both = _correlate_rows(np.ascontiguousarray(vertical.T), kernel)
    return np.ascontiguousarray(both.T)


def defocus_blur(image: Image, sigma: float) -> Image:
    """Apply Gaussian defocus of the given strength in pixels."""
    out = gaussian_blur_array(image.pixels, sigma)
    # The kernel sums to 1 only up to rounding; clip the stray ulps.
    return Image(np.clip(out, 0.0, 1.0))
