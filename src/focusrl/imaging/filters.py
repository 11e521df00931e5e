"""Separable Gaussian blur used for defocus simulation and scene shaping."""

from __future__ import annotations

import math
from typing import Sequence

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


def _fft_size(n: int) -> int:
    """Smallest 2·3·5-smooth length of at least n, where the FFT is fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _kernel_spectrum(kernel: np.ndarray, n: int, half: bool) -> np.ndarray:
    """Transform of symmetric taps centred on index 0 of a length-n circle.

    The taps are symmetric, so the transform is real up to rounding.
    """
    radius = len(kernel) // 2
    taps = np.zeros(n)
    taps[: radius + 1] = kernel[radius:]
    taps[n - radius :] = kernel[:radius]
    return (np.fft.rfft(taps) if half else np.fft.fft(taps)).real


def defocus_series(image: Image, sigmas: Sequence[float]) -> list[Image]:
    """Apply Gaussian defocus of each strength, in pixels, to one image.

    Each blur is the truncated `gaussian_kernel` along both axes with
    reflect-101 borders, as in `gaussian_blur_array`, carried out as a
    product with one Fourier transform of the image padded by the largest
    radius; it matches the tap loop to about 1e-15.  Sigma 0 is the identity.
    """
    if any(sigma < 0 for sigma in sigmas):
        raise ValueError(f"sigmas must be non-negative, got {min(sigmas)}")
    kernels = [gaussian_kernel(sigma) if sigma > 0 else None for sigma in sigmas]
    px = image.pixels
    h, w = px.shape
    pad = max((len(kernel) // 2 for kernel in kernels if kernel is not None), default=0)
    shape = (_fft_size(h + 2 * pad), _fft_size(w + 2 * pad))
    spectrum = np.fft.rfft2(np.pad(px, pad, mode="reflect"), s=shape)
    frames = []
    for kernel in kernels:
        if kernel is None:
            out = px
        else:
            gain = np.outer(_kernel_spectrum(kernel, shape[0], half=False),
                            _kernel_spectrum(kernel, shape[1], half=True))
            full = np.fft.irfft2(spectrum * gain, s=shape)
            out = full[pad : pad + h, pad : pad + w]
        # The kernel sums to 1 only up to rounding; clip the stray ulps.
        frames.append(Image(np.clip(out, 0.0, 1.0).astype(px.dtype, copy=False)))
    return frames


def defocus_blur(image: Image, sigma: float) -> Image:
    """Apply Gaussian defocus of the given strength in pixels."""
    return defocus_series(image, [sigma])[0]
