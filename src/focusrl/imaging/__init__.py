"""Synthetic imaging: scenes, defocus blur, focal stacks, and PGM I/O."""

from focusrl.imaging.filters import (
    defocus_blur,
    defocus_series,
    gaussian_blur_array,
    gaussian_kernel,
)
from focusrl.imaging.image import (
    GRAY_WEIGHTS,
    Image,
    PgmError,
    crop,
    load_pgm,
    quantize,
    resize_bilinear,
    save_pgm,
    to_grayscale,
)
from focusrl.imaging.scene import Scene, render_scene
from focusrl.imaging.stack import (
    FRAME_MAXVAL,
    FocalStack,
    generate_stack,
    load_stack,
    position_count,
    save_stack,
)

__all__ = [
    "FRAME_MAXVAL",
    "GRAY_WEIGHTS",
    "FocalStack",
    "Image",
    "PgmError",
    "Scene",
    "crop",
    "defocus_blur",
    "defocus_series",
    "gaussian_blur_array",
    "gaussian_kernel",
    "generate_stack",
    "load_pgm",
    "load_stack",
    "position_count",
    "quantize",
    "render_scene",
    "resize_bilinear",
    "save_pgm",
    "save_stack",
    "to_grayscale",
]
