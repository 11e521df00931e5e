"""Focal stacks: defocus-blurred frame sequences over a position grid."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from focusrl.focus import tenengrad
from focusrl.imaging.filters import defocus_blur
from focusrl.imaging.image import Image, load_pgm, save_pgm
from focusrl.imaging.scene import Scene

MANIFEST_NAME = "manifest.json"
FRAME_MAXVAL = 255

# Tolerance for deciding that (z_max - z_min) / spacing is an integer; the
# division itself costs a few ulp even for exact grids like 39.0 / 0.3.
_GRID_RTOL = 1e-6

# What `load_stack` reads; `save_stack` also writes `focus_max`, which the
# curve determines.
_MANIFEST_KEYS = ("view_id", "seed", "z_min", "z_max", "spacing", "z_star", "blur_gain",
                  "focus_curve")


@dataclass(frozen=True)
class FocalStack:
    """Frames of one scene at evenly spaced focus positions.

    `focus_values` holds the raw Tenengrad score of every generated frame,
    so consumers can normalise without touching pixels again.  Saving
    quantises frames to 8 bits but keeps the full-precision curve in the
    manifest; `load_stack` restores the manifest curve rather than
    re-measuring the quantised frames.  Positions of equal blur may share
    one immutable `Image` in `frames`.
    """

    view_id: str
    seed: int
    z_min: float
    z_max: float
    spacing: float
    z_star: float
    blur_gain: float
    frames: list[Image]
    focus_values: np.ndarray

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def positions(self) -> np.ndarray:
        """Focus position of every frame, in radians."""
        return self.z_min + self.spacing * np.arange(len(self.frames), dtype=np.float64)

    @property
    def focus_max(self) -> float:
        return float(self.focus_values.max())

    @property
    def sharpest_index(self) -> int:
        return int(np.abs(self.positions - self.z_star).argmin())


def position_count(z_min: float, z_max: float, spacing: float) -> int:
    """Number of grid positions, rejecting ranges that do not divide evenly."""
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    if z_max <= z_min:
        raise ValueError(f"need z_min < z_max, got [{z_min}, {z_max}]")
    ratio = (z_max - z_min) / spacing
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > _GRID_RTOL * max(1.0, abs(ratio)):
        raise ValueError(
            f"range [{z_min}, {z_max}] is not an integer number of {spacing} steps"
        )
    return steps + 1


def generate_stack(
    scene: Scene,
    z_min: float,
    z_max: float,
    spacing: float,
    z_star: float,
    blur_gain: float = 0.35,
    view_id: str | None = None,
) -> FocalStack:
    """Blur a scene into a focal stack.

    Frame k sits at position z_min + k * spacing and is blurred with
    sigma = blur_gain * |position - z_star|, so the frame nearest z_star is
    sharpest and sharpness decays away from it on both sides.
    """
    n = position_count(z_min, z_max, spacing)
    if not z_min < z_star < z_max:
        raise ValueError(f"z_star {z_star} must lie strictly inside [{z_min}, {z_max}]")
    if blur_gain < 0:
        raise ValueError(f"blur_gain must be non-negative, got {blur_gain}")
    positions = z_min + spacing * np.arange(n, dtype=np.float64)
    # Each distinct sigma is blurred and scored once, and its frame shared.
    # Only some positions mirrored about z_star get bitwise-equal sigmas:
    # tiny, exp1 and exp2 blur 18, 92 and 196 frames for 21, 131 and 266
    # positions, and the other mirrored pairs' sigmas lie 1-128 ulps apart.
    sigmas = [blur_gain * abs(float(z) - z_star) for z in positions]
    frame_of = {sigma: defocus_blur(scene.content, sigma) for sigma in dict.fromkeys(sigmas)}
    value_of = {sigma: tenengrad(frame) for sigma, frame in frame_of.items()}
    frames = [frame_of[sigma] for sigma in sigmas]
    focus_values = np.array([value_of[sigma] for sigma in sigmas])
    return FocalStack(
        view_id=view_id if view_id is not None else f"scene{scene.seed}",
        seed=scene.seed,
        z_min=float(z_min),
        z_max=float(z_max),
        spacing=float(spacing),
        z_star=float(z_star),
        blur_gain=float(blur_gain),
        frames=frames,
        focus_values=focus_values,
    )


def _frame_name(index: int) -> str:
    return f"frame_{index:04d}.pgm"


def save_stack(stack: FocalStack, directory: str | Path) -> None:
    """Write frames as PGM plus a JSON manifest into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(stack.frames):
        save_pgm(frame, directory / _frame_name(i), maxval=FRAME_MAXVAL)
    manifest = {
        "view_id": stack.view_id,
        "seed": stack.seed,
        "z_min": stack.z_min,
        "z_max": stack.z_max,
        "spacing": stack.spacing,
        "z_star": stack.z_star,
        "blur_gain": stack.blur_gain,
        "focus_max": stack.focus_max,
        "focus_curve": [float(v) for v in stack.focus_values],
    }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_stack(directory: str | Path) -> FocalStack:
    """Read a stack directory written by `save_stack`."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no stack manifest at {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")
    missing = [key for key in _MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"{manifest_path}: manifest lacks {', '.join(missing)}")
    n = position_count(manifest["z_min"], manifest["z_max"], manifest["spacing"])
    focus_values = np.asarray(manifest["focus_curve"], dtype=np.float64)
    if len(focus_values) != n:
        raise ValueError(
            f"manifest curve has {len(focus_values)} entries for {n} positions"
        )
    frames = []
    for i in range(n):
        frame_path = directory / _frame_name(i)
        if not frame_path.is_file():
            raise FileNotFoundError(f"stack at {directory} is missing {frame_path.name}")
        frames.append(load_pgm(frame_path))
    return FocalStack(
        view_id=manifest["view_id"],
        seed=int(manifest["seed"]),
        z_min=float(manifest["z_min"]),
        z_max=float(manifest["z_max"]),
        spacing=float(manifest["spacing"]),
        z_star=float(manifest["z_star"]),
        blur_gain=float(manifest["blur_gain"]),
        frames=frames,
        focus_values=focus_values,
    )
