"""Atomic file writes, shared by the network, the trainer and the stack writer."""

from __future__ import annotations

from contextlib import contextmanager
import os
from pathlib import Path


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
