"""The bitmask kernel: `masks_py`, pure Python, for universes of any size."""

from __future__ import annotations

from . import masks_py

_masks_c = None  # read only by perfbench; goes with the next benchmark change


def backend_name(universe_bits: int) -> str:
    """Read only by perfbench; goes with the next benchmark change."""
    return "python"
