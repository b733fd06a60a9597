"""Kernel selection: compiled extension when present, pure Python otherwise.

The compiled kernel (`_masks_c`) is built by `setup.py` from the committed C
file that Cython generated from `_masks_c.pyx`; it handles universes of at
most 64 bits with C integers.  The pure module handles any size.
`kernel_for` is the only place that chooses between them.
"""

from __future__ import annotations

from . import masks_py

try:  # pragma: no cover - exercised only when the extension is built
    from . import _masks_c
except ImportError:
    _masks_c = None

_C_BITS = 64


def kernel_for(universe_bits: int):
    """The kernel module to use for a universe of the given bit width."""
    if _masks_c is not None and universe_bits <= _C_BITS:
        return _masks_c
    return masks_py


def backend_name(universe_bits: int) -> str:
    return "c" if kernel_for(universe_bits) is _masks_c else "python"
