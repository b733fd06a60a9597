"""Backend agreement: the compiled kernel must be indistinguishable from the
pure-Python one wherever both apply.  The compiled module comes from the
`compiled_kernel` fixture, which builds the committed C source."""

import hashlib
import random
import types
from pathlib import Path

from powmon import _kernels
from powmon._kernels import backend_name, kernel_for, masks_py
from oracles import oracle_sumset

KERNELS = Path(_kernels.__file__).resolve().parent

# sha256 of the `_masks_c.pyx` that the committed `_masks_c.c` was generated from
PYX_SHA256 = "b3a6a13098b899c0c915580d8f6962775e2a273a8291779f73ef71d1d3357018"


def test_pyx_matches_generated_c():
    digest = hashlib.sha256((KERNELS / "_masks_c.pyx").read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_masks_c.pyx changed: regenerate _masks_c.c with Cython 3, then update the hash"
    )


def test_selector_prefers_compiled_only_in_range(monkeypatch):
    compiled = types.ModuleType("_masks_c")
    monkeypatch.setattr(_kernels, "_masks_c", compiled)
    assert kernel_for(64) is compiled and backend_name(64) == "c"
    assert kernel_for(65) is masks_py and backend_name(65) == "python"
    monkeypatch.setattr(_kernels, "_masks_c", None)
    assert kernel_for(16) is masks_py and backend_name(16) == "python"


def test_pair_search_pure_soundness():
    rng = random.Random(9)
    for _ in range(300):
        B = rng.getrandbits(12) | 1
        cand = rng.getrandbits(12) | 1
        for a, c in masks_py.pair_search(B, cand, cand):
            assert a & 1 and c & 1
            assert oracle_sumset(a, c) == B
            assert a & ~(B & cand) == 0 and c & ~(B & cand) == 0


def test_backends_agree_random(compiled_kernel):
    rng = random.Random(42)
    for _ in range(2000):
        bits = rng.randint(1, 22)
        B = rng.getrandbits(bits) | 1
        ca = rng.getrandbits(bits) | 1
        cc = rng.getrandbits(bits) | 1
        sa, sc = rng.random() < 0.4, rng.random() < 0.4
        assert sorted(masks_py.pair_search(B, ca, cc, sa, sc)) == sorted(
            compiled_kernel.pair_search(B, ca, cc, sa, sc)
        )


def test_backends_agree_near_word_boundary(compiled_kernel):
    full = (1 << 64) - 1
    for B in [(1 << 63) | 1, (1 << 63) | (1 << 62) | 1, (1 << 60) | (1 << 30) | 1]:
        assert sorted(masks_py.pair_search(B, full, full)) == sorted(
            compiled_kernel.pair_search(B, full, full)
        )


def test_engines_agree_end_to_end(compiled_kernel):
    """The full factorization engine produces identical sets on both
    backends, over a rational ambient for good measure."""
    from fractions import Fraction as F

    from powmon import PuiseuxMonoid
    from powmon.decompose import _Engine

    monoid = PuiseuxMonoid([F(1, 2), F(1, 3)])
    eng_c = _Engine(monoid, kernel=compiled_kernel)
    eng_py = _Engine(monoid, kernel=masks_py)
    eng_c.ensure(16)
    eng_py.ensure(16)
    for rest in range(1 << 10):
        bmask = (rest << 1) | 1
        if bmask & ~eng_c.member_mask:
            continue  # sets outside the ambient are rejected upstream
        for restricted in (True, False):
            zc, okc = eng_c.factorizations(bmask, restricted)
            zp, okp = eng_py.factorizations(bmask, restricted)
            assert (zc, okc) == (zp, okp), (bin(bmask), restricted)


def test_engines_agree_on_atom_witnesses(compiled_kernel):
    """Both backends give the same witness for every set of the corpus
    above in both modes, and for every set of members below 11 without 0
    in unrestricted mode, so the half-masked A-side candidates and the
    divisor splits run on the compiled kernel too."""
    from fractions import Fraction as F

    from powmon import PuiseuxMonoid
    from powmon.decompose import _Engine

    monoid = PuiseuxMonoid([F(1, 2), F(1, 3)])
    eng_c = _Engine(monoid, kernel=compiled_kernel)
    eng_py = _Engine(monoid, kernel=masks_py)
    eng_c.ensure(16)
    eng_py.ensure(16)
    split_searches = 0
    for bmask in range(2, 1 << 11):
        if bmask & ~eng_c.member_mask:
            continue
        low = (bmask & -bmask).bit_length() - 1
        split_searches += low > 0 and (bmask >> low) & ~eng_c.member_mask != 0
        for restricted in (True, False) if bmask & 1 else (False,):
            assert eng_c.atom_witness(bmask, restricted) == eng_py.atom_witness(
                bmask, restricted
            ), (bin(bmask), restricted)
    assert split_searches > 100  # B - min B outside the ambient: no shortcut


def test_first_only_yields_single_nontrivial_witness(compiled_kernel):
    B = 0b1111
    got_c = compiled_kernel.pair_search(B, B, B, True, True, True)
    got_py = masks_py.pair_search(B, B, B, True, True, True)
    assert len(got_c) == 1 and len(got_py) == 1
    for a, c in got_c + got_py:
        assert a != 1 and c != 1
        assert oracle_sumset(a, c) == B
