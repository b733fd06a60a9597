"""The bitmask kernel: `masks_py.pair_search` returns exactly the pairs a
brute-force search finds, and the engine calls it through the module
attribute, where a tracer can count it."""

import random

from powmon import FinSet, PuiseuxMonoid, decompose
from powmon._kernels import masks_py
from oracles import oracle_sumset


def _submasks_with_zero(mask: int) -> list[int]:
    """Every submask of mask, with bit 0 added."""
    pool = mask & ~1
    out = []
    sub = pool
    while True:
        out.append(sub | 1)
        if sub == 0:
            return out
        sub = (sub - 1) & pool


def test_pair_search_pure_soundness():
    """Sound and complete: every pair (A, C) with 0 in both, A inside
    B & cand_a, C inside B & cand_c and A + C == B, each exactly once,
    with the two candidate masks drawn independently as the half-space
    search passes them."""
    rng = random.Random(9)
    for _ in range(300):
        B = rng.getrandbits(12) | 1
        cand_a = rng.getrandbits(12) | 1
        cand_c = rng.getrandbits(12) | 1
        found = masks_py.pair_search(B, cand_a, cand_c)
        assert len(found) == len(set(found)), (bin(B), bin(cand_a), bin(cand_c))
        for a, c in found:
            assert a & 1 and c & 1
            assert oracle_sumset(a, c) == B
            assert a & ~(B & cand_a) == 0 and c & ~(B & cand_c) == 0
        brute = {(a, c)
                 for a in _submasks_with_zero(B & cand_a)
                 for c in _submasks_with_zero(B & cand_c)
                 if oracle_sumset(a, c) == B}
        assert set(found) == brute, (bin(B), bin(cand_a), bin(cand_c))


def test_pair_search_on_every_small_set():
    """Every B below 2**9 that contains 0, with the full candidate masks,
    with B itself as both, and with two random pairs of masks: the kernel
    returns the brute-force pair set, each pair once, with A-side masks
    from the largest down.  A B without 0 has no pair."""
    rng = random.Random(11)
    full = (1 << 9) - 1
    assert not any(masks_py.pair_search(B, full, full) for B in range(0, 1 << 9, 2))
    for B in range(1, 1 << 9, 2):
        masks = [(full, full), (B, B)]
        masks += [(rng.getrandbits(9) | 1, rng.getrandbits(9)), (rng.getrandbits(9), B)]
        for cand_a, cand_c in masks:
            found = masks_py.pair_search(B, cand_a, cand_c)
            assert len(found) == len(set(found)), (bin(B), bin(cand_a), bin(cand_c))
            sides = [a for a, _ in found]
            assert sides == sorted(sides, reverse=True)
            brute = {(a, c)
                     for a in _submasks_with_zero(B & cand_a)
                     for c in _submasks_with_zero(B & cand_c)
                     if oracle_sumset(a, c) == B}
            assert set(found) == brute, (bin(B), bin(cand_a), bin(cand_c))


def test_engine_calls_the_kernel_through_its_module(monkeypatch):
    """A wrapper bound over `masks_py.pair_search` after the engine exists
    sees its searches, so a tracer that rebinds the module attribute counts
    every kernel call."""
    monkeypatch.setattr(decompose, "_ENGINES", {})
    eng = decompose.engine_for(PuiseuxMonoid([1]))
    bmask = eng.to_mask(FinSet([0, 1, 2]))
    calls = []
    search = masks_py.pair_search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(masks_py, "pair_search", counting)
    assert not eng.is_atom(bmask)
    assert calls
