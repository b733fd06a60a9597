"""Pure-Python bitmask kernel for sumset decomposition.

Finite sets of scaled integers are bitmasks (bit i = value i).  The pair
search below is the hot inner loop of the decomposition machinery; it works
at any universe size.
"""

from __future__ import annotations


def pair_search(B: int, cand_a: int, cand_c: int) -> list[tuple[int, int]]:
    """All ordered pairs (A, C) with bit0 in both, A + C == B (Minkowski sum),
    elements of A allowed by cand_a and of C by cand_c, each pair once, with
    A-side masks from the largest down.
    """
    results: list[tuple[int, int]] = []
    pool = (B & cand_a) & ~1
    # submasks of pool, each together with bit0, largest first
    sub = pool
    while True:
        A = sub | 1
        # candidate shifts: c in B with (A << c) inside B
        cstars = []
        shifted = []
        rest = (B & cand_c) & ~1
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            s = A << c
            if s | B == B:
                cstars.append(c)
                shifted.append(s)
            rest ^= low
        k = len(cstars)
        suffix = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            suffix[i] = suffix[i + 1] | shifted[i]

        # depth-first over subsets of the candidate shifts; c = 0 is
        # forced (bit0 of C), contributing A itself to the cover
        stack = [(0, A, 1)]
        while stack:
            i, covered, chosen = stack.pop()
            if covered | suffix[i] != B:
                continue
            if i == k:  # the check above leaves covered == B here
                results.append((A, chosen))
                continue
            stack.append((i + 1, covered, chosen))
            stack.append((i + 1, covered | shifted[i], chosen | (1 << cstars[i])))
        if sub == 0:
            break
        sub = (sub - 1) & pool
    return results
