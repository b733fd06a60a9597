"""Pure-Python bitmask kernel for sumset decomposition.

Finite sets of scaled integers are bitmasks (bit i = value i).  The pair
search below is the hot inner loop of the decomposition machinery; it works
at any universe size.

For each A side the search is output-sensitive.  The shifts a C side may
use are C_max(A) = {c in B & cand_c : A + c inside B}, read off A's bits as
the intersection of the B >> a.  Max is additive, so max C = max B - max A is
forced into C, and A is dropped when C_max(A) lacks it.  Covers are then
enumerated by branching on the lowest element b of B not yet covered: some
c of C has b - c in A, and the branch that takes the j-th such c leaves out
the earlier ones, so each C is met once.  Once B is covered, every superset
within the shifts still open is a cover too, and is emitted unchecked.
"""

from __future__ import annotations


def pair_search(B: int, cand_a: int, cand_c: int) -> list[tuple[int, int]]:
    """All ordered pairs (A, C) with bit0 in both, A + C == B (Minkowski sum),
    elements of A allowed by cand_a and of C by cand_c, each pair once, with
    A-side masks from the largest down.
    """
    results: list[tuple[int, int]] = []
    if not B & 1:  # no pair without 0 in B
        return results
    top = B.bit_length() - 1
    pool = (B & cand_a) & ~1
    shifts = (B & cand_c) & ~1
    # submasks of pool, each together with bit0, largest first
    sub = pool
    while True:
        A = sub | 1
        m = top - (A.bit_length() - 1)  # max C
        if (m == 0 or shifts >> m & 1) and not (A << m) & ~B:
            # C_max(A) without m: every other c with A + c inside B, all
            # below m
            free = shifts & ~(1 << m)
            rest = sub
            while rest:
                low = rest & -rest
                free &= B >> (low.bit_length() - 1)
                rest ^= low
            # (covered, chosen, free): chosen holds 0 and m, free the shifts
            # this branch may still add
            stack = [(A | (A << m), 1 | (1 << m), free)]
            while stack:
                covered, chosen, free = stack.pop()
                gap = B ^ covered  # covered stays inside B
                if not gap:
                    s = free
                    while True:
                        results.append((A, chosen | s))
                        if not s:
                            break
                        s = (s - 1) & free
                    continue
                b = (gap & -gap).bit_length() - 1
                # the free c <= b with b - c in A, each branch leaving out
                # the ones before it
                options = free & ((2 << b) - 1)
                while options:
                    low = options & -options
                    options ^= low
                    c = low.bit_length() - 1
                    if A >> (b - c) & 1:
                        free ^= low
                        stack.append((covered | (A << c), chosen | low, free))
        if sub == 0:
            break
        sub = (sub - 1) & pool
    return results
