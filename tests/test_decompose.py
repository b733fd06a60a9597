import sys
from fractions import Fraction as F

import pytest

from powmon import (
    FinSet,
    InvalidInputError,
    NotAMemberError,
    PuiseuxMonoid,
    UnsupportedAmbientError,
    decompositions,
    divisor_closure,
    is_atom,
    set_factorizations,
    set_length_set,
)
from powmon import decompose
from powmon._kernels import masks_py
from powmon.factorization import Factorization
from oracles import (
    ambient_pairs,
    ambient_restricted_factorizations,
    mask_to_set,
    oracle_is_atom_restricted,
    oracle_restricted_factorizations,
    oracle_sumset,
    pair_product_table,
)

N0 = PuiseuxMonoid([1])
M23 = PuiseuxMonoid([2, 3])


def fs(*xs) -> FinSet:
    return FinSet(xs)


def as_mask_tuple(z: Factorization) -> tuple[int, ...]:
    return tuple(sorted(sum(1 << int(e) for e in part) for part in z.expand()))


def test_decompositions_golden():
    decos = decompositions(fs(0, 1, 2, 3), N0)
    rendered = {str(d) for d in decos}
    assert rendered == {
        "{0} + {0, 1, 2, 3}",
        "{0, 1} + {0, 2}",
        "{0, 1} + {0, 1, 2}",
    }
    assert sum(1 for d in decos if d.trivial) == 1


def test_decompositions_atom_has_only_trivial():
    decos = decompositions(fs(0, 3), N0)
    assert all(d.trivial for d in decos)


def test_decompositions_singleton_reduces_to_divisibility():
    decos = decompositions(fs(6), M23)
    rendered = {str(d) for d in decos}
    assert rendered == {"{0} + {6}", "{2} + {4}", "{3} + {3}"}
    # every pair recombines exactly
    for d in decos:
        assert d.left + d.right == fs(6)


def test_decompositions_recombine_and_are_complete():
    """Against the global pair-product sweep, for every 0-containing subset
    of [0, 12] over the nonnegative integers."""
    pairs = pair_product_table(12)
    for rest in range(1 << 12):
        bmask = (rest << 1) | 1
        expected = {
            (min(x, y), max(x, y)) for x, y in pairs.get(bmask, [])
        }
        got = set()
        for d in decompositions(FinSet(mask_to_set(bmask)), N0):
            lm = sum(1 << int(e) for e in d.left)
            rm = sum(1 << int(e) for e in d.right)
            got.add((min(lm, rm), max(lm, rm)))
        assert got == expected, bin(bmask)


def test_decompositions_put_each_pair_in_set_order():
    """left <= right in FinSet order, which is not the order of the masks:
    {0, 1, 3} has the larger mask but sorts before {0, 2}."""
    assert [str(d) for d in decompositions(fs(0, 1, 2, 3, 5), N0)] == [
        "{0} + {0, 1, 2, 3, 5}",
        "{0, 1, 3} + {0, 2}",
    ]
    for rest in range(1 << 9):
        b = FinSet(mask_to_set((rest << 1) | 1))
        assert all(d.left <= d.right for d in decompositions(b, N0)), b

def test_membership_validation():
    with pytest.raises(NotAMemberError):
        decompositions(fs(0, 1), M23)
    with pytest.raises(NotAMemberError):
        set_factorizations(fs(0, F(1, 2)), N0)
    with pytest.raises(InvalidInputError):
        is_atom(fs(2, 3), M23, restricted=True)  # no 0


def test_atom_examples():
    assert is_atom(fs(0, 1), N0, restricted=True).is_atom
    check = is_atom(fs(0, 1, 2), N0, restricted=True)
    assert not check.is_atom
    assert str(check.witness) == "{0, 1} + {0, 1}"
    check2 = is_atom(fs(0, 1, 2, 3), N0, restricted=True)
    assert not check2.is_atom
    assert check2.witness.left + check2.witness.right == fs(0, 1, 2, 3)


def test_identity_is_not_an_atom():
    check = is_atom(fs(0), N0, restricted=True)
    assert not check.is_atom and check.witness is None
    enum = set_factorizations(fs(0), N0, restricted=True)
    assert len(enum.items) == 1 and enum.items[0].is_empty()


def test_singleton_atomhood_delegates_to_ambient():
    assert is_atom(fs(2), M23).is_atom
    assert is_atom(fs(3), M23).is_atom
    check = is_atom(fs(6), M23)
    assert not check.is_atom and not check.witness.trivial
    assert not is_atom(fs(0), M23).is_atom


def test_min_positive_sets_can_be_atoms():
    # {2,3} - 2 = {0,1} leaves the monoid, so {2,3} is an atom over <2,3>
    assert is_atom(fs(2, 3), M23).is_atom
    # over the integers it splits off its minimum
    check = is_atom(fs(2, 3), N0)
    assert not check.is_atom


def test_factorize_golden_0123():
    enum = set_factorizations(fs(0, 1, 2, 3), N0, restricted=True)
    expected = {
        Factorization([(fs(0, 1), 3)]),
        Factorization([(fs(0, 1), 1), (fs(0, 2), 1)]),
    }
    assert set(enum.items) == expected
    assert set_length_set(fs(0, 1, 2, 3), N0, restricted=True) == {2, 3}


def test_factorize_golden_012345():
    enum = set_factorizations(fs(0, 1, 2, 3, 4, 5), N0, restricted=True)
    z1 = Factorization([(fs(0, 1), 1), (fs(0, 2), 2)])
    z2 = Factorization([(fs(0, 1), 2), (fs(0, 3), 1)])
    assert z1 in set(enum.items) and z2 in set(enum.items)
    assert z1.length == z2.length == 3


def test_factorize_atom_is_its_own_factorization():
    enum = set_factorizations(fs(0, 3), N0, restricted=True)
    assert enum.items == (Factorization([(fs(0, 3), 1)]),)


def test_factorizations_recombine():
    for target, monoid, restricted in [
        (fs(0, 1, 2, 3), N0, True),
        (fs(0, 2, 4, 6), M23, True),
        (fs(2, 3), M23, False),
        (fs(4, 6), M23, False),
        (fs(6), M23, False),
    ]:
        for z in set_factorizations(target, monoid, restricted):
            assert z.total() == target, (target, z)


def test_atom_consistency_with_factorizations():
    for rest in range(1 << 7):
        b = FinSet(mask_to_set((rest << 1) | 1))
        enum = set_factorizations(b, N0, restricted=True)
        single = [z for z in enum.items if z.length == 1]
        if is_atom(b, N0, restricted=True).is_atom:
            assert len(enum.items) == 1 and single
        else:
            assert not single


def test_oracle_equivalence_restricted_upto_9():
    """Production factorizations against the naive multiset search, every
    0-containing B inside [0, 9].  P_fin,0 is divisor-closed in P_fin, so
    the unrestricted factorizations of such a B are the same ones."""
    for rest in range(1 << 9):
        bmask = (rest << 1) | 1
        b = FinSet(mask_to_set(bmask))
        expected = oracle_restricted_factorizations(bmask, 9)
        for restricted in (True, False):
            got = {as_mask_tuple(z) for z in set_factorizations(b, N0, restricted=restricted)}
            assert got == expected, (bin(bmask), restricted)


def test_oracle_atom_agreement_upto_10():
    for rest in range(1 << 10):
        bmask = (rest << 1) | 1
        b = FinSet(mask_to_set(bmask))
        expected = oracle_is_atom_restricted(bmask, 10)
        for restricted in (True, False):
            assert is_atom(b, N0, restricted=restricted).is_atom == expected, (
                bin(bmask), restricted)


def test_oracle_equivalence_over_nontrivial_ambient():
    """Restricted and unrestricted factorizations, and pair decompositions,
    over <2,3> against ambient-aware brute force, for every valid B inside
    [0, 10]."""
    from oracles import member_subsets_with_zero

    for bmask in member_subsets_with_zero([2, 3], 10):
        b = FinSet(mask_to_set(bmask))
        expected = ambient_restricted_factorizations([2, 3], bmask, 10)
        for restricted in (True, False):
            got = {as_mask_tuple(z) for z in set_factorizations(b, M23, restricted=restricted)}
            assert got == expected, (bin(bmask), restricted)
        got_pairs = set()
        for d in decompositions(b, M23):
            if d.left.contains_zero and d.right.contains_zero:
                lm = sum(1 << int(e) for e in d.left)
                rm = sum(1 << int(e) for e in d.right)
                got_pairs.add((min(lm, rm), max(lm, rm)))
        assert got_pairs == ambient_pairs([2, 3], bmask, 10), bin(bmask)


def test_unrestricted_over_numerical_ambient():
    # every factorization of {0,2,4,6} over <2,3>, by hand:
    # it is 2*{0,2} + {0}... {0,2}+{0,2}+{0,2} covers {0,2,4,6}; also
    # {0,2}+{0,4} and {0,2,4}+{0,2} etc; just assert soundness + atomhood table
    enum = set_factorizations(fs(0, 2, 4, 6), M23, restricted=False)
    assert enum.exhaustive and len(enum.items) >= 2
    for z in enum.items:
        assert z.total() == fs(0, 2, 4, 6)
        for part in z.expand():
            assert is_atom(part, M23, restricted=False).is_atom


def test_rational_ambient_scaling():
    half = PuiseuxMonoid([F(1, 2), F(1, 3)])
    b = FinSet([0, F(1, 3), F(1, 2), F(5, 6)])
    enum = set_factorizations(b, half, restricted=True)
    assert enum.exhaustive and len(enum.items) >= 1
    for z in enum.items:
        assert z.total() == b


def test_divisor_closure_examples():
    assert divisor_closure(fs(4, 6), M23) == (0, 2, 3, 4, 6)
    assert divisor_closure(fs(0), M23) == (0,)
    assert divisor_closure(fs(6), M23) == (0, 2, 3, 4, 6)


def test_max_length_cap_marks_partial():
    enum = set_factorizations(fs(0, 1, 2, 3), N0, restricted=True, max_length=2)
    assert not enum.exhaustive
    assert {z.length for z in enum.items} == {2}
    uncapped = set_factorizations(fs(0, 1, 2, 3), N0, restricted=True, max_length=5)
    assert uncapped.exhaustive


def test_parallel_queries_are_order_independent(monkeypatch):
    """Monoids are immutable and memo tables behave as caches: a threaded
    sweep must produce exactly the sequential results.  The threads start
    from an empty engine registry, so they race to grow one universe."""
    from concurrent.futures import ThreadPoolExecutor

    corpus = [FinSet(mask_to_set((rest << 1) | 1)) for rest in range(1 << 8)]
    sequential = [set_factorizations(b, N0, restricted=True).items for b in corpus]
    monkeypatch.setattr(decompose, "_ENGINES", {})
    fresh = PuiseuxMonoid([1])

    def job(b):
        return set_factorizations(b, fresh, restricted=True).items

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races show
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(job, corpus, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    eng = decompose.engine_for(fresh)
    assert eng.built == 9
    assert len(eng._values) >= eng.built
    assert all(v == F(i) / fresh.scale for i, v in enumerate(eng._values))
    single = decompose._Engine(PuiseuxMonoid([1]))
    for b in corpus:
        single.factorizations(single.to_mask(b))
    assert eng._pair_memo == single._pair_memo


def test_universe_growth_is_never_undone():
    """A thread that passed ensure()'s unlocked size check and then waited
    for the lock must not lower `built` below what another thread grew it
    to meanwhile: the next growth would append the same indices again and
    misalign the value table."""
    import threading

    class GatedLock:
        """A lock that holds the side thread at the door until released."""

        def __init__(self):
            self.lock = threading.Lock()
            self.waiting = threading.Event()
            self.gate = threading.Event()

        def __enter__(self):
            if threading.current_thread() is not threading.main_thread():
                self.waiting.set()
                self.gate.wait(10)
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    eng = decompose._Engine(PuiseuxMonoid([2, 3]))
    eng._grow_lock = GatedLock()
    side = threading.Thread(target=eng.ensure, args=(4,))
    side.start()
    assert eng._grow_lock.waiting.wait(10)
    eng.ensure(9)
    eng._grow_lock.gate.set()
    side.join(10)
    assert not side.is_alive()
    assert eng.built == 9
    eng.ensure(12)
    assert eng._values == [F(i) for i in range(12)]


# -- mask-to-object boundary: integer sort key and trusted constructors ------

HALF_THIRD = PuiseuxMonoid([F(1, 2), F(1, 3)])


def _interval_corpus():
    """Every subset of [0, 9] containing 0, over <1>, restricted."""
    return [(FinSet(mask_to_set((rest << 1) | 1)), N0, True) for rest in range(1 << 9)]


def _rational_corpus():
    """Unrestricted sets over <1/2, 1/3>: every set of at most three members
    up to 2, and a few larger ones."""
    from itertools import combinations

    members = HALF_THIRD.members_upto(2)
    sets = [FinSet(c) for card in (1, 2, 3) for c in combinations(members, card)]
    sets += [fs(0, F(1, 2), 1, F(3, 2)), fs(F(1, 3), F(5, 6), F(4, 3), F(11, 6)),
             fs(0, F(1, 3), F(2, 3), 1, F(4, 3))]
    return [(b, HALF_THIRD, False) for b in sets]


def _public_finset(mask, monoid):
    return FinSet(F(i) / monoid.scale for i in range(mask.bit_length()) if mask >> i & 1)


def _expected_items(b, monoid, restricted, max_length=None):
    """The engine's raw atom masks turned into objects by the public
    constructors only, then sorted by Factorization.__lt__."""
    eng = decompose.engine_for(monoid)
    raw, exhaustive = eng.factorizations(eng.to_mask(b), max_length)
    items = sorted(Factorization((_public_finset(m, monoid), 1) for m in z) for z in raw)
    return tuple(items), exhaustive


def test_factorization_order_matches_object_sort():
    for b, monoid, restricted in _interval_corpus() + _rational_corpus():
        enum = set_factorizations(b, monoid, restricted)
        assert (enum.items, enum.exhaustive) == _expected_items(b, monoid, restricted), b


def test_corpus_separates_int_order_from_set_order():
    """{0,2} is mask 5 and {0,1,3} is mask 11, yet {0,1,3} sorts first.  A
    key on mask int values would order some factorizations of the corpus
    differently, so the order test above can tell it from the right key."""
    assert fs(0, 1, 3) < fs(0, 2)
    z = set_factorizations(fs(0, 1, 2, 3, 5), N0, restricted=True).items[0]
    assert [a for a, _ in z.counts] == [fs(0, 1, 3), fs(0, 2)]

    def by_int_masks(z):
        return (z.length, tuple(sorted((sum(1 << int(e) for e in a), m) for a, m in z.counts)))

    items = set_factorizations(fs(0, 1, 2, 3, 4, 5), N0, restricted=True).items
    assert list(items) != sorted(items, key=by_int_masks)
    assert list(items) == sorted(items)


def test_partial_enumeration_order_matches_object_sort():
    b = fs(*range(9))
    enum = set_factorizations(b, N0, restricted=True, max_length=3)
    assert not enum.exhaustive and enum.items
    assert (enum.items, enum.exhaustive) == _expected_items(b, N0, True, max_length=3)
    assert enum.lengths() == {2, 3}


def test_length_set_matches_factorizations():
    for b, monoid, restricted in _interval_corpus() + _rational_corpus():
        assert set_length_set(b, monoid, restricted) == (
            set_factorizations(b, monoid, restricted).lengths()
        ), b


def test_capped_length_set_matches_capped_factorizations():
    for cap in (1, 2, 3, 4, None):
        for b, monoid, restricted in [(fs(*range(9)), N0, True), (fs(0, 1, 2, 3), N0, True),
                                      (fs(0, F(1, 2), 1, F(3, 2)), HALF_THIRD, False)]:
            enum = set_factorizations(b, monoid, restricted, max_length=cap)
            assert decompose.set_lengths(b, monoid, restricted, cap) == (
                enum.lengths(), enum.exhaustive
            ), (b, cap)
            assert set_length_set(b, monoid, restricted, max_length=cap) == enum.lengths()


def test_to_finset_equals_public_finset():
    for monoid, mask in [(N0, 0b1011), (N0, 1), (HALF_THIRD, 0b1001101), (M23, 0b1101)]:
        eng = decompose.engine_for(monoid)
        eng.ensure(mask.bit_length())
        trusted = eng.to_finset(mask)
        public = _public_finset(mask, monoid)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted.elems == public.elems and type(trusted.elems) is tuple


def test_huge_ambient_is_rejected():
    tiny = PuiseuxMonoid([F(1, 5000), F(1, 5001)])
    with pytest.raises(UnsupportedAmbientError):
        set_factorizations(FinSet([0, 1]), tiny, restricted=True)


# -- half-space pair search and the atom witness order -----------------------


def _m23_corpus():
    """Unrestricted sets over <2,3>: every set of at most four members up
    to 12, with and without 0."""
    from itertools import combinations

    members = [x for x in range(13) if M23.contains(x)]
    return [(FinSet(c), M23, False) for card in (1, 2, 3, 4) for c in combinations(members, card)]


def _large_minimum_corpus():
    """Unrestricted sets with a large minimum: the 2-4-subsets of the even
    numbers in [20, 40] over <1> and of [30, 45] over <2,3>, plus sets over
    <2,3> whose B - min B leaves the monoid."""
    from itertools import combinations

    sets = [(FinSet(c), N0) for card in (2, 3, 4) for c in combinations(range(20, 41, 2), card)]
    sets += [(FinSet(c), M23) for card in (2, 3, 4) for c in combinations(range(30, 46), card)]
    sets += [(fs(2, 3), M23), (fs(5, 6), M23), (fs(7, 8, 12), M23), (fs(13, 14, 17, 20), M23)]
    return [(b, monoid, False) for b, monoid in sets]


def _pair_corpus():
    unrestricted_interval = [(b, monoid, False) for b, monoid, _ in _interval_corpus()]
    return _interval_corpus() + unrestricted_interval + _rational_corpus() + _m23_corpus()


def _engine_cases(corpus):
    """(engine, mask, restricted) on one engine per ambient."""
    engines: dict = {}
    for b, monoid, restricted in corpus:
        if monoid not in engines:
            engines[monoid] = decompose._Engine(monoid)
        eng = engines[monoid]
        yield eng, eng.to_mask(b), restricted


def _every_split(eng, bmask, restricted):
    """Every divisor split (d, low - d) of low = min B, in ascending d."""
    low = (bmask & -bmask).bit_length() - 1
    return [(0, 0)] if restricted else [(d, low - d) for d in eng.numerical.divisors(low)]


def _unmasked_pairs(eng, bmask, restricted):
    b0 = bmask >> ((bmask & -bmask).bit_length() - 1)
    out = set()
    for da, dc in _every_split(eng, bmask, restricted):
        for a0, c0 in masks_py.pair_search(b0, eng.member_mask >> da, eng.member_mask >> dc):
            a, c = a0 << da, c0 << dc
            out.add((min(a, c), max(a, c)))
    return out


def _descending_submasks(mask: int):
    """Every submask of mask, with bit 0 added, from the largest down."""
    pool = mask & ~1
    sub = pool
    while True:
        yield sub | 1
        if sub == 0:
            return
        sub = (sub - 1) & pool


def _witness_by_key(eng, bmask, restricted):
    """The documented witness, by brute force over the full space: among
    the nontrivial pairs (a, c) with a + c = B over every split (d, low - d),
    the one with the least key (min a, -a, -c), so the lowest split d with
    such a pair, then the largest A-side mask, then the largest C-side mask.
    Each A side meets every C side within the shifts c with A + c inside B.
    A side is trivial when it is {0}, that is a mask of 1 on a split side 0."""
    b0 = bmask >> ((bmask & -bmask).bit_length() - 1)
    for da, dc in _every_split(eng, bmask, restricted):
        shifts = b0 & (eng.member_mask >> dc)
        for a0 in _descending_submasks(b0 & (eng.member_mask >> da)):
            c_max = sum(1 << c for c in range(b0.bit_length())
                        if shifts >> c & 1 and oracle_sumset(a0, 1 << c) | b0 == b0)
            for c0 in _descending_submasks(c_max):
                if oracle_sumset(a0, c0) == b0 and (a0 != 1 or da) and (c0 != 1 or dc):
                    a, c = a0 << da, c0 << dc
                    return (min(a, c), max(a, c))
    return None


def test_half_space_finds_every_pair_once():
    for eng, bmask, restricted in _engine_cases(_pair_corpus()):
        pairs = eng.pair_decompositions(bmask)
        assert pairs == sorted(set(pairs))
        assert set(pairs) == _unmasked_pairs(eng, bmask, restricted), (bin(bmask), restricted)


def test_atom_witness_is_the_full_space_first_witness():
    """The half-space engine reports the witness that comes first over the
    full space in the order of its key, whatever order the kernel emits
    pairs in."""
    shortcut = searched_positive_min = 0
    for eng, bmask, restricted in _engine_cases(_pair_corpus() + _large_minimum_corpus()):
        if bmask == 1:
            continue  # the identity is no atom and has no witness
        want = _witness_by_key(eng, bmask, restricted)
        assert eng.atom_witness(bmask) == want, (bin(bmask), restricted)
        low = (bmask & -bmask).bit_length() - 1
        if want is not None and low and not restricted:
            if (bmask >> low) & ~eng.member_mask:
                searched_positive_min += 1
            else:
                shortcut += 1
    # both ways of answering a set with a positive minimum are exercised
    assert shortcut > 100 and searched_positive_min > 100


def test_the_yes_no_walk_agrees_with_the_witness():
    """`_Engine.is_atom` stops at the first nontrivial pair it meets; it
    reads an atom exactly when `atom_witness` finds no witness, on sets with
    and without 0 and on every ambient of the pair corpus."""
    atoms = reducible = 0
    cases = _engine_cases(_pair_corpus() + _large_minimum_corpus())
    for eng, bmask, restricted in cases:
        if bmask == 1:
            continue  # the identity is no atom and has no witness
        eng._atom_memo.clear()
        answer = eng.is_atom(bmask)
        assert answer == (eng.atom_witness(bmask) is None), (bin(bmask), restricted)
        atoms += answer
        reducible += not answer
    assert atoms > 100 and reducible > 1000


def test_witness_examples_with_a_positive_minimum():
    # {4, 6} - 4 = {0, 2} lies in <2,3>: the witness splits off {4}
    assert str(is_atom(fs(4, 6), M23).witness) == "{0, 2} + {4}"
    # {2, 3} - 2 = {0, 1} does not, and no split of 2 helps: an atom
    assert is_atom(fs(2, 3), M23).is_atom
    # {5, 6} - 5 = {0, 1} does not either, but the split 5 = 2 + 3 does,
    # and its largest A side is {2, 3}
    assert str(is_atom(fs(5, 6), M23).witness) == "{2, 3} + {3}"


def _positive_minimum_m23_corpus():
    """Sets over <2,3> with a positive minimum: the 0-free sets of the
    <2,3> corpus and the large-minimum ones."""
    return [(b, monoid, r) for b, monoid, r in _m23_corpus() + _large_minimum_corpus()
            if monoid is M23 and b.min > 0]


def test_split_pairs_returns_each_pair_once():
    corpus = _interval_corpus() + [(b, N0, False) for b, _, _ in _interval_corpus()]
    for eng, bmask, restricted in _engine_cases(corpus + _positive_minimum_m23_corpus()):
        b0 = bmask >> ((bmask & -bmask).bit_length() - 1)
        found = [tuple(sorted(p)) for da, dc in eng._splits(bmask)
                 for p in eng._split_pairs(b0, da, dc)]
        assert len(found) == len(set(found)), (bin(bmask), restricted)
        assert eng.pair_decompositions(bmask) == sorted(found)


def test_pairs_are_oriented_for_the_factorization_walk():
    """`_pairs` yields each pair of `pair_decompositions` once, as (x, y)
    with x <= y, or as (y, {0}) when x is {0}."""
    for eng, bmask, restricted in _engine_cases(_pair_corpus()):
        walked = list(eng._pairs(bmask))
        assert all(c == 1 or a != 1 and a <= c for a, c in walked), bin(bmask)
        assert sorted((min(p), max(p)) for p in walked) == eng.pair_decompositions(bmask)


# -- one kernel search per effective input, one build per factorization ------


class CountingKernel:
    """A wrapper over the kernel that counts its searches and records their
    inputs, reduced to what the kernel reads of them.  It installs itself
    over `masks_py.pair_search`, the attribute the engine calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.inputs: set = set()
        self._search = masks_py.pair_search
        monkeypatch.setattr(masks_py, "pair_search", self.pair_search)

    def pair_search(self, b, cand_a, cand_c):
        self.calls += 1
        self.inputs.add((b, b & cand_a, b & cand_c))
        return self._search(b, cand_a, cand_c)


def _counting_engine(monkeypatch, monoid):
    kernel = CountingKernel(monkeypatch)
    eng = decompose._Engine(monoid)
    monkeypatch.setattr(decompose, "_ENGINES", {monoid: eng})
    return eng, kernel


def _assert_one_search_per_input(eng, kernel):
    assert kernel.calls == len(eng._pair_memo) == len(kernel.inputs)
    assert set(eng._pair_memo) == kernel.inputs
    assert all(type(pairs) is tuple for pairs in eng._pair_memo.values())


def test_interval_corpus_searches_each_input_once(monkeypatch):
    eng, kernel = _counting_engine(monkeypatch, N0)
    for b, monoid, restricted in _interval_corpus():
        is_atom(b, monoid, restricted)
        set_length_set(b, monoid, restricted)
    _assert_one_search_per_input(eng, kernel)
    assert kernel.calls == 511  # one search per B - min B but {0}


def test_atomicity_sweep_searches_each_input_once(monkeypatch):
    from powmon.laboratory import atomicity_sweep

    eng, kernel = _counting_engine(monkeypatch, HALF_THIRD)
    report = atomicity_sweep(HALF_THIRD, 3, 4)
    assert report.passed and report.checked == 2324
    _assert_one_search_per_input(eng, kernel)


def test_length_set_after_is_atom_repeats_no_search(monkeypatch):
    """set_length_set reuses the search is_atom made of the same set: of
    an atom it searches nothing at all, of a non-atom only the cofactors."""
    atoms = 0
    for b, monoid, restricted in [(fs(0, 1, 3), N0, True), (fs(0, 3, 4), N0, False),
                                  (fs(2, 3), M23, False), (fs(F(1, 3), F(1, 2)), HALF_THIRD, False),
                                  (fs(*range(10)), N0, True), (fs(0, 1, 2, 3, 5), N0, False),
                                  (fs(0, F(1, 2), 1, F(3, 2)), HALF_THIRD, False),
                                  (fs(5, 6), M23, False)]:
        eng, kernel = _counting_engine(monkeypatch, monoid)
        check = is_atom(b, monoid, restricted)
        searched = kernel.calls
        assert searched, b
        lengths = set_length_set(b, monoid, restricted)
        if check.is_atom:
            atoms += 1
            assert lengths == {1} and kernel.calls == searched, b
        else:
            assert kernel.calls > searched, b
        _assert_one_search_per_input(eng, kernel)
    assert atoms == 4


def test_both_modes_share_one_factorization_memo(monkeypatch):
    """A 0-containing set factors the same way in P_fin,0 and P_fin, so
    after the restricted enumeration the unrestricted enumeration and
    length set of the same set add no memo entry and search nothing."""
    for b in (fs(0, 1, 3), fs(*range(9)), fs(0, 2, 3, 5, 7)):
        eng, kernel = _counting_engine(monkeypatch, N0)
        restricted = set_factorizations(b, N0, restricted=True)
        entries, searched = len(eng._factor_memo), kernel.calls
        assert set_factorizations(b, N0, restricted=False) == restricted
        assert set_length_set(b, N0, restricted=False) == restricted.lengths()
        assert (len(eng._factor_memo), kernel.calls) == (entries, searched), b


def test_sweep_lists_divisors_once_per_minimum(monkeypatch):
    """Divisor splits are memoized by min B: the <1/2,1/3> sweep lists the
    divisors of each scaled minimum it meets once, and no minimum lies
    past the sweep's bound."""
    from powmon.laboratory import atomicity_sweep
    from powmon.numerical import NumericalMonoid

    eng, _ = _counting_engine(monkeypatch, HALF_THIRD)
    asked = []
    divisors = NumericalMonoid.divisors

    def counting(self, x):
        asked.append(x)
        return divisors(self, x)

    monkeypatch.setattr(NumericalMonoid, "divisors", counting)
    assert atomicity_sweep(HALF_THIRD, 3, 4).passed
    assert len(asked) == len(set(asked)), len(asked)
    assert set(asked) == set(eng._split_memo)
    assert set(asked) <= {HALF_THIRD.to_scaled(q) for q in HALF_THIRD.members_upto(4)}


def test_translates_share_one_search(monkeypatch):
    """Past the conductor of <2,3> every candidate bit is set, so a
    translate of a searched set needs no search of its own."""
    kernel = CountingKernel(monkeypatch)
    eng = decompose._Engine(M23)
    witnesses = []
    for b in (fs(20, 21, 23), fs(30, 31, 33), fs(41, 42, 44)):
        bmask = eng.to_mask(b)
        witnesses.append(eng.atom_witness(bmask))
        if len(witnesses) == 1:
            searched = kernel.calls
            assert searched
    assert kernel.calls == searched
    assert [str(eng.to_decomposition(*w)) for w in witnesses] == [
        "{2, 3, 5} + {18}", "{2, 3, 5} + {28}", "{2, 3, 5} + {39}"]


def test_raw_factorizations_are_distinct_and_ascending():
    eng = decompose._Engine(N0)
    for rest in range(1 << 9):
        bmask = (rest << 1) | 1
        eng.ensure(bmask.bit_length())
        expected = oracle_restricted_factorizations(bmask, 9)
        for cap in (None, 1, 2, 3):
            raw, _ = eng.factorizations(bmask, cap)
            assert type(raw) is tuple and len(raw) == len(set(raw)), (bin(bmask), cap)
            assert all(list(z) == sorted(z) for z in raw), (bin(bmask), cap)
            assert set(raw) == {z for z in expected if cap is None or len(z) <= cap}, (
                bin(bmask), cap)


# -- factorability without enumeration -----------------------------------------


def _factorability_corpus():
    """The subsets of [0, 9] over <1> in both modes; sets over <2,3> of at
    most four members up to 14, and with a minimum in [30, 45]; sets over
    <1/2, 1/3>; and, restricted over <2,3>, the subsets of [0, 9] with 0,
    many of which leave the monoid and so have no factorization."""
    from itertools import combinations

    subsets = [FinSet(mask_to_set(mask)) for mask in range(1, 1 << 10)]
    corpus = _interval_corpus() + [(b, N0, False) for b in subsets]
    members = [x for x in range(15) if M23.contains(x)]
    corpus += [(FinSet(c), M23, False) for card in (1, 2, 3, 4)
               for c in combinations(members, card)]
    corpus += [(b, M23, False) for b, monoid, _ in _large_minimum_corpus() if monoid is M23]
    return corpus + _rational_corpus() + [(b, M23, True) for b, _, _ in _interval_corpus()]


def test_factorable_agrees_with_enumeration():
    engines: dict = {}
    answers = set()
    for b, monoid, restricted in _factorability_corpus():
        if monoid not in engines:
            engines[monoid] = (decompose._Engine(monoid), decompose._Engine(monoid))
        asked, listed = engines[monoid]
        bmask = sum(1 << n for n in map(monoid.to_scaled, b.elems))
        asked.ensure(bmask.bit_length())
        listed.ensure(bmask.bit_length())
        answer = asked.factorable(bmask)
        assert answer == bool(listed.factorizations(bmask)[0]), (b, restricted)
        if restricted and monoid is N0:
            assert answer == bool(oracle_restricted_factorizations(bmask, 9)), b
        answers.add(answer)
    assert answers == {True, False}
    assert all(not asked._factor_memo for asked, _ in engines.values())


def test_atomicity_sweep_lists_no_factorization(monkeypatch):
    """The sweep asks factorability only: it fills no factorization memo,
    and with nothing failing it builds no FinSet at all."""
    from powmon.laboratory import atomicity_sweep

    eng, _ = _counting_engine(monkeypatch, HALF_THIRD)
    built = []
    init, trusted = FinSet.__init__, FinSet._sorted.__func__

    def counting_init(self, elements):
        built.append(elements)
        init(self, elements)

    def counting_sorted(cls, elems):
        built.append(elems)
        return trusted(cls, elems)

    monkeypatch.setattr(FinSet, "__init__", counting_init)
    monkeypatch.setattr(FinSet, "_sorted", classmethod(counting_sorted))
    report = atomicity_sweep(HALF_THIRD, 3, 4)
    assert report.passed and report.checked == 2324
    assert built == [] and eng._factor_memo == {} and eng._factorable_memo


def test_a_set_outside_the_ambient_is_not_factorable():
    """Restricted {0, 1}, {0, 1, 2} and {0, 1, 3} over <2,3> leave the
    monoid: like an atom they have no nontrivial pair, yet they have no
    factorization, by `factorable` and by the engine's own enumeration."""
    for b in (fs(0, 1), fs(0, 1, 2), fs(0, 1, 3)):
        eng = decompose._Engine(M23)
        bmask = sum(1 << n for n in map(M23.to_scaled, b.elems))
        eng.ensure(bmask.bit_length())
        assert bmask & ~eng.member_mask and not any(eng._reducing_splits(bmask)), b
        assert eng.factorable(bmask) is False, b
        assert eng.factorizations(bmask) == ((), True), b


def _certificate(eng, bmask):
    """One factorization of B as atom masks: the first nontrivial pair with
    two factorable sides, followed down to sets with no such pair."""
    if bmask == 1:
        return []
    for split in eng._reducing_splits(bmask):
        for x, y in split:
            if eng.factorable(x) and eng.factorable(y):
                return _certificate(eng, x) + _certificate(eng, y)
    return [bmask]


def test_every_factorable_set_has_a_certificate_of_atoms():
    """For each set of the factorability corpus that `factorable` accepts,
    the pairs it accepts, followed down, give parts that recombine to B by
    Minkowski sum, each an atom by a second engine's `is_atom` (and, over
    <1> restricted, by the oracle)."""
    engines: dict = {}
    certified = 0
    for b, monoid, restricted in _factorability_corpus():
        if monoid not in engines:
            engines[monoid] = (decompose._Engine(monoid), decompose._Engine(monoid))
        asked, judge = engines[monoid]
        bmask = sum(1 << n for n in map(monoid.to_scaled, b.elems))
        asked.ensure(bmask.bit_length())
        judge.ensure(bmask.bit_length())
        if not asked.factorable(bmask):
            continue
        leaves = _certificate(asked, bmask)
        total = fs(0)
        for leaf in leaves:
            total = total + _public_finset(leaf, monoid)
        assert total == b, (b, restricted)
        assert all(judge.is_atom(leaf) for leaf in leaves), (b, restricted)
        if restricted and monoid is N0:
            assert all(oracle_is_atom_restricted(leaf, 9) for leaf in leaves), b
        certified += 1
    assert certified == 6066
    assert all(not asked._atom_memo for asked, _ in engines.values())


def test_the_cold_sweep_runs_one_walk(monkeypatch):
    """A cold sweep of <1/2, 1/3> fills no atom memo.  Of its 2,324 sets
    only 321 have no divisor pair and walk `_reducing_splits`, and its pair
    memo stays at those walks' 321 kernel inputs."""
    from powmon.laboratory import atomicity_sweep

    eng, _ = _counting_engine(monkeypatch, HALF_THIRD)
    walked = []
    splits = eng._reducing_splits

    def counting_splits(bmask):
        walked.append(bmask)
        return splits(bmask)

    monkeypatch.setattr(eng, "_reducing_splits", counting_splits)
    assert atomicity_sweep(HALF_THIRD, 3, 4).passed
    assert eng._atom_memo == {} and len(eng._pair_memo) <= 321
    assert len(walked) <= 321


def test_a_divisor_pair_decides_factorability_without_a_walk(monkeypatch):
    """{1, 7/6} over <1/2, 1/3> has no translate pair, since 1/6 is not in
    the ambient, but the atom 1/3 divides both elements: it is decided
    through ({1/3}, {2/3, 5/6}), with no split walk and no kernel search
    of its own."""
    eng, kernel = _counting_engine(monkeypatch, HALF_THIRD)
    bmask = eng.to_mask(fs(1, F(7, 6)))
    assert (bmask >> 6) & ~eng.member_mask  # B - min B = {0, 1/6}
    x, y = eng.to_mask(fs(F(1, 3))), eng.to_mask(fs(F(2, 3), F(5, 6)))
    assert eng._divisor_pair(bmask) == (x, y)
    eng._factorable_memo.update({x: True, y: True})
    monkeypatch.setattr(eng, "_reducing_splits", None)  # a walk would raise
    assert eng.factorable(bmask) is True and kernel.calls == 0


def test_divisor_pairs_are_nontrivial_and_agree_with_enumeration():
    """Over the sets with a positive minimum of <2, 3> and <3, 5, 7>, every
    divisor pair is ({d}, B - d) with d = min B or an atom at most min B,
    B - d in the ambient and B - d != {0}; a singleton atom {u} gets none;
    and `factorable` agrees with a nonempty enumeration on a second
    engine."""
    from itertools import combinations

    for monoid in (M23, PuiseuxMonoid([3, 5, 7])):
        asked, listed = decompose._Engine(monoid), decompose._Engine(monoid)
        asked.ensure(17)
        listed.ensure(17)
        atoms = asked.numerical.atoms
        assert all(asked._divisor_pair(1 << u) is None for u in atoms)
        members = [1 << n for n in range(1, 17) if asked.member_mask >> n & 1]
        paired = 0
        for card in (1, 2, 3, 4):
            for bmask in map(sum, combinations(members, card)):
                low = (bmask & -bmask).bit_length() - 1
                pair = asked._divisor_pair(bmask)
                if pair is not None:
                    x, y = pair
                    d = x.bit_length() - 1
                    assert x == 1 << d and (d == low or d in atoms) and d <= low, bin(bmask)
                    assert y << d == bmask and y != 1 and not y & ~asked.member_mask
                    paired += 1
                answer = asked.factorable(bmask)
                assert answer == bool(listed.factorizations(bmask)[0]), bin(bmask)
        assert paired


# -- the universe bound, checked before anything is built --------------------


def test_a_set_past_the_universe_is_refused_before_its_mask():
    """{0, 10^9} over <1> is a 10^9-bit mask: it is refused before one bit
    past the bound is shifted in, with the bound's message."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedAmbientError,
                           match="scaled universe of 1000000001 bits exceeds the 4096-bit"):
            is_atom(fs(0, 10**9), PuiseuxMonoid([1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # a non-member is named first, wherever it stands
    with pytest.raises(NotAMemberError, match="1/2 is not in the ambient <1>"):
        is_atom(fs(0, F(1, 2), 10**9), N0)
    with pytest.raises(NotAMemberError, match="1 is not in the ambient <2, 3>"):
        decompositions(fs(0, 1, 10**9), M23)


def test_the_sweep_refuses_a_large_bound_before_listing_members():
    import time

    from powmon.laboratory import atomicity_sweep

    start = time.perf_counter()
    with pytest.raises(UnsupportedAmbientError,
                       match="scaled universe of 100000001 bits exceeds the 4096-bit"):
        atomicity_sweep(PuiseuxMonoid([2, 3]), 1, 10**8)
    assert time.perf_counter() - start < 0.5
    # the largest member at most the bound sets the universe: over
    # <100, 101>, 4041..4099 are gaps, so a bound of 4099 stays inside it
    wide_gaps = PuiseuxMonoid([100, 101])
    assert atomicity_sweep(wide_gaps, 1, 4099).checked == len(wide_gaps.members_upto(4099))
    with pytest.raises(UnsupportedAmbientError, match="scaled universe of 4101 bits"):
        atomicity_sweep(wide_gaps, 1, 4100)


def test_a_negative_sweep_bound_gives_the_empty_sweep():
    from powmon.laboratory import atomicity_sweep

    report = atomicity_sweep(M23, 2, -1)
    assert (report.checked, report.by_cardinality, report.failures) == (0, {1: 0, 2: 0}, ())
    assert atomicity_sweep(HALF_THIRD, 1, F(-1, 3)).passed


def test_decomposition_sides_are_in_finset_order():
    """`to_decomposition` orders its two masks by bit positions: the same
    order as sorting the two FinSets, on random member pairs over <1>,
    <2, 3> and <1/2, 1/3>, given either way round."""
    import random

    rng = random.Random(89)
    for monoid in (N0, M23, HALF_THIRD):
        eng = decompose.engine_for(monoid)
        eng.ensure(24)
        members = [1 << n for n in range(24) if eng.member_mask >> n & 1]
        pairs = [(0b101, 0b1011), (0b11, 0b111), (1, 0b101)]
        for _ in range(300):
            a, c = (sum(rng.sample(members, rng.randrange(1, 6))) for _ in range(2))
            pairs.append((a | rng.choice((0, 1)), c))
        for a, c in pairs:
            if not (a & ~eng.member_mask or c & ~eng.member_mask):
                want = tuple(sorted((eng.to_finset(a), eng.to_finset(c))))
                assert (eng.to_decomposition(a, c).left, eng.to_decomposition(a, c).right) == want
                assert eng.to_decomposition(c, a) == eng.to_decomposition(a, c), (a, c)


def test_a_warm_call_neither_hashes_nor_orders_a_fraction(monkeypatch):
    """Once the engine is warm, `is_atom`, `set_length_set` and
    `set_factorizations` (and the FinSets they are given) run on integers
    at the boundary: with Fraction.__lt__ and Fraction.__hash__ raising,
    every answer is the one given before."""
    cases = [(fs(*xs), monoid, restricted)
             for monoid, restricted, sets in [
                 (N0, True, [(0, 2, 3, 5, 7, 9), (0, 1, 2, 3), (0, 3), (0,), (0, 1, 3, 4)]),
                 (M23, False, [(0, 2, 3, 5), (2, 3), (6,), (0, 4, 5, 8, 9)]),
                 (HALF_THIRD, False, [(0, F(1, 2), 1, F(3, 2)), (F(1, 3), F(5, 6)), (0, 1)]),
             ]
             for xs in sets]
    def answers(b, m, r):
        return is_atom(b, m, r), set_length_set(b, m, r), set_factorizations(b, m, r)

    want = [answers(b, m, r) for b, m, r in cases]
    assert any(check.witness for check, *_ in want)

    def refuse(*_):
        raise AssertionError("a Fraction was hashed or compared")

    monkeypatch.setattr(F, "__lt__", refuse)
    monkeypatch.setattr(F, "__hash__", refuse)
    got = [answers(FinSet(b.elems), m, r) for b, m, r in cases]
    monkeypatch.undo()
    assert got == want


def test_a_refusal_names_the_first_failing_element():
    """A set that mixes a non-integral element, a non-member and an element
    past the universe is refused for the least of its first two kinds; one
    past the universe is refused for it only when every element is a
    member.  A refusal leaves the universe as it was, also for a set below
    the bound that would grow it, and the engine answers as before
    afterwards."""
    big = 5000
    probe = fs(0, F(1, 2), 1, F(3, 2))
    before = set_length_set(probe, HALF_THIRD)
    cases = [
        (M23, fs(0, 1, F(3, 2), big), "1"),
        (M23, fs(0, F(1, 2), 1, big), "1/2"),
        (M23, fs(0, big, F(2 * big + 1, 2)), f"{2 * big + 1}/2"),
        (M23, fs(0, 2, big, big + 1), None),
        (HALF_THIRD, fs(0, F(1, 12), F(1, 6), big), "1/12"),
        (HALF_THIRD, fs(0, F(1, 6), F(1, 4), big), "1/6"),
        (HALF_THIRD, fs(0, F(1, 2), big, big + F(1, 12)), f"{12 * big + 1}/12"),
        (HALF_THIRD, fs(0, F(1, 3), F(1, 6)), "1/6"),
        (M23, fs(0, 1, 4000), "1"),
        (HALF_THIRD, fs(0, F(1, 6), 600), "1/6"),
    ]
    for monoid, b, named in cases:
        built = decompose.engine_for(monoid).built
        assert built < 3600
        if named is None:
            with pytest.raises(UnsupportedAmbientError, match="exceeds the 4096-bit"):
                is_atom(b, monoid)
        else:
            with pytest.raises(NotAMemberError, match=f"^{named} is not in the ambient {monoid}$"):
                is_atom(b, monoid)
        assert decompose.engine_for(monoid).built == built
    assert is_atom(fs(0, 2), M23).is_atom and not is_atom(fs(0, 2, 3, 5), M23).is_atom
    assert set_length_set(probe, HALF_THIRD) == before
