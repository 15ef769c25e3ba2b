import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    CapExceeded,
    GroupDescriptor,
    add,
    coset_representatives,
    cosets,
    enumerate_subgroups,
    find_complement,
    generated_subgroup,
    negate,
    subgroup_from_bits,
)
from addcomb.groups import (
    add_rank,
    element_order,
    neg_rank,
    negate_bits,
    translate_bits,
)
from conftest import BENCH_SHAPES, KERNEL_SHAPES, MODULI_POOL, groups


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor([])
    with pytest.raises(ValueError):
        GroupDescriptor([1, 2])
    with pytest.raises(CapExceeded):
        GroupDescriptor([2] * 21)
    g = GroupDescriptor([2, 3, 4])
    assert g.order == 24
    assert g.exponent == 12
    assert g.full_mask == (1 << 24) - 1


def test_rank_coords_bijection_matches_oracle():
    for mods in MODULI_POOL:
        g = GroupDescriptor(mods)
        assert [g.coords_of(r) for r in range(g.order)] == oracles.elements(mods)
        for r in range(g.order):
            assert g.rank_of(g.coords_of(r)) == r


def test_add_examples():
    z4 = GroupDescriptor([4])
    assert add(z4, z4.element(1), z4.element(3)).rank == 0
    z22 = GroupDescriptor([2, 2])
    assert add(z22, z22.element(1), z22.element(2)).rank == 3
    for g in (z4, z22):
        for r in range(g.order):
            assert add(g, g.element(r), g.zero()).rank == r


@given(groups(), st.data())
def test_add_neg_match_oracle(g, data):
    a = data.draw(st.integers(0, g.order - 1))
    b = data.draw(st.integers(0, g.order - 1))
    mods = g.moduli
    ca, cb = g.coords_of(a), g.coords_of(b)
    assert g.coords_of(add_rank(g, a, b)) == oracles.add(mods, ca, cb)
    assert g.coords_of(neg_rank(g, a)) == oracles.neg(mods, ca)


@given(groups(), st.data())
def test_bitset_translate_negate_match_oracle(g, data):
    bits = data.draw(st.integers(0, g.full_mask))
    x = data.draw(st.integers(0, g.order - 1))
    aset = {g.coords_of(r) for r in range(g.order) if (bits >> r) & 1}
    t = translate_bits(g, bits, x)
    tset = {g.coords_of(r) for r in range(g.order) if (t >> r) & 1}
    assert tset == oracles.translate(g.moduli, aset, g.coords_of(x))
    n = negate_bits(g, bits)
    nset = {g.coords_of(r) for r in range(g.order) if (n >> r) & 1}
    assert nset == {oracles.neg(g.moduli, a) for a in aset}


@pytest.mark.parametrize("mods", KERNEL_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_translate_bits_matches_digit_oracle_for_every_shift(mods):
    g = GroupDescriptor(mods)
    bits = random.Random(repr(mods)).getrandbits(g.order)
    for x in range(g.order):
        want = oracles.translate_bits_by_digit(mods, bits, x)
        assert translate_bits(g, bits, x) == want, x


def test_translate_bits_builds_no_digit_masks():
    # per-digit masks of Z/16384 would be 16384 masks of up to 2 KiB
    # (17.7 MB); a first translate on a fresh descriptor builds none
    g = GroupDescriptor([16384])
    bits = random.Random(5).getrandbits(g.order)
    tracemalloc.start()
    try:
        t = translate_bits(g, bits, 1234)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t == translate_bits(g, translate_bits(g, bits, 1000), 234)
    assert peak < 2**20


NEGATE_SHAPES = KERNEL_SHAPES + BENCH_SHAPES


@pytest.mark.parametrize("mods", NEGATE_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_negate_bits_matches_digit_oracle(mods):
    g = GroupDescriptor(mods)
    rng = random.Random(repr(mods))
    sets = [0, 1, g.full_mask, 1 << (g.order - 1)]
    sets += [rng.getrandbits(g.order) for _ in range(4)]
    for bits in sets:
        n = negate_bits(g, bits)
        assert n == oracles.negate_bits_by_digit(mods, bits)
        assert negate_bits(g, n) == bits


@pytest.mark.parametrize("mods", KERNEL_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_repeaters_match_division(mods):
    g = GroupDescriptor(mods)
    full = g.full_mask
    assert g._reps == tuple(full // ((1 << blk * m) - 1)
                            for m, blk in zip(mods, g._blocks))


def test_negate_bits_builds_no_digit_masks():
    # the digit masks of Z/16384 take 17.7 MB; the reversal and one translate
    # on a fresh descriptor stay far below that
    g = GroupDescriptor([16384])
    bits = random.Random(6).getrandbits(g.order)
    tracemalloc.start()
    try:
        n = negate_bits(g, bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == sum(1 << (-r % g.order) for r in range(g.order)
                    if (bits >> r) & 1)
    assert peak < 2**20


@given(st.sampled_from(KERNEL_SHAPES), st.data())
def test_translate_bits_on_kernel_shapes(mods, data):
    g = GroupDescriptor(mods)
    bits = data.draw(st.integers(0, g.full_mask))
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    elems = oracles.elements(mods)
    t = translate_bits(g, bits, x)
    aset = {elems[r] for r in range(g.order) if (bits >> r) & 1}
    tset = {elems[r] for r in range(g.order) if (t >> r) & 1}
    assert tset == oracles.translate(mods, aset, elems[x])
    assert translate_bits(g, t, y) == translate_bits(g, bits, add_rank(g, x, y))


def test_element_order():
    z12 = GroupDescriptor([12])
    assert element_order(z12, 0) == 1
    assert element_order(z12, 1) == 12
    assert element_order(z12, 4) == 3
    assert element_order(z12, 6) == 2


def test_generated_subgroup_examples():
    z22 = GroupDescriptor([2, 2])
    h = generated_subgroup(z22, [1])
    assert sorted(h.ranks()) == [0, 1]
    assert h.index == 2
    assert generated_subgroup(z22, []).ranks() == [0]
    assert generated_subgroup(z22, []).index == 4
    z4 = GroupDescriptor([4])
    h = generated_subgroup(z4, [2])
    assert sorted(h.ranks()) == [0, 2]
    assert h.index == 2


def test_enumerate_subgroups_examples():
    assert len(enumerate_subgroups(GroupDescriptor([2, 2]))) == 5
    for p in (2, 3, 5, 7, 11, 13):
        assert len(enumerate_subgroups(GroupDescriptor([p]))) == 2
    subs = enumerate_subgroups(GroupDescriptor([4]))
    assert [sorted(h.ranks()) for h in subs] == [[0, 1, 2, 3], [0, 2], [0]]


def test_enumerate_subgroups_sorted_and_verified():
    for mods in [(2, 2), (4,), (2, 4), (3, 3), (2, 2, 2), (12,)]:
        g = GroupDescriptor(mods)
        subs = enumerate_subgroups(g)
        keys = [(-h.size, h.bits) for h in subs]
        assert keys == sorted(keys)
        assert len({h.bits for h in subs}) == len(subs)
        for h in subs:
            assert h.verify()
            assert h.index * h.size == g.order
            regen = generated_subgroup(g, [e.rank for e in h.generators])
            assert regen.bits == h.bits


def test_enumerate_subgroups_max_index():
    g = GroupDescriptor([2, 2, 2])
    all_subs = enumerate_subgroups(g)
    small = enumerate_subgroups(g, max_index=2)
    assert {h.bits for h in small} == {h.bits for h in all_subs if h.index <= 2}


def test_enumerate_subgroups_cap():
    from addcomb import Caps

    with pytest.raises(CapExceeded):
        enumerate_subgroups(GroupDescriptor([2, 2, 2]), caps=Caps(subgroup_enum_cap=4))


def test_lattice_cache_is_bounded():
    from addcomb.groups import _full_lattice

    # 65 distinct cyclic groups, one more than the cache holds
    for n in range(2, 67):
        g = GroupDescriptor([n])
        assert len(enumerate_subgroups(g)) == sum(n % k == 0 for k in range(1, n + 1))
    assert _full_lattice.cache_info().currsize <= 64


def test_subgroup_count_matches_closure_oracle():
    rank = {(2, 2): 2, (4,): 1, (2, 4): 2, (3, 3): 2, (2, 2, 2): 3,
            (8,): 1, (12,): 1, (2, 2, 3): 3, (9,): 1}
    for mods, r in rank.items():
        g = GroupDescriptor(mods)
        got = len(enumerate_subgroups(g))
        want = len(oracles.all_subgroups(mods, r))
        assert got == want, mods


def test_subgroup_count_matches_divisor_formula():
    # rank <= 2 groups up to order 64
    cases = [(2, 2), (2, 4), (2, 8), (4, 4), (2, 16), (4, 8), (3, 3),
             (3, 9), (2, 6), (4, 12), (6, 6), (2, 32), (8, 8), (5, 5)]
    for m, n in cases:
        g = GroupDescriptor([m, n])
        assert len(enumerate_subgroups(g)) == oracles.subgroup_count_rank2(m, n)


def test_known_subgroup_counts():
    # Gaussian-binomial sums for elementary abelian groups
    assert len(enumerate_subgroups(GroupDescriptor([2, 2, 2, 2]))) == 67
    assert len(enumerate_subgroups(GroupDescriptor([3, 3, 3]))) == 28


def test_cosets_examples():
    z22 = GroupDescriptor([2, 2])
    h = generated_subgroup(z22, [1])
    assert cosets(z22, h) == [0b0011, 0b1100]
    full = generated_subgroup(z22, [1, 2])
    assert cosets(z22, full) == [z22.full_mask]
    z6 = GroupDescriptor([6])
    h = generated_subgroup(z6, [3])
    got = cosets(z6, h)
    assert got == [0b001001, 0b010010, 0b100100]


@given(groups(), st.data())
def test_cosets_partition(g, data):
    subs = enumerate_subgroups(g)
    h = data.draw(st.sampled_from(subs))
    cs = cosets(g, h)
    assert len(cs) == h.index
    reps = coset_representatives(g, h)
    assert reps == [(c & -c).bit_length() - 1 for c in cs]
    assert reps == sorted(reps)
    union = 0
    for c in cs:
        assert c.bit_count() == h.size
        assert union & c == 0
        union |= c
    assert union == g.full_mask


def test_find_complement_examples():
    z22 = GroupDescriptor([2, 2])
    h = generated_subgroup(z22, [1])
    k = find_complement(z22, h)
    assert k is not None and sorted(k.ranks()) == [0, 2]
    z4 = GroupDescriptor([4])
    h = generated_subgroup(z4, [2])
    assert find_complement(z4, h) is None
    trivial = generated_subgroup(z4, [])
    k = find_complement(z4, trivial)
    assert k is not None and k.size == 4


@given(groups(), st.data())
def test_find_complement_is_direct_sum(g, data):
    subs = enumerate_subgroups(g)
    h = data.draw(st.sampled_from(subs))
    k = find_complement(g, h)
    if k is None:
        return
    assert (k.bits & h.bits) == 1
    assert k.size * h.size == g.order
    from addcomb import GroupSubset, sumset

    assert sumset(GroupSubset(g, k.bits), GroupSubset(g, h.bits)).bits == g.full_mask


def test_subgroup_from_bits():
    z4 = GroupDescriptor([4])
    h = subgroup_from_bits(z4, 0b0101)
    assert h.index == 2 and h.verify()
    with pytest.raises(ValueError):
        subgroup_from_bits(z4, 0b0011)
    with pytest.raises(ValueError):
        subgroup_from_bits(z4, 0b0100)


@given(groups(), st.data())
def test_negate_is_involution(g, data):
    r = data.draw(st.integers(0, g.order - 1))
    assert negate(g, negate(g, g.element(r))).rank == r
