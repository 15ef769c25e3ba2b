import copy
import dataclasses
import functools
import pickle
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    CapExceeded,
    Caps,
    GroupDescriptor,
    GroupSubset,
    almost_periods,
    coset_representatives,
    cosets,
    enumerate_subgroups,
    generated_subgroup,
    greedy_packing,
    max_subgroup_within,
    subgroup_from_bits,
)
from addcomb import groups as groups_lib
from addcomb.exhaustive import all_abelian_groups
from addcomb.groups import (
    _COVER_TABLE_ENTRIES,
    GroupElement,
    Subgroup,
    _bit_ranks,
    _closure_walk,
    _closure_with,
    _cover_ranks,
    _cover_walk,
    _full_lattice,
    _is_union_of_cosets,
    _make_subgroup,
    _rank_walk_pays,
    add_rank,
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


def test_descriptor_reads_integer_moduli_only():
    assert GroupDescriptor([np.int64(4), 2]).moduli == (4, 2)
    assert all(type(m) is int
               for m in GroupDescriptor([np.int64(4), np.uint8(2)]).moduli)
    for bad in (2.5, 2.0, "3", None):
        with pytest.raises(TypeError):
            GroupDescriptor([bad, 4])
        with pytest.raises(TypeError):
            GroupDescriptor([4, bad])


def test_element_from_coords_reads_integers_only():
    g = GroupDescriptor([13, 4])
    assert g.element_from_coords([15, -1]).coords == (2, 3)
    assert g.element_from_coords((np.int64(5), np.uint8(2))).rank == 5 + 2 * 13
    for bad in (1.5, "3", 2.0, None):
        with pytest.raises(TypeError):
            g.element_from_coords([bad, 0])
        with pytest.raises(TypeError):
            g.element_from_coords([0, bad])


def test_rank_coords_bijection_matches_oracle():
    for mods in MODULI_POOL:
        g = GroupDescriptor(mods)
        assert [g.coords_of(r) for r in range(g.order)] == oracles.elements(mods)
        for r in range(g.order):
            assert g.rank_of(g.coords_of(r)) == r


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


@pytest.mark.parametrize("mods", [(2,) * k for k in range(1, 7)] + [(2, 3, 2)],
                         ids=lambda mods: "x".join(map(str, mods)))
def test_negate_bits_on_elementary_two_groups_is_the_identity(mods, count_calls):
    # on (Z/2)^k every element is its own negative, so no translate is taken;
    # a mixed group with factors 2 still reverses and translates
    g = GroupDescriptor(mods)
    calls = count_calls(translate_bits)
    for bits in range(g.full_mask + 1) if g.order <= 16 else [
            random.Random(k).getrandbits(g.order) for k in range(64)]:
        assert negate_bits(g, bits) == oracles.negate_bits_by_digit(mods, bits)
    assert (calls[0] == 0) == (max(mods) == 2)


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


def test_generated_subgroup_rejects_another_groups_element():
    # (1, 1) in Z/2 x Z/4 has rank 3, which in Z/8 is another element
    z8 = GroupDescriptor([8])
    e = GroupDescriptor([2, 4]).element_from_coords([1, 1])
    assert e.rank == 3
    with pytest.raises(ValueError, match="does not belong"):
        generated_subgroup(z8, [e])
    assert generated_subgroup(z8, [z8.element(3)]).index == 1


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
            regen = generated_subgroup(g, list(h.generators))
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


def _all_python_ints(h):
    return type(h.generators) is tuple and all(type(r) is int
                                               for r in h.generators)


def test_generators_are_python_int_ranks_on_every_path():
    # the lattice, the walk (subgroup_from_bits, max_subgroup_within past
    # the exhaustive cap) and generated_subgroup from numpy ranks
    for mods in [(2, 2, 2), (12,), (2, 4), (3, 3)]:
        g = GroupDescriptor(mods)
        for h in enumerate_subgroups(g):
            assert _all_python_ints(h)
            assert generated_subgroup(g, list(h.generators)).bits == h.bits
            assert _all_python_ints(subgroup_from_bits(g, h.bits))
            walked = max_subgroup_within(GroupSubset(g, h.bits),
                                         caps=Caps(subgroup_exhaustive_cap=1))
            assert walked.bits == h.bits and _all_python_ints(walked)
    g = GroupDescriptor([1024])
    for dtype in (np.int64, np.uint32):
        h = generated_subgroup(g, np.array([256, 384], dtype))
        assert h.generators == (256, 384) and _all_python_ints(h)
        assert h.index == 128


def test_enumerate_subgroups_builds_no_element(monkeypatch):
    # every group of order <= 32, each lattice built afresh
    made = []
    for name in ("element", "element_from_coords"):
        fn = getattr(GroupDescriptor, name)

        def counted(self, *args, fn=fn, name=name):
            made.append(name)
            return fn(self, *args)

        monkeypatch.setattr(GroupDescriptor, name, counted)
    monkeypatch.setattr(groups_lib, "_full_lattice", functools.lru_cache(
        maxsize=64)(_full_lattice.__wrapped__))
    shapes = all_abelian_groups(32)
    assert len(shapes) == 54
    assert sum(len(enumerate_subgroups(g)) for g in shapes) == 1029
    assert made == []


def test_rank_entry_points_read_integers_only():
    # numpy ranks (uint32 is the dtype _rank_dtype gives) are the Python ints
    # they hold; a float or a string raises TypeError
    g = GroupDescriptor([3, 4])
    for r in (np.int64(5), np.uint32(5)):
        e = g.element(r)
        assert e == g.element(5) and type(e.rank) is int
        h = generated_subgroup(g, [r])
        assert h.generators == (5,) and type(h.generators[0]) is int
    assert type(g.element(True).rank) is int
    for bad in (1.5, 2.0, "3"):
        with pytest.raises(TypeError):
            g.element(bad)
        with pytest.raises(TypeError):
            generated_subgroup(g, [bad])


def test_subgroup_from_bits():
    z4 = GroupDescriptor([4])
    h = subgroup_from_bits(z4, 0b0101)
    assert h.index == 2 and h.verify()
    with pytest.raises(ValueError):
        subgroup_from_bits(z4, 0b0011)
    with pytest.raises(ValueError):
        subgroup_from_bits(z4, 0b0100)


@given(st.integers(0, 2**300))
def test_bit_ranks_matches_oracle(bits):
    assert _bit_ranks(bits) == oracles.bit_ranks(bits)


def test_closure_with_matches_oracle_on_every_pair():
    # every (subgroup, x) pair of every abelian group of order <= 16
    for g in all_abelian_groups(16):
        for sub, _ in _full_lattice(g):
            for x in range(g.order):
                assert _closure_with(g, sub, x) == oracles.closure_with(g, sub, x)


@given(st.sampled_from(MODULI_POOL + KERNEL_SHAPES[:1]), st.data())
def test_closure_walk_keeps_the_same_generators(mods, data):
    g = GroupDescriptor(mods)
    bits = data.draw(st.integers(0, g.full_mask))
    assert _closure_walk(g, bits) == oracles.closure_walk(g, bits)


def test_full_lattice_matches_oracle():
    # same subgroups and same kept generators, for all 116 groups of order <= 64
    for g in all_abelian_groups(64):
        assert _full_lattice.__wrapped__(g) == oracles.full_lattice(g), g


@given(st.sampled_from(MODULI_POOL + KERNEL_SHAPES[:3]), st.data())
def test_is_union_of_cosets_matches_oracle(mods, data):
    # h_bits need not be a subgroup, nor hold 0; S is drawn as a union of
    # cosets of <H> about half the time, so both answers occur
    g = GroupDescriptor(mods)
    h_bits = data.draw(st.integers(0, g.full_mask))
    s_bits = data.draw(st.integers(0, g.full_mask))
    if data.draw(st.booleans()):
        span = _closure_walk(g, h_bits)[0]
        s_bits = 0
        for r in oracles.bit_ranks(data.draw(st.integers(0, g.full_mask))):
            s_bits |= translate_bits(g, span, r)
    h_gens = _closure_walk(g, h_bits)[1]
    assert (_is_union_of_cosets(g, s_bits, h_gens)
            == oracles.is_union_of_cosets(g, s_bits, h_bits))


@given(groups(), st.data())
def test_subgroup_verify_matches_the_axioms(g, data):
    # any bitset and index, read as a claimed subgroup, against the axioms
    # checked element by element
    if data.draw(st.booleans()):
        bits = data.draw(st.sampled_from([b for b, _ in _full_lattice(g)]))
    else:
        bits = data.draw(st.integers(0, g.full_mask))
    size = bits.bit_count()
    index = data.draw(st.sampled_from([g.order // max(size, 1), 1, g.order]))
    want = (bool(bits & 1)
            and negate_bits(g, bits) == bits
            and oracles.is_union_of_cosets(g, bits, bits)
            and g.order % size == 0
            and index * size == g.order)
    assert Subgroup(g, bits, (), index).verify() == want


def test_subgroup_verify_reads_a_generating_set(count_calls):
    # index 2 in (Z/2)^16: 15 generators, one translate each
    g = GroupDescriptor([2] * 16)
    h = _make_subgroup(g, (1 << 2**15) - 1, ())
    calls = count_calls(translate_bits)
    assert h.verify()
    assert calls[0] <= 16


def test_full_lattice_skips_repeated_extensions(count_calls):
    g = GroupDescriptor([1024])
    calls = count_calls(translate_bits)
    lattice = _full_lattice.__wrapped__(g)
    assert [bits.bit_count() for bits, _ in lattice] == [2**k for k in range(10, -1, -1)]
    assert calls[0] <= 500


# cyclic, (Z/2)^n, (Z/3)^k and mixed shapes
COVER_SHAPES = [(7,), (64,), (1024,), (2,) * 4, (2,) * 8, (2,) * 10, (3,) * 3,
                (3,) * 5, (2, 12), (2, 2, 12), (4, 6), (3, 16, 2), (5, 7, 4)]


def _walk_ranks(g, bits):
    return [r for r, _ in _cover_walk(g, bits)]


@given(st.sampled_from(COVER_SHAPES),
       st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 0.9]),
       st.integers(0, 2**32))
def test_cover_ranks_matches_the_bitset_walk(mods, density, seed):
    # sets holding 0, from {0} to nearly G, through the rule and with each
    # walk forced
    g = GroupDescriptor(mods)
    rng = random.Random(seed)
    bits = 1 | sum(1 << r for r in range(g.order) if rng.random() < density)
    want = _walk_ranks(g, bits)
    assert _cover_ranks(g, bits) == want
    with pytest.MonkeyPatch.context() as mp:
        for pays in (True, False):
            mp.setattr(groups_lib, "_rank_walk_pays", lambda g, size: pays)
            assert _cover_ranks(g, bits) == want


@pytest.mark.parametrize("entries", [1, 2, 5, 24, 1 << 16])
def test_cover_ranks_builds_its_table_in_bounded_chunks(entries, monkeypatch):
    # chunks of one row, of a few rows, and of the whole group; no chunk
    # holds more than the bound
    g = GroupDescriptor([4, 6])
    built = []
    add = groups_lib._add_ranks

    def spy(g, a, b):
        out = add(g, a, b)
        built.append(out.size)
        return out

    monkeypatch.setattr(groups_lib, "_add_ranks", spy)
    monkeypatch.setattr(groups_lib, "_COVER_TABLE_ENTRIES", entries)
    monkeypatch.setattr(groups_lib, "_rank_walk_pays", lambda g, size: True)
    rng = random.Random(entries)
    for _ in range(30):
        size = rng.randrange(1, min(entries, 6) + 1)
        bits = sum(1 << r for r in [0] + rng.sample(range(1, 24), size - 1))
        assert _cover_ranks(g, bits) == _walk_ranks(g, bits)
    assert built and max(built) <= entries


@pytest.mark.parametrize("mods", BENCH_SHAPES + [(2,) * 8, (2,) * 16, (2,) * 20,
                                                 (65536,)], ids=str)
def test_rank_walk_rule_takes_the_table_for_sparse_sets_only(mods):
    # a random set's ball {0} makes every rank a center: the table walk;
    # a planted set's ball, about |G|/8, makes 8: the bitset walk
    g = GroupDescriptor(mods)
    assert _rank_walk_pays(g, 1) and _rank_walk_pays(g, 2)
    assert not _rank_walk_pays(g, g.order // 8)
    assert not _rank_walk_pays(g, _COVER_TABLE_ENTRIES + 1)


@pytest.mark.parametrize("mods,size,table", [
    ((2,) * 16, 64, True),       # 2*64*64 = 8192 <= 17*(1024 + 8) = 17544
    ((1 << 18,), 64, True),      # 8192 <= 2*(4096 + 8) = 8208
    ((2,) * 18, 128, True),      # 2*128*128 = 32768 <= 19*(4096 + 8)
    ((2,) * 20, 16384, True),    # rows 4: 2*16384*8 <= 21*(16384 + 8)
    ((2,) * 20, 32768, False),   # rows 2: 2*32768*8 > 21*(16384 + 8)
    ((2,) * 8, 1, True),         # vc_packing's ball {0}: 2*1*8 <= 9*(4 + 8)
    ((1024,), 128, False),       # the bench's cosets: 2*128*128 > 2*(16 + 8)
    ((64,), 8, False),           # 2*8*8 = 128 > 2*(1 + 8)
], ids=str)
def test_rank_walk_rule_counts_words_and_entries(mods, size, table):
    # the table walk runs iff 2 |B| max(min(|B|, rows), 8) <= (k + 1)(w + 8);
    # on the first four it ran 1.5-30 times faster than translates, on
    # random sets and on subgroups whose cosets' least ranks are consecutive
    assert _rank_walk_pays(GroupDescriptor(mods), size) == table


def test_rank_walk_rule_takes_the_table_for_consecutive_coset_ranks():
    # the cosets of Z/2^18's 64-element subgroup have least ranks 0..4095,
    # so every row of the table is a center
    g = GroupDescriptor([1 << 18])
    h = generated_subgroup(g, [4096])
    assert _rank_walk_pays(g, h.size)
    assert coset_representatives(g, h) == list(range(4096))


def test_rank_walk_rule_keeps_the_bitset_walk_past_the_row_bound():
    # past the default order cap a translate costs more than a row of the
    # table, so only the bound refuses a set whose row would not fit it (a
    # stub carries what the rule reads)
    huge = types.SimpleNamespace(moduli=(2,) * 30, order=2**30)
    assert _rank_walk_pays(huge, _COVER_TABLE_ENTRIES)
    assert not _rank_walk_pays(huge, _COVER_TABLE_ENTRIES + 1)


def test_cover_ranks_takes_the_walk_the_rule_names(count_calls):
    # the table walk translates nothing; the bitset walk translates once per
    # center, and lists no member of B, since the rule reads only |B|
    g = GroupDescriptor([2] * 8)
    h = generated_subgroup(g, [1 << i for i in range(5)])
    calls = count_calls(translate_bits)
    listed = count_calls(_bit_ranks)
    assert _cover_ranks(g, 1) == list(range(256))
    assert calls[0] == 0 and listed[0] == 1
    assert _cover_ranks(g, h.bits) == [32 * i for i in range(8)]
    assert calls[0] == 8 and listed[0] == 1
    assert coset_representatives(g, h) == [32 * i for i in range(8)]


@pytest.mark.parametrize("mods", KERNEL_SHAPES + [(2,) * 20, (3,) * 7],
                         ids=str)
def test_group_element_is_its_group_and_rank(mods):
    g = GroupDescriptor(mods)
    other = GroupDescriptor(mods + (2,), order_cap=2 * g.order)
    assert [f.name for f in dataclasses.fields(GroupElement)] == ["group",
                                                                   "rank"]
    rng = random.Random(g.order)
    ranks = [0, g.order - 1] + rng.sample(range(g.order), min(g.order, 300))
    for r in ranks:
        e = g.element(r)
        assert e.coords == g.coords_of(r)
        assert all(type(c) is int for c in e.coords)
        assert g.element_from_coords(e.coords) == e
        assert e == GroupElement(g, r) and hash(e) == hash(GroupElement(g, r))
        assert e != other.element(r) and e != g.element((r + 1) % g.order)
        assert repr(e) == f"<{g.coords_of(r)} rank {r}>"
        for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert type(twin) is GroupElement
            assert twin == e and hash(twin) == hash(e)
            assert twin.coords == e.coords
    # every attribute is frozen: a field, a property and a new name alike
    # (slots=True made the last two raise TypeError from super())
    for name in ("rank", "group", "coords", "foo"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.rank
    assert not hasattr(e, "__dict__")
    assert copy.copy(e) == e and e.rank == r
    # the greedy packing's centers are the elements of the walk's ranks
    a = GroupSubset(g, (1 << (g.order // 2)) - 1)
    ball = almost_periods(a, "1/4").members.bits
    centers = greedy_packing(a, "1/4").centers
    assert centers == tuple(g.element(r) for r in _cover_ranks(g, ball))
    assert all(type(e.rank) is int for e in centers)
