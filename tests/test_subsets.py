import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    GroupDescriptor,
    GroupSubset,
    all_abelian_groups,
    almost_periods,
    cosets,
    difference_set,
    enumerate_subgroups,
    generated_subgroup,
    iterated_doubling,
    kneser_fill_check,
    max_subgroup_within,
    sumset,
    symdiff_profile,
    symdiff_size,
    translate,
)
from addcomb import subsets as lib
from addcomb.caps import Caps
from addcomb.groups import _bit_ranks, _closure_with, add_rank, translate_bits
from addcomb.subsets import _ball
from conftest import BENCH_SHAPES, KERNEL_SHAPES, groups, nonempty_subsets, subsets


def _as_set(a: GroupSubset):
    return {a.group.coords_of(r) for r in a.ranks()}


def test_subset_construction_and_views():
    g = GroupDescriptor([2, 3])
    a = GroupSubset.from_ranks(g, [0, 4, 5])
    assert a.size == 3
    assert a.contains_rank(4) and not a.contains_rank(1)
    assert sorted(a.complement().ranks()) == [1, 2, 3]
    assert GroupSubset.empty(g).size == 0
    assert GroupSubset.full(g).size == 6
    with pytest.raises(ValueError):
        GroupSubset(g, 1 << 6)
    with pytest.raises(ValueError):
        GroupSubset.from_ranks(g, [6])


@pytest.mark.parametrize("mods", [(6,), (2, 3), (2,) * 8, (1024,), (3,) * 7],
                         ids=str)
def test_from_ranks_matches_the_shift_loop(mods):
    g = GroupDescriptor(mods)
    n = g.order
    rng = random.Random(n)
    some = rng.sample(range(n), n // 3)
    for ranks in ([], [0], [n - 1], some, some + some[::2], sorted(some),
                  some[::-1], list(range(n)), range(n), [5 % n] * 4):
        assert GroupSubset.from_ranks(g, ranks).bits == oracles.from_ranks(g, ranks)
    # the error names the first rank out of range, as the loop's did
    for bad, first in (([-1], -1), ([n], n), ([0, 3 % n, n + 7, -1], n + 7)):
        for build in (GroupSubset.from_ranks, oracles.from_ranks):
            with pytest.raises(ValueError, match=f"rank {first} out of range"):
                build(g, bad)


def test_from_ranks_of_every_rank_at_2_20_is_linear():
    # `bits |= 1 << r` per rank took 5 to 9 s on a 2-core x86-64 box
    g = GroupDescriptor([2] * 20)
    start = time.perf_counter()
    a = GroupSubset.from_ranks(g, range(g.order))
    assert time.perf_counter() - start < 2.0
    assert a.bits == g.full_mask


def test_translate_examples():
    z22 = GroupDescriptor([2, 2])
    a = GroupSubset.from_ranks(z22, [0, 1])
    assert sorted(translate(a, 2).ranks()) == [2, 3]
    assert translate(a, 0).bits == a.bits
    z4 = GroupDescriptor([4])
    b = GroupSubset.from_ranks(z4, [1])
    assert translate(b, 3).ranks() == [0]


# (1, 1) in Z/2 x Z/4 has rank 3, which in Z/8 is another element
def _foreign_rank_3():
    return GroupDescriptor([2, 4]).element_from_coords([1, 1])


def test_translate_rejects_another_groups_element():
    z8 = GroupDescriptor([8])
    a = GroupSubset.from_ranks(z8, [0])
    with pytest.raises(ValueError, match="does not belong"):
        translate(a, _foreign_rank_3())
    assert translate(a, z8.element(3)).ranks() == [3]


def test_membership_of_another_groups_element_is_false():
    z8 = GroupDescriptor([8])
    a = GroupSubset.from_ranks(z8, [3])
    assert _foreign_rank_3() not in a
    assert z8.element(3) in a and 3 in a


def test_from_elements_rejects_another_groups_element():
    z8 = GroupDescriptor([8])
    with pytest.raises(ValueError, match="does not belong"):
        GroupSubset.from_elements(z8, [z8.element(1), _foreign_rank_3()])
    assert GroupSubset.from_elements(z8, [z8.element(1)]).ranks() == [1]


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_numpy_ranks_are_read_as_ranks(dtype):
    # uint32 is the dtype groups._rank_dtype gives ranks in
    z8 = GroupDescriptor([8])
    a = GroupSubset.from_ranks(z8, [1])
    assert translate(a, dtype(3)).ranks() == [4]
    assert dtype(1) in a and dtype(2) not in a
    assert GroupSubset.from_elements(z8, [dtype(2), z8.element(5)]).ranks() \
        == [2, 5]
    h = generated_subgroup(z8, [dtype(2)])
    assert h.ranks() == [0, 2, 4, 6] and h.generators == (2,)


def test_float_ranks_raise_type_error():
    z8 = GroupDescriptor([8])
    a = GroupSubset.from_ranks(z8, [1])
    for bad in (1.5, 1.0):
        with pytest.raises(TypeError):
            translate(a, bad)
        with pytest.raises(TypeError):
            bad in a
        with pytest.raises(TypeError):
            GroupSubset.from_elements(z8, [bad])
        with pytest.raises(TypeError):
            a.contains_rank(bad)
        with pytest.raises(TypeError):
            generated_subgroup(z8, [2]).contains_rank(bad)


@pytest.mark.parametrize("rank", [-1, 8, 1 << 70, np.int64(-1)],
                         ids=["-1", "order", "huge", "int64 -1"])
def test_a_rank_out_of_range_is_no_member(rank):
    # every integer outside [0, |G|) is no member, a negative one included
    z8 = GroupDescriptor([8])
    a = GroupSubset.from_ranks(z8, [1, 7])
    h = generated_subgroup(z8, [2])
    assert rank not in a
    assert not a.contains_rank(rank)
    assert not h.contains_rank(rank)
    assert not GroupSubset(z8, z8.full_mask).contains_rank(rank)


def test_symdiff_examples():
    z22 = GroupDescriptor([2, 2])
    a = GroupSubset.from_ranks(z22, [0, 1])
    b = GroupSubset.from_ranks(z22, [2, 3])
    assert symdiff_size(a, b) == 4
    assert symdiff_size(a, a) == 0
    c = GroupSubset.from_ranks(z22, [1, 2])
    assert symdiff_size(a, c) == 2


@given(subsets(), st.data())
def test_translate_bijective_and_matches_oracle(a, data):
    x = data.draw(st.integers(0, a.group.order - 1))
    t = translate(a, x)
    assert t.size == a.size
    assert _as_set(t) == oracles.translate(
        a.group.moduli, _as_set(a), a.group.coords_of(x)
    )


@given(subsets(), st.data())
def test_symdiff_profile_matches_oracle(a, data):
    x = data.draw(st.integers(0, a.group.order - 1))
    prof = symdiff_profile(a)
    want = oracles.symdiff_size(
        _as_set(a),
        oracles.translate(a.group.moduli, _as_set(a), a.group.coords_of(x)),
    )
    assert prof[x] == want


@given(subsets())
def test_symdiff_profile_equals_translate_oracle(a):
    prof = symdiff_profile(a)
    assert prof.dtype == np.int64 and prof.shape == (a.group.order,)
    assert prof.tolist() == oracles.symdiff_profile(a)


@pytest.mark.parametrize("mods", KERNEL_SHAPES + BENCH_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_symdiff_profile_matches_oracle_on_large_shapes(mods):
    g = GroupDescriptor(mods)
    rng = random.Random(g.order)
    sparse = sum(1 << r for r in rng.sample(range(g.order), 5))
    for bits in (0, g.full_mask, 1, sparse, rng.getrandbits(g.order)):
        a = GroupSubset(g, bits)
        assert symdiff_profile(a).tolist() == oracles.symdiff_profile(a)


# 0.3 breaks the rounding check; 1.0 rounds cleanly but breaks c(0) = |A|
@pytest.mark.parametrize("offset", [0.3, 1.0])
def test_symdiff_profile_rejects_an_inexact_transform(monkeypatch, offset):
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda *args, **kw: irfftn(*args, **kw) + offset)
    a = GroupSubset.from_ranks(GroupDescriptor([3, 4]), [0, 1, 5])
    with pytest.raises(AssertionError):
        symdiff_profile(a)


def test_almost_periods_on_z2_16_matches_translates():
    g = GroupDescriptor([2] * 16)
    rng = random.Random(16)
    a = GroupSubset(g, rng.getrandbits(g.order))
    delta = Fraction(1, 2)
    start = time.perf_counter()
    ball = almost_periods(a, delta)
    elapsed = time.perf_counter() - start
    seen = set()
    for x in [0, *rng.sample(range(1, g.order), 63)]:
        dist = (a.bits ^ translate_bits(g, a.bits, x)).bit_count()
        inside = dist <= delta * g.order
        assert ball.members.contains_rank(x) == inside
        seen.add(inside)
    assert seen == {True, False}
    # the translate-per-rank profile took 8.5-10 s here
    assert elapsed < 3.0


def test_profiles_leave_no_state_behind():
    g = GroupDescriptor([4096])
    rng = random.Random(7)
    sets = [GroupSubset(g, rng.getrandbits(g.order)) for _ in range(300)]
    almost_periods(sets[0], Fraction(1, 4))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in sets:
            almost_periods(a, Fraction(1, 4))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20


def test_ball_threshold_is_exact_at_every_profile_value():
    g = GroupDescriptor([3, 8])
    a = GroupSubset.from_ranks(g, [0, 1, 4, 9, 10, 17])
    prof = symdiff_profile(a)
    for v in set(prof.tolist()) - {0}:
        at = _ball(a, prof, Fraction(v, g.order)).members
        below = _ball(a, prof, Fraction(7 * v - 1, 7 * g.order)).members
        for x in range(g.order):
            assert at.contains_rank(x) == (prof[x] <= v)
            assert below.contains_rank(x) == (prof[x] < v)


def test_ball_rejects_negative_delta_and_clips_huge_delta():
    a = GroupSubset.from_ranks(GroupDescriptor([12]), [0, 3, 4])
    prof = symdiff_profile(a)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        _ball(a, prof, Fraction(-1, 10**9))
    with pytest.raises(ValueError, match="delta must be >= 0"):
        almost_periods(a, -1)
    assert _ball(a, prof, 10**40).members.bits == a.group.full_mask


@given(subsets(), st.data())
def test_symdiff_triangle_inequality(a, data):
    g = a.group
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    prof = symdiff_profile(a)
    assert prof[add_rank(g, x, y)] <= prof[x] + prof[y]


def test_almost_periods_examples():
    z22 = GroupDescriptor([2, 2])
    h = GroupSubset.from_ranks(z22, [0, 1])
    ball = almost_periods(h, Fraction(1, 2))
    assert sorted(ball.members.ranks()) == [0, 1]
    any_a = GroupSubset.from_ranks(z22, [0, 3])
    assert almost_periods(any_a, 1).members.bits == z22.full_mask
    empty = GroupSubset.empty(z22)
    assert almost_periods(empty, Fraction(1, 7)).members.bits == z22.full_mask


@given(
    subsets(),
    st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
)
def test_almost_periods_matches_oracle_and_structure(a, delta):
    ball = almost_periods(a, delta)
    assert _as_set(ball.members) == oracles.ball(a.group.moduli, _as_set(a), delta)
    assert ball.members.contains_rank(0)
    assert ball.members.negated().bits == ball.members.bits
    bigger = almost_periods(a, delta * 2)
    assert ball.members.bits & ~bigger.members.bits == 0


def test_float_delta_means_decimal():
    # 0.1 must be read as 1/10 exactly, not as the binary float
    g = GroupDescriptor([2, 5])
    a = GroupSubset.from_ranks(g, [0, 1, 2])
    assert (
        almost_periods(a, 0.1).members.bits
        == almost_periods(a, Fraction(1, 10)).members.bits
    )


def test_sumset_examples():
    z22 = GroupDescriptor([2, 2])
    a = GroupSubset.from_ranks(z22, [0, 1])
    b = GroupSubset.from_ranks(z22, [0, 2])
    assert sumset(a, b).bits == z22.full_mask
    assert sumset(a, GroupSubset.from_ranks(z22, [0])).bits == a.bits
    z5 = GroupDescriptor([5])
    c = GroupSubset.from_ranks(z5, [1, 2])
    assert sorted(sumset(c, c).ranks()) == [2, 3, 4]


def test_difference_set_examples():
    z5 = GroupDescriptor([5])
    a = GroupSubset.from_ranks(z5, [1, 2])
    assert sorted(difference_set(a, a).ranks()) == [0, 1, 4]
    z6 = GroupDescriptor([6])
    h = GroupSubset.from_ranks(z6, [0, 3])
    assert difference_set(h, h).bits == h.bits


@given(groups(), st.data())
def test_sumset_matches_oracle(g, data):
    a = GroupSubset(g, data.draw(st.integers(0, g.full_mask)))
    b = GroupSubset(g, data.draw(st.integers(0, g.full_mask)))
    got = sumset(a, b)
    assert _as_set(got) == oracles.sumset(g.moduli, _as_set(a), _as_set(b))
    if a.size and b.size:
        assert got.size >= max(a.size, b.size)


# Z/13 and Z/3 x Z/5 have orders that are not multiples of 8, so the kernel
# unpacks a partial last byte (unpackbits with count)
PATH_SHAPES = [(1024,), (2,) * 10, (4, 12), (3,) * 5, (13,), (3, 5), (8,) * 4]


@pytest.mark.parametrize("mods", PATH_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_sumset_paths_match_the_oracle(mods, monkeypatch):
    """The kernel's support, the union of translates and the size rule's
    choice all give the oracle's A + B and A - B, on both sides of the rule's
    limit: empty, singleton, X = Y, X != Y and full sets."""
    g = GroupDescriptor(mods)
    n = g.order
    rng = random.Random(n)
    limit = math.ceil(lib._translate_limit(g.moduli))
    sizes = sorted({1, 2, min(limit - 1, n // 2), min(limit, n // 2), n // 3})

    def pick(k):
        return GroupSubset.from_ranks(g, rng.sample(range(n), k))

    full = GroupSubset.full(g)
    pairs = [(GroupSubset.empty(g), pick(3)), (pick(3), GroupSubset.empty(g)),
             (full, full), (full, pick(1)), (pick(1), pick(1))]
    for k in sizes:
        x = pick(k)
        pairs += [(x, x), (x, pick(k)), (x, pick(max(1, k // 3))), (pick(1), x)]
    for x, y in pairs:
        want_sum = oracles.translate_sumset(x, y)
        want_diff = oracles.translate_sumset(x, y.negated())
        if 0 < x.size * y.size <= 4096:
            assert _as_set(want_sum) == oracles.sumset(g.moduli, _as_set(x),
                                                       _as_set(y))
        for reflect, want in ((False, want_sum), (True, want_diff)):
            kernel = lib._support(lib._convolve(g, x.bits, y.bits,
                                                reflect=reflect))
            assert kernel == want.bits
        assert sumset(x, y) == want_sum
        assert difference_set(x, y) == want_diff
        with monkeypatch.context() as m:
            m.setattr(lib, "_translate_limit", lambda moduli: math.inf)
            assert sumset(x, y) == want_sum
            assert difference_set(x, y) == want_diff


def test_sumset_kernel_counts_are_exact():
    """Every count, not only the support: the number of pairs with x + y = z,
    and with x - y = z under reflect."""
    g = GroupDescriptor([4, 12])
    rng = random.Random(5)
    x, y = rng.getrandbits(48), rng.getrandbits(48)
    counts = lib._convolve(g, x, y)
    assert counts.dtype == np.int64
    xs = _bit_ranks(x)
    for z in range(g.order):
        assert counts[z] == sum(1 for a in xs for b in _bit_ranks(y)
                                if add_rank(g, a, b) == z)
    corr = lib._convolve(g, x, y, reflect=True)
    for z in range(g.order):
        assert corr[z] == sum(1 for a in xs for b in _bit_ranks(y)
                              if add_rank(g, z, b) == a)


# 0.3 breaks the rounding check; 1.0 rounds cleanly but breaks the total
@pytest.mark.parametrize("offset", [0.3, 1.0])
def test_sumset_kernel_rejects_an_inexact_transform(monkeypatch, offset):
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda *args, **kw: irfftn(*args, **kw) + offset)
    g = GroupDescriptor([3, 4])
    with pytest.raises(AssertionError):
        lib._convolve(g, 0b100011, 0b1010)


@given(st.integers(1, 12), st.data())
def test_butterfly_counts_match_the_transform_and_the_oracle(n, data):
    """On (Z/2)^n the integer butterflies give the rfftn path's counts and
    the translate oracle's, for X + Y and X - Y, X = Y or not."""
    g = GroupDescriptor([2] * n)
    x = data.draw(st.integers(0, g.full_mask))
    y = data.draw(st.sampled_from([x, 1, g.full_mask]) | st.integers(0, g.full_mask))
    want = oracles.convolution_counts(g.moduli, x, y)
    assert want == oracles.convolution_counts(g.moduli, x, y, reflect=True)
    got = lib._walsh_convolve(g, x, y)
    assert got.dtype == np.int64 and got.tolist() == want
    for reflect in (False, True):
        assert lib._fft_convolve(g, x, y, reflect).tolist() == want
        assert lib._convolve(g, x, y, reflect=reflect).tolist() == want


def test_butterfly_counts_on_z2_16():
    g = GroupDescriptor([2] * 16)
    rng = random.Random(216)
    x, y = rng.getrandbits(g.order), rng.getrandbits(g.order)
    for a, b in ((x, x), (x, y)):
        got = lib._walsh_convolve(g, a, b)
        assert np.array_equal(got, lib._fft_convolve(g, a, b, False))
        for z in [0, *rng.sample(range(1, g.order), 31)]:
            assert got[z] == (translate_bits(g, a, z) & b).bit_count()
    prof = symdiff_profile(GroupSubset(g, x))
    for z in rng.sample(range(g.order), 32):
        assert prof[z] == (x ^ translate_bits(g, x, z)).bit_count()


def test_convolve_takes_butterflies_on_elementary_two_groups(monkeypatch):
    """Butterflies serve every (Z/2)^n while |X| |Y| |G| < 2^63, so int64
    holds every partial sum; every other shape, and a denser pair past
    that bound under a raised order cap, keep the rfftn path."""
    monkeypatch.setattr(lib, "_walsh_convolve", lambda g, x, y: "walsh")
    monkeypatch.setattr(lib, "_fft_convolve", lambda g, x, y, reflect: "fft")
    for mods in [(2,), (2,) * 5, (4,), (2, 3), (2, 2, 4), (3, 2, 2), (1024,)]:
        g = GroupDescriptor(mods)
        want = "walsh" if set(mods) == {2} else "fft"
        assert lib._convolve(g, g.full_mask, 1) == want
        assert lib._convolve(g, 1, 1, reflect=True) == want
    g = GroupDescriptor([2] * 21, order_cap=1 << 21)
    full = g.full_mask
    assert g.order**3 == 1 << 63
    assert lib._convolve(g, full, full) == "fft"
    assert lib._convolve(g, full, full ^ 1) == "walsh"


# 1 breaks the low bits; |G| keeps them but breaks the total
@pytest.mark.parametrize("offset", ["one", "order"])
def test_sumset_kernel_rejects_an_inexact_butterfly(monkeypatch, offset):
    g = GroupDescriptor([2] * 6)
    stage = lib._butterfly_stage

    def corrupt(v, h):
        stage(v, h)
        if h == g.order // 2:  # the last stage of each transform
            v[:, 0] += 1 if offset == "one" else g.order

    monkeypatch.setattr(lib, "_butterfly_stage", corrupt)
    for x, y in ((0b100011, 0b1010), (0b100011, 0b100011)):
        with pytest.raises(AssertionError):
            lib._convolve(g, x, y)
    with pytest.raises(AssertionError):
        symdiff_profile(GroupSubset(g, 0b100011))


def test_sumset_takes_the_kernel_for_a_coset_union(count_calls):
    """Past the size rule's limit the first translates decide: a union that
    stops growing (a subgroup plus noise) goes to the kernel, one that is
    filling G keeps translating."""
    g = GroupDescriptor([1024])
    rng = random.Random(8)
    assert lib._translate_limit(g.moduli) < 128
    planted = 0
    for r in range(0, 1024, 8):
        planted |= 1 << r
    for r in rng.sample(range(1024), 10):
        planted |= 1 << r
    x = GroupSubset(g, planted)
    dense = GroupSubset.from_ranks(g, rng.sample(range(1024), 300))
    kernel = count_calls(lib._convolve)
    for a, calls in ((x, 1), (dense, 0)):
        kernel[0] = 0
        assert sumset(a, a) == oracles.translate_sumset(a, a)
        assert difference_set(a, a) == oracles.translate_sumset(a, a.negated())
        assert kernel[0] == 2 * calls


def test_sumset_keeps_the_probe_translates(count_calls):
    """A union judged to be filling G goes on from the probe's translates:
    here only the probe's two even elements of the smaller side reach the
    even coset, and the sum is not G."""
    g = GroupDescriptor([1024])
    rng = random.Random(9)
    large = GroupSubset.from_ranks(g, rng.sample(range(0, 1024, 2), 256))
    small = GroupSubset.from_ranks(g, [0, 2] + rng.sample(range(9, 1024, 2), 120))
    assert large.size > small.size >= lib._translate_limit(g.moduli)
    kernel = count_calls(lib._convolve)
    got = sumset(small, large)
    assert kernel[0] == 0 and got.bits != g.full_mask
    assert got == oracles.translate_sumset(small, large)


def test_translate_limit_grows_with_the_transform_cost():
    limit = lib._translate_limit
    # small groups always translate: a sum with a side past |G|/2 is G, so
    # the exhaustive sweeps never reach the kernel
    for g in all_abelian_groups(64):
        assert limit(g.moduli) > g.order / 2
    # the measured order (module docstring): rfftn's 1280 short lines put
    # (Z/4)^5 (crossover 82) above Z/1024 (45); butterflies on (Z/2)^n are
    # cheaper still, and their crossover grows slowly with n (32.5-42
    # through (Z/2)^10, 54 at 2^12, 68 at 2^16, 94 at 2^20)
    assert limit((1024,)) < 128
    assert limit((1024,)) < limit((4,) * 5)
    assert limit((2,) * 10) < limit((1024,))
    assert limit((2,) * 12) < limit((4096,))
    assert limit((2,) * 16) < limit((65536,))
    assert limit((2,) * 9) < limit((2,) * 12) < limit((2,) * 16) < limit((2,) * 20)


def test_iterated_doubling_examples():
    z6 = GroupDescriptor([6])
    h = GroupSubset.from_ranks(z6, [0, 3])
    tr = iterated_doubling(h, 1)
    assert tr.ell == 1 and tr.double_set.bits == h.bits
    assert tr.sizes == (2, 2)
    # over an exponent-2 group {0, e} is itself closed under doubling
    z2222 = GroupDescriptor([2, 2, 2, 2])
    b = GroupSubset.from_ranks(z2222, [0, 1])
    tr = iterated_doubling(b, 1)
    assert tr.ell == 1 and tr.sizes == (2, 2)
    # the cyclic analogue genuinely grows: {0,1}+{0,1} = {0,1,2}
    z16 = GroupDescriptor([16])
    b = GroupSubset.from_ranks(z16, [0, 1])
    tr = iterated_doubling(b, 1)
    assert tr.ell == 1 and tr.sizes == (2, 3)
    full = GroupSubset.full(z16)
    tr = iterated_doubling(full, 1)
    assert tr.ell == 1


def test_iterated_doubling_growth_run():
    # at K = 2, {0, e_1, ..., e_8} in (Z/2)^8 keeps doubling until it fills
    # the group: 2^j B is the set of vectors of weight at most 2^j
    g = GroupDescriptor([2] * 8)
    b = GroupSubset.from_ranks(g, [0] + [1 << i for i in range(8)])
    tr = iterated_doubling(b, 1)
    assert tr.k_value == 2.0
    assert tr.sizes == (9, 37, 163, 256)
    for j, size in enumerate(tr.sizes):
        assert size == sum(math.comb(8, w) for w in range(min(2**j, 8) + 1))
    assert tr.ell == 4 and tr.ell_set.size == 163
    assert tr.double_set.bits == g.full_mask
    assert tr.double_set.size <= tr.k_value * tr.ell_set.size


@given(nonempty_subsets())
def test_iterated_doubling_stop_rule(a):
    tr = iterated_doubling(a, 1)
    assert tr.double_set.size <= tr.k_value * tr.ell_set.size
    assert sumset(tr.ell_set, tr.ell_set).bits == tr.double_set.bits
    assert tr.ell & (tr.ell - 1) == 0


def test_doubling_k_keeps_the_float_bytes_and_reads_tiny_deltas():
    # the K of every delta whose reciprocal is a finite float is the float
    # expression's, to the last bit
    for delta in (Fraction(1, 8), Fraction(3, 16), Fraction(1, 10**300)):
        want = max(math.exp(math.log(float(1 / delta)) ** 0.2), 2.0)
        assert lib._doubling_k(delta) == want
    assert lib._doubling_k(Fraction(1, 8)) == 3.1825481031137355
    assert lib._doubling_k(Fraction(3, 16)) == 3.0299198576304684
    # past the floats ln(1/delta) comes from the exact integer logs
    tiny = Fraction(1, 10**400)
    assert lib._doubling_k(tiny) == math.exp(math.log(10**400) ** 0.2)
    assert lib._doubling_k(Fraction(3, 7 * 10**400)) > 50
    b = GroupSubset.from_ranks(GroupDescriptor([16]), [0, 1])
    assert iterated_doubling(b, tiny).k_value == lib._doubling_k(tiny)


def test_doubling_k_from_delta():
    # K(delta) = exp(ln(1/delta)^(1/5)), and 2 when delta <= 0 or 1/delta <= 1
    b = GroupSubset.from_ranks(GroupDescriptor([4]), [0])
    for delta, want in [(Fraction(1, 1000), math.exp(math.log(1000) ** 0.2)),
                        (Fraction(1, 2), math.exp(math.log(2) ** 0.2)),
                        (Fraction(1), 2.0), (Fraction(0), 2.0)]:
        assert iterated_doubling(b, delta).k_value == want
    assert iterated_doubling(b, Fraction(1, 2)).k_value > 2.0
    with pytest.raises(ValueError):
        iterated_doubling(GroupSubset.empty(GroupDescriptor([4])), 1)


def test_max_subgroup_within_examples():
    z4 = GroupDescriptor([4])
    t = GroupSubset.from_ranks(z4, [0, 3])
    assert t.size == 2 and max_subgroup_within(t).ranks() == [0]
    t = GroupSubset.from_ranks(z4, [0, 2, 3])
    assert sorted(max_subgroup_within(t).ranks()) == [0, 2]
    z12 = GroupDescriptor([12])
    h = generated_subgroup(z12, [4])
    got = max_subgroup_within(GroupSubset(z12, h.bits))
    assert got.bits == h.bits
    with pytest.raises(ValueError):
        max_subgroup_within(GroupSubset.from_ranks(z4, [1, 2]))


@given(nonempty_subsets())
def test_max_subgroup_within_properties(a):
    t = GroupSubset(a.group, a.bits | 1)
    h = max_subgroup_within(t)
    assert h.verify()
    assert h.bits & ~t.bits == 0
    inside = [o for o in enumerate_subgroups(a.group) if o.bits & ~t.bits == 0]
    largest = max(o.size for o in inside)
    # the tie rule: the least bitset among the largest subgroups inside t
    assert h.size == largest
    assert h.bits == min(o.bits for o in inside if o.size == largest)


def _sets_for_the_walk(g: GroupDescriptor) -> list[int]:
    """Random sets at densities 1/2 and 7/8, subgroups, subgroups with 8
    ranks flipped, and unions of two cosets, each with 0 added."""
    rng = random.Random(g.order)
    out = [rng.getrandbits(g.order),
           rng.getrandbits(g.order) | rng.getrandbits(g.order)
           | rng.getrandbits(g.order)]
    for _ in range(3):
        gens = []
        for _ in range(rng.randint(1, len(g.moduli) + 2)):
            k = rng.choice((1, 2, 3, 4))
            coords = g.coords_of(rng.randrange(g.order))
            gens.append(g.element_from_coords([k * c for c in coords]))
        h = generated_subgroup(g, gens).bits
        noisy = h
        for r in rng.sample(range(1, g.order), 8):
            noisy ^= 1 << r
        out += [h, noisy, h | translate_bits(g, h, rng.randrange(g.order))]
    return [t | 1 for t in out]


@pytest.mark.parametrize("mods", KERNEL_SHAPES + BENCH_SHAPES,
                         ids=lambda mods: "x".join(map(str, mods)))
def test_max_subgroup_within_past_the_cap_matches_the_scan(mods):
    # past subgroup_exhaustive_cap the answer is the least-rank closure walk
    # kept inside t; the rank-by-rank scan it replaced keeps the same
    # subgroup and the same generators
    g = GroupDescriptor(mods)
    caps = Caps(subgroup_exhaustive_cap=1)
    for t in _sets_for_the_walk(g):
        h = max_subgroup_within(GroupSubset(g, t), caps=caps)
        bits, gens = oracles.greedy_subgroup_within(g, t)
        assert h.bits == bits
        assert list(h.generators) == gens


@pytest.mark.parametrize("mods,gens,calls", [
    ((65536,), [8], 1),
    ((2,) * 16, [1 << i for i in range(3, 16)], 13),
])
def test_max_subgroup_within_a_subgroup_closes_once_per_generator(
        count_calls, mods, gens, calls):
    # when t is a subgroup past the cap the walk returns t, and every rank
    # it tries is kept: one closure per generator, none per rejected rank
    g = GroupDescriptor(mods)
    h = generated_subgroup(g, gens)
    closures = count_calls(_closure_with)
    got = max_subgroup_within(GroupSubset(g, h.bits))
    assert got.bits == h.bits
    assert closures[0] == len(got.generators) == calls


def test_max_subgroup_within_rejects_a_whole_coset_at_once(count_calls):
    # t = H u (H + 1) in Z/65536 with H = <8>: rank 1 is rejected (its
    # closure is G) while acc = {0}, 8 closes to H, and 9 is rejected with
    # its whole coset H + 1: 3 closures, where one per rejected rank would
    # make 8193; the oracle scan keeps the same bits and generators
    g = GroupDescriptor([65536])
    h = generated_subgroup(g, [8]).bits
    t = h | translate_bits(g, h, 1)
    closures = count_calls(_closure_with)
    got = max_subgroup_within(GroupSubset(g, t))
    assert closures[0] == 3
    assert (got.bits, list(got.generators)) == (h, [8])
    assert (got.bits, [8]) == oracles.greedy_subgroup_within(g, t)


def test_kneser_examples():
    z5 = GroupDescriptor([5])
    a = GroupSubset.from_ranks(z5, [0, 1])
    rep = kneser_fill_check(a, 3)
    assert rep.generates and rep.size_ok and rep.applies and rep.fills
    z4 = GroupDescriptor([4])
    h = GroupSubset.from_ranks(z4, [0, 2])
    rep = kneser_fill_check(h, 2)
    assert not rep.generates and not rep.applies
    g = GroupSubset.full(z4)
    rep = kneser_fill_check(g, 1)
    assert rep.applies and rep.fills
    with pytest.raises(ValueError):
        kneser_fill_check(a, 0)


def test_kneser_needs_zero_in_the_set():
    # {1} generates Z_2 and meets the size bound at t=2, yet 4A = {0}; the
    # fill guarantee genuinely requires 0 in A, so applies must be False
    z2 = GroupDescriptor([2])
    rep = kneser_fill_check(GroupSubset.from_ranks(z2, [1]), 2)
    assert rep.generates and rep.size_ok and not rep.contains_zero
    assert not rep.applies and not rep.fills and rep.sumset_size == 1
    # same trap one level up: {1,3} in Z_4 has 4A = {0,2}
    z4 = GroupDescriptor([4])
    rep = kneser_fill_check(GroupSubset.from_ranks(z4, [1, 3]), 2)
    assert rep.generates and rep.size_ok and not rep.applies
    assert not rep.fills and rep.sumset_size == 2


@given(nonempty_subsets())
def test_kneser_generates_flag_matches_generated_subgroup(a):
    g = a.group
    want = generated_subgroup(g, a.ranks()).bits == g.full_mask
    assert kneser_fill_check(a, 1).generates == want


@given(nonempty_subsets(), st.integers(1, 4))
def test_kneser_corollary_on_random_sets(a, t):
    rep = kneser_fill_check(a, t)
    if rep.applies:
        assert rep.fills


@given(subsets(), st.integers(1, 6))
def test_kneser_matches_oracle(a, t):
    assert kneser_fill_check(a, t) == oracles.kneser_fill_check(a, t)


def test_kneser_stops_once_the_sumset_stops_growing():
    # 2t - 1 = 2 * 10**9 - 1 sumsets would take hours; each run below stops
    # at its first sumset that does not grow
    z2, z13 = GroupDescriptor([2]), GroupDescriptor([13])
    cases = [(GroupSubset.from_ranks(z2, [1]), 1, False),
             (GroupSubset.from_ranks(z13, [0, 1]), 13, True),
             (GroupSubset.from_ranks(z13, [1]), 1, False)]
    for a, size, fills in cases:
        start = time.perf_counter()
        rep = kneser_fill_check(a, 10**9)
        assert time.perf_counter() - start < 1
        assert (rep.sumset_size, rep.fills) == (size, fills)


def _planted(mods, gen_ranks, noise, seed):
    """Union of random cosets of span(gen_ranks), with a few flipped bits."""
    g = GroupDescriptor(mods)
    h = generated_subgroup(g, gen_ranks)
    rng = random.Random(seed)
    picked = [c for c in cosets(g, h) if rng.random() < 0.5]
    bits = 0
    for c in picked or [h.bits]:
        bits |= c
    for _ in range(noise):
        bits ^= 1 << rng.randrange(g.order)
    return GroupSubset(g, bits)


def test_doubled_ball_spread_moves_base_set_little():
    # every x in 2lB - 2lB satisfies |A xor (A+x)| <= 4*l*delta*|G|
    cases = [
        ((2, 2, 2, 2), [1, 2], 1, 11),
        ((3, 3, 3), [1, 3], 1, 12),
        ((2,) * 6, [1, 2, 4], 2, 13),
        ((2,) * 10, [1, 2, 4, 8, 16], 3, 14),
    ]
    for mods, gen_ranks, noise, seed in cases:
        a = _planted(mods, gen_ranks, noise, seed)
        order = a.group.order
        prof = symdiff_profile(a)
        for delta in (Fraction(1, 8), Fraction(1, 4)):
            ball = almost_periods(a, delta)
            tr = iterated_doubling(ball.members, delta)
            spread = difference_set(tr.double_set, tr.double_set)
            limit = 4 * tr.ell * delta * order
            assert ball.members.size > 1
            for x in spread.ranks():
                assert prof[x] <= limit
