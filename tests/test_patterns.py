import dataclasses
import math
import random
import sys
import threading
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    BiInducedWitness,
    BipartitePattern,
    GroupDescriptor,
    GroupSubset,
    ap_half_graph_witness,
    ap_search,
    augment_f_plus,
    check_witness,
    coset_goodness,
    coset_round,
    densify,
    distance_to_free,
    enumerate_subgroups,
    exhaustive_density,
    find_bi_induced,
    find_shattered_set,
    generated_subgroup,
    half_graph,
    sample_tester,
    set_vc_dimension,
    witness_from_shattering,
)
from addcomb import patterns
from addcomb.caps import Caps, CapExceeded
from addcomb.groups import (_add_ranks, _rank_dtype, add_rank, neg_rank,
                            translate_bits)
from addcomb.stats import wilson_interval
from conftest import MODULI_POOL, subsets

TINY_POOL = tuple(m for m in MODULI_POOL if math.prod(m) <= 8)

PATH = BipartitePattern(2, 1, frozenset({(0, 0), (1, 0)}))
K22 = BipartitePattern(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
EDGELESS = BipartitePattern(1, 1, frozenset())


def _oracle_args(a):
    mods = a.group.moduli
    return mods, {a.group.coords_of(r) for r in a.ranks()}


def _three_coset_union():
    # union of three cosets of an index-4 subgroup of Z2^4
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    bits = h.bits | translate_bits(g, h.bits, 4) | translate_bits(g, h.bits, 8)
    assert bits == 0xFFF
    return GroupSubset(g, bits), h


def test_pattern_validation():
    with pytest.raises(ValueError):
        BipartitePattern(0, 1, frozenset())
    with pytest.raises(ValueError):
        BipartitePattern(1, 0, frozenset())
    with pytest.raises(ValueError):
        BipartitePattern(1, 1, frozenset({(0, 1)}))
    with pytest.raises(ValueError):
        half_graph(0)


def test_half_graph_examples():
    f1 = half_graph(1)
    assert (f1.u_count, f1.v_count) == (1, 1)
    assert f1.edges == frozenset({(0, 0)})
    f2 = half_graph(2)
    assert f2.edges == frozenset({(0, 0), (0, 1), (1, 1)})
    assert f2.u_neighborhood(0) == frozenset({0, 1})
    assert f2.u_neighborhood(1) == frozenset({1})
    assert len(half_graph(3).edges) == 6
    # half graphs have pairwise distinct rows; path and K22 do not
    assert not f2.has_duplicate_u_neighborhoods
    assert PATH.has_duplicate_u_neighborhoods
    assert K22.has_duplicate_u_neighborhoods


def test_augment_examples():
    # one u-vertex: nothing to distinguish
    assert augment_f_plus(half_graph(1)) == half_graph(1)
    p = augment_f_plus(PATH)
    assert (p.u_count, p.v_count) == (2, 2)
    assert p.edges == PATH.edges | {(1, 1)}
    k = augment_f_plus(K22)
    assert (k.u_count, k.v_count) == (2, 3)
    assert k.edges == K22.edges | {(1, 2)}
    # applied even when rows are already distinct
    h2 = augment_f_plus(half_graph(2))
    assert h2.v_count == 3 and (1, 2) in h2.edges
    for f in (PATH, K22, half_graph(2), half_graph(3)):
        assert not augment_f_plus(f).has_duplicate_u_neighborhoods
    # v-vertex counts after augmentation drive witness_from_shattering
    assert augment_f_plus(half_graph(1)).v_count == 1
    assert augment_f_plus(half_graph(2)).v_count == 3
    assert augment_f_plus(PATH).v_count == 2
    assert augment_f_plus(K22).v_count == 3


def test_check_witness_examples():
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    f = half_graph(1)
    w_good = BiInducedWitness(f, z4, (0,), (1,))
    w_bad = BiInducedWitness(f, z4, (0,), (2,))
    assert check_witness(a, f, w_good)
    assert not check_witness(a, f, w_bad)
    with pytest.raises(ValueError):
        check_witness(a, f, w_good, injectivity="sideways")
    with pytest.raises(ValueError):
        BiInducedWitness(f, z4, (), (1,))


def _z8_witness_on_z4():
    # A = {3} in Z/4 and a Z/8 witness whose rank 7 reads as 3 in Z/4
    z4, z8 = GroupDescriptor([4]), GroupDescriptor([8])
    a = GroupSubset.from_ranks(z4, [3])
    w = BiInducedWitness(half_graph(1), z8, (7,), (0,))
    return a, w


def test_check_witness_rejects_a_witness_of_another_group():
    a, w = _z8_witness_on_z4()
    with pytest.raises(ValueError, match="group"):
        check_witness(a, half_graph(1), w)


def test_check_witness_rejects_a_witness_of_another_vertex_count():
    # half_graph(2) needs images for two vertices per side; this one has one
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    w = BiInducedWitness(half_graph(1), z4, (0,), (1,))
    with pytest.raises(ValueError, match="vertex counts"):
        check_witness(a, half_graph(2), w)
    with pytest.raises(ValueError, match="vertex counts"):
        densify(a, generated_subgroup(z4, []), half_graph(2), w, 10,
                rng_seed=0)


def test_a_witness_is_its_group_and_its_ranks():
    z4 = GroupDescriptor([4])
    f = half_graph(1)
    w = BiInducedWitness(f, z4, [np.int64(3)], (np.uint8(1),))
    assert (w.group, w.phi_u, w.phi_v) == (z4, (3,), (1,))
    assert all(type(r) is int for r in w.phi_u + w.phi_v)
    assert w == BiInducedWitness(f, z4, (3,), (1,))
    with pytest.raises(TypeError):
        BiInducedWitness(f, z4, (1.5,), (0,))
    with pytest.raises(TypeError):
        BiInducedWitness(f, z4, (0,), ("1",))
    for bad in (-1, z4.order, np.int64(-1)):
        with pytest.raises(ValueError, match=f"rank {bad} out of range"):
            BiInducedWitness(f, z4, (0,), (bad,))
    with pytest.raises(ValueError, match="phi_v length mismatch"):
        BiInducedWitness(f, z4, (0,), (0, 1))


@pytest.mark.parametrize("u_ranks,v_ranks", [
    ((0, 1), (2, 3)), ((0, 0), (2, 3)), ((0, 1), (3, 3)), ((1, 1), (2, 2)),
])
def test_witness_injectivity_flags_follow_the_ranks(u_ranks, v_ranks):
    w = BiInducedWitness(K22, GroupDescriptor([2, 2]), u_ranks, v_ranks)
    assert w.injective_u == (u_ranks[0] != u_ranks[1])
    assert w.injective_v == (v_ranks[0] != v_ranks[1])
    # read-only properties, not fields a caller could set wrong
    assert [f.name for f in dataclasses.fields(w)] == ["pattern", "group",
                                                        "phi_u", "phi_v"]
    with pytest.raises(AttributeError):
        w.injective_u = True


def test_check_witness_injectivity_modes():
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    # both path u's on the same element: fine without injectivity, not per side
    w = BiInducedWitness(PATH, z4, (0, 0), (1,))
    assert check_witness(a, PATH, w)
    assert not check_witness(a, PATH, w, injectivity="per_side")
    # per-side injective but u-image equals v-image: global rejects it
    a2 = GroupSubset.from_ranks(z4, [2])
    f = half_graph(1)
    w2 = BiInducedWitness(f, z4, (1,), (1,))
    assert check_witness(a2, f, w2, injectivity="per_side")
    assert not check_witness(a2, f, w2, injectivity="global")


def test_find_bi_induced_examples():
    z4 = GroupDescriptor([4])
    assert find_bi_induced(GroupSubset.empty(z4), half_graph(1)) is None
    w = find_bi_induced(GroupSubset.from_ranks(z4, [0]), half_graph(1))
    assert w is not None
    assert (w.phi_u[0] + w.phi_v[0]) % 4 == 0
    # a full set cannot realise the non-edge of a half graph
    assert find_bi_induced(GroupSubset.full(z4), half_graph(2)) is None
    assert find_bi_induced(GroupSubset.full(z4), EDGELESS) is None
    assert find_bi_induced(GroupSubset.empty(z4), EDGELESS) is not None

    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    w2 = find_bi_induced(interval, half_graph(2))
    assert w2 is not None
    assert w2.phi_u == (1, 0)
    assert w2.phi_v == (0, 1)
    assert check_witness(interval, half_graph(2), w2, injectivity="per_side")


def test_two_coset_union_has_no_half_graph_2():
    # in exponent 2, u2+v1 = (u1+v1)+(u1+v2)+(u2+v2); three elements of a
    # 2-coset union land back inside it, so the non-edge is unrealisable
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    u2 = GroupSubset(g, h.bits | translate_bits(g, h.bits, 4))
    assert find_bi_induced(u2, half_graph(2)) is None
    assert find_bi_induced(GroupSubset(g, h.bits), half_graph(2)) is None
    u3, _ = _three_coset_union()
    assert find_bi_induced(u3, half_graph(2)) is not None


def _visit_budget_cases():
    z16 = GroupDescriptor([2, 2, 2, 2])
    h16 = generated_subgroup(z16, [1, 2])
    u2 = GroupSubset(z16, h16.bits | translate_bits(z16, h16.bits, 4))
    interval = GroupSubset.from_ranks(GroupDescriptor([13]), range(1, 7))
    # two cosets of the index-8 subgroup of Z/64 hold no half graph of size
    # 3, so this search is exhaustive
    z64 = GroupDescriptor([64])
    h64 = generated_subgroup(z64, [8])
    planted = GroupSubset(z64, h64.bits | translate_bits(z64, h64.bits, 1))
    # (name, set, pattern, injective, visits of the anchored sweep, visits
    # of the unanchored oracle sweep); an exhaustive search visits
    # 1 + (old - |G|)/|G| nodes once anchored
    return [
        ("two_cosets_z2^4_injective", u2, half_graph(2), True, 16, 256),
        ("two_cosets_z2^4_any", u2, half_graph(2), False, 17, 272),
        ("interval_z13", interval, half_graph(2), True, 2, 2),
        ("planted_z64", planted, half_graph(3), True, 1056, 67584),
    ]


def _assert_exact_budget(search, a, f, injective, visits):
    # one visit per y tried for a V-vertex, after the injective skip: the
    # search finishes with exactly `visits` allowed and raises with one less
    want = search(a, f, require_injective=injective)
    got = search(a, f, require_injective=injective,
                 caps=Caps(pattern_visit_cap=visits))
    assert got == want
    with pytest.raises(CapExceeded):
        search(a, f, require_injective=injective,
               caps=Caps(pattern_visit_cap=visits - 1))


@pytest.mark.parametrize("name,a,f,injective,visits,oracle_visits",
                         _visit_budget_cases(),
                         ids=[c[0] for c in _visit_budget_cases()])
def test_find_bi_induced_visit_budget_is_exact(name, a, f, injective, visits,
                                               oracle_visits):
    _assert_exact_budget(find_bi_induced, a, f, injective, visits)


@pytest.mark.parametrize("name,a,f,injective,visits,oracle_visits",
                         _visit_budget_cases(),
                         ids=[c[0] for c in _visit_budget_cases()])
def test_oracle_sweep_visit_budget_is_unchanged(name, a, f, injective, visits,
                                                oracle_visits):
    # the unanchored sweep still needs the counts the library needed before
    # the anchor
    _assert_exact_budget(oracles.find_bi_induced, a, f, injective,
                         oracle_visits)
    assert find_bi_induced(a, f, injective) == oracles.find_bi_induced(
        a, f, injective)


@given(subsets(pool=TINY_POOL), st.sampled_from([half_graph(1), half_graph(2), PATH, EDGELESS]))
def test_find_bi_induced_matches_enumeration(a, f):
    w = find_bi_induced(a, f)
    mods, aset = _oracle_args(a)
    expect = oracles.bi_induced_exists(mods, aset, f.u_count, f.v_count, f.edges)
    assert (w is not None) == expect
    if w is not None:
        assert check_witness(a, f, w, injectivity="per_side")


# ------------------------------------------- rewritten layer against oracles

ORACLE_PATTERNS = [half_graph(1), half_graph(2), half_graph(3), PATH, EDGELESS]
# every group of order <= 8; Z/6 as well as Z/2 x Z/3, whose ranks differ
ORDER_8_GROUPS = sorted(set(TINY_POOL) | {(6,)},
                        key=lambda m: (math.prod(m), m))


def _same_or_both_raise(lib, oracle):
    try:
        want = oracle()
    except CapExceeded:
        with pytest.raises(CapExceeded):
            lib()
        return
    assert lib() == want


def _assert_layer_matches_oracles(a, f):
    for injective in (True, False):
        assert find_bi_induced(a, f, injective) == oracles.find_bi_induced(
            a, f, injective)
    _same_or_both_raise(lambda: exhaustive_density(a, f),
                        lambda: oracles.exhaustive_density(a, f))


@pytest.mark.parametrize("mods", ORDER_8_GROUPS, ids=str)
def test_patterns_layer_matches_oracles_on_every_subset(mods):
    g = GroupDescriptor(mods)
    for bits in range(1 << g.order):
        a = GroupSubset(g, bits)
        for f in ORACLE_PATTERNS:
            _assert_layer_matches_oracles(a, f)
            assert distance_to_free(a, f) == oracles.distance_to_free(a, f)
        # K22's two U-vertices share a neighborhood, so a copy needs two
        # distinct candidates in one mask
        assert distance_to_free(a, K22) == oracles.distance_to_free(a, K22)


@given(subsets(), st.sampled_from(ORACLE_PATTERNS))
def test_patterns_layer_matches_oracles(a, f):
    _assert_layer_matches_oracles(a, f)


@given(subsets(), st.sampled_from(ORACLE_PATTERNS), st.data())
def test_check_witness_matches_oracle(a, f, data):
    g = a.group
    u_ranks, v_ranks = (
        data.draw(st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k))
        for k in (f.u_count, f.v_count))
    w = BiInducedWitness(f, g, u_ranks, v_ranks)
    assert check_witness(a, f, w) == oracles.bi_induces(a, f, u_ranks, v_ranks)
    found = find_bi_induced(a, f, require_injective=False)
    if found is not None:
        assert check_witness(a, f, found)
        assert oracles.bi_induces(a, f, found.phi_u, found.phi_v)


@given(subsets(), st.sampled_from(ORACLE_PATTERNS), st.data())
def test_densify_at_the_trivial_subgroup_checks_the_witness(a, f, data):
    # at H = {0} a pair coset is its sum alone, of density 0 or 1, so it is
    # always good, and the rounded set is A: densify's precondition is
    # check_witness
    g = a.group
    u_ranks, v_ranks = (
        data.draw(st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k))
        for k in (f.u_count, f.v_count))
    w = BiInducedWitness(f, g, u_ranks, v_ranks)
    seed = data.draw(st.integers(0, 2**32 - 1))
    h = generated_subgroup(g, [])
    if check_witness(a, f, w):
        densify(a, h, f, w, 1, seed)
    else:
        with pytest.raises(ValueError, match="rounded"):
            densify(a, h, f, w, 1, seed)


# distance to free of half_graph(1) and EDGELESS at order 16 takes the
# per-flip-set oracle seconds; both are swept exhaustively at order <= 8
@given(subsets(), st.sampled_from([half_graph(2), half_graph(3), PATH]))
def test_distance_matches_oracle(a, f):
    assert distance_to_free(a, f) == oracles.distance_to_free(a, f)


def test_column_table_bound_keeps_answers(monkeypatch):
    # a table with room for two columns computes the rest without keeping
    # them, and every answer stays the same
    g = GroupDescriptor([4, 4])
    a = GroupSubset(g, random.Random(8).getrandbits(g.order))
    monkeypatch.setattr(patterns, "_COLUMN_TABLE_BITS", 2 * g.order)
    cols = patterns._Columns(a)
    for y in range(g.order):
        assert cols[y] == translate_bits(g, a.bits, neg_rank(g, y))
    assert sorted(cols) == [0, 1]
    for f in ORACLE_PATTERNS:
        _assert_layer_matches_oracles(a, f)


def _traced_peak(g, call):
    translate_bits(g, g.full_mask, 1)  # the group's shift tables, untraced
    np.random.MT19937()  # its first use imports modules, untraced
    tracemalloc.start()
    try:
        got = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak


def test_sweep_column_table_memory_is_bounded():
    # the even ranks of (Z/2)^14 are an index-2 subgroup, which holds no
    # half_graph(2): the sweep reads all 2^14 columns of 2 KiB, 32 MiB if
    # all were kept and 16 MiB with the table's bound
    g = GroupDescriptor([2] * 14)
    a = GroupSubset(g, generated_subgroup(g, [1 << i for i in range(1, 14)]).bits)
    w, peak = _traced_peak(g, lambda: find_bi_induced(a, half_graph(2)))
    assert w is None
    assert peak < 24 * 2**20


def test_sample_tester_memory_is_bounded(count_calls):
    # 2000 samples of half_graph(2) on (Z/2)^18: the numpy predicate reads
    # membership from A unpacked to one byte per element and its complement
    # (2 x 256 KiB), never from a |G|^2 sum table or from a translate; the
    # pair sums are digit sums, one _add_ranks call per pair
    g = GroupDescriptor([2] * 18)
    a = GroupSubset(g, random.Random(3).getrandbits(g.order))
    sums = count_calls(_add_ranks)
    rep, peak = _traced_peak(g, lambda: sample_tester(a, half_graph(2), 2000,
                                                      rng_seed=1))
    assert rep.samples == 2000
    assert sums[0] == 4
    assert peak < 2**20


def test_sample_tester_memory_is_bounded_in_the_sample_count(count_calls):
    # 100000 samples tested in one pass would hold their draws, bulk words
    # and pair sums at once, tens of MB; chunks of _CHUNK samples hold one,
    # and each of the 25 chunks sums its 4 pairs by digits
    g = GroupDescriptor([2] * 18)
    a = GroupSubset(g, random.Random(3).getrandbits(g.order))
    sums = count_calls(_add_ranks)
    rep, peak = _traced_peak(g, lambda: sample_tester(a, half_graph(2), 100000,
                                                      rng_seed=1))
    assert rep.samples == 100000
    assert sums[0] == 4 * -(-100000 // patterns._CHUNK)
    assert peak < 2 * 2**20


def _module_state():
    return {k: len(v) if isinstance(v, (dict, list, set)) else id(v)
            for k, v in vars(patterns).items()}


def test_distance_leaves_no_module_state():
    before = _module_state()
    g = GroupDescriptor([2, 2, 2, 2])
    for bits in (0xF0FF, 0xFFF0, 0x1234):
        distance_to_free(GroupSubset(g, bits), half_graph(2))
    assert _module_state() == before


def test_witness_from_shattering_examples():
    z22 = GroupDescriptor([2, 2])
    assert witness_from_shattering(GroupSubset.empty(z22), half_graph(1)) is None
    single = GroupSubset.from_ranks(z22, [0])
    assert set_vc_dimension(single) == 1
    assert witness_from_shattering(single, half_graph(1)) is not None
    assert witness_from_shattering(single, PATH) is None

    import random

    g = GroupDescriptor([2] * 8)
    rng = random.Random(2024)
    a = GroupSubset(g, rng.getrandbits(256) & g.full_mask)
    assert set_vc_dimension(a, max_d=2) > 2
    for f in (PATH, half_graph(2)):
        w = witness_from_shattering(a, f)
        assert w is not None
        assert w.injective_u and w.injective_v
        assert check_witness(a, f, w, injectivity="per_side")


@given(subsets(), st.sampled_from([half_graph(1), half_graph(2), PATH, K22]))
def test_witness_from_shattering_matches_oracle(a, f):
    assert witness_from_shattering(a, f) == oracles.witness_from_shattering(
        a, f)


def test_witness_from_shattering_translates_only_in_the_search(
        count_calls):
    # the translators come from the search's own trace table, so building
    # the witness translates nothing beyond finding the shattered set
    g = GroupDescriptor([64])
    a = GroupSubset(g, random.Random(4).getrandbits(g.order))
    f = half_graph(2)
    calls = count_calls(translate_bits)
    assert find_shattered_set(a, augment_f_plus(f).v_count) is not None
    search = calls[0]
    calls[0] = 0
    assert witness_from_shattering(a, f) is not None
    assert calls[0] == search > g.order


@given(subsets(pool=TINY_POOL), st.sampled_from([half_graph(1), half_graph(2), PATH]))
def test_witness_from_shattering_iff_dimension_reaches(a, f):
    need = augment_f_plus(f).v_count
    w = witness_from_shattering(a, f)
    assert (w is not None) == (set_vc_dimension(a) >= need)
    if w is not None:
        assert check_witness(a, f, w, injectivity="per_side")


def test_sample_tester_examples():
    z4 = GroupDescriptor([4])
    empty = GroupSubset.empty(z4)
    r = sample_tester(empty, EDGELESS, 100, rng_seed=0)
    assert r.bi_fraction == 1.0 and r.injective_fraction == 1.0
    assert r.decision == "YES"
    r2 = sample_tester(empty, half_graph(1), 100, rng_seed=0)
    assert r2.bi_fraction == 0.0 and r2.decision == "NO"

    u3, _ = _three_coset_union()
    rep = sample_tester(u3, half_graph(2), 4000, rng_seed=3)
    assert rep.samples == 4000
    assert rep.bi_inducing == 373
    assert rep.injective_bi_inducing == 373
    assert rep.decision == "YES"
    exact = exhaustive_density(u3, half_graph(2))
    assert exact == Fraction(3, 32)
    lo, hi = wilson_interval(rep.bi_inducing, rep.samples, z=3.0)
    assert lo <= float(exact) <= hi
    # same seed, same numbers
    assert sample_tester(u3, half_graph(2), 4000, rng_seed=3) == rep


def test_sample_tester_never_yes_on_free_sets():
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    free = [
        GroupSubset.empty(g),
        GroupSubset(g, h.bits),
        GroupSubset(g, h.bits | translate_bits(g, h.bits, 4)),
    ]
    for a in free:
        assert find_bi_induced(a, half_graph(2)) is None
        rep = sample_tester(a, half_graph(2), 2000, rng_seed=11)
        assert rep.injective_bi_inducing == 0
        assert rep.decision == "NO"


@given(subsets(pool=TINY_POOL), st.sampled_from([half_graph(1), PATH]))
def test_sample_tester_decision_tracks_injective_hits(a, f):
    rep = sample_tester(a, f, 200, rng_seed=7)
    assert (rep.decision == "YES") == (rep.injective_bi_inducing > 0)
    assert 0.0 <= rep.wilson_low <= rep.bi_fraction <= rep.wilson_high <= 1.0
    assert rep.injective_bi_inducing <= rep.bi_inducing


# ------------------------------------------ sampled checks against oracles

CHUNK = patterns._CHUNK
SAMPLE_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 63, 64, 65, 1023, 1024, 2**20])
def test_bulk_draws_replay_randrange(n, width):
    # the bulk words replay rng.randrange(n) call for call, across chunk
    # boundaries, on every interpreter the package supports
    samples = 3 * CHUNK + 5
    chunks = list(patterns._draw_chunks(random.Random(n), n, samples, width))
    assert [c.shape for c in chunks] == [(CHUNK, width)] * 3 + [(5, width)]
    assert all(c.dtype == np.uint32 for c in chunks)
    rng = random.Random(n)
    want = [rng.randrange(n) for _ in range(samples * width)]
    assert np.concatenate(chunks).ravel().tolist() == want


@pytest.mark.parametrize("n", [2**31, 2**31 + 1, 2**32 - 1])
def test_bulk_draws_match_the_oracle_drawer_at_the_word_edges(n):
    # k = 32 at all three orders, so each word is a value and no bits are
    # shifted out; a multi-word seed, and 2500 draws of up to two words each
    # (n / 2**32 is 1/2 at n = 2**31), cross several 624-word refills
    samples, width = 500, 5
    rng = random.Random(2**70 + 5)
    before = rng.getstate()
    chunks = list(patterns._draw_chunks(rng, n, samples, width))
    assert rng.getstate() == before
    assert [c.shape for c in chunks] == [(samples, width)]
    want = list(oracles.draw_chunks(random.Random(2**70 + 5), n, samples,
                                    width))
    assert np.array_equal(chunks[0], want[0])
    rng = random.Random(2**70 + 5)
    assert chunks[0].ravel().tolist() == [rng.randrange(n)
                                          for _ in range(samples * width)]


@pytest.mark.parametrize("n", [13, 48, 2**20])
def test_bulk_draws_continue_a_used_generator(n):
    # the state is copied mid-stream, at a word position other than the
    # fresh 624, and the generator stays where it was
    rng = random.Random(12345)
    for _ in range(700):
        rng.randrange(n)
    before = rng.getstate()
    samples = 2 * CHUNK + 3
    got = np.concatenate(list(patterns._draw_chunks(rng, n, samples, 3)))
    assert rng.getstate() == before
    assert np.array_equal(got, np.concatenate(list(
        oracles.draw_chunks(rng, n, samples, 3))))
    rng.setstate(before)
    assert got.ravel().tolist() == [rng.randrange(n)
                                    for _ in range(samples * 3)]


def test_bulk_draws_interleaved_match_sequential_draws():
    # the second draw opens while the first holds the thread's spare
    # MT19937, so it builds its own; each yields what it yields alone
    samples = 2 * CHUNK + 7
    alone = [list(patterns._draw_chunks(random.Random(s), n, samples, w))
             for s, n, w in ((1, 48, 4), (2, 13, 3))]
    one = patterns._draw_chunks(random.Random(1), 48, samples, 4)
    two = patterns._draw_chunks(random.Random(2), 13, samples, 3)
    both = list(zip(one, two))
    assert len(both) == 3
    for i, (c1, c2) in enumerate(both):
        assert np.array_equal(c1, alone[0][i])
        assert np.array_equal(c2, alone[1][i])


def test_bulk_draws_closed_midway_leave_the_next_draw_exact():
    # a draw closed after its first chunk hands its MT19937 back with the
    # state it had then; the next draw sets the whole state again
    first = patterns._draw_chunks(random.Random(7), 1024, 3 * CHUNK, 2)
    next(first)
    first.close()
    mt = patterns._mt_slot.mt
    assert mt is not None
    samples = CHUNK + 9
    got = np.concatenate(list(patterns._draw_chunks(random.Random(8), 48,
                                                    samples, 3)))
    assert patterns._mt_slot.mt is mt  # the spare was reused, not rebuilt
    rng = random.Random(8)
    assert got.ravel().tolist() == [rng.randrange(48)
                                    for _ in range(samples * 3)]


def test_sample_tester_in_threads_matches_serial_reports():
    # each thread takes its own spare MT19937, so testers running at once,
    # in more threads than cores and with a short switch interval, return
    # the serial reports
    jobs = []
    for mods in ((48,), (4, 12), (2, 2, 12)):
        g = GroupDescriptor(mods)
        for seed in range(2):
            jobs.append((GroupSubset(g, random.Random(seed).getrandbits(
                g.order)), seed))
    f = half_graph(2)
    serial = [sample_tester(a, f, 3 * CHUNK, seed) for a, seed in jobs]
    count = 4
    start = threading.Barrier(count, timeout=60)
    got = [None] * count

    def run(slot):
        start.wait()
        got[slot] = [sample_tester(a, f, 3 * CHUNK, seed)
                     for _ in range(3) for a, seed in jobs]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [serial * 3] * count


def _wrap_pairs(g, rng):
    """Rank pairs whose digits at one coordinate sum to m - 1, m or 2m - 2,
    the wrap points of a digit sum, with the other digits random."""
    pairs = []
    for i, m in enumerate(g.moduli):
        for ci, di in ((m - 1, 0), (0, m - 1), (1, m - 1), (m - 1, 1),
                       (m - 1, m - 1)):
            c = [rng.randrange(mm) for mm in g.moduli]
            d = [rng.randrange(mm) for mm in g.moduli]
            c[i], d[i] = ci, di
            pairs.append((sum(x * b for x, b in zip(c, g._blocks)),
                          sum(x * b for x, b in zip(d, g._blocks))))
    return pairs


def _assert_add_ranks(g, pairs, dtype):
    assert _rank_dtype(g) is dtype
    a = np.array([x for x, _ in pairs], dtype)
    b = np.array([y for _, y in pairs], dtype)
    s = _add_ranks(g, a, b)
    assert s.dtype == dtype
    assert s.tolist() == [add_rank(g, x, y) for x, y in pairs]


@pytest.mark.parametrize("mods", MODULI_POOL + [(2,) * 20, (2**20,)], ids=str)
def test_add_ranks_matches_add_rank(mods):
    # every pair on the small shapes, 5000 random pairs on the two shapes of
    # order 2**20, and the wrap points of every coordinate on all of them
    g = GroupDescriptor(mods)
    rng = random.Random(g.order)
    n = g.order
    if n <= 16:
        pairs = [(x, y) for x in range(n) for y in range(n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(5000)]
    _assert_add_ranks(g, pairs + _wrap_pairs(g, rng), np.uint32)


@pytest.mark.parametrize("mods,dtype", [
    ((2**31,), np.uint32),            # digit sums reach 2**32 - 2
    ((2**31 + 1,), np.uint64),
    ((2**32 - 1,), np.uint64),        # the largest n the bulk draws take
    ((3, 2**31 + 11), np.uint64),     # ranks past 2**32
])
def test_add_ranks_is_exact_at_the_dtype_edges(mods, dtype):
    # a descriptor of these orders would allocate its |G|-bit masks, so a
    # stub carries what _rank_dtype, _add_ranks and add_rank read
    blocks = tuple(math.prod(mods[:i]) for i in range(len(mods)))
    g = types.SimpleNamespace(moduli=mods, _blocks=blocks,
                              order=math.prod(mods))
    rng = random.Random(len(mods))
    pairs = [(rng.randrange(g.order), rng.randrange(g.order))
             for _ in range(1000)]
    _assert_add_ranks(g, pairs + _wrap_pairs(g, rng), dtype)


def _uses_table(check, order):
    """Whether check reads the |G|^2 sum table, whose index x |G| + y must
    fit the uint32 ranks it is computed in."""
    if check.scale is None:
        assert check.tables[1].size == order
        return False
    assert order * order < 2**32 and check.dtype is np.uint32
    assert check.scale == order and check.tables[1].size == order * order
    return True


@pytest.mark.parametrize("samples,table", [(575, False), (576, True)])
def test_sample_check_takes_the_table_from_one_chunk_of_pair_sums(
        samples, table, count_calls):
    # half_graph(2) on Z/48: the table's 48^2 = 2304 entries are one chunk's
    # pair sums at 2304 / 4 = 576 samples; below that every pair sums its
    # digits, one _add_ranks call per pair, and the table costs one call
    g = GroupDescriptor([48])
    a = GroupSubset(g, random.Random(5).getrandbits(g.order))
    f = half_graph(2)
    assert _uses_table(patterns._SampleCheck(a, f, samples), 48) == table
    sums = count_calls(_add_ranks)
    rep = sample_tester(a, f, samples, rng_seed=3)
    assert sums[0] == (1 if table else 4)
    assert rep == oracles.sample_tester(a, f, samples, 3)


@pytest.mark.parametrize("mods", [(4, 12), (13,), (3, 5), (2, 2, 2, 2)],
                         ids=str)
def test_sample_check_table_matches_add_ranks(mods):
    # every cell of the table is membership of the rank sum, so a pair
    # reads the same entry through either index
    g = GroupDescriptor(mods)
    n = g.order
    a = GroupSubset(g, random.Random(n).getrandbits(n))
    check = patterns._SampleCheck(a, half_graph(3), CHUNK)
    assert _uses_table(check, n)
    x, y = np.divmod(np.arange(n * n, dtype=np.uint32), np.uint32(n))
    sums = _add_ranks(g, x, y)
    assert np.array_equal(check.tables[1], (a.bits >> sums.astype(object)) & 1
                          == 1)
    assert np.array_equal(check.tables[0], ~check.tables[1])


def test_check_witness_reads_pair_sums(count_calls):
    # a witness is checked from its |U||V| pair sums, with no sampled check
    g = GroupDescriptor([2, 2, 4])
    a = GroupSubset(g, 0b1011011000110101)
    f = half_graph(2)
    w = find_bi_induced(a, f, require_injective=False)
    assert w is not None
    # phi_v(1) = phi_v(0) puts the non-edge (1, 0)'s sum, not in A, on the
    # edge (1, 1)
    bad = BiInducedWitness(f, g, w.phi_u, (w.phi_v[0], w.phi_v[0]))
    sampled = count_calls(patterns._SampleCheck)
    sums = count_calls(_add_ranks)
    for wit in (w, bad):
        assert check_witness(a, f, wit) == oracles.bi_induces(
            a, f, wit.phi_u, wit.phi_v)
    assert check_witness(a, f, w) and not check_witness(a, f, bad)
    assert (sampled[0], sums[0]) == (0, 0)


def test_sample_check_table_needs_a_uint32_index(monkeypatch):
    # the size rule alone would take the table on Z/65537 with chunks of
    # 2**33 rows, but 65537^2 > 2**32, so the pairs sum their digits
    monkeypatch.setattr(patterns, "_CHUNK", 2**33)
    g = GroupDescriptor([65537])
    a = GroupSubset(g, random.Random(1).getrandbits(g.order))
    assert not _uses_table(patterns._SampleCheck(a, half_graph(1), 2**33),
                           g.order)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("f", ORACLE_PATTERNS,
                         ids=["hg1", "hg2", "hg3", "path", "edgeless"])
def test_sample_tester_matches_oracle_at_chunk_edges(f, samples):
    # one sample sums digits; from CHUNK - 1 samples on, every pattern here
    # reads the 48^2 table
    g = GroupDescriptor([4, 12])
    a = GroupSubset(g, random.Random(4).getrandbits(g.order))
    assert _uses_table(patterns._SampleCheck(a, f, samples), 48) == (
        samples > 1)
    assert sample_tester(a, f, samples, rng_seed=9) == oracles.sample_tester(
        a, f, samples, 9)


@pytest.mark.parametrize("mods", [(13,), (3, 5)], ids=str)
@pytest.mark.parametrize("f", ORACLE_PATTERNS,
                         ids=["hg1", "hg2", "hg3", "path", "edgeless"])
def test_sample_tester_matches_oracle_at_odd_orders(f, mods):
    # |G| is not a multiple of 8, so A's last packed byte is unpacked in part
    g = GroupDescriptor(mods)
    for seed in range(3):
        a = GroupSubset(g, random.Random(seed).getrandbits(g.order))
        assert _uses_table(patterns._SampleCheck(a, f, CHUNK + 1), g.order)
        assert sample_tester(a, f, CHUNK + 1, seed) == oracles.sample_tester(
            a, f, CHUNK + 1, seed)


@given(subsets(), st.sampled_from(ORACLE_PATTERNS),
       st.sampled_from(SAMPLE_COUNTS), st.integers(0, 2**32))
def test_sample_tester_matches_oracle(a, f, samples, seed):
    assert sample_tester(a, f, samples, seed) == oracles.sample_tester(
        a, f, samples, seed)


def _densify_cases():
    # |H| = 1: the trivial subgroup of Z/4
    z4 = GroupDescriptor([4])
    one = (GroupSubset.from_ranks(z4, [1]), generated_subgroup(z4, []),
           half_graph(1))
    # |H| = 2: in Z/16 with H = {0, 8}, the witness's pair coset {1, 9} is
    # half in A, so about half the samples hit
    z16 = GroupDescriptor([16])
    two = (GroupSubset.from_ranks(z16, [1, 3, 11]), generated_subgroup(z16, [8]),
           half_graph(1))
    # |H| = 8: two cosets of an index-8 subgroup of (Z/2)^6 and one stray
    # element, as in test_densify_noisy_planted
    g = GroupDescriptor([2] * 6)
    h = generated_subgroup(g, [1, 2, 4])
    base = h.bits | translate_bits(g, h.bits, 8) | translate_bits(g, h.bits, 16)
    eight = (GroupSubset(g, base ^ 1), h, half_graph(2))
    return [("h1", *one), ("h2", *two), ("h8", *eight)]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("name,a,h,f", _densify_cases(),
                         ids=[c[0] for c in _densify_cases()])
def test_densify_matches_oracle(name, a, h, f, samples):
    # one sample sums digits, and the others read the table, on every case
    assert h.size == int(name[1:])
    assert _uses_table(patterns._SampleCheck(a, f, samples),
                       a.group.order) == (samples > 1)
    w = find_bi_induced(coset_round(a, h), f)
    rep = densify(a, h, f, w, samples, rng_seed=6)
    assert rep == oracles.densify(a, h, f, w, samples, 6)
    if samples > 1 and name != "h1":
        assert 0 < rep.hits < samples


# with a 1 x 1 pattern eta = 1/2, so every coset is good and densify
# applies to any witness found in the rounded set
@given(subsets(), st.sampled_from([half_graph(1), EDGELESS]), st.data())
def test_densify_matches_oracle_on_any_subgroup(a, f, data):
    h = data.draw(st.sampled_from(enumerate_subgroups(a.group)))
    w = find_bi_induced(coset_round(a, h), f)
    if w is None:
        return
    samples = data.draw(st.sampled_from(SAMPLE_COUNTS))
    assert densify(a, h, f, w, samples, 2) == oracles.densify(
        a, h, f, w, samples, 2)


def test_exhaustive_density_examples():
    z4 = GroupDescriptor([4])
    assert exhaustive_density(GroupSubset.from_ranks(z4, [2]), EDGELESS) == Fraction(3, 4)
    assert exhaustive_density(GroupSubset.empty(z4), EDGELESS) == 1
    assert exhaustive_density(GroupSubset.from_ranks(z4, [0]), half_graph(1)) == Fraction(1, 4)
    assert exhaustive_density(GroupSubset.full(z4), half_graph(1)) == 1
    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    assert exhaustive_density(interval, PATH) == Fraction(36, 169)
    with pytest.raises(CapExceeded):
        exhaustive_density(GroupSubset.empty(GroupDescriptor([2] * 9)), half_graph(2))


def test_exhaustive_density_budget_is_the_density_cap():
    interval = GroupSubset.from_ranks(GroupDescriptor([13]), range(1, 7))
    want = exhaustive_density(interval, half_graph(2))
    # the pattern search budget does not apply
    assert exhaustive_density(interval, half_graph(2),
                              caps=Caps(pattern_visit_cap=1)) == want
    assert exhaustive_density(interval, half_graph(2),
                              caps=Caps(density_enum_cap=13**4)) == want
    with pytest.raises(CapExceeded):
        exhaustive_density(interval, half_graph(2),
                           caps=Caps(density_enum_cap=13**4 - 1))


@given(subsets(pool=TINY_POOL), st.sampled_from([half_graph(1), PATH]))
def test_exhaustive_density_matches_enumeration(a, f):
    mods, aset = _oracle_args(a)
    assert exhaustive_density(a, f) == oracles.bi_induced_density(
        mods, aset, f.u_count, f.v_count, f.edges
    )


def test_distance_examples():
    z4 = GroupDescriptor([4])
    assert distance_to_free(GroupSubset.empty(z4), half_graph(1)) == 0
    assert distance_to_free(GroupSubset.full(z4), half_graph(1)) == 4
    # only the empty set avoids a single edge, so distance equals |A|
    a = GroupSubset.from_ranks(z4, [0, 2])
    assert distance_to_free(a, half_graph(1)) == a.size
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    u2 = GroupSubset(g, h.bits | translate_bits(g, h.bits, 4))
    assert distance_to_free(u2, half_graph(2)) == 0
    with pytest.raises(CapExceeded):
        distance_to_free(GroupSubset.empty(GroupDescriptor([17])), half_graph(1))
    # the empty set holds no edge and the whole group no non-edge, so one of
    # them is free of any pattern
    assert distance_to_free(GroupSubset.empty(z4), EDGELESS) == 4
    assert distance_to_free(GroupSubset.full(z4), EDGELESS) == 0


@given(subsets(pool=TINY_POOL), st.sampled_from([half_graph(2), PATH]))
def test_distance_zero_iff_pattern_free(a, f):
    dist = distance_to_free(a, f)
    free = find_bi_induced(a, f) is None
    assert (dist == 0) == free


@given(subsets(pool=TINY_POOL))
def test_distance_for_single_edge_is_set_size(a):
    assert distance_to_free(a, half_graph(1)) == a.size


def test_coset_goodness_examples():
    z4 = GroupDescriptor([4])
    h2 = generated_subgroup(z4, [2])
    g1 = coset_goodness(GroupSubset.from_ranks(z4, [0]), h2, half_graph(1))
    assert g1.eta == Fraction(1, 2)
    assert g1.all_good and g1.bad_fraction == 0
    g2 = coset_goodness(GroupSubset.full(z4), h2, half_graph(2))
    assert g2.eta == Fraction(1, 8)
    assert g2.all_good

    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    clean = coset_goodness(GroupSubset(g, 0xFF0F), h, half_graph(2))
    assert clean.all_good and clean.bad_fraction == 0
    # one stray element makes its coset density 1/4, past eta = 1/8
    noisy = coset_goodness(GroupSubset(g, 0xFF1F), h, half_graph(2))
    assert not noisy.all_good
    assert noisy.bad_fraction == Fraction(1, 4)


def test_densify_noiseless_union():
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    a = GroupSubset(g, 0xFF0F)
    w = find_bi_induced(coset_round(a, h), half_graph(2))
    assert w is not None
    rep = densify(a, h, half_graph(2), w, 2000, rng_seed=1)
    assert rep.fraction == 1.0
    assert rep.hits == rep.samples == 2000
    assert rep.bound == Fraction(1, 2)
    assert rep.meets_bound


def test_densify_trivial_subgroup():
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    w = find_bi_induced(a, half_graph(1))
    rep = densify(a, generated_subgroup(z4, []), half_graph(1), w, 500, rng_seed=2)
    assert rep.fraction == 1.0 and rep.meets_bound


def test_densify_noisy_planted():
    g = GroupDescriptor([2] * 6)
    h = generated_subgroup(g, [1, 2, 4])
    base = h.bits | translate_bits(g, h.bits, 8) | translate_bits(g, h.bits, 16)
    for noisy_bits, want_frac in [(base ^ (1 << 32), 1.0), (base ^ 1, 0.87275)]:
        a = GroupSubset(g, noisy_bits)
        rounded = coset_round(a, h)
        assert rounded.bits == base
        w = find_bi_induced(rounded, half_graph(2))
        rep = densify(a, h, half_graph(2), w, 4000, rng_seed=5)
        assert rep.fraction == want_frac
        assert rep.meets_bound


def test_densify_rejects_bad_preconditions():
    z4 = GroupDescriptor([4])
    h2 = generated_subgroup(z4, [2])
    a1 = GroupSubset.from_ranks(z4, [1])
    w = find_bi_induced(a1, half_graph(1))
    # witness fails on the rounded set
    with pytest.raises(ValueError, match="rounded"):
        densify(GroupSubset.from_ranks(z4, [0]), h2, half_graph(1), w, 10, rng_seed=0)
    # witness fine on the rounded set, but a pair coset is bad at eta
    g = GroupDescriptor([2, 2, 2, 2])
    h = generated_subgroup(g, [1, 2])
    noisy = GroupSubset(g, 0xFF1F)
    wr = find_bi_induced(coset_round(noisy, h), half_graph(2))
    assert check_witness(coset_round(noisy, h), half_graph(2), wr)
    with pytest.raises(ValueError, match="bad at eta"):
        densify(noisy, h, half_graph(2), wr, 10, rng_seed=0)


def test_densify_rejects_a_witness_of_another_group():
    a, w = _z8_witness_on_z4()
    h = generated_subgroup(a.group, [])
    with pytest.raises(ValueError, match="group"):
        densify(a, h, half_graph(1), w, 100, rng_seed=0)


def test_densify_rejects_sample_counts_below_one():
    # checked before the preconditions: this witness fails on the rounded set
    z4 = GroupDescriptor([4])
    h2 = generated_subgroup(z4, [2])
    w = find_bi_induced(GroupSubset.from_ranks(z4, [1]), half_graph(1))
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            densify(GroupSubset.from_ranks(z4, [0]), h2, half_graph(1), w,
                    samples, rng_seed=0)


def test_ap_search_examples():
    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    ap = ap_search(interval, 2)
    assert ap is not None
    assert (ap.group, ap.start, ap.step) == (z13, 1, 3)
    assert ap.terms == (1, 4, 7, 10)
    assert ap_search(GroupSubset.empty(z13), 1) is None
    assert ap_search(GroupSubset.full(z13), 1) is None
    with pytest.raises(ValueError):
        ap_search(interval, 0)
    with pytest.raises(ValueError):
        ap_search(interval, 7)


def test_ap_search_exponent_two():
    # x, x+d, x+2d=x: a 4-term split progression needs the step's order > 3
    g = GroupDescriptor([2, 2, 2])
    sub = GroupSubset(g, generated_subgroup(g, [1]).bits)
    assert ap_search(sub, 2) is None
    assert ap_search(sub, 1) is not None


@given(subsets(pool=TINY_POOL), st.integers(1, 2))
def test_ap_search_split_structure(a, k):
    if 2 * k > a.group.order:
        return
    ap = ap_search(a, k)
    proper = 0 < a.size < a.group.order
    if k == 1:
        # a one-in one-out pair exists exactly for proper nonempty sets
        assert (ap is not None) == proper
    if ap is None:
        return
    assert len(ap.terms) == 2 * k
    assert ap.step != 0
    for j, t in enumerate(ap.terms):
        assert a.contains_rank(t) == (j < k)


def test_ap_half_graph_witness():
    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    for k in (1, 2):
        ap = ap_search(interval, k)
        f, w = ap_half_graph_witness(interval, ap)
        assert f == half_graph(k)
        assert w.group == z13
        assert check_witness(interval, f, w, injectivity="per_side")
    # u_i = (i+1)d and v_j = x - (j+1)d for the last in-A term x = 4, d = 3
    assert (w.phi_u, w.phi_v) == ((3, 6), (1, 11))
    # a progression of another group is refused, not read by its ranks
    z16 = GroupDescriptor([16])
    ap = ap_search(GroupSubset.from_ranks(z16, range(1, 7)), 2)
    with pytest.raises(ValueError, match="group"):
        ap_half_graph_witness(interval, ap)


def _densify_z2_18():
    # the h8 case of _densify_cases embedded in (Z/2)^18, whose other cosets
    # of H = <1, 2, 4> are planted at random with one stray element in some
    g6 = GroupDescriptor([2] * 6)
    h6 = generated_subgroup(g6, [1, 2, 4])
    base = h6.bits | translate_bits(g6, h6.bits, 8) | translate_bits(g6, h6.bits, 16)
    f = half_graph(2)
    w6 = find_bi_induced(GroupSubset(g6, base), f)
    g = GroupDescriptor([2] * 18)
    rng = random.Random(3)
    bits = base ^ 1
    for c in range(8, 1 << 15):
        if rng.random() < 0.5:
            bits |= 0xFF << (8 * c)
            if rng.random() < 0.1:
                bits ^= 1 << (8 * c + rng.randrange(8))
    w = BiInducedWitness(f, g, w6.phi_u, w6.phi_v)
    return GroupSubset(g, bits), generated_subgroup(g, [1, 2, 4]), f, w


def test_densify_on_z2_18_matches_oracle():
    a, h, f, w = _densify_z2_18()
    rep = densify(a, h, f, w, 2000, rng_seed=5)
    assert rep == oracles.densify(a, h, f, w, 2000, 5)
    assert rep.hits == 1750 and rep.meets_bound


@pytest.mark.parametrize("name,a,h,f", _densify_cases(),
                         ids=[c[0] for c in _densify_cases()])
def test_densify_translates_only_the_pair_cosets(name, a, h, f, count_calls):
    w = find_bi_induced(coset_round(a, h), f)
    calls = count_calls(translate_bits)
    densify(a, h, f, w, 100, rng_seed=6)
    assert calls[0] <= f.u_count * f.v_count
