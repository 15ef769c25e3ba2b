import math
import random
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
from addcomb.groups import add_rank, neg_rank, translate_bits
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
    w_good = BiInducedWitness(f, (z4.element(0),), (z4.element(1),), True, True)
    w_bad = BiInducedWitness(f, (z4.element(0),), (z4.element(2),), True, True)
    assert check_witness(a, f, w_good)
    assert not check_witness(a, f, w_bad)
    with pytest.raises(ValueError):
        check_witness(a, f, w_good, injectivity="sideways")
    with pytest.raises(ValueError):
        BiInducedWitness(f, (), (z4.element(1),), True, True)


def _z8_witness_on_z4():
    # A = {3} in Z/4 and a Z/8 witness whose rank 7 reads as 3 in Z/4
    z4, z8 = GroupDescriptor([4]), GroupDescriptor([8])
    a = GroupSubset.from_ranks(z4, [3])
    w = BiInducedWitness(half_graph(1), (z8.element(7),), (z8.element(0),),
                         True, True)
    return a, w


def test_check_witness_rejects_a_witness_of_another_group():
    a, w = _z8_witness_on_z4()
    with pytest.raises(ValueError, match="group"):
        check_witness(a, half_graph(1), w)


def test_check_witness_rejects_a_witness_of_another_vertex_count():
    # half_graph(2) needs images for two vertices per side; this one has one
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    w = BiInducedWitness(half_graph(1), (z4.element(0),), (z4.element(1),),
                         True, True)
    with pytest.raises(ValueError, match="vertex counts"):
        check_witness(a, half_graph(2), w)
    with pytest.raises(ValueError, match="vertex counts"):
        densify(a, generated_subgroup(z4, []), half_graph(2), w, 10,
                rng_seed=0)


def test_check_witness_injectivity_modes():
    z4 = GroupDescriptor([4])
    a = GroupSubset.from_ranks(z4, [1])
    # both path u's on the same element: fine without injectivity, not per side
    w = BiInducedWitness(
        PATH, (z4.element(0), z4.element(0)), (z4.element(1),), False, True
    )
    assert check_witness(a, PATH, w)
    assert not check_witness(a, PATH, w, injectivity="per_side")
    # per-side injective but u-image equals v-image: global rejects it
    a2 = GroupSubset.from_ranks(z4, [2])
    f = half_graph(1)
    w2 = BiInducedWitness(f, (z4.element(1),), (z4.element(1),), True, True)
    assert check_witness(a2, f, w2, injectivity="per_side")
    assert not check_witness(a2, f, w2, injectivity="global")


def test_find_bi_induced_examples():
    z4 = GroupDescriptor([4])
    assert find_bi_induced(GroupSubset.empty(z4), half_graph(1)) is None
    w = find_bi_induced(GroupSubset.from_ranks(z4, [0]), half_graph(1))
    assert w is not None
    assert (w.phi_u[0].rank + w.phi_v[0].rank) % 4 == 0
    # a full set cannot realise the non-edge of a half graph
    assert find_bi_induced(GroupSubset.full(z4), half_graph(2)) is None
    assert find_bi_induced(GroupSubset.full(z4), EDGELESS) is None
    assert find_bi_induced(GroupSubset.empty(z4), EDGELESS) is not None

    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    w2 = find_bi_induced(interval, half_graph(2))
    assert w2 is not None
    assert [e.rank for e in w2.phi_u] == [1, 0]
    assert [e.rank for e in w2.phi_v] == [0, 1]
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
    w = BiInducedWitness(f, tuple(g.element(r) for r in u_ranks),
                         tuple(g.element(r) for r in v_ranks), True, True)
    assert check_witness(a, f, w) == oracles.bi_induces(a, f, u_ranks, v_ranks)
    found = find_bi_induced(a, f, require_injective=False)
    if found is not None:
        assert check_witness(a, f, found)
        assert oracles.bi_induces(a, f, [e.rank for e in found.phi_u],
                                  [e.rank for e in found.phi_v])


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


def test_sample_tester_memory_is_bounded():
    # 2000 samples of half_graph(2) on (Z/2)^18: the numpy predicate reads
    # membership from A's packed bytes (32 KiB), never from A unpacked to
    # one byte per element (256 KiB) or from a translate
    g = GroupDescriptor([2] * 18)
    a = GroupSubset(g, random.Random(3).getrandbits(g.order))
    rep, peak = _traced_peak(g, lambda: sample_tester(a, half_graph(2), 2000,
                                                      rng_seed=1))
    assert rep.samples == 2000
    assert peak < 2**20


def test_sample_tester_memory_is_bounded_in_the_sample_count():
    # 100000 samples tested in one pass would hold their draws, bulk words
    # and pair sums at once, tens of MB; chunks of _CHUNK samples hold one
    g = GroupDescriptor([2] * 18)
    a = GroupSubset(g, random.Random(3).getrandbits(g.order))
    rep, peak = _traced_peak(g, lambda: sample_tester(a, half_graph(2), 100000,
                                                      rng_seed=1))
    assert rep.samples == 100000
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
    assert patterns._rank_dtype(g) is dtype
    a = np.array([x for x, _ in pairs], dtype)
    b = np.array([y for _, y in pairs], dtype)
    s = patterns._add_ranks(g, a, b)
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


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("f", ORACLE_PATTERNS,
                         ids=["hg1", "hg2", "hg3", "path", "edgeless"])
def test_sample_tester_matches_oracle_at_chunk_edges(f, samples):
    g = GroupDescriptor([4, 12])
    a = GroupSubset(g, random.Random(4).getrandbits(g.order))
    assert sample_tester(a, f, samples, rng_seed=9) == oracles.sample_tester(
        a, f, samples, 9)


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
    assert h.size == int(name[1:])
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
    assert (ap.start.rank, ap.step.rank) == (1, 3)
    assert [t.rank for t in ap.terms] == [1, 4, 7, 10]
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
    assert ap.step.rank != 0
    for j, t in enumerate(ap.terms):
        assert a.contains_rank(t.rank) == (j < k)


def test_ap_half_graph_witness():
    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    for k in (1, 2):
        ap = ap_search(interval, k)
        f, w = ap_half_graph_witness(interval, ap)
        assert f == half_graph(k)
        assert check_witness(interval, f, w, injectivity="per_side")


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
    w = BiInducedWitness(f, tuple(g.element(e.rank) for e in w6.phi_u),
                         tuple(g.element(e.rank) for e in w6.phi_v),
                         True, True)
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
