import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from addcomb import (
    AdjacencyOracle,
    BipartitePattern,
    GroupDescriptor,
    GroupSubset,
    TranslateSystem,
    almost_periods,
    coset_representatives,
    find_shattered_set,
    generated_subgroup,
    greedy_packing,
    half_graph,
    random_independent_subset_rate,
    sampled_vc,
    sauer_check,
    separated_sample_bound_check,
    set_vc_dimension,
    translate,
    vc_dimension,
    witness_from_shattering,
)
from addcomb import groups as groups_lib
from addcomb import vc
from addcomb.caps import Caps, CapExceeded
from addcomb.exhaustive import all_abelian_groups, orbit_representatives
from addcomb.groups import _bit_ranks, _cover_walk, translate_bits
from addcomb.subsets import _convolve, _support
from conftest import MODULI_POOL, subsets

SMALL_POOL = tuple(m for m in MODULI_POOL if math.prod(m) <= 16)


def test_vc_dimension_examples():
    z222 = GroupDescriptor([2, 2, 2])
    assert set_vc_dimension(GroupSubset.empty(z222)) == 0
    assert set_vc_dimension(GroupSubset.full(z222)) == 0
    h = generated_subgroup(z222, [1, 2])
    assert set_vc_dimension(GroupSubset(z222, h.bits)) == 1
    z13 = GroupDescriptor([13])
    interval = GroupSubset.from_ranks(z13, range(1, 7))
    d = set_vc_dimension(interval)
    assert d == 2 and d <= 3
    z16 = GroupDescriptor([2, 2, 2, 2])
    assert set_vc_dimension(GroupSubset.from_ranks(z16, [0, 1, 2, 3, 5, 8])) == 3


def test_vc_threshold_mode():
    z13 = GroupDescriptor([13])
    a = GroupSubset.from_ranks(z13, range(1, 7))
    # exact answer is 2: a generous threshold returns it, a tight one says "> max_d"
    assert set_vc_dimension(a, max_d=3) == 2
    assert set_vc_dimension(a, max_d=2) == 2
    assert set_vc_dimension(a, max_d=1) == 2
    assert set_vc_dimension(a, max_d=0) == 1


def test_vc_dimension_refuses_a_negative_threshold():
    # a threshold below 0 used to run the search to its end (its stop depth
    # max_d + 1 is never reached) and report the full dimension as "> max_d"
    g = GroupDescriptor([13])
    a = GroupSubset.from_ranks(g, range(1, 7))
    restricted = TranslateSystem(a, ground=GroupSubset.from_ranks(g, range(6)))
    for sys_ in (TranslateSystem(a), restricted):
        with pytest.raises(ValueError, match=r"^max_d must be >= 0, got -1$"):
            vc_dimension(sys_, max_d=-1)
    with pytest.raises(ValueError, match=r"^max_d must be >= 0, got -3$"):
        set_vc_dimension(a, max_d=-3)
    assert set_vc_dimension(a, max_d=0) == 1


def test_vc_ground_cap():
    g = GroupDescriptor([2, 2])
    a = GroupSubset.from_ranks(g, [0, 1])
    with pytest.raises(CapExceeded):
        set_vc_dimension(a, caps=Caps(vc_ground_cap=2))


@given(subsets(pool=SMALL_POOL))
def test_vc_dimension_matches_oracle(a):
    mods = a.group.moduli
    assert set_vc_dimension(a) == oracles.set_vc_dimension(
        mods, {a.group.coords_of(r) for r in a.ranks()}
    )


@given(subsets(pool=SMALL_POOL), st.data())
def test_vc_monotone_under_ground_restriction(a, data):
    g = a.group
    y_bits = data.draw(st.integers(0, g.full_mask))
    y2_bits = y_bits & data.draw(st.integers(0, g.full_mask))
    big = vc_dimension(TranslateSystem(a, ground=GroupSubset(g, y_bits)))
    small = vc_dimension(TranslateSystem(a, ground=GroupSubset(g, y2_bits)))
    assert small <= big


@given(subsets(pool=SMALL_POOL), st.data())
def test_vc_invariant_under_translate_and_complement(a, data):
    z = data.draw(st.integers(0, a.group.order - 1))
    d = set_vc_dimension(a)
    assert set_vc_dimension(translate(a, z)) == d
    assert set_vc_dimension(a.complement()) == d


def test_find_shattered_set_examples():
    z222 = GroupDescriptor([2, 2, 2])
    a = GroupSubset.from_ranks(z222, [0, 1, 2, 4])
    d = set_vc_dimension(a)
    assert d == 3
    got = find_shattered_set(a, 3)
    assert got is not None and len(got) == 3 and got == sorted(got)
    traces = TranslateSystem(a).traces()
    coords = [z222.coords_of(r) for r in got]
    trace_sets = [
        {z222.coords_of(r) for r in range(8) if (t >> r) & 1} for t in traces
    ]
    assert oracles.is_shattered(trace_sets, frozenset(coords))
    assert find_shattered_set(a, 4) is None
    assert find_shattered_set(GroupSubset.empty(z222), 1) is None
    assert find_shattered_set(a, 0) == []


def test_find_shattered_set_refuses_a_negative_size():
    a = GroupSubset.from_ranks(GroupDescriptor([2, 2]), [0, 1])
    with pytest.raises(ValueError, match=r"^size must be >= 0, got -1$"):
        find_shattered_set(a, -1)


def test_find_shattered_set_ground_cap():
    a = GroupSubset.from_ranks(GroupDescriptor([2, 2]), [0, 1])
    with pytest.raises(CapExceeded):
        find_shattered_set(a, 1, caps=Caps(vc_ground_cap=3))
    assert find_shattered_set(a, 1, caps=Caps(vc_ground_cap=4)) == [0]
    # size 0 is answered before the ground is looked at
    assert find_shattered_set(a, 0, caps=Caps(vc_ground_cap=3)) == []


def _lex_least_shattered(a, k):
    """Brute force: the first k-subset of G, in itertools.combinations order,
    on which the translates of A realise all 2^k patterns."""
    g = a.group
    traces = [translate_bits(g, a.bits, x) for x in range(g.order)]
    for combo in itertools.combinations(range(g.order), k):
        if len({tuple((t >> p) & 1 for p in combo) for t in traces}) == 1 << k:
            return list(combo)
    return None


LEX_SHAPES = [(2, 2, 2), (8,), (3, 3), (2, 5), (12,), (2, 2, 3), (13,),
              (2, 2, 2, 2), (4, 4), (2, 8), (16,)]


@pytest.mark.parametrize("mods", LEX_SHAPES, ids=[str(m) for m in LEX_SHAPES])
def test_find_shattered_set_is_lexicographically_least(mods):
    g = GroupDescriptor(mods)
    rng = random.Random(f"lex-least/{mods}")
    for density in (0.2, 0.35, 0.5):
        for _ in range(8):
            a = GroupSubset.from_ranks(
                g, [r for r in range(g.order) if rng.random() < density])
            for k in range(set_vc_dimension(a) + 2):
                assert find_shattered_set(a, k) == _lex_least_shattered(a, k)


@given(subsets(pool=SMALL_POOL))
def test_find_shattered_set_consistent_with_dimension(a):
    d = set_vc_dimension(a)
    if d > 0:
        assert find_shattered_set(a, d) is not None
    assert find_shattered_set(a, d + 1) is None


def test_sauer_examples():
    z222 = GroupDescriptor([2, 2, 2])
    h = generated_subgroup(z222, [1, 2])
    rep = sauer_check(TranslateSystem(GroupSubset(z222, h.bits)))
    assert rep.trace_count == 2 and rep.dimension == 1
    assert rep.ground_size == 8 and rep.binomial_bound == 9 and rep.poly_bound == 16
    assert rep.holds
    rep = sauer_check(TranslateSystem(GroupSubset.full(z222)))
    assert rep.trace_count == 1 and rep.dimension == 0
    assert rep.binomial_bound == 1 and rep.poly_bound is None and rep.holds


@given(subsets())
def test_sauer_never_fails(a):
    assert sauer_check(TranslateSystem(a)).holds


def test_full_system_search_reads_its_own_columns(monkeypatch, count_calls):
    # the full system builds no trace table: its search input is |G|
    # translates of -A (and the negation's one translate unless every
    # modulus is 2), and none is made before the ground cap raises
    tables = []
    table = TranslateSystem.trace_translators

    def counting(self):
        tables.append(self)
        return table(self)

    monkeypatch.setattr(TranslateSystem, "trace_translators", counting)
    translates = count_calls(translate_bits)
    for mods, ranks in (((2, 2, 2, 2), [0, 1, 2, 3, 5, 8]),
                        ((12,), [0, 1, 3, 4, 9]),
                        ((4, 4), [0, 1, 2, 6, 11, 13])):
        g = GroupDescriptor(mods)
        a = GroupSubset.from_ranks(g, ranks)
        want = g.order + (max(mods) > 2)
        translates[0] = 0
        rep = sauer_check(TranslateSystem(a))
        # a trivial stabilizer: every translate is a distinct trace
        assert rep.trace_count == g.order and rep.holds
        assert rep.dimension == oracles.set_vc_dimension(
            mods, {g.coords_of(r) for r in ranks})
        assert translates[0] == want
        translates[0] = 0
        assert set_vc_dimension(a) == rep.dimension
        assert translates[0] == want
        translates[0] = 0
        small = Caps(vc_ground_cap=g.order - 1)
        with pytest.raises(CapExceeded):
            sauer_check(TranslateSystem(a), caps=small)
        with pytest.raises(CapExceeded):
            set_vc_dimension(a, caps=small)
        assert translates[0] == 0
    assert tables == []


def test_greedy_packing_examples():
    z222 = GroupDescriptor([2, 2, 2])
    h = GroupSubset(z222, generated_subgroup(z222, [1, 2]).bits)
    res = greedy_packing(h, Fraction(1, 2))
    assert len(res.centers) == 2 and res.certified
    assert res.centers[0].rank == 0
    assert len(greedy_packing(h, 1).centers) == 1
    assert len(greedy_packing(GroupSubset.empty(z222), Fraction(1, 2)).centers) == 1


def test_greedy_packing_on_z_2_20_with_few_centers():
    # half the cosets of the index-8 subgroup, then 2% noise: the ball is the
    # subgroup, so the 2^20 ranks hold 8 centers
    g = GroupDescriptor([1 << 20])
    rng = random.Random(20)
    bits = int.from_bytes(bytes([0b01101001]) * (g.order // 8), "little")
    for r in rng.sample(range(g.order), g.order // 50):
        bits ^= 1 << r
    a = GroupSubset(g, bits)
    start = time.perf_counter()
    res = greedy_packing(a, Fraction(1, 4))
    elapsed = time.perf_counter() - start
    assert [c.rank for c in res.centers] == list(range(8)) and res.certified
    # a bit test per rank made this about 30 s
    assert elapsed < 5.0


def test_greedy_packing_takes_every_rank_of_a_random_set():
    # a random set's ball is {0}, so every rank is a center
    g = GroupDescriptor([2] * 12)
    rng = random.Random(12)
    a = GroupSubset.from_ranks(g, [r for r in range(g.order) if rng.random() < 0.3])
    assert almost_periods(a, Fraction(1, 4)).members.bits == 1
    res = greedy_packing(a, Fraction(1, 4))
    assert [e.rank for e in res.centers] == list(range(4096)) and res.certified
    assert res.centers[4095] == g.element(4095)


@pytest.mark.parametrize("pays", [True, False], ids=["table", "bitset"])
def test_greedy_packing_matches_the_pairwise_oracle_on_either_walk(
        pays, monkeypatch):
    monkeypatch.setattr(groups_lib, "_rank_walk_pays", lambda g, size: pays)
    rng = random.Random(int(pays))
    for g in all_abelian_groups(12):
        for _ in range(6):
            a = GroupSubset(g, rng.getrandbits(g.order))
            delta = rng.choice([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)])
            aset = {g.coords_of(r) for r in a.ranks()}
            centers = greedy_packing(a, delta).centers
            assert ([e.coords for e in centers]
                    == oracles.greedy_packing(g.moduli, aset, delta))
            assert centers == tuple(g.element(e.rank) for e in centers)


def _walk_skipping(skip):
    """The least-rank cover walk, except that center number skip marks only
    itself."""
    def walk(g, bits):
        covered, centers = 0, []
        while covered != g.full_mask:
            r = (~covered & (covered + 1)).bit_length() - 1
            covered |= (1 << r if len(centers) == skip
                        else translate_bits(g, bits, r))
            centers.append(r)
        return centers
    return walk


def test_greedy_packing_rejects_a_walk_that_skips_a_marking(monkeypatch):
    a, delta, ball = _interval_packing()
    assert _walk_skipping(None)(a.group, ball) == [0, 3, 6, 9, 12]
    assert _walk_skipping(2)(a.group, ball)[:4] == [0, 3, 6, 7]
    for skip in (0, 2, 4):
        monkeypatch.setattr(vc, "_cover_ranks", _walk_skipping(skip))
        with pytest.raises(AssertionError, match="packing separation violated"):
            greedy_packing(a, delta)


def test_greedy_packing_rejects_negative_delta():
    a = GroupSubset.from_ranks(GroupDescriptor([2, 2]), [0])
    with pytest.raises(ValueError, match="delta must be >= 0"):
        greedy_packing(a, Fraction(-1, 2))


def _interval_packing():
    """{0..3} in Z/16 at delta 1/4: the ball is {-2..2}, the centers
    0, 3, 6, 9, 12."""
    z16 = GroupDescriptor([16])
    a = GroupSubset.from_ranks(z16, range(4))
    delta = Fraction(1, 4)
    return a, delta, almost_periods(a, delta).members.bits


def test_packing_check_rejects_unseparated_and_non_maximal_centers():
    a, delta, ball = _interval_packing()
    g = a.group
    centers = [e.rank for e in greedy_packing(a, delta).centers]
    assert centers == [0, 3, 6, 9, 12]
    vc._check_packing(g, ball, centers)
    with pytest.raises(AssertionError, match="packing not maximal"):
        vc._check_packing(g, ball, centers[:-1])
    with pytest.raises(AssertionError, match="packing separation violated"):
        vc._check_packing(g, ball, [0, 1, 3, 6, 9, 12])


def test_greedy_packing_certifies_through_the_check(monkeypatch):
    a, delta, ball = _interval_packing()
    seen = []
    check = vc._check_packing

    def spy(g, ball_bits, centers):
        seen.append((ball_bits, list(centers)))
        check(g, ball_bits, centers)

    monkeypatch.setattr(vc, "_check_packing", spy)
    res = greedy_packing(a, delta)
    assert res.certified
    assert seen == [(ball, [e.rank for e in res.centers])]


def _packing_verdict(check, g, ball, centers):
    try:
        check(g, ball, centers)
    except AssertionError as err:
        return str(err)
    return "ok"


def _kernel_sum(g, x_bits, y_bits, reflect=False):
    return _support(_convolve(g, x_bits, y_bits, reflect=reflect)) \
        if x_bits and y_bits else 0


@pytest.mark.parametrize("mods", [(16,), (2,) * 4, (3, 5), (2, 8), (4, 12),
                                  (2,) * 8, (1024,)],
                         ids=lambda mods: "x".join(map(str, mods)))
def test_packing_check_matches_the_translate_oracle(mods, monkeypatch):
    """The two sums give the translate loop's verdict and message, on
    almost-period balls and on random bitsets (not symmetric, with or
    without 0), for the cover walk's centers, those centers with the last
    dropped, a rank added or one center moved, no centers and random ones;
    through the size rule and through the kernel alone."""
    g = GroupDescriptor(mods)
    n = g.order
    rng = random.Random(n)
    cases = []
    for trial in range(24):
        if trial % 8 == 1:  # sparse, so the walk makes many centers
            ball = 1 | sum(1 << r for r in rng.sample(range(n), 2))
        elif trial % 2:
            ball = rng.getrandbits(n)
            if trial % 4 == 3:
                ball &= ~1
        else:
            a = GroupSubset(g, rng.getrandbits(n))
            ball = almost_periods(a, Fraction(rng.randrange(1, 8), 16)).members.bits
        walk = [r for r, _ in _cover_walk(g, ball | 1)]
        moved = list(walk)
        moved[rng.randrange(len(moved))] = rng.randrange(n)
        for centers in (walk, walk[:-1], walk + [rng.randrange(n)], moved, [],
                        rng.sample(range(n), rng.randrange(1, n))):
            cases.append((ball, centers))
    seen = set()
    for sums in ("rule", "kernel"):
        if sums == "kernel":
            monkeypatch.setattr(vc, "_sum_bits", _kernel_sum)
        for ball, centers in cases:
            want = _packing_verdict(oracles.check_packing, g, ball, centers)
            assert _packing_verdict(vc._check_packing, g, ball, centers) == want
            seen.add(want)
    assert seen == {"ok", "packing separation violated", "packing not maximal"}


@given(
    subsets(pool=SMALL_POOL),
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
)
def test_packing_haussler_and_ball_lower_bound(a, delta):
    d = set_vc_dimension(a)
    res = greedy_packing(a, delta)
    assert len(res.centers) <= (30 / delta) ** d
    ball = almost_periods(a, delta)
    assert ball.members.size >= (delta / 30) ** d * a.group.order


def test_sampled_vc_full_draw_is_exact():
    z16 = GroupDescriptor([2, 2, 2, 2])
    a = GroupSubset.from_ranks(z16, [0, 1, 2, 3, 5, 8])
    n = z16.order
    for d in (0, 2, 3, 4):
        rep = sampled_vc(a, n, n, 1, d, rng_seed=0)
        assert rep.frequency == (1.0 if set_vc_dimension(a) > d else 0.0)
    empty = GroupSubset.empty(z16)
    for d in (0, 1):
        assert sampled_vc(empty, 4, 4, 50, d, rng_seed=1).frequency == 0.0
    with pytest.raises(ValueError):
        sampled_vc(a, 0, 4, 10, 1, rng_seed=0)
    with pytest.raises(ValueError):
        sampled_vc(a, 4, 4, 0, 1, rng_seed=0)


def _exact_restricted_exceed_prob(a, x_size, y_size, d):
    """Enumerate every (X, Y) pair and count restricted vcdim > d, with the
    list search of the oracles."""
    g = a.group
    hits = tot = 0
    for xs in itertools.combinations(range(g.order), x_size):
        for ys in itertools.combinations(range(g.order), y_size):
            y_bits = 0
            for r in ys:
                y_bits |= 1 << r
            traces = sorted({translate_bits(g, a.bits, x) & y_bits for x in xs})
            tot += 1
            if len(oracles.shattered_witness(traces, list(ys), d + 1)) > d:
                hits += 1
    return Fraction(hits, tot)


def test_sampled_vc_matches_exhaustive_enumeration():
    # |G| = 8 keeps the full (X, Y) enumeration tractable; exact values frozen
    z222 = GroupDescriptor([2, 2, 2])
    a = GroupSubset.from_ranks(z222, [0, 1, 2, 4])
    cases = {
        (5, 4, 1): Fraction(3776, 3920),
        (2, 3, 0): Fraction(1472, 1568),
        (4, 4, 1): Fraction(2912, 4900),
    }
    for (x_size, y_size, d), want in cases.items():
        assert _exact_restricted_exceed_prob(a, x_size, y_size, d) == want
        rep = sampled_vc(a, x_size, y_size, 4000, d, rng_seed=7)
        assert rep.wilson_low <= float(want) <= rep.wilson_high


def test_adjacency_oracle_validation_and_cayley():
    with pytest.raises(ValueError):
        AdjacencyOracle.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        AdjacencyOracle.from_edges(3, [(1, 1)])
    g = AdjacencyOracle.from_edges(4, [(0, 1), (2, 3), (1, 2)])
    assert g.max_degree == 2
    path = AdjacencyOracle.from_edges(3, [(0, 1), (1, 2)])
    assert path.n == 3 and path.neighbor_masks[:2] == (0b010, 0b101)
    z22 = GroupDescriptor([2, 2])
    assert AdjacencyOracle.from_cayley(GroupSubset(z22, 0b0010)).n == 4
    z64 = GroupDescriptor([2] * 6)
    b = GroupSubset.from_ranks(z64, [0, 1, 2])
    cay = AdjacencyOracle.from_cayley(b)
    assert cay.n == 64 and cay.max_degree == 2
    for v in range(cay.n):
        assert not (cay.neighbor_masks[v] >> v) & 1
        for w in range(cay.n):
            assert ((cay.neighbor_masks[v] >> w) & 1) == (
                (cay.neighbor_masks[w] >> v) & 1
            )


def test_independent_subset_rate_examples():
    empty = AdjacencyOracle.from_edges(16, [])
    rep = random_independent_subset_rate(empty, 8, 200, rng_seed=3)
    assert rep.rate == 1.0 and rep.meets_bound
    matching = AdjacencyOracle.from_edges(32, [(2 * i, 2 * i + 1) for i in range(16)])
    rep = random_independent_subset_rate(matching, 8, 2000, rng_seed=4)
    assert rep.meets_bound and rep.rate >= rep.bound - 3 * rep.sigma
    z64 = GroupDescriptor([2] * 6)
    cay = AdjacencyOracle.from_cayley(GroupSubset.from_ranks(z64, [0, 1, 2]))
    rep = random_independent_subset_rate(cay, 16, 2000, rng_seed=5)
    assert rep.meets_bound


def test_independent_subset_rate_preconditions():
    empty = AdjacencyOracle.from_edges(16, [])
    with pytest.raises(ValueError):
        random_independent_subset_rate(empty, 9, 10, rng_seed=0)
    star = AdjacencyOracle.from_edges(16, [(0, i) for i in range(1, 16)])
    with pytest.raises(ValueError):
        random_independent_subset_rate(star, 4, 10, rng_seed=0)


def test_independent_subset_rate_refuses_no_trials():
    # trials = 0 divided by zero, and trials = -3 was caught only by
    # binomial_sigma
    empty = AdjacencyOracle.from_edges(16, [])
    for trials in (0, -3):
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            random_independent_subset_rate(empty, 8, trials, rng_seed=0)
    assert random_independent_subset_rate(empty, 8, 1, rng_seed=0).rate == 1.0


def test_sampled_vc_refuses_a_negative_d():
    # d = -1 was refused only by vc_dimension, with a message naming max_d
    z16 = GroupDescriptor([2, 2, 2, 2])
    a = GroupSubset.from_ranks(z16, [0, 1, 2, 3, 5, 8])
    with pytest.raises(ValueError, match=r"^d must be >= 0, got -1$"):
        sampled_vc(a, 4, 4, 10, -1, rng_seed=0)
    assert sampled_vc(a, 4, 4, 10, 0, rng_seed=0).trials == 10


def _sep_z16():
    g = GroupDescriptor([16])
    return GroupSubset.from_ranks(g, [0, 1, 2, 5, 9])


def test_separated_sample_bound_check_refuses_a_negative_d():
    # d = -1 returned holds=True with size_bound 2 m^-1 = 0.333: each
    # trial's search stopped at depth 0, which is never reached
    with pytest.raises(ValueError, match=r"^d must be >= 0, got -1$"):
        separated_sample_bound_check(_sep_z16(), Fraction(1, 4), 6, -1, 10,
                                     rng_seed=0)


def test_separated_sample_bound_check_refuses_no_trials():
    # trials = 0 built the packing, then divided by zero
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        separated_sample_bound_check(_sep_z16(), Fraction(1, 4), 6, 1, 0,
                                     rng_seed=0)
    rep = separated_sample_bound_check(_sep_z16(), Fraction(1, 4), 6, 0, 1,
                                       rng_seed=0)
    assert rep.trials == 1 and rep.size_bound == 2


def test_separated_sample_bound_examples():
    z222 = GroupDescriptor([2, 2, 2])
    h = GroupSubset(z222, generated_subgroup(z222, [1, 2]).bits)
    rep = separated_sample_bound_check(h, Fraction(1, 2), 4, 1, 200, rng_seed=9)
    assert rep.family_size == 2 and rep.size_bound == 8 and rep.holds
    rep = separated_sample_bound_check(
        GroupSubset.empty(z222), Fraction(1, 2), 3, 1, 50, rng_seed=9
    )
    assert rep.family_size == 1 and rep.holds


def test_separated_sample_bound_runs_one_search_per_trial(count_calls):
    # A is translated by each center once, not once per trial: beyond the
    # packing, the check makes one translate per center and the column
    # translates of its 50 searches, at most m = 16 each
    g = GroupDescriptor([2] * 8)
    a = GroupSubset(g, random.Random(5).getrandbits(g.order))
    delta = Fraction(1, 4)
    searches = count_calls(vc._shattered_witness)
    translates = count_calls(translate_bits)
    centers = len(greedy_packing(a, delta).centers)
    packing = translates[0]
    translates[0] = 0
    rep = separated_sample_bound_check(a, delta, 16, 2, 50, rng_seed=0)
    assert rep.family_size == centers > 1
    assert searches[0] == 50
    assert translates[0] <= packing + centers + 50 * 16
    translates[0] = 0
    # the ground cap is checked before the packing is built
    with pytest.raises(CapExceeded, match="^ground size 16 exceeds vc cap 15$"):
        separated_sample_bound_check(a, delta, 16, 2, 50, rng_seed=0,
                                     caps=Caps(vc_ground_cap=15))
    assert translates[0] == 0 and searches[0] == 50


def _seeded_set(mods, seed):
    g = GroupDescriptor(mods)
    return GroupSubset(g, random.Random(f"sep/{mods}/{seed}").getrandbits(g.order))


Z222 = GroupDescriptor([2, 2, 2])

# (set, delta, m, d, trials, seed, the report's repr as the check gave it when
# it still built each trial's traces from the centers' translates): the cases
# of the tests above, and three whose low-dimension fraction is strictly
# between 0 and 1
SEPARATED_REPORTS = [
    pytest.param(
        lambda: GroupSubset(Z222, generated_subgroup(Z222, [1, 2]).bits),
        Fraction(1, 2), 4, 1, 200, 9,
        "SeparatedSampleReport(family_size=2, m=4, d=1, delta=Fraction(1, 2), "
        "trials=200, low_dim_fraction=1.0, sigma=0.0, threshold=3.0, "
        "size_bound=8, applicable=False, holds=True)",
        id="z2x3_subgroup"),
    pytest.param(
        lambda: GroupSubset.empty(Z222), Fraction(1, 2), 3, 1, 50, 9,
        "SeparatedSampleReport(family_size=1, m=3, d=1, delta=Fraction(1, 2), "
        "trials=50, low_dim_fraction=1.0, sigma=0.0, threshold=3.375, "
        "size_bound=6, applicable=False, holds=True)",
        id="z2x3_empty"),
    pytest.param(
        lambda: GroupSubset.from_ranks(GroupDescriptor([16]), [0, 1, 2, 5, 9]),
        Fraction(1, 4), 6, 1, 3, 0,
        "SeparatedSampleReport(family_size=16, m=6, d=1, delta=Fraction(1, 4), "
        "trials=3, low_dim_fraction=0.0, sigma=0.0, threshold=19.2216796875, "
        "size_bound=12, applicable=False, holds=True)",
        id="z16"),
    pytest.param(
        lambda: GroupSubset(GroupDescriptor([2] * 8),
                            random.Random(5).getrandbits(256)),
        Fraction(1, 4), 16, 2, 50, 0,
        "SeparatedSampleReport(family_size=256, m=16, d=2, delta=Fraction(1, 4), "
        "trials=50, low_dim_fraction=0.0, sigma=0.0, "
        "threshold=1970.5225067138672, size_bound=512, applicable=False, "
        "holds=True)",
        id="z2x8"),
    pytest.param(
        lambda: _seeded_set((12,), 1), Fraction(1, 8), 6, 2, 40, 1,
        "SeparatedSampleReport(family_size=12, m=6, d=2, delta=Fraction(1, 8), "
        "trials=40, low_dim_fraction=0.175, sigma=0.060078074203489575, "
        "threshold=1744.9161987304688, size_bound=72, applicable=False, "
        "holds=True)",
        id="z12"),
    pytest.param(
        lambda: _seeded_set((4, 4), 0), Fraction(1, 8), 6, 2, 40, 0,
        "SeparatedSampleReport(family_size=16, m=6, d=2, delta=Fraction(1, 8), "
        "trials=40, low_dim_fraction=0.2, sigma=0.0632455532033676, "
        "threshold=1744.9161987304688, size_bound=72, applicable=False, "
        "holds=True)",
        id="z4x4"),
    pytest.param(
        lambda: _seeded_set((2, 2, 2, 2), 1), Fraction(1, 8), 8, 2, 40, 1,
        "SeparatedSampleReport(family_size=8, m=8, d=2, delta=Fraction(1, 8), "
        "trials=40, low_dim_fraction=0.15, sigma=0.05645794895318108, "
        "threshold=4222.266357421875, size_bound=128, applicable=False, "
        "holds=True)",
        id="z2x4"),
]


@pytest.mark.parametrize("make,delta,m,d,trials,seed,want", SEPARATED_REPORTS)
def test_separated_sample_bound_reports_are_frozen(make, delta, m, d, trials,
                                                   seed, want):
    a = make()
    rep = separated_sample_bound_check(a, delta, m, d, trials, rng_seed=seed)
    assert repr(rep) == want
    assert rep == oracles.separated_sample_bound_check(a, delta, m, d, trials, seed)


@given(subsets(pool=SMALL_POOL), st.sampled_from([Fraction(1, 2), Fraction(1, 4)]))
def test_separated_sample_bound_never_fails(a, delta):
    m = max(2, a.group.order // 2)
    rep = separated_sample_bound_check(a, delta, m, 1, 60, rng_seed=11)
    assert rep.holds


def _assert_matches_oracles(a, delta):
    """The anchored search and the ball-cover packing against the unanchored
    search and the pairwise packing: exact dimension, every threshold query
    and every size-k witness up to d + 1, and the packing centers."""
    g = a.group
    traces = TranslateSystem(a).traces()
    positions = list(range(g.order))
    d = len(oracles.shattered_witness(traces, positions, None))
    assert set_vc_dimension(a) == d
    for k in range(d + 2):
        assert set_vc_dimension(a, max_d=k) == min(d, k + 1)
        if k == 0:
            want = []
        elif k <= d:
            want = oracles.shattered_witness(traces, positions, k)
            assert len(want) == k
        else:
            want = None
        assert find_shattered_set(a, k) == want
    aset = {g.coords_of(r) for r in a.ranks()}
    centers = [e.coords for e in greedy_packing(a, delta).centers]
    assert centers == oracles.greedy_packing(g.moduli, aset, delta)


UP_TO_16 = all_abelian_groups(16)


@pytest.mark.parametrize("g", UP_TO_16, ids=[str(g.moduli) for g in UP_TO_16])
def test_anchored_search_and_ball_cover_match_oracles_on_every_orbit(g):
    # dimension, witnesses and centers are constant on each orbit under
    # translation and complementation (see addcomb.exhaustive)
    for bits in orbit_representatives(g):
        _assert_matches_oracles(GroupSubset(g, bits), Fraction(1, 4))


@settings(max_examples=8)
@given(st.sampled_from([(48,), (4, 12), (2,) * 6]),
       st.sampled_from([0.1, 0.3, 0.5]),
       st.integers(0, 2**32),
       st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
def test_anchored_search_and_ball_cover_match_oracles_at_order_48_and_64(
        mods, density, seed, delta):
    g = GroupDescriptor(mods)
    rng = random.Random(seed)
    a = GroupSubset.from_ranks(g, [r for r in range(g.order) if rng.random() < density])
    _assert_matches_oracles(a, delta)


@given(subsets(pool=SMALL_POOL), st.integers(0, 3))
def test_explicit_full_system_matches_the_default(a, max_d):
    full = GroupSubset.full(a.group)
    for sys_ in (TranslateSystem(a, ground=full),
                 TranslateSystem(a, translators=full),
                 TranslateSystem(a, ground=full, translators=full)):
        assert vc_dimension(sys_) == set_vc_dimension(a)
        assert vc_dimension(sys_, max_d=max_d) == set_vc_dimension(a, max_d=max_d)


def _restricted_oracle_dimension(a, y_bits, x_bits):
    mods = a.group.moduli
    elems = oracles.elements(mods)
    aset = {elems[r] for r in a.ranks()}
    yset = {elems[r] for r in _bit_ranks(y_bits)}
    traces = {frozenset(oracles.translate(mods, aset, elems[x]) & yset)
              for x in _bit_ranks(x_bits)}
    return oracles.vc_dimension(list(traces), sorted(yset))


def _assert_restricted_matches_oracle(a, y_bits, x_bits):
    g = a.group
    sys_ = TranslateSystem(a, ground=GroupSubset(g, y_bits),
                           translators=GroupSubset(g, x_bits))
    assert vc_dimension(sys_) == _restricted_oracle_dimension(a, y_bits, x_bits)


@given(subsets(pool=SMALL_POOL), st.data())
def test_restricted_vc_dimension_matches_oracle(a, data):
    full = a.group.full_mask
    y_bits = data.draw(st.integers(0, full))
    x_bits = data.draw(st.integers(0, full))
    _assert_restricted_matches_oracle(a, y_bits, x_bits)


@pytest.mark.parametrize("which", ["ground", "translators", "both"])
def test_restricted_vc_dimension_matches_oracle_seeded(which):
    # a restricted system is not translation-invariant, so the search must
    # not be anchored there; these draws include systems where it matters
    rng = random.Random(f"restricted/{which}")
    for mods in ((8,), (2, 2, 2), (12,), (2, 2, 3), (4, 4), (16,)):
        g = GroupDescriptor(mods)
        for _ in range(25):
            a = GroupSubset(g, rng.getrandbits(g.order))
            y_bits = rng.getrandbits(g.order) if which != "translators" else g.full_mask
            x_bits = rng.getrandbits(g.order) if which != "ground" else g.full_mask
            _assert_restricted_matches_oracle(a, y_bits, x_bits)


@pytest.mark.parametrize("mods", [(2, 2, 2, 2), (12,), (4, 4), (15,)],
                         ids=lambda mods: "x".join(map(str, mods)))
def test_restricted_witnesses_match_the_list_search(mods):
    # the bitset search over translators against the list search over traces:
    # the same witness for the exact query and for every threshold up to d + 1
    g = GroupDescriptor(mods)
    rng = random.Random(f"witness/{mods}")
    for _ in range(30):
        a = GroupSubset(g, rng.getrandbits(g.order))
        ground = GroupSubset(g, rng.getrandbits(g.order))
        sys_ = TranslateSystem(a, ground, GroupSubset(g, rng.getrandbits(g.order)))
        first = sys_.trace_translators()
        search = vc._search_input(sys_, Caps())
        traces = sys_.traces()
        assert traces == sorted(first)
        positions = ground.ranks()
        d = len(oracles.shattered_witness(traces, positions, None))
        for stop_at in [None, *range(1, d + 2)]:
            want = oracles.shattered_witness(traces, positions, stop_at)
            got = vc._shattered_witness(*search, stop_at)
            assert got == want, (a, sys_, stop_at)


@pytest.mark.parametrize("mods, gens", [
    ((48,), [[24], [16], [12]]),
    ((4, 12), [[2], [16], [2, 24]]),
    ((2,) * 6, [[1], [1, 2], [8, 32]]),
    ((8, 8), [[4], [32], [36]]),
], ids=["48", "4x12", "2^6", "8x8"])
def test_nontrivial_stabilizers_match_the_table_search(mods, gens):
    # planted unions of cosets, at orders the order-16 orbit sweep does not
    # reach: the column search's reps are the trace table's translators, and
    # its witnesses, its trace count and witness_from_shattering are those
    # of the table search
    g = GroupDescriptor(mods)
    rng = random.Random(f"stabilizer/{mods}")
    patterns = [half_graph(1), half_graph(2),
                BipartitePattern(2, 2, frozenset({(0, 0), (1, 1)}))]
    found = 0
    for gen in gens:
        h = generated_subgroup(g, gen)
        cosets = coset_representatives(g, h)
        for _ in range(6):
            bits = 0
            for r in rng.sample(cosets, rng.randrange(1, len(cosets))):
                bits |= translate_bits(g, h.bits, r)
            a = GroupSubset(g, bits)
            table = TranslateSystem(a).trace_translators()
            reps, cand, cols, group = vc._search_input(TranslateSystem(a),
                                                       Caps())
            assert group == g and reps.bit_count() < g.order
            assert set(_bit_ranks(reps)) == set(table.values())
            by_table = vc._table_input(a, table)
            d = len(vc._shattered_witness(*by_table, g, None))
            traces = sorted(table)
            positions = list(range(g.order))
            for stop_at in [None, *range(1, d + 2)]:
                got = vc._shattered_witness(reps, cand, cols, g, stop_at)
                assert got == vc._shattered_witness(*by_table, g, stop_at)
                assert got == oracles.shattered_witness(traces, positions,
                                                        stop_at)
            assert sauer_check(TranslateSystem(a)).trace_count == len(table)
            for f in patterns:
                w = witness_from_shattering(a, f)
                assert w == oracles.witness_from_shattering(a, f)
                found += w is not None
    assert found


def _assert_pruned_search_matches_the_list_search(a):
    """The anchored, pruned column search against the unanchored list search
    over every position: the same witness for the exact query and for every
    threshold up to d + 1.  Each witness is also its own least translate,
    the rule's premise: no two of its positions differ by a rank below its
    second one."""
    g = a.group
    search = vc._search_input(TranslateSystem(a), Caps())
    assert search[3] == g
    traces = TranslateSystem(a).traces()
    positions = list(range(g.order))
    d = len(oracles.shattered_witness(traces, positions, None))
    for stop_at in [None, *range(1, d + 2)]:
        got = vc._shattered_witness(*search, stop_at)
        assert got == oracles.shattered_witness(traces, positions, stop_at)
        for w, u in itertools.permutations(got, 2):
            assert groups_lib.add_rank(g, w, groups_lib.neg_rank(g, u)) >= got[1]
    return d


# one small subgroup each (2 or 3 elements), so A keeps many traces
PLANTED_48_TO_64 = [((48,), [24]), ((50,), [25]), ((54,), [18]),
                    ((2, 28), [1]), ((56,), [28]), ((60,), [20]),
                    ((3, 20), [30]), ((2, 2, 16), [2]), ((64,), [32]),
                    ((4, 4, 4), [2])]


@pytest.mark.parametrize("mods, gen", PLANTED_48_TO_64,
                         ids=["x".join(map(str, m)) for m, _ in PLANTED_48_TO_64])
def test_pruned_search_matches_the_list_search_on_planted_cosets(mods, gen):
    # unions of cosets of a nontrivial subgroup, so Stab(A) is nontrivial
    # and reps is a proper part of G
    g = GroupDescriptor(mods)
    h = generated_subgroup(g, gen)
    assert 1 < h.size < g.order
    cosets = coset_representatives(g, h)
    rng = random.Random(f"pruned/{mods}")
    dims = set()
    for _ in range(4):
        bits = 0
        for r in rng.sample(cosets, rng.randrange(1, len(cosets))):
            bits |= translate_bits(g, h.bits, r)
        dims.add(_assert_pruned_search_matches_the_list_search(
            GroupSubset(g, bits)))
    assert max(dims) >= 2


def test_pruned_search_matches_the_list_search_on_z96():
    # a random set of Z/96, beyond the orders the other pins reach
    g = GroupDescriptor([96])
    rng = random.Random("z96/0")
    a = GroupSubset.from_ranks(g, [r for r in range(96) if rng.random() < 0.2])
    assert _assert_pruned_search_matches_the_list_search(a) == 4


@given(subsets(), st.data())
def test_cut_matches_the_restricted_trace_table(a, data):
    # cutting a restricted system's table to a smaller ground gives the
    # table of the system on that ground, with the same translators in the
    # same (rank) order
    g = a.group
    bits = st.integers(0, g.full_mask)
    x_bits = data.draw(bits)
    ground = data.draw(bits)
    sub = ground & data.draw(bits)
    first = TranslateSystem(a, GroupSubset(g, ground),
                            GroupSubset(g, x_bits)).trace_translators()
    want = TranslateSystem(a, GroupSubset(g, sub),
                           GroupSubset(g, x_bits)).trace_translators()
    assert list(vc._cut(first, sub).items()) == list(want.items())


def test_sampled_systems_obey_the_ground_cap():
    a = GroupSubset.from_ranks(GroupDescriptor([16]), [0, 1, 2, 5, 9])
    with pytest.raises(CapExceeded):
        sampled_vc(a, 8, 5, 3, 1, rng_seed=0, caps=Caps(vc_ground_cap=4))
    assert sampled_vc(a, 8, 5, 3, 1, rng_seed=0, caps=Caps(vc_ground_cap=5)
                      ) == sampled_vc(a, 8, 5, 3, 1, rng_seed=0)
    with pytest.raises(CapExceeded):
        separated_sample_bound_check(a, Fraction(1, 4), 6, 1, 3, rng_seed=0,
                                     caps=Caps(vc_ground_cap=5))
    assert separated_sample_bound_check(
        a, Fraction(1, 4), 6, 1, 3, rng_seed=0, caps=Caps(vc_ground_cap=6)
    ) == separated_sample_bound_check(a, Fraction(1, 4), 6, 1, 3, rng_seed=0)


# sizes up to |G| draw full X and Y too, where the search is anchored
@given(subsets(), st.data())
def test_sampled_vc_matches_hand_built_traces(a, data):
    n = a.group.order
    x_size = data.draw(st.just(n) | st.integers(1, n))
    y_size = data.draw(st.just(n) | st.integers(1, n))
    trials = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**32))
    assert sampled_vc(a, x_size, y_size, trials, d, seed) == oracles.sampled_vc(
        a, x_size, y_size, trials, d, seed)


@given(subsets(), st.data())
def test_separated_sample_bound_matches_hand_built_traces(a, data):
    n = a.group.order
    delta = data.draw(st.sampled_from([Fraction(0), Fraction(1, 8),
                                       Fraction(1, 4), Fraction(1, 2)]))
    m = data.draw(st.just(n) | st.integers(1, n))
    trials = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2**32))
    assert separated_sample_bound_check(
        a, delta, m, d, trials, seed
    ) == oracles.separated_sample_bound_check(a, delta, m, d, trials, seed)
