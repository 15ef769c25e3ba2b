"""Brute-force reference implementations for cross-checking.

Everything here works on plain coordinate tuples and element sets, never on
the library's bitsets or profiles, so agreement between the two is
meaningful.  Only usable at tiny sizes.  These exceptions work on int
bitsets: the bitset translation and negation by digit masks (digit_masks,
rotate_coord, translate_bits_by_digit, negate_bits_by_digit), which build
their own masks, the references for the library's two-shift translation
kernel and its reversal-plus-translate negation, and the counts of x + y
and x - y from those translates (convolution_counts), the reference for both
paths of the library's convolution kernel; the hex codec one nibble at
a time (bits_to_hex_by_nibble, hex_to_bits_by_nibble), the reference for the
library's format/int codec; shattered_witness, the unanchored shattering
search over lists of traces that the library ran before it anchored the full
translate system at 0 and split bitsets of translators, the reference for
both (the library's own table search, vc._table_input over
TranslateSystem.trace_translators, which restricted systems still run, is
in turn the reference for the full system's search input from its columns
and Stab(A)); the patterns layer as it was before its column table, its
anchored V-side sweep and its search over the positions of found copies
(v_sweep, find_bi_induced, exhaustive_density, distance_to_free), which
translates A at every visit and searches every flip set;
witness_from_shattering as it was before it read the shattering search's
trace table or its columns, which translates A again to find each
U-vertex's translator; and the sampled checks as they were before the
bulk numpy path (bi_induces, sample_tester, densify), one rng call per
coordinate and one add_rank per pair, the reference for the replayed
draws and the vectorized predicate; the bulk draws as they were before
they ran on numpy's MT19937 (draw_chunks), getrandbits words read
through to_bytes, which advance the random.Random they read, the reference
for the copied Mersenne Twister stream; and the sampled VC checks as
they were before they ran through vc_dimension (sampled_vc,
separated_sample_bound_check), which build each trial's traces by hand and
search them with shattered_witness; and the symmetric-difference profile
as it was before the transform (symdiff_profile), one big-int translate per
rank, the reference for the library's FFT autocorrelation; and the subgroup
layer as it was before it read generating sets (bit_ranks, closure_with,
closure_walk, is_union_of_cosets, full_lattice): bits cleared one at a
time, a closure by every multiple of x, a walk that tests every element, a
union check over every element of H, and a lattice search that closes every
(subgroup, element) pair, the references for the bitset-string ranks, the
closure by doubling, the walk that jumps to the least missing rank, the
check on generators and the search that skips repeated extensions; and
the maximal subgroup inside a set as it was before the closure walk took a
`within` set (greedy_subgroup_within), a scan of every rank of the set, the
reference for max_subgroup_within past its exhaustive cap; and
kneser_fill_check as it was before it stopped at the first sumset that did
not grow, 2t - 1 sumsets whatever t is; and the sumset as it was before the
convolution kernel (translate_sumset), the larger set's translates by the
smaller one's elements, the reference for both of the library's paths and
the sumset the Kneser oracle forms; and the regularity sweeps as they were
before their steps were kept per call (iterated_doubling, pipeline_step,
regularize, robust_pipeline): K from the float expression, a fresh doubling
by translate sumsets and a fresh spread, subgroup and rounding for every
delta, the references for the step function that doubles each ball once;
and the packing check as it was before it read two sums (check_packing),
one ball translate per center, the reference for vc._check_packing; and
bitsets from ranks as they were before they were built in one pass
(from_ranks, random_family_bits), `bits |= 1 << r` per rank, the
references for GroupSubset.from_ranks and the random family of
harness.generate_family.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from addcomb.caps import DEFAULT_CAPS, CapExceeded
from addcomb.groups import _closure_with, add_rank, neg_rank, translate_bits
from addcomb.patterns import (_CHUNK, BiInducedWitness, DensifyReport,
                              TesterReport, augment_f_plus)
from addcomb.vc import (SampledVcReport, SeparatedSampleReport,
                        find_shattered_set)
from addcomb.stats import binomial_sigma, wilson_interval
from addcomb.regularity import (RobustOutcome, RobustStep, _certificate,
                                _degenerate_certificate, _robust_m,
                                coset_round as bits_coset_round,
                                default_delta_schedule)
from addcomb.subsets import (DoublingTrace, GroupSubset, KneserReport, _ball,
                             _to_fraction, max_subgroup_within,
                             symdiff_profile as fft_profile)
from addcomb.vc import sampled_vc as bits_sampled_vc


def elements(mods) -> list[tuple[int, ...]]:
    """All coordinate tuples in rank order (first coordinate fastest)."""
    out = []
    order = 1
    for m in mods:
        order *= m
    for r in range(order):
        coords = []
        rest = r
        for m in mods:
            rest, c = divmod(rest, m)
            coords.append(c)
        out.append(tuple(coords))
    return out


def add(mods, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, mods))


def neg(mods, a):
    return tuple((-x) % m for x, m in zip(a, mods))


def translate(mods, aset, x):
    return {add(mods, a, x) for a in aset}


@functools.lru_cache(maxsize=None)
def digit_masks(mods) -> list[list[int]]:
    """digit_masks(mods)[i][k]: bitset of the ranks whose i-th coordinate is k."""
    out = [[0] * m for m in mods]
    for r, coords in enumerate(elements(mods)):
        for i, c in enumerate(coords):
            out[i][c] |= 1 << r
    return out


def rotate_coord(bits: int, masks: list[int], m: int, blk: int, c: int) -> int:
    """Send every digit k of one coordinate to k+c (mod m) inside the bitset."""
    out = 0
    for k in range(m):
        part = bits & masks[k]
        if not part:
            continue
        nk = k + c
        if nk >= m:
            nk -= m
        delta = (nk - k) * blk
        out |= part << delta if delta >= 0 else part >> -delta
    return out


def translate_bits_by_digit(mods, bits: int, x_rank: int) -> int:
    """Bitset translate by x, one digit of one coordinate at a time."""
    blk = 1
    for m, masks in zip(mods, digit_masks(tuple(mods))):
        x_rank, c = divmod(x_rank, m)
        if c:
            bits = rotate_coord(bits, masks, m, blk, c)
        blk *= m
    return bits


def convolution_counts(mods, x_bits: int, y_bits: int,
                       reflect: bool = False) -> list[int]:
    """#{(x, y) in X x Y : x + y = z}, or x - y = z with reflect, for every
    rank z, from one digit-mask translate per rank: x + y = z exactly when
    y is in -X + z, and x - y = z exactly when x is in Y + z."""
    order = math.prod(mods)
    if reflect:
        return [(translate_bits_by_digit(mods, y_bits, z) & x_bits).bit_count()
                for z in range(order)]
    neg_x = negate_bits_by_digit(mods, x_bits)
    return [(translate_bits_by_digit(mods, neg_x, z) & y_bits).bit_count()
            for z in range(order)]


def negate_bits_by_digit(mods, bits: int) -> int:
    """Bitset negation, one digit of one coordinate at a time: digit k of
    every coordinate moves to m - k (mod m)."""
    blk = 1
    for m, masks in zip(mods, digit_masks(tuple(mods))):
        out = bits & masks[0]
        for k in range(1, m):
            delta = (m - 2 * k) * blk
            part = bits & masks[k]
            out |= part << delta if delta >= 0 else part >> -delta
        bits = out
        blk *= m
    return bits


_HEX = "0123456789abcdef"


def bits_to_hex_by_nibble(bits: int, order: int) -> str:
    """Little-endian hex: character j encodes bits 4j..4j+3."""
    if bits < 0 or bits >> order:
        raise ValueError("bitset out of range for the given order")
    return "".join(_HEX[(bits >> (4 * j)) & 0xF]
                   for j in range((order + 3) // 4))


def hex_to_bits_by_nibble(s: str, order: int) -> int:
    if len(s) != (order + 3) // 4:
        raise ValueError(
            f"hex length {len(s)} does not match order {order}"
        )
    bits = 0
    for j, ch in enumerate(s.lower()):
        v = _HEX.find(ch)
        if v < 0:
            raise ValueError(f"bad hex character {ch!r}")
        bits |= v << (4 * j)
    if bits >> order:
        raise ValueError("hex string sets bits beyond the group order")
    return bits


def sumset(mods, aset, bset):
    return {add(mods, a, b) for a in aset for b in bset}


def symdiff_size(aset, bset):
    return len(aset ^ bset)


def symdiff_profile(a) -> list[int]:
    """|A xor (A+x)| for every rank x, from |G| big-int translates."""
    g = a.group
    card = a.bits.bit_count()
    return [2 * (card - (a.bits & translate_bits(g, a.bits, x)).bit_count())
            for x in range(g.order)]


def ball(mods, aset, delta: Fraction):
    order = len(elements(mods))
    out = set()
    for x in elements(mods):
        if symdiff_size(aset, translate(mods, aset, x)) <= delta * order:
            out.add(x)
    return out


def stabilizer(mods, aset):
    return {x for x in elements(mods) if translate(mods, aset, x) == aset}


def subgroup_closure(mods, gens):
    zero = tuple(0 for _ in mods)
    out = {zero}
    while True:
        grown = set(out)
        for a in out:
            for g in gens:
                grown.add(add(mods, a, g))
        if grown == out:
            return out
        out = grown


def all_subgroups(mods, max_rank: int) -> set[frozenset]:
    """Closures of all generator tuples of length <= max_rank.  Complete
    whenever max_rank is at least the rank of the group, because a subgroup
    of a finite abelian group never needs more generators than the group."""
    elems = elements(mods)
    found = set()
    for k in range(max_rank + 1):
        for gens in itertools.product(elems, repeat=k):
            found.add(frozenset(subgroup_closure(mods, gens)))
    return found


def subgroup_count_rank2(m: int, n: int) -> int:
    """Number of subgroups of Z_m x Z_n: sum over a|m, b|n of gcd(a, b)."""
    import math

    total = 0
    for a in range(1, m + 1):
        if m % a:
            continue
        for b in range(1, n + 1):
            if n % b:
                continue
            total += math.gcd(a, b)
    return total


def is_shattered(traces, subset) -> bool:
    want = 1 << len(subset)
    seen = {frozenset(t & subset) for t in traces}
    return len(seen) == want


def vc_dimension(traces, ground) -> int:
    """Exhaustive: largest k admitting a shattered k-subset of ground."""
    traces = [set(t) for t in traces]
    best = 0
    for k in range(1, len(ground) + 1):
        if len(traces) < 1 << k:
            break
        if any(is_shattered(traces, frozenset(c))
               for c in itertools.combinations(ground, k)):
            best = k
        else:
            break
    return best


def set_vc_dimension(mods, aset) -> int:
    elems = elements(mods)
    traces = {frozenset(translate(mods, aset, x)) for x in elems}
    return vc_dimension(list(traces), elems)


def shattered_witness(traces, ground_positions, stop_at):
    """Depth-first search over every candidate position at every depth (no
    anchor), splitting Python lists of traces: a largest shattered subset of
    the ground positions, ascending, the first one met; with stop_at given,
    the first shattered set of that size.  traces are distinct int bitsets,
    sorted ascending."""
    if len(traces) <= 1:
        return []
    t0 = traces[0]
    diff = 0
    for t in traces:
        diff |= t ^ t0
    cand = [p for p in ground_positions if (diff >> p) & 1]
    best = []
    chosen = []

    def grow(classes, start):
        nonlocal best
        depth = len(chosen)
        if depth > len(best):
            best = list(chosen)
            if depth == stop_at:
                return True
        if depth + min(len(c) for c in classes).bit_length() - 1 <= len(best):
            return False
        for i in range(start, len(cand)):
            if depth + len(cand) - i <= len(best):
                break
            bit = 1 << cand[i]
            split = []
            for cls in classes:
                ones = [t for t in cls if t & bit]
                if not ones or len(ones) == len(cls):
                    split = None
                    break
                split.append(ones)
                split.append([t for t in cls if not t & bit])
            if split is not None:
                chosen.append(cand[i])
                if grow(split, i + 1):
                    return True
                chosen.pop()
        return False

    grow([list(traces)], 0)
    return best


def greedy_packing(mods, aset, delta: Fraction) -> list[tuple[int, ...]]:
    """Scan x in rank order and keep x iff |(A+x) xor (A+w)| > delta*|G|
    for every kept w, comparing translates pairwise."""
    elems = elements(mods)
    bound = delta * len(elems)
    shifted = {x: translate(mods, aset, x) for x in elems}
    kept = []
    for x in elems:
        if all(symdiff_size(shifted[x], shifted[w]) > bound for w in kept):
            kept.append(x)
    return kept


def check_packing(g, ball: int, centers) -> None:
    """Raise unless no center's ball translate holds another center and the
    ball translates cover G, translating the ball once per center."""
    center_bits = 0
    for w in centers:
        center_bits |= 1 << w
    union = 0
    for w in centers:
        t = translate_bits(g, ball, w)
        if (t & center_bits) != 1 << w:
            raise AssertionError("packing separation violated")
        union |= t
    if union != g.full_mask:
        raise AssertionError("packing not maximal")


def from_ranks(g, ranks) -> int:
    """The bitset of the ranks, one shifted bit or'd in per rank; ValueError
    at the first rank out of range."""
    bits = 0
    for r in ranks:
        if not 0 <= r < g.order:
            raise ValueError(f"rank {r} out of range for order {g.order}")
        bits |= 1 << r
    return bits


def random_family_bits(g, density: float, rng: random.Random) -> int:
    """generate_family's random set: rank r is in it when the r-th draw of
    rng.random() is below density, one shifted bit or'd in per rank."""
    bits = 0
    for r in range(g.order):
        if rng.random() < density:
            bits |= 1 << r
    return bits


def bi_induced_exists(mods, aset, u_count, v_count, edges,
                      injective: bool = True) -> bool:
    """Brute scan over all |G|^(u+v) maps."""
    elems = elements(mods)
    for us in itertools.product(elems, repeat=u_count):
        if injective and len(set(us)) != u_count:
            continue
        for vs in itertools.product(elems, repeat=v_count):
            if injective and len(set(vs)) != v_count:
                continue
            ok = True
            for i in range(u_count):
                for j in range(v_count):
                    if (add(mods, us[i], vs[j]) in aset) != ((i, j) in edges):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def bi_induced_density(mods, aset, u_count, v_count, edges) -> Fraction:
    """Exact fraction of all maps (repeats allowed) that bi-induce."""
    elems = elements(mods)
    hits = 0
    for us in itertools.product(elems, repeat=u_count):
        for vs in itertools.product(elems, repeat=v_count):
            ok = True
            for i in range(u_count):
                for j in range(v_count):
                    if (add(mods, us[i], vs[j]) in aset) != ((i, j) in edges):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                hits += 1
    return Fraction(hits, len(elems) ** (u_count + v_count))


def coset_round(mods, aset, hset):
    """Union of H-cosets holding at least half their elements in A."""
    out = set()
    seen = set()
    for x in elements(mods):
        coset = frozenset(translate(mods, hset, x))
        if coset in seen:
            continue
        seen.add(coset)
        if 2 * len(aset & coset) >= len(hset):
            out |= coset
    return out


def v_sweep(a, f, distinct: bool, budget: int):
    """Every phi_v in rank order, y = 0..|G|-1 at every depth (no anchor),
    whose per-u masks all stay nonempty, as (v_ranks, masks); A is
    translated by -y at every visit.  Visits are counted as the library
    counts them."""
    g = a.group
    n = g.order
    full = g.full_mask
    nbhd = [f.u_neighborhood(u) for u in range(f.u_count)]
    visits = 0

    def extend(v_ranks, masks):
        nonlocal visits
        v_idx = len(v_ranks)
        if v_idx == f.v_count:
            yield v_ranks, masks
            return
        for y in range(n):
            if distinct and y in v_ranks:
                continue
            visits += 1
            if visits > budget:
                raise CapExceeded(f"pattern search exceeded {budget} visits")
            t = translate_bits(g, a.bits, neg_rank(g, y))
            new_masks = []
            for u in range(f.u_count):
                m = masks[u] & (t if v_idx in nbhd[u] else (full ^ t))
                if not m:
                    break
                new_masks.append(m)
            else:
                yield from extend(v_ranks + [y], new_masks)

    return extend([], [full] * f.u_count)


def find_bi_induced(a, f, require_injective: bool = True, caps=DEFAULT_CAPS):
    """First accepted phi_v of the unanchored sweep, with each U-vertex on
    the lowest free candidate of its mask."""
    groups_by_nb = {}
    for u in range(f.u_count):
        groups_by_nb.setdefault(f.u_neighborhood(u), []).append(u)
    for v_ranks, masks in v_sweep(a, f, require_injective,
                                  caps.pattern_visit_cap):
        if require_injective and any(masks[us[0]].bit_count() < len(us)
                                     for us in groups_by_nb.values()):
            continue
        u_ranks = [0] * f.u_count
        for us in groups_by_nb.values():
            m = masks[us[0]]
            for u in us:
                low = m & -m
                u_ranks[u] = low.bit_length() - 1
                if require_injective:
                    m ^= low
        return BiInducedWitness(f, a.group, u_ranks, v_ranks)
    return None


def exhaustive_density(a, f, caps=DEFAULT_CAPS) -> Fraction:
    """Sum of the per-u mask-size products over every phi_v of the
    unanchored sweep, over |G|^vertex_count."""
    n = a.group.order
    if n ** f.vertex_count > caps.density_enum_cap:
        raise CapExceeded(
            f"|G|^{f.vertex_count} exceeds density cap {caps.density_enum_cap}"
        )
    total = 0
    for _, masks in v_sweep(a, f, False, caps.density_enum_cap):
        prod = 1
        for m in masks:
            prod *= m.bit_count()
        total += prod
    return Fraction(total, n ** f.vertex_count)


def distance_to_free(a, f, caps=DEFAULT_CAPS) -> int:
    """Flip sets in increasing size, one oracle search per flip set, no
    memo and no witness reuse."""
    g = a.group
    n = g.order
    if n > caps.distance_group_cap:
        raise CapExceeded(
            f"order {n} exceeds distance cap {caps.distance_group_cap}"
        )
    for t in range(n + 1):
        for flips in itertools.combinations(range(n), t):
            b = a.bits
            for p in flips:
                b ^= 1 << p
            if find_bi_induced(GroupSubset(g, b), f, caps=caps) is None:
                return t
    raise AssertionError("every set was tried")


def witness_from_shattering(a, f, caps=DEFAULT_CAPS):
    """witness_from_shattering as it was before it read the shattering
    search's trace table: the library's least shattered set, then a second
    scan of A + x for x in rank order, one translate each, until every
    U-neighborhood pattern on the set has its first translator."""
    fp = augment_f_plus(f)
    g = a.group
    shat = find_shattered_set(a, fp.v_count, caps=caps)
    if shat is None:
        return None
    positions = sorted(shat)
    pos_index = {p: i for i, p in enumerate(positions)}
    want = {}
    for u in range(fp.u_count):
        pat = 0
        for v in fp.u_neighborhood(u):
            pat |= 1 << v
        want[u] = pat
    found = {}
    needed = set(want.values())
    for x in range(g.order):
        if not needed:
            break
        tr = translate_bits(g, a.bits, x)
        pat = 0
        for p in positions:
            if (tr >> p) & 1:
                pat |= 1 << pos_index[p]
        if pat in needed:
            found[pat] = x
            needed.discard(pat)
    if needed:
        raise AssertionError("shattered set failed to realize a pattern")
    u_ranks = [neg_rank(g, found[want[u]]) for u in range(fp.u_count)]
    return BiInducedWitness(f, g, u_ranks, positions[:f.v_count])


def bi_induces(a, f, u_ranks, v_ranks) -> bool:
    """edge(u,v) <=> x_u + y_v in A for every pair, one add_rank per pair."""
    g = a.group
    for u, xr in enumerate(u_ranks):
        for v, yr in enumerate(v_ranks):
            if ((a.bits >> add_rank(g, xr, yr)) & 1) != ((u, v) in f.edges):
                return False
    return True


def draw_chunks(rng: random.Random, n: int, samples: int, width: int):
    """patterns._draw_chunks on rng's own words: getrandbits(32 * w) read as
    w little-endian uint32 words, the top k = n.bit_length() bits of each
    kept below n, in uint32 chunks of _CHUNK rows.  Advances rng."""
    k = n.bit_length()
    if k > 32:
        raise ValueError("bulk draws need n < 2**32")
    spare = np.empty(0, np.uint32)
    for start in range(0, samples, _CHUNK):
        c = min(_CHUNK, samples - start)
        need = c * width
        parts = [spare]
        have = spare.size
        while have < need:
            w = ((need - have) << k) // n + 1
            words = np.frombuffer(
                rng.getrandbits(32 * w).to_bytes(4 * w, "little"), np.uint32)
            vals = words >> (32 - k)
            vals = vals[vals < n]
            parts.append(vals)
            have += vals.size
        got = np.concatenate(parts)
        spare = got[need:]
        yield got[:need].reshape(c, width)


def sample_tester(a, f, samples: int, rng_seed: int) -> TesterReport:
    """One rng.randrange(|G|) per vertex, U first, and the per-pair
    predicate, one sample at a time."""
    n = a.group.order
    rng = random.Random(rng_seed)
    bi = 0
    inj = 0
    for _ in range(samples):
        u_ranks = [rng.randrange(n) for _ in range(f.u_count)]
        v_ranks = [rng.randrange(n) for _ in range(f.v_count)]
        if bi_induces(a, f, u_ranks, v_ranks):
            bi += 1
            if (len(set(u_ranks)) == f.u_count
                    and len(set(v_ranks)) == f.v_count):
                inj += 1
    lo, hi = wilson_interval(bi, samples)
    return TesterReport(samples, bi, bi / samples, lo, hi, inj,
                        inj / samples, "YES" if inj else "NO")


def densify(a, h, f, w, samples: int, rng_seed: int) -> DensifyReport:
    """densify's report from its sampling loop alone (its preconditions are
    not checked): one rng.choice of H's ranks per vertex, U first, added to
    the witness, and the per-pair predicate, one sample at a time."""
    g = a.group
    rng = random.Random(rng_seed)
    h_ranks = h.ranks()
    hits = 0
    for _ in range(samples):
        xs = [add_rank(g, x, rng.choice(h_ranks)) for x in w.phi_u]
        ys = [add_rank(g, y, rng.choice(h_ranks)) for y in w.phi_v]
        if bi_induces(a, f, xs, ys):
            hits += 1
    frac = hits / samples
    sigma = binomial_sigma(hits, samples)
    bound = Fraction(1, 2)
    return DensifyReport(samples, hits, frac, sigma, bound,
                         frac >= float(bound) - 3 * sigma)


def sampled_vc(a, x_size: int, y_size: int, trials: int, d: int,
               rng_seed: int) -> SampledVcReport:
    """sampled_vc's report from hand-built traces: per trial, the translates
    of A by a sorted X sample, cut to a Y sample, searched unanchored."""
    g = a.group
    rng = random.Random(rng_seed)
    hits = 0
    everything = range(g.order)
    for _ in range(trials):
        xs = sorted(rng.sample(everything, x_size))
        ys = sorted(rng.sample(everything, y_size))
        y_bits = sum(1 << r for r in ys)
        traces = sorted({translate_bits(g, a.bits, x) & y_bits for x in xs})
        if len(shattered_witness(traces, ys, d + 1)) > d:
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    return SampledVcReport(x_size, y_size, d, trials, hits, hits / trials,
                           lo, hi)


def separated_sample_bound_check(a, delta: Fraction, m: int, d: int,
                                 trials: int, rng_seed: int
                                 ) -> SeparatedSampleReport:
    """separated_sample_bound_check's report from hand-built traces: the
    translates of A by the pairwise greedy packing's centers, cut to each
    trial's m-sample, searched unanchored."""
    g = a.group
    aset = {g.coords_of(r) for r in a.ranks()}
    centers = [g.rank_of(c) for c in greedy_packing(g.moduli, aset, delta)]
    fam = [translate_bits(g, a.bits, c) for c in centers]
    rng = random.Random(rng_seed)
    low = 0
    for _ in range(trials):
        ys = sorted(rng.sample(range(g.order), m))
        y_bits = sum(1 << r for r in ys)
        traces = sorted({t & y_bits for t in fam})
        if len(shattered_witness(traces, ys, d + 1)) <= d:
            low += 1
    frac = low / trials
    sigma = binomial_sigma(low, trials)
    threshold = 3 * m ** (2 * d) * float((1 - delta) ** m)
    size_bound = 2 * m**d
    applicable = frac - 3 * sigma >= threshold
    holds = (not applicable) or len(fam) <= size_bound
    return SeparatedSampleReport(len(fam), m, d, delta, trials, frac, sigma,
                                 threshold, size_bound, applicable, holds)


def bit_ranks(bits: int) -> list[int]:
    """Ranks of the set bits, ascending, clearing the lowest one at a time."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def closure_with(g, sub_bits: int, x_rank: int) -> int:
    """sub + <x> as the union of sub + k*x over every multiple k*x != 0."""
    acc = sub_bits
    r = x_rank
    while r != 0:
        acc |= translate_bits(g, sub_bits, r)
        r = add_rank(g, r, x_rank)
    return acc


def closure_walk(g, bits: int) -> tuple[int, list[int]]:
    """<bits> and the generators kept: every element in rank order joins the
    closure when the closure so far misses it."""
    acc, gens = 1, []
    for r in bit_ranks(bits):
        if not (acc >> r) & 1:
            gens.append(r)
            acc = closure_with(g, acc, r)
    return acc, gens


def greedy_subgroup_within(g, t_bits: int) -> tuple[int, list[int]]:
    """A maximal subgroup inside t_bits and the generators kept, by the scan
    the library ran before its closure walk took a `within` set: every rank
    of t_bits in order, skipped when the subgroup so far holds it, kept when
    its closure with the subgroup stays inside t_bits.  The closure is the
    library's _closure_with, checked on its own against closure_with."""
    sub, gens = 1, []
    for x in bit_ranks(t_bits):
        if x == 0 or (sub >> x) & 1:
            continue
        grown = _closure_with(g, sub, x)
        if grown & ~t_bits == 0:
            sub = grown
            gens.append(x)
    return sub, gens


def is_union_of_cosets(g, s_bits: int, h_bits: int) -> bool:
    """S + x = S for every element x of H."""
    return all(translate_bits(g, s_bits, x) == s_bits for x in bit_ranks(h_bits))


def full_lattice(g) -> list[tuple[int, tuple[int, ...]]]:
    """The subgroup lattice search closing sub + <x> for every subgroup sub
    and every x outside it, in the same depth-first order."""
    seen = {1: ()}
    queue = [1]
    while queue:
        sub = queue.pop()
        gens = seen[sub]
        for x in bit_ranks(g.full_mask & ~sub):
            grown = closure_with(g, sub, x)
            if grown not in seen:
                seen[grown] = gens + (x,)
                queue.append(grown)
    return sorted(seen.items(), key=lambda kv: (-kv[0].bit_count(), kv[0]))


def kneser_fill_check(a, t: int) -> KneserReport:
    """Up to 2t - 1 sumsets X + A from X = A, stopping only once X = G."""
    if t < 1:
        raise ValueError("t must be >= 1")
    g = a.group
    if a.size == 0:
        return KneserReport(t, False, False, False, False, 0, False)
    generates = closure_walk(g, a.bits)[0] == g.full_mask
    size_ok = a.size * t >= g.order
    contains_zero = bool(a.bits & 1)
    cur = a
    for _ in range(2 * t - 1):
        cur = translate_sumset(cur, a)
        if cur.bits == g.full_mask:
            break
    return KneserReport(t, generates, size_ok, contains_zero,
                        generates and size_ok and contains_zero,
                        cur.size, cur.bits == g.full_mask)


def translate_sumset(a, b):
    """A + B as the library formed it before the convolution kernel: the
    larger set translated by each element of the smaller one, stopping once
    the union is G."""
    g = a.group
    if a.size == 0 or b.size == 0:
        return GroupSubset.empty(g)
    small, large = (a, b) if a.size <= b.size else (b, a)
    acc = 0
    for r in small.ranks():
        acc |= translate_bits(g, large.bits, r)
        if acc == g.full_mask:
            break
    return GroupSubset(g, acc)


def iterated_doubling(b, delta) -> DoublingTrace:
    """Doubling by translate sumsets, with K from the float expression the
    library used before it read K past the floats."""
    d = _to_fraction(delta)
    k = max(math.exp(math.log(1 / d) ** 0.2), 2.0) if 0 < d < 1 else 2.0
    cur, ell, sizes = b, 1, [b.size]
    while True:
        nxt = translate_sumset(cur, cur)
        sizes.append(nxt.size)
        if nxt.size <= k * cur.size:
            return DoublingTrace(b, k, ell, cur, nxt, tuple(sizes))
        cur, ell = nxt, 2 * ell


def pipeline_step(a, ball, caps=DEFAULT_CAPS):
    """One delta of the pipeline from scratch: its own doubling, the spread
    2lB - 2lB by translates of the negated set, H and the rounding."""
    trace = iterated_doubling(ball.members, ball.delta)
    x = trace.double_set
    h = max_subgroup_within(translate_sumset(x, x.negated()), caps=caps)
    s = bits_coset_round(a, h)
    err = Fraction((a.bits ^ s.bits).bit_count(), a.group.order)
    return trace, h, s, err


def regularize(a, epsilon, *, delta_schedule=None, max_index=None,
               caps=DEFAULT_CAPS):
    """The regularity sweep with a fresh pipeline_step for every delta."""
    eps = _to_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must be in [0, 1]")
    g = a.group
    schedule = (list(delta_schedule) if delta_schedule is not None
                else default_delta_schedule(eps, g.order))
    prof = fft_profile(a)
    best, best_key = None, None
    for pos, delta in enumerate(schedule):
        ball = _ball(a, prof, delta)
        trace, h, s, err = pipeline_step(a, ball, caps)
        if err > eps or (max_index is not None and h.index > max_index):
            continue
        key = (h.index, h.bits, pos)
        if best_key is None or key < best_key:
            best_key = key
            best = _certificate(a, eps, ball.delta, trace, h, s, err)
    return best if best is not None else _degenerate_certificate(a, eps)


def robust_pipeline(a, epsilon, d, *, c_constant=8.0, trials=50,
                    delta_schedule=None, caps=DEFAULT_CAPS, rng_seed=0):
    """The dichotomy sweep with a fresh pipeline_step for every delta."""
    eps = _to_fraction(epsilon)
    if d < 1:
        raise ValueError("d must be >= 1")
    g = a.group
    schedule = (list(delta_schedule) if delta_schedule is not None
                else default_delta_schedule(eps, g.order))
    prof = fft_profile(a)
    steps = []
    deltas = [*schedule, Fraction(1, 2 * g.order)]
    for pos, delta in enumerate(deltas):
        dd = _to_fraction(delta)
        if dd == 0:
            continue
        m_raw, m_eff = _robust_m(dd, d, g.order, c_constant)
        denom = 12 * m_eff**d
        threshold = Fraction(g.order, denom)
        ball = _ball(a, prof, dd)
        if ball.size * denom < g.order:
            steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                    "small_ball"))
            report = bits_sampled_vc(a, min(12 * m_eff**d, g.order),
                                     min(max(m_eff, d + 1), g.order), trials,
                                     d, rng_seed, caps=caps)
            return RobustOutcome("high_vc", d, report, None, tuple(steps))
        trace, h, s, err = pipeline_step(a, ball, caps)
        if err <= eps or pos == len(deltas) - 1:
            steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                    "certificate"))
            cert = _certificate(a, eps, dd, trace, h, s, err)
            return RobustOutcome("certificate", d, None, cert, tuple(steps))
        steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                "continue"))
