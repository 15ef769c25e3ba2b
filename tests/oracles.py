"""Brute-force reference implementations for cross-checking.

Everything here works on plain coordinate tuples and element sets, never on
the library's bitsets or profiles, so agreement between the two is
meaningful.  Only usable at tiny sizes.  These exceptions work on int
bitsets: the bitset translation and negation by digit masks (digit_masks,
rotate_coord, translate_bits_by_digit, negate_bits_by_digit), which build
their own masks, the references for the library's two-shift translation
kernel and its reversal-plus-translate negation; the hex codec one nibble at
a time (bits_to_hex_by_nibble, hex_to_bits_by_nibble), the reference for the
library's format/int codec; shattered_witness, the unanchored shattering
search the library ran before it anchored the full translate system at 0,
the reference for the anchored search; the patterns layer as it was before
its column table, its anchored V-side sweep and its witness reuse (v_sweep,
find_bi_induced, exhaustive_density, distance_to_free), which translates A
at every visit and searches every flip set; and the sampled checks as they
were before the bulk numpy path (bi_induces, sample_tester, densify), one rng
call per coordinate and one add_rank per pair, the reference for the
replayed draws and the vectorized predicate; and the sampled VC checks as
they were before they ran through vc_dimension (sampled_vc,
separated_sample_bound_check), which build each trial's traces by hand and
search them with shattered_witness; and the symmetric-difference profile
as it was before the transform (symdiff_profile), one big-int translate per
rank, the reference for the library's FFT autocorrelation.
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from addcomb.caps import DEFAULT_CAPS, CapExceeded
from addcomb.groups import add_rank, neg_rank, translate_bits
from addcomb.patterns import BiInducedWitness, DensifyReport, TesterReport
from addcomb.vc import SampledVcReport, SeparatedSampleReport
from addcomb.stats import binomial_sigma, wilson_interval
from addcomb.subsets import GroupSubset


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
    anchor): a largest shattered subset of the ground positions, ascending,
    the first one met; with stop_at given, the first shattered set of that
    size.  traces are distinct int bitsets, sorted ascending."""
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


def _witness(f, g, u_ranks, v_ranks) -> BiInducedWitness:
    return BiInducedWitness(
        f,
        tuple(g.element(r) for r in u_ranks),
        tuple(g.element(r) for r in v_ranks),
        len(set(u_ranks)) == len(u_ranks),
        len(set(v_ranks)) == len(v_ranks),
    )


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
        return _witness(f, a.group, u_ranks, v_ranks)
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


def bi_induces(a, f, u_ranks, v_ranks) -> bool:
    """edge(u,v) <=> x_u + y_v in A for every pair, one add_rank per pair."""
    g = a.group
    for u, xr in enumerate(u_ranks):
        for v, yr in enumerate(v_ranks):
            if ((a.bits >> add_rank(g, xr, yr)) & 1) != ((u, v) in f.edges):
                return False
    return True


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
        xs = [add_rank(g, e.rank, rng.choice(h_ranks)) for e in w.phi_u]
        ys = [add_rank(g, e.rank, rng.choice(h_ranks)) for e in w.phi_v]
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
