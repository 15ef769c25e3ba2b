"""Brute-force reference implementations for cross-checking.

Everything here works on plain coordinate tuples and element sets, never on
the library's bitsets or cached profiles, so agreement between the two is
meaningful.  Only usable at tiny sizes.  Two exceptions work on int
bitsets: the bitset translation by digit masks (digit_masks, rotate_coord,
translate_bits_by_digit), the reference for the library's two-shift
translation kernel, which builds its own masks; and shattered_witness, the
unanchored shattering search the library ran before it anchored the full
translate system at 0, the reference for the anchored search.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction


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


def sumset(mods, aset, bset):
    return {add(mods, a, b) for a in aset for b in bset}


def symdiff_size(aset, bset):
    return len(aset ^ bset)


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
