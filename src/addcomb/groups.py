"""Finite abelian groups as products of cyclic factors, with bitset machinery.

A group is a product Z_m0 x Z_m1 x ... The element (c0, c1, ...) has rank
c0 + c1*m0 + c2*m0*m1 + ... (little-endian mixed radix).  Subsets of the group
are stored as Python ints used as bitsets: bit r set means rank r is in the
set.  A translate rotates each coordinate with two masked shifts, so it costs
O(len(moduli) * |G|/wordsize).  Negation is one bit reversal plus one
translate, also O(len(moduli) * |G|/wordsize), and nothing at all when every
modulus is 2.  Both replace O(|G|) Python-level bit moves.  Subgroups are
closed and checked through generating sets, with O(log |H|) translates
rather than O(|H|).  Two least-rank walks serve the subgroup and coset
jobs: _closure_walk grows a subgroup by the least rank it has not tried (the
subgroup a set generates, or a maximal subgroup inside a set), and
_cover_walk translates a set by the least rank it has not covered, one
|G|-bit translate per rank taken.  cosets() needs those translates, the
cosets of a subgroup.  Where only the ranks are needed (the least rank of
each coset, the centers of a greedy ball packing), _cover_ranks takes the
same ranks by marking the translates in a bytearray from a table of rank
sums (_add_ranks, numpy's digit add), in O(|G| |B|) work for a set B, and
keeps _cover_walk where the set is dense enough that its few translates
cost less (_rank_walk_pays).  An element (GroupElement) is its group and
its rank; its coordinates are computed from the rank when read.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
import re
from typing import Iterator, Sequence

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS

__all__ = [
    "GroupDescriptor",
    "GroupElement",
    "Subgroup",
    "add",
    "negate",
    "generated_subgroup",
    "enumerate_subgroups",
    "cosets",
    "coset_representatives",
    "find_complement",
]


@dataclasses.dataclass(frozen=True)
class GroupDescriptor:
    """A finite abelian group given by its cyclic moduli (each >= 2).  A
    modulus must be an integer (operator.index): 2.5 or "3" raises
    TypeError rather than being truncated or parsed."""

    moduli: tuple[int, ...]

    def __init__(self, moduli: Sequence[int], order_cap: int | None = None):
        mods = tuple(operator.index(m) for m in moduli)
        if not mods:
            raise ValueError("group needs at least one modulus")
        if any(m < 2 for m in mods):
            raise ValueError(f"moduli must be >= 2, got {mods}")
        order = math.prod(mods)
        cap = DEFAULT_CAPS.order_cap if order_cap is None else order_cap
        if order > cap:
            raise CapExceeded(f"group order {order} exceeds cap {cap}")
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_full_mask", (1 << order) - 1)
        # _blocks[i]: the rank step of coordinate i, m0*...*m(i-1)
        blocks = tuple(math.prod(mods[:i]) for i in range(len(mods)))
        object.__setattr__(self, "_blocks", blocks)

    @functools.cached_property
    def _reps(self) -> tuple[int, ...]:
        """_reps[i]: one bit at the start of every period of block*m bits, the
        ranks whose coordinates 0..i are all zero.  Built by doubling shifts;
        full // (2**period - 1) gives the same ints, but that big-int division
        takes over a second on (Z/2)^20."""
        reps = []
        for m, blk in zip(self.moduli, self._blocks):
            r, w = 1, blk * m
            while w < self._order:
                r |= r << w
                w <<= 1
            reps.append(r & self._full_mask)
        return tuple(reps)

    @property
    def order(self) -> int:
        return self._order

    @property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def full_mask(self) -> int:
        return self._full_mask

    def element(self, rank: int) -> "GroupElement":
        if not 0 <= rank < self.order:
            raise ValueError(f"rank {rank} out of range for order {self.order}")
        return GroupElement(self, rank)

    def element_from_coords(self, coords: Sequence[int]) -> "GroupElement":
        """The element with these coordinates, each reduced modulo its
        modulus.  A coordinate must be an integer (operator.index): 1.5 or
        "3" raises TypeError rather than being truncated or parsed."""
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        return GroupElement(self, self.rank_of(
            [operator.index(c) % m for c, m in zip(coords, self.moduli)]))

    def rank_of(self, coords: Sequence[int]) -> int:
        r = 0
        for c, b in zip(coords, self._blocks):
            r += c * b
        return r

    def coords_of(self, rank: int) -> tuple[int, ...]:
        out = []
        for m in self.moduli:
            rank, c = divmod(rank, m)
            out.append(c)
        return tuple(out)

    def zero(self) -> "GroupElement":
        return self.element(0)

    def elements(self) -> Iterator["GroupElement"]:
        for r in range(self.order):
            yield self.element(r)

    def __repr__(self) -> str:
        return f"GroupDescriptor({list(self.moduli)})"


@dataclasses.dataclass(frozen=True, slots=True)
class GroupElement:
    """One group element: its group and its rank, equal (and hashed alike)
    exactly when both are.  GroupDescriptor.element and element_from_coords
    build it with a rank in range."""

    group: GroupDescriptor
    rank: int

    @property
    def coords(self) -> tuple[int, ...]:
        """The coordinates, computed from the rank (coords_of) when read."""
        return self.group.coords_of(self.rank)

    def __repr__(self) -> str:
        return f"<{self.coords} rank {self.rank}>"


# _REV8[b]: the byte b with its 8 bits in reverse order
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def translate_bits(g: GroupDescriptor, bits: int, x_rank: int) -> int:
    """Bitset of {a + x : a in the set described by bits}.

    Coordinate i (block b, modulus m, shift c) rotates with two masked
    shifts: its digits k < m - c move up to k + c, the rest wrap down to
    k + c - m.  With rep = reps[i] and s = (m - c) * b,

        low  = bits & ((rep << s) - rep)    # digit < m - c in every period
        bits = (low << c * b) | ((bits ^ low) >> s)

    (rep << s) - rep is rep * (2**s - 1): a run of s ones at the start of
    every period.  About six big-int operations per coordinate, whatever m.
    """
    r = x_rank
    for m, blk, rep in zip(g.moduli, g._blocks, g._reps):
        r, c = divmod(r, m)
        if c:
            s = (m - c) * blk
            low = bits & ((rep << s) - rep)
            bits = (low << (c * blk)) | ((bits ^ low) >> s)
    return bits


def negate_bits(g: GroupDescriptor, bits: int) -> int:
    """Bitset of {-a : a in the set described by bits}.

    Reversing the |G| bits sends rank r to |G| - 1 - r, whose digits are
    m_i - 1 - c_i.  So -A = rev(A) + (1, ..., 1): one byte-wise reversal,
    then one translate by the rank of (1, ..., 1), sum(blocks).  When every
    modulus is 2, -a = a and the set is returned as it is.
    """
    if max(g.moduli) == 2:
        return bits
    n = g.order
    nb = (n + 7) // 8
    rev = int.from_bytes(bits.to_bytes(nb, "big").translate(_REV8),
                         "little") >> (8 * nb - n)
    return translate_bits(g, rev, sum(g._blocks))


def add_rank(g: GroupDescriptor, a: int, b: int) -> int:
    """Rank of the sum of the elements with ranks a and b."""
    out = 0
    for m, blk in zip(g.moduli, g._blocks):
        a, ca = divmod(a, m)
        b, cb = divmod(b, m)
        s = ca + cb
        if s >= m:
            s -= m
        out += s * blk
    return out


def neg_rank(g: GroupDescriptor, a: int) -> int:
    out = 0
    for m, blk in zip(g.moduli, g._blocks):
        a, c = divmod(a, m)
        if c:
            out += (m - c) * blk
    return out


def _rank_dtype(g: GroupDescriptor) -> type:
    """The unsigned dtype numpy holds ranks of g in: uint32 while
    |G| <= 2**31, which covers every order the default order_cap admits, as
    every rank is then below 2**31 and every digit sum, at most 2m - 2, below
    2**32; uint64 beyond."""
    return np.uint32 if g.order <= 1 << 31 else np.uint64


def _add_ranks(g: GroupDescriptor, a: np.ndarray,
               b: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) add_rank of two arrays of ranks of g, in their
    unsigned dtype, which must be _rank_dtype(g) or wider.

    One digit decomposition per coordinate; the first has block 1 and needs
    no division, and the last digit needs no modulo, since a rank is below
    |G|.  A digit sum s < 2m wraps to min(s, s - m): when s < m the
    subtraction underflows to s - m + 2**bits > s, so min keeps s, and
    otherwise it is s - m.  When every modulus is 2 the digits are the bits
    of the rank and add without carry, so the sum is a ^ b."""
    if max(g.moduli) == 2:
        return a ^ b
    last = len(g.moduli) - 1
    out = None
    for i, (m, blk) in enumerate(zip(g.moduli, g._blocks)):
        da, db = (a // blk, b // blk) if i else (a, b)
        if i < last:
            da, db = da % m, db % m
        s = da + db
        s = np.minimum(s, s - m)
        out = out + s * blk if i else s
    return out


def _factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) of each prime factor of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def add(g: GroupDescriptor, a: GroupElement, b: GroupElement) -> GroupElement:
    """Sum of two elements (componentwise mod the group's moduli)."""
    if a.group != g or b.group != g:
        raise ValueError("element does not belong to this group")
    return g.element(add_rank(g, a.rank, b.rank))


def negate(g: GroupDescriptor, a: GroupElement) -> GroupElement:
    if a.group != g:
        raise ValueError("element does not belong to this group")
    return g.element(neg_rank(g, a.rank))


@dataclasses.dataclass(frozen=True)
class Subgroup:
    """A subgroup: membership bitset, a generating list, and its index."""

    group: GroupDescriptor
    bits: int
    generators: tuple[GroupElement, ...]
    index: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def contains_rank(self, r: int) -> bool:
        return bool((self.bits >> r) & 1)

    def ranks(self) -> list[int]:
        return _bit_ranks(self.bits)

    def verify(self) -> bool:
        """Re-check from the bitset alone: its elements generate exactly
        itself (so it holds 0 and their negations), and index * size = |G|."""
        return self._walk()[0]

    def _walk(self) -> tuple[bool, list[int]]:
        """(verify's answer, ranks that generate the closure of the bits):
        one _closure_walk gives both, so a caller needing both walks H once.
        self.generators is never read."""
        closure, gens = _closure_walk(self.group, self.bits)
        return (closure == self.bits
                and self.index * self.size == self.group.order), gens


def _is_union_of_cosets(g: GroupDescriptor, s_bits: int,
                        h_gens: Sequence[int]) -> bool:
    """True iff S + x = S for every x in the subgroup H the ranks h_gens
    generate, i.e. S is a union of H-cosets.  Those x form a subgroup, so
    H's generators suffice; callers pass the ones _closure_walk keeps from
    H's bits, since a certificate's Subgroup.generators are never trusted."""
    return all(translate_bits(g, s_bits, x) == s_bits for x in h_gens)


def _bit_ranks(bits: int) -> list[int]:
    """Ranks of the set bits, ascending, in O(|G|) plus O(1) per rank."""
    return [m.start() for m in re.finditer("1", format(bits, "b")[::-1])]


def _make_subgroup(
    g: GroupDescriptor, bits: int, gen_ranks: Sequence[int]
) -> Subgroup:
    size = bits.bit_count()
    if not bits & 1 or g.order % size != 0:
        raise ValueError("not a subgroup bitset")
    gens = tuple(g.element(r) for r in gen_ranks)
    return Subgroup(g, bits, gens, g.order // size)


def _closure_with(g: GroupDescriptor, sub_bits: int, x_rank: int) -> int:
    """sub + <x> for a subgroup sub (every caller passes one), by doubling:
    after j steps acc = sub + {0, x, ..., (2^j-1)x}; it stops once 2^j x is
    in acc, exactly when 2^j >= n, the order of x modulo sub: ceil(log2 n)
    translates in all."""
    acc = sub_bits
    step = x_rank
    while not (acc >> step) & 1:
        acc |= translate_bits(g, acc, step)
        step = add_rank(g, step, step)
    return acc


def _rank_in(g: GroupDescriptor, e: GroupElement | int) -> int:
    """The rank e is (an int) or has; ValueError for an element of another
    group, whose rank names another element."""
    if isinstance(e, int):
        return e
    if e.group != g:
        raise ValueError("element does not belong to this group")
    return e.rank


def generated_subgroup(
    g: GroupDescriptor, gens: Sequence[GroupElement | int]
) -> Subgroup:
    """Smallest subgroup containing all of gens (ranks, or elements of g)."""
    bits = 1
    ranks = []
    for e in gens:
        r = _rank_in(g, e)
        if not 0 <= r < g.order:
            raise ValueError(f"rank {r} out of range")
        ranks.append(r)
        bits = _closure_with(g, bits, r)
    return _make_subgroup(g, bits, ranks)


def _closure_walk(g: GroupDescriptor, bits: int,
                  within: int = -1) -> tuple[int, list[int]]:
    """The closure's bitset and the generators kept, when the least rank of
    bits not yet tried joins the closure if the closure with it stays inside
    within, until every rank of bits is in the closure or tried.  A rank
    kept out stays out, since a larger closure with it leaves within too,
    and so does its whole coset r + acc: for h in acc, acc + <r + h>
    contains r, so it leaves within as well.  With within = -1 (every rank)
    the closure is the subgroup bits generate; with within = bits it is a
    maximal subgroup inside bits."""
    acc, gens = 1, []
    rest = bits & ~1
    outside = ~within
    while rest:
        r = (rest & -rest).bit_length() - 1
        grown = _closure_with(g, acc, r)
        if grown & outside:
            rest &= ~translate_bits(g, acc, r)
        else:
            gens.append(r)
            acc = grown
            rest &= ~acc
    return acc, gens


def subgroup_from_bits(g: GroupDescriptor, bits: int) -> Subgroup:
    """Interpret a bitset as a subgroup, with a greedy generating set.

    Raises ValueError when the bitset is not closed under the group law."""
    if not bits & 1:
        raise ValueError("subgroup bitset must contain 0")
    acc, gens = _closure_walk(g, bits)
    if acc != bits:
        raise ValueError("bitset is not closed under addition")
    return _make_subgroup(g, bits, gens)


# 64 lattices hold every group the exhaustive sweeps walk (the 24 abelian
# groups of order 2..16) with room to spare
@functools.lru_cache(maxsize=64)
def _full_lattice(g: GroupDescriptor) -> list[tuple[int, tuple[int, ...]]]:
    """All subgroups as (bits, generator_ranks), sorted by (-size, bits).

    A depth-first search grows each subgroup sub by each x outside it in rank
    order, but skips every y with sub + <y> = sub + <x> once x is done: the
    y in sub + <x> outside each sub + <p*x>, p a prime dividing the index."""
    seen: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    while queue:
        sub = queue.pop()
        rest = g.full_mask & ~sub
        while rest:
            x = (rest & -rest).bit_length() - 1
            grown = _closure_with(g, sub, x)
            if grown not in seen:
                seen[grown] = seen[sub] + (x,)
                queue.append(grown)
            for p, _ in _factorize(grown.bit_count() // sub.bit_count()):
                px = g.element_from_coords([p * c for c in g.coords_of(x)])
                grown &= ~_closure_with(g, sub, px.rank)
            rest &= ~grown
    return sorted(seen.items(), key=lambda kv: (-kv[0].bit_count(), kv[0]))


def enumerate_subgroups(
    g: GroupDescriptor,
    max_index: int | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[Subgroup]:
    """Every subgroup of g, sorted by (size desc, bitset value asc).

    max_index keeps only subgroups of index <= max_index.  Full enumeration is
    capped by caps.subgroup_enum_cap on the group order.
    """
    if g.order > caps.subgroup_enum_cap:
        raise CapExceeded(
            f"order {g.order} exceeds subgroup enumeration cap "
            f"{caps.subgroup_enum_cap}"
        )
    out = []
    for bits, gens in _full_lattice(g):
        size = bits.bit_count()
        idx = g.order // size
        if max_index is not None and idx > max_index:
            continue
        out.append(_make_subgroup(g, bits, gens))
    return out


def _cover_walk(g: GroupDescriptor, bits: int) -> Iterator[tuple[int, int]]:
    """(r, bits + r) for r the least rank no translate so far covers, until
    the translates cover G.  bits must hold 0, so each translate covers its
    own r.  A subgroup's bits give its cosets by minimum rank
    (cosets()); _cover_ranks takes the same ranks without the bitsets."""
    covered = 0
    while covered != g.full_mask:
        r = (~covered & (covered + 1)).bit_length() - 1
        c = translate_bits(g, bits, r)
        yield r, c
        covered |= c


# _cover_ranks builds its table of r + B this many entries at a time
_COVER_TABLE_ENTRIES = 1 << 16
# the cost models of _rank_walk_pays, in microseconds
_CW_FIXED, _CW_CENTER, _CW_AXIS, _CW_WORD_AXIS, _CW_WORD = (
    8.9, 0.72, 0.51, 0.0020, 0.0126)
_CR_FIXED, _CR_ENTRY, _CR_ENTRY_PASS, _CR_CENTER, _CR_MEMBER = (
    15.7, 0.0156, 0.0034, 0.46, 0.052)


def _cover_ranks(g: GroupDescriptor, bits: int) -> list[int]:
    """The ranks r that _cover_walk(g, bits) yields, without the bitsets.

    bits (the set B) must hold 0.  A bytearray marks the covered ranks, so
    the next r is covered.find(0, r + 1), and r marks r + B, one row of a
    table of rank sums (_add_ranks over a chunk of consecutive ranks and B's
    members, _COVER_TABLE_ENTRIES entries at a time, from r on).  So the
    walk costs O(|G| |B|) entries, where _cover_walk costs one |G|-bit
    translate per r.  When B is dense its few translates cost less than the
    table, and the walk is _cover_walk (the cost rule, _rank_walk_pays)."""
    size = bits.bit_count()
    if not _rank_walk_pays(g, size):
        return [r for r, _ in _cover_walk(g, bits)]
    n = g.order
    dtype = _rank_dtype(g)
    ball = np.array(_bit_ranks(bits), dtype)
    rows = _COVER_TABLE_ENTRIES // size
    covered = bytearray(n)
    centers = []
    r = lo = end = 0
    while r >= 0:
        if r >= end:
            lo, end = r, min(n, r + rows)
            starts = np.arange(lo, end, dtype=dtype)[:, None]
            table = _add_ranks(g, starts, ball).tolist()
        for t in table[r - lo]:
            covered[t] = 1
        centers.append(r)
        r = covered.find(0, r + 1)
    return centers


def _rank_walk_pays(g: GroupDescriptor, size: int) -> bool:
    """The cost rule: whether _cover_ranks's table walk costs less than
    _cover_walk for a set B of this size (holding 0).

    The walk takes at least |G|/|B| centers, as their translates cover G,
    and exactly that many for a subgroup; the rule assumes that many.  A
    center costs a translate and a scan of w = ceil(|G|/64) words in
    _cover_walk, and the marking of |B| bytes in the table walk.  A chunk
    of the table holds rows = floor(_COVER_TABLE_ENTRIES/|B|) rows from a
    center on, so with centers |B| apart the table holds |G| min(|B|, rows)
    entries; a set with no row in that bound keeps _cover_walk.  An entry
    costs one pass per coordinate (one in all when every modulus is 2) and
    a list item.  Fitted once by least squares (relative error, nonnegative
    terms) to the best times of both walks on 305 sets over 26 shapes of
    order 16 to 2^20 (the table walk alone on 4, where _cover_walk takes
    seconds): random sets holding 0, of every power-of-two size up to |G|/4
    through order 65536, subgroups, and intervals about 0 (2-core x86-64,
    Python 3.11.7, numpy 2.4.6), in microseconds, for k axes:

        _cover_walk: 8.9 + per center 0.72 + 0.51 k + 0.0020 k w + 0.0126 w
        table walk:  15.7 + per entry 0.0156 + 0.0034 passes
                          + per center 0.46 + 0.052 |B|

    On 80% of the sets both models read 0.4 to 1.3 times the measured
    walk.  Where the rule picks the table walk it was slower than
    _cover_walk on 9 of the sets: by up to 1.8 times on groups of order
    <= 96 (tens of microseconds), and by at most 1.15 times on the others.
    Where it keeps _cover_walk the table walk was up to 40 times faster: on
    random sets, which can take 8 |G|/|B| centers, and on subgroups whose
    cosets' least ranks are consecutive, so that every row of the table is
    a center."""
    rows = _COVER_TABLE_ENTRIES // size
    if not rows:
        return False
    n = g.order
    k = len(g.moduli)
    w = (n + 63) // 64
    passes = 1 if max(g.moduli) == 2 else k
    centers = n / size
    entries = n * min(size, rows)
    table = (_CR_FIXED + entries * (_CR_ENTRY + _CR_ENTRY_PASS * passes)
             + centers * (_CR_CENTER + _CR_MEMBER * size))
    bitset = _CW_FIXED + centers * (_CW_CENTER + _CW_AXIS * k
                                    + _CW_WORD_AXIS * k * w + _CW_WORD * w)
    return table < bitset


def cosets(g: GroupDescriptor, h: Subgroup) -> list[int]:
    """Coset bitsets of h in g, ordered by minimum representative rank."""
    if h.group != g:
        raise ValueError("subgroup does not belong to this group")
    return [c for _, c in _cover_walk(g, h.bits)]


def coset_representatives(g: GroupDescriptor, h: Subgroup) -> list[int]:
    """Minimum-rank representative of each coset, in coset order."""
    if h.group != g:
        raise ValueError("subgroup does not belong to this group")
    return _cover_ranks(g, h.bits)


def find_complement(
    g: GroupDescriptor, h: Subgroup, caps: Caps = DEFAULT_CAPS
) -> Subgroup | None:
    """First subgroup K (in enumerate_subgroups order) with K & H = {0} and
    |K| * |H| = |G|, i.e. G = H (+) K.  None when no complement exists."""
    if h.group != g:
        raise ValueError("subgroup does not belong to this group")
    want = g.order // h.size
    for k in enumerate_subgroups(g, caps=caps):
        if k.size == want and (k.bits & h.bits) == 1:
            return k
    return None
