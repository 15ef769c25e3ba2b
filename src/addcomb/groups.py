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
its rank; its coordinates are computed from the rank when read.  A Subgroup
holds its generators as ranks, so no walk builds an element; a rank passed
in is read with operator.index, so a float raises TypeError.
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
    "generated_subgroup",
    "enumerate_subgroups",
    "cosets",
    "coset_representatives",
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
        return GroupElement(self, _checked_rank(self, rank))

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

    def __repr__(self) -> str:
        return f"GroupDescriptor({list(self.moduli)})"


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """One group element: its group and its rank, equal (and hashed alike)
    exactly when both are.  GroupDescriptor.element and element_from_coords
    build it with a rank in range.  Its slots are declared, since slots=True
    makes setting a non-field raise TypeError; pickling calls the
    constructor, as the frozen class refuses the default slot state."""

    __slots__ = ("group", "rank")
    group: GroupDescriptor
    rank: int

    def __reduce__(self):
        return GroupElement, (self.group, self.rank)

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


@dataclasses.dataclass(frozen=True)
class Subgroup:
    """A subgroup: membership bitset, a generating list of ranks (Python
    ints; verify() reads the bitset alone), and its index."""

    group: GroupDescriptor
    bits: int
    generators: tuple[int, ...]
    index: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def contains_rank(self, r: int) -> bool:
        """Whether rank r is a member: False for every integer outside
        [0, |G|), TypeError for a non-integer."""
        r = operator.index(r)
        return r >= 0 and bool((self.bits >> r) & 1)

    def ranks(self) -> list[int]:
        return _bit_ranks(self.bits)

    def verify(self) -> bool:
        """Re-check from the bitset alone: its elements generate exactly
        itself (so it holds 0 and their negations), and index * size = |G|."""
        return self._walk()[0]

    def _walk(self) -> tuple[bool, list[int]]:
        """(verify's answer, ranks that generate the closure of the bits):
        one _closure_walk gives both, so a caller needing both walks H once."""
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
    gens = tuple(_checked_rank(g, r) for r in gen_ranks)
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


def _checked_rank(g: GroupDescriptor, r: int) -> int:
    """r as a Python int (operator.index, so a float raises TypeError);
    ValueError unless 0 <= r < |G|."""
    r = operator.index(r)
    if not 0 <= r < g.order:
        raise ValueError(f"rank {r} out of range for order {g.order}")
    return r


def _rank_in(g: GroupDescriptor, e: GroupElement | int) -> int:
    """The rank e has (an element) or is (an integer, operator.index);
    ValueError for an element of another group, whose rank names another."""
    if not isinstance(e, GroupElement):
        return operator.index(e)
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
        r = _checked_rank(g, _rank_in(g, e))
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
                px = g.rank_of([p * c % m
                                for c, m in zip(g.coords_of(x), g.moduli)])
                grown &= ~_closure_with(g, sub, px)
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


def _cover_ranks(g: GroupDescriptor, bits: int) -> list[int]:
    """The ranks r that _cover_walk(g, bits) yields, without the bitsets.

    bits (the set B) must hold 0.  A bytearray marks the covered ranks, so
    the next r is covered.find(0, r + 1), and r marks r + B, one row of a
    table of rank sums (_add_ranks over a chunk of consecutive ranks and B's
    members, _COVER_TABLE_ENTRIES entries at a time, from r on).  So the
    walk costs O(|G| |B|) entries, where _cover_walk costs one |G|-bit
    translate per r.  When B is dense its few translates cost less than the
    table, and the walk is _cover_walk (the cost rule, _rank_walk_pays).
    B = {0} covers one rank per center, so every rank is one, with no walk."""
    if bits == 1:
        return list(range(g.order))
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
    _cover_walk for a set B of this size (holding 0), in counted words.

    The walk takes at least |G|/|B| centers, as their translates cover G,
    and exactly that many for a subgroup; the rule assumes that many, so it
    weighs the work of one center.  _cover_walk makes k + 1 passes over
    w + 8 words per center, for k axes and w = ceil(|G|/64): one pass per
    axis of the translate, one for the covered set, and 8 words of fixed
    cost per pass.  A chunk of the table holds rows = floor(
    _COVER_TABLE_ENTRIES/|B|) rows of |B| entries from a center on, so with
    centers |B| apart a center builds min(|B|, rows) rows, at 2 words an
    entry.  It also marks its own |B| entries one at a time, which costs
    about as much as building 8 rows.  The rule counts the larger of the
    two, so the table walk runs iff

        2 |B| max(min(|B|, rows), 8) <= (k + 1)(w + 8),

    and never when rows = 0.  A wrong pick changes the time, never a rank.

    Both walks were timed (best of 3 to 11 runs, one past 2 s; 2-core
    x86-64, Python 3.11.7, numpy 2.4.6) on two corpora of sets holding 0.
    A, random.Random(7), 585 sets: the 23 shapes Z/16, (Z/2)^4, (Z/4)^2,
    Z/2xZ/8, Z/64, (Z/2)^6, (Z/4)^3, Z/256, (Z/2)^8, (Z/16)^2, Z/1024,
    (Z/2)^10, (Z/4)^5, Z/4096, (Z/2)^12, (Z/8)^4, Z/2xZ/2xZ/4xZ/1024,
    Z/65536, (Z/2)^16, (Z/4)^8, (Z/16)^4, Z/2^18 and (Z/2)^18, in this
    order, each with a random set of each size 4^j <= |G|/4 (0 and
    random.sample of the other ranks), then its distinct proper subgroups
    dG (d > 1 dividing the largest modulus) and those spanned by its first
    or its last t axes (0 < t < k), then the rank intervals {-m, ..., m}
    for m = 1, 2, 4, ... while 2m + 1 <= |G|/4.  B, random.Random(11), 220
    sets: the 21 shapes Z/27, (Z/3)^3, Z/3xZ/9, Z/2xZ/3xZ/5, Z/100,
    Z/4x(Z/6)^2, (Z/3)^5, (Z/6)^3, Z/2x(Z/12)^2, (Z/5)^4, Z/2048, (Z/3)^7,
    Z/2xZ/4xZ/8xZ/16, Z/8192, (Z/3)^9, Z/32768, (Z/2)^15, Z/2x(Z/6)^4,
    Z/2^20, (Z/2)^20 and (Z/4)^10, each with a random set of each size
    2^j <= |G|/2.  Against the fitted rule it replaced, it picks the same
    walk on 718 sets; of the other 87, 39 run over 1.3 times faster (a
    random 128-set on (Z/4)^10: 64 -> 0.57 s) and 38 slower, 5 by over 1 ms:
    four subgroups whose cosets lie |B| apart and an interval of 65 on
    (Z/4)^8.  Each has the group and (within one) the |B| of a set that the
    table walk serves 3 to 30 times faster, so no rule on |B| can part them."""
    rows = _COVER_TABLE_ENTRIES // size
    k, w = len(g.moduli), (g.order + 63) // 64
    return (rows > 0
            and 2 * size * max(min(size, rows), 8) <= (k + 1) * (w + 8))


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

