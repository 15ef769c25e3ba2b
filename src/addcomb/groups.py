"""Finite abelian groups as products of cyclic factors, with bitset machinery.

A group is a product Z_m0 x Z_m1 x ... The element (c0, c1, ...) has rank
c0 + c1*m0 + c2*m0*m1 + ... (little-endian mixed radix).  Subsets of the group
are stored as Python ints used as bitsets: bit r set means rank r is in the
set.  A translate rotates each coordinate with two masked shifts, so it costs
O(len(moduli) * |G|/wordsize).  Negation is one bit reversal plus one
translate, also O(len(moduli) * |G|/wordsize).  Both replace O(|G|)
Python-level bit moves.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING, Iterator, Sequence

from .caps import Caps, CapExceeded, DEFAULT_CAPS

if TYPE_CHECKING:
    import numpy as np

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
    """A finite abelian group given by its cyclic moduli (each >= 2)."""

    moduli: tuple[int, ...]

    def __init__(self, moduli: Sequence[int], order_cap: int | None = None):
        mods = tuple(int(m) for m in moduli)
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
        return GroupElement(self, rank, self.coords_of(rank))

    def element_from_coords(self, coords: Sequence[int]) -> "GroupElement":
        if len(coords) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates, got {len(coords)}"
            )
        norm = tuple(int(c) % m for c, m in zip(coords, self.moduli))
        return GroupElement(self, self.rank_of(norm), norm)

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


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """One group element: its rank and its coordinate tuple."""

    group: GroupDescriptor
    rank: int
    coords: tuple[int, ...]

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
    then one translate by the rank of (1, ..., 1), sum(blocks).
    """
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


def add_ranks(g: GroupDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) rank of the sum of the elements with ranks a
    and b, int64 arrays: one digit decomposition per coordinate.  Array
    operators only, so this module needs no numpy import."""
    out = 0
    for m, blk in zip(g.moduli, g._blocks):
        s = (a // blk) % m + (b // blk) % m
        out = out + (s - m * (s >= m)) * blk
    return out


def neg_rank(g: GroupDescriptor, a: int) -> int:
    out = 0
    for m, blk in zip(g.moduli, g._blocks):
        a, c = divmod(a, m)
        if c:
            out += (m - c) * blk
    return out


def element_order(g: GroupDescriptor, rank: int) -> int:
    if rank == 0:
        return 1
    n = 1
    r = rank
    while r != 0:
        r = add_rank(g, r, rank)
        n += 1
    return n


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
        """Re-check the subgroup axioms directly from the bitset."""
        g = self.group
        if not self.bits & 1:
            return False
        return (negate_bits(g, self.bits) == self.bits
                and _is_union_of_cosets(g, self.bits, self.bits)
                and g.order % self.size == 0
                and self.index * self.size == g.order)


def _is_union_of_cosets(g: GroupDescriptor, s_bits: int, h_bits: int) -> bool:
    """True iff S + x = S for every x in H, i.e. S is a union of H-cosets."""
    return all(translate_bits(g, s_bits, x) == s_bits for x in _bit_ranks(h_bits))


def _bit_ranks(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _make_subgroup(
    g: GroupDescriptor, bits: int, gen_ranks: Sequence[int]
) -> Subgroup:
    size = bits.bit_count()
    if not bits & 1 or g.order % size != 0:
        raise ValueError("not a subgroup bitset")
    gens = tuple(g.element(r) for r in gen_ranks)
    return Subgroup(g, bits, gens, g.order // size)


def _closure_with(g: GroupDescriptor, sub_bits: int, x_rank: int) -> int:
    """Closure of (subgroup given by sub_bits) union {x}: the union of the
    translates sub + k*x over all multiples of x (valid because the group is
    abelian)."""
    acc = sub_bits
    r = x_rank
    while r != 0:
        acc |= translate_bits(g, sub_bits, r)
        r = add_rank(g, r, x_rank)
    return acc


def generated_subgroup(
    g: GroupDescriptor, gens: Sequence[GroupElement | int]
) -> Subgroup:
    """Smallest subgroup containing all of gens."""
    bits = 1
    ranks = []
    for e in gens:
        r = e if isinstance(e, int) else e.rank
        if not 0 <= r < g.order:
            raise ValueError(f"rank {r} out of range")
        ranks.append(r)
        bits = _closure_with(g, bits, r)
    return _make_subgroup(g, bits, ranks)


def _closure_walk(g: GroupDescriptor, bits: int) -> tuple[int, list[int]]:
    """Bitset of the subgroup generated by the elements of bits, and the
    generators kept on the way: each element in rank order joins the
    closure when the closure so far misses it."""
    acc = 1
    gens: list[int] = []
    for r in _bit_ranks(bits):
        if not (acc >> r) & 1:
            gens.append(r)
            acc = _closure_with(g, acc, r)
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
    """All subgroups as (bits, generator_ranks), sorted by (-size, bits)."""
    seen: dict[int, tuple[int, ...]] = {1: ()}
    queue = [1]
    while queue:
        sub = queue.pop()
        gens = seen[sub]
        rest = g.full_mask & ~sub
        for x in _bit_ranks(rest):
            grown = _closure_with(g, sub, x)
            if grown not in seen:
                seen[grown] = gens + (x,)
                queue.append(grown)
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
        out.append(Subgroup(g, bits, tuple(g.element(r) for r in gens), idx))
    return out


def _coset_walk(g: GroupDescriptor, h: Subgroup) -> Iterator[tuple[int, int]]:
    """(minimum rank, bitset) of each coset of h, by minimum rank: the lowest
    rank no coset so far covers starts the next one."""
    if h.group != g:
        raise ValueError("subgroup does not belong to this group")
    free = g.full_mask
    while free:
        r = (free & -free).bit_length() - 1
        c = translate_bits(g, h.bits, r)
        yield r, c
        free ^= c


def cosets(g: GroupDescriptor, h: Subgroup) -> list[int]:
    """Coset bitsets of h in g, ordered by minimum representative rank."""
    return [c for _, c in _coset_walk(g, h)]


def coset_representatives(g: GroupDescriptor, h: Subgroup) -> list[int]:
    """Minimum-rank representative of each coset, in coset order."""
    return [r for r, _ in _coset_walk(g, h)]


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
