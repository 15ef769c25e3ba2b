"""Subsets of a finite abelian group and the arithmetic on them.

Everything here is exact: cardinality thresholds are compared as integers
after cross-multiplying with the rational parameter, never as floats.

The almost-period ball B_delta(A) = {x : |A xor (A+x)| <= delta|G|} is a
threshold of the symmetric-difference profile |A xor (A+x)| =
2(|A| - c(x)), where c is the autocorrelation of A's indicator.
symdiff_profile computes c with one real FFT over the array of shape
reversed(moduli), whose C-order flat index is the rank, in O(|G| log |G|).
Its values are integers of at most |G| <= 2^20 and the float64 error is
about 1e-9, so rounding is exact; each result is checked (every value
within 1/4 of an integer, c(0) = |A| and sum c = |A|^2) and an
AssertionError is raised otherwise.  A profile costs less than the scans
that use it, so nothing caches it: a caller that reads several balls of
one set (the regularity sweeps) computes the profile once and passes it
to _ball.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    GroupElement,
    Subgroup,
    _bit_ranks,
    _closure_walk,
    _closure_with,
    _full_lattice,
    _make_subgroup,
    negate_bits,
    translate_bits,
)

__all__ = [
    "GroupSubset",
    "AlmostPeriodSet",
    "DoublingConfig",
    "DoublingTrace",
    "KneserReport",
    "translate",
    "symdiff_size",
    "almost_periods",
    "sumset",
    "difference_set",
    "iterated_doubling",
    "max_subgroup_within",
    "kneser_fill_check",
]


@dataclasses.dataclass(frozen=True)
class GroupSubset:
    """An immutable subset of a group, stored as an int bitset."""

    group: GroupDescriptor
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.group.order:
            raise ValueError("bitset has bits outside the group's rank range")

    @classmethod
    def empty(cls, g: GroupDescriptor) -> "GroupSubset":
        return cls(g, 0)

    @classmethod
    def full(cls, g: GroupDescriptor) -> "GroupSubset":
        return cls(g, g.full_mask)

    @classmethod
    def from_ranks(cls, g: GroupDescriptor, ranks: Sequence[int]) -> "GroupSubset":
        bits = 0
        for r in ranks:
            if not 0 <= r < g.order:
                raise ValueError(f"rank {r} out of range for order {g.order}")
            bits |= 1 << r
        return cls(g, bits)

    @classmethod
    def from_elements(
        cls, g: GroupDescriptor, elems: Sequence[GroupElement]
    ) -> "GroupSubset":
        return cls.from_ranks(g, [e.rank for e in elems])

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def ranks(self) -> list[int]:
        return _bit_ranks(self.bits)

    def elements(self) -> Iterator[GroupElement]:
        for r in self.ranks():
            yield self.group.element(r)

    def contains_rank(self, r: int) -> bool:
        return bool((self.bits >> r) & 1)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, self.group.full_mask ^ self.bits)

    def negated(self) -> "GroupSubset":
        return GroupSubset(self.group, negate_bits(self.group, self.bits))

    def __contains__(self, e: GroupElement | int) -> bool:
        r = e if isinstance(e, int) else e.rank
        return self.contains_rank(r)

    def __repr__(self) -> str:
        return f"GroupSubset({list(self.group.moduli)}, size={self.size})"


def _same_group(a: GroupSubset, b: GroupSubset) -> GroupDescriptor:
    if a.group != b.group:
        raise ValueError("subsets live in different groups")
    return a.group


def translate(a: GroupSubset, x: GroupElement | int) -> GroupSubset:
    """The translate A + x."""
    r = x if isinstance(x, int) else x.rank
    if not 0 <= r < a.group.order:
        raise ValueError(f"rank {r} out of range")
    return GroupSubset(a.group, translate_bits(a.group, a.bits, r))


def symdiff_size(a: GroupSubset, b: GroupSubset) -> int:
    """|A symmetric-difference B|."""
    _same_group(a, b)
    return (a.bits ^ b.bits).bit_count()


def symdiff_profile(a: GroupSubset) -> np.ndarray:
    """g(x) = |A xor (A+x)| for every rank x, as an int64 numpy array
    indexed by rank (earlier versions returned a tuple).  The workhorse of
    the almost-period ball, greedy packing and certificate verification.

    g(x) = 2(|A| - c(x)) with c the autocorrelation of A's indicator, taken
    as an exact real-FFT autocorrelation; g is symmetric in x -> -x."""
    g = a.group
    card = a.size
    shape = tuple(reversed(g.moduli))
    packed = np.frombuffer(a.bits.to_bytes((g.order + 7) // 8, "little"),
                           np.uint8)
    ind = np.unpackbits(packed, count=g.order, bitorder="little")
    spec = np.fft.rfftn(ind.reshape(shape).astype(np.float64))
    corr = np.fft.irfftn(spec.real**2 + spec.imag**2, s=shape,
                         axes=tuple(range(len(shape)))).ravel()
    c = np.rint(corr)
    counts = c.astype(np.int64)
    if not (np.abs(corr - c).max() < 0.25 and counts[0] == card
            and int(counts.sum()) == card * card):
        raise AssertionError("autocorrelation of A is not exact")
    return 2 * (card - counts)


# perfbench times and counts the profile under this name
_symdiff_profile = symdiff_profile


@dataclasses.dataclass(frozen=True)
class AlmostPeriodSet:
    """B_delta(A): all x with |A xor (A+x)| <= delta*|G|.

    Always symmetric (closed under negation) and contains 0."""

    base: GroupSubset
    delta: Fraction
    members: GroupSubset

    @property
    def size(self) -> int:
        return self.members.size


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # read floats through their shortest decimal repr so 0.1 means 1/10
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as an exact fraction")


def _ball(a: GroupSubset, prof: np.ndarray, delta) -> AlmostPeriodSet:
    """B_delta(A) read off A's profile: keep x iff prof[x] <= floor(delta|G|),
    which for integer prof is exactly prof[x] <= delta|G|."""
    d = _to_fraction(delta)
    if d < 0:
        raise ValueError("delta must be >= 0")
    g = a.group
    # prof never exceeds 2|G|, so clipping keeps a huge delta inside int64
    limit = min(d.numerator * g.order // d.denominator, 2 * g.order)
    mask = np.packbits(prof <= limit, bitorder="little")
    bits = int.from_bytes(mask.tobytes(), "little")
    return AlmostPeriodSet(a, d, GroupSubset(g, bits))


def almost_periods(a: GroupSubset, delta) -> AlmostPeriodSet:
    """Exact threshold scan over all x in G: keep x iff |A xor (A+x)| <= delta|G|."""
    return _ball(a, symdiff_profile(a), delta)


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A + B, by translating the larger set over the smaller one's elements.

    Stops early once the accumulator reaches the whole group."""
    g = _same_group(a, b)
    if a.size == 0 or b.size == 0:
        return GroupSubset.empty(g)
    small, large = (a, b) if a.size <= b.size else (b, a)
    acc = 0
    full = g.full_mask
    for r in small.ranks():
        acc |= translate_bits(g, large.bits, r)
        if acc == full:
            break
    return GroupSubset(g, acc)


def difference_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A - B = A + (-B)."""
    return sumset(a, b.negated())


@dataclasses.dataclass(frozen=True)
class DoublingConfig:
    """Stop rule for iterated doubling: halt when |2X| <= K|X|.

    K is either given directly or derived from delta via
    K(delta) = exp((ln(1/delta))**(1/5)), floored at k_floor."""

    k: float | None = None
    delta: Fraction | None = None
    k_floor: float = 2.0

    def resolve_k(self) -> float:
        if self.k is not None:
            return max(float(self.k), self.k_floor)
        if self.delta is None:
            raise ValueError("DoublingConfig needs k or delta")
        d = _to_fraction(self.delta)
        if d <= 0:
            return self.k_floor
        ratio = 1 / d
        if ratio <= 1:
            return self.k_floor
        return max(math.exp(math.log(ratio) ** 0.2), self.k_floor)

    @classmethod
    def from_delta(cls, delta) -> "DoublingConfig":
        return cls(delta=_to_fraction(delta))


@dataclasses.dataclass(frozen=True)
class DoublingTrace:
    """Result of doubling B, 2B, 4B, ... until growth drops below K.

    ell is the first power of two with |2*ell*B| <= K * |ell*B|; ell_set and
    double_set are ell*B and 2*ell*B; sizes holds every |2^j B| computed."""

    base: GroupSubset
    k_value: float
    ell: int
    ell_set: GroupSubset
    double_set: GroupSubset
    sizes: tuple[int, ...]


def iterated_doubling(b: GroupSubset, config: DoublingConfig) -> DoublingTrace:
    """Double b until the K-growth test passes.  Terminates because sizes are
    bounded by |G| and K >= k_floor >= 1."""
    if b.size == 0:
        raise ValueError("cannot double the empty set")
    k = config.resolve_k()
    cur = b
    ell = 1
    sizes = [cur.size]
    while True:
        nxt = sumset(cur, cur)
        sizes.append(nxt.size)
        if nxt.size <= k * cur.size:
            return DoublingTrace(b, k, ell, cur, nxt, tuple(sizes))
        cur = nxt
        ell *= 2


def _greedy_subgroup_within(g: GroupDescriptor, t_bits: int) -> tuple[int, list[int]]:
    """Grow a subgroup inside the set t_bits by scanning candidate generators
    in rank order and keeping those whose closure stays inside.  A rejected
    candidate stays rejected after growth, so one pass yields a maximal
    subgroup contained in the set."""
    sub = 1
    gens: list[int] = []
    for x in _bit_ranks(t_bits):
        if x == 0 or (sub >> x) & 1:
            continue
        grown = _closure_with(g, sub, x)
        if grown & ~t_bits == 0:
            sub = grown
            gens.append(x)
    return sub, gens


def max_subgroup_within(
    t: GroupSubset, caps: Caps = DEFAULT_CAPS
) -> Subgroup:
    """Largest subgroup contained in t (which must contain 0).

    For |G| <= caps.subgroup_exhaustive_cap the full subgroup lattice is
    enumerated and the maximum-cardinality subgroup inside t is returned
    (ties broken by smallest bitset value); the greedy closure answer is
    computed alongside and may not exceed it.  Beyond the cap only the greedy
    closure runs, which returns a maximal (not necessarily maximum) subgroup."""
    g = t.group
    if not t.bits & 1:
        raise ValueError("set must contain 0 to contain a subgroup")
    greedy_bits, greedy_gens = _greedy_subgroup_within(g, t.bits)
    if g.order <= caps.subgroup_exhaustive_cap:
        best_bits, best_gens = 1, ()
        best_size = 1
        for bits, gens in _full_lattice(g):
            if bits & ~t.bits:
                continue
            size = bits.bit_count()
            if size > best_size or (size == best_size and bits < best_bits):
                best_bits, best_gens, best_size = bits, gens, size
        if greedy_bits.bit_count() > best_size:
            raise AssertionError("greedy subgroup exceeded the exhaustive maximum")
        return _make_subgroup(g, best_bits, best_gens)
    return _make_subgroup(g, greedy_bits, greedy_gens)


@dataclasses.dataclass(frozen=True)
class KneserReport:
    """Filling check: does the 2t-fold sumset of a large generating set cover G?"""

    t: int
    generates: bool
    size_ok: bool
    contains_zero: bool
    applies: bool
    sumset_size: int
    fills: bool


def kneser_fill_check(a: GroupSubset, t: int) -> KneserReport:
    """Check the corollary: if 0 in A, A generates G and |A| >= |G|/t then
    2tA = G.

    Each hypothesis and the exact 2t-fold sumset are computed directly; the
    corollary assertion applies only when all three hypotheses hold.  0 in A
    is genuinely needed: {1} in Z_2 generates and has |A| >= |G|/2, but its
    4-fold sumset is {0}.  Without 0, iterated sumsets of A can stay trapped
    in cosets of the subgroup generated by A - A.  The intended inputs are
    almost-period balls, which always contain 0."""
    if t < 1:
        raise ValueError("t must be >= 1")
    g = a.group
    if a.size == 0:
        return KneserReport(t, False, False, False, False, 0, False)
    generates = _closure_walk(g, a.bits)[0] == g.full_mask
    size_ok = a.size * t >= g.order
    contains_zero = bool(a.bits & 1)
    cur = a
    for _ in range(2 * t - 1):
        cur = sumset(cur, a)
        if cur.bits == g.full_mask:
            break
    # note: early break is sound, iterated sumsets of a set containing any
    # element can only keep covering G once they reach it
    fills = cur.bits == g.full_mask
    return KneserReport(t, generates, size_ok, contains_zero,
                        generates and size_ok and contains_zero,
                        cur.size, fills)
