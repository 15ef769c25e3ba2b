"""Subsets of a finite abelian group and the arithmetic on them.

Everything here is exact: cardinality thresholds are compared as integers
after cross-multiplying with the rational parameter, never as floats.

One kernel, _convolve, counts the ways to write each z as x + y (or x - y)
with x in X and y in Y, by one of two transforms.  Both unpack the sets'
bits (np.unpackbits with count = |G|, so any order works) into arrays whose
C-order flat index is the rank, and both cost O(|G| log |G|).

- rfftn (_fft_convolve), on every group: float64 arrays of shape
  reversed(moduli) are transformed with one rfftn (one operand when X = Y),
  multiplied, and transformed back with irfftn.  The counts are integers of
  at most |G| <= 2^20 and the float64 error is about 1e-9, so rounding is
  exact; each result is checked (every value within 1/4 of an integer, and
  the counts summing to |X| |Y|).
- Integer butterflies (_walsh_convolve), on (Z/2)^n, where rfftn runs n
  passes over length-2 axes and is at its slowest.  The int64 indicators get
  the Walsh-Hadamard transform, one in-place butterfly stage (a, b) ->
  (a + b, a - b) per axis; the spectra are multiplied (squared when X = Y)
  and transformed again, which multiplies by 2^n = |G|, and a right shift by
  n gives the counts.  x - y = x + y there, so reflect changes nothing.
  The arithmetic is exact: a spectrum entry is at most |X| in absolute
  value, a product at most |X| |Y|, and each stage of the second transform
  at most doubles the largest, so no partial sum exceeds |X| |Y| |G|.  The
  path is taken while that is below 2^63, which every (Z/2)^n the default
  order_cap admits meets (2^60 at 2^20); a denser pair under a raised cap
  goes to rfftn.  Each result is checked all the same (the low n bits of
  every output 0, and the counts summing to |X| |Y|).

A check that fails raises AssertionError.  Three readings use the kernel:

- symdiff_profile: |A xor (A+x)| = 2(|A| - c(x)) with c the autocorrelation
  of A's indicator, one forward transform with |F|^2 (and c(0) = |A|
  checked too).  The almost-period ball B_delta(A) = {x : |A xor (A+x)| <=
  delta|G|} is a threshold of it.  A profile costs less than the scans that
  use it, so nothing caches it: a caller that reads several balls of one set
  (the regularity sweeps) computes the profile once and passes it to _ball.
- sumset: A + B is the support of 1_A * 1_B.
- difference_set: A - B is the support of the correlation of 1_A with 1_B;
  X - X is the support of X's autocorrelation, with no negation.

A sum with a small side is cheaper as a union of translates of the larger
set (groups.translate_bits), which also stops once the union is G.  The size
rule (_translate_limit) weighs the two in counted work, for k axes, w =
ceil(|G|/64) words and lines = the sum over the axes, of length m, of |G|/m:

    limit = (_AXIS_POINTS (k + 1) + |G| log2|G| + _LINE_POINTS lines)
            / ((k + 1) (w + _PASS_WORDS))

- A translate shifts each axis with a few big-int operations over the w
  words, and the union ORs it in: k + 1 passes over w words, each with a
  fixed cost of _PASS_WORDS = 230 words.
- A transform works log2 m times on each of the |G| points along an axis
  of length m: |G| log2|G| point operations in all, and a fixed
  _AXIS_POINTS = 9000 for each axis and once more for the call.  rfftn
  also runs one transform of length m per line along the axis, lines in
  all, at a fixed _LINE_POINTS = 18 each; the butterflies on (Z/2)^n run
  no lines, so lines is 0 there.
- A point operation is counted as one word of a translate.  A fourth
  constant for that ratio fits at 0.8 and takes the worst shape below only
  from 2.57 to 2.14 times its crossover.

A wrong pick changes the time, never a set.  The constants were fitted
(least worst ratio, under the bounds the tests pin) to the measured
crossover: the best time of one self-convolution, _support(_convolve(g, x,
x)), over the best time of one translate and OR at random ranks (best of
15 to 30; 2-core x86-64, Python 3.11.7, numpy 2.4.6; each shape in its own
process, since in one process the same transform ran up to 3.5 times
faster after earlier and larger ones; the median of 5 runs).  The grid
is 62 shapes: Z/2^j for j = 4..18, (Z/2)^4 to (Z/2)^20, (Z/3)^3,5,7,9,
(Z/4)^3,5,8,10, (Z/8)^4,6, (Z/16)^2,4,5, (Z/5)^4, (Z/6)^3,4, (Z/7)^3,
(Z/12)^3, Z/13, Z/100, Z/1000, Z/32768 again, Z/3xZ/5, Z/4xZ/12, Z/2xZ/512,
Z/3xZ/9xZ/27, Z/2xZ/4xZ/8xZ/16, Z/2xZ/2^17, Z/2x(Z/6)^4 and
Z/2xZ/2xZ/4xZ/1024.  There the rule reads 0.39 to 2.57 times the measured
crossover (0.39 to 2.58 on 3 later runs it was not fitted to).  The
worst shapes:

- (Z/16)^5 (limit 270, measured 105), (Z/8)^6 (275, 138) and (Z/16)^4
  (221, 117), where a word of a translate costs about twice what it costs
  on the cyclic group of that order;
- Z/2xZ/2xZ/4xZ/1024 (265, 679), Z/2xZ/4xZ/8xZ/16 (59, 113) and
  Z/2x(Z/6)^4 (85, 156), where rfftn's lines of length 2 cost more than 18
  points;
- Z/8192 (174, 98) against Z/2^18 (548, 956): the measured crossover grows
  tenfold between them, and more than doubles from Z/8192 to Z/16384 alone,
  which no count of points or words sees.

Z/1024 reads 57 (measured 45) and (Z/4)^5 59 (82).  Every group of order
<= 64 reads 39 to 41; the grid's shapes of those orders measured 32.5 to
49.

No group of order <= 64 transforms, since its limit is above |G|/2 and a
side past |G|/2 makes the sum G.  Past the limit a union that is filling G
would still stop early, so the first _PROBE translates decide: if the
share of the uncovered ranks that the last half of them cover per
translate would not fill G within the limit, the sum comes from the
kernel; otherwise the translates go on.  A union of cosets of a subgroup
stops growing after a few translates and goes to the kernel; a random
dense set keeps translating.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    GroupElement,
    Subgroup,
    _bit_ranks,
    _checked_rank,
    _closure_walk,
    _full_lattice,
    _make_subgroup,
    _rank_in,
    negate_bits,
    translate_bits,
)

# The size rule's fixed costs (module docstring): of a transform's call and
# of each of its axes, and of each line rfftn transforms, in point
# operations; of each big-int pass of a translate, in words.
_AXIS_POINTS = 9000
_LINE_POINTS = 18
_PASS_WORDS = 230
# translates a large sumset makes before judging whether its union fills G
_PROBE = 8

__all__ = [
    "GroupSubset",
    "AlmostPeriodSet",
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
        """The set of these ranks (repeats allowed, any order), in one pass:
        each rank marks its byte of a |G|-byte buffer, which numpy packs into
        the bitset, where `bits |= 1 << r` per rank copies a growing int each
        time.  ValueError names the first rank out of range."""
        n = g.order
        marks = bytearray(n)
        for r in ranks:
            if not 0 <= r < n:
                raise ValueError(f"rank {r} out of range for order {n}")
            marks[r] = 1
        packed = np.packbits(np.frombuffer(marks, np.uint8), bitorder="little")
        return cls(g, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_elements(
        cls, g: GroupDescriptor, elems: Sequence[GroupElement]
    ) -> "GroupSubset":
        """The set of these elements; ValueError if one is of another group."""
        return cls.from_ranks(g, [_rank_in(g, e) for e in elems])

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def ranks(self) -> list[int]:
        return _bit_ranks(self.bits)

    def contains_rank(self, r: int) -> bool:
        """Whether rank r is a member: False for every integer outside
        [0, |G|), TypeError for a non-integer."""
        r = operator.index(r)
        return r >= 0 and bool((self.bits >> r) & 1)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, self.group.full_mask ^ self.bits)

    def negated(self) -> "GroupSubset":
        return GroupSubset(self.group, negate_bits(self.group, self.bits))

    def __contains__(self, e: GroupElement | int) -> bool:
        """Membership of a rank, or of an element (never of another group's)."""
        if not isinstance(e, GroupElement):
            return self.contains_rank(e)
        return e.group == self.group and self.contains_rank(e.rank)

    def __repr__(self) -> str:
        return f"GroupSubset({list(self.group.moduli)}, size={self.size})"


def _same_group(a: GroupSubset, b: GroupSubset) -> GroupDescriptor:
    if a.group != b.group:
        raise ValueError("subsets live in different groups")
    return a.group


def translate(a: GroupSubset, x: GroupElement | int) -> GroupSubset:
    """The translate A + x; ValueError if x is of another group or a rank
    out of range."""
    r = _checked_rank(a.group, _rank_in(a.group, x))
    return GroupSubset(a.group, translate_bits(a.group, a.bits, r))


def symdiff_size(a: GroupSubset, b: GroupSubset) -> int:
    """|A symmetric-difference B|."""
    _same_group(a, b)
    return (a.bits ^ b.bits).bit_count()


def _indicators(g: GroupDescriptor, shape: tuple[int, ...], *sets: int,
                dtype: type = np.float64) -> np.ndarray:
    """The sets' 0/1 indicators as dtype, reshaped to `shape`: the flat
    index is the set's row and then the rank."""
    nb = (g.order + 7) // 8
    packed = np.frombuffer(b"".join([s.to_bytes(nb, "little") for s in sets]),
                           np.uint8).reshape(len(sets), nb)
    ind = np.unpackbits(packed, axis=1, count=g.order, bitorder="little")
    return ind.reshape(shape).astype(dtype)


def _convolve(g: GroupDescriptor, x_bits: int, y_bits: int, *,
              reflect: bool = False) -> np.ndarray:
    """Exact counts c(z) = #{(x, y) in X x Y : x + y = z}, or x - y = z with
    reflect, as an int64 numpy array indexed by rank: integer butterflies
    (_walsh_convolve) on (Z/2)^n while |X| |Y| |G| < 2^63, one rfftn
    (_fft_convolve) otherwise."""
    # the order is 2^n with n moduli, each >= 2, only when every one is 2
    if (g.order == 1 << len(g.moduli)
            and x_bits.bit_count() * y_bits.bit_count() * g.order < 1 << 63):
        return _walsh_convolve(g, x_bits, y_bits)
    return _fft_convolve(g, x_bits, y_bits, reflect)


def _fft_convolve(g: GroupDescriptor, x_bits: int, y_bits: int,
                  reflect: bool) -> np.ndarray:
    """_convolve on any group: one rfftn over the group's axes transforms
    X's indicator, or X's and Y's stacked; the spectra are multiplied (by
    the conjugate for reflect) and transformed back.  Every value must lie
    within 1/4 of an integer and the counts must sum to |X| |Y|; otherwise
    AssertionError."""
    shape = tuple(reversed(g.moduli))
    axes = tuple(range(len(shape)))
    if x_bits == y_bits:
        fx = fy = np.fft.rfftn(_indicators(g, shape, x_bits))
    else:
        fx, fy = np.fft.rfftn(_indicators(g, (2,) + shape, x_bits, y_bits),
                              axes=tuple(a + 1 for a in axes))
    if not reflect:
        prod = fx * fy
    elif fx is fy:
        prod = fx.real**2 + fx.imag**2
    else:
        prod = fx * fy.conj()
    out = np.fft.irfftn(prod, s=shape, axes=axes).ravel()
    c = np.rint(out)
    counts = c.astype(np.int64)
    if not (np.abs(out - c).max() < 0.25 and int(counts.sum())
            == x_bits.bit_count() * y_bits.bit_count()):
        raise AssertionError("convolution counts are not exact")
    return counts


def _butterfly_stage(v: np.ndarray, h: int) -> None:
    """One stage of the Walsh-Hadamard transform of each row of the int64
    array v, in place: within each block of 2h entries, the pair (a, b) h
    apart becomes (a + b, a - b).  The stage with h = 2^i transforms the
    group's axis i."""
    w = v.reshape(v.shape[0], -1, 2, h)
    a, b = w[:, :, 0], w[:, :, 1]
    t = a - b
    a += b
    b[...] = t


def _walsh_convolve(g: GroupDescriptor, x_bits: int, y_bits: int
                    ) -> np.ndarray:
    """_convolve on (Z/2)^n, in exact integers: the Walsh-Hadamard transform
    (one butterfly stage per axis) of X's indicator, or of X's and Y's
    stacked, the product of the spectra, the transform again and a shift
    right by n, since transforming twice multiplies by 2^n = |G|.  x - y =
    x + y here, so reflect changes nothing.  The caller keeps |X| |Y| |G|
    below 2^63, which bounds every partial sum.  The low n bits of every
    output must be 0 and the counts must sum to |X| |Y|; otherwise
    AssertionError."""
    n = len(g.moduli)
    stages = [1 << i for i in range(n)]
    if x_bits == y_bits:
        v = _indicators(g, (1, g.order), x_bits, dtype=np.int64)
    else:
        v = _indicators(g, (2, g.order), x_bits, y_bits, dtype=np.int64)
    for h in stages:
        _butterfly_stage(v, h)
    prod = (v[0] * v[-1]).reshape(1, g.order)
    for h in stages:
        _butterfly_stage(prod, h)
    out = prod[0]
    counts = out >> n
    if ((out & (g.order - 1)).any() or int(counts.sum())
            != x_bits.bit_count() * y_bits.bit_count()):
        raise AssertionError("convolution counts are not exact")
    return counts


def _support(counts: np.ndarray) -> int:
    """The bitset of the ranks with a nonzero count."""
    return int.from_bytes(np.packbits(counts > 0, bitorder="little").tobytes(),
                          "little")


def symdiff_profile(a: GroupSubset) -> np.ndarray:
    """g(x) = |A xor (A+x)| for every rank x, as an int64 numpy array
    indexed by rank (earlier versions returned a tuple).  The workhorse of
    the almost-period ball, greedy packing and certificate verification.

    g(x) = 2(|A| - c(x)) with c the autocorrelation of A's indicator, one
    forward transform in _convolve; g is symmetric in x -> -x."""
    card = a.size
    counts = _convolve(a.group, a.bits, a.bits, reflect=True)
    if counts[0] != card:
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
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
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


@functools.lru_cache(maxsize=256)
def _translate_limit(moduli: tuple[int, ...]) -> float:
    """The size rule: a sumset translates when its smaller side has fewer
    elements than this, the number of translates that cost as much as one
    transform, counted in words and point operations (module docstring)."""
    n = math.prod(moduli)
    k = len(moduli)
    # _convolve takes the butterflies, which run no lines, on (Z/2)^n
    lines = 0 if n == 1 << k else sum(n // m for m in moduli)
    transform = (_AXIS_POINTS * (k + 1) + n * math.log2(n)
                 + _LINE_POINTS * lines)
    return transform / ((k + 1) * ((n + 63) // 64 + _PASS_WORDS))


def _sum_bits(g: GroupDescriptor, x_bits: int, y_bits: int,
              reflect: bool = False) -> int:
    """The bitset of X + Y, or X - Y with reflect.

    When |X| + |Y| > |G| every z has z - Y meeting X, so the sum is G.
    Otherwise the larger of X and Y (or -Y) is translated by the smaller
    one's elements, stopping once the union is G, while the smaller side
    has fewer than _translate_limit elements (the size rule).  With more,
    the union is judged after _PROBE translates: each of the last half has
    covered a share of the ranks still uncovered, and if at that rate the
    union would not fill G within the limit, or it has stopped growing, the
    sum is the support of _convolve instead."""
    full = g.full_mask
    kx, ky = x_bits.bit_count(), y_bits.bit_count()
    if kx == 0 or ky == 0:
        return 0
    if kx + ky > g.order:
        return full
    z_bits = negate_bits(g, y_bits) if reflect else y_bits
    if kx <= ky:
        small, large, k = x_bits, z_bits, kx
    else:
        small, large, k = z_bits, x_bits, ky
    acc = 0
    if k > _PROBE and k >= (limit := _translate_limit(g.moduli)):
        n = g.order
        half = _PROBE // 2
        for i in range(1, _PROBE + 1):
            low = small & -small
            small ^= low
            acc |= translate_bits(g, large, low.bit_length() - 1)
            if i == half:
                mid = n - acc.bit_count()
        left = n - acc.bit_count()
        if left and (left == mid or _PROBE + half * math.log(left)
                     / math.log(mid / left) > limit):
            return _support(_convolve(g, x_bits, y_bits, reflect=reflect))
    for r in _bit_ranks(small):
        if acc == full:
            break
        acc |= translate_bits(g, large, r)
    return acc


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A + B: the support of the convolution 1_A * 1_B, or, under the size
    rule, the union of translates (_sum_bits)."""
    g = _same_group(a, b)
    return GroupSubset(g, _sum_bits(g, a.bits, b.bits))


def difference_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """A - B: the support of the correlation of 1_A with 1_B (for A = B,
    A's autocorrelation), or, under the size rule, the union of translates
    of -B (_sum_bits)."""
    g = _same_group(a, b)
    return GroupSubset(g, _sum_bits(g, a.bits, b.bits, reflect=True))


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


def _doubling_k(delta) -> float:
    """K(delta) = exp(ln(1/delta)**(1/5)), and 2 when that is smaller or
    delta is not in (0, 1).  ln(1/delta) is the log of the float 1/delta
    (the correctly rounded quotient of its integers) when that is finite, so
    K is the float expression's; past the floats it is the difference of the
    exact integer logs of 1/delta's numerator and denominator."""
    d = _to_fraction(delta)
    num, den = d.numerator, d.denominator
    if not 0 < num < den:
        return 2.0
    try:
        ln = math.log(den / num)
    except OverflowError:
        ln = math.log(den) - math.log(num)
    return max(math.exp(ln ** 0.2), 2.0)


def _double_until(chain: list[GroupSubset], k: float) -> DoublingTrace:
    """The doubling of chain[0] stopped at growth K = k.  chain holds
    B, 2B, 4B, ... as far as it has been computed; the walk reads it and
    appends the sumsets it lacks, so a caller that keeps the list doubles
    each set once whatever K it later stops at."""
    j = 0
    while True:
        if j + 1 == len(chain):
            chain.append(sumset(chain[j], chain[j]))
        cur, nxt = chain[j], chain[j + 1]
        if nxt.size <= k * cur.size:
            return DoublingTrace(chain[0], k, 1 << j, cur, nxt,
                                 tuple(x.size for x in chain[:j + 2]))
        j += 1


def iterated_doubling(b: GroupSubset, delta) -> DoublingTrace:
    """Double b until |2X| <= K|X|, with the stop rule of the almost-period
    radius delta (_doubling_k).  Terminates because sizes are bounded by |G|
    and K >= 2."""
    if b.size == 0:
        raise ValueError("cannot double the empty set")
    return _double_until([b], _doubling_k(delta))


def max_subgroup_within(
    t: GroupSubset, caps: Caps = DEFAULT_CAPS
) -> Subgroup:
    """A maximal subgroup contained in t (which must contain 0), and the
    largest one while |G| <= caps.subgroup_exhaustive_cap.

    Up to the cap it is the first subgroup of the full lattice inside t: the
    lattice is sorted by (size desc, bitset asc), so ties go to the least
    bitset.  Beyond the cap it is the least-rank walk of groups._closure_walk
    over t's ranks, kept inside t: maximal, not necessarily maximum, and t
    itself whenever t is a subgroup."""
    g = t.group
    if not t.bits & 1:
        raise ValueError("set must contain 0 to contain a subgroup")
    if g.order <= caps.subgroup_exhaustive_cap:
        bits, gens = next((b, gs) for b, gs in _full_lattice(g)
                          if not b & ~t.bits)
    else:
        bits, gens = _closure_walk(g, t.bits, t.bits)
    return _make_subgroup(g, bits, gens)


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
    almost-period balls, which always contain 0.

    The loop stops at the first sumset that does not grow.  Once
    |X + A| = |X|, X + A contains each translate X + a at the same size, so
    X + A = X + a for every a in A; every later sumset is then a translate
    of X + A, and its size (hence whether it fills G) is already known.  So
    at most |G| sumsets are formed, whatever t is."""
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
        nxt = sumset(cur, a)
        if nxt.size == cur.size:
            break
        cur = nxt
    return KneserReport(t, generates, size_ok, contains_zero,
                        generates and size_ok and contains_zero,
                        cur.size, cur.size == g.order)
