"""VC dimension of translate set systems, packings, and sampled variants.

The set system of a subset A is {A + x : x in X} viewed as subsets of a
ground set Y (both default to the whole group).  A set U of ground elements
is shattered when every one of the 2^|U| subsets of U arises as (A+x) & U.
One exact search serves every query: a depth-first scan over candidate
ground elements in ascending order that refines a partition of the system by
its pattern on the chosen elements, and returns a shattered witness.

The partition is kept over translators, not traces.  The search keeps one
translator per distinct trace, the least in rank order; call the bitset of
these translators reps.  A class is an int bitset over reps: the
translators whose traces agree on every chosen element.  The root class is
reps itself.  The column of a candidate p is (p - A) & reps, the translators
x with p in A + x: one big-int translate of -A per candidate, built once per
search.  Choosing p splits each class cls into ones = cls & col and
zeros = cls ^ ones, and a class's size is its bit count.

Two producers build the search's input (reps, the candidates, their
columns).  The full system (ground and translators the whole group) needs
no table of its traces, since it is invariant under translation: A + x =
A + y exactly when x - y lies in Stab(A) = {s : A + s = A}.  So the least
translator of each distinct trace is the least rank of its Stab(A)-coset,
and reps is the bitset of those ranks (groups._cover_ranks over Stab(A)),
whose count |G|/|Stab(A)| is the number of distinct traces.  Stab(A) is
read from the columns themselves: with col_p = p - A over every rank,
the AND of the columns at A's positions is the intersection over a in A of
a - A, which is {x : A within A + x} = Stab(A).  Every position is a
candidate (for each p some translate holds it and some misses it), unless
A is empty or full, when there is one trace and none is.  So the full
system costs |G| translates (and one negation) in all.  A restricted system
(a proper ground Y or translator set X) is not invariant; its producer
makes the table of its traces (TranslateSystem.trace_translators, trace ->
first translator, one translate per translator), keeps its translators as
reps and the ground positions where the traces do not all agree as
candidates, and translates -A once per candidate.

A branch dies as soon as one class fails to split, since shattered sets are
closed under subsets.  The smallest class also bounds the reachable depth
(each further element at best halves it), which prunes hard.  The split
applies that bound as it builds the classes: it stops at the first part too
small for the branch to beat the best witness, so such a branch is neither
split in full nor entered.  The dimension is the length of the largest
witness; a threshold query stops at the first witness one longer than the
threshold, and a size-k query returns the first shattered k-set, the least
in lexicographic order.

The witnesses are those of the search over Python lists of traces that this
one replaced (kept as tests/oracles.py:shattered_witness).  A class stands
for the same traces, one translator each, so every split succeeds or fails
as it did there and every class has the same size.  The candidates, their
order, the bounds and the stop rule are unchanged, and a branch is dropped
early only where that search entered it to prune it at once.

When ground and translators are both the whole group the system is
invariant under translation: (A+x) & (U+z) = ((A+x-z) & U) + z, so if U is
shattered so is U - min(U), which contains 0.  The search is then anchored:
it tries only position 0 at depth 0 (position 0 is the first candidate
whenever A is neither empty nor full).  The largest shattered size is
unchanged, and so is the lexicographically least shattered k-set, which
always contains 0.  A restricted system (a proper ground Y or translator set
X, as in sampled_vc and separated_sample_bound_check) is not invariant, and
its search tries every first position.

_cut serves restricted systems only: it turns a system's table into the
table of the system on a smaller ground with no translate, as
separated_sample_bound_check does for the table of A's translates by the
centers on each trial's sample.  The table search over the full system
stays in the tests as the oracle of the column search.
"""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from typing import Sequence

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (GroupDescriptor, GroupElement, _bit_ranks, _cover_ranks,
                     negate_bits, translate_bits)
from .stats import binomial_sigma, wilson_interval
from .subsets import GroupSubset, _sum_bits, _to_fraction, almost_periods

__all__ = [
    "TranslateSystem",
    "PackingResult",
    "SauerReport",
    "SampledVcReport",
    "RateReport",
    "SeparatedSampleReport",
    "AdjacencyOracle",
    "vc_dimension",
    "set_vc_dimension",
    "sauer_check",
    "greedy_packing",
    "sampled_vc",
    "random_independent_subset_rate",
    "separated_sample_bound_check",
]


@dataclasses.dataclass(frozen=True)
class TranslateSystem:
    """The system {(A + x) & Y : x in X}.  ground=Y, translators=X."""

    base: GroupSubset
    ground: GroupSubset | None = None
    translators: GroupSubset | None = None

    def resolved_ground(self) -> GroupSubset:
        return self.ground if self.ground is not None else GroupSubset.full(self.base.group)

    def resolved_translators(self) -> GroupSubset:
        return self.translators if self.translators is not None else GroupSubset.full(self.base.group)

    def trace_translators(self) -> dict[int, int]:
        """Each distinct trace (A + x) & Y, mapped to the first translator x
        in rank order that cuts it."""
        g = self.base.group
        a = self.base.bits
        y = self.resolved_ground().bits
        first: dict[int, int] = {}
        for x in self.resolved_translators().ranks():
            first.setdefault(translate_bits(g, a, x) & y, x)
        return first

    def traces(self) -> list[int]:
        """Distinct trace bitsets, sorted ascending."""
        return sorted(self.trace_translators())


def _search_input(sys: TranslateSystem, caps: Caps
                  ) -> tuple[int, list[int], list[int], bool]:
    """The search's input (reps, candidates, columns) for the system, and
    whether the search may be anchored (ground and translators both the
    whole group), after the ground-size cap.  The full system's input comes
    from its columns, a restricted one's from its trace table (module
    docstring)."""
    ground = sys.resolved_ground()
    if ground.size > caps.vc_ground_cap:
        raise CapExceeded(
            f"ground size {ground.size} exceeds vc cap {caps.vc_ground_cap}"
        )
    full = sys.base.group.full_mask
    if ground.bits == full and sys.resolved_translators().bits == full:
        return (*_column_input(sys.base), True)
    return (*_table_input(sys.base, sys.trace_translators()), False)


def _column_input(a: GroupSubset) -> tuple[int, list[int], list[int]]:
    """The full translate system's search input: every rank is a candidate
    (none when A is empty or full), cols[p] = (p - A) & reps, and reps
    holds the least rank of each coset of Stab(A), the AND of the columns at
    A's positions."""
    g = a.group
    if a.bits in (0, g.full_mask):
        return 1, [], []
    neg = negate_bits(g, a.bits)
    cols = [translate_bits(g, neg, p) for p in range(g.order)]
    stab = g.full_mask
    for p in a.ranks():
        stab &= cols[p]
    cand = list(range(g.order))
    if stab == 1:
        # each rank is its own coset: reps is G, and masks no column
        return g.full_mask, cand, cols
    reps = GroupSubset.from_ranks(g, _cover_ranks(g, stab)).bits
    return reps, cand, [c & reps for c in cols]


def _table_input(a: GroupSubset, first: dict[int, int]
                 ) -> tuple[int, list[int], list[int]]:
    """The search input of the system whose table (trace -> first
    translator) is `first`: its translators, the ground positions where its
    traces do not all agree, and their columns."""
    reps = sum(1 << x for x in first.values())
    if len(first) <= 1:
        return reps, [], []
    t0 = next(iter(first))
    diff = 0
    for t in first:
        diff |= t ^ t0
    cand = _bit_ranks(diff)
    g = a.group
    neg = negate_bits(g, a.bits)
    return reps, cand, [translate_bits(g, neg, p) & reps for p in cand]


def _cut(first: dict[int, int], ground: int) -> dict[int, int]:
    """The table of first's system on a ground within its own: first lists
    translators in rank order, so each cut trace keeps its first one."""
    cut: dict[int, int] = {}
    for t, x in first.items():
        cut.setdefault(t & ground, x)
    return cut


def _shattered_witness(reps: int, cand: list[int], cols: list[int],
                       anchored: bool, stop_at: int | None) -> list[int]:
    """A largest shattered ground set (ascending) of the system whose search
    input is (reps, cand, cols), the first one met in the search; with
    stop_at given, the first shattered set of that size as soon as one is
    found.  Anchored (only for the full translate system, see the module
    docstring), depth 0 tries the first candidate alone, which is then
    position 0."""
    n = len(cand)
    best: list[int] = []
    chosen: list[int] = []

    def grow(classes: list[int], start: int, end: int) -> bool:
        nonlocal best
        depth = len(chosen)
        for i in range(start, end):
            top = len(best)
            if depth + n - i <= top:
                break
            # A shattered extension is a new best when depth >= len(best);
            # the child can only beat best if each of its classes holds at
            # least `need` translators (each further element at best halves
            # the smallest class), so a smaller part ends the split early.
            record = depth >= top
            need = 2 if record else 1 << (top - depth)
            col = cols[i]
            split: list[int] = []
            deeper = True
            for cls in classes:
                ones = cls & col
                if not ones or ones == cls:
                    break
                zeros = cls ^ ones
                if ones.bit_count() < need or zeros.bit_count() < need:
                    if not record:
                        break
                    deeper = False
                split.append(ones)
                split.append(zeros)
            else:
                chosen.append(cand[i])
                if record:
                    best = list(chosen)
                    if depth + 1 == stop_at:
                        return True
                if deeper and grow(split, i + 1, n):
                    return True
                chosen.pop()
        return False

    grow([reps], 0, min(n, 1) if anchored else n)
    return best


def vc_dimension(sys: TranslateSystem, max_d: int | None = None,
                 caps: Caps = DEFAULT_CAPS) -> int:
    """Exact VC dimension of the system.

    With max_d set, the search stops as soon as it certifies the dimension
    exceeds max_d and returns max_d + 1, meaning "> max_d".  Threshold
    queries are much cheaper than exact computation on large systems."""
    stop_at = None if max_d is None else max_d + 1
    return len(_shattered_witness(*_search_input(sys, caps), stop_at))


def set_vc_dimension(a: GroupSubset, max_d: int | None = None,
                     caps: Caps = DEFAULT_CAPS) -> int:
    """VC dimension of the full translate system of A."""
    return vc_dimension(TranslateSystem(a), max_d=max_d, caps=caps)


def _least_shattered(a: GroupSubset, size: int, caps: Caps
                     ) -> tuple[list[int] | None, int, list[int]]:
    """find_shattered_set for size >= 1, with the search's reps and its
    columns, cols[p] for position p."""
    reps, cand, cols, anchored = _search_input(TranslateSystem(a), caps)
    if reps.bit_count() < 1 << size:
        return None, reps, cols
    got = _shattered_witness(reps, cand, cols, anchored, size)
    return (got if len(got) == size else None), reps, cols


def find_shattered_set(a: GroupSubset, size: int,
                       caps: Caps = DEFAULT_CAPS) -> list[int] | None:
    """The lexicographically least shattered ground set of the given size
    (positions ascending), or None when the VC dimension is smaller."""
    return [] if size == 0 else _least_shattered(a, size, caps)[0]


@dataclasses.dataclass(frozen=True)
class SauerReport:
    """Distinct-trace count against the shatter-function bounds."""

    ground_size: int
    dimension: int
    trace_count: int
    binomial_bound: int
    poly_bound: int | None
    holds: bool


def sauer_check(sys: TranslateSystem, caps: Caps = DEFAULT_CAPS) -> SauerReport:
    """Count distinct traces and compare with sum_{i<=d} C(n,i), and with
    2n^d when n >= 2 and d >= 1.  The search keeps one translator per
    distinct trace, so the count is reps's; for the full system it is the
    index of Stab(A)."""
    reps, cand, cols, anchored = _search_input(sys, caps)
    n = sys.resolved_ground().size
    d = len(_shattered_witness(reps, cand, cols, anchored, None))
    count = reps.bit_count()
    binom = sum(math.comb(n, i) for i in range(min(d, n) + 1))
    poly = 2 * n**d if n >= 2 and d >= 1 else None
    holds = count <= binom and (poly is None or count <= poly)
    return SauerReport(n, d, count, binom, poly, holds)


@dataclasses.dataclass(frozen=True)
class PackingResult:
    """A maximal delta-separated set of translate centers."""

    base: GroupSubset
    delta: Fraction
    centers: tuple[GroupElement, ...]
    certified: bool


def greedy_packing(a: GroupSubset, delta) -> PackingResult:
    """Scan x in rank order, keeping x as a center iff |(A+x) xor (A+w)| is
    strictly greater than delta*|G| for every kept center w.

    That holds exactly when x - w lies outside the almost-period ball
    B_delta(A), i.e. when x is outside the ball translate B + w, so the scan
    is a ball cover: the centers are the ranks groups._cover_ranks takes for
    the ball, each the least rank the ball translates so far miss.  For a
    small ball (a random set's is {0}, and then every rank is a center) it
    marks those translates from a table of rank sums, O(|G| |B|) work in
    all; for a dense one it makes one big-int translate per center.  A
    center's element holds its group and rank alone, and computes its
    coordinates when they are read.  The result is delta-separated and
    maximal by construction; _check_packing re-checks both before
    returning, from two sums of the centers C and the ball B:
    (C - C) & B = {0} and C + B = G."""
    ball = almost_periods(a, delta)
    ball_bits = ball.members.bits
    g = a.group
    centers = _cover_ranks(g, ball_bits)
    _check_packing(g, ball_bits, centers)
    return PackingResult(a, ball.delta,
                         tuple(GroupElement(g, r) for r in centers), True)


def _check_packing(g: GroupDescriptor, ball: int, centers: Sequence[int]) -> None:
    """Raise unless the centers are separated (no center's ball translate
    holds another center) and maximal (their ball translates cover G).

    Both are read from sums (subsets._sum_bits, so the size rule picks
    translates or the convolution kernel).  The ball translate B + w holds
    exactly the centers w' with w' - w in B, so the centers C are separated
    exactly when (C - C) & B = {0}, and maximal exactly when C + B = G."""
    center_bits = GroupSubset.from_ranks(g, centers).bits
    if center_bits and _sum_bits(g, center_bits, center_bits,
                                 reflect=True) & ball != 1:
        raise AssertionError("packing separation violated")
    if _sum_bits(g, center_bits, ball) != g.full_mask:
        raise AssertionError("packing not maximal")


@dataclasses.dataclass(frozen=True)
class SampledVcReport:
    """Empirical frequency of vcdim{(A+x) & Y : x in X} > d over random X, Y."""

    x_size: int
    y_size: int
    d: int
    trials: int
    hits: int
    frequency: float
    wilson_low: float
    wilson_high: float


def sampled_vc(a: GroupSubset, x_size: int, y_size: int, trials: int, d: int,
               rng_seed: int, caps: Caps = DEFAULT_CAPS) -> SampledVcReport:
    """Draw X and Y uniformly (without replacement) and measure how often the
    restricted translate system has VC dimension exceeding d.  With
    x_size = y_size = |G| and one trial this is exactly set_vc_dimension > d.
    Each trial is a vc_dimension threshold query, so caps.vc_ground_cap
    bounds y_size."""
    g = a.group
    n = g.order
    if not (1 <= x_size <= n and 1 <= y_size <= n):
        raise ValueError("sample sizes must be in 1..|G|")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(rng_seed)
    hits = 0
    everything = range(n)
    for _ in range(trials):
        xs = GroupSubset.from_ranks(g, rng.sample(everything, x_size))
        ys = GroupSubset.from_ranks(g, rng.sample(everything, y_size))
        if vc_dimension(TranslateSystem(a, ys, xs), max_d=d, caps=caps) > d:
            hits += 1
    lo, hi = wilson_interval(hits, trials)
    return SampledVcReport(x_size, y_size, d, trials, hits, hits / trials, lo, hi)


class AdjacencyOracle:
    """Neighbor-mask view of an undirected graph on vertices 0..n-1.

    Explicit edge lists are taken as given (self-loops rejected).  A Cayley
    descriptor over a group subset B connects x and y iff x - y lies in the
    symmetrization of B minus 0."""

    __slots__ = ("n", "neighbor_masks")

    def __init__(self, n: int, neighbor_masks: Sequence[int]):
        if len(neighbor_masks) != n:
            raise ValueError("need one neighbor mask per vertex")
        self.n = n
        self.neighbor_masks = tuple(neighbor_masks)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "AdjacencyOracle":
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

    @classmethod
    def from_cayley(cls, b: GroupSubset) -> "AdjacencyOracle":
        g = b.group
        conn = (b.bits | negate_bits(g, b.bits)) & ~1
        masks = [translate_bits(g, conn, x) for x in range(g.order)]
        return cls(g.order, masks)

    @property
    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.neighbor_masks), default=0)


@dataclasses.dataclass(frozen=True)
class RateReport:
    """Monte-Carlo rate of the greedy independent-subset event."""

    n: int
    k: int
    trials: int
    successes: int
    rate: float
    bound: float
    sigma: float
    meets_bound: bool


def random_independent_subset_rate(graph: AdjacencyOracle, k: int, trials: int,
                                   rng_seed: int) -> RateReport:
    """Sample k distinct vertices in random order, build an independent set
    greedily (keep a vertex iff it has no edge into the kept set), and count
    how often the kept set reaches size k/4.  Requires max degree <= n/k and
    k <= n/2.  The empirical rate is compared against 1 - e^(-k/8) with three
    plug-in standard errors of slack."""
    n = graph.n
    if k < 1 or 2 * k > n:
        raise ValueError("need 1 <= k <= n/2")
    if graph.max_degree * k > n:
        raise ValueError(
            f"max degree {graph.max_degree} exceeds n/k = {n}/{k}"
        )
    rng = random.Random(rng_seed)
    succ = 0
    masks = graph.neighbor_masks
    for _ in range(trials):
        picked = rng.sample(range(n), k)
        kept_mask = 0
        kept = 0
        for v in picked:
            if not masks[v] & kept_mask:
                kept_mask |= 1 << v
                kept += 1
        if 4 * kept >= k:
            succ += 1
    rate = succ / trials
    bound = 1 - math.exp(-k / 8)
    sigma = binomial_sigma(succ, trials)
    return RateReport(n, k, trials, succ, rate, bound, sigma,
                      rate >= bound - 3 * sigma)


@dataclasses.dataclass(frozen=True)
class SeparatedSampleReport:
    """Check of: families that usually look low-dimensional on a random
    m-sample must be small (at most 2m^d members)."""

    family_size: int
    m: int
    d: int
    delta: Fraction
    trials: int
    low_dim_fraction: float
    sigma: float
    threshold: float
    size_bound: int
    applicable: bool
    holds: bool


def separated_sample_bound_check(a: GroupSubset, delta, m: int, d: int,
                                 trials: int, rng_seed: int,
                                 caps: Caps = DEFAULT_CAPS) -> SeparatedSampleReport:
    """Build a maximal delta-separated translate family greedily, estimate the
    probability that its restriction to a random m-element ground sample has
    VC dimension at most d, and test the contrapositive: when that probability
    (minus 3 sigma) still reaches 3 m^(2d) (1-delta)^m, the family must have
    at most 2 m^d members.  Each trial is a threshold search on the traces
    of A's translates by the centers, made once and cut to its sample;
    caps.vc_ground_cap bounds m, checked before the packing is built."""
    dd = _to_fraction(delta)
    g = a.group
    if not 1 <= m <= g.order:
        raise ValueError("m must be in 1..|G|")
    if m > caps.vc_ground_cap:
        raise CapExceeded(f"ground size {m} exceeds vc cap {caps.vc_ground_cap}")
    pack = greedy_packing(a, dd)
    centers = GroupSubset.from_ranks(g, [c.rank for c in pack.centers])
    first = TranslateSystem(a, translators=centers).trace_translators()
    rng = random.Random(rng_seed)
    low = 0
    for _ in range(trials):
        ys = GroupSubset.from_ranks(g, rng.sample(range(g.order), m))
        search = _table_input(a, _cut(first, ys.bits))
        if len(_shattered_witness(*search, False, d + 1)) <= d:
            low += 1
    frac = low / trials
    sigma = binomial_sigma(low, trials)
    threshold = 3 * m ** (2 * d) * float((1 - dd) ** m)
    size_bound = 2 * m**d
    applicable = frac - 3 * sigma >= threshold
    holds = (not applicable) or len(pack.centers) <= size_bound
    return SeparatedSampleReport(len(pack.centers), m, d, dd, trials, frac, sigma,
                                 threshold, size_bound, applicable, holds)
