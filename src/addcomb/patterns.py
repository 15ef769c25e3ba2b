"""Bi-induced bipartite patterns inside group subsets.

A bipartite pattern F has parts U and V (indices 0-based internally).  Maps
phi_u: U -> G and phi_v: V -> G bi-induce F in A when for every pair (u, v)

    (u, v) is an edge of F  <=>  phi_u(u) + phi_v(v) in A.

A *copy* additionally requires phi_u and phi_v to be injective.  The search
assigns the V side first: once phi_v is fixed, the x values usable for a
vertex u are exactly the x whose pattern (which translates A - phi_v(v)
contain x) equals u's neighborhood, so per-u candidate masks both prune the
search and count completions in closed form.

Column table.  The sweep reads A - y for every y at every node above the
last V-vertex, so each column is read many times per call.  Each sweep
builds one table of these columns, filled on first use, so a column costs
one translate per call however often it is read.  The table stores at most
_COLUMN_TABLE_BITS // |G| columns (16 MiB); past that it computes a column
without keeping it, so memory stays bounded whatever |G| is.

Sampled checks.  sample_tester and densify test their samples with numpy,
_CHUNK samples at a time, so memory stays bounded whatever the sample count.
They replay the draws of rng.randrange(n) and rng.choice(seq) with
len(seq) = n in bulk: both call CPython's _randbelow(n), which takes the top
k = n.bit_length() bits of one 32-bit Mersenne Twister word and draws again
while the value is >= n.  The words come from numpy's MT19937 with the
generator's state copied in: it is the same Mersenne Twister, so random_raw
continues the stream word for word, as the generator's own draws would.  The
accepted values are read in order, and those left over at the end of one
chunk start the next.  The last bulk call may draw words no sample uses;
they are drawn from the copy, so the random.Random itself is not advanced.
Each thread keeps one spare MT19937, since constructing one seeds it from a
fresh SeedSequence at a cost above that of a small draw: a draw takes the
spare, sets its whole state, and puts it back when it ends or is closed; a
draw opened while another of the thread holds the spare builds its own.

The draws are held in uint32, the width of a word, and ranks are held in
uint32 while |G| <= 2**31, in uint64 beyond.  The check tests one (u, v)
pair at a time and keeps only the rows that pass, so each later pair reads
only the rows that passed every earlier one (about half as many per pair at
density 1/2).  A pair reads membership of x + y in A from the table of its
edge bit, A or its complement, built once per check.  When the group is
small, |G|^2 <= min(rows, _CHUNK) |U| |V| for a check of `rows` samples,
the tables hold one entry per pair of ranks, at index x |G| + y: they then
hold no more entries than one chunk has pair sums, and a pair is one add and
one gather.  Past that rule they hold one entry per rank, and the pair adds
its ranks with groups._add_ranks, one digit decomposition per coordinate in
the unsigned dtype: a digit sum s < 2m wraps to min(s, s - m), which is
exact because s - m underflows to a value above s exactly when s < m.
Injectivity, a sort of each row, is checked only on the rows that
bi-induce f.

Anchor.  The accepted phi_v tuples of the V-side sweep are closed under the
shift y -> y - z, and the per-u mask sizes do not change under it.  So the
lexicographically first accepted tuple has phi_v(0) = 0, and the sweep tries
only y = 0 for the first V-vertex: find_bi_induced returns the same witness,
and exhaustive_density is |G| times the anchored sum.

Distance to free.  A copy of F in a set B lives on its sum positions
P = {phi_u(u) + phi_v(v)} and stays a copy in every B' with B' & P == B & P,
so a free set within t flips of B flips a position of P.  distance_to_free
branches on flipping each position of P in rank order, fixing it once its
branch is done, so the branches are disjoint and the search is exact; the
tree has at most |P|^t leaves, against C(|G|, t) flip sets.  Each copy
found is kept, and a set that holds a kept copy needs no new search.
"""
from __future__ import annotations

import dataclasses
import functools
import random
import threading
from fractions import Fraction
from typing import Iterator

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    Subgroup,
    _add_ranks,
    _checked_rank,
    _rank_dtype,
    add_rank,
    cosets,
    neg_rank,
    translate_bits,
)
from .stats import binomial_sigma, wilson_interval
from .subsets import GroupSubset
from .vc import _cut, _least_shattered

__all__ = [
    "BipartitePattern",
    "BiInducedWitness",
    "TesterReport",
    "CosetGoodness",
    "DensifyReport",
    "APWitness",
    "half_graph",
    "augment_f_plus",
    "check_witness",
    "find_bi_induced",
    "witness_from_shattering",
    "sample_tester",
    "exhaustive_density",
    "distance_to_free",
    "coset_goodness",
    "densify",
    "ap_search",
    "ap_half_graph_witness",
]


@dataclasses.dataclass(frozen=True)
class BipartitePattern:
    """A bipartite pattern: u_count by v_count vertices, edges 0-based."""

    u_count: int
    v_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.u_count < 1 or self.v_count < 1:
            raise ValueError("pattern needs at least one vertex per side")
        for u, v in self.edges:
            if not (0 <= u < self.u_count and 0 <= v < self.v_count):
                raise ValueError(f"edge ({u},{v}) out of range")

    def u_neighborhood(self, u: int) -> frozenset[int]:
        return frozenset(v for (uu, v) in self.edges if uu == u)

    @property
    def has_duplicate_u_neighborhoods(self) -> bool:
        seen = set()
        for u in range(self.u_count):
            nb = self.u_neighborhood(u)
            if nb in seen:
                return True
            seen.add(nb)
        return False

    @property
    def vertex_count(self) -> int:
        return self.u_count + self.v_count


def half_graph(k: int) -> BipartitePattern:
    """The k by k half graph: u_i adjacent to v_j iff i <= j (0-based)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return BipartitePattern(
        k, k, frozenset((i, j) for i in range(k) for j in range(k) if i <= j)
    )


def augment_f_plus(f: BipartitePattern) -> BipartitePattern:
    """Append ceil(log2(u_count)) new V-vertices whose edges spell each u's
    index in binary, making all U-neighborhoods pairwise distinct.  The same
    recipe is applied whether or not F already had duplicates."""
    extra = (f.u_count - 1).bit_length()
    edges = set(f.edges)
    for u in range(f.u_count):
        for b in range(extra):
            if (u >> b) & 1:
                edges.add((u, f.v_count + b))
    return BipartitePattern(f.u_count, f.v_count + extra, frozenset(edges))


@dataclasses.dataclass(frozen=True)
class BiInducedWitness:
    """Maps witnessing a bi-induced occurrence of a pattern in a group:
    phi_u and phi_v hold the ranks of the images, each read as a Python int
    (operator.index, so a float raises TypeError) in [0, |G|)."""

    pattern: BipartitePattern
    group: GroupDescriptor
    phi_u: tuple[int, ...]
    phi_v: tuple[int, ...]

    def __post_init__(self):
        for side, count in (("phi_u", self.pattern.u_count),
                            ("phi_v", self.pattern.v_count)):
            ranks = tuple(_checked_rank(self.group, r)
                          for r in getattr(self, side))
            if len(ranks) != count:
                raise ValueError(f"{side} length mismatch")
            object.__setattr__(self, side, ranks)

    @property
    def injective_u(self) -> bool:
        return len(set(self.phi_u)) == len(self.phi_u)

    @property
    def injective_v(self) -> bool:
        return len(set(self.phi_v)) == len(self.phi_v)


# A column table stores at most this many bits (16 MiB), whatever |G| is.
_COLUMN_TABLE_BITS = 1 << 27


class _Columns(dict):
    """Column y is the bitset of A - y: bit x is set iff x + y is in A.

    Filled on first use; stores at most _COLUMN_TABLE_BITS // |G| columns
    and computes any further column without keeping it."""

    __slots__ = ("group", "bits", "room")

    def __init__(self, a: GroupSubset):
        super().__init__()
        self.group = a.group
        self.bits = a.bits
        self.room = _COLUMN_TABLE_BITS // a.group.order

    def __missing__(self, y: int) -> int:
        g = self.group
        col = translate_bits(g, self.bits, neg_rank(g, y))
        if len(self) < self.room:
            self[y] = col
        return col


# Samples tested per numpy pass of sample_tester and densify.
_CHUNK = 4096

# Each thread's spare MT19937 for _draw_chunks, in slot "mt": constructing
# one seeds it from a fresh SeedSequence, which costs more than a small draw.
_mt_slot = threading.local()


def _draw_chunks(rng: random.Random, n: int, samples: int,
                 width: int) -> Iterator[np.ndarray]:
    """The values of samples * width calls of rng.randrange(n), as uint32
    arrays of shape (c, width), c = _CHUNK but for the last: row i holds the
    draws of sample i in call order.  Copies rng's Mersenne Twister state
    into one numpy MT19937, whose random_raw words continue rng's stream
    word for word, draws them in bulk and keeps the top k = n.bit_length()
    bits of each word below n, as _randbelow does.  rng itself is not
    advanced: it stays where it was, whatever the copy drew.  The values
    are held in uint32, which holds every n < 2**32, and the leftovers that
    start the next chunk are a view, not a copy.

    The MT19937 is the thread's spare, taken out of its slot for the draw
    and put back once the draw ends or is closed; a draw that finds the
    slot empty (another draw of the thread is open) builds its own, so no
    two open draws share one.  Setting the state overwrites all of it."""
    k = n.bit_length()
    if k > 32:
        raise ValueError("bulk draws need n < 2**32")
    words = rng.getstate()[1]  # 624 key words, then the position
    mt = getattr(_mt_slot, "mt", None) or np.random.MT19937()
    _mt_slot.mt = None  # a draw started before this one ends builds its own
    try:
        # a tuple key is read word by word; an array key would box each word
        mt.state = {"bit_generator": "MT19937",
                    "state": {"key": words[:624], "pos": words[624]}}
        spare = np.empty(0, np.uint32)
        for start in range(0, samples, _CHUNK):
            c = min(_CHUNK, samples - start)
            need = c * width
            parts = [spare]
            have = spare.size
            while have < need:
                # a word is accepted with probability n / 2**k > 1/2
                w = ((need - have) << k) // n + 1
                vals = mt.random_raw(w).astype(np.uint32) >> (32 - k)
                vals = np.compress(vals < n, vals)
                parts.append(vals)
                have += vals.size
            got = np.concatenate(parts)
            spare = got[need:]
            yield got[:need].reshape(c, width)
    finally:
        _mt_slot.mt = mt


class _SampleCheck:
    """The bi-inducing predicate over rows of sampled maps, for one A and f
    and a caller that tests `rows` rows in all (its sample count).

    Tests one (u, v) pair at a time, on the rows that passed every earlier
    pair only: a row that fails one pair cannot bi-induce f, and at density
    1/2 each pair drops about half the rows left.  A pair reads the table of
    its edge bit, tables[1] (x + y in A) or tables[0] (not in A), at
    index(x, y).  While |G|^2 <= min(rows, _CHUNK) |U| |V|, i.e. the tables
    hold no more entries than one chunk has pair sums, and |G| <= 2**16, the
    tables have |G|^2 entries, built once as A's membership at
    _add_ranks(x, y) for every pair of ranks: xs is multiplied by
    scale = |G| once per call, and index is one add, x |G| + y < 2**32.
    Otherwise scale is None and index is _add_ranks, into tables of |G|
    entries.  Ranks are held in _rank_dtype(A.group)."""

    __slots__ = ("dtype", "scale", "index", "tables", "pairs")

    def __init__(self, a: GroupSubset, f: BipartitePattern, rows: int):
        g = a.group
        n = g.order
        self.dtype = _rank_dtype(g)
        packed = np.frombuffer(a.bits.to_bytes((n + 7) // 8, "little"),
                               np.uint8)
        inside = np.unpackbits(packed, count=n, bitorder="little").view(bool)
        if (n * n <= min(rows, _CHUNK) * f.u_count * f.v_count
                and n <= 1 << 16):
            r = np.arange(n, dtype=self.dtype)
            inside = inside[_add_ranks(g, r[:, None], r[None, :])].ravel()
            self.scale, self.index = self.dtype(n), np.add
        else:
            self.scale, self.index = None, functools.partial(_add_ranks, g)
        self.tables = (~inside, inside)
        self.pairs = [(u, v, (u, v) in f.edges)
                      for u in range(f.u_count) for v in range(f.v_count)]

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The indices i, ascending, for which row i of xs (shape (c, |U|))
        and of ys (shape (c, |V|)) bi-induces f."""
        xs = xs.astype(self.dtype, copy=False)
        ys = ys.astype(self.dtype, copy=False)
        if self.scale is not None:
            xs = xs * self.scale
        rows = None
        for u, v, edge in self.pairs:
            if rows is None:
                s = self.index(xs[:, u], ys[:, v])
            else:
                s = self.index(xs[rows, u], ys[rows, v])
            keep = np.flatnonzero(self.tables[edge][s])
            rows = keep if rows is None else rows[keep]
        return rows


def _distinct_rows(r: np.ndarray) -> np.ndarray:
    """distinct[i] iff the entries of row i are pairwise distinct."""
    srt = np.sort(r, axis=1)
    return (srt[:, 1:] != srt[:, :-1]).all(axis=1)


def _check_fit(a: GroupSubset, f: BipartitePattern,
               w: BiInducedWitness) -> None:
    """ValueError unless w maps each vertex of f into A's group, since a
    rank means another element in another group."""
    if w.group != a.group:
        raise ValueError("witness does not belong to the subset's group")
    if (len(w.phi_u), len(w.phi_v)) != (f.u_count, f.v_count):
        raise ValueError("witness and pattern differ in vertex counts")


def _pair_sums(w: BiInducedWitness) -> dict[tuple[int, int], int]:
    """The rank of phi_u(u) + phi_v(v) for every pair (u, v), u-major."""
    return {(u, v): add_rank(w.group, x, y)
            for u, x in enumerate(w.phi_u) for v, y in enumerate(w.phi_v)}


def check_witness(a: GroupSubset, f: BipartitePattern, w: BiInducedWitness,
                  injectivity: str = "none") -> bool:
    """True iff edge(u,v) <=> phi_u(u)+phi_v(v) in A for all pairs, read as
    bit s of A for each pair sum s: densify's rounded-set condition at
    H = {0}.  ValueError for a witness of another group or of another
    vertex count.

    injectivity: "none" checks only the iff condition; "per_side" also
    requires each map injective; "global" requires all u- and v-images
    pairwise distinct as one set."""
    if injectivity not in ("none", "per_side", "global"):
        raise ValueError(f"unknown injectivity mode {injectivity!r}")
    _check_fit(a, f, w)
    if any((a.bits >> s) & 1 != (uv in f.edges)
           for uv, s in _pair_sums(w).items()):
        return False
    if injectivity == "per_side":
        return w.injective_u and w.injective_v
    if injectivity == "global":
        return len(set(w.phi_u + w.phi_v)) == f.u_count + f.v_count
    return True


def _v_sweep(cols: _Columns, f: BipartitePattern, distinct: bool,
             budget: int) -> Iterator[tuple[list[int], list[int]]]:
    """Every phi_v with phi_v(0) = 0 in rank order whose per-u masks all stay
    nonempty, as (v_ranks, masks): mask u is the bitset of x with
    x + phi_v(v) in A iff v in N(u).  The anchor loses nothing: shifting a
    whole tuple by -phi_v(0) keeps it accepted and shifts every mask.  Each
    y tried for a V-vertex is one visit; distinct skips y already in phi_v,
    and the visit past the budget raises CapExceeded."""
    n = cols.group.order
    full = cols.group.full_mask
    nbhd = [f.u_neighborhood(u) for u in range(f.u_count)]
    visits = 0

    def extend(v_ranks: list[int], masks: list[int]
               ) -> Iterator[tuple[list[int], list[int]]]:
        nonlocal visits
        v_idx = len(v_ranks)
        if v_idx == f.v_count:
            yield v_ranks, masks
            return
        for y in range(n if v_idx else 1):
            if distinct and y in v_ranks:
                continue
            visits += 1
            if visits > budget:
                raise CapExceeded(f"pattern search exceeded {budget} visits")
            t = cols[y]
            new_masks = []
            for u in range(f.u_count):
                m = masks[u] & (t if v_idx in nbhd[u] else (full ^ t))
                if not m:
                    break
                new_masks.append(m)
            else:
                yield from extend(v_ranks + [y], new_masks)

    return extend([], [full] * f.u_count)


def find_bi_induced(a: GroupSubset, f: BipartitePattern,
                    require_injective: bool = True,
                    caps: Caps = DEFAULT_CAPS) -> BiInducedWitness | None:
    """First bi-induced occurrence of f in a, scanning phi_v assignments in
    rank order; None when no occurrence exists.

    With require_injective, both sides must be injective.  Distinct
    U-neighborhoods have disjoint candidate masks, so injectivity on the U
    side only needs each mask to hold as many candidates as the vertices
    sharing it.  Budgeted by caps.pattern_visit_cap visits of the anchored
    sweep."""
    groups_by_nb: dict[frozenset, list[int]] = {}
    for u in range(f.u_count):
        groups_by_nb.setdefault(f.u_neighborhood(u), []).append(u)
    for v_ranks, masks in _v_sweep(_Columns(a), f, require_injective,
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


def witness_from_shattering(a: GroupSubset, f: BipartitePattern,
                            caps: Caps = DEFAULT_CAPS) -> BiInducedWitness | None:
    """Build a bi-induced copy of f from a shattered set, or None when the
    VC dimension of A's translate system is too small.

    The augmented pattern F+ has all U-neighborhoods distinct; a shattered
    set of size v_count(F+) supplies phi_v, and the search's trace table,
    cut to the set, the translate realizing each u's pattern for phi_u.
    Distinct patterns force distinct phi_u, so both maps are injective."""
    fp = augment_f_plus(f)
    g = a.group
    shat, first = _least_shattered(a, fp.v_count, caps)
    if shat is None:
        return None
    first = _cut(first, sum(1 << p for p in shat))
    want = [sum(1 << shat[v] for v in fp.u_neighborhood(u))
            for u in range(fp.u_count)]
    if any(pat not in first for pat in want):
        raise AssertionError("shattered set failed to realize a pattern")
    u_ranks = [neg_rank(g, first[pat]) for pat in want]
    v_ranks = shat[:f.v_count]
    w = BiInducedWitness(f, g, u_ranks, v_ranks)
    if not check_witness(a, f, w, injectivity="per_side"):
        raise AssertionError("constructed witness failed verification")
    return w


@dataclasses.dataclass(frozen=True)
class TesterReport:
    """Sampled bi-inducing statistics and the one-sided YES/NO decision."""

    samples: int
    bi_inducing: int
    bi_fraction: float
    wilson_low: float
    wilson_high: float
    injective_bi_inducing: int
    injective_fraction: float
    decision: str


def sample_tester(a: GroupSubset, f: BipartitePattern, samples: int,
                  rng_seed: int) -> TesterReport:
    """Draw uniform maps V(F) -> G (coordinates independent, repeats allowed)
    and count how many bi-induce f; the decision is YES iff some sampled map
    bi-induces f and is injective on each side, so a YES always carries a
    verified witness and the tester never errs on pattern-free sets."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check = _SampleCheck(a, f, samples)
    bi = 0
    inj = 0
    for ranks in _draw_chunks(random.Random(rng_seed), a.group.order, samples,
                              f.vertex_count):
        xs = ranks[:, :f.u_count]
        ys = ranks[:, f.u_count:]
        hit = check(xs, ys)
        bi += hit.size
        inj += int(np.count_nonzero(_distinct_rows(xs[hit])
                                    & _distinct_rows(ys[hit])))
    lo, hi = wilson_interval(bi, samples)
    return TesterReport(samples, bi, bi / samples, lo, hi, inj,
                        inj / samples, "YES" if inj else "NO")


def exhaustive_density(a: GroupSubset, f: BipartitePattern,
                       caps: Caps = DEFAULT_CAPS) -> Fraction:
    """Exact probability that a uniform map V(F) -> G bi-induces f.

    Enumerates only the |G|^v_count V-side assignments; for each, the number
    of completing U-side maps is the product of the per-u candidate mask
    sizes; the anchored sweep covers one tuple of each shift class, so the
    sum over all tuples is |G| times its sum.  Injectivity is not required,
    matching the sampled fraction."""
    g = a.group
    n = g.order
    if n ** f.vertex_count > caps.density_enum_cap:
        raise CapExceeded(
            f"|G|^{f.vertex_count} exceeds density cap {caps.density_enum_cap}"
        )
    # with the anchor, visits <= 1 + n + ... + n^(v-1) <= n^v <= n^vertex_count
    # (n >= 2), so the budget never trips here
    total = 0
    for _, masks in _v_sweep(_Columns(a), f, False, caps.density_enum_cap):
        prod = 1
        for m in masks:
            prod *= m.bit_count()
        total += prod
    return Fraction(n * total, n ** f.vertex_count)


def distance_to_free(a: GroupSubset, f: BipartitePattern,
                     caps: Caps = DEFAULT_CAPS) -> int:
    """Minimum |A xor A'| over A' containing no injective bi-induced copy of
    f: the least t for which the search within t flips (see the module
    docstring) finds a free set.  Capped at caps.distance_group_cap group
    order."""
    g = a.group
    n = g.order
    if n > caps.distance_group_cap:
        raise CapExceeded(
            f"order {n} exceeds distance cap {caps.distance_group_cap}"
        )
    found: list[tuple[int, int]] = []

    def frees(b: int, left: int, fixed: int) -> bool:
        """Whether a free set lies within `left` flips of b, none in fixed."""
        pos = next((p for p, on in found if b & p == on), 0)
        if not pos:
            w = find_bi_induced(GroupSubset(g, b), f, require_injective=True,
                                caps=caps)
            if w is None:
                return True
            for s in _pair_sums(w).values():
                pos |= 1 << s
            found.append((pos, b & pos))
        rest = pos & ~fixed if left else 0
        while rest:
            p = rest & -rest
            rest ^= p
            if frees(b ^ p, left - 1, fixed | p):
                return True
            fixed |= p
        return False

    for t in range(n + 1):
        if frees(a.bits, t, 0):
            return t
    raise AssertionError("unreachable: every set was searched, and the empty "
                         "set or the whole group is free of any pattern")


@dataclasses.dataclass(frozen=True)
class CosetGoodness:
    """Which H-cosets have A-density within eta of 0 or 1."""

    subgroup: Subgroup
    eta: Fraction
    good: tuple[bool, ...]
    bad_fraction: Fraction

    @property
    def all_good(self) -> bool:
        return all(self.good)


def _good(count: int, size: int, eta: Fraction) -> bool:
    """Whether a coset of the given size holding count elements of A has
    A-density within eta of 0 or 1 (the boundary is good)."""
    dens = Fraction(count, size)
    return dens <= eta or dens >= 1 - eta


def coset_goodness(a: GroupSubset, h: Subgroup,
                   f: BipartitePattern) -> CosetGoodness:
    """Classify cosets with eta = 1 / (2 |U| |V|); the boundary is good."""
    g = a.group
    eta = Fraction(1, 2 * f.u_count * f.v_count)
    flags = [_good((a.bits & c).bit_count(), h.size, eta) for c in cosets(g, h)]
    bad = sum(1 for x in flags if not x)
    return CosetGoodness(h, eta, tuple(flags), Fraction(bad, len(flags)))


@dataclasses.dataclass(frozen=True)
class DensifyReport:
    samples: int
    hits: int
    fraction: float
    sigma: float
    bound: Fraction
    meets_bound: bool


def densify(a: GroupSubset, h: Subgroup, f: BipartitePattern,
            w: BiInducedWitness, samples: int, rng_seed: int) -> DensifyReport:
    """Perturb a witness within its cosets and measure how often it still
    bi-induces f in A.

    Requires the witness to bi-induce f in the rounded set coset_round(A, H)
    and every pair coset phi_u(u) + phi_v(v) + H to be good at
    eta = 1/(2|U||V|): each perturbed pair then disagrees with the pattern
    with probability at most eta, so the joint success probability is at
    least 1/2.  Asserted with three standard errors of slack.

    Both preconditions read only the count c of A in each pair coset, since
    phi_u(u) + phi_v(v) lies in coset_round(A, H) iff 2c >= |H|: densify
    makes |U| |V| translates of H and walks no other coset."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    g = a.group
    if h.group != g:
        raise ValueError("subgroup does not belong to the subset's group")
    _check_fit(a, f, w)
    size = h.size
    counts = {uv: (a.bits & translate_bits(g, h.bits, s)).bit_count()
              for uv, s in _pair_sums(w).items()}
    if any((2 * c >= size) != (uv in f.edges) for uv, c in counts.items()):
        raise ValueError("witness does not bi-induce the pattern in the "
                         "rounded set; the perturbation bound does not apply")
    eta = Fraction(1, 2 * f.u_count * f.v_count)
    for (u, v), c in counts.items():
        if not _good(c, size, eta):
            raise ValueError(
                f"pair coset for (u={u}, v={v}) is bad at eta={eta}"
            )
    check = _SampleCheck(a, f, samples)
    h_ranks = np.array(h.ranks(), check.dtype)
    base = np.array(w.phi_u + w.phi_v, check.dtype)
    hits = 0
    for idx in _draw_chunks(random.Random(rng_seed), size, samples,
                            f.vertex_count):
        ranks = _add_ranks(g, base, h_ranks[idx])
        hits += check(ranks[:, :f.u_count], ranks[:, f.u_count:]).size
    frac = hits / samples
    sigma = binomial_sigma(hits, samples)
    bound = Fraction(1, 2)
    return DensifyReport(samples, hits, frac, sigma, bound,
                         frac >= float(bound) - 3 * sigma)


@dataclasses.dataclass(frozen=True)
class APWitness:
    """A 2k-term progression of a group with the first k terms in A, the
    last k out: start, step and terms are ranks."""

    group: GroupDescriptor
    start: int
    step: int
    k: int
    terms: tuple[int, ...]


def _progression(g: GroupDescriptor, start: int, step: int,
                 count: int) -> tuple[int, ...]:
    """The ranks of start, start + step, ..., count terms."""
    terms = [start]
    for _ in range(count - 1):
        terms.append(add_rank(g, terms[-1], step))
    return tuple(terms)


def ap_search(a: GroupSubset, k: int) -> APWitness | None:
    """First (start, step) in rank order whose 2k-term progression has its
    first k terms in A and last k terms outside A; None when no such
    progression exists.  Exhaustive over all |G|^2 pairs with nonzero step."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = a.group
    n = g.order
    if 2 * k > n:
        raise ValueError("progression length 2k exceeds |G|")
    bits = a.bits
    for x in range(n):
        if not (bits >> x) & 1:
            continue
        for d in range(1, n):
            r = x
            for j in range(1, 2 * k):
                r = add_rank(g, r, d)
                if (bits >> r) & 1 != (j < k):
                    break
            else:
                return APWitness(g, x, d, k, _progression(g, x, d, 2 * k))
    return None


def ap_half_graph_witness(a: GroupSubset, ap: APWitness
                          ) -> tuple[BipartitePattern, BiInducedWitness]:
    """Turn a split progression into a half-graph copy: with x the last
    in-A term and step d, phi_u(i) = (i+1)d and phi_v(j) = x - (j+1)d give
    phi_u(i) + phi_v(j) = x + (i-j)d, which lies in A iff i <= j.  A found
    progression forces the step's order above 2k-1, so both maps are
    injective.  A progression of another group than A's raises ValueError."""
    g, k, d = ap.group, ap.k, ap.step
    f = half_graph(k)
    back = neg_rank(g, d)
    first_v = add_rank(g, ap.terms[k - 1], back)
    w = BiInducedWitness(f, g, _progression(g, d, d, k),
                         _progression(g, first_v, back, k))
    if not check_witness(a, f, w, injectivity="per_side"):
        raise AssertionError("progression produced an invalid half-graph copy")
    return f, w
