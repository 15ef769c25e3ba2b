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
while the value is >= n, and getrandbits(32 * w) returns w such words, the
first in the lowest bits.  The accepted values are read in order, and those
left over at the end of one chunk start the next.  The last bulk call may
draw words no sample uses; that is safe because each function creates its
own random.Random and discards it when it returns.

The draws stay in uint32, the dtype of the words, and ranks are held in
uint32 while |G| <= 2**31, in uint64 beyond.  Ranks are added by one digit
decomposition per coordinate in that unsigned dtype: a digit sum s < 2m
wraps to min(s, s - m), which is exact because s - m underflows to a value
above s exactly when s < m.  The check tests one (u, v) pair at a time and
keeps only the rows that pass, so each later pair reads only the rows that
passed every earlier one (about half as many per pair at density 1/2).
Membership is read from A's packed bytes, |G|/8 of them.  Injectivity, a
sort of each row, is checked only on the rows that bi-induce f.
check_witness tests its one witness as a single row of the same check.

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
import random
from fractions import Fraction
from typing import Iterator

import numpy as np

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    GroupElement,
    Subgroup,
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
    """Concrete maps witnessing a bi-induced occurrence of a pattern."""

    pattern: BipartitePattern
    phi_u: tuple[GroupElement, ...]
    phi_v: tuple[GroupElement, ...]
    injective_u: bool
    injective_v: bool

    def __post_init__(self):
        if len(self.phi_u) != self.pattern.u_count:
            raise ValueError("phi_u length mismatch")
        if len(self.phi_v) != self.pattern.v_count:
            raise ValueError("phi_v length mismatch")


def _make_witness(f: BipartitePattern, g: GroupDescriptor,
                  u_ranks: list[int], v_ranks: list[int]) -> BiInducedWitness:
    return BiInducedWitness(
        f,
        tuple(g.element(r) for r in u_ranks),
        tuple(g.element(r) for r in v_ranks),
        len(set(u_ranks)) == len(u_ranks),
        len(set(v_ranks)) == len(v_ranks),
    )


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


def _draw_chunks(rng: random.Random, n: int, samples: int,
                 width: int) -> Iterator[np.ndarray]:
    """The values of samples * width calls of rng.randrange(n), as uint32
    arrays of shape (c, width), c = _CHUNK but for the last: row i holds the
    draws of sample i in call order.  Draws getrandbits(32 * w) in bulk and
    keeps the top k = n.bit_length() bits of each word below n, as
    _randbelow does; the rng must not be used afterwards, since the last call
    may draw more words than the samples use.  The values stay in the
    words' own unsigned dtype, which holds every n < 2**32, and the
    leftovers that start the next chunk are a view, not a copy."""
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
            # a word is accepted with probability n / 2**k > 1/2
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


def _rank_dtype(g: GroupDescriptor) -> type:
    """The unsigned dtype the sampled checks hold ranks of g in: uint32 while
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
    otherwise it is s - m."""
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


class _SampleCheck:
    """The bi-inducing predicate over rows of sampled maps, for one A and f.

    Tests one (u, v) pair at a time, on the rows that passed every earlier
    pair only: a row that fails one pair cannot bi-induce f, and at density
    1/2 each pair drops about half the rows left.  Ranks are summed in
    _rank_dtype(A.group)."""

    __slots__ = ("group", "dtype", "packed", "pairs")

    def __init__(self, a: GroupSubset, f: BipartitePattern):
        n = a.group.order
        self.group = a.group
        self.dtype = _rank_dtype(a.group)
        self.packed = np.frombuffer(a.bits.to_bytes((n + 7) // 8, "little"),
                                    np.uint8)
        self.pairs = [(u, v, (u, v) in f.edges)
                      for u in range(f.u_count) for v in range(f.v_count)]

    def __call__(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The indices i, ascending, for which row i of xs (shape (c, |U|))
        and of ys (shape (c, |V|)) bi-induces f."""
        xs = xs.astype(self.dtype, copy=False)
        ys = ys.astype(self.dtype, copy=False)
        rows = None
        for u, v, edge in self.pairs:
            if rows is None:
                s = _add_ranks(self.group, xs[:, u], ys[:, v])
            else:
                s = _add_ranks(self.group, xs[rows, u], ys[rows, v])
            inside = (self.packed[s >> 3] >> (s & 7)) & 1
            keep = np.flatnonzero(inside == edge)
            rows = keep if rows is None else rows[keep]
        return rows


def _distinct_rows(r: np.ndarray) -> np.ndarray:
    """distinct[i] iff the entries of row i are pairwise distinct."""
    srt = np.sort(r, axis=1)
    return (srt[:, 1:] != srt[:, :-1]).all(axis=1)


def _witness_ranks(a: GroupSubset, f: BipartitePattern, w: BiInducedWitness
                   ) -> tuple[list[int], list[int]]:
    """The ranks of phi_u and of phi_v; ValueError unless w maps each vertex
    of f and every image lies in A's group, since a rank means another
    element in another group."""
    if (len(w.phi_u), len(w.phi_v)) != (f.u_count, f.v_count):
        raise ValueError("witness and pattern differ in vertex counts")
    if any(e.group != a.group for e in w.phi_u + w.phi_v):
        raise ValueError("witness does not belong to the subset's group")
    return [e.rank for e in w.phi_u], [e.rank for e in w.phi_v]


def check_witness(a: GroupSubset, f: BipartitePattern, w: BiInducedWitness,
                  injectivity: str = "none") -> bool:
    """True iff edge(u,v) <=> phi_u(u)+phi_v(v) in A for all pairs, tested as
    the one row of a _SampleCheck; ValueError for a witness of another group
    or of another vertex count.

    injectivity: "none" checks only the iff condition; "per_side" also
    requires each map injective; "global" requires all u- and v-images
    pairwise distinct as one set."""
    if injectivity not in ("none", "per_side", "global"):
        raise ValueError(f"unknown injectivity mode {injectivity!r}")
    u_ranks, v_ranks = _witness_ranks(a, f, w)
    if not _SampleCheck(a, f)(np.array([u_ranks]), np.array([v_ranks])).size:
        return False
    if injectivity == "per_side":
        return (len(set(u_ranks)) == f.u_count
                and len(set(v_ranks)) == f.v_count)
    if injectivity == "global":
        return len(set(u_ranks + v_ranks)) == f.u_count + f.v_count
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
    g = a.group
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
        return _make_witness(f, g, u_ranks, v_ranks)
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
    w = _make_witness(f, g, u_ranks, v_ranks)
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
    check = _SampleCheck(a, f)
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
            for xe in w.phi_u:
                for ye in w.phi_v:
                    pos |= 1 << add_rank(g, xe.rank, ye.rank)
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
    u_ranks, v_ranks = _witness_ranks(a, f, w)
    size = h.size
    counts = {
        (u, v): (a.bits & translate_bits(g, h.bits,
                                         add_rank(g, xr, yr))).bit_count()
        for u, xr in enumerate(u_ranks) for v, yr in enumerate(v_ranks)
    }
    if any((2 * c >= size) != (uv in f.edges) for uv, c in counts.items()):
        raise ValueError("witness does not bi-induce the pattern in the "
                         "rounded set; the perturbation bound does not apply")
    eta = Fraction(1, 2 * f.u_count * f.v_count)
    for (u, v), c in counts.items():
        if not _good(c, size, eta):
            raise ValueError(
                f"pair coset for (u={u}, v={v}) is bad at eta={eta}"
            )
    check = _SampleCheck(a, f)
    h_ranks = np.array(h.ranks(), check.dtype)
    base = np.array(u_ranks + v_ranks, check.dtype)
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
    """A 2k-term progression with the first k terms in A, the last k out."""

    start: GroupElement
    step: GroupElement
    k: int
    terms: tuple[GroupElement, ...]


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
            ok = True
            for j in range(2 * k):
                inside = bool((bits >> r) & 1)
                if inside != (j < k):
                    ok = False
                    break
                if j < 2 * k - 1:
                    r = add_rank(g, r, d)
            if ok:
                terms = []
                r = x
                for j in range(2 * k):
                    terms.append(g.element(r))
                    r = add_rank(g, r, d)
                return APWitness(g.element(x), g.element(d), k, tuple(terms))
    return None


def ap_half_graph_witness(a: GroupSubset, ap: APWitness
                          ) -> tuple[BipartitePattern, BiInducedWitness]:
    """Turn a split progression into a half-graph copy: with x the last
    in-A term and step d, phi_u(i) = (i+1)d and phi_v(j) = x - (j+1)d give
    phi_u(i) + phi_v(j) = x + (i-j)d, which lies in A iff i <= j.  A found
    progression forces the step's order above 2k-1, so both maps are
    injective."""
    g = a.group
    k = ap.k
    f = half_graph(k)
    d = ap.step.rank
    last_in = ap.terms[k - 1].rank
    u_ranks = []
    r = 0
    for _ in range(k):
        r = add_rank(g, r, d)
        u_ranks.append(r)
    v_ranks = []
    r = last_in
    for _ in range(k):
        r = add_rank(g, r, neg_rank(g, d))
        v_ranks.append(r)
    w = _make_witness(f, g, u_ranks, v_ranks)
    if not check_witness(a, f, w, injectivity="per_side"):
        raise AssertionError("progression produced an invalid half-graph copy")
    return f, w
