"""Exhaustive verification surfaces for small groups.

Checking a property for every subset of every group of order up to 16 is
only feasible after quotienting by the symmetries the measured quantities
respect: translation A -> A + z permutes the translate system and the
symmetric-difference profile, and complementation A -> G\\A preserves the
profile outright and reflects every trace pattern, so VC dimension, packing
and ball sizes, trace counts and rounding errors are all constant on the
orbit {A + z} u {complement(A) + z}.  orbit_representatives returns the
lexicographic minimum of each orbit, vectorized over all 2^|G| subsets at
once.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .groups import GroupDescriptor, _factorize, add_rank

__all__ = [
    "abelian_group_moduli",
    "all_abelian_groups",
    "orbit_representatives",
]


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, parts non-increasing."""
    if n == 0:
        yield ()
        return
    def rec(remaining: int, largest: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    yield from rec(n, n)


def abelian_group_moduli(n: int) -> list[tuple[int, ...]]:
    """All abelian groups of order n up to isomorphism, one canonical moduli
    tuple each: prime-power cyclic factors, sorted ascending.  Every abelian
    group splits uniquely into prime-power cyclic factors, one partition of
    the exponent per prime."""
    if n < 2:
        raise ValueError("order must be >= 2")
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in _factorize(n):
        per_prime.append([tuple(p**part for part in parts)
                          for parts in _partitions(e)])
    combos: list[tuple[int, ...]] = [()]
    for options in per_prime:
        combos = [c + opt for c in combos for opt in options]
    return sorted({tuple(sorted(c)) for c in combos})


def all_abelian_groups(max_order: int, min_order: int = 2
                       ) -> list[GroupDescriptor]:
    out = []
    for n in range(min_order, max_order + 1):
        for mods in abelian_group_moduli(n):
            out.append(GroupDescriptor(mods))
    return out


def orbit_representatives(g: GroupDescriptor) -> list[int]:
    """Minimum bitset of every orbit of subsets of g under translation and
    complementation, ascending.  Requires |G| <= 24 (2^|G| subsets are
    materialized as one numpy vector)."""
    n = g.order
    if n > 24:
        raise ValueError(f"order {n} too large for full subset enumeration")
    subs = np.arange(1 << n, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    best = np.minimum(subs, full ^ subs)
    one = np.uint32(1)
    for x in range(1, n):
        t = np.zeros_like(subs)
        for r in range(n):
            t |= ((subs >> np.uint32(r)) & one) << np.uint32(add_rank(g, r, x))
        np.minimum(best, t, out=best)
        np.minimum(best, full ^ t, out=best)
    return [int(v) for v in np.unique(best)]
