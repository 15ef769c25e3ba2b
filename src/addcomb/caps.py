"""Resource caps shared by every operation that can blow up combinatorially."""
from __future__ import annotations

import dataclasses


class CapExceeded(Exception):
    """An operation was asked to exceed a configured resource cap."""


@dataclasses.dataclass(frozen=True)
class Caps:
    """Cap configuration.

    order_cap: largest group order a descriptor may have (bitset rank width).
    subgroup_enum_cap: largest group order for full subgroup-lattice enumeration.
    subgroup_exhaustive_cap: largest order at which max_subgroup_within uses the
        exhaustive lattice as the authoritative answer (greedy closure beyond).
    vc_ground_cap: largest ground-set size accepted by the shattering search,
        including the sampled ground sets of sampled_vc and
        separated_sample_bound_check (and so of robust_pipeline).
    pattern_visit_cap: visit budget for the bi-induced search, counted on its
        V-side sweep anchored at phi_v(0) = 0: one visit per y tried for a
        V-vertex.
    density_enum_cap: largest |G|**|V(F)| accepted by exhaustive_density.
    distance_group_cap: largest |G| accepted by distance_to_free, whose
        search visits other sets than a scan over flip sets would, so a
        small pattern_visit_cap may trip on other inputs than it did.
    """

    order_cap: int = 1 << 20
    subgroup_enum_cap: int = 1 << 12
    subgroup_exhaustive_cap: int = 64
    vc_ground_cap: int = 1 << 14
    pattern_visit_cap: int = 10**9
    density_enum_cap: int = 10**7
    distance_group_cap: int = 16

    @classmethod
    def from_json(cls, obj: dict) -> "Caps":
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(obj) - known
        if bad:
            raise ValueError(f"unknown cap names: {sorted(bad)}")
        for k, v in obj.items():
            # bool is an int subclass, and int() would take 1.7 or "12"
            if type(v) is not int or v < 0:
                raise ValueError(
                    f"cap {k} must be a non-negative integer, got {v!r}")
        return cls(**obj)


DEFAULT_CAPS = Caps()
