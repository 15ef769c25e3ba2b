"""Resource caps shared by every operation that can blow up combinatorially,
and the strict readers of JSON scalars and arrays that the cap file and
every other input file share."""
from __future__ import annotations

import dataclasses
import math


class CapExceeded(Exception):
    """An operation was asked to exceed a configured resource cap."""


def _json_int(value, name: str) -> int:
    """value when it is a JSON integer; int() would take true as 1, 1.7 as 1
    and "12" as 12, and bool is an int subclass."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_finite(value, name: str) -> float:
    """value as a float when it is a finite JSON number; float() would take
    true as 1.0 and "nan" as nan, and an integer past the largest float
    raises OverflowError."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _json_list(value, name: str) -> list:
    """value when it is a JSON array; iterating null or a number would
    raise a TypeError that names no field, and a string would be read
    character by character."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _json_object(value, name: str) -> dict:
    """value when it is a JSON object; indexing or testing a key of null, a
    number or a list would raise a TypeError that names no field."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def _json_field(obj: dict, key: str):
    """obj[key], the value of a required field; indexing alone would raise
    a KeyError whose message is the bare key."""
    if key not in obj:
        raise ValueError(f"missing required field {key!r}")
    return obj[key]


def _json_bool(obj: dict, key: str, default: bool | None) -> bool:
    """obj[key] when it is a JSON boolean, default when absent (a default of
    None makes the key required); bool() would read "false" as true."""
    value = (_json_field(obj, key) if default is None
             else obj.get(key, default))
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class Caps:
    """Cap configuration.

    order_cap: largest group order a descriptor may have (bitset rank width).
    subgroup_enum_cap: largest group order for full subgroup-lattice enumeration.
    subgroup_exhaustive_cap: largest order at which max_subgroup_within uses the
        exhaustive lattice as the authoritative answer (least-rank walk beyond).
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
        bad = set(_json_object(obj, "caps")) - known
        if bad:
            raise ValueError(f"unknown cap names: {sorted(bad)}")
        for k, v in obj.items():
            if _json_int(v, f"cap {k}") < 0:
                raise ValueError(
                    f"cap {k} must be a non-negative integer, got {v!r}")
        return cls(**obj)


DEFAULT_CAPS = Caps()
