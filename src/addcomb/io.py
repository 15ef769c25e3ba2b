"""File formats and canonical JSON serialization.

Set files carry either a hex bitset or an explicit element list; hex is
canonical on output.  The hex string is little-endian by nibble: character j
encodes bits 4j..4j+3, so bit i of the group bitset (= rank i) is bit (i & 3)
of nibble i >> 2.  Patterns are 1-based on disk, 0-based in memory.

value_to_json is the one encoding of a library result: a Fraction becomes
its exact "p/q" string (never a float), a group element its coordinate
list, a tuple or list a list of encoded items, a dict an object of its
encoded values under the same keys, and a dataclass an object of its
encoded fields, keyed by field name.  Anything else is already JSON.
The certificate and witness formats, which have readers, stay explicit.
A count or a coordinate read from a file must be a JSON integer, a flag a
JSON boolean, a trace's k_value a finite JSON number, a list (moduli,
elements, edges, generators) a JSON array, a bitset a hex string and a
file's top level or a nested record (a certificate's subgroup and trace) a
JSON object; any other value, and a required field that is missing, is
refused with a ValueError that names the field.
"""
from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .caps import (Caps, DEFAULT_CAPS, _json_bool, _json_field, _json_finite,
                   _json_int, _json_list, _json_object)
from .groups import GroupDescriptor, GroupElement, Subgroup, _make_subgroup
from .patterns import BiInducedWitness, BipartitePattern
from .regularity import RegularityCertificate
from .subsets import DoublingTrace, GroupSubset, _to_fraction

__all__ = [
    "bits_to_hex",
    "hex_to_bits",
    "frac_str",
    "frac_parse",
    "value_to_json",
    "group_to_json",
    "group_from_json",
    "subset_to_json",
    "subset_from_json",
    "pattern_to_json",
    "pattern_from_json",
    "witness_to_json",
    "witness_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "canonical_dumps",
    "load_json_file",
    "write_text_atomic",
]

_HEX = "0123456789abcdef"


def bits_to_hex(bits: int, order: int) -> str:
    if bits < 0 or bits >> order:
        raise ValueError("bitset out of range for the given order")
    return format(bits, f"0{(order + 3) // 4}x")[::-1]


def hex_to_bits(s: str, order: int) -> int:
    if len(s) != (order + 3) // 4:
        raise ValueError(
            f"hex length {len(s)} does not match order {order}"
        )
    s = s.lower()
    # checked before int(), which would also take "_", spaces, "0x" and "+"
    bad = s.strip(_HEX)
    if bad:
        raise ValueError(f"bad hex character {bad[0]!r}")
    bits = int(s[::-1], 16)
    if bits >> order:
        raise ValueError("hex string sets bits beyond the group order")
    return bits


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def frac_parse(s: Any) -> Fraction:
    return _to_fraction(s)


def value_to_json(value: Any) -> Any:
    """The JSON form of a library value, by the module docstring's rule."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, GroupElement):
        return list(value.coords)
    if isinstance(value, (tuple, list)):
        return [value_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: value_to_json(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: value_to_json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def group_to_json(g: GroupDescriptor) -> dict:
    return {"moduli": list(g.moduli)}


def group_from_json(obj: dict, caps: Caps = DEFAULT_CAPS) -> GroupDescriptor:
    moduli = _json_field(_json_object(obj, "group"), "moduli")
    return GroupDescriptor([_json_int(m, "moduli")
                            for m in _json_list(moduli, "moduli")],
                           order_cap=caps.order_cap)


def _element_ranks(g: GroupDescriptor, obj: dict, key: str) -> list[int]:
    """The ranks of the elements listed under obj[key], each a list of JSON
    integer coordinates; element_from_coords alone would take true as 1."""
    ranks = []
    for coords in _json_list(_json_field(obj, key), key):
        coords = _json_list(coords, f"an item of {key}")
        ranks.append(g.element_from_coords(
            [_json_int(c, "coordinate") for c in coords]).rank)
    return ranks


def _hex_field(obj: dict, key: str, order: int) -> int:
    """The bitset written as a hex string under obj[key]."""
    s = _json_field(obj, key)
    if type(s) is not str:
        raise ValueError(f"{key} must be a hex string, got {s!r}")
    return hex_to_bits(s, order)


def subset_to_json(a: GroupSubset) -> dict:
    return {
        "moduli": list(a.group.moduli),
        "bits_hex": bits_to_hex(a.bits, a.group.order),
    }


def subset_from_json(obj: dict, caps: Caps = DEFAULT_CAPS) -> GroupSubset:
    g = group_from_json(_json_object(obj, "set"), caps=caps)
    has_hex = "bits_hex" in obj
    has_elems = "elements" in obj
    if has_hex == has_elems:
        raise ValueError("set JSON needs exactly one of bits_hex, elements")
    if has_hex:
        return GroupSubset(g, _hex_field(obj, "bits_hex", g.order))
    return GroupSubset.from_ranks(g, _element_ranks(g, obj, "elements"))


def pattern_to_json(f: BipartitePattern) -> dict:
    return {
        "u": f.u_count,
        "v": f.v_count,
        "edges": sorted([u + 1, v + 1] for u, v in f.edges),
    }


def pattern_from_json(obj: dict) -> BipartitePattern:
    _json_object(obj, "pattern")
    u_count = _json_int(_json_field(obj, "u"), "u")
    v_count = _json_int(_json_field(obj, "v"), "v")
    edges = set()
    for e in _json_list(_json_field(obj, "edges"), "edges"):
        if len(_json_list(e, "an edge")) != 2:
            raise ValueError(f"an edge must list two vertices, got {e!r}")
        u, v = _json_int(e[0], "edge end"), _json_int(e[1], "edge end")
        if not (1 <= u <= u_count and 1 <= v <= v_count):
            raise ValueError(f"edge {e} out of range (1-based)")
        edges.add((u - 1, v - 1))
    return BipartitePattern(u_count, v_count, frozenset(edges))


def witness_to_json(w: BiInducedWitness) -> dict:
    coords = w.group.coords_of
    return {
        "phi_u": [list(coords(r)) for r in w.phi_u],
        "phi_v": [list(coords(r)) for r in w.phi_v],
        "injective_u": w.injective_u,
        "injective_v": w.injective_v,
    }


def witness_from_json(g: GroupDescriptor, f: BipartitePattern,
                      obj: dict) -> BiInducedWitness:
    _json_object(obj, "witness")
    return BiInducedWitness(f, g, _element_ranks(g, obj, "phi_u"),
                            _element_ranks(g, obj, "phi_v"))


def _subgroup_to_json(h: Subgroup) -> dict:
    return {
        "bits_hex": bits_to_hex(h.bits, h.group.order),
        "generators": list(h.generators),
        "index": h.index,
    }


def _subgroup_from_json(g: GroupDescriptor, obj: dict) -> Subgroup:
    _json_object(obj, "subgroup")
    h = _make_subgroup(g, _hex_field(obj, "bits_hex", g.order),
                       [_json_int(r, "generators")
                        for r in _json_list(_json_field(obj, "generators"),
                                            "generators")])
    if h.index != _json_int(_json_field(obj, "index"), "subgroup index"):
        raise ValueError("subgroup index does not match its bitset")
    return h


def _trace_to_json(t: DoublingTrace, order: int) -> dict:
    return {
        "ball_hex": bits_to_hex(t.base.bits, order),
        "k_value": t.k_value,
        "ell": t.ell,
        "ell_set_hex": bits_to_hex(t.ell_set.bits, order),
        "double_set_hex": bits_to_hex(t.double_set.bits, order),
        "sizes": list(t.sizes),
    }


def _trace_from_json(g: GroupDescriptor, obj: dict) -> DoublingTrace:
    _json_object(obj, "trace")
    return DoublingTrace(
        base=GroupSubset(g, _hex_field(obj, "ball_hex", g.order)),
        k_value=_json_finite(_json_field(obj, "k_value"), "k_value"),
        ell=_json_int(_json_field(obj, "ell"), "ell"),
        ell_set=GroupSubset(g, _hex_field(obj, "ell_set_hex", g.order)),
        double_set=GroupSubset(g, _hex_field(obj, "double_set_hex", g.order)),
        sizes=tuple(_json_int(s, "sizes")
                    for s in _json_list(_json_field(obj, "sizes"), "sizes")),
    )


def certificate_to_json(c: RegularityCertificate) -> dict:
    g = c.base.group
    return {
        "moduli": list(g.moduli),
        "set_hex": bits_to_hex(c.base.bits, g.order),
        "epsilon": frac_str(c.epsilon),
        "delta_used": value_to_json(c.delta_used),
        "subgroup": _subgroup_to_json(c.subgroup),
        "rounded_hex": bits_to_hex(c.rounded.bits, g.order),
        "achieved_error": frac_str(c.achieved_error),
        "index": c.index,
        "degenerate": c.degenerate,
        "trace": None if c.trace is None else _trace_to_json(c.trace, g.order),
    }


def certificate_from_json(obj: dict, caps: Caps = DEFAULT_CAPS
                          ) -> RegularityCertificate:
    g = group_from_json(_json_object(obj, "certificate"), caps=caps)
    return RegularityCertificate(
        base=GroupSubset(g, _hex_field(obj, "set_hex", g.order)),
        epsilon=frac_parse(_json_field(obj, "epsilon")),
        delta_used=(None if (d := _json_field(obj, "delta_used")) is None
                    else frac_parse(d)),
        subgroup=_subgroup_from_json(g, _json_field(obj, "subgroup")),
        rounded=GroupSubset(g, _hex_field(obj, "rounded_hex", g.order)),
        achieved_error=frac_parse(_json_field(obj, "achieved_error")),
        index=_json_int(_json_field(obj, "index"), "index"),
        degenerate=_json_bool(obj, "degenerate", None),
        trace=(None if (t := _json_field(obj, "trace")) is None
               else _trace_from_json(g, t)),
    )


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact fractions only
    (the caller encodes library values with value_to_json first)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a private temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
