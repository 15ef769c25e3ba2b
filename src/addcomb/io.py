"""File formats and canonical JSON serialization.

Set files carry either a hex bitset or an explicit element list; hex is
canonical on output.  The hex string is little-endian by nibble: character j
encodes bits 4j..4j+3, so bit i of the group bitset (= rank i) is bit (i & 3)
of nibble i >> 2.  Patterns are 1-based on disk, 0-based in memory.  All
rationals serialize as exact "p/q" strings, never floats.
"""
from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any

from .caps import Caps, DEFAULT_CAPS
from .groups import GroupDescriptor, Subgroup, _make_subgroup
from .patterns import BipartitePattern
from .regularity import RegularityCertificate
from .subsets import DoublingTrace, GroupSubset, _to_fraction
from .vc import AdjacencyOracle

__all__ = [
    "bits_to_hex",
    "hex_to_bits",
    "frac_str",
    "frac_parse",
    "group_to_json",
    "group_from_json",
    "subset_to_json",
    "subset_from_json",
    "pattern_to_json",
    "pattern_from_json",
    "witness_to_json",
    "witness_from_json",
    "graph_from_json",
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


def group_to_json(g: GroupDescriptor) -> dict:
    return {"moduli": list(g.moduli)}


def group_from_json(obj: dict, caps: Caps = DEFAULT_CAPS) -> GroupDescriptor:
    if "moduli" not in obj:
        raise ValueError("group JSON needs a 'moduli' field")
    return GroupDescriptor(obj["moduli"], order_cap=caps.order_cap)


def subset_to_json(a: GroupSubset) -> dict:
    return {
        "moduli": list(a.group.moduli),
        "bits_hex": bits_to_hex(a.bits, a.group.order),
    }


def subset_from_json(obj: dict, caps: Caps = DEFAULT_CAPS) -> GroupSubset:
    g = group_from_json(obj, caps=caps)
    has_hex = "bits_hex" in obj
    has_elems = "elements" in obj
    if has_hex == has_elems:
        raise ValueError("set JSON needs exactly one of bits_hex, elements")
    if has_hex:
        return GroupSubset(g, hex_to_bits(obj["bits_hex"], g.order))
    ranks = [g.element_from_coords(c).rank for c in obj["elements"]]
    return GroupSubset.from_ranks(g, ranks)


def pattern_to_json(f: BipartitePattern) -> dict:
    return {
        "u": f.u_count,
        "v": f.v_count,
        "edges": sorted([u + 1, v + 1] for u, v in f.edges),
    }


def pattern_from_json(obj: dict) -> BipartitePattern:
    for key in ("u", "v", "edges"):
        if key not in obj:
            raise ValueError(f"pattern JSON needs a {key!r} field")
    u_count, v_count = int(obj["u"]), int(obj["v"])
    edges = set()
    for e in obj["edges"]:
        u, v = int(e[0]), int(e[1])
        if not (1 <= u <= u_count and 1 <= v <= v_count):
            raise ValueError(f"edge {e} out of range (1-based)")
        edges.add((u - 1, v - 1))
    return BipartitePattern(u_count, v_count, frozenset(edges))


def witness_to_json(w) -> dict:
    return {
        "phi_u": [list(e.coords) for e in w.phi_u],
        "phi_v": [list(e.coords) for e in w.phi_v],
        "injective_u": w.injective_u,
        "injective_v": w.injective_v,
    }


def witness_from_json(g: GroupDescriptor, f: BipartitePattern,
                      obj: dict):
    from .patterns import BiInducedWitness

    phi_u = tuple(g.element_from_coords(c) for c in obj["phi_u"])
    phi_v = tuple(g.element_from_coords(c) for c in obj["phi_v"])
    return BiInducedWitness(
        f, phi_u, phi_v,
        len({e.rank for e in phi_u}) == len(phi_u),
        len({e.rank for e in phi_v}) == len(phi_v),
    )


def graph_from_json(obj: dict, caps: Caps = DEFAULT_CAPS) -> AdjacencyOracle:
    """Either {"n":..., "edges":[[i,j],...]} with 0-based vertices, or
    {"cayley_of": <set JSON>} for the Cayley graph generated by the set's
    nonzero symmetrization."""
    if "cayley_of" in obj:
        return AdjacencyOracle.from_cayley(
            subset_from_json(obj["cayley_of"], caps=caps)
        )
    if "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON needs n+edges or cayley_of")
    return AdjacencyOracle.from_edges(
        int(obj["n"]), [(int(e[0]), int(e[1])) for e in obj["edges"]]
    )


def _subgroup_to_json(h: Subgroup) -> dict:
    return {
        "bits_hex": bits_to_hex(h.bits, h.group.order),
        "generators": [e.rank for e in h.generators],
        "index": h.index,
    }


def _subgroup_from_json(g: GroupDescriptor, obj: dict) -> Subgroup:
    h = _make_subgroup(g, hex_to_bits(obj["bits_hex"], g.order),
                       [int(r) for r in obj["generators"]])
    if h.index != int(obj["index"]):
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
    return DoublingTrace(
        base=GroupSubset(g, hex_to_bits(obj["ball_hex"], g.order)),
        k_value=float(obj["k_value"]),
        ell=int(obj["ell"]),
        ell_set=GroupSubset(g, hex_to_bits(obj["ell_set_hex"], g.order)),
        double_set=GroupSubset(g, hex_to_bits(obj["double_set_hex"], g.order)),
        sizes=tuple(int(s) for s in obj["sizes"]),
    )


def certificate_to_json(c: RegularityCertificate) -> dict:
    g = c.base.group
    return {
        "moduli": list(g.moduli),
        "set_hex": bits_to_hex(c.base.bits, g.order),
        "epsilon": frac_str(c.epsilon),
        "delta_used": None if c.delta_used is None else frac_str(c.delta_used),
        "subgroup": _subgroup_to_json(c.subgroup),
        "rounded_hex": bits_to_hex(c.rounded.bits, g.order),
        "achieved_error": frac_str(c.achieved_error),
        "index": c.index,
        "degenerate": c.degenerate,
        "trace": None if c.trace is None else _trace_to_json(c.trace, g.order),
    }


def certificate_from_json(obj: dict, caps: Caps = DEFAULT_CAPS
                          ) -> RegularityCertificate:
    g = group_from_json(obj, caps=caps)
    return RegularityCertificate(
        base=GroupSubset(g, hex_to_bits(obj["set_hex"], g.order)),
        epsilon=frac_parse(obj["epsilon"]),
        delta_used=(None if obj["delta_used"] is None
                    else frac_parse(obj["delta_used"])),
        subgroup=_subgroup_from_json(g, obj["subgroup"]),
        rounded=GroupSubset(g, hex_to_bits(obj["rounded_hex"], g.order)),
        achieved_error=frac_parse(obj["achieved_error"]),
        index=int(obj["index"]),
        degenerate=bool(obj["degenerate"]),
        trace=(None if obj["trace"] is None
               else _trace_from_json(g, obj["trace"])),
    )


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact fractions only
    (the caller converts Fraction to "p/q" strings before this point)."""
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
