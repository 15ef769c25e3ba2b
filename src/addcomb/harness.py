"""Deterministic experiment orchestration.

Every run is a pure function of (config, seed).  The master seed never feeds
an RNG directly: each randomized stage derives its own stream seed as the
first 8 bytes of sha256("{master}|{label}"), so adding a stage never shifts
the randomness of existing ones.  Wall time is not recorded unless asked,
keeping re-runs byte-identical.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import random
import time
from fractions import Fraction

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    GroupDescriptor,
    coset_representatives,
    enumerate_subgroups,
    translate_bits,
)
from .io import (
    canonical_dumps,
    frac_str,
    group_from_json,
    pattern_from_json,
    subset_from_json,
    subset_to_json,
    value_to_json,
    write_text_atomic,
)
from .patterns import exhaustive_density, sample_tester
from .regularity import regularize
from .stats import wilson_interval
from .subsets import GroupSubset, _to_fraction, almost_periods
from .vc import greedy_packing, set_vc_dimension

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ResultRow",
    "split_seed",
    "generate_family",
    "run_experiment",
    "rows_to_json_lines",
    "rows_to_csv",
    "write_rows",
    "summary_table",
]

SCHEMA_VERSION = 1

STUDIES = ("regularize", "packing", "ball", "tester")

# fixed, versioned CSV value columns per study
_STUDY_COLUMNS = {
    "regularize": ("epsilon", "index", "achieved_error", "delta_used",
                   "degenerate", "ell"),
    "packing": ("delta", "vcdim", "packing_size", "bound", "bound_ok"),
    "ball": ("delta", "vcdim", "ball_size", "lower_bound", "lower_ok"),
    "tester": ("samples", "bi_inducing", "bi_fraction", "exact_density",
               "within_3sigma", "decision"),
}


def split_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _json_bool(obj: dict, key: str, default: bool) -> bool:
    """obj[key] when it is a JSON boolean, default when absent; bool() would
    read the string "false" as true."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


@dataclasses.dataclass
class ExperimentConfig:
    group: GroupDescriptor
    family: dict
    study: str
    sweep: list
    seeds: list[int]
    output_path: str | None = None
    output_format: str = "json"
    pattern: dict | None = None
    tester_exact: bool = True
    record_wall_time: bool = False
    caps: Caps = DEFAULT_CAPS

    def __post_init__(self):
        if self.study not in STUDIES:
            raise ValueError(f"unknown study {self.study!r}; "
                             f"choose from {STUDIES}")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output format must be json or csv")
        if self.study == "tester" and self.pattern is None:
            raise ValueError("tester study needs a pattern")

    @classmethod
    def from_json(cls, obj: dict, caps: Caps = DEFAULT_CAPS
                  ) -> "ExperimentConfig":
        out = obj.get("output", {})
        return cls(
            group=group_from_json(obj["group"], caps=caps),
            family=dict(obj["family"]),
            study=obj["study"],
            sweep=list(obj["sweep"]),
            seeds=[int(s) for s in obj["seeds"]],
            output_path=out.get("path"),
            output_format=out.get("format", "json"),
            pattern=obj.get("pattern"),
            tester_exact=_json_bool(obj, "tester_exact", True),
            record_wall_time=_json_bool(obj, "record_wall_time", False),
            caps=caps,
        )


@dataclasses.dataclass(frozen=True)
class ResultRow:
    run_id: str
    operation: str
    input_hash: str
    sweep_value: str
    seed: int
    values: dict
    error: str | None
    wall_ms: float | None

    def to_json(self) -> dict:
        obj = {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "operation": self.operation,
            "input_hash": self.input_hash,
            "sweep": self.sweep_value,
            "seed": self.seed,
            "values": self.values,
            "error": self.error,
        }
        if self.wall_ms is not None:
            obj["wall_ms"] = self.wall_ms
        return obj


def generate_family(g: GroupDescriptor, spec: dict, seed: int,
                    caps: Caps = DEFAULT_CAPS) -> GroupSubset:
    """Deterministic test-input families.

    planted: union of `cosets` random cosets of the first enumerated subgroup
    with the requested `index`, then each element flipped with probability
    `noise`.  interval: ranks 1..length (default floor(|G|/2)).  random:
    independent density.  explicit: a set file object under `set`."""
    kind = spec.get("kind")
    rng = random.Random(split_seed(seed, f"family:{kind}"))
    if kind == "planted":
        index = int(spec["index"])
        count = int(spec["cosets"])
        noise = float(_to_fraction(spec.get("noise", 0)))
        hs = [h for h in enumerate_subgroups(g, caps=caps) if h.index == index]
        if not hs:
            raise ValueError(f"no subgroup of index {index} in {g!r}")
        h = hs[0]
        if not 0 <= count <= index:
            raise ValueError(f"coset count {count} out of range 0..{index}")
        reps = coset_representatives(g, h)
        bits = 0
        for r in sorted(rng.sample(reps, count)):
            bits |= translate_bits(g, h.bits, r)
        if noise > 0:
            for r in range(g.order):
                if rng.random() < noise:
                    bits ^= 1 << r
        return GroupSubset(g, bits)
    if kind == "interval":
        length = int(spec.get("length", g.order // 2))
        if not 0 <= length < g.order:
            raise ValueError(f"interval length {length} out of range")
        return GroupSubset.from_ranks(g, range(1, length + 1))
    if kind == "random":
        density = float(_to_fraction(spec["density"]))
        if not 0 <= density <= 1:
            raise ValueError("density must be in [0, 1]")
        bits = 0
        for r in range(g.order):
            if rng.random() < density:
                bits |= 1 << r
        return GroupSubset(g, bits)
    if kind == "explicit":
        a = subset_from_json(spec["set"], caps=caps)
        if a.group != g:
            raise ValueError("explicit set lives in a different group")
        return a
    raise ValueError(f"unknown family kind {spec.get('kind')!r}")


def _input_hash(a: GroupSubset) -> str:
    text = canonical_dumps(subset_to_json(a))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_regularize(a: GroupSubset, value, seed: int, caps: Caps) -> dict:
    eps = _to_fraction(value)
    cert = regularize(a, eps, caps=caps)
    return {
        "epsilon": frac_str(eps),
        "index": cert.index,
        "achieved_error": frac_str(cert.achieved_error),
        "delta_used": value_to_json(cert.delta_used),
        "degenerate": cert.degenerate,
        "ell": None if cert.trace is None else cert.trace.ell,
    }


def _run_packing(a: GroupSubset, value, seed: int, caps: Caps) -> dict:
    delta = _to_fraction(value)
    d = set_vc_dimension(a, caps=caps)
    pack = greedy_packing(a, delta)
    bound = (Fraction(30) / delta) ** d if delta > 0 else None
    return {
        "delta": frac_str(delta),
        "vcdim": d,
        "packing_size": len(pack.centers),
        "bound": value_to_json(bound),
        "bound_ok": None if bound is None else len(pack.centers) <= bound,
    }


def _run_ball(a: GroupSubset, value, seed: int, caps: Caps) -> dict:
    delta = _to_fraction(value)
    d = set_vc_dimension(a, caps=caps)
    ball = almost_periods(a, delta)
    lower = (delta / 30) ** d * a.group.order
    return {
        "delta": frac_str(delta),
        "vcdim": d,
        "ball_size": ball.size,
        "lower_bound": frac_str(lower),
        "lower_ok": ball.size >= lower,
    }


def _make_tester_runner(pattern_obj: dict, exact: bool):
    f = pattern_from_json(pattern_obj)

    def run(a: GroupSubset, value, seed: int, caps: Caps) -> dict:
        samples = int(value)
        rep = sample_tester(a, f, samples, split_seed(seed, "tester"))
        out = {
            "samples": samples,
            "bi_inducing": rep.bi_inducing,
            "bi_fraction": rep.bi_fraction,
            "exact_density": None,
            "within_3sigma": None,
            "decision": rep.decision,
        }
        if exact:
            dens = exhaustive_density(a, f, caps=caps)
            lo, hi = wilson_interval(rep.bi_inducing, samples, z=3.0)
            out["exact_density"] = frac_str(dens)
            out["within_3sigma"] = lo <= float(dens) <= hi
        return out

    return run


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the sweep x seeds grid in order, one row per point.

    Module errors are captured per row (error code set, values empty) and the
    run continues.  When output_path is set, rows are written atomically."""
    if config.study == "tester":
        runner = _make_tester_runner(config.pattern, config.tester_exact)
    else:
        runner = {"regularize": _run_regularize, "packing": _run_packing,
                  "ball": _run_ball}[config.study]
    rows: list[ResultRow] = []
    for i, value in enumerate(config.sweep):
        for seed in config.seeds:
            a = generate_family(config.group, config.family, seed,
                                caps=config.caps)
            run_id = f"{config.study}-{i:03d}-s{seed}"
            start = time.perf_counter() if config.record_wall_time else None
            try:
                values = runner(a, value, seed, config.caps)
                err = None
            except Exception as exc:  # per-row capture keeps the sweep going
                values = {}
                err = type(exc).__name__
            wall = (None if start is None
                    else round((time.perf_counter() - start) * 1000, 3))
            rows.append(ResultRow(run_id, config.study, _input_hash(a),
                                  str(value), seed, values, err, wall))
    if config.output_path is not None:
        write_rows(rows, config.output_path, config.output_format,
                   config.study)
    return rows


def rows_to_json_lines(rows: list[ResultRow]) -> str:
    return "".join(canonical_dumps(r.to_json()) + "\n" for r in rows)


def rows_to_csv(rows: list[ResultRow], study: str) -> str:
    cols = _STUDY_COLUMNS[study]
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("schema", "run_id", "operation", "input_hash", "sweep",
                "seed", "error") + cols)
    for r in rows:
        w.writerow([SCHEMA_VERSION, r.run_id, r.operation, r.input_hash,
                    r.sweep_value, r.seed, r.error or ""]
                   + [r.values.get(c, "") for c in cols])
    return buf.getvalue()


def write_rows(
    rows: list[ResultRow], path: str, fmt: str, study: str
) -> None:
    """Write rows as JSON lines, or as CSV with the columns of study, which
    the caller names: an empty sweep still gets its own study's header."""
    if fmt == "csv":
        write_text_atomic(path, rows_to_csv(rows, study))
    else:
        write_text_atomic(path, rows_to_json_lines(rows))


def summary_table(rows: list[ResultRow]) -> str:
    """Plain text table: one line per row, aligned columns."""
    if not rows:
        return "(no rows)\n"
    keys = list(rows[0].values.keys())
    header = ["run_id", "sweep", "seed", "error"] + keys
    table = [header]
    for r in rows:
        table.append([r.run_id, r.sweep_value, str(r.seed), r.error or "-"]
                     + [str(r.values.get(k, "")) for k in keys])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
