"""Deterministic experiment orchestration.

Every run is a pure function of (config, seed).  The master seed never feeds
an RNG directly: each randomized stage derives its own stream seed as the
first 8 bytes of sha256("{master}|{label}"), so adding a stage never shifts
the randomness of existing ones.  Wall time is not recorded unless asked,
keeping re-runs byte-identical.

A study's value columns are named once, in _STUDY_COLUMNS.  Its runner
returns one library value per column, in column order (a Fraction, a bool,
an int, ...), and run_experiment encodes them with io.value_to_json, so
ResultRow.values holds JSON values keyed by column.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import random
import time
from fractions import Fraction

from .caps import (Caps, DEFAULT_CAPS, _json_bool, _json_field, _json_int,
                   _json_list, _json_object)
from .groups import GroupDescriptor, cosets, enumerate_subgroups
from .io import (
    canonical_dumps,
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

# fixed, versioned value columns per study: the keys of ResultRow.values,
# the CSV value columns and the summary table's value columns
_STUDY_COLUMNS = {
    "regularize": ("epsilon", "index", "achieved_error", "delta_used",
                   "degenerate", "ell"),
    "packing": ("delta", "vcdim", "packing_size", "bound", "bound_ok"),
    "ball": ("delta", "vcdim", "ball_size", "lower_bound", "lower_ok"),
    "tester": ("samples", "bi_inducing", "bi_fraction", "exact_density",
               "within_3sigma", "decision"),
}

STUDIES = tuple(_STUDY_COLUMNS)


def split_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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
        out = _json_object(_json_object(obj, "config").get("output", {}),
                           "output")
        return cls(
            group=group_from_json(_json_field(obj, "group"), caps=caps),
            family=dict(_json_object(_json_field(obj, "family"), "family")),
            study=_json_field(obj, "study"),
            sweep=list(_json_list(_json_field(obj, "sweep"), "sweep")),
            seeds=[_json_int(s, "seeds")
                   for s in _json_list(_json_field(obj, "seeds"), "seeds")],
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
        index = _json_int(_json_field(spec, "index"), "index")
        count = _json_int(_json_field(spec, "cosets"), "cosets")
        noise = float(_to_fraction(spec.get("noise", 0)))
        if not 0 <= noise <= 1:
            raise ValueError("noise must be in [0, 1]")
        hs = [h for h in enumerate_subgroups(g, caps=caps) if h.index == index]
        if not hs:
            raise ValueError(f"no subgroup of index {index} in {g!r}")
        h = hs[0]
        if not 0 <= count <= index:
            raise ValueError(f"coset count {count} out of range 0..{index}")
        bits = 0
        for c in rng.sample(cosets(g, h), count):
            bits |= c
        if noise > 0:
            for r in range(g.order):
                if rng.random() < noise:
                    bits ^= 1 << r
        return GroupSubset(g, bits)
    if kind == "interval":
        length = _json_int(spec.get("length", g.order // 2), "length")
        if not 0 <= length < g.order:
            raise ValueError(f"interval length {length} out of range")
        return GroupSubset.from_ranks(g, range(1, length + 1))
    if kind == "random":
        density = float(_to_fraction(_json_field(spec, "density")))
        if not 0 <= density <= 1:
            raise ValueError("density must be in [0, 1]")
        return GroupSubset.from_ranks(
            g, [r for r in range(g.order) if rng.random() < density])
    if kind == "explicit":
        a = subset_from_json(_json_field(spec, "set"), caps=caps)
        if a.group != g:
            raise ValueError("explicit set lives in a different group")
        return a
    raise ValueError(f"unknown family kind {spec.get('kind')!r}")


def _input_hash(a: GroupSubset) -> str:
    text = canonical_dumps(subset_to_json(a))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_regularize(a: GroupSubset, value, seed: int, caps: Caps) -> tuple:
    eps = _to_fraction(value)
    cert = regularize(a, eps, caps=caps)
    return (eps, cert.index, cert.achieved_error, cert.delta_used,
            cert.degenerate, None if cert.trace is None else cert.trace.ell)


def _run_packing(a: GroupSubset, value, seed: int, caps: Caps) -> tuple:
    delta = _to_fraction(value)
    d = set_vc_dimension(a, caps=caps)
    size = len(greedy_packing(a, delta).centers)
    bound = (Fraction(30) / delta) ** d if delta > 0 else None
    return (delta, d, size, bound, None if bound is None else size <= bound)


def _run_ball(a: GroupSubset, value, seed: int, caps: Caps) -> tuple:
    delta = _to_fraction(value)
    d = set_vc_dimension(a, caps=caps)
    size = almost_periods(a, delta).size
    lower = (delta / 30) ** d * a.group.order
    return (delta, d, size, lower, size >= lower)


def _make_tester_runner(pattern_obj: dict, exact: bool):
    f = pattern_from_json(pattern_obj)

    def run(a: GroupSubset, value, seed: int, caps: Caps) -> tuple:
        samples = _json_int(value, "samples")
        rep = sample_tester(a, f, samples, split_seed(seed, "tester"))
        dens = within = None
        if exact:
            dens = exhaustive_density(a, f, caps=caps)
            lo, hi = wilson_interval(rep.bi_inducing, samples, z=3.0)
            within = lo <= float(dens) <= hi
        return (samples, rep.bi_inducing, rep.bi_fraction, dens, within,
                rep.decision)

    return run


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Execute the sweep x seeds grid in order, one row per point.

    Module errors are captured per row (error code set, values empty) and the
    run continues.  When output_path is set, rows are written atomically."""
    columns = _STUDY_COLUMNS[config.study]
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
                result = runner(a, value, seed, config.caps)
                values = dict(zip(columns, value_to_json(result), strict=True))
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
    keys = list(_STUDY_COLUMNS[rows[0].operation])
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
