"""Command line interface.

Each subcommand loads its inputs from JSON files, runs one library operation,
and prints the result as canonical JSON.  A report dataclass is printed as
io.value_to_json encodes it: an object keyed by its field names, exact
rationals as "p/q" strings, group elements as coordinate lists.  A handler
adds or drops a key only where its subcommand's output differs from the
report; certificates and witnesses print in their file formats.

Exit codes: 0 success, 2 degenerate certificate, 3 robust dichotomy resolved
to the high-VC branch, 4 resource cap exceeded, 1 any other error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .groups import subgroup_from_bits
from .harness import (
    ExperimentConfig,
    rows_to_csv,
    rows_to_json_lines,
    run_experiment,
    summary_table,
)
from .io import (
    canonical_dumps,
    certificate_to_json,
    frac_str,
    load_json_file,
    pattern_from_json,
    subset_from_json,
    subset_to_json,
    value_to_json,
    witness_from_json,
    witness_to_json,
)
from .patterns import (
    ap_half_graph_witness,
    ap_search,
    densify,
    distance_to_free,
    exhaustive_density,
    find_bi_induced,
    sample_tester,
    witness_from_shattering,
)
from .regularity import (
    coset_round,
    oracle_best_subgroup,
    regularize,
    robust_pipeline,
)
from .subsets import _to_fraction, almost_periods, kneser_fill_check
from .vc import TranslateSystem, greedy_packing, vc_dimension

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 2
EXIT_ROBUST_HIGH_VC = 3
EXIT_CAP = 4


def _load_set(path: str, caps: Caps):
    return subset_from_json(load_json_file(path), caps=caps)


def _load_pattern(path: str):
    return pattern_from_json(load_json_file(path))


def _parse_schedule(text: str) -> tuple[Fraction, ...]:
    return tuple(_to_fraction(part.strip()) for part in text.split(","))


def _cmd_vcdim(args, caps: Caps):
    a = _load_set(args.set, caps)
    ground = _load_set(args.ground, caps) if args.ground else None
    translators = _load_set(args.translators, caps) if args.translators else None
    sys_ = TranslateSystem(a, ground=ground, translators=translators)
    d = vc_dimension(sys_, max_d=args.max_d, caps=caps)
    out = {"vcdim": d}
    if args.max_d is not None:
        out["threshold"] = args.max_d
        out["exceeds_threshold"] = d > args.max_d
    return out, EXIT_OK


def _cmd_ball(args, caps: Caps):
    a = _load_set(args.set, caps)
    ball = almost_periods(a, _to_fraction(args.delta))
    return {
        "delta": frac_str(ball.delta),
        "size": ball.size,
        "members": subset_to_json(ball.members),
    }, EXIT_OK


def _cmd_pack(args, caps: Caps):
    a = _load_set(args.set, caps)
    pack = greedy_packing(a, _to_fraction(args.delta))
    return {
        "delta": frac_str(pack.delta),
        "size": len(pack.centers),
        "centers": value_to_json(pack.centers),
        "certified": pack.certified,
    }, EXIT_OK


def _robust_payload(outcome) -> dict:
    out = {"kind": outcome.kind, "d": outcome.d,
           "steps": value_to_json(outcome.steps)}
    if outcome.report is not None:
        out["report"] = value_to_json(outcome.report)
    if outcome.certificate is not None:
        out["certificate"] = certificate_to_json(outcome.certificate)
    return out


def _cmd_regularize(args, caps: Caps):
    a = _load_set(args.set, caps)
    schedule = _parse_schedule(args.schedule) if args.schedule else None
    cert = regularize(a, _to_fraction(args.eps), delta_schedule=schedule,
                      max_index=args.max_index, caps=caps)
    code = EXIT_DEGENERATE if cert.degenerate else EXIT_OK
    return certificate_to_json(cert), code


def _cmd_oracle(args, caps: Caps):
    a = _load_set(args.set, caps)
    rep = oracle_best_subgroup(a, _to_fraction(args.eps),
                               max_index=args.max_index, caps=caps)
    return value_to_json(rep), EXIT_OK


def _cmd_robust(args, caps: Caps):
    a = _load_set(args.set, caps)
    outcome = robust_pipeline(a, _to_fraction(args.eps), args.d,
                              c_constant=args.c, trials=args.trials,
                              caps=caps, rng_seed=args.seed)
    code = EXIT_ROBUST_HIGH_VC if outcome.kind == "high_vc" else EXIT_OK
    return _robust_payload(outcome), code


def _cmd_pattern_find(args, caps: Caps):
    a = _load_set(args.set, caps)
    f = _load_pattern(args.pattern)
    if args.via_shattering:
        w = witness_from_shattering(a, f, caps=caps)
    else:
        w = find_bi_induced(a, f, require_injective=not args.no_injective,
                            caps=caps)
    if w is None:
        return {"found": False}, EXIT_OK
    return {"found": True, **witness_to_json(w)}, EXIT_OK


def _cmd_pattern_test(args, caps: Caps):
    a = _load_set(args.set, caps)
    f = _load_pattern(args.pattern)
    out = value_to_json(sample_tester(a, f, args.samples, args.seed))
    del out["injective_fraction"]
    if args.exact:
        out["exact_density"] = frac_str(exhaustive_density(a, f, caps=caps))
    return out, EXIT_OK


def _cmd_distance(args, caps: Caps):
    a = _load_set(args.set, caps)
    f = _load_pattern(args.pattern)
    return {"distance": distance_to_free(a, f, caps=caps)}, EXIT_OK


def _cmd_densify(args, caps: Caps):
    a = _load_set(args.set, caps)
    f = _load_pattern(args.pattern)
    hset = _load_set(args.subgroup, caps)
    if hset.group != a.group:
        raise ValueError("subgroup file lives in a different group")
    h = subgroup_from_bits(a.group, hset.bits)
    if args.witness:
        w = witness_from_json(a.group, f, load_json_file(args.witness))
    else:
        w = find_bi_induced(coset_round(a, h), f, caps=caps)
        if w is None:
            raise ValueError("no witness found in the rounded set; "
                             "provide one with --witness")
    rep = densify(a, h, f, w, args.samples, args.seed)
    return {**value_to_json(rep), "witness": witness_to_json(w)}, EXIT_OK


def _cmd_ap_search(args, caps: Caps):
    a = _load_set(args.set, caps)
    ap = ap_search(a, args.k)
    if ap is None:
        return {"found": False}, EXIT_OK
    out = {"found": True, **value_to_json(ap)}
    if args.half_graph:
        _, w = ap_half_graph_witness(a, ap)
        out["half_graph_witness"] = witness_to_json(w)
    return out, EXIT_OK


def _cmd_kneser(args, caps: Caps):
    a = _load_set(args.set, caps)
    return value_to_json(kneser_fill_check(a, args.t)), EXIT_OK


def _cmd_experiment(args, caps: Caps):
    config = ExperimentConfig.from_json(load_json_file(args.config), caps=caps)
    rows = run_experiment(config)
    sys.stdout.write(summary_table(rows))
    if config.output_path is None and args.format == "csv":
        sys.stdout.write(rows_to_csv(rows, config.study))
    elif config.output_path is None:
        sys.stdout.write(rows_to_json_lines(rows))
    return None, EXIT_OK


def _emit(payload, fmt: str) -> None:
    if payload is None:
        return
    if fmt == "csv":
        flat = _flatten(payload)
        print(",".join(k for k, _ in flat))
        print(",".join(_csv_cell(v) for _, v in flat))
    else:
        print(canonical_dumps(payload))


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.extend(_flatten(obj[k], f"{prefix}{k}."))
    else:
        out.append((prefix.rstrip("."), obj))
    return out


def _csv_cell(v) -> str:
    if isinstance(v, (list, tuple, dict)):
        text = json.dumps(v, sort_keys=True, separators=(",", ":"))
    elif v is None:
        text = ""
    else:
        text = str(v)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed for randomized operations")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--caps", metavar="FILE",
                        help="JSON file overriding resource caps")
    with_set = argparse.ArgumentParser(add_help=False, parents=[common])
    with_set.add_argument("--set", required=True)
    with_pattern = argparse.ArgumentParser(add_help=False,
                                           parents=[with_set])
    with_pattern.add_argument("--pattern", required=True)

    p = argparse.ArgumentParser(
        prog="addcomb",
        description="translate-system VC dimension, arithmetic regularity "
                    "certificates, and bipartite pattern testing over finite "
                    "abelian groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("vcdim", parents=[with_set],
                       help="VC dimension of a translate system")
    q.add_argument("--ground", help="restrict traces to this set file")
    q.add_argument("--translators", help="restrict translates to this set file")
    q.add_argument("--max-d", type=int, default=None,
                   help="threshold query: stop once dimension exceeds this")
    q.set_defaults(handler=_cmd_vcdim)

    q = sub.add_parser("ball", parents=[with_set], help="almost-period set")
    q.add_argument("--delta", required=True)
    q.set_defaults(handler=_cmd_ball)

    q = sub.add_parser("pack", parents=[with_set],
                       help="greedy separated translate packing")
    q.add_argument("--delta", required=True)
    q.set_defaults(handler=_cmd_pack)

    q = sub.add_parser("regularize", parents=[with_set],
                       help="subgroup approximation certificate")
    q.add_argument("--eps", required=True)
    q.add_argument("--max-index", type=int, default=None)
    q.add_argument("--schedule", help="comma separated delta values")
    q.set_defaults(handler=_cmd_regularize)

    q = sub.add_parser("oracle-best-subgroup", parents=[with_set],
                       help="exhaustive best rounding subgroup")
    q.add_argument("--eps", required=True)
    q.add_argument("--max-index", type=int, default=None)
    q.set_defaults(handler=_cmd_oracle)

    q = sub.add_parser("robust", parents=[with_set],
                       help="high-VC report or regularity certificate")
    q.add_argument("--eps", required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--trials", type=int, default=50)
    q.add_argument("--c", type=float, default=8.0,
                   help="constant in m = C (1/delta) ln(1/delta)")
    q.set_defaults(handler=_cmd_robust)

    q = sub.add_parser("pattern-find", parents=[with_pattern],
                       help="search for a bi-induced pattern copy")
    q.add_argument("--no-injective", action="store_true")
    q.add_argument("--via-shattering", action="store_true",
                   help="construct the copy from a shattered set instead")
    q.set_defaults(handler=_cmd_pattern_find)

    q = sub.add_parser("pattern-test", parents=[with_pattern],
                       help="sampled bi-inducing tester")
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--exact", action="store_true",
                   help="also compute the exhaustive density")
    q.set_defaults(handler=_cmd_pattern_test)

    q = sub.add_parser("distance", parents=[with_pattern],
                       help="edit distance to a pattern-free set")
    q.set_defaults(handler=_cmd_distance)

    q = sub.add_parser("densify", parents=[with_pattern],
                       help="coset perturbation survival rate of a witness")
    q.add_argument("--subgroup", required=True,
                   help="set file whose bitset is the subgroup")
    q.add_argument("--witness", help="witness JSON file (default: search the "
                                     "rounded set)")
    q.add_argument("--samples", type=int, default=10000)
    q.set_defaults(handler=_cmd_densify)

    q = sub.add_parser("ap-search", parents=[with_set],
                       help="progression half in, half out of the set")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--half-graph", action="store_true",
                   help="also emit the derived half-graph witness")
    q.set_defaults(handler=_cmd_ap_search)

    q = sub.add_parser("kneser-check", parents=[with_set],
                       help="2t-fold sumset filling check")
    q.add_argument("--t", type=int, required=True)
    q.set_defaults(handler=_cmd_kneser)

    q = sub.add_parser("experiment", parents=[common],
                       help="run a sweep from a config file")
    q.add_argument("--config", required=True)
    q.set_defaults(handler=_cmd_experiment)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = (Caps.from_json(load_json_file(args.caps))
                if args.caps else DEFAULT_CAPS)
        payload, code = args.handler(args, caps)
        _emit(payload, args.format)
        return code
    except CapExceeded as exc:
        print(canonical_dumps({"error": "cap_exceeded", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        print(canonical_dumps({"error": type(exc).__name__,
                               "detail": str(exc)}), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
