#!/usr/bin/env python3
"""Sweep the regularity error budget and record the subgroup index the
pipeline settles on, next to the error it actually achieved.

Example:
    python3 scripts/index_vs_eps.py --moduli 2,2,2,2,2,2 \
        --family planted --index 8 --cosets 3 --noise 1/32 \
        --eps 1/2,1/4,1/8,1/16 --seeds 20 --out runs/index_vs_eps.jsonl
"""
import argparse
import collections
from fractions import Fraction

from addcomb import GroupDescriptor
from addcomb.harness import (
    ExperimentConfig,
    run_experiment,
    summary_table,
)


def build_config(args) -> ExperimentConfig:
    g = GroupDescriptor([int(m) for m in args.moduli.split(",")])
    if args.family == "planted":
        family = {"kind": "planted", "index": args.index,
                  "cosets": args.cosets, "noise": args.noise}
    elif args.family == "random":
        family = {"kind": "random", "density": args.density}
    else:
        family = {"kind": "interval"}
    return ExperimentConfig(
        group=g,
        family=family,
        study="regularize",
        sweep=args.eps.split(","),
        seeds=list(range(1, args.seeds + 1)),
        output_path=args.out,
        output_format=args.format,
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--moduli", default="2,2,2,2,2,2")
    ap.add_argument("--family", choices=("planted", "random", "interval"),
                    default="planted")
    ap.add_argument("--index", type=int, default=8)
    ap.add_argument("--cosets", type=int, default=3)
    ap.add_argument("--noise", default="1/32")
    ap.add_argument("--density", type=float, default=0.5)
    ap.add_argument("--eps", default="1/2,1/4,1/8,1/16")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--verbose", action="store_true",
                    help="print every result row, not just the aggregate")
    args = ap.parse_args(argv)

    config = build_config(args)
    rows = run_experiment(config)  # writes args.out itself, as the config asks
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")

    by_eps = collections.defaultdict(list)
    for row in rows:
        if row.error is None:
            by_eps[row.sweep_value].append(row.values)
    if args.verbose:
        print(summary_table(rows))
    print(f"{'eps':>8} {'mean index':>12} {'max err':>10} {'degenerate':>11}")
    for eps in config.sweep:
        vals = by_eps[str(eps)]
        if not vals:
            continue
        mean_index = sum(v["index"] for v in vals) / len(vals)
        max_err = max(Fraction(v["achieved_error"]) for v in vals)
        degenerate = sum(1 for v in vals if v["degenerate"])
        print(f"{str(eps):>8} {mean_index:>12.1f} {str(max_err):>10} "
              f"{degenerate:>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
