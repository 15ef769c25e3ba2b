"""Regenerate perfbench/goldens.json: the digest of the canonical JSON
output of every job in each workload's job list, at the current commit.

    python3 perfbench/make_goldens.py [WORKLOAD ...]

Each job list runs once in a fresh worker process.  Any job that raises or
fails its own check aborts the run.  Workloads not named keep their
existing digests.
"""
from __future__ import annotations

import json
import os
import sys

import run
from run import workloads


def main(argv: list[str]) -> int:
    made = {}
    for name in argv or sorted(workloads.WORKLOADS):
        spec = run.make_spec(name, 0)
        _, res = run.run_worker(spec, "run")
        digests = {}
        for key, _, dig, ok, err in res["records"]:
            if err is not None or not ok:
                raise SystemExit(f"{name} {key} failed: {err or 'check failed'}")
            digests[key] = dig
        print(f"{name}: {len(digests)} jobs", flush=True)
        made[name] = digests
    path = os.path.join(run.HERE, "goldens.json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {"digests": {}}
    data["digests"].update(made)
    data["corpus_label"] = workloads.CORPUS_LABEL
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
