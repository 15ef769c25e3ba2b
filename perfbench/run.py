"""Benchmark of the addcomb library: closed-loop job workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  For one workload the script generates the
workload's job list and the warm-up sets of seed N, and runs passes of the
list for about S seconds, each pass in a fresh process (one client, one
thread, each job started when the last one ends).  It times set-up in those
processes and in further fresh ones, checks every output against
goldens.json, and prints one line per metric followed by one JSON result
line.  With --trace 1 it reports per-layer calls and self time instead, from
traced passes.  `--workload all` runs every workload in turn.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402  (imports addcomb from the checkout)
from speed import REFERENCE_PROCESS_S, REFERENCE_S, process_probe  # noqa: E402

SETUP_PROBES = 10         # set-up-only processes started before the passes
TAIL_PERCENTILE = 90
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def make_spec(name: str, seed: int) -> dict:
    """The worker's input: the sets of seed `seed`, the warm-up jobs, and
    the job list in the order this seed runs it."""
    wl = workloads.WORKLOADS[name]
    sets, jobs, warmup = {}, [], []
    for kind, item in workloads.job_order(wl, seed):
        sid = f"{kind.name}/{item}"
        sets[sid] = workloads.io.subset_to_json(workloads.corpus_set(name, kind, item))
        for p in kind.params():
            jobs.append([workloads.job_key(kind.name, item, p), kind.task, sid, p, item])
    # one warm-up job per task, with the task's cheapest parameter, on a set
    # from the disjoint warm-up label space
    for kind in wl.kinds:
        if any(w[0] == kind.task for w in warmup):
            continue
        sid = f"warmup/{kind.name}"
        sets[sid] = workloads.io.subset_to_json(workloads.warmup_set(name, kind, seed))
        warmup.append([kind.task, sid, kind.params()[-1], seed])
    return {"sets": sets, "warmup": warmup, "jobs": jobs}


def run_worker(spec: dict, mode: str, trace: bool = False,
               trace_path=None) -> tuple[float, dict | None]:
    """Start a fresh worker; return (seconds from start to ready, result)."""
    spec_bytes = json.dumps(dict(spec, mode=mode, trace=trace,
                                 trace_path=trace_path)).encode()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdin:
            proc.stdin.write(spec_bytes + b"\n")
            proc.stdin.flush()
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return setup, (json.loads(rest) if rest.strip() else None)


def run_passes(spec: dict, seconds: float, start: float,
               kinds=lambda p: {}) -> list[dict]:
    """Run passes of the job list, one fresh worker each, while another pass
    of the last one's length still fits in `seconds` from `start`; at least
    two, unless the first alone ends past that.  kinds(p) gives pass p's
    keyword arguments for run_worker."""
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(run_worker(spec, "run", **kinds(len(passes)))[1])
        now = time.perf_counter()
        if now - start + (now - began) > seconds and (
                len(passes) >= 2 or now - start > seconds):
            return passes


def measure_setup(spec: dict) -> list[float]:
    """Set-up times of fresh set-up-only workers, each scaled by the
    reference processes run just before and just after it."""
    setups, ref = [], process_probe()
    for _ in range(SETUP_PROBES):
        setup, _ = run_worker(spec, "setup")
        after = process_probe()
        setups.append(setup * REFERENCE_PROCESS_S / ((ref + after) / 2))
        ref = after
    return setups


def _failed(records, goldens: dict) -> int:
    return sum(1 for key, _, dig, ok, err, *_ in records
               if err is not None or not ok or goldens.get(key) != dig)


def _scaled(record) -> float:
    """A job record's latency scaled by its speed probes."""
    return record[1] * REFERENCE_S / record[5]


def _job_latencies(passes: list[dict]) -> list[float]:
    """Each job's median scaled latency over the passes."""
    return [statistics.median(_scaled(p["records"][j]) for p in passes)
            for j in range(len(passes[0]["records"]))]


def measure(name: str, seed: int, seconds: float, goldens: dict) -> dict:
    spec = make_spec(name, seed)
    # Times are scaled by the speed probes (speed.py); a job's latency is its
    # median over the passes, and set-up the median over the probes.
    start = time.perf_counter()
    setups = measure_setup(spec)
    results = run_passes(spec, seconds, start)
    lat = sorted(_job_latencies(results))
    records = [r for res in results for r in res["records"]]
    return {
        "attempted": len(records),
        "failed": _failed(records, goldens),
        "passes": len(results),
        "jobs": len(lat),
        "setup_probes": len(setups),
        "probe_ms": 1e3 * statistics.median(r[5] for r in records),
        "raw_p50_s": statistics.median(r[1] for r in records),
        "metrics": {
            "job_p50_s": statistics.median(lat),
            "job_tail_s": lat[math.ceil(TAIL_PERCENTILE / 100 * len(lat)) - 1],
            "jobs_per_s": len(lat) / sum(lat),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        },
        "units": dict(END_TO_END),
    }


def measure_traced(name: str, seed: int, seconds: float, goldens: dict) -> dict:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv.gz")
    spec = make_spec(name, seed)
    # Traced and untraced passes alternate; the traced pass with the least
    # scaled job time gives the layer numbers, and its scaled job time minus
    # the least untraced one is the tracing overhead.  Spans are written for
    # the first traced pass.
    results = run_passes(spec, seconds, time.perf_counter(), lambda p: {
        "trace": p % 2 == 0, "trace_path": path if p == 0 else None})
    traced, plain = results[0::2], results[1::2]

    def job_time(res):
        return sum(map(_scaled, res["records"]))

    res = min(traced, key=job_time)
    tr = res["trace"]
    metrics, units = {}, {}
    for name_, calls, self_s in zip(tr["names"], tr["calls"], tr["self_s"]):
        metrics[f"{name_}.calls"], units[f"{name_}.calls"] = calls, "count"
        metrics[f"{name_}.self_s"], units[f"{name_}.self_s"] = self_s, "s"
    pc = res["profile_cache"]
    lookups = pc["hits"] + pc["misses"]
    extra = (
        ("subsets.profile_cache.hits", pc["hits"], "count"),
        ("subsets.profile_cache.misses", pc["misses"], "count"),
        ("subsets.profile_cache.hit_ratio", pc["hits"] / lookups if lookups else 0.0, "ratio"),
        ("patterns.freeness_cache.entries", res["freeness_cache_entries"], "count"),
        ("trace.overhead_s", job_time(res) - min(map(job_time, plain)), "s"),
    )
    for key, value, unit in extra:
        metrics[key], units[key] = value, unit
    records = [r for res_ in results for r in res_["records"]]
    return {
        "attempted": len(records),
        "failed": _failed(records, goldens),
        "passes": len(results),
        "spans": results[0]["trace"]["spans"],
        "spans_dropped": results[0]["trace"]["spans_dropped"],
        "span_file": os.path.relpath(path, ROOT),
        "metrics": metrics,
        "units": units,
    }


def _load_goldens() -> dict:
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    if data["corpus_label"] != workloads.CORPUS_LABEL:
        raise SystemExit("goldens.json was made for another corpus")
    return data


def _report(name: str, res: dict) -> None:
    for key, value in res["metrics"].items():
        print(f"{name} {key} {value:.6g} {res['units'][key]}")
    print(f"{name} ops_failed_frac {res['failed'] / res['attempted']:.6g} ratio"
          f" ({res['failed']} of {res['attempted']} jobs)")
    if "jobs" in res:
        print(f"{name} {res['passes']} passes of {res['jobs']} jobs; latencies are"
              f" each job's median over the passes, job_tail_s their"
              f" p{TAIL_PERCENTILE}; setup_s the median of {res['setup_probes']} processes")
        print(f"{name} job times scaled to a {REFERENCE_S * 1e3:g} ms reference loop"
              f" (it took {res['probe_ms']:.4g} ms, median; the median job took"
              f" {res['raw_p50_s']:.4g} s unscaled), set-up to a"
              f" {REFERENCE_PROCESS_S * 1e3:g} ms reference process")
    else:
        print(f"{name} {res['passes']} passes, traced and untraced in turn;"
              f" {res['spans']} spans of the first traced pass kept"
              f" ({res['spans_dropped']} beyond the limit) in {res['span_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    goldens = _load_goldens()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = measure_traced if args.trace else measure
        res = run(name, args.seed, args.seconds, goldens["digests"].get(name, {}))
        _report(name, res)
        attempted += res["attempted"]
        failed += res["failed"]
        for key, value in res["metrics"].items():
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": res["units"][key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
