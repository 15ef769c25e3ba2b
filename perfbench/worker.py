"""One pass of a workload: set up, warm up, then run the job list in a
closed loop.

The run spec arrives as one JSON line on stdin (see run.py).  The worker
prints "ready" once set-up is done (addcomb imported, every input set loaded
through addcomb.io.subset_from_json, each group's tables built); in "setup"
mode it then exits.  In "run" mode it runs the warm-up jobs, then every job
of the list once, each started when the last one ends, with speed probes
(speed.py) between and within jobs, and prints one JSON line with the job
records.  It is started fresh for every pass, so the library's caches and
the peak resident set belong to that pass alone.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports addcomb)
from speed import Sampler, probe  # noqa: E402
from workloads import addcomb, io  # noqa: E402


def _check_source() -> None:
    """Refuse to measure an addcomb that is not the checkout's own."""
    want = os.path.join(os.path.dirname(HERE), "src", "addcomb")
    got = os.path.dirname(os.path.abspath(addcomb.__file__))
    if os.path.realpath(got) != os.path.realpath(want):
        raise SystemExit(f"addcomb imported from {got}, expected {want}")


def _setup(spec: dict) -> dict:
    sets = {sid: io.subset_from_json(obj) for sid, obj in spec["sets"].items()}
    for g in {a.group for a in sets.values()}:
        g.element_from_coords((0,) * len(g.moduli))  # builds the group's tables
    return sets


def _run(task, a, param, item, tracer, job_id):
    """Time one job; return (latency, digest, ok, error)."""
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        text, ok = workloads.run_job(task, a, param, item)
    except Exception:
        latency = time.perf_counter() - start
        return latency, None, False, traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.job = None
    latency = time.perf_counter() - start
    return latency, workloads.digest(text), ok, None


def _cache_counts(cache) -> tuple[int, int]:
    """(hits, misses) of an lru cache; zeros if the library has none."""
    if not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def main() -> None:
    _check_source()
    spec = json.loads(sys.stdin.readline())
    sets = _setup(spec)
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return

    for task, sid, param, item in spec["warmup"]:
        workloads.run_job(task, sets[sid], param, item)

    # read before the tracer replaces the binding with its wrapper
    profile_cache = getattr(sys.modules["addcomb.subsets"], "_symdiff_profile", None)
    info0 = _cache_counts(profile_cache)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    # Each record ends with the job's reference-loop time: the mean of the
    # probes before and after it and of the loops sampled within it.
    # Traced passes sample nothing, so that spans hold only library time.
    records = []
    sampler = None if tracer else Sampler()
    before = probe()
    for job_id, (key, task, sid, param, item) in enumerate(spec["jobs"]):
        if sampler:
            sampler.start()
        latency, dig, ok, err = _run(task, sets[sid], param, item, tracer, job_id)
        loops = []
        if sampler:
            sampler.stop()
            latency -= sampler.spent
            loops = sampler.loops
        after = probe()
        speed = (before + after + sum(loops)) / (2 + len(loops))
        records.append([key, latency, dig, ok, err, speed])
        before = after

    info1 = _cache_counts(profile_cache)
    out = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "profile_cache": {"hits": info1[0] - info0[0], "misses": info1[1] - info0[1]},
        "freeness_cache_entries": len(getattr(sys.modules["addcomb.patterns"],
                                              "_freeness_cache", ())),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "names": tracer.names,
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "spans": len(tracer.span_start),
            "spans_dropped": tracer.dropped,
        }
        if spec.get("trace_path"):
            tracer.write(spec["trace_path"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
