"""Byte-identity gate: the benchmark's regularize_cyclic, vc_packing and
pattern_search jobs, run through the public API, must reproduce
perfbench/goldens.json.

Each case runs every job of one input set of the workload's fixed job list
and compares its canonical-JSON digest, and its independent check
(certificate verification, packing certification, witness re-check), with
the recorded golden.  A further test checks that every function the bench
tracer wraps still exists, since the tracer skips a missing one and its
counters would read zero.
perfbench/ is only read.
"""
import importlib
import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "goldens.json"), encoding="utf-8") as fh:
    GOLDENS = json.load(fh)

CASES = [
    (name, kind, item)
    for name in ("regularize_cyclic", "vc_packing", "pattern_search")
    for kind in workloads.WORKLOADS[name].kinds
    for item in range(workloads.WORKLOADS[name].items)
]


def test_goldens_match_the_corpus():
    assert GOLDENS["corpus_label"] == workloads.CORPUS_LABEL


@pytest.mark.parametrize("name,kind,item", CASES,
                         ids=[f"{n}/{k.name}/{i}" for n, k, i in CASES])
def test_job_digests_match_goldens(name, kind, item):
    a = workloads.corpus_set(name, kind, item)
    for param in kind.params():
        key = workloads.job_key(kind.name, item, param)
        text, ok = workloads.run_job(kind.task, a, param, item)
        assert ok, key
        assert workloads.digest(text) == GOLDENS["digests"][name][key], key


@pytest.mark.parametrize("mod_name,attr",
                         [(mod, attr) for _, mod, attr, _ in tracing.TRACED],
                         ids=[f"{mod}.{attr}" for _, mod, attr, _ in tracing.TRACED])
def test_traced_functions_exist(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None))
