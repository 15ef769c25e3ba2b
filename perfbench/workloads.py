"""Workloads of the addcomb benchmark: job kinds, input corpora and jobs.

A job is one user task done through the public addcomb API on one generated
set.  Its output is serialized with addcomb.io canonical JSON and hashed, and
the hash is compared with the golden digest recorded in goldens.json.

Every workload has a fixed job list: `items` sets of each job kind,
generated deterministically from CORPUS_LABEL, the kind and the item number,
so every measured output has a golden digest.  The workload seed draws the
warm-up sets, from a label space disjoint from the job list, and the order
in which the list's sets are run.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import random
from fractions import Fraction

import addcomb
from addcomb import GroupDescriptor, GroupSubset
from addcomb import io

CORPUS_LABEL = "addcomb-perfbench-v1"

EPSILONS = ("1/4", "1/8", "1/16")
PACK_DELTA = "1/4"
TESTER_SAMPLES = 20000


@dataclasses.dataclass(frozen=True)
class Kind:
    """One job kind: a task run on sets of one shape from one family.

    family is ("planted", generators, noise, count) for a union of count
    random cosets (a random number of them when count is None) of the
    subgroup generated by the coordinate tuples in generators, with each
    element then flipped with probability noise; or ("random", density).
    """

    name: str
    task: str
    moduli: tuple[int, ...]
    family: tuple

    def params(self) -> tuple:
        """The jobs run on one set, in order; a regularize sweep reuses it."""
        return EPSILONS if self.task == "regularize" else (None,)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A fixed job list: sets 0 .. items-1 of each kind, every job of each
    set.  One pass of the list takes about 4-6 s at the commit that added
    the benchmark, so a run holds several passes."""

    name: str
    kinds: tuple[Kind, ...]
    items: int


_NOISE = Fraction(1, 50)

# Set-VC job times spread over three decades, from under a millisecond to
# about a second (Z/48 at density 1/2, sets 0 and 1).
_VC_PACKING_KINDS = (
    Kind("vc_z2x5_d3", "vcdim", (2,) * 5, ("random", 0.3)),
    Kind("vc_z48_d3", "vcdim", (48,), ("random", 0.3)),
    Kind("vc_z48_d5", "vcdim", (48,), ("random", 0.5)),
    Kind("vc_z4xz12_d3", "vcdim", (4, 12), ("random", 0.3)),
    Kind("vc_z64_d3", "vcdim", (64,), ("random", 0.3)),
    Kind("vc_z8x2_d5", "vcdim", (8, 8), ("random", 0.5)),
    Kind("pack_z2x8", "pack", (2,) * 8, ("random", 0.3)),
)

# Unions of two cosets of the index-8 subgroup of Z/64 hold no half graph of
# size 3, so the search over them is exhaustive (about 0.6 s a set).
_PATTERN_KINDS = (
    Kind("find_planted_z64", "find", (64,), ("planted", ((8,),), 0, 2)),
    Kind("find_random_z64", "find", (64,), ("random", 0.5)),
    Kind("distance_z16", "distance", (16,), ("random", 0.5)),
) + tuple(
    Kind(f"test_{name}", "test", mods, ("random", 0.5))
    for name, mods in (("z48", (48,)), ("z4xz12", (4, 12)), ("z2xz24", (2, 24)),
                       ("z2x2xz12", (2, 2, 12)))
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "regularize_cyclic",
            (Kind("z1024", "regularize", (1024,), ("planted", ((8,),), _NOISE, None)),),
            3,
        ),
        Workload("vc_packing", _VC_PACKING_KINDS, 5),
        Workload("pattern_search", _PATTERN_KINDS, 4),
    )
}


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (CORPUS_LABEL,) + parts))


@functools.lru_cache(maxsize=None)
def _planted_cosets(kind: Kind) -> list[int]:
    g = GroupDescriptor(kind.moduli)
    h = addcomb.generated_subgroup(g, [g.element_from_coords(c) for c in kind.family[1]])
    base = GroupSubset(g, h.bits)
    return [addcomb.translate(base, r).bits for r in addcomb.coset_representatives(g, h)]


def _generate(kind: Kind, rng: random.Random) -> GroupSubset:
    """One input set.  Coset-planted sets are built directly from the
    planted subgroup and its coset representatives: harness.generate_family
    finds the subgroup by enumerating the whole subgroup lattice, which does
    not finish on Z/1024 (see perfbench/README.md)."""
    g = GroupDescriptor(kind.moduli)
    bits = 0
    if kind.family[0] == "planted":
        _, _, noise, count = kind.family
        cosets = _planted_cosets(kind)
        for c in rng.sample(cosets, count or rng.randrange(1, len(cosets))):
            bits |= c
        flip = float(noise)
    else:
        flip = kind.family[1]
    for r in range(g.order):
        if rng.random() < flip:
            bits ^= 1 << r
    return GroupSubset(g, bits)


def corpus_set(workload: str, kind: Kind, item: int) -> GroupSubset:
    return _generate(kind, _rng(workload, kind.name, item))


def warmup_set(workload: str, kind: Kind, seed: int) -> GroupSubset:
    return _generate(kind, _rng("warmup", workload, kind.name, seed))


def job_key(kind: str, item: int, param) -> str:
    return f"{kind}/{item}" if param is None else f"{kind}/{item}/{param}"


def job_order(workload: Workload, seed: int) -> list[tuple[Kind, int]]:
    """The (kind, item) pairs of the job list, in an order drawn from the
    seed.  Every pass of a run uses this one order.

    The sets do not depend on the seed: a per-seed sample of so heavy-tailed
    a corpus does not give steady numbers in a run of seconds."""
    pairs = [(kind, item) for item in range(workload.items) for kind in workload.kinds]
    _rng("order", workload.name, seed).shuffle(pairs)
    return pairs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_job(task: str, a: GroupSubset, param, item: int) -> tuple[str, bool]:
    """Run one job; return its canonical JSON output and whether the
    output passed its independent check (certificate verification, witness
    re-check), where the task has one.  Library calls go through module
    attributes so that the tracer's wrappers see them."""
    if task == "regularize":
        cert = addcomb.regularize(a, param)
        ok = addcomb.verify_certificate(cert).ok
        return io.canonical_dumps(io.certificate_to_json(cert)), ok
    if task == "vcdim":
        return io.canonical_dumps({"vcdim": addcomb.set_vc_dimension(a)}), True
    if task == "pack":
        pack = addcomb.greedy_packing(a, PACK_DELTA)
        ball = addcomb.almost_periods(a, PACK_DELTA)
        out = {
            "delta": io.frac_str(pack.delta),
            "centers": [e.rank for e in pack.centers],
            "certified": pack.certified,
            "ball": io.subset_to_json(ball.members),
        }
        return io.canonical_dumps(out), pack.certified
    if task == "find":
        f = addcomb.half_graph(3)
        w = addcomb.find_bi_induced(a, f)
        if w is None:
            return io.canonical_dumps({"found": False}), True
        out = {"found": True}
        out.update(io.witness_to_json(w))
        return io.canonical_dumps(out), addcomb.check_witness(a, f, w, "per_side")
    if task == "test":
        f = addcomb.half_graph(2)
        rep = addcomb.sample_tester(a, f, TESTER_SAMPLES, item)
        out = {
            "samples": rep.samples,
            "bi_inducing": rep.bi_inducing,
            "bi_fraction": rep.bi_fraction,
            "wilson_low": rep.wilson_low,
            "wilson_high": rep.wilson_high,
            "injective_bi_inducing": rep.injective_bi_inducing,
            "decision": rep.decision,
            "exact_density": io.frac_str(addcomb.exhaustive_density(a, f)),
        }
        return io.canonical_dumps(out), True
    if task == "distance":
        return io.canonical_dumps({"distance": addcomb.distance_to_free(a, addcomb.half_graph(2))}), True
    raise ValueError(f"unknown task {task!r}")
