"""Span tracing of addcomb layers from outside the package.

Each traced function is wrapped at every addcomb module attribute bound to
it, because callers import these names directly (`from .groups import
translate_bits`).  A span has a name, start, end, parent span and job id.
Calls and self time (duration minus the time of child spans) are summed as
spans close; the spans themselves are kept in memory, up to SPAN_LIMIT, and
written out when the run ends.
"""
from __future__ import annotations

import array
import functools
import gzip
import sys
import time

# (layer, module, attribute, reported name).  symdiff_profile is timed at the
# cached _symdiff_profile binding, which almost_periods calls directly.
TRACED = (
    ("groups", "addcomb.groups", "translate_bits", "translate_bits"),
    ("groups", "addcomb.groups", "cosets", "cosets"),
    ("groups", "addcomb.groups", "generated_subgroup", "generated_subgroup"),
    ("subsets", "addcomb.subsets", "_symdiff_profile", "symdiff_profile"),
    ("subsets", "addcomb.subsets", "almost_periods", "almost_periods"),
    ("subsets", "addcomb.subsets", "sumset", "sumset"),
    ("subsets", "addcomb.subsets", "iterated_doubling", "iterated_doubling"),
    ("subsets", "addcomb.subsets", "max_subgroup_within", "max_subgroup_within"),
    ("regularity", "addcomb.regularity", "regularize", "regularize"),
    ("regularity", "addcomb.regularity", "coset_round", "coset_round"),
    ("regularity", "addcomb.regularity", "verify_certificate", "verify_certificate"),
    ("vc", "addcomb.vc", "vc_dimension", "vc_dimension"),
    ("vc", "addcomb.vc", "greedy_packing", "greedy_packing"),
    ("patterns", "addcomb.patterns", "find_bi_induced", "find_bi_induced"),
    ("patterns", "addcomb.patterns", "sample_tester", "sample_tester"),
    ("patterns", "addcomb.patterns", "exhaustive_density", "exhaustive_density"),
    ("patterns", "addcomb.patterns", "distance_to_free", "distance_to_free"),
    ("io", "addcomb.io", "certificate_to_json", "certificate_to_json"),
    ("io", "addcomb.io", "canonical_dumps", "canonical_dumps"),
)

SPAN_LIMIT = 400_000


class Tracer:
    """Records spans of the wrapped functions while `job` is not None."""

    def __init__(self):
        self.names = [f"{layer}.{name}" for layer, _, _, name in TRACED]
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.job = None
        self.dropped = 0
        # parallel arrays, one entry per recorded span
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_job = array.array("q")
        # open spans: [span id or -1, time of closed child spans]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function at each addcomb module attribute
        bound to it.  A function the library no longer has keeps zero
        counts."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "addcomb" or n.startswith("addcomb.")]
        for idx, (_, mod_name, attr, _) in enumerate(TRACED):
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def _wrap(self, idx: int, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            if len(self.span_start) < SPAN_LIMIT:
                span = len(self.span_start)
                self.span_name.append(idx)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_job.append(self.job)
            else:
                span = -1
                self.dropped += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span >= 0:
                    self.span_start[span] = start
                    self.span_end[span] = end

        return traced

    def write(self, path: str) -> None:
        """Write the recorded spans as gzipped tab-separated lines:
        span id, name, start, end, parent id (-1 for none), job id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")
