"""Coset-majority rounding and the almost-period regularization pipeline.

regularize(A, eps) sweeps a shrinking threshold delta.  For each delta it
collects the almost-periods B of A, doubles B until sumset growth stalls,
extracts a maximal subgroup H inside 2lB - 2lB (max_subgroup_within: the
largest one up to the exhaustive cap), and rounds A to the union S of
H-cosets where A holds a majority.  |A xor (A+x)| <= 4*l*delta*|G| for
every x in 2lB - 2lB by the triangle inequality over the 4l summands, and
|A xor S| <= mean over H of |A xor (A+x)|, so small delta yields a certified
approximation.  The sweep keeps the certificate of smallest index among the
successful deltas.

robust_pipeline(A, eps, d) sweeps the same deltas but first compares the
ball's size with |G| / (12 m^d), and answers with a sampled-VC report when it
is smaller.  Both sweeps compute A's symmetric-difference profile once, read
each delta's ball off it, run the delta step on the ball through one step
function per call (_pipeline_steps), and build a certificate only for the
delta they keep.  Across a schedule the ball often recurs; the step function
doubles each distinct ball once per call and spreads and rounds each
(ball, ell) once, and every result is the one a fresh step per delta gives.
verify_certificate and rounding_error_bound_check compute the profile once
and compare it with their bounds as integers.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .caps import Caps, DEFAULT_CAPS
from .groups import (
    Subgroup,
    _is_union_of_cosets,
    _make_subgroup,
    cosets,
    enumerate_subgroups,
)
from .subsets import (
    AlmostPeriodSet,
    DoublingTrace,
    GroupSubset,
    _ball,
    _double_until,
    _doubling_k,
    _indicators,
    _to_fraction,
    difference_set,
    max_subgroup_within,
    symdiff_profile,
)
from .vc import SampledVcReport, sampled_vc

__all__ = [
    "RegularityCertificate",
    "CertificateCheck",
    "RoundingBoundReport",
    "OracleReport",
    "RobustOutcome",
    "coset_round",
    "rounding_error_bound_check",
    "regularize",
    "verify_certificate",
    "oracle_best_subgroup",
    "robust_pipeline",
    "default_delta_schedule",
]


def coset_round(a: GroupSubset, h: Subgroup) -> GroupSubset:
    """Union of the H-cosets holding at least half of their elements in A.

    The boundary is inclusive: a coset with exactly |H|/2 elements of A is
    kept.  The trivial subgroup's cosets are single elements, so A itself is
    returned without walking them."""
    g = a.group
    if h.group != g:
        raise ValueError("subgroup does not belong to the subset's group")
    size = h.size
    if size == 1:
        return a
    out = 0
    for c in cosets(g, h):
        if 2 * (a.bits & c).bit_count() >= size:
            out |= c
    return GroupSubset(g, out)


@dataclasses.dataclass(frozen=True)
class RoundingBoundReport:
    """|A xor S| against the mean translate distance over H."""

    error: int
    mean_bound: Fraction
    holds: bool


def rounding_error_bound_check(a: GroupSubset, h: Subgroup) -> RoundingBoundReport:
    """Verify |A xor coset_round(A, H)| <= (1/|H|) * sum_{x in H} |A xor (A+x)|."""
    s = coset_round(a, h)
    err = (a.bits ^ s.bits).bit_count()
    in_h = _indicators(a.group, (a.group.order,), h.bits, dtype=bool)
    total = int(symdiff_profile(a)[in_h].sum())
    return RoundingBoundReport(err, Fraction(total, h.size),
                               err * h.size <= total)


@dataclasses.dataclass(frozen=True)
class RegularityCertificate:
    """Everything needed to re-verify one pipeline run independently."""

    base: GroupSubset
    epsilon: Fraction
    delta_used: Fraction | None
    subgroup: Subgroup
    rounded: GroupSubset
    achieved_error: Fraction
    index: int
    degenerate: bool
    trace: DoublingTrace | None


@dataclasses.dataclass(frozen=True)
class CertificateCheck:
    closure_ok: bool
    union_of_cosets_ok: bool
    error_ok: bool
    translate_bound_ok: bool

    @property
    def ok(self) -> bool:
        return (self.closure_ok and self.union_of_cosets_ok
                and self.error_ok and self.translate_bound_ok)


def verify_certificate(cert: RegularityCertificate) -> CertificateCheck:
    """Re-verify a certificate from raw bitsets, independently of how it was
    built: subgroup axioms with the claimed index equal to H's, S a union of
    H-cosets, the error value, and the 4*l*delta translate bound on every
    element of H.  The bound is skipped only for the degenerate form (the
    flag set, H = {0}, no delta and no trace); any other certificate that
    lacks a delta or a trace fails it."""
    g = cert.base.group
    h = cert.subgroup
    closure_ok, h_gens = h._walk()
    closure_ok = closure_ok and cert.index == h.index
    s_bits = cert.rounded.bits
    union_ok = _is_union_of_cosets(g, s_bits, h_gens)
    err = Fraction((cert.base.bits ^ s_bits).bit_count(), g.order)
    error_ok = err == cert.achieved_error and err <= cert.epsilon
    if cert.delta_used is None or cert.trace is None:
        bound_ok = (cert.degenerate and h.bits == 1
                    and cert.delta_used is None and cert.trace is None)
    else:
        prof = symdiff_profile(cert.base)
        limit = 4 * cert.trace.ell * cert.delta_used * g.order
        in_h = _indicators(g, (g.order,), h.bits, dtype=bool)
        bound_ok = int(prof[in_h].max()) <= limit
    return CertificateCheck(closure_ok, union_ok, error_ok, bound_ok)


def default_delta_schedule(epsilon: Fraction, order: int) -> list[Fraction]:
    """eps/2, eps/4, ... halving until the first value below 1/(2|G|), which
    is included: at that point the almost-period set is the exact stabilizer
    of A and further halving changes nothing.  None for a negative eps, which
    no delta meets: robust_pipeline's appended stabilizer delta decides it."""
    if epsilon < 0:
        return []
    floor = Fraction(1, 2 * order)
    out = []
    d = epsilon / 2
    while True:
        out.append(d)
        if d < floor:
            return out
        d = d / 2


def _pipeline_steps(a: GroupSubset, caps: Caps):
    """One sweep's step function: ball -> (doubling trace, subgroup H,
    rounded set S, error |A xor S|/|G|) for the ball's delta.

    It keeps each ball's doubling chain B, 2B, 4B, ... and the (H, S, error)
    of each (ball, ell), so a ball that recurs across the schedule is
    doubled, spread and rounded once per call.  K comes from each delta
    (_doubling_k), and each trace stops where iterated_doubling would."""
    chains: dict[int, list[GroupSubset]] = {}
    rounds: dict[tuple[int, int], tuple[Subgroup, GroupSubset, Fraction]] = {}

    def step(ball: AlmostPeriodSet
             ) -> tuple[DoublingTrace, Subgroup, GroupSubset, Fraction]:
        b = ball.members
        trace = _double_until(chains.setdefault(b.bits, [b]),
                              _doubling_k(ball.delta))
        key = (b.bits, trace.ell)
        if key not in rounds:
            spread = difference_set(trace.double_set, trace.double_set)
            h = max_subgroup_within(spread, caps=caps)
            s = coset_round(a, h)
            rounds[key] = h, s, Fraction((a.bits ^ s.bits).bit_count(),
                                         a.group.order)
        return (trace, *rounds[key])

    return step


def _certificate(a: GroupSubset, epsilon: Fraction, delta: Fraction,
                 trace: DoublingTrace, h: Subgroup, s: GroupSubset,
                 err: Fraction) -> RegularityCertificate:
    return RegularityCertificate(
        base=a, epsilon=epsilon, delta_used=delta, subgroup=h, rounded=s,
        achieved_error=err, index=h.index, degenerate=False, trace=trace,
    )


def _degenerate_certificate(a: GroupSubset, epsilon: Fraction) -> RegularityCertificate:
    g = a.group
    trivial = _make_subgroup(g, 1, ())
    return RegularityCertificate(
        base=a, epsilon=epsilon, delta_used=None, subgroup=trivial,
        rounded=a, achieved_error=Fraction(0), index=g.order,
        degenerate=True, trace=None,
    )


def regularize(a: GroupSubset, epsilon, *, delta_schedule=None,
               max_index: int | None = None, caps: Caps = DEFAULT_CAPS
               ) -> RegularityCertificate:
    """Sweep the delta schedule (default_delta_schedule unless given) and
    return the certificate of smallest index at most max_index among the
    sweeps whose rounding error meets epsilon (ties broken by subgroup bitset,
    then by larger delta).  Falls back to the flagged degenerate certificate
    (H = {0}, S = A, error 0) when no sweep succeeds, so the operation is
    total even under adversarial schedules."""
    eps = _to_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must be in [0, 1]")
    g = a.group
    schedule = (list(delta_schedule) if delta_schedule is not None
                else default_delta_schedule(eps, g.order))
    prof = symdiff_profile(a)
    step = _pipeline_steps(a, caps)
    best: RegularityCertificate | None = None
    best_key = None
    for pos, delta in enumerate(schedule):
        ball = _ball(a, prof, delta)
        trace, h, s, err = step(ball)
        if err > eps:
            continue
        if max_index is not None and h.index > max_index:
            continue
        key = (h.index, h.bits, pos)
        if best_key is None or key < best_key:
            best_key = key
            best = _certificate(a, eps, ball.delta, trace, h, s, err)
    return best if best is not None else _degenerate_certificate(a, eps)


@dataclasses.dataclass(frozen=True)
class OracleReport:
    """Exhaustive best-subgroup rounding over the whole lattice."""

    epsilon: Fraction
    max_index: int | None
    min_index: int | None
    frontier: tuple[tuple[int, Fraction], ...]

    def best_error_at(self, max_index: int) -> Fraction | None:
        best = None
        for idx, err in self.frontier:
            if idx <= max_index and (best is None or err < best):
                best = err
        return best


def oracle_best_subgroup(a: GroupSubset, epsilon, max_index: int | None = None,
                         caps: Caps = DEFAULT_CAPS) -> OracleReport:
    """Round A against every subgroup (of index <= max_index when given) and
    report the minimum index achieving error <= epsilon, plus the full
    (index, best error) frontier.  Exhaustive; capped by the subgroup
    enumeration cap."""
    eps = _to_fraction(epsilon)
    g = a.group
    best_by_index: dict[int, Fraction] = {}
    for h in enumerate_subgroups(g, max_index=max_index, caps=caps):
        s = coset_round(a, h)
        err = Fraction((a.bits ^ s.bits).bit_count(), g.order)
        cur = best_by_index.get(h.index)
        if cur is None or err < cur:
            best_by_index[h.index] = err
    frontier = tuple(sorted(best_by_index.items()))
    min_index = None
    for idx, err in frontier:
        if err <= eps:
            min_index = idx
            break
    return OracleReport(eps, max_index, min_index, frontier)


@dataclasses.dataclass(frozen=True)
class RobustStep:
    delta: Fraction
    m: int
    m_effective: int
    threshold: Fraction
    ball_size: int
    branch: str


@dataclasses.dataclass(frozen=True)
class RobustOutcome:
    """Exactly one of: a sampled-VC report witnessing dimension > d (kind
    "high_vc"), or a regularity certificate (kind "certificate")."""

    kind: str
    d: int
    report: SampledVcReport | None
    certificate: RegularityCertificate | None
    steps: tuple[RobustStep, ...]


def _robust_m(delta: Fraction, d: int, order: int, c: float) -> tuple[int, int]:
    """m = C * (1/delta) * ln(1/delta), and its desk-scale cap.

    The small-ball branch is only meaningful when |G| >= 24 m^d (the sampled
    sets must fit twice over in G), so m is capped at the largest m >= 1 with
    24 m^d <= |G|; both the raw and the effective value are reported.

    ln(1/delta) is read as in _doubling_k: the log of the float 1/delta
    while that is finite, else the difference of the integer logs.  While
    the float product is finite, m_raw is its ceiling; past the floats, the
    ceiling of the exact product of C, 1/delta and that ln.  C must be
    finite and positive, as robust_pipeline checks."""
    num, den = delta.numerator, delta.denominator
    m_raw = 1
    if 0 < num < den:
        try:
            ratio = den / num
            ln = math.log(ratio)
        except OverflowError:
            ratio, ln = math.inf, math.log(den) - math.log(num)
        prod = c * ratio * ln
        if not math.isfinite(prod):
            prod = Fraction(c) * Fraction(den, num) * Fraction(ln)
        m_raw = max(1, math.ceil(prod))
    # the float d-th root falls one short when |G|/24 is an exact d-th power,
    # so settle the cap in integers
    cap = max(1, math.floor((order / 24) ** (1 / d)))
    while 24 * (cap + 1) ** d <= order:
        cap += 1
    while cap > 1 and 24 * cap**d > order:
        cap -= 1
    return m_raw, min(m_raw, cap)


def robust_pipeline(a: GroupSubset, epsilon, d: int, *,
                    c_constant: float = 8.0, trials: int = 50,
                    delta_schedule=None, caps: Caps = DEFAULT_CAPS,
                    rng_seed: int = 0) -> RobustOutcome:
    """Dichotomy sweep: at each delta, if the almost-period set is smaller
    than |G| / (12 m^d), random restricted systems must shatter more than d
    elements, so return the sampled-VC report; otherwise continue the
    regularity pipeline at this delta and return its certificate once the
    rounding error meets epsilon.  The sweep always decides: after the
    schedule comes delta = 1/(2|G|), where the ball is the exact stabilizer K
    of A, so H = K and the rounding error is 0.

    m = c_constant * (1/delta) * ln(1/delta), capped as in _robust_m; the
    sampled-VC report runs `trials` trials seeded by rng_seed."""
    eps = _to_fraction(epsilon)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < c_constant < math.inf:  # also False for nan
        raise ValueError("c_constant must be finite and positive")
    g = a.group
    schedule = (list(delta_schedule) if delta_schedule is not None
                else default_delta_schedule(eps, g.order))
    prof = symdiff_profile(a)
    step = _pipeline_steps(a, caps)
    steps: list[RobustStep] = []
    deltas = [*schedule, Fraction(1, 2 * g.order)]
    for pos, delta in enumerate(deltas):
        dd = _to_fraction(delta)
        if dd == 0:  # its ball is the appended step's: both thresholds are 0
            continue
        m_raw, m_eff = _robust_m(dd, d, g.order, c_constant)
        denom = 12 * m_eff**d
        threshold = Fraction(g.order, denom)
        ball = _ball(a, prof, dd)
        if ball.size * denom < g.order:
            steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                    "small_ball"))
            x_size = min(12 * m_eff**d, g.order)
            y_size = min(max(m_eff, d + 1), g.order)
            report = sampled_vc(a, x_size, y_size, trials, d, rng_seed,
                                caps=caps)
            return RobustOutcome("high_vc", d, report, None, tuple(steps))
        trace, h, s, err = step(ball)
        # the appended stabilizer delta decides even for a negative epsilon
        if err <= eps or pos == len(deltas) - 1:
            steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                    "certificate"))
            cert = _certificate(a, eps, dd, trace, h, s, err)
            return RobustOutcome("certificate", d, None, cert, tuple(steps))
        steps.append(RobustStep(dd, m_raw, m_eff, threshold, ball.size,
                                "continue"))
