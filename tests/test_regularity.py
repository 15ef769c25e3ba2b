import dataclasses
import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from addcomb import (
    GroupDescriptor,
    GroupSubset,
    coset_representatives,
    coset_round,
    default_delta_schedule,
    enumerate_subgroups,
    generated_subgroup,
    oracle_best_subgroup,
    regularize,
    robust_pipeline,
    rounding_error_bound_check,
    symdiff_profile,
    verify_certificate,
)
from addcomb.groups import _make_subgroup, translate_bits
from addcomb.caps import DEFAULT_CAPS
from addcomb.io import (canonical_dumps, certificate_from_json,
                        certificate_to_json, value_to_json)
from addcomb.regularity import RegularityCertificate, _pipeline_steps
from addcomb.subsets import (AlmostPeriodSet, DoublingTrace, _ball,
                             difference_set, iterated_doubling, sumset)
from conftest import subsets


def _as_set(a: GroupSubset):
    return {a.group.coords_of(r) for r in a.ranks()}


def test_coset_round_examples():
    z22 = GroupDescriptor([2, 2])
    h = generated_subgroup(z22, [1])
    a = GroupSubset.from_ranks(z22, [0, 1, 2])
    s = coset_round(a, h)
    assert s.bits == z22.full_mask
    assert (a.bits ^ s.bits).bit_count() == 1
    union = GroupSubset.from_ranks(z22, [2, 3])
    assert coset_round(union, h).bits == union.bits
    assert coset_round(GroupSubset.empty(z22), h).size == 0
    other = GroupDescriptor([2, 2])
    assert coset_round(GroupSubset.empty(other), h).size == 0
    with pytest.raises(ValueError):
        coset_round(GroupSubset.empty(GroupDescriptor([3])), h)


@given(subsets(), st.data())
def test_coset_round_matches_oracle(a, data):
    g = a.group
    subs = enumerate_subgroups(g)
    h = data.draw(st.sampled_from(subs))
    got = coset_round(a, h)
    want = oracles.coset_round(
        g.moduli, _as_set(a), {g.coords_of(r) for r in h.ranks()}
    )
    assert _as_set(got) == want
    for x in h.ranks():
        assert translate_bits(g, got.bits, x) == got.bits


@given(subsets())
def test_coset_round_trivial_subgroup_returns_the_set(a):
    g = a.group
    got = coset_round(a, generated_subgroup(g, []))
    assert got == a
    assert _as_set(got) == oracles.coset_round(g.moduli, _as_set(a), {g.coords_of(0)})


def test_coset_round_trivial_subgroup_on_z1024():
    g = GroupDescriptor([1024])
    rng = random.Random(5)
    a = GroupSubset.from_ranks(g, [r for r in range(g.order) if rng.random() < 0.3])
    want = oracles.coset_round(g.moduli, _as_set(a), {g.coords_of(0)})
    assert _as_set(coset_round(a, generated_subgroup(g, []))) == want


def test_rounding_error_bound_examples():
    z22 = GroupDescriptor([2, 2])
    h = generated_subgroup(z22, [1])
    union = GroupSubset.from_ranks(z22, [2, 3])
    rep = rounding_error_bound_check(union, h)
    assert rep.error == 0 and rep.mean_bound == 0 and rep.holds
    trivial = generated_subgroup(z22, [])
    a = GroupSubset.from_ranks(z22, [0, 3])
    rep = rounding_error_bound_check(a, trivial)
    assert rep.error == 0 and rep.mean_bound == 0 and rep.holds
    g6 = GroupDescriptor([2] * 6)
    rng = random.Random(42)
    a = GroupSubset(g6, rng.getrandbits(64) & g6.full_mask)
    h = generated_subgroup(g6, [1, 2, 4])
    assert rounding_error_bound_check(a, h).holds


@given(subsets(), st.data())
def test_rounding_error_bound_property(a, data):
    h = data.draw(st.sampled_from(enumerate_subgroups(a.group)))
    assert rounding_error_bound_check(a, h).holds


@given(subsets(), st.data())
def test_rounding_error_bound_matches_profile_oracle(a, data):
    h = data.draw(st.sampled_from(enumerate_subgroups(a.group)))
    rep = rounding_error_bound_check(a, h)
    total = sum(oracles.symdiff_profile(a)[x] for x in h.ranks())
    assert rep.mean_bound == Fraction(total, h.size)
    assert type(rep.mean_bound.numerator) is int


def _planted66(seed, noise=0.05):
    """3 random cosets of a fixed index-8 subgroup of Z_2^6, then noise."""
    g = GroupDescriptor([2] * 6)
    h = generated_subgroup(g, [1, 2, 4])
    rng = random.Random(seed)
    bits = 0
    for r in rng.sample(coset_representatives(g, h), 3):
        bits |= translate_bits(g, h.bits, r)
    flips = 0
    for r in range(64):
        if rng.random() < noise:
            bits ^= 1 << r
            flips += 1
    return GroupSubset(g, bits), h, flips


def test_regularize_trivial_inputs():
    g = GroupDescriptor([2, 2, 2])
    for a in (GroupSubset.empty(g), GroupSubset.full(g)):
        cert = regularize(a, Fraction(1, 4))
        assert cert.index == 1 and cert.subgroup.size == 8
        assert cert.achieved_error == 0 and not cert.degenerate
        assert cert.rounded.bits == a.bits
        assert verify_certificate(cert).ok


def test_regularize_planted_noiseless():
    a, h, flips = _planted66(1001, noise=0.0)
    assert flips == 0
    cert = regularize(a, Fraction(1, 5))
    assert cert.achieved_error == 0 and cert.index == 8
    assert not cert.degenerate
    assert cert.rounded.bits == a.bits
    assert verify_certificate(cert).ok
    # the stabilizer of a 3-coset union is exactly the planted subgroup
    assert cert.subgroup.bits == h.bits
    assert oracle_best_subgroup(a, 0).min_index == 8


def test_regularize_planted_noisy_sandwich():
    eps = Fraction(1, 5)
    for seed, want_index, want_err in [
        (2, 8, Fraction(1, 64)),
        (4, 8, Fraction(3, 64)),
        (6, 8, Fraction(3, 64)),
    ]:
        a, h, flips = _planted66(seed)
        assert 1 <= flips <= 3
        cert = regularize(a, eps)
        assert cert.achieved_error <= eps and not cert.degenerate
        assert cert.index == want_index and cert.achieved_error == want_err
        assert verify_certificate(cert).ok
        oracle = oracle_best_subgroup(a, eps)
        assert oracle.min_index <= cert.index
        assert cert.index <= oracle_best_subgroup(a, 0).min_index


def test_regularize_heavy_noise_falls_back_to_stabilizer():
    # 6 flips exceed delta|G|/2 at every scheduled delta, so the ball
    # collapses and the pipeline lands on the exact-stabilizer certificate
    a, h, flips = _planted66(1001)
    assert flips == 6
    cert = regularize(a, Fraction(1, 5))
    assert cert.index == 64 and cert.achieved_error == 0
    assert not cert.degenerate and verify_certificate(cert).ok


def test_regularize_validates_epsilon():
    g = GroupDescriptor([4])
    a = GroupSubset.from_ranks(g, [1])
    with pytest.raises(ValueError):
        regularize(a, Fraction(3, 2))
    with pytest.raises(ValueError):
        regularize(a, Fraction(-1, 2))


def test_regularize_degenerate_only_with_starved_schedule():
    g = GroupDescriptor([2] * 6)
    single = GroupSubset.from_ranks(g, [5])
    cert = regularize(single, Fraction(1, 128),
                      delta_schedule=(Fraction(1, 2),))
    assert cert.degenerate and cert.index == 64
    assert cert.achieved_error == 0 and cert.rounded.bits == single.bits
    assert verify_certificate(cert).ok
    # the default schedule reaches the stabilizer and never degenerates
    cert = regularize(single, Fraction(1, 128))
    assert not cert.degenerate and cert.index == 64


def test_regularize_reads_a_delta_past_the_floats():
    a, h, _ = _planted66(1001, noise=0.0)
    tiny = Fraction(1, 10**400)
    cert = regularize(a, "1/4", delta_schedule=[tiny])
    assert cert.delta_used == tiny and cert.subgroup.bits == h.bits
    assert verify_certificate(cert).ok


def test_regularize_max_index_filter():
    a, _, _ = _planted66(1001, noise=0.0)
    cert = regularize(a, Fraction(1, 5), max_index=4)
    assert cert.degenerate  # every pipeline success has index 8 or more


@given(subsets(), st.sampled_from([Fraction(1, 4), Fraction(1, 8)]))
def test_regularize_certificates_always_verify(a, eps):
    cert = regularize(a, eps)
    assert verify_certificate(cert).ok
    if not cert.degenerate:
        assert cert.achieved_error <= eps
        assert cert.index == cert.subgroup.index


# deltas the sweeps see: repeats, 0, values past 1, out of order
SCHEDULE_DELTAS = [Fraction(0), Fraction(1, 64), Fraction(1, 16), Fraction(1, 8),
                   Fraction(3, 16), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                   Fraction(3, 2)]
schedules = st.one_of(
    st.none(), st.lists(st.sampled_from(SCHEDULE_DELTAS), min_size=1,
                        max_size=6))


def _cert_bytes(cert):
    return canonical_dumps(certificate_to_json(cert))


def _outcome_bytes(out):
    cert = out.certificate
    return canonical_dumps(value_to_json({
        "kind": out.kind, "d": out.d, "steps": out.steps, "report": out.report,
        "certificate": None if cert is None else certificate_to_json(cert)}))


@given(subsets(), st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4)]),
       schedules, st.one_of(st.none(), st.sampled_from([1, 2, 4, 8])))
def test_regularize_matches_the_per_delta_sweep(a, eps, schedule, max_index):
    got = regularize(a, eps, delta_schedule=schedule, max_index=max_index)
    want = oracles.regularize(a, eps, delta_schedule=schedule,
                              max_index=max_index)
    assert _cert_bytes(got) == _cert_bytes(want)


@given(subsets(), st.sampled_from([Fraction(0), Fraction(1, 8), Fraction(1, 4)]),
       st.sampled_from([1, 2]), schedules)
def test_robust_pipeline_matches_the_per_delta_sweep(a, eps, d, schedule):
    got = robust_pipeline(a, eps, d, trials=5, delta_schedule=schedule,
                          rng_seed=4)
    want = oracles.robust_pipeline(a, eps, d, trials=5,
                                   delta_schedule=schedule, rng_seed=4)
    assert _outcome_bytes(got) == _outcome_bytes(want)


@given(subsets(), st.lists(st.sampled_from(SCHEDULE_DELTAS[1:]), min_size=1,
                           max_size=6))
def test_sweep_traces_equal_iterated_doubling(a, schedule):
    step = _pipeline_steps(a, DEFAULT_CAPS)
    prof = symdiff_profile(a)
    for delta in schedule:
        ball = _ball(a, prof, delta)
        trace, h, s, err = step(ball)
        assert trace == iterated_doubling(ball.members, delta)
        assert trace == oracles.iterated_doubling(ball.members, delta)
        assert (trace, h, s, err) == oracles.pipeline_step(a, ball)


def test_sweep_keeps_a_round_per_ball_and_ell():
    """One ball under deltas whose K stop its doubling at different ell:
    2B has 13 elements for |B| = 5, past K(1/2) * 5 and within K(1/4) * 5."""
    g = GroupDescriptor([64])
    b = GroupSubset.from_ranks(g, [0, 5, 59, 7, 57])
    a = GroupSubset(g, random.Random(3).getrandbits(64))
    step = _pipeline_steps(a, DEFAULT_CAPS)
    ells = []
    for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1), Fraction(1, 4)):
        ball = AlmostPeriodSet(a, delta, b)
        got = step(ball)
        assert got == oracles.pipeline_step(a, ball)
        ells.append(got[0].ell)
    assert ells[0] > ells[1] == ells[3] == 1


def test_sweep_doubles_and_rounds_each_ball_once(count_calls):
    """A schedule that meets one ball four times doubles it once, and its
    spread, subgroup and rounding are formed once per (ball, ell)."""
    a, _, _ = _planted66(1001, noise=0.0)
    prof = symdiff_profile(a)
    schedule = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 8), Fraction(1, 32)]
    assert len({_ball(a, prof, d).members.bits for d in schedule}) == 1
    doublings = count_calls(sumset)
    spreads = count_calls(difference_set)
    rounds = count_calls(coset_round)
    cert = regularize(a, Fraction(1, 5), delta_schedule=schedule)
    assert doublings[0] == len(cert.trace.sizes) - 1
    assert spreads[0] == rounds[0] == 1
    assert cert == oracles.regularize(a, Fraction(1, 5), delta_schedule=schedule)


def test_default_delta_schedule_shape():
    sched = default_delta_schedule(Fraction(1, 4), 64)
    assert sched[0] == Fraction(1, 8)
    for prev, cur in zip(sched, sched[1:]):
        assert cur == prev / 2
    assert sched[-1] < Fraction(1, 128)
    assert sched[-2] >= Fraction(1, 128)


def test_verify_certificate_rejects_tampering():
    a, _, _ = _planted66(4)
    cert = regularize(a, Fraction(1, 5))
    assert verify_certificate(cert).ok
    g = a.group
    bad_rounded = dataclasses.replace(
        cert, rounded=GroupSubset(g, cert.rounded.bits ^ 1)
    )
    assert not verify_certificate(bad_rounded).ok
    bad_error = dataclasses.replace(cert, achieved_error=cert.achieved_error / 2)
    assert not verify_certificate(bad_error).error_ok
    outside = ((~cert.subgroup.bits) & g.full_mask).bit_length() - 1
    fake_h = dataclasses.replace(
        cert.subgroup, bits=cert.subgroup.bits | (1 << outside)
    )
    assert not verify_certificate(dataclasses.replace(cert, subgroup=fake_h)).closure_ok
    tight = dataclasses.replace(cert, epsilon=cert.achieved_error - Fraction(1, 64))
    assert not verify_certificate(tight).error_ok


def test_verify_certificate_reads_the_subgroup_bits_not_its_generators():
    a, _, _ = _planted66(4)
    cert = regularize(a, Fraction(1, 5))
    h = cert.subgroup
    assert h.size > 2
    obj = certificate_to_json(cert)
    # generators that generate nothing, and generators outside H
    outside = ((~h.bits) & a.group.full_mask).bit_length() - 1
    for wrong in ([0], [outside], []):
        obj["subgroup"]["generators"] = wrong
        assert verify_certificate(certificate_from_json(obj)).ok
    # same size, holds 0, but not closed: swap one non-zero element of H out
    inside = h.bits.bit_length() - 1
    fake = _make_subgroup(a.group, h.bits ^ (1 << inside) ^ (1 << outside),
                          list(h.generators))
    chk = verify_certificate(dataclasses.replace(cert, subgroup=fake))
    assert not chk.closure_ok and not chk.ok


def test_verify_certificate_reads_a_generating_set(count_calls):
    # index 2 in (Z/2)^16: one walk of H keeps its 15 generators, one
    # translate apiece, and the union check translates S by each of them
    g = GroupDescriptor([2] * 16)
    h = _make_subgroup(g, (1 << 2**15) - 1, ())
    a = GroupSubset(g, h.bits ^ 0b110)
    s = coset_round(a, h)
    err = Fraction((a.bits ^ s.bits).bit_count(), g.order)
    trace = DoublingTrace(a, 1.0, 1, a, a, (a.size, a.size))
    cert = RegularityCertificate(a, err, Fraction(1, 4), h, s, err, 2,
                                 False, trace)
    calls = count_calls(translate_bits)
    assert verify_certificate(cert).ok
    assert calls[0] == 2 * 15


def test_verify_certificate_translate_bound_is_exact():
    # the translate bound fails once 4*l*delta*|G| drops below the profile's
    # largest value on H
    a, _, _ = _planted66(4)
    cert = regularize(a, Fraction(1, 5))
    g = a.group
    prof = symdiff_profile(a)
    top = int(prof[cert.subgroup.ranks()].max())
    assert top > 0
    scale = 4 * cert.trace.ell * g.order
    at_top = dataclasses.replace(cert, delta_used=Fraction(top, scale))
    assert verify_certificate(at_top).translate_bound_ok
    under = dataclasses.replace(cert, delta_used=Fraction(2 * top - 1, 2 * scale))
    assert not verify_certificate(under).translate_bound_ok


def _mid_certificate():
    # the cosets of an index-4 subgroup of (Z/4)^3 with three ranks flipped
    g = GroupDescriptor([4, 4, 4])
    a = GroupSubset.from_ranks(
        g, [r for r in range(64) if (r % 4 < 2) != (r in (5, 22, 41))])
    cert = regularize(a, Fraction(1, 4))
    assert cert.index == 4 and not cert.degenerate
    assert verify_certificate(cert).ok
    return cert


def test_verify_certificate_checks_the_claimed_index():
    cert = _mid_certificate()
    for wrong in (1, 2, 8, 64):
        chk = verify_certificate(dataclasses.replace(cert, index=wrong))
        assert not chk.closure_ok and not chk.ok
    # the top-level index of a certificate file is checked the same way
    obj = certificate_to_json(cert)
    obj["index"] = 1
    assert not verify_certificate(certificate_from_json(obj)).ok


def test_verify_certificate_skips_the_bound_only_for_the_degenerate_form():
    cert = _mid_certificate()
    tiny = dataclasses.replace(cert, delta_used=Fraction(1, 10**6))
    assert not verify_certificate(tiny).translate_bound_ok
    # the flag alone does not excuse a delta and a trace that fail the bound
    flagged = dataclasses.replace(tiny, degenerate=True)
    assert not verify_certificate(flagged).translate_bound_ok
    # a missing delta or trace is excused only with the flag and H = {0}
    for changes in ({"delta_used": None}, {"trace": None},
                    {"delta_used": None, "trace": None},
                    {"delta_used": None, "trace": None, "degenerate": True},
                    {"delta_used": None, "degenerate": True}):
        chk = verify_certificate(dataclasses.replace(cert, **changes))
        assert not chk.translate_bound_ok and not chk.ok, changes
    g = cert.base.group
    trivial = _make_subgroup(g, 1, ())
    degenerate = dataclasses.replace(
        cert, subgroup=trivial, rounded=cert.base, achieved_error=Fraction(0),
        index=g.order, degenerate=True, delta_used=None, trace=None)
    assert verify_certificate(degenerate).ok
    assert not verify_certificate(
        dataclasses.replace(degenerate, degenerate=False)).ok


def test_oracle_examples():
    g = GroupDescriptor([2, 2, 2])
    rng = random.Random(5)
    a = GroupSubset(g, rng.getrandbits(8) & g.full_mask)
    assert oracle_best_subgroup(a, 1).min_index == 1
    single = GroupSubset.from_ranks(g, [3])
    rep = oracle_best_subgroup(single, Fraction(1, 16))
    assert rep.min_index == 8
    union = GroupSubset(g, generated_subgroup(g, [1]).bits)
    assert oracle_best_subgroup(union, 0).min_index <= 4


def test_oracle_frontier_monotone():
    a, _, _ = _planted66(2)
    rep = oracle_best_subgroup(a, Fraction(1, 5))
    indexes = [idx for idx, _ in rep.frontier]
    assert indexes == sorted(indexes)
    best = [rep.best_error_at(idx) for idx, _ in rep.frontier]
    for prev, cur in zip(best, best[1:]):
        assert cur <= prev
    assert rep.best_error_at(max(indexes)) == 0 or a.size in (0, 64)


def test_oracle_max_index_restriction():
    a, _, _ = _planted66(2)
    rep = oracle_best_subgroup(a, Fraction(1, 5), max_index=1)
    assert all(idx == 1 for idx, _ in rep.frontier)
    assert rep.min_index is None or rep.min_index == 1


def test_robust_pipeline_examples():
    a, _, _ = _planted66(1001, noise=0.0)
    out = robust_pipeline(a, Fraction(1, 10), 2, rng_seed=5)
    assert out.kind == "certificate"
    assert out.certificate.achieved_error == 0
    assert out.report is None
    g10 = GroupDescriptor([2] * 10)
    rng = random.Random(77)
    rand = GroupSubset(g10, rng.getrandbits(1024) & g10.full_mask)
    out = robust_pipeline(rand, Fraction(1, 10), 1, rng_seed=6)
    assert out.kind == "high_vc"
    assert out.certificate is None
    assert out.report.frequency >= 0.9
    assert out.steps[0].branch == "small_ball"
    assert out.steps[0].ball_size == 1
    empty = GroupSubset.empty(GroupDescriptor([2] * 6))
    out = robust_pipeline(empty, Fraction(1, 4), 1, rng_seed=0)
    assert out.kind == "certificate" and out.certificate.index == 1
    with pytest.raises(ValueError):
        robust_pipeline(empty, Fraction(1, 4), 0, rng_seed=0)


@pytest.mark.parametrize("c", [math.inf, math.nan, 0, 0.0, -5, -math.inf])
def test_robust_pipeline_rejects_a_constant_that_is_not_finite_and_positive(
        c, count_calls):
    # each is rejected before the profile is computed; unchecked, inf and
    # nan fail in math.ceil and 0 or -5 run with every m = 1
    a, _, _ = _planted66(1001, noise=0.0)
    profiles = count_calls(symdiff_profile)
    with pytest.raises(ValueError, match="c_constant must be finite and "
                                         "positive"):
        robust_pipeline(a, Fraction(1, 10), 2, c_constant=c, rng_seed=5)
    assert profiles[0] == 0


def test_robust_pipeline_schedule_exhausted_takes_the_stabilizer_delta():
    # a custom schedule that decides nothing is followed by delta = 1/(2|G|)
    g = GroupDescriptor([2] * 6)
    h = generated_subgroup(g, [1, 2, 4, 8])
    two_cosets = GroupSubset(g, h.bits | translate_bits(g, h.bits, 16))
    out = robust_pipeline(two_cosets, 0, 1, delta_schedule=(Fraction(1),),
                          rng_seed=0)
    assert [(s.delta, s.branch) for s in out.steps] == [
        (Fraction(1), "continue"), (Fraction(1, 128), "certificate")]
    assert out.kind == "certificate" and out.certificate.index == 2
    assert out.certificate.achieved_error == 0
    assert verify_certificate(out.certificate).ok
    # the appended delta decides even when no error can meet epsilon
    out = robust_pipeline(two_cosets, -1, 1, delta_schedule=(Fraction(1),),
                          rng_seed=0)
    assert [s.branch for s in out.steps] == ["continue", "certificate"]

    rand = GroupSubset(g, random.Random(0).getrandbits(64))
    out = robust_pipeline(rand, 0, 1, delta_schedule=(Fraction(1, 2),),
                          rng_seed=0)
    assert [(s.delta, s.branch) for s in out.steps] == [
        (Fraction(1, 2), "continue"), (Fraction(1, 128), "small_ball")]
    assert out.kind == "high_vc" and out.steps[-1].ball_size == 1


def test_certificate_generators_are_python_int_ranks():
    a, _, _ = _planted66(4)
    obj = certificate_to_json(regularize(a, Fraction(1, 5)))
    h = certificate_from_json(obj).subgroup
    assert list(h.generators) == obj["subgroup"]["generators"]
    assert all(type(r) is int for r in h.generators)
    # a generator rank out of range is refused, as a non-integer is
    for bad in (-1, a.group.order):
        obj["subgroup"]["generators"] = [1, bad]
        with pytest.raises(ValueError, match=f"rank {bad} out of range"):
            certificate_from_json(obj)
    obj["subgroup"]["generators"] = [1.0]
    with pytest.raises(ValueError, match="must be an integer"):
        certificate_from_json(obj)


def test_robust_pipeline_at_a_negative_epsilon_takes_the_stabilizer_delta():
    # no delta meets eps < 0, so the default schedule holds none and the
    # appended delta 1/(2|G|) decides, as with an empty schedule: the exact
    # planted set certifies its subgroup, the noisy one's ball is {0}
    assert default_delta_schedule(Fraction(-1, 4), 64) == []
    for noise, branch in ((0, "certificate"), (0.05, "small_ball")):
        a, h, _ = _planted66(2, noise)
        out = robust_pipeline(a, Fraction(-1, 4), 1, rng_seed=0)
        assert [(s.delta, s.branch) for s in out.steps] == [
            (Fraction(1, 128), branch)]
        assert out == robust_pipeline(a, Fraction(-1, 4), 1,
                                      delta_schedule=(), rng_seed=0)
    assert out.kind == "high_vc"
    a, h, _ = _planted66(2, 0)
    cert = robust_pipeline(a, Fraction(-1, 4), 1, rng_seed=0).certificate
    assert cert.subgroup.bits == h.bits and cert.achieved_error == 0
    with pytest.raises(ValueError, match="epsilon must be in"):
        regularize(a, Fraction(-1, 4))


def test_robust_pipeline_skips_a_zero_delta():
    # eps = 0 makes the default schedule [0]; its ball is the ball of the
    # appended delta 1/(2|G|), which then decides
    a, _, _ = _planted66(2)
    assert default_delta_schedule(Fraction(0), 64) == [Fraction(0)]
    out = robust_pipeline(a, 0, 1, rng_seed=0)
    assert [s.delta for s in out.steps] == [Fraction(1, 128)]
    assert out == robust_pipeline(a, 0, 1, delta_schedule=(), rng_seed=0)
    out = robust_pipeline(a, 0, 1,
                          delta_schedule=(Fraction(1, 2), Fraction(0)),
                          rng_seed=0)
    assert 0 not in [s.delta for s in out.steps]


@given(subsets(), st.sampled_from([1, 2]))
def test_robust_pipeline_always_decides(a, d):
    out = robust_pipeline(a, Fraction(1, 4), d, trials=5, rng_seed=3)
    assert out.kind in ("high_vc", "certificate")
    assert (out.report is None) != (out.certificate is None)
    assert out.steps[-1].branch in ("small_ball", "certificate")
    if out.kind == "certificate":
        assert verify_certificate(out.certificate).ok
        assert out.certificate.achieved_error <= Fraction(1, 4)


def test_robust_steps_record_ball_sizes():
    from addcomb import almost_periods

    a, _, _ = _planted66(2)
    out = robust_pipeline(a, Fraction(1, 5), 1, rng_seed=0)
    for step in out.steps:
        assert step.ball_size == almost_periods(a, step.delta).size
        assert step.m_effective <= step.m
        assert step.threshold == Fraction(64, 12 * step.m_effective**1)


@pytest.mark.parametrize("order,want", [(1536, 4), (3000, 5), (24_000, 10)])
def test_robust_m_cap_is_an_exact_integer_root(order, want):
    # 24 m^3 = |G| exactly at these orders, where a float cube root of |G|/24
    # comes out just below m
    from addcomb.regularity import _robust_m

    delta = Fraction(1, 1000)
    m_raw, m_eff = _robust_m(delta, 3, order, 100.0)
    assert m_raw > want and m_eff == want
    assert 24 * want**3 <= order < 24 * (want + 1) ** 3
    assert _robust_m(delta, 3, order - 1, 100.0)[1] == want - 1


@pytest.mark.parametrize("exp", [306, 400])
def test_robust_pipeline_reads_a_delta_past_the_floats(exp):
    # C (1/delta) ln(1/delta) overflows a float from about delta = 1e-305,
    # and 1/delta itself past 1e-308; m is then the exact ceiling, checked
    # against a 60-digit decimal
    from addcomb.regularity import _robust_m

    a, _, _ = _planted66(1001, noise=0.0)
    delta = Fraction(1, 10**exp)
    out = robust_pipeline(a, "1/4", 1, delta_schedule=[delta], rng_seed=0)
    assert out.steps[0].delta == delta
    with decimal.localcontext(decimal.Context(prec=60)):
        want = 8 * decimal.Decimal(10) ** exp * exp * decimal.Decimal(10).ln()
        assert abs(decimal.Decimal(out.steps[0].m) / want - 1) < 1e-12
    # at a delta where the product is finite, m is the float expression's
    assert _robust_m(Fraction(1, 10**300), 1, 64, 8.0)[0] == math.ceil(
        8.0 * 1e300 * math.log(1e300))


def test_robust_pipeline_scans_one_ball_per_step(count_calls):
    g = GroupDescriptor([2] * 6)
    h = generated_subgroup(g, [1, 2, 4, 8])
    two_cosets = GroupSubset(g, h.bits | translate_bits(g, h.bits, 16))
    rand = GroupSubset(g, random.Random(0).getrandbits(64))
    balls = count_calls(_ball)
    profiles = count_calls(symdiff_profile)
    for a in (two_cosets, rand):
        balls[0] = profiles[0] = 0
        out = robust_pipeline(a, 0, 1, delta_schedule=(Fraction(1),),
                              rng_seed=0)
        # certificate and continue steps run the pipeline on the same ball
        assert [s.branch for s in out.steps] == (
            ["continue", "certificate"] if a is two_cosets
            else ["continue", "small_ball"])
        assert balls[0] == 2
        assert profiles[0] == 1


def test_pipelines_compute_one_profile_per_call(count_calls):
    a, _, _ = _planted66(2)
    eps = Fraction(1, 5)
    balls = count_calls(_ball)
    profiles = count_calls(symdiff_profile)
    cert = regularize(a, eps)
    assert not cert.degenerate
    assert profiles[0] == 1
    assert balls[0] == len(default_delta_schedule(eps, a.group.order)) > 1
    profiles[0] = 0
    assert verify_certificate(cert).ok
    assert profiles[0] == 1
    profiles[0] = 0
    out = robust_pipeline(
        a, 0, 1, trials=5,
        delta_schedule=(Fraction(1), Fraction(1, 2), Fraction(1, 4)),
        rng_seed=0)
    assert len(out.steps) > 1
    assert profiles[0] == 1
