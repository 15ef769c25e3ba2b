import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from addcomb import GroupDescriptor, GroupSubset

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# small mixed bag: elementary abelian, cyclic, and mixed-exponent groups
MODULI_POOL = [
    (2,), (3,), (4,), (5,), (7,),
    (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2),
    (8,), (9,), (12,), (2, 2, 3), (2, 8), (4, 4), (2, 2, 2, 2), (13,),
]

# Shapes MODULI_POOL lacks, for the bitset kernels: long cyclic factors
# (wide masks and shifts), mixed moduli, and ten factors of 2.
KERNEL_SHAPES = [(64,), (1024,), (2, 24), (3, 16, 2), (5, 7, 4), (2,) * 10]

# The benchmark's small-modulus and cyclic shapes.
BENCH_SHAPES = [(2,) * 12, (3,) * 7, (8,) * 4, (4096,)]


@st.composite
def groups(draw, pool=tuple(MODULI_POOL)):
    return GroupDescriptor(draw(st.sampled_from(pool)))


@st.composite
def subsets(draw, pool=tuple(MODULI_POOL)):
    g = GroupDescriptor(draw(st.sampled_from(pool)))
    bits = draw(st.integers(min_value=0, max_value=g.full_mask))
    return GroupSubset(g, bits)


@st.composite
def nonempty_subsets(draw, pool=tuple(MODULI_POOL)):
    g = GroupDescriptor(draw(st.sampled_from(pool)))
    bits = draw(st.integers(min_value=1, max_value=g.full_mask))
    return GroupSubset(g, bits)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) wraps fn at every addcomb module attribute bound to
    it, since callers import names directly, and returns a one-item list
    holding the number of calls made since."""

    def install(fn):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "addcomb" or name.startswith("addcomb."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counted)
        return calls

    return install


def pytest_runtest_logreport(report):
    # one visible PASS/FAIL line per acceptance criterion
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)
    elif report.when == "setup" and report.skipped:
        print(f"\n[acceptance] {name}: SKIP", flush=True)
