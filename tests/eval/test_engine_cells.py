"""Whole-trace engine cells of ``run_trace`` against the per-access path.

``run_trace`` runs LRU, tree-PLRU, GIPPR and DGIPPR cells on the engines
of :mod:`repro.engine.scalar`; passing ``stats_sink={}`` forces the same
cell through :meth:`SetAssociativeCache.access`, which is the reference
here.  Every :class:`RunResult` field must match, and a DGIPPR policy's
selector must end in the state the per-access run leaves it in.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV, lru_ipv
from repro.engine import scalar
from repro.eval import default_config, run_trace
from repro.eval.config import ExperimentConfig
from repro.obs import Tracer
from repro.policies import (
    DGIPPRPolicy,
    GIPPRPolicy,
    IPVLRUPolicy,
    TreePLRUPolicy,
    TrueLRUPolicy,
    make_policy,
)
from repro.policies.bypass import BypassDGIPPRPolicy
from repro.trace import Trace
from repro.workloads.spec import SPEC_BENCHMARKS

FIELDS = (
    "trace_name", "policy_name", "accesses", "misses", "instructions",
    "mpki", "miss_positions",
)


def selector_state(selector):
    """Every counter value of a set-dueling selector, plus its pick."""
    counters = [
        getattr(selector, name).value
        for name in ("psel", "pair01", "pair23", "meta")
        if hasattr(selector, name)
    ]
    for level in getattr(selector, "levels", ()):
        counters.extend(c.value for c in level)
    return counters, selector.selected()


def assert_same_cell(build, trace, config, collect=False):
    """Run ``trace`` on the engine and the per-access path; compare."""
    engine_policy, reference_policy = build(), build()
    engine = run_trace(engine_policy, trace, config, collect)
    reference = run_trace(
        reference_policy, trace, config, collect, stats_sink={}
    )
    for field in FIELDS:
        assert getattr(engine, field) == getattr(reference, field), field
    if isinstance(engine_policy, DGIPPRPolicy):
        assert selector_state(engine_policy.selector) == selector_state(
            reference_policy.selector
        )
        assert engine_policy.active_ipv() == reference_policy.active_ipv()
    return engine


def vectors(k, count):
    return st.lists(
        st.lists(st.integers(0, k - 1), min_size=k + 1, max_size=k + 1),
        min_size=count, max_size=count,
    )


@st.composite
def cells(draw):
    num_sets = 1 << draw(st.integers(0, 6))
    k = 1 << draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("lru", "plru", "gippr", "dgippr")))
    kernel = draw(st.sampled_from(("walk", "auto")))
    if kind == "lru":
        build = lambda: TrueLRUPolicy(num_sets, k)  # noqa: E731
    elif kind == "plru":
        build = lambda: TreePLRUPolicy(  # noqa: E731
            num_sets, k, kernel=kernel
        )
    elif kind == "gippr":
        ipv = IPV(draw(vectors(k, 1))[0])
        build = lambda: GIPPRPolicy(  # noqa: E731
            num_sets, k, ipv=ipv, kernel=kernel
        )
    else:
        count = draw(st.sampled_from((1, 2, 4, 8)))
        ipvs = [IPV(v) for v in draw(vectors(k, count))]
        leaders = draw(st.sampled_from((None, 0, 1, 2)))
        bits = draw(st.integers(1, 11))
        build = lambda: DGIPPRPolicy(  # noqa: E731
            num_sets, k, ipvs=ipvs, leaders_per_policy=leaders,
            counter_bits=bits, kernel=kernel,
        )
    # Few distinct blocks per set, so hits, evictions and PSEL moves mix.
    footprint = num_sets * k * draw(st.sampled_from((1, 2, 3)))
    length = draw(st.integers(0, 600))
    addresses = draw(st.lists(
        st.integers(0, footprint - 1), min_size=length, max_size=length
    ))
    if draw(st.booleans()):
        gaps = draw(st.lists(
            st.integers(0, 40), min_size=len(addresses),
            max_size=len(addresses),
        ))
        positions, at = [], 0
        for gap in gaps:
            at += gap
            positions.append(at)
        trace = Trace(
            addresses, instructions=max(len(addresses), at + 1),
            positions=positions, name="annotated",
        )
    else:
        trace = Trace(addresses, name="plain")
    config = ExperimentConfig(
        num_sets=num_sets,
        assoc=k,
        warmup_fraction=draw(st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9))),
        apply_env_scale=False,
    )
    return build, trace, config, draw(st.booleans())


@given(cell=cells())
@settings(max_examples=300, deadline=None)
def test_engine_matches_per_access_path(cell):
    build, trace, config, collect = cell
    assert_same_cell(build, trace, config, collect)


@pytest.mark.parametrize("policy", ["lru", "plru", "gippr", "dgippr"])
@pytest.mark.parametrize(
    "bench, simpoint",
    [("429.mcf", 0), ("462.libquantum", 0), ("400.perlbench", 1),
     ("471.omnetpp", 0), ("483.xalancbmk", 0)],
)
def test_spec_cells_at_compare_shape(policy, bench, simpoint):
    """`repro compare`'s shape: 64 x 16, 20k accesses, seed 1."""
    config = default_config(trace_length=20_000, num_sets=64, seed=1)
    trace = SPEC_BENCHMARKS[bench].trace(
        simpoint, config.trace_length, config.capacity_blocks,
        seed=config.seed,
    )
    result = assert_same_cell(
        lambda: make_policy(policy, 64, 16), trace, config, collect=True
    )
    assert result.accesses == len(trace) - int(len(trace) * 0.25)


@pytest.mark.parametrize("policy", ["lru", "plru", "gippr", "dgippr"])
def test_empty_trace(policy):
    config = default_config(trace_length=1000)
    result = assert_same_cell(
        lambda: make_policy(policy, 64, 16), Trace([]), config, collect=True
    )
    assert (result.accesses, result.misses, result.miss_positions) == (
        0, 0, []
    )


def test_duel_follower_stream_switches_often(monkeypatch):
    """With 1-bit counters the followers' vector flips on most leader
    misses, so the follower stream runs in many segments."""
    steps = []
    replay = scalar.duel_selections

    def counting_replay(*args):
        starts, picks = replay(*args)
        steps.append(len(starts))
        return starts, picks

    monkeypatch.setattr(scalar, "duel_selections", counting_replay)
    rng = random.Random(5)
    addresses = [rng.randrange(8 * 16 * 2) for _ in range(6000)]
    config = ExperimentConfig(
        num_sets=8, assoc=16, warmup_fraction=0.25, apply_env_scale=False
    )
    ipvs = [IPV([0] * 17), IPV([0] * 16 + [15])]
    assert_same_cell(
        lambda: DGIPPRPolicy(
            8, 16, ipvs=ipvs, leaders_per_policy=1, counter_bits=1
        ),
        Trace(addresses), config, collect=True,
    )
    assert steps[0] > 50


class _AccessSpy:
    """Counts ``SetAssociativeCache.access`` calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        access = SetAssociativeCache.access

        def spy(cache, *args, **kwargs):
            self.calls += 1
            return access(cache, *args, **kwargs)

        monkeypatch.setattr(SetAssociativeCache, "access", spy)


@pytest.mark.parametrize("policy", ["lru", "plru", "gippr", "dgippr"])
def test_tracer_and_stats_sink_take_the_per_access_path(policy, monkeypatch):
    config = default_config(trace_length=1000, warmup_fraction=0.25)
    trace = Trace([i % 2000 for i in range(1000)])
    spy = _AccessSpy(monkeypatch)
    run_trace(make_policy(policy, 64, 16), trace, config)
    assert spy.calls == 0  # the engine path
    run_trace(make_policy(policy, 64, 16), trace, config, stats_sink={})
    assert spy.calls == 1000
    tracer = Tracer()
    run_trace(make_policy(policy, 64, 16), trace, config, tracer=tracer)
    assert spy.calls == 2000
    assert tracer.events_emitted > 0


@pytest.mark.parametrize("build", [
    lambda: make_policy("drrip", 64, 16),
    lambda: make_policy("pdp", 64, 16),
    lambda: make_policy("giplr", 64, 16),
    # Engines dispatch on the exact type: neither TrueLRUPolicy's base
    # class (even with the LRU vector) nor a DGIPPRPolicy subclass.
    lambda: IPVLRUPolicy(64, 16, lru_ipv(16)),
    lambda: BypassDGIPPRPolicy(64, 16),
])
def test_other_policies_stay_per_access(build, monkeypatch):
    config = default_config(trace_length=1000)
    spy = _AccessSpy(monkeypatch)
    run_trace(build(), Trace(list(range(1000))), config)
    assert spy.calls == 1000
