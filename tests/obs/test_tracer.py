"""Tracer: event emission, non-perturbation, replay, registry rebuild."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.obs import (
    ListSink,
    MetricsRegistry,
    Tracer,
    parse_prometheus,
    registry_from_events,
    replay_counts,
)
from repro.policies import make_policy

NUM_SETS, ASSOC = 16, 16


def _stream(n, seed=3):
    """Deterministic mixed hit/miss stream over a 2x-capacity footprint."""
    footprint = NUM_SETS * ASSOC * 2
    state = seed
    out = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state % footprint)
    return out


def _run(policy_name, tracer=None, n=3000, **kwargs):
    policy = make_policy(policy_name, NUM_SETS, ASSOC, **kwargs)
    cache = SetAssociativeCache(NUM_SETS, ASSOC, policy, block_size=1)
    if tracer is not None:
        cache.attach_tracer(tracer)
    for address in _stream(n):
        cache.access(address)
    return cache


class TestNonPerturbation:
    @pytest.mark.parametrize("policy", ["plru", "gippr", "dgippr", "drrip"])
    def test_traced_equals_untraced(self, policy):
        """Attaching a tracer must not change a single statistic."""
        plain = _run(policy)
        traced = _run(policy, tracer=Tracer(sink=ListSink()))
        a, b = plain.stats, traced.stats
        assert (a.accesses, a.hits, a.misses, a.evictions, a.writebacks,
                a.bypasses) == (b.accesses, b.hits, b.misses, b.evictions,
                                b.writebacks, b.bypasses)

    def test_detach_restores_plain_path(self):
        tracer = Tracer(sink=ListSink())
        policy = make_policy("plru", NUM_SETS, ASSOC)
        cache = SetAssociativeCache(NUM_SETS, ASSOC, policy, block_size=1)
        cache.attach_tracer(tracer)
        cache.access(0)
        assert cache.detach_tracer() is tracer
        assert tracer.events_emitted > 0
        before = tracer.events_emitted
        cache.access(1)
        assert cache.stats.accesses == 2
        assert tracer.events_emitted == before


class TestReplay:
    def test_replay_counts_match_cache_stats(self):
        sink = ListSink()
        cache = _run("gippr", tracer=Tracer(sink=sink))
        counts = replay_counts(sink)
        stats = cache.stats
        assert counts["accesses"] == stats.accesses
        assert counts["hits"] == stats.hits
        assert counts["misses"] == stats.misses
        assert counts["evictions"] == stats.evictions
        assert counts["bypasses"] == stats.bypasses
        # GIPPR never bypasses: every miss allocates a block.
        assert counts["insertions"] == stats.misses

    def test_replay_rejects_unknown_kind(self):
        from repro.obs import TraceEvent

        with pytest.raises(ValueError):
            replay_counts([TraceEvent("warp", 1)])


class TestEmission:
    def test_hits_carry_positions_and_promotions(self):
        sink = ListSink()
        _run("gippr", tracer=Tracer(sink=sink))
        hits = [e for e in sink if e.kind == "hit"]
        promotions = [e for e in sink if e.kind == "promotion"]
        assert hits, "stream produced no hits"
        assert all(e.pos_before is not None and e.pos_after is not None
                   for e in hits)
        # GIPPR promotes via its PV; some hit must have moved a block.
        assert promotions
        assert all(e.pos_before != e.pos_after for e in promotions)
        # Promotions ride along their hit: same access index must exist.
        hit_accesses = {e.access for e in hits}
        assert all(e.access in hit_accesses for e in promotions)

    def test_insertions_follow_the_ipv(self):
        sink = ListSink()
        cache = _run("gippr", tracer=Tracer(sink=sink))
        insert_pos = cache.policy.ipv.entries[ASSOC]
        insertions = [e for e in sink if e.kind == "insertion"]
        assert insertions
        # set_position places the incoming block exactly at V[k].
        assert all(e.pos_after == insert_pos for e in insertions)

    def test_evictions_record_victim_position(self):
        sink = ListSink()
        _run("plru", tracer=Tracer(sink=sink))
        evictions = [e for e in sink if e.kind == "eviction"]
        assert evictions
        # The PLRU victim is by definition the LRU end of the stack.
        assert all(e.pos_before == ASSOC - 1 for e in evictions)


class TestRegistry:
    def test_tracer_feeds_registry(self):
        registry = MetricsRegistry()
        sink = ListSink()
        _run("gippr", tracer=Tracer(sink=sink, registry=registry))
        parsed = parse_prometheus(registry.to_prometheus())
        counts = replay_counts(sink)
        assert parsed[
            ("repro_trace_events_total", (("kind", "hit"),))
        ] == counts["hits"]
        assert parsed[
            ("repro_trace_events_total", (("kind", "miss"),))
        ] == counts["misses"]
        assert parsed[
            ("repro_insertion_position_count", ())
        ] == counts["insertions"]

    def test_registry_from_events_matches_live(self):
        # dgippr with psel_every adds the PSEL gauges and duel flips.
        for policy, psel_every in (("gippr", 0), ("dgippr", 10)):
            live = MetricsRegistry()
            sink = ListSink()
            _run(policy, tracer=Tracer(sink=sink, registry=live,
                                       psel_every=psel_every))
            rebuilt = registry_from_events(sink)
            assert rebuilt.to_prometheus() == live.to_prometheus(), policy

    def test_psel_gauges_exported(self):
        registry = MetricsRegistry()
        _run("dgippr", tracer=Tracer(sink=ListSink(), registry=registry,
                                     psel_every=10))
        parsed = parse_prometheus(registry.to_prometheus())
        sampled = [key for key in parsed if key[0] == "repro_psel_value"]
        assert sampled, "no PSEL gauges despite psel_every"


class TestValidation:
    def test_negative_psel_every_rejected(self):
        with pytest.raises(ValueError):
            Tracer(psel_every=-1)


def _traced_run_jsonl(policy_name, path):
    """One traced ``run_trace`` (PSEL sampled every 100 accesses) over a
    duel-flip stream, written as JSONL to ``path``."""
    from repro.eval.config import ExperimentConfig
    from repro.eval.runner import run_trace
    from repro.obs import JSONLSink
    from repro.trace.record import Trace
    from repro.verify.streams import generate_stream

    config = ExperimentConfig(
        num_sets=NUM_SETS, assoc=ASSOC, warmup_fraction=0.25,
        apply_env_scale=False,
    )
    trace = Trace(
        generate_stream("duel-flip", 1, 4000, NUM_SETS, ASSOC), name="pin"
    )
    with JSONLSink(path) as sink:
        run_trace(
            make_policy(policy_name, NUM_SETS, ASSOC), trace, config,
            tracer=Tracer(sink=sink, psel_every=100),
        )
    return path.read_bytes()


class TestTracedRunOutput:
    """The event stream of a traced run, byte for byte.

    A renamed PSEL label, or a ``policy`` field on the events of a
    single-vector policy, changes the digest; the labels and the absent
    field are also checked on their own so a failure says which.
    """

    DIGESTS = {
        "plru": "0b4ec751a5c303c3",
        "gippr": "3afc64565db98ea1",
        "dgippr": "a2726f4c430cf649",
        "drrip": "257290d5b056641a",
        "dip": "f0364de48247ee3a",
    }
    LABELS = {
        "plru": set(),
        "gippr": set(),
        "dgippr": {"pair01", "pair23", "meta"},
        "drrip": {"psel"},
        "dip": {"psel"},
    }

    @pytest.mark.parametrize("policy_name", sorted(DIGESTS))
    def test_event_stream_is_unchanged(self, policy_name, tmp_path):
        import hashlib
        import json

        data = _traced_run_jsonl(policy_name, tmp_path / "events.jsonl")
        events = [json.loads(line) for line in data.splitlines()]
        labels = {e["label"] for e in events if e["kind"] == "psel_sample"}
        assert labels == self.LABELS[policy_name]
        with_policy = [e for e in events if "policy" in e]
        assert bool(with_policy) == bool(labels)
        digest = hashlib.sha256(data).hexdigest()[:16]
        assert digest == self.DIGESTS[policy_name]
