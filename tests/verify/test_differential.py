"""Differential runner, shrinking, artifacts, and the injected-bug drill.

The acceptance drill: an intentionally injected promotion-order bug in a
GIPPR variant must be caught by the oracle differential and shrunk to a
counterexample of at most 32 accesses that replays from its artifact.
"""

import pytest

from repro.core.plru import position, set_position
from repro.policies.plru import GIPPRPolicy
from repro.verify.conformance import (
    _deserialize_kwargs,
    build_oracle,
    build_policy,
    oracle_for,
    policy_kwargs,
    verify_policy,
)
from repro.verify.differential import (
    check_belady_dominance,
    check_columnar_equality,
    check_engine_equality,
    check_lut_walk_equality,
    check_segmented_equality,
    diff_stream,
)
from repro.verify.shrink import (
    canonicalize_addresses,
    load_artifact,
    replay_artifact,
    shrink_stream,
    write_artifact,
)
from repro.verify.streams import generate_stream

GEOMETRY = (8, 4)


class BuggyGIPPR(GIPPRPolicy):
    """Promotion-order bug: promotes one position too far toward LRU."""

    def on_hit(self, set_index, way, ctx):
        state = self._state[set_index]
        pos = position(state, way, self.assoc)
        target = min(self.assoc - 1, self.ipv.promotion(pos) + 1)
        self._state[set_index] = set_position(
            state, way, target, self.assoc
        )


def buggy_factories():
    num_sets, assoc = GEOMETRY
    kwargs = policy_kwargs("gippr", num_sets, assoc)

    def policy_factory():
        ipv = _deserialize_kwargs(kwargs)["ipv"]
        return BuggyGIPPR(num_sets, assoc, ipv=ipv, kernel="walk")

    def oracle_factory():
        return build_oracle("plru-positions", "gippr",
                            num_sets, assoc, kwargs)

    return policy_factory, oracle_factory


class TestDiffStream:
    @pytest.mark.parametrize(
        "name", ["lru", "ipv-lru", "giplr", "plru", "gippr", "dgippr"]
    )
    def test_production_policies_match_their_oracles(self, name):
        num_sets, assoc = GEOMETRY
        kwargs = policy_kwargs(name, num_sets, assoc)
        oracle_name = oracle_for(name)
        accesses = generate_stream("zipf-hot", 0, 1500, num_sets, assoc)
        divergence = diff_stream(
            lambda: build_policy(name, num_sets, assoc, kwargs),
            lambda: build_oracle(oracle_name, name, num_sets, assoc, kwargs),
            accesses,
        )
        assert divergence is None

    def test_invariants_only_policies_run_clean(self):
        num_sets, assoc = GEOMETRY
        accesses = generate_stream("duel-flip", 0, 800, num_sets, assoc)
        divergence = diff_stream(
            lambda: build_policy("drrip", num_sets, assoc), None, accesses
        )
        assert divergence is None


class TestInjectedBug:
    def test_bug_is_caught_and_shrinks_to_at_most_32_accesses(self, tmp_path):
        policy_factory, oracle_factory = buggy_factories()
        accesses = generate_stream("zipf-hot", 0, 2000, *GEOMETRY)
        divergence = diff_stream(policy_factory, oracle_factory, accesses)
        assert divergence is not None, "injected bug must be caught"

        def still_fails(candidate):
            return (
                diff_stream(policy_factory, oracle_factory, candidate)
                is not None
            )

        shrunk = shrink_stream(accesses, still_fails)
        assert len(shrunk) <= 32
        assert still_fails(shrunk)
        # 1-minimality: removing any single access heals the failure.
        for i in range(len(shrunk)):
            candidate = shrunk[:i] + shrunk[i + 1:]
            assert not candidate or not still_fails(candidate)

    def test_correct_policy_is_not_flagged(self):
        num_sets, assoc = GEOMETRY
        kwargs = policy_kwargs("gippr", num_sets, assoc)
        accesses = generate_stream("zipf-hot", 0, 2000, num_sets, assoc)
        assert diff_stream(
            lambda: build_policy("gippr", num_sets, assoc, kwargs),
            lambda: build_oracle(
                "plru-positions", "gippr", num_sets, assoc, kwargs
            ),
            accesses,
        ) is None


class TestShrinker:
    def test_rejects_passing_input(self):
        with pytest.raises(ValueError):
            shrink_stream([1, 2, 3], lambda accesses: False)

    def test_minimises_to_known_kernel(self):
        # Failure := the stream contains both 7 and 11 somewhere.
        def still_fails(accesses):
            return 7 in accesses and 11 in accesses

        shrunk = shrink_stream(list(range(100)) + [7, 11], still_fails)
        assert sorted(set(shrunk))[-2:] == sorted(shrunk)
        assert len(shrunk) == 2

    def test_canonicalize_preserves_aliasing(self):
        out = canonicalize_addresses([100, 50, 100, 7])
        assert out == [0, 1, 0, 2]


class TestArtifacts:
    def test_roundtrip_and_replay(self, tmp_path):
        policy_factory, oracle_factory = buggy_factories()
        num_sets, assoc = GEOMETRY
        kwargs = policy_kwargs("gippr", num_sets, assoc)
        accesses = generate_stream("zipf-hot", 0, 2000, num_sets, assoc)

        def still_fails(candidate):
            return (
                diff_stream(policy_factory, oracle_factory, candidate)
                is not None
            )

        shrunk = shrink_stream(accesses, still_fails)
        divergence = diff_stream(policy_factory, oracle_factory, shrunk)
        path = tmp_path / "repro.json"
        write_artifact(
            path,
            policy="gippr",
            num_sets=num_sets,
            assoc=assoc,
            accesses=shrunk,
            divergence=divergence.as_dict(),
            policy_kwargs=kwargs,
            oracle="plru-positions",
        )
        artifact = load_artifact(path)
        assert artifact["accesses"] == shrunk
        # The *fixed* production policy replays the artifact cleanly: the
        # bug the artifact captured does not exist in the real code.
        assert replay_artifact(path) is None

    def test_replay_reproduces_on_unfixed_stream(self, tmp_path):
        # An artifact recording a genuine production divergence would
        # reproduce; simulate it by writing an artifact whose expected
        # divergence no longer exists and asserting the None contract.
        num_sets, assoc = GEOMETRY
        path = tmp_path / "fixed.json"
        write_artifact(
            path,
            policy="lru",
            num_sets=num_sets,
            assoc=assoc,
            accesses=[0, 1, 2],
            divergence={"index": 0, "block": 0, "kind": "hit-miss",
                        "detail": "stale"},
            oracle="lru-stack",
        )
        assert replay_artifact(path) is None

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_artifact(path)

    @pytest.mark.parametrize("field, value", [
        ("policy", None), ("num_sets", "8"), ("assoc", True),
        ("accesses", [0, "1"]),
    ])
    def test_replay_names_a_missing_or_mistyped_field(self, field, value):
        artifact = {"policy": "lru", "num_sets": 8, "assoc": 4,
                    "accesses": [0, 1, 2]}
        with pytest.raises(ValueError, match=repr(field)):
            replay_artifact({k: v for k, v in artifact.items() if k != field})
        with pytest.raises(ValueError, match=repr(field)):
            replay_artifact(dict(artifact, **{field: value}))
        assert replay_artifact(artifact) is None


class TestRunLevelChecks:
    @pytest.mark.parametrize("name", ["plru", "gippr", "dgippr"])
    @pytest.mark.parametrize("geometry", [(8, 4), (4, 16)])
    def test_lut_walk_identity(self, name, geometry):
        num_sets, assoc = geometry
        kwargs = policy_kwargs(name, num_sets, assoc)
        accesses = generate_stream("random-uniform", 0, 1500, num_sets, assoc)
        mismatch = check_lut_walk_equality(
            lambda kernel="auto": build_policy(
                name, num_sets, assoc, kwargs, kernel=kernel
            ),
            accesses,
        )
        assert mismatch is None

    @pytest.mark.parametrize("name", ["lru", "plru", "gippr", "dgippr"])
    @pytest.mark.parametrize("geometry", [(8, 4), (4, 16), (16, 16)])
    def test_engine_identity(self, name, geometry):
        num_sets, assoc = geometry
        kwargs = policy_kwargs(name, num_sets, assoc)
        accesses = generate_stream("random-uniform", 0, 1500, num_sets, assoc)
        mismatch = check_engine_equality(
            lambda: build_policy(name, num_sets, assoc, kwargs), accesses
        )
        assert mismatch is None

    def test_engine_identity_catches_a_broken_duel(self, monkeypatch):
        """A duel engine whose followers never switch vectors is caught."""
        from repro.engine import scalar

        monkeypatch.setattr(
            scalar, "duel_selections",
            lambda selector, sets, indices: ([0], [selector.selected()]),
        )
        kwargs = policy_kwargs("dgippr", 16, 16)
        accesses = generate_stream("random-uniform", 0, 1500, 16, 16)
        mismatch = check_engine_equality(
            lambda: build_policy("dgippr", 16, 16, kwargs), accesses
        )
        assert mismatch is not None and "engine-vs-per-access" in mismatch

    def test_engine_mismatch_names_where_the_paths_split(self, monkeypatch):
        """Same miss count, one miss moved one access later: the report
        names that list index, both values there and both lengths."""
        from repro.eval import runner
        from repro.policies.lru import TrueLRUPolicy

        engine = runner._ENGINES[TrueLRUPolicy]
        moved = []

        def shifted(policy, addresses, warmup, miss_indices):
            misses = engine(policy, addresses, warmup, miss_indices)
            taken = set(miss_indices)
            j = next(j for j, i in enumerate(miss_indices)
                     if i + 1 not in taken and i + 1 < len(addresses))
            moved.append((j, len(miss_indices)))
            miss_indices[j] += 1
            return misses

        monkeypatch.setitem(runner._ENGINES, TrueLRUPolicy, shifted)
        accesses = generate_stream("random-uniform", 0, 1500, 8, 4)
        mismatch = check_engine_equality(
            lambda: build_policy("lru", 8, 4), accesses
        )
        (j, n), = moved
        # Miss positions are instruction counts, not access indices.
        assert mismatch.startswith(
            f"engine-vs-per-access miss_positions mismatch: "
            f"first difference at [{j}]: "
        )
        assert mismatch.endswith(f"(lengths {n} and {n})")

    def test_columnar_mismatch_names_where_the_paths_split(
        self, monkeypatch
    ):
        from repro.ga import fitness

        columnar = fitness.simulate_misses_plru_columnar
        moved = []

        def shifted(addresses, *args):
            misses = columnar(addresses, *args)
            miss_indices = args[-1]
            taken = set(miss_indices)
            j = next(j for j, i in enumerate(miss_indices)
                     if i + 1 not in taken and i + 1 < len(addresses))
            moved.append((j, miss_indices[j]))
            miss_indices[j] += 1
            return misses

        monkeypatch.setattr(fitness, "simulate_misses_plru_columnar", shifted)
        accesses = generate_stream("random-uniform", 0, 800, 8, 4)
        mismatch = check_columnar_equality(8, 4, [0] * 5, accesses)
        (j, index), = moved
        assert mismatch.startswith(
            "columnar columnar-vs-walk miss_indices mismatch"
        )
        assert f"first difference at [{j}]: {index + 1} != {index}" in (
            mismatch
        )

    @pytest.mark.parametrize("geometry", [(8, 4), (4, 16), (1, 8)])
    def test_segmented_identity(self, geometry):
        num_sets, assoc = geometry
        streams = [
            generate_stream(name, seed, n, num_sets, assoc)
            for name, seed, n in (("zipf-hot", 1, 700),
                                  ("random-uniform", 2, 300),
                                  ("single-set-hammer", 3, 450))
        ]
        lanes = [[0] * (assoc + 1), [assoc - 1] * (assoc + 1)]
        assert check_segmented_equality(
            num_sets, assoc, lanes, streams, warmup=100
        ) is None

    def test_segmented_check_catches_a_layout_bug(self, monkeypatch):
        """Streams binned into the first stream's columns are caught."""
        from repro.engine.columnar import ColumnarTrace

        transpose = ColumnarTrace._transpose
        monkeypatch.setattr(
            ColumnarTrace, "_transpose",
            lambda self, chunk, base, _starts: transpose(
                self, chunk, base, None
            ),
        )
        streams = [generate_stream("random-uniform", seed, n, 8, 4)
                   for seed, n in ((1, 300), (2, 200))]
        mismatch = check_segmented_equality(8, 4, [[0] * 5], streams)
        assert mismatch is not None and "stream" in mismatch

    @pytest.mark.parametrize("name", ["lru", "plru", "srrip", "random"])
    def test_belady_dominates(self, name):
        num_sets, assoc = GEOMETRY
        accesses = generate_stream(
            "cyclic-over-capacity", 0, 1200, num_sets, assoc
        )
        policy = build_policy(name, num_sets, assoc)
        assert check_belady_dominance(policy, accesses) is None


class TestVerifyPolicy:
    def test_engine_check_recomputes_pdp(self, monkeypatch):
        """Every pdp cell of the engine check reaches the PD recompute,
        so a stale PD after a recompute cannot pass the gate."""
        from repro.eval import runner
        from repro.policies.pdp import PDPPolicy
        from repro.verify.conformance import _ENGINE_GEOMETRIES

        recomputes = {}
        run_trace = runner.run_trace

        def spy(policy, trace, config, *args, **kwargs):
            result = run_trace(policy, trace, config, *args, **kwargs)
            if type(policy) is PDPPolicy and "stats_sink" not in kwargs:
                cell = (policy.num_sets, policy.assoc)
                recomputes[cell] = policy.recompute_count
            return result

        monkeypatch.setattr(runner, "run_trace", spy)
        # make conformance's budget (`repro verify --quick`).
        report = verify_policy("pdp", fuzz_budget=6000, check_every=16)
        assert report.ok, report.summary()
        assert set(recomputes) == set(_ENGINE_GEOMETRIES)
        assert all(count > 0 for count in recomputes.values()), recomputes

    def test_clean_policy_reports_ok(self):
        report = verify_policy("plru", fuzz_budget=1200)
        assert report.ok
        assert report.streams_run > 0
        assert report.accesses_run > 0
        d = report.as_dict()
        assert d["ok"] and d["policy"] == "plru"

    def test_summary_mentions_oracle(self):
        report = verify_policy("lru", fuzz_budget=600)
        assert "lru-stack" in report.summary()
