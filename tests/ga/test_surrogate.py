"""Tests for the analytic fitness surrogate, prefilter and memo.

Covers the correctness contracts the GA relies on: the model is exact on
the LRU vector (its calibration anchor), Mattson miss curves are
monotone, scores are deterministic and match pinned values, the
prefilter deactivates itself when its audit rho collapses, kept
survivors carry bit-identical simulated fitness, and the
cross-generation memo never re-simulates a known tuple (including the
hill-climber's revisit pattern).
"""

import logging
import random

import pytest

from repro.core.ipv import IPV, lru_ipv
from repro.eval.config import default_config
from repro.ga import FitnessEvaluator, hill_climb
from repro.ga.parallel import PopulationEvaluator
from repro.ga.surrogate import (
    FitnessMemo,
    SurrogateModel,
    SurrogatePrefilter,
    WorkloadFeatures,
    clear_feature_memo,
    features_for_trace,
    spearman_rho,
    trace_digest,
)


@pytest.fixture(scope="module")
def evaluator():
    config = default_config(trace_length=3000)
    return FitnessEvaluator(
        ["470.lbm", "482.sphinx3"], config=config, substrate="lru"
    )


@pytest.fixture(scope="module")
def model(evaluator):
    return SurrogateModel.from_evaluator(evaluator, cache_dir=None)


#: ``score_population`` of ``random_batch(k, 32, seed=11)`` on the
#: module's model.  An independent scalar implementation of the same
#: closed form agreed with these to 2.2e-16 relative.
PINNED_SCORES = [
    0.987857392375, 1.019142097905, 1.011945484358, 1.001554952327,
    1.013380645076, 1.031108837520, 1.014522571483, 1.027927602208,
    1.016586645648, 1.017837601196, 1.003876798632, 1.024527083744,
    1.011275893373, 1.023538308513, 1.034151720101, 1.014155853472,
    1.012001779500, 1.031551403991, 1.023507675631, 1.012498565861,
    0.996977528449, 1.023830349748, 1.024287088700, 1.016399550072,
    1.034008510187, 1.036344698425, 1.036623901766, 1.002673663648,
    1.026389331309, 1.003345513997, 0.992968782796, 1.001169327469,
]


def random_batch(k, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(k) for _ in range(k + 1)) for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Features.
# ----------------------------------------------------------------------
class TestWorkloadFeatures:
    def test_miss_curve_monotone_in_depth(self, model):
        for _name, _w, _instr, _frac, feat in model.workloads:
            prev = feat.misses_at(1)
            for depth in range(2, feat.depth + 1):
                cur = feat.misses_at(depth)
                assert cur <= prev + 1e-9, (
                    f"misses_at({depth}) rose above misses_at({depth - 1})"
                )
                prev = cur
            # The curve bottoms out at the cold (compulsory) misses.
            assert feat.misses_at(feat.depth) >= feat.cold - 1e-9

    def test_fractional_depth_interpolates(self, model):
        feat = model.workloads[0][4]
        lo, hi = feat.misses_at(4), feat.misses_at(5)
        mid = feat.misses_at(4.5)
        assert min(lo, hi) - 1e-9 <= mid <= max(lo, hi) + 1e-9

    def test_payload_round_trip(self, model):
        feat = model.workloads[0][4]
        clone = WorkloadFeatures.from_payload(feat.to_payload())
        assert clone.to_payload() == feat.to_payload()
        for depth in (1, 3, feat.depth):
            assert clone.misses_at(depth) == feat.misses_at(depth)

    def test_trace_digest_is_order_sensitive(self):
        assert trace_digest([1, 2, 3]) != trace_digest([3, 2, 1])
        assert trace_digest([1, 2, 3]) == trace_digest([1, 2, 3])

    def test_disk_cache_round_trip(self, tmp_path):
        rng = random.Random(7)
        addresses = [rng.randrange(4096) for _ in range(2000)]
        clear_feature_memo()
        fresh = features_for_trace(addresses, 16, 32, cache_dir=tmp_path)
        clear_feature_memo()
        cached = features_for_trace(addresses, 16, 32, cache_dir=tmp_path)
        assert cached.to_payload() == fresh.to_payload()
        clear_feature_memo()


# ----------------------------------------------------------------------
# Model.
# ----------------------------------------------------------------------
class TestSurrogateModel:
    def test_lru_vector_is_exact_anchor(self, model):
        """On LRU the chain must reproduce the Mattson depth-k miss count.

        The conditional push probability q(p) has numerator == denominator
        at every position for the LRU vector, so the survival threshold is
        exactly the associativity — structurally, not approximately.
        """
        depths = model.effective_depths([lru_ipv(model.assoc)])
        assert depths == [float(model.assoc)]

    def test_scores_deterministic(self, model, evaluator):
        batch = random_batch(model.assoc, 64, seed=3)
        first = model.score_population(batch)
        assert model.score_population(batch) == first
        rebuilt = SurrogateModel.from_evaluator(evaluator, cache_dir=None)
        assert rebuilt.score_population(batch) == first

    def test_scores_match_pinned_values(self, model):
        """The closed form, pinned: a change to the chain or its features
        that moves any score shows up here, not only as a rank shift."""
        batch = random_batch(model.assoc, 32, seed=11)
        assert model.score_population(batch) == pytest.approx(
            PINNED_SCORES, rel=1e-9
        )

    def test_rank_fidelity_on_lru_substrate(self, model, evaluator):
        """Audit-style check: surrogate ranks track simulated fitness."""
        batch = random_batch(model.assoc, 48, seed=5)
        surrogate = model.score_population(batch)
        simulated = evaluator.evaluate_many(batch)
        rho = spearman_rho(surrogate, simulated)
        assert rho is not None and rho >= 0.5

    def test_empty_population(self, model):
        assert model.score_population([]) == []


class TestSpearman:
    def test_perfect_and_inverse(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == -1.0

    def test_degenerate_returns_none(self):
        assert spearman_rho([1, 2], [2, 1]) is None  # too few points
        assert spearman_rho([1, 1, 1], [1, 2, 3]) is None  # constant side

    def test_ties_averaged(self):
        rho = spearman_rho([1, 1, 2, 3], [1, 2, 3, 4])
        assert rho is not None and 0.9 < rho < 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman_rho([1, 2, 3], [1, 2])


# ----------------------------------------------------------------------
# Memo.
# ----------------------------------------------------------------------
class _CountingPopEval:
    """Stands in for PopulationEvaluator with a deterministic fitness."""

    def __init__(self):
        self.calls = 0

    def evaluate_all(self, batch):
        self.calls += len(batch)
        return [float(sum(entries)) for entries in batch]


class TestFitnessMemo:
    def test_dedup_and_accounting(self):
        memo = FitnessMemo()
        pop_eval = _CountingPopEval()
        batch = [(0, 1, 2, 3, 0), (1, 1, 1, 1, 1), (0, 1, 2, 3, 0)]
        first = memo.evaluate_all(pop_eval, batch)
        assert pop_eval.calls == 2  # in-batch duplicate deduplicated
        assert first[0] == first[2] == 6.0
        assert memo.misses == 2 and memo.hits == 1
        second = memo.evaluate_all(pop_eval, batch)
        assert pop_eval.calls == 2  # fully served from the memo
        assert second == first
        stats = memo.stats()
        assert stats["hits"] == 4 and stats["misses"] == 2
        assert stats["size"] == 2

    def test_bounded_eviction(self):
        memo = FitnessMemo(limit=2)
        pop_eval = _CountingPopEval()
        memo.evaluate_all(pop_eval, [(0, 0, 0, 0, 0)])
        memo.evaluate_all(pop_eval, [(1, 1, 1, 1, 1)])
        memo.evaluate_all(pop_eval, [(2, 2, 2, 2, 2)])
        assert len(memo) == 2
        assert memo.get((0, 0, 0, 0, 0)) is None  # oldest evicted


# ----------------------------------------------------------------------
# Prefilter.
# ----------------------------------------------------------------------
class _StubModel:
    """Scores candidates with a fixed callable (no trace features)."""

    def __init__(self, fn):
        self._fn = fn

    def score_population(self, ipvs):
        return [self._fn(tuple(entries)) for entries in ipvs]


class TestSurrogatePrefilter:
    def test_deactivates_below_rho_floor(self, caplog):
        # Surrogate scores are the *negation* of true fitness: the audit
        # measures rho ~ -1 and the prefilter must take itself offline.
        model = _StubModel(lambda entries: -float(sum(entries)))
        prefilter = SurrogatePrefilter(
            model, keep=0.25, audit=16, rho_floor=0.5, seed=0
        )
        pop_eval = _CountingPopEval()
        memo = FitnessMemo()
        batch = random_batch(4, 64, seed=1)
        with caplog.at_level(logging.WARNING, logger="repro.ga.surrogate"):
            prefilter.evaluate_batch(pop_eval, memo, batch)
        assert prefilter.active is False
        assert prefilter.rho is not None and prefilter.rho < 0
        assert any("prefilter disabled" in r.message for r in caplog.records)
        # The next batch must be simulated in full (fresh memo so the
        # count is exact: one call per distinct tuple).
        calls_before = pop_eval.calls
        kept = prefilter.evaluate_batch(pop_eval, FitnessMemo(), batch)
        assert len(kept) == len(batch)
        assert pop_eval.calls == calls_before + len(set(batch))

    def test_faithful_model_stays_active_and_culls(self):
        model = _StubModel(lambda entries: float(sum(entries)))
        prefilter = SurrogatePrefilter(
            model, keep=0.125, audit=8, rho_floor=0.5, seed=0
        )
        pop_eval = _CountingPopEval()
        kept = prefilter.evaluate_batch(pop_eval, FitnessMemo(),
                                        random_batch(4, 64, seed=2))
        assert prefilter.active is True
        assert prefilter.rho == 1.0
        assert prefilter.skipped > 0
        assert len(kept) < 64

    def test_small_batches_bypass_filtering(self):
        model = _StubModel(lambda entries: 0.0)
        prefilter = SurrogatePrefilter(
            model, keep=0.1, audit=8, rho_floor=0.5, seed=0
        )
        batch = random_batch(4, 8, seed=3)  # len == floor: no filtering
        kept = prefilter.evaluate_batch(_CountingPopEval(), FitnessMemo(),
                                        batch)
        assert len(kept) == len(batch)
        assert prefilter.scored == 0 and prefilter.audits == 0

    def test_kept_fitness_bit_identical(self, model, evaluator):
        prefilter = SurrogatePrefilter(
            model, keep=0.1, audit=8, rho_floor=-1.0, seed=0
        )
        batch = random_batch(model.assoc, 48, seed=9)
        with PopulationEvaluator(evaluator) as pop_eval:
            kept = prefilter.evaluate_batch(pop_eval, FitnessMemo(), batch)
        assert 0 < len(kept) < len(batch)
        for fitness, entries in kept:
            assert fitness == evaluator.evaluate(entries)

    def test_prefiltered_columnar_path_matches_scalar_walk(self):
        """Columnar-vs-walk differential, extended to the prefiltered path.

        On the default tree-PLRU substrate the prefilter's batch
        simulation auto-batches through the columnar engine; every kept
        fitness must equal the scalar walk evaluator's float exactly.
        """
        config = default_config(trace_length=2000)
        batched = FitnessEvaluator(["429.mcf"], config=config, kernel="auto")
        walk = FitnessEvaluator(["429.mcf"], config=config, kernel="walk")
        model = SurrogateModel.from_evaluator(batched, cache_dir=None)
        prefilter = SurrogatePrefilter(
            model, keep=0.2, audit=8, rho_floor=-1.0, seed=0
        )
        batch = random_batch(model.assoc, 40, seed=17)
        with PopulationEvaluator(batched) as pop_eval:
            kept = prefilter.evaluate_batch(pop_eval, FitnessMemo(), batch)
        assert 0 < len(kept) < len(batch)
        for fitness, entries in kept:
            assert fitness == walk.evaluate(entries)

    def test_stats_surface(self):
        model = _StubModel(lambda entries: float(sum(entries)))
        prefilter = SurrogatePrefilter(
            model, keep=0.25, audit=4, rho_floor=0.5, seed=0
        )
        prefilter.evaluate_batch(_CountingPopEval(), FitnessMemo(),
                                 random_batch(4, 32, seed=4))
        stats = prefilter.stats()
        for key in ("active", "keep", "rho_floor", "scored", "simulated",
                    "skipped", "audits", "rho", "rho_min"):
            assert key in stats
        assert stats["scored"] == 32
        assert stats["simulated"] + stats["skipped"] == 32


# ----------------------------------------------------------------------
# Hill-climb memo routing (regression: revisits must not re-simulate).
# ----------------------------------------------------------------------
class _StubEvaluator:
    """Minimal FitnessEvaluator twin with a deterministic closed form."""

    def __init__(self, k=4):
        self.k = k
        self.calls = 0

    def _fitness(self, entries):
        # Smooth, single-optimum landscape so the climb terminates fast.
        return -float(sum((e - 1) ** 2 for e in entries))

    def evaluate_many(self, ipvs):
        batch = [tuple(ind) for ind in ipvs]
        self.calls += len(batch)
        return [self._fitness(entries) for entries in batch]

    def evaluate(self, ipv):
        return self.evaluate_many([ipv])[0]


class TestHillClimbMemo:
    def test_revisited_variants_not_resimulated(self):
        stub = _StubEvaluator(k=4)
        result = hill_climb(
            stub, IPV([3, 3, 3, 3, 3]), max_passes=3, workers=0
        )
        assert tuple(result.best.entries) == (1, 1, 1, 1, 1)
        # Every simulator call corresponds to a distinct tuple: the memo
        # absorbed all cross-pass revisits.
        assert stub.calls == result.memo["misses"]
        assert result.memo["hits"] > 0
        # The converged final pass revisits (k+1)*(k-1) variants and must
        # be free; the naive bill is one simulation per scan visit.
        assert stub.calls < result.evaluations

    def test_shared_memo_carries_across_runs(self):
        stub = _StubEvaluator(k=4)
        memo = FitnessMemo()
        hill_climb(stub, IPV([3, 3, 3, 3, 3]), max_passes=2, workers=0,
                   memo=memo)
        calls_after_first = stub.calls
        result = hill_climb(stub, IPV([3, 3, 3, 3, 3]), max_passes=2,
                            workers=0, memo=memo)
        # Identical second climb: the shared memo serves every variant.
        assert stub.calls == calls_after_first
        assert tuple(result.best.entries) == (1, 1, 1, 1, 1)
