"""The serving golden corpus: the drift battery plus its own shape.

The serving cells pin the whole pipeline — Zipf/churn/flash generator,
set-shard binning, streaming engines — as one miss count per
``seed x policy x alpha`` cell.  Every cell is recomputed through the
single-shard scalar reference and the sharded columnar front-end, which
doubles as the sharding bit-identity conformance gate.
"""

import pytest

from repro.verify.goldens import (
    SERVING,
    SERVING_GOLDEN_ALPHAS,
    SERVING_GOLDEN_POLICIES,
    SERVING_GOLDEN_SEEDS,
    SERVING_GOLDEN_SHARDS,
)

from .golden_battery import (
    CommittedCorpusChecks,
    DriftChecks,
    RegenerationChecks,
)


class TestCommittedServingCorpus(CommittedCorpusChecks):
    corpus = SERVING

    def test_matrix_shape(self):
        cells = SERVING.cells()
        assert len(cells) == (
            len(SERVING_GOLDEN_SEEDS)
            * len(SERVING_GOLDEN_POLICIES)
            * len(SERVING_GOLDEN_ALPHAS)
        )
        keys = {SERVING.key(c) for c in cells}
        assert len(keys) == len(cells)


class TestServingDriftDetection(DriftChecks):
    corpus = SERVING


class TestServingRegeneration(RegenerationChecks):
    corpus = SERVING


class TestShardingBitIdentity:
    """The acceptance contract: sharded == single-shard scalar, exactly."""

    @pytest.mark.parametrize("cell", SERVING.cells()[:4])
    def test_sharded_columnar_equals_scalar_reference(self, cell):
        assert SERVING.engines(cell) == (
            "scalar", f"columnar/shards={SERVING_GOLDEN_SHARDS}"
        )
        reference, sharded = (
            SERVING.compute(cell, engine) for engine in SERVING.engines(cell)
        )
        assert sharded == reference
