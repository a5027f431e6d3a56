"""Disabled-tracing overhead budget and its derived reference path.

The reference is the live ``SetAssociativeCache.access`` with its leading
tracer dispatch removed (see :mod:`repro.obs.overhead`), so the ratio
prices that dispatch and nothing else.  The strict 5% budget is enforced
by ``make smoke-obs``; the unit test uses a generous ceiling so CI noise
cannot flake it, while still catching anything structurally expensive
sneaking into the dispatch (the regression this guards against costs 2x,
not 1.1x).
"""

from repro.cache import SetAssociativeCache
from repro.obs import disabled_overhead_ratio
from repro.obs.overhead import _reference_cache, measure_overhead

import pytest

# Generous: the hot-path regression this catches (extra work per access)
# costs tens of percent; scheduler noise on shared CI does not.
CI_BUDGET = 1.25


class TestOverhead:
    def test_reference_and_instrumented_paths_agree(self):
        inst, ref, ratio, stats_match = measure_overhead(
            accesses=20_000, repeats=2
        )
        assert stats_match, (
            "the reference derived from the live access path diverged"
        )
        assert inst > 0 and ref > 0 and ratio > 0

    def test_reference_is_live_access_without_dispatch(self):
        live = SetAssociativeCache.access.__code__
        reference = _reference_cache().access.__code__
        assert "_tracer" in live.co_names
        assert "_tracer" not in reference.co_names
        assert "_traced_access" not in reference.co_names
        assert reference.co_filename == live.co_filename
        assert reference.co_firstlineno == live.co_firstlineno

    def test_disabled_tracing_within_budget(self):
        ratio = disabled_overhead_ratio(accesses=20_000, repeats=15)
        assert ratio <= CI_BUDGET, (
            f"tracing-disabled hot path is {ratio:.2f}x the reference; "
            f"budget {CI_BUDGET}x (strict 1.05x enforced by make smoke-obs)"
        )

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            measure_overhead(accesses=10, repeats=0)
