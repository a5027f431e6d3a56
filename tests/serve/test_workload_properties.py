"""Property tests for the streaming Zipf serving workload generator.

The three contracts the ISSUE pins, plus the backend mirror:

* **Chunk invariance** — the address sequence is a pure function of the
  spec: any two ``chunk_accesses`` values yield the identical
  concatenated stream.
* **Zipf monotonicity** — on a 100k-access sample the empirical key
  frequencies are monotone in Zipf rank (bucketed: rank buckets are
  geometric so the assertion is statistically solid, and the top rank
  is the single most frequent key outright).
* **Churn permanence** — a churned-out key's address never reappears
  after its retirement block.
* **Backend bit-identity** — the pure-Python mirror emits the same
  addresses as the numpy backend.
* **Exact rank lookup** — the numpy backend's guide table returns
  ``bisect_right`` ranks on the draws at every bucket edge.

Every draw goes through hypothesis so the spec space (alpha, keys,
tenants, churn, flash phases, seed) is explored rather than spot-checked.
"""

from bisect import bisect_right
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.serve.workload import (  # noqa: E402
    ADDR_MASK,
    ADDR_MULT,
    GEN_BLOCK,
    FlashPhase,
    ServingSpec,
    ServingStream,
    auto_flash_phases,
    zipf_cdf,
)

# -- strategies --------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)
alphas = st.floats(min_value=0.0, max_value=1.6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def serving_specs(draw, max_accesses=3 * GEN_BLOCK):
    """A small-but-structured spec: churn, tenants and flash phases all
    get exercised, with stream lengths that straddle block boundaries."""
    accesses = draw(st.integers(min_value=1, max_value=max_accesses))
    phases = ()
    if draw(st.booleans()):
        phases = auto_flash_phases(
            accesses,
            draw(st.integers(min_value=1, max_value=3)),
            share=draw(st.floats(min_value=0.1, max_value=0.9)),
            hot_keys=draw(st.integers(min_value=1, max_value=32)),
        )
    return ServingSpec(
        keys=draw(st.sampled_from([64, 256, 1024])),
        alpha=draw(alphas),
        tenants=draw(st.integers(min_value=1, max_value=3)),
        accesses=accesses,
        churn_per_million=draw(st.sampled_from([0, 10_000, 200_000])),
        phases=phases,
        seed=draw(st.one_of(st.none(), seeds)),
    )


def flat(spec, chunk_accesses, backend="auto"):
    stream = ServingStream(spec, backend=backend)
    out = []
    for chunk in stream.chunks(chunk_accesses):
        out.extend(int(a) for a in chunk)
    return out


# -- chunk invariance --------------------------------------------------

class TestChunkInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=serving_specs(),
        chunk_a=st.integers(min_value=1, max_value=2 * GEN_BLOCK + 7),
        chunk_b=st.integers(min_value=1, max_value=2 * GEN_BLOCK + 7),
    )
    def test_identical_seed_identical_stream_across_chunk_sizes(
        self, spec, chunk_a, chunk_b
    ):
        a = flat(spec, chunk_a)
        b = flat(spec, chunk_b)
        assert len(a) == spec.accesses
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(spec=serving_specs(max_accesses=GEN_BLOCK), seed=seeds)
    def test_different_seeds_different_streams(self, spec, seed):
        base = spec.resolved_seed()
        other = ServingSpec(
            keys=spec.keys, alpha=spec.alpha, tenants=spec.tenants,
            accesses=spec.accesses,
            churn_per_million=spec.churn_per_million,
            phases=spec.phases, seed=base + seed + 1,
        )
        if spec.accesses >= 16 and spec.keys > 1:
            assert flat(spec, GEN_BLOCK) != flat(other, GEN_BLOCK)

    @settings(max_examples=20, deadline=None)
    @given(spec=serving_specs(max_accesses=2 * GEN_BLOCK))
    def test_restart_is_stateless(self, spec):
        stream = ServingStream(spec)
        first = [int(a) for c in stream.chunks(1000) for a in c]
        second = [int(a) for c in stream.chunks(1000) for a in c]
        assert first == second


# -- backend bit-identity ----------------------------------------------

class TestBackendIdentity:
    @settings(max_examples=15, deadline=None)
    @given(spec=serving_specs(max_accesses=GEN_BLOCK + 100))
    def test_python_mirror_matches_auto_backend(self, spec):
        assert flat(spec, 997, backend="python") == flat(spec, 997)

    def test_python_mirror_matches_at_serve_zipf_shape(self):
        # Hypothesis draws keys <= 1024; this is the repository
        # benchmark's key space, churn and flash phases.
        n = 2 * GEN_BLOCK + 100
        spec = ServingSpec(
            keys=1 << 15, alpha=1.2, tenants=2, accesses=n,
            churn_per_million=20_000,
            phases=auto_flash_phases(n, 2, share=0.5, hot_keys=64),
            seed=1,
        )
        assert flat(spec, 997, backend="python") == flat(spec, 997)


# -- exact guide-table rank lookup -------------------------------------

class TestRankLookup:
    @pytest.mark.parametrize("keys, alpha", [
        (1, 1.2),
        # Uniform CDF entries land exactly on bucket edges.
        (64, 0.0), (1024, 0.0), (1 << 15, 0.0),
        (512, 1.1), (1024, 1.6), (1 << 15, 1.2), (1 << 15, 0.8),
        (1 << 17, 1.2),  # past the table-width cap
        (3000, 0.5),
    ])
    def test_ranks_match_bisect_at_bucket_edges(self, keys, alpha):
        np = pytest.importorskip("numpy")
        stream = ServingStream(
            ServingSpec(keys=keys, alpha=alpha, accesses=0, seed=0),
            backend="numpy",
        )
        assert stream._guide.nbytes <= 256 << 10
        bits = stream._guide.size.bit_length() - 1
        lowest = np.arange(1 << bits, dtype=np.uint64) << np.uint64(
            64 - bits
        )
        highest = lowest + np.uint64((1 << (64 - bits)) - 1)
        low11 = np.uint64((1 << 11) - 1)
        v = np.concatenate([
            lowest, lowest + low11 + np.uint64(1),
            highest, highest & ~low11,
        ])
        cdf = zipf_cdf(keys, alpha)
        expected = [
            bisect_right(cdf, (x >> 11) * 2.0 ** -53) for x in v.tolist()
        ]
        assert stream._ranks(v).tolist() == expected


# -- Zipf rank monotonicity --------------------------------------------

def rank_counts(spec, sample):
    """Empirical per-rank access counts on ``sample`` accesses.

    Single tenant, no churn: slot uids never move, so rank ``r`` is
    exactly the address ``(r * ADDR_MULT) & ADDR_MASK``.
    """
    addr_to_rank = {
        (r * ADDR_MULT) & ADDR_MASK: r for r in range(spec.keys)
    }
    counts = Counter()
    for chunk in ServingStream(spec).chunks(1 << 14):
        for a in chunk:
            counts[addr_to_rank[int(a)]] += 1
    assert sum(counts.values()) == sample
    return counts


class TestZipfMonotonicity:
    SAMPLE = 100_000

    @settings(max_examples=8, deadline=None)
    @given(
        alpha=st.floats(min_value=0.9, max_value=1.5),
        seed=seeds,
    )
    def test_bucketed_rank_frequencies_are_monotone(self, alpha, seed):
        spec = ServingSpec(
            keys=512, alpha=alpha, accesses=self.SAMPLE, seed=seed
        )
        counts = rank_counts(spec, self.SAMPLE)
        # Geometric rank buckets: mean per-key frequency must fall from
        # each bucket to the next (expected ratio >= 2 at alpha >= 0.9,
        # far outside sampling noise on a 100k sample).
        buckets = [(0, 4), (4, 16), (16, 64), (64, 256), (256, 512)]
        means = [
            sum(counts[r] for r in range(lo, hi)) / (hi - lo)
            for lo, hi in buckets
        ]
        for upper, lower in zip(means, means[1:]):
            assert upper > lower, (means, alpha)

    @settings(max_examples=8, deadline=None)
    @given(
        alpha=st.floats(min_value=0.9, max_value=1.5),
        seed=seeds,
    )
    def test_top_rank_is_the_most_frequent_key(self, alpha, seed):
        spec = ServingSpec(
            keys=512, alpha=alpha, accesses=self.SAMPLE, seed=seed
        )
        counts = rank_counts(spec, self.SAMPLE)
        assert counts[0] == max(counts.values())

    def test_alpha_zero_is_uniform(self):
        spec = ServingSpec(keys=64, alpha=0.0, accesses=self.SAMPLE,
                           seed=7)
        counts = rank_counts(spec, self.SAMPLE)
        expected = self.SAMPLE / spec.keys
        assert all(
            abs(counts[r] - expected) < 6 * expected**0.5
            for r in range(spec.keys)
        )


# -- churn permanence --------------------------------------------------

class TestChurnPermanence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=seeds,
        tenants=st.integers(min_value=1, max_value=3),
        churn=st.sampled_from([50_000, 200_000, 500_000]),
        backend=st.sampled_from(["auto", "python"]),
    )
    def test_churned_out_keys_never_reappear(
        self, seed, tenants, churn, backend
    ):
        spec = ServingSpec(
            keys=128, alpha=1.1, tenants=tenants,
            accesses=5 * GEN_BLOCK, churn_per_million=churn, seed=seed,
        )
        stream = ServingStream(spec, backend=backend,
                               track_retired=True)
        for chunk in stream.chunks(GEN_BLOCK):
            # After a chunk is generated, ``retired_addresses`` holds
            # every retirement up to and including its blocks; none may
            # occur in the chunk (retirement precedes generation).
            live = {int(a) for a in chunk}
            assert not (live & stream.retired_addresses)
        assert stream.retired > 0, "spec must actually churn"

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_retired_count_is_chunk_invariant(self, seed):
        spec = ServingSpec(
            keys=64, accesses=3 * GEN_BLOCK,
            churn_per_million=300_000, seed=seed,
        )
        a = ServingStream(spec, track_retired=True)
        for _ in a.chunks(777):
            pass
        b = ServingStream(spec, track_retired=True)
        for _ in b.chunks(GEN_BLOCK):
            pass
        assert a.retired == b.retired
        assert a.retired_addresses == b.retired_addresses


# -- spec/address invariants -------------------------------------------

class TestSpecInvariants:
    @settings(max_examples=25, deadline=None)
    @given(spec=serving_specs(max_accesses=GEN_BLOCK))
    def test_addresses_are_int64_compatible(self, spec):
        for a in flat(spec, 2048):
            assert 0 <= a <= ADDR_MASK

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.integers(min_value=1, max_value=2048),
        alpha=alphas,
    )
    def test_zipf_cdf_shape(self, keys, alpha):
        cdf = zipf_cdf(keys, alpha)
        assert len(cdf) == keys
        assert cdf[-1] == 1.0
        assert all(x <= y for x, y in zip(cdf, cdf[1:]))

    def test_flash_phase_validation(self):
        with pytest.raises(ValueError):
            FlashPhase(-1, 10)
        with pytest.raises(ValueError):
            FlashPhase(0, 10, share=1.5)
        with pytest.raises(ValueError):
            FlashPhase(0, 10, hot_keys=0)

    def test_spec_validation(self):
        for bad in (
            dict(keys=0),
            dict(tenants=0),
            dict(accesses=-1),
            dict(alpha=-0.1),
            dict(churn_per_million=-1),
        ):
            with pytest.raises(ValueError):
                ServingSpec(**bad)

    def test_flash_phase_concentrates_traffic(self):
        n = 4 * GEN_BLOCK
        quiet = ServingSpec(keys=4096, alpha=0.4, accesses=n, seed=3)
        flash = ServingSpec(
            keys=4096, alpha=0.4, accesses=n, seed=3,
            phases=(FlashPhase(0, n, share=0.9, hot_keys=8),),
        )
        hot = {(r * ADDR_MULT) & ADDR_MASK for r in range(8)}
        quiet_hot = sum(a in hot for a in flat(quiet, n))
        flash_hot = sum(a in hot for a in flat(flash, n))
        assert flash_hot > 10 * max(quiet_hot, 1)
