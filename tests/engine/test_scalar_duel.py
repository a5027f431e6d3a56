"""The scalar loop's vector switch and the three-pass set-dueling run.

:meth:`ScalarStreamSimulator.set_entries` and :func:`simulate_duel` are
checked against the independent positions-decoded oracle of
:mod:`repro.verify`; :func:`duel_selections` is pinned on a hand-worked
miss sequence.
"""

import random

import pytest

from repro.core.dueling import DuelSelector, TournamentSelector
from repro.core.ipv import IPV, lip_ipv, lru_ipv
from repro.core.vectors import DGIPPR4_WI_VECTORS
from repro.engine.scalar import (
    ScalarStreamSimulator,
    duel_selections,
    simulate_duel,
    simulate_misses_lru_ipv,
)
from repro.verify import PLRUPositionsOracle


def make_stream(n, footprint, seed=11):
    rng = random.Random(seed)
    return [rng.randrange(footprint) for _ in range(n)]


@pytest.mark.parametrize("kernel", ["walk", "auto"])
def test_set_entries_switches_vector_and_keeps_state(kernel):
    """Switching between feeds equals a cache whose vector changes at the
    same accesses (an all-follower duel with PSEL forced per phase)."""
    vectors = [lru_ipv(4), lip_ipv(4)]
    oracle = PLRUPositionsOracle(16, 4, vectors, leaders_per_policy=0)
    simulator = ScalarStreamSimulator(16, 4, vectors[0].entries, kernel=kernel)
    stream = make_stream(4000, 16 * 4 * 3)
    for pick, lo, hi in ((0, 0, 900), (1, 900, 2500), (0, 2500, 4000)):
        oracle.selector.psel.value = -1 if pick == 0 else 0
        simulator.set_entries(vectors[pick].entries)
        assert simulator.feed(stream[lo:hi]) == oracle.run(stream[lo:hi])
    assert simulator.entries == tuple(vectors[0].entries)


def test_set_entries_rejects_malformed_vector():
    simulator = ScalarStreamSimulator(4, 4, lru_ipv(4).entries)
    with pytest.raises(ValueError):
        simulator.set_entries([0, 1, 2, 4, 0])


def test_duel_selections_starts_after_the_miss():
    """A leader miss at access i moves PSEL before access i + 1, so the
    new pick starts there; a miss that leaves the pick alone adds no
    step."""
    selector = DuelSelector(8, leaders_per_policy=1, counter_bits=2)
    lead0 = selector.leaders.index(0)
    lead1 = selector.leaders.index(1)
    # 2-bit PSEL starts at 0 (pick 1); two policy-1 misses reach -2
    # (pick 0 from the first), two policy-0 misses climb back to 0.
    misses = [(lead1, 3), (lead1, 7), (lead0, 9), (lead0, 20)]
    starts, picks = duel_selections(
        selector, [s for s, _ in misses], [i for _, i in misses]
    )
    assert (starts, picks) == ([0, 4, 21], [1, 0, 1])
    assert selector.psel.value == 0


@pytest.mark.parametrize("warmup", [0, 1000, 3999])
def test_simulate_duel_matches_oracle(warmup):
    """4-DGIPPR, one leader set per vector on 16 sets: measured misses,
    miss indices and the final selector against the oracle."""
    stream = make_stream(4000, 16 * 16 * 2)
    oracle = PLRUPositionsOracle.for_dgippr(16, 16)
    oracle.run(stream[:warmup])
    want_indices = [
        warmup + i
        for i, block in enumerate(stream[warmup:])
        if not oracle.access(block)[0]
    ]
    selector = TournamentSelector(16)
    indices = []
    misses = simulate_duel(
        stream, 16, 16, [v.entries for v in DGIPPR4_WI_VECTORS], selector,
        warmup, miss_indices=indices,
    )
    assert misses == len(want_indices)
    assert indices == want_indices
    assert [c.value for c in (selector.pair01, selector.pair23,
                              selector.meta)] == [
        c.value for c in (oracle.selector.pair01, oracle.selector.pair23,
                          oracle.selector.meta)
    ]


def test_lru_loop_is_reexported_for_the_ga():
    from repro.ga import fitness

    assert fitness.simulate_misses_lru_ipv is simulate_misses_lru_ipv
