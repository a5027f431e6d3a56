#!/usr/bin/env python3
"""Watch DGIPPR's set-dueling adapt across program phases.

Builds a workload that alternates between a recency-friendly phase and a
thrashing phase (the 456.hmmer situation from Section 5.1) and samples
which IPV the follower sets run over time.  The duel should track the
phase: PMRU-style insertion while the working set fits, PLRU-style
insertion while the loop thrashes.

Run:  python examples/adaptivity_demo.py
"""

from repro import DGIPPRPolicy, SetAssociativeCache
from repro.core.ipv import IPV
from repro.trace import concatenate, noisy_loop, stack_distance

PHASE = 30_000


def main():
    # "Friendly" here means LRU-friendly *with pressure*: reuse distances
    # sit just under capacity, so PMRU insertion hits but PLRU insertion
    # evicts blocks before their reuse.  A no-miss phase would give the
    # duel no signal at all.
    friendly = lambda s: stack_distance(
        list(range(300, 800, 50)), [1.0] * 10, PHASE, cold_fraction=0.15, seed=s
    )
    thrash = lambda s: noisy_loop(1500, PHASE, noise=0.25, seed=s)
    trace = concatenate(
        [friendly(1), thrash(2), friendly(3), thrash(4)], name="phased"
    )

    pmru = IPV([0] * 17, name="PMRU-insert")
    plru = IPV([0] * 16 + [15], name="PLRU-insert")
    # The paper's 11-bit PSEL suits a 4096-set LLC; at 64 sets the miss
    # differential per phase is ~100x smaller, so an 8-bit counter keeps
    # the adaptation lag proportionate (same saturation-to-traffic ratio).
    policy = DGIPPRPolicy(64, 16, ipvs=[pmru, plru], counter_bits=8)
    cache = SetAssociativeCache(64, 16, policy, block_size=1)
    psel = policy.selector.counters["psel"]

    print(f"{'access':>8}  {'phase':<9} {'selected vector':<14} {'PSEL':>6} {'miss rate':>9}")
    window_misses = 0
    window = 5000
    for i, (address, pc) in enumerate(trace):
        if not cache.access(address, pc=pc):
            window_misses += 1
        if (i + 1) % window == 0:
            phase = "friendly" if ((i // PHASE) % 2 == 0) else "thrash"
            print(
                f"{i + 1:>8}  {phase:<9} {policy.active_ipv().name:<14} "
                f"{psel.value:>6} {window_misses / window:>9.3f}"
            )
            window_misses = 0

    print()
    print("The selected vector flips with the phase: set-dueling is doing")
    print("exactly what Section 3.5 designed it to do.")


if __name__ == "__main__":
    main()
