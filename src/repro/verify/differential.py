"""Lockstep differential execution: production cache vs reference oracle.

:func:`run_differential` drives a production
:class:`~repro.cache.cache.SetAssociativeCache` and a reference
:class:`~repro.verify.oracles.OracleCache` through the same access stream
and compares, after *every* access:

* the hit/miss outcome,
* the resident-block set of the accessed cache set, and
* the full recency-position permutation (when both sides expose one) —
  the paper's exact recency-stack semantics, not just aggregate counts.

The first mismatch is returned as a :class:`Divergence` carrying enough
context to re-run and shrink.  Per-access invariants from
:mod:`repro.verify.invariants` ride along on the production side so state
corruption is caught even for policies without an oracle.

Run-level checks complete the battery:

* :func:`check_lut_walk_equality` — the precompiled transition-table
  kernels must be bit-identical to the reference bit-walks (same misses,
  hits, evictions *and* final per-set state digests),
* :func:`check_columnar_equality` — the columnar engine against the
  scalar kernels,
* :func:`check_segmented_equality` — streams binned side by side in one
  columnar trace against one run per stream,
* :func:`check_engine_equality` — ``run_trace``'s whole-trace engine
  against its per-access path, and
* :func:`check_belady_dominance` — Belady's MIN never misses more than a
  practical (non-bypassing) policy on a next-use-annotated stream.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..cache.cache import SetAssociativeCache
from ..policies.base import ReplacementPolicy
from .invariants import Invariant, check_invariants, default_invariants
from .oracles import OracleCache

__all__ = [
    "Divergence",
    "run_differential",
    "diff_stream",
    "check_lut_walk_equality",
    "check_columnar_equality",
    "check_segmented_equality",
    "check_engine_equality",
    "check_belady_dominance",
]


class Divergence:
    """The first point where production and oracle (or invariants) disagree."""

    __slots__ = ("index", "block", "kind", "detail", "accesses")

    def __init__(
        self,
        index: int,
        block: int,
        kind: str,
        detail: str,
        accesses: Optional[List[int]] = None,
    ):
        self.index = index
        self.block = block
        self.kind = kind
        self.detail = detail
        #: The (possibly shrunk) stream that provokes the divergence.
        self.accesses = list(accesses) if accesses is not None else None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "block": self.block,
            "kind": self.kind,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Divergence(index={self.index}, block={self.block}, "
            f"kind={self.kind!r}, detail={self.detail!r})"
        )


def _build_cache(policy: ReplacementPolicy) -> SetAssociativeCache:
    return SetAssociativeCache(
        policy.num_sets, policy.assoc, policy, block_size=1, name="verify"
    )


def run_differential(
    policy: ReplacementPolicy,
    oracle: Optional[OracleCache],
    accesses: Sequence[int],
    invariants: Optional[Iterable[Invariant]] = None,
    check_every: int = 1,
    next_use: Optional[Sequence[int]] = None,
) -> Optional[Divergence]:
    """Run ``accesses`` through policy and oracle in lockstep.

    ``oracle`` may be ``None`` for invariants-only verification.
    ``next_use`` supplies per-access next-use annotations for policies that
    require the future (Belady's MIN).  Returns the first
    :class:`Divergence`, or ``None`` on a clean run.
    """
    if invariants is None:
        invariants = default_invariants()
    invariants = list(invariants)
    cache = _build_cache(policy)
    position_of = getattr(policy, "position_of", None)
    compare_positions = (
        oracle is not None
        and position_of is not None
        and oracle.positions(0) is not None
    )
    for i, block in enumerate(accesses):
        if next_use is not None:
            hit = cache.access(block, next_use=next_use[i])
        else:
            hit = cache.access(block)
        if oracle is not None:
            oracle_hit, _ = oracle.access(block)
            if hit != oracle_hit:
                return Divergence(
                    i, block, "hit-miss",
                    f"production {'hit' if hit else 'miss'} but oracle "
                    f"{'hit' if oracle_hit else 'miss'}",
                    accesses,
                )
            set_index, _tag = cache.locate(block)
            produced = set(cache._way_of[set_index])
            expected = oracle.resident_blocks(set_index)
            if produced != expected:
                return Divergence(
                    i, block, "residency",
                    f"set {set_index}: production residents "
                    f"{sorted(produced)} != oracle {sorted(expected)}",
                    accesses,
                )
            if compare_positions:
                got = [
                    position_of(set_index, w) for w in range(cache.assoc)
                ]
                want = oracle.positions(set_index)
                if got != want:
                    return Divergence(
                        i, block, "positions",
                        f"set {set_index}: production positions {got} != "
                        f"oracle {want}",
                        accesses,
                    )
        if invariants and i % check_every == 0:
            violation = check_invariants(cache, invariants)
            if violation is not None:
                return Divergence(i, block, "invariant", violation, accesses)
    if invariants:
        violation = check_invariants(cache, invariants)
        if violation is not None:
            return Divergence(
                len(accesses) - 1,
                accesses[-1] if accesses else -1,
                "invariant",
                violation,
                accesses,
            )
    return None


def diff_stream(
    policy_factory: Callable[[], ReplacementPolicy],
    oracle_factory: Optional[Callable[[], Optional[OracleCache]]],
    accesses: Sequence[int],
    invariants: Optional[Iterable[Invariant]] = None,
    check_every: int = 1,
) -> Optional[Divergence]:
    """Fresh-instance wrapper around :func:`run_differential`.

    Factories (not instances) make the check re-runnable, which is what the
    shrinker needs: every candidate sub-stream is replayed from cold state.
    Next-use annotations, when the policy requires them, are recomputed for
    every candidate stream.
    """
    oracle = oracle_factory() if oracle_factory is not None else None
    policy = policy_factory()
    next_use = None
    if getattr(policy, "requires_future", False):
        from ..trace.record import Trace, annotate_next_use

        next_use = annotate_next_use(Trace(list(accesses)))
    return run_differential(
        policy, oracle, accesses, invariants, check_every, next_use=next_use
    )


# ----------------------------------------------------------------------
# Run-level checks.
# ----------------------------------------------------------------------
def _state_digest(policy: ReplacementPolicy) -> Optional[tuple]:
    """Positions of every (set, way), when the policy can decode them."""
    position_of = getattr(policy, "position_of", None)
    if position_of is None:
        return None
    return tuple(
        tuple(position_of(s, w) for w in range(policy.assoc))
        for s in range(policy.num_sets)
    )


def _mismatch(got, want) -> str:
    """``got != want`` as text; for two lists, where they part: the first
    differing index, both values there and both lengths."""
    if not isinstance(got, list):
        return f"{got!r} != {want!r}"
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    a, b = (v[i] if i < len(v) else "end" for v in (got, want))
    return (f"first difference at [{i}]: {a!r} != {b!r} "
            f"(lengths {len(got)} and {len(want)})")


def check_lut_walk_equality(
    policy_factory: Callable[..., ReplacementPolicy],
    accesses: Sequence[int],
) -> Optional[str]:
    """Bit-identity of the LUT kernel against the reference bit-walks.

    ``policy_factory`` must accept a ``kernel`` keyword (the tree-PLRU
    family does).  Returns a mismatch description or ``None``.  When the
    LUT kernel is unavailable for the geometry (``resolve_kernel`` returned
    ``None`` and both runs walked), the comparison still holds trivially
    and ``None`` is returned.
    """
    results = {}
    for mode in ("lut", "walk"):
        policy = policy_factory(kernel=mode)
        cache = _build_cache(policy)
        misses = sum(not cache.access(block) for block in accesses)
        stats = cache.stats
        results[mode] = {
            "misses": misses,
            "hits": stats.hits,
            "evictions": stats.evictions,
            "state": _state_digest(policy),
            "kernel_mode": getattr(policy, "kernel_mode", mode),
        }
    lut, walk = results["lut"], results["walk"]
    for key in ("misses", "hits", "evictions", "state"):
        if lut[key] != walk[key]:
            return (
                f"lut-vs-walk {key} mismatch: "
                f"lut({lut['kernel_mode']})={lut[key]!r} "
                f"walk={walk[key]!r}"
            )
    return None


def check_columnar_equality(
    num_sets: int,
    assoc: int,
    entries: Sequence[int],
    accesses: Sequence[int],
) -> Optional[str]:
    """Bit-identity of the columnar engine against the scalar kernels.

    Runs one IPV over ``accesses`` through the walk reference, the LUT
    kernel and the columnar batch engine, and compares miss counts, the
    measured miss-index streams *and* the final recency-position
    permutation of every set (engine state vs a walk-kernel
    :class:`~repro.policies.plru.GIPPRPolicy` driven through the
    production cache).  Returns a mismatch description or ``None``.
    Trivially ``None`` for an unsupported geometry (k > 16) — its
    *error* behaviour is covered separately.
    """
    from ..engine.columnar import BatchSimulator, columnar_supported
    from ..ga.fitness import simulate_misses_plru_ipv

    if not columnar_supported(assoc) or not accesses:
        return None
    results = {}
    for mode in ("walk", "lut", "columnar"):
        indices: List[int] = []
        misses = simulate_misses_plru_ipv(
            accesses, num_sets, assoc, entries, warmup=0,
            miss_indices=indices, kernel=mode,
        )
        results[mode] = (misses, indices)
    for mode in ("lut", "columnar"):
        for field, got, want in (
            ("misses", results[mode][0], results["walk"][0]),
            ("miss_indices", results[mode][1], results["walk"][1]),
        ):
            if got != want:
                return (
                    f"columnar {mode}-vs-walk {field} mismatch: "
                    f"{_mismatch(got, want)}"
                )
    # Final recency positions: engine state vs the production cache.
    from ..core.ipv import IPV
    from ..policies.plru import GIPPRPolicy

    simulator = BatchSimulator(num_sets, assoc, [tuple(entries)])
    simulator.run(accesses)
    policy = GIPPRPolicy(
        num_sets, assoc, ipv=IPV(list(entries), name="columnar-check"),
        kernel="walk",
    )
    cache = _build_cache(policy)
    for block in accesses:
        cache.access(block)
    engine_pos = simulator.positions(0)
    for s in range(num_sets):
        want = [policy.position_of(s, w) for w in range(assoc)]
        got = [int(p) for p in engine_pos[s]]
        if got != want:
            return (
                f"columnar final positions mismatch in set {s}: "
                f"{got} != {want}"
            )
    return None


def check_segmented_equality(
    num_sets: int,
    assoc: int,
    lanes: Sequence[Sequence[int]],
    streams: Sequence[Sequence[int]],
    warmup: int = 0,
) -> Optional[str]:
    """Streams binned side by side against one columnar run per stream.

    Runs the IPV ``lanes`` over ``streams`` as one segmented
    :class:`~repro.engine.columnar.ColumnarTrace`, with and without run
    collapsing, and compares each stream's misses per lane and the final
    PLRU state of its sets (which fixes every recency position) with an
    uncollapsed run over that stream alone.  Returns a mismatch or None.
    """
    from ..engine import columnar

    if not columnar.columnar_supported(assoc):
        return None
    simulator = columnar.BatchSimulator(num_sets, assoc, lanes, warmup)
    alone = [(simulator.run(stream).tolist(), simulator.final_state.tolist())
             for stream in streams]
    for collapse in (False, True):
        misses = simulator.run(columnar.ColumnarTrace(
            list(streams), num_sets, collapse_runs=collapse
        ))
        for t, want in enumerate(alone):
            sets = slice(t * num_sets, (t + 1) * num_sets)
            got = (misses[:, t].tolist(),
                   simulator.final_state[:, sets].tolist())
            for field, a, b in zip(("misses", "final state"), got, want):
                if a != b:
                    return (f"segmented (collapse_runs={collapse}) stream "
                            f"{t} {field}: {_mismatch(a, b)}")
    return None


def _selector_counters(selector) -> tuple:
    """Every counter value of a set-dueling selector, plus its pick."""
    values = {name: c.value for name, c in selector.counters.items()}
    return values, selector.selected()


def check_engine_equality(
    policy_factory: Callable[[], ReplacementPolicy],
    accesses: Sequence[int],
) -> Optional[str]:
    """Bit-identity of ``run_trace``'s whole-trace engine against the
    per-access path.

    Runs ``accesses`` through :func:`repro.eval.runner.run_trace` twice on
    fresh policies, with the first quarter as warmup: as is (a policy with
    an engine takes it) and with ``stats_sink={}``, which forces
    :meth:`~repro.cache.cache.SetAssociativeCache.access`.  Compares
    measured accesses, misses, instructions, miss positions and the
    policy's global state: every selector counter of a set-dueling
    policy, DRRIP's BRRIP fill count, and PDP's ``pd`` and
    ``recompute_count``.  Returns a mismatch description or ``None``.
    """
    from ..eval.config import ExperimentConfig
    from ..eval.runner import run_trace
    from ..trace.record import Trace

    engine_policy, reference_policy = policy_factory(), policy_factory()
    config = ExperimentConfig(
        num_sets=engine_policy.num_sets,
        assoc=engine_policy.assoc,
        warmup_fraction=0.25,
        apply_env_scale=False,
    )
    trace = Trace(list(accesses), name="engine-check")
    engine = run_trace(engine_policy, trace, config, True)
    reference = run_trace(reference_policy, trace, config, True, stats_sink={})
    for field in ("accesses", "misses", "instructions", "miss_positions"):
        got, want = getattr(engine, field), getattr(reference, field)
        if got != want:
            return (
                f"engine-vs-per-access {field} mismatch: "
                f"{_mismatch(got, want)}"
            )
    selector = getattr(engine_policy, "selector", None)
    if selector is not None:
        got = _selector_counters(selector)
        want = _selector_counters(reference_policy.selector)
        if got != want:
            return (
                f"engine-vs-per-access selector mismatch: "
                f"{got!r} != {want!r}"
            )
    for name in ("_fill_count", "pd", "recompute_count"):
        got = getattr(engine_policy, name, None)
        want = getattr(reference_policy, name, None)
        if got != want:
            return f"engine-vs-per-access {name} mismatch: {got!r} != {want!r}"
    return None


def check_belady_dominance(
    policy: ReplacementPolicy,
    accesses: Sequence[int],
) -> Optional[str]:
    """Belady's MIN must not miss more than ``policy`` on this stream.

    Only meaningful for demand-fetch, non-bypassing policies; callers skip
    bypassing policies.  Returns a violation description or ``None``.
    """
    from ..policies.belady import BeladyPolicy
    from ..trace.record import Trace, annotate_next_use

    trace = Trace(list(accesses))
    next_use = annotate_next_use(trace)
    belady = BeladyPolicy(policy.num_sets, policy.assoc)
    belady_cache = _build_cache(belady)
    belady_misses = sum(
        not belady_cache.access(block, next_use=next_use[i])
        for i, block in enumerate(accesses)
    )
    cache = _build_cache(policy)
    policy_misses = sum(not cache.access(block) for block in accesses)
    if belady_misses > policy_misses:
        return (
            f"Belady MIN missed {belady_misses} > {policy.name} "
            f"{policy_misses} on {len(accesses)} accesses"
        )
    return None
