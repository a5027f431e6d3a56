"""Disabled-tracing overhead budget.

The observability layer's contract is that a cache with **no tracer
attached** pays only one ``is not None`` test per access.  This module
measures that cost empirically against a reference built from the live
:meth:`SetAssociativeCache.access`: its source with the leading
``if self._tracer is not None:`` dispatch removed, compiled in
:mod:`repro.cache.cache`'s globals.  The reference is therefore the real
hot path minus exactly the test being priced, and cannot drift from it;
work added anywhere else in ``access`` slows both alike and is the
benchmark's to catch, not this ratio's.  :func:`disabled_overhead_ratio`
times both against the same trace and returns ``instrumented / reference``
wall time (min over repeats, which is robust to scheduler noise).  Many
short runs beat a few long ones here: the true cost is about 1 %, and the
minimum of each variant only reaches the machine's quiet speed when it
gets many chances to.

``make smoke-obs`` asserts the ratio stays within the 5 % budget; a unit
test additionally asserts both paths produce identical statistics.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import time
from functools import lru_cache

from ..cache import cache as cache_module
from ..cache.cache import SetAssociativeCache

__all__ = [
    "disabled_overhead_ratio",
    "measure_overhead",
]

_DISPATCH = "self._tracer is not None"


@lru_cache(maxsize=None)
def _reference_cache() -> type:
    """A ``SetAssociativeCache`` subclass whose ``access`` lacks the
    tracer dispatch, derived from the live method's source."""
    method = SetAssociativeCache.access
    source = textwrap.dedent(inspect.getsource(method))
    tree = ast.parse(source)
    ast.increment_lineno(tree, method.__code__.co_firstlineno - 1)
    body = tree.body[0].body
    first = 1 if ast.get_docstring(tree.body[0]) is not None else 0
    dispatch = body[first]
    if not (isinstance(dispatch, ast.If)
            and ast.unparse(dispatch.test) == _DISPATCH):
        raise RuntimeError(
            "SetAssociativeCache.access no longer starts with "
            f"`if {_DISPATCH}:`; the overhead reference cannot be derived"
        )
    del body[first]
    namespace: dict = {}
    code = compile(tree, inspect.getsourcefile(method), "exec")
    exec(code, vars(cache_module), namespace)
    return type(
        "_ReferenceCache", (SetAssociativeCache,),
        {"access": namespace["access"]},
    )


def _build(kind, num_sets: int, assoc: int, policy_name: str):
    from ..policies.registry import make_policy

    policy = make_policy(policy_name, num_sets, assoc)
    return kind(num_sets, assoc, policy, block_size=1, name="overhead-probe")


def _addresses(n: int, num_sets: int, assoc: int, seed: int = 7):
    """A deterministic mixed hit/miss address stream (no numpy needed)."""
    footprint = num_sets * assoc * 2  # ~50% capacity pressure
    out = []
    state = seed or 1
    for _ in range(n):
        # xorshift32: cheap, deterministic, good enough spread.
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        out.append(state % footprint)
    return out


def _time_run(cache, addresses) -> float:
    access = cache.access
    started = time.perf_counter()
    for address in addresses:
        access(address)
    return time.perf_counter() - started


def measure_overhead(
    accesses: int = 30_000,
    num_sets: int = 64,
    assoc: int = 16,
    repeats: int = 40,
    policy: str = "plru",
):
    """Return ``(instrumented_sec, reference_sec, ratio, stats_match)``.

    Runs are interleaved (A/B, then B/A, per repeat) and the minimum per
    variant is taken, which cancels most machine noise.  ``stats_match``
    confirms the instrumented tracer-disabled path and the reference path
    simulated the exact same run.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    addresses = _addresses(accesses, num_sets, assoc)
    best_inst = float("inf")
    best_ref = float("inf")
    inst_snapshot = ref_snapshot = None

    def counters(cache):
        s = cache.stats
        return (s.accesses, s.hits, s.misses, s.evictions, s.writebacks,
                s.bypasses)

    reference = _reference_cache()
    for round_index in range(repeats):
        # Alternate which variant runs first, so neither always gets the
        # warmer (or the colder) slot of a round.
        kinds = (SetAssociativeCache, reference)
        for kind in kinds if round_index % 2 == 0 else kinds[::-1]:
            cache = _build(kind, num_sets, assoc, policy)
            seconds = _time_run(cache, addresses)
            if kind is reference:
                best_ref = min(best_ref, seconds)
                ref_snapshot = counters(cache)
            else:
                best_inst = min(best_inst, seconds)
                inst_snapshot = counters(cache)
    ratio = best_inst / best_ref if best_ref > 0 else float("inf")
    return best_inst, best_ref, ratio, inst_snapshot == ref_snapshot


def disabled_overhead_ratio(
    accesses: int = 30_000,
    num_sets: int = 64,
    assoc: int = 16,
    repeats: int = 40,
    policy: str = "plru",
) -> float:
    """Tracing-disabled slowdown factor (1.0 = free; budget is 1.05)."""
    _, _, ratio, stats_match = measure_overhead(
        accesses, num_sets, assoc, repeats, policy
    )
    if not stats_match:
        raise AssertionError(
            "instrumented and reference caches diverged — removing the "
            "tracer dispatch changed what SetAssociativeCache.access does"
        )
    return ratio

