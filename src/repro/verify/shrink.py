"""Counterexample shrinking and replayable repro artifacts.

When the differential runner finds a diverging stream, the raw
counterexample is typically thousands of accesses long.  :func:`shrink_stream`
minimises it with delta debugging (ddmin-style chunk removal down to single
accesses) followed by address canonicalisation, using only a caller-supplied
``still_fails(accesses) -> bool`` predicate — so the same shrinker serves
oracle divergences, invariant violations and golden drifts alike.

The result is written as a *replayable artifact*: a small JSON file naming
the policy, its (serialisable) construction kwargs, the geometry, the
oracle, and the minimised access list.  :func:`replay_artifact` rebuilds
both sides from the artifact and re-runs the differential check, so a
repro committed to a bug report keeps working as the code evolves.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from ..obs.provenance import write_atomic

__all__ = [
    "ARTIFACT_SCHEMA",
    "shrink_stream",
    "canonicalize_addresses",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
]

#: Bump when the artifact layout changes.
ARTIFACT_SCHEMA = "repro-counterexample/1"


def shrink_stream(
    accesses: Sequence[int],
    still_fails: Callable[[List[int]], bool],
    max_rounds: int = 64,
) -> List[int]:
    """Minimise a failing access stream with ddmin + canonicalisation.

    ``still_fails`` must be deterministic and must return ``True`` for the
    input stream.  The returned stream is 1-minimal up to the round budget:
    removing any single access (at the finest granularity reached) would
    make the failure disappear.
    """
    current = list(accesses)
    if not still_fails(current):
        raise ValueError("still_fails() rejected the initial stream")
    chunks = 2
    rounds = 0
    while len(current) >= 2 and rounds < max_rounds:
        rounds += 1
        chunk_size = max(1, len(current) // chunks)
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk_size:]
            if candidate and still_fails(candidate):
                current = candidate
                reduced = True
                # Re-test from the same offset: the next chunk slid left.
            else:
                start += chunk_size
        if reduced:
            chunks = max(chunks - 1, 2)
        elif chunk_size == 1:
            break
        else:
            chunks = min(chunks * 2, len(current))
    canonical = canonicalize_addresses(current)
    if canonical != current and still_fails(canonical):
        current = canonical
    return current


def canonicalize_addresses(accesses: Sequence[int]) -> List[int]:
    """Remap blocks to the smallest distinct values, preserving aliasing.

    The remapping is order-of-first-appearance, so equal blocks stay equal
    and distinct blocks stay distinct, while the values themselves become
    small dense integers — easier to read in a bug report.  Set mapping may
    change, which is why the shrinker only keeps the canonical form when
    the failure survives it.
    """
    mapping: dict = {}
    out: List[int] = []
    for block in accesses:
        if block not in mapping:
            mapping[block] = len(mapping)
        out.append(mapping[block])
    return out


def write_artifact(
    path: Union[str, Path],
    policy: str,
    num_sets: int,
    assoc: int,
    accesses: Sequence[int],
    divergence: dict,
    policy_kwargs: Optional[dict] = None,
    oracle: Optional[str] = None,
    stream: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> Path:
    """Atomically write a replayable counterexample artifact."""
    payload = {
        "schema": ARTIFACT_SCHEMA,
        "policy": policy,
        "policy_kwargs": policy_kwargs or {},
        "num_sets": num_sets,
        "assoc": assoc,
        "oracle": oracle,
        "stream": stream or {},
        "accesses": list(int(a) for a in accesses),
        "divergence": divergence,
    }
    if extra:
        payload.update(extra)
    return write_atomic(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def load_artifact(path: Union[str, Path]) -> dict:
    with open(path) as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict):
        raise ValueError(f"{path}: artifact is not a JSON object")
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: unknown artifact schema {artifact.get('schema')!r}"
        )
    return artifact


def replay_artifact(artifact: Union[str, Path, dict]):
    """Re-run the differential check recorded in an artifact.

    Returns the reproduced :class:`~repro.verify.differential.Divergence`
    (``None`` means the bug no longer reproduces — fixed, or flaky).
    """
    from .conformance import build_oracle, build_policy
    from .differential import diff_stream

    if not isinstance(artifact, dict):
        artifact = load_artifact(artifact)
    payload = artifact

    def policy_factory():
        return build_policy(
            payload["policy"],
            payload["num_sets"],
            payload["assoc"],
            payload.get("policy_kwargs") or {},
        )

    oracle_name = payload.get("oracle")
    oracle_factory = None
    if oracle_name:
        def oracle_factory():
            return build_oracle(
                oracle_name,
                payload["policy"],
                payload["num_sets"],
                payload["assoc"],
                payload.get("policy_kwargs") or {},
            )

    return diff_stream(policy_factory, oracle_factory, payload["accesses"])
