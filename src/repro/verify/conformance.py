"""The conformance matrix and the `repro verify` driver.

This module knows, for every policy in :mod:`repro.policies.registry`:

* which reference oracle (if any) it must match bit-for-bit,
* which deterministic construction kwargs to use at each geometry (the
  published k=16 paper vectors where they apply; deterministic stress
  vectors elsewhere — all serialisable so counterexample artifacts can
  rebuild the exact policy),
* whether it supports the LUT/walk kernel switch, bypasses, or requires
  future knowledge (Belady).

:func:`verify_policy` fuzzes one policy across the deterministic stream
family (:mod:`repro.verify.streams`) over several seeds and geometries,
checking the oracle differential, the per-access invariant battery, the
LUT-vs-walk kernel identity, ``run_trace``'s engine-vs-per-access
identity and Belady dominance; any failure is shrunk
(:mod:`repro.verify.shrink`) and written as a replayable artifact.
:func:`verify_all` aggregates every policy plus the drift check of the
three golden corpora (:mod:`repro.verify.goldens`) and records a
provenance manifest via :mod:`repro.obs.provenance` so each conformance
run names its kernel modes, seeds and code digest.
"""

from __future__ import annotations

import logging
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.ipv import IPV, lip_ipv, lru_ipv, mru_pessimistic_ipv
from ..obs.spans import span
from ..core.vectors import (
    DGIPPR4_WI_VECTORS,
    GIPLR_VECTOR,
    GIPPR_WI_VECTOR,
)
from ..eval.runner import _ENGINES
from ..policies.base import ReplacementPolicy
from ..policies.registry import POLICIES, make_policy, policy_names
from .differential import (
    Divergence,
    check_belady_dominance,
    check_columnar_equality,
    check_engine_equality,
    check_lut_walk_equality,
    check_segmented_equality,
    diff_stream,
)
from .oracles import LRUStackOracle, OracleCache, PLRUPositionsOracle
from .shrink import shrink_stream, write_artifact
from .streams import generate_stream, stream_names

__all__ = [
    "DEFAULT_FUZZ_BUDGET",
    "DEFAULT_GEOMETRIES",
    "KERNEL_GEOMETRY",
    "ConformanceReport",
    "PolicyReport",
    "build_oracle",
    "build_policy",
    "oracle_for",
    "policy_kwargs",
    "verify_all",
    "verify_policy",
]

logger = logging.getLogger(__name__)

#: Total fuzz accesses per policy (split across stream x seed x geometry).
DEFAULT_FUZZ_BUDGET = 24_000

#: Small geometries keep per-access invariant checking affordable while
#: still covering k in {2, 4, 8}; the kernel geometry adds the paper's
#: 16-way trees (and thereby the k=16 LUTs).
DEFAULT_GEOMETRIES: Tuple[Tuple[int, int], ...] = ((8, 4), (4, 8), (16, 2))
KERNEL_GEOMETRY: Tuple[int, int] = (4, 16)

#: Streams used for the (more expensive) run-level dominance check.
_DOMINANCE_STREAMS = ("cyclic-over-capacity", "zipf-hot")

#: Policies whose production path can run on the precompiled LUT kernels.
_KERNEL_POLICIES = frozenset({"plru", "gippr", "dgippr"})

#: Policies ``run_trace`` runs on a whole-trace engine (its ``_ENGINES``).
_ENGINE_POLICIES = frozenset(n for n, f in POLICIES.items() if f in _ENGINES)

#: Cells of the engine check: the kernel cells, plus a 16-set cell where
#: the duels have follower sets (at 4 x 16 every set leads).
_ENGINE_GEOMETRIES: Tuple[Tuple[int, int], ...] = (
    DEFAULT_GEOMETRIES[0], KERNEL_GEOMETRY, (16, 16),
)

#: PDP's recompute interval in the engine check: its default, 512
#: sampled accesses, is never reached on the check's 512-access streams.
_ENGINE_PDP_RECOMPUTE = 16

#: Policies that may bypass (Belady dominance does not apply to them).
_BYPASSING = frozenset({"bypass-dgippr"})


def _stress_ipv_entries(assoc: int, salt: int) -> List[int]:
    """A deterministic pseudo-random IPV for geometries without paper
    vectors; ``random.Random`` keeps it stable across platforms."""
    rng = random.Random(0xA11CE ^ (salt * 0x9E3779B1) ^ assoc)
    return [rng.randrange(assoc) for _ in range(assoc + 1)]


def policy_kwargs(name: str, num_sets: int, assoc: int) -> dict:
    """Deterministic, JSON-serialisable constructor kwargs for a policy.

    Paper vectors are used where the geometry matches (k=16); elsewhere
    deterministic stress vectors / classic vectors of the right width.
    """
    if name == "ipv-lru":
        return {"ipv": list(mru_pessimistic_ipv(assoc).entries)}
    if name == "giplr":
        if assoc == GIPLR_VECTOR.k:
            return {"ipv": list(GIPLR_VECTOR.entries)}
        return {"ipv": _stress_ipv_entries(assoc, salt=1)}
    if name == "gippr":
        if assoc == GIPPR_WI_VECTOR.k:
            return {"ipv": list(GIPPR_WI_VECTOR.entries)}
        return {"ipv": _stress_ipv_entries(assoc, salt=2)}
    if name in ("dgippr", "bypass-dgippr"):
        if assoc == DGIPPR4_WI_VECTORS[0].k:
            ipvs = [list(v.entries) for v in DGIPPR4_WI_VECTORS]
        else:
            ipvs = [
                list(lru_ipv(assoc).entries),
                list(lip_ipv(assoc).entries),
            ]
        return {"ipvs": ipvs}
    return {}


def _deserialize_kwargs(kwargs: dict) -> dict:
    """Rebuild IPV objects from the serialisable kwargs representation."""
    out = dict(kwargs)
    if "ipv" in out and not isinstance(out["ipv"], IPV):
        out["ipv"] = IPV(out["ipv"], name="conformance")
    if "ipvs" in out:
        out["ipvs"] = [
            v if isinstance(v, IPV) else IPV(v, name=f"conformance{i}")
            for i, v in enumerate(out["ipvs"])
        ]
    return out


def build_policy(
    name: str,
    num_sets: int,
    assoc: int,
    kwargs: Optional[dict] = None,
    kernel: Optional[str] = None,
) -> ReplacementPolicy:
    """Instantiate a registry policy from serialisable conformance kwargs."""
    if kwargs is None:
        kwargs = policy_kwargs(name, num_sets, assoc)
    kwargs = _deserialize_kwargs(kwargs)
    if kernel is not None and name in _KERNEL_POLICIES:
        kwargs["kernel"] = kernel
    return make_policy(name, num_sets, assoc, **kwargs)


def oracle_for(name: str) -> Optional[str]:
    """Oracle kind for a policy name (``None`` -> invariants-only)."""
    if name in ("lru", "ipv-lru", "giplr"):
        return "lru-stack"
    if name in ("plru", "gippr", "dgippr"):
        return "plru-positions"
    return None


def build_oracle(
    oracle_name: str,
    policy_name: str,
    num_sets: int,
    assoc: int,
    kwargs: Optional[dict] = None,
) -> OracleCache:
    """Build the reference oracle matching ``build_policy``'s instance."""
    if kwargs is None:
        kwargs = policy_kwargs(policy_name, num_sets, assoc)
    kwargs = _deserialize_kwargs(kwargs)
    if oracle_name == "lru-stack":
        return LRUStackOracle(num_sets, assoc, ipv=kwargs.get("ipv"))
    if oracle_name == "plru-positions":
        if "ipvs" in kwargs:
            return PLRUPositionsOracle(
                num_sets,
                assoc,
                kwargs["ipvs"],
                leaders_per_policy=kwargs.get("leaders_per_policy"),
                counter_bits=kwargs.get("counter_bits", 11),
                seed=kwargs.get("seed", 0xDEAD),
            )
        if "ipv" in kwargs:
            return PLRUPositionsOracle(num_sets, assoc, [kwargs["ipv"]])
        return PLRUPositionsOracle(num_sets, assoc)
    raise ValueError(f"unknown oracle {oracle_name!r}")


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------
class PolicyReport:
    """Outcome of :func:`verify_policy` for one policy."""

    def __init__(self, policy: str, oracle: Optional[str]):
        self.policy = policy
        self.oracle = oracle
        self.streams_run = 0
        self.accesses_run = 0
        self.divergences: List[Divergence] = []
        self.lut_walk_failures: List[str] = []
        self.dominance_failures: List[str] = []
        self.artifacts: List[str] = []
        self.wall_time_sec = 0.0

    @property
    def ok(self) -> bool:
        return not (
            self.divergences
            or self.lut_walk_failures
            or self.dominance_failures
        )

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "oracle": self.oracle,
            "ok": self.ok,
            "streams_run": self.streams_run,
            "accesses_run": self.accesses_run,
            "divergences": [d.as_dict() for d in self.divergences],
            "lut_walk_failures": list(self.lut_walk_failures),
            "dominance_failures": list(self.dominance_failures),
            "artifacts": list(self.artifacts),
            "wall_time_sec": round(self.wall_time_sec, 3),
        }

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        oracle = self.oracle or "invariants-only"
        line = (
            f"{self.policy:<14} {status:<4} {oracle:<16} "
            f"{self.streams_run:>3} streams  "
            f"{self.accesses_run:>8,} accesses"
        )
        if not self.ok:
            first = (
                self.divergences[0].detail
                if self.divergences
                else (self.lut_walk_failures + self.dominance_failures)[0]
            )
            line += f"  first failure: {first}"
        return line


class ConformanceReport:
    """Aggregate of every policy report plus the golden-corpus check."""

    def __init__(self):
        self.reports: List[PolicyReport] = []
        self.golden_drift: List[str] = []
        self.goldens_checked = 0
        self.wall_time_sec = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports) and not self.golden_drift

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "policies": [r.as_dict() for r in self.reports],
            "golden_drift": list(self.golden_drift),
            "goldens_checked": self.goldens_checked,
            "wall_time_sec": round(self.wall_time_sec, 3),
        }

    def summary(self) -> str:
        lines = [r.summary() for r in self.reports]
        if self.goldens_checked or self.golden_drift:
            if self.golden_drift:
                lines.append(
                    f"goldens: {len(self.golden_drift)} drift(s):"
                )
                lines.extend(f"  {d}" for d in self.golden_drift)
            else:
                lines.append(
                    f"goldens: {self.goldens_checked} entries match"
                )
        lines.append(
            f"conformance {'PASSED' if self.ok else 'FAILED'} in "
            f"{self.wall_time_sec:.1f}s"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The fuzz driver.
# ----------------------------------------------------------------------
def _geometries_for(name: str) -> Tuple[Tuple[int, int], ...]:
    if name in _KERNEL_POLICIES or name in (
        "lru", "dip", "drrip", "bypass-dgippr"
    ):
        return DEFAULT_GEOMETRIES + (KERNEL_GEOMETRY,)
    return DEFAULT_GEOMETRIES


def verify_policy(
    name: str,
    fuzz_budget: int = DEFAULT_FUZZ_BUDGET,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    seeds: Sequence[int] = (0, 1),
    geometries: Optional[Sequence[Tuple[int, int]]] = None,
    check_every: int = 1,
    fail_fast: bool = True,
) -> PolicyReport:
    """Differentially fuzz one registered policy.

    The fuzz budget is the total number of accesses, split evenly over the
    ``stream x seed x geometry`` grid (at least 64 accesses per cell).
    With ``shrink`` enabled each failure is minimised and, when
    ``artifact_dir`` is given, written as a replayable JSON artifact.
    """
    started = time.perf_counter()
    oracle_name = oracle_for(name)
    report = PolicyReport(name, oracle_name)
    if geometries is None:
        geometries = _geometries_for(name)
    cells = [
        (stream, seed, geometry)
        for geometry in geometries
        for stream in stream_names()
        for seed in seeds
    ]
    n_per_cell = max(64, fuzz_budget // max(1, len(cells)))

    for stream, seed, (num_sets, assoc) in cells:
        kwargs = policy_kwargs(name, num_sets, assoc)
        accesses = generate_stream(stream, seed, n_per_cell, num_sets, assoc)

        def policy_factory():
            return build_policy(name, num_sets, assoc, kwargs)

        oracle_factory = None
        if oracle_name is not None:
            def oracle_factory():
                return build_oracle(
                    oracle_name, name, num_sets, assoc, kwargs
                )

        divergence = diff_stream(
            policy_factory, oracle_factory, accesses,
            check_every=check_every,
        )
        report.streams_run += 1
        report.accesses_run += len(accesses)
        if divergence is not None:
            logger.warning(
                "%s diverged on %s seed=%d %dx%d at access %d: %s",
                name, stream, seed, num_sets, assoc,
                divergence.index, divergence.detail,
            )
            if shrink:
                def still_fails(candidate: List[int]) -> bool:
                    return (
                        diff_stream(
                            policy_factory, oracle_factory, candidate,
                            check_every=check_every,
                        )
                        is not None
                    )

                shrunk = shrink_stream(accesses, still_fails)
                final = diff_stream(
                    policy_factory, oracle_factory, shrunk,
                    check_every=check_every,
                )
                divergence = final if final is not None else divergence
                divergence.accesses = shrunk
            report.divergences.append(divergence)
            if artifact_dir is not None:
                path = Path(artifact_dir) / (
                    f"{name}-{stream}-s{seed}-{num_sets}x{assoc}.json"
                )
                write_artifact(
                    path,
                    policy=name,
                    num_sets=num_sets,
                    assoc=assoc,
                    accesses=divergence.accesses or accesses,
                    divergence=divergence.as_dict(),
                    policy_kwargs=kwargs,
                    oracle=oracle_name,
                    stream={
                        "name": stream,
                        "seed": seed,
                        "n": n_per_cell,
                    },
                )
                report.artifacts.append(str(path))
            if fail_fast:
                break

    # Run-level: LUT-vs-walk kernel identity.
    if name in _KERNEL_POLICIES and (not report.divergences or not fail_fast):
        for num_sets, assoc in (DEFAULT_GEOMETRIES[0], KERNEL_GEOMETRY):
            kwargs = policy_kwargs(name, num_sets, assoc)
            accesses = generate_stream(
                "random-uniform", seeds[0], max(512, n_per_cell),
                num_sets, assoc,
            )

            def kernel_factory(kernel: str = "auto"):
                return build_policy(
                    name, num_sets, assoc, kwargs, kernel=kernel
                )

            mismatch = check_lut_walk_equality(kernel_factory, accesses)
            if mismatch is not None:
                report.lut_walk_failures.append(
                    f"{num_sets}x{assoc}: {mismatch}"
                )

            # Columnar-engine identity on the same cells (reported into
            # the same bucket, prefixed), for the single-IPV GIPPR family,
            # then three streams of unequal length side by side: the first
            # two touch set 0 only, and a run collapsed across their column
            # change shows.  Duels are checked by the engine check below.
            if name in ("plru", "gippr"):
                entries = kwargs.get("ipv") or [0] * (assoc + 1)
                mismatch = check_columnar_equality(
                    num_sets, assoc, entries, accesses
                )
                if mismatch is None:
                    hammer = generate_stream(
                        "single-set-hammer", seeds[0], 200, num_sets, assoc
                    )
                    lanes = [entries, _stress_ipv_entries(assoc, 3), entries]
                    mismatch = check_segmented_equality(
                        num_sets, assoc, lanes,
                        [hammer, hammer[::-1][:150], accesses], warmup=64,
                    )
                if mismatch is not None:
                    report.lut_walk_failures.append(
                        f"{num_sets}x{assoc}: columnar: {mismatch}"
                    )

    # Run-level: run_trace's whole-trace engine against the per-access
    # path (reported into the same bucket, prefixed).
    if name in _ENGINE_POLICIES and (not report.divergences or not fail_fast):
        for num_sets, assoc in _ENGINE_GEOMETRIES:
            kwargs = policy_kwargs(name, num_sets, assoc)
            if name == "pdp":
                kwargs["recompute_interval"] = _ENGINE_PDP_RECOMPUTE
            accesses = generate_stream(
                "random-uniform", seeds[0], max(512, n_per_cell),
                num_sets, assoc,
            )

            def engine_factory():
                return build_policy(name, num_sets, assoc, kwargs)

            mismatch = check_engine_equality(engine_factory, accesses)
            if mismatch is not None:
                report.lut_walk_failures.append(
                    f"{num_sets}x{assoc}: engine: {mismatch}"
                )

    # Run-level: Belady dominance (demand-fetch, non-bypassing policies).
    if (
        name != "belady"
        and name not in _BYPASSING
        and (not report.divergences or not fail_fast)
    ):
        num_sets, assoc = DEFAULT_GEOMETRIES[0]
        kwargs = policy_kwargs(name, num_sets, assoc)
        for stream in _DOMINANCE_STREAMS:
            accesses = generate_stream(
                stream, seeds[0], max(512, n_per_cell), num_sets, assoc
            )
            violation = check_belady_dominance(
                build_policy(name, num_sets, assoc, kwargs), accesses
            )
            if violation is not None:
                report.dominance_failures.append(f"{stream}: {violation}")

    report.wall_time_sec = time.perf_counter() - started
    return report


def verify_all(
    policies: Optional[Sequence[str]] = None,
    fuzz_budget: int = DEFAULT_FUZZ_BUDGET,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    seeds: Sequence[int] = (0, 1),
    check_goldens: bool = True,
    check_every: int = 1,
) -> ConformanceReport:
    """Verify every (or the named) registered policies plus the three
    golden corpora."""
    from .goldens import CORPORA, check_corpus

    started = time.perf_counter()
    report = ConformanceReport()
    for name in policies or policy_names():
        logger.info("verifying %s ...", name)
        with span("verify.policy", policy=name):
            report.reports.append(
                verify_policy(
                    name,
                    fuzz_budget=fuzz_budget,
                    shrink=shrink,
                    artifact_dir=artifact_dir,
                    seeds=seeds,
                    check_every=check_every,
                )
            )
    if check_goldens:
        for corpus in CORPORA:
            with span("verify.goldens", corpus=corpus.name):
                drift, checked = check_corpus(corpus)
            report.golden_drift.extend(drift)
            report.goldens_checked += checked
    report.wall_time_sec = time.perf_counter() - started
    return report


def write_conformance_manifest(
    report: ConformanceReport,
    out_path: str,
    fuzz_budget: int,
    seeds: Sequence[int],
    policies: Sequence[str],
) -> None:
    """Write the report JSON plus its provenance manifest sidecar.

    The manifest's standard fields already record the code digest, git
    revision and kernel provenance (LUT vs walk, compile counts); the extra
    block pins the conformance-specific inputs.
    """
    import json

    from ..obs.provenance import build_manifest, write_manifest

    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    manifest = build_manifest(
        wall_time_sec=report.wall_time_sec,
        extra={
            "conformance": {
                "ok": report.ok,
                "fuzz_budget": fuzz_budget,
                "seeds": list(seeds),
                "policies": list(policies),
                "streams": stream_names(),
                "geometries": [list(g) for g in DEFAULT_GEOMETRIES]
                + [list(KERNEL_GEOMETRY)],
                "goldens_checked": report.goldens_checked,
                "golden_drift": len(report.golden_drift),
            },
        },
    )
    write_manifest(path, manifest)
