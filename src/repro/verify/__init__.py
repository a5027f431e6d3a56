"""Differential testing and conformance for the replacement-policy zoo.

The subsystem has five layers, each usable on its own:

:mod:`repro.verify.streams`
    Deterministic, seed-addressable access-stream generators (stdlib
    ``random`` only — no hypothesis dependency).
:mod:`repro.verify.oracles`
    Obviously-correct reference models: an explicit recency-stack for
    true-LRU IPV policies and a positions-decoded tree-PLRU model.
:mod:`repro.verify.invariants`
    Pluggable per-access state checks (tag uniqueness, fill counts,
    position bijectivity, PSEL bounds, stats consistency).
:mod:`repro.verify.differential` / :mod:`repro.verify.shrink`
    Lockstep production-vs-oracle execution, run-level LUT/walk and
    Belady-dominance checks, ddmin counterexample shrinking and
    replayable JSON artifacts.
:mod:`repro.verify.conformance` / :mod:`repro.verify.goldens`
    The per-policy fuzz driver, the aggregate ``repro verify`` report,
    and the three committed golden corpora (conformance, columnar,
    serving), which one checker and one writer serve.
"""

from .conformance import (
    ConformanceReport,
    PolicyReport,
    build_oracle,
    build_policy,
    oracle_for,
    policy_kwargs,
    verify_all,
    verify_policy,
    write_conformance_manifest,
)
from .differential import (
    Divergence,
    check_belady_dominance,
    check_lut_walk_equality,
    diff_stream,
    run_differential,
)
from .goldens import CORPORA, Corpus, check_corpus, write_corpus
from .invariants import (
    Invariant,
    check_invariants,
    default_invariants,
)
from .oracles import LRUStackOracle, OracleCache, PLRUPositionsOracle
from .shrink import (
    load_artifact,
    replay_artifact,
    shrink_stream,
    write_artifact,
)
from .streams import STREAM_GENERATORS, generate_stream, stream_names

__all__ = [
    "CORPORA",
    "ConformanceReport",
    "Corpus",
    "Divergence",
    "Invariant",
    "LRUStackOracle",
    "OracleCache",
    "PLRUPositionsOracle",
    "PolicyReport",
    "STREAM_GENERATORS",
    "build_oracle",
    "build_policy",
    "check_belady_dominance",
    "check_corpus",
    "check_invariants",
    "check_lut_walk_equality",
    "default_invariants",
    "diff_stream",
    "generate_stream",
    "load_artifact",
    "oracle_for",
    "policy_kwargs",
    "replay_artifact",
    "run_differential",
    "shrink_stream",
    "stream_names",
    "verify_all",
    "verify_policy",
    "write_artifact",
    "write_conformance_manifest",
    "write_corpus",
]
