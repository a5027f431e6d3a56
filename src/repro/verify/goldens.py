"""Golden regression corpora: exact results, committed to the repo.

Three corpora under ``tests/goldens`` pin the behaviour that must not
change:

``conformance``
    the miss count of every registered policy on a small deterministic
    ``stream x seed x geometry`` matrix (streams from
    :mod:`repro.verify.streams`, policy kwargs from
    :mod:`repro.verify.conformance`), run through the per-access cache;
``columnar``
    per-lane miss counts of the columnar batch engine, recomputed through
    the walk and LUT kernels too, and set-dueling cells (misses and final
    PSEL) of :func:`repro.engine.scalar.simulate_duel` against the
    per-access DGIPPR policy;
``serving``
    the miss count of the streaming Zipf key-value scenario through the
    single-shard scalar front-end and the sharded columnar one.

Each corpus is one :class:`Corpus` description: its file, schema and
header fields, its cell matrix and key format, and the engines each cell
runs through, the committed engine first.  :func:`check_corpus`
recomputes every cell through every engine and returns one drift line per
disagreement, naming the key and the engine; a missing, torn or foreign
file is drift too, never a pass or an exception.  :func:`write_corpus`
refuses to write while two engines disagree and returns the entries that
moved, so ``scripts/regen_goldens.py`` (the one sanctioned way to move
them) names every one, with a provenance manifest sidecar recording the
code digest and git revision.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from ..obs.provenance import build_manifest, write_atomic, write_manifest

__all__ = [
    "COLUMNAR",
    "CONFORMANCE",
    "CORPORA",
    "SERVING",
    "Corpus",
    "check_corpus",
    "write_corpus",
]

_GOLDENS_DIR = Path(__file__).resolve().parents[3] / "tests" / "goldens"


class Corpus:
    """One committed corpus: where it lives and how to recompute it.

    ``header`` holds the fields written next to ``schema`` and
    ``entries``.  Each entry is the value of ``compute(cell, engine)``
    for the first of ``engines(cell)``; every other engine must agree.
    """

    name: str
    path: Path
    schema: str
    header: Dict[str, object]

    def cells(self) -> List[tuple]:
        """The full, ordered list of pinned cells."""
        raise NotImplementedError

    def key(self, cell: tuple) -> str:
        raise NotImplementedError

    def engines(self, cell: tuple) -> Tuple[str, ...]:
        """Labels of the engines ``cell`` runs through, committed first."""
        raise NotImplementedError

    def compute(self, cell: tuple, engine: str):
        """The value of ``cell`` through ``engine``, computed afresh."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Conformance corpus: every registered policy through the per-access
# cache.
# ----------------------------------------------------------------------

#: Streams every policy is pinned on (the regimes where policies differ
#: most: thrash, skewed reuse, per-set churn).
GOLDEN_STREAMS: Tuple[str, ...] = (
    "cyclic-over-capacity",
    "zipf-hot",
    "adversarial-thrash",
)

#: The base geometry every policy is pinned at, and the 16-way paper
#: geometry for the policies whose published vectors live there.
GOLDEN_GEOMETRY: Tuple[int, int] = (8, 4)
GOLDEN_WIDE_GEOMETRY: Tuple[int, int] = (4, 16)
GOLDEN_WIDE_POLICIES: Tuple[str, ...] = (
    "lru",
    "plru",
    "gippr",
    "dgippr",
    "drrip",
)

GOLDEN_SEED = 0
GOLDEN_N = 1000


class _ConformanceCorpus(Corpus):
    """Cells are ``(policy, stream, seed, num_sets, assoc, n)``."""

    name = "conformance"
    path = _GOLDENS_DIR / "conformance_goldens.json"
    schema = "repro-goldens/1"
    header = {
        "seed": GOLDEN_SEED,
        "n": GOLDEN_N,
        "streams": list(GOLDEN_STREAMS),
        "geometries": [list(GOLDEN_GEOMETRY), list(GOLDEN_WIDE_GEOMETRY)],
    }

    def cells(self) -> List[tuple]:
        from ..policies.registry import policy_names

        cells: List[tuple] = []
        num_sets, assoc = GOLDEN_GEOMETRY
        for policy in policy_names():
            for stream in GOLDEN_STREAMS:
                cells.append(
                    (policy, stream, GOLDEN_SEED, num_sets, assoc, GOLDEN_N)
                )
        wide_sets, wide_assoc = GOLDEN_WIDE_GEOMETRY
        for policy in GOLDEN_WIDE_POLICIES:
            for stream in GOLDEN_STREAMS:
                cells.append(
                    (policy, stream, GOLDEN_SEED, wide_sets, wide_assoc,
                     GOLDEN_N)
                )
        return cells

    def key(self, cell: tuple) -> str:
        policy, stream, seed, num_sets, assoc, n = cell
        return f"{policy}|{stream}|s{seed}|{num_sets}x{assoc}|n{n}"

    def engines(self, cell: tuple) -> Tuple[str, ...]:
        return ("cache",)

    def compute(self, cell: tuple, engine: str) -> int:
        """Miss count of the per-access cache (the one engine)."""
        from ..cache.cache import SetAssociativeCache
        from .conformance import build_policy
        from .streams import generate_stream

        policy_name, stream, seed, num_sets, assoc, n = cell
        accesses = generate_stream(stream, seed, n, num_sets, assoc)
        policy = build_policy(policy_name, num_sets, assoc)
        cache = SetAssociativeCache(
            num_sets, assoc, policy, block_size=1, name="goldens"
        )
        if getattr(policy, "requires_future", False):
            from ..trace.record import Trace, annotate_next_use

            next_use = annotate_next_use(Trace(list(accesses)))
            return sum(
                not cache.access(block, next_use=next_use[i])
                for i, block in enumerate(accesses)
            )
        return sum(not cache.access(block) for block in accesses)


# ----------------------------------------------------------------------
# Columnar corpus: kernel identity.  Each multi-lane ipv cell commits the
# per-lane miss counts of the columnar engine (with a deliberately ragged
# chunk size) and recomputes them through the walk and the LUT; duel
# cells pin the set-dueling engine ``repro compare`` runs (final PSEL
# included) against the per-access DGIPPR policy.
# ----------------------------------------------------------------------

#: Deliberately prime and far below any trace length: every chunk
#: boundary lands mid-trace, so ragged step-transpose tails are pinned.
COLUMNAR_GOLDEN_BATCH = 193

COLUMNAR_GOLDEN_STREAMS: Tuple[str, ...] = (
    "cyclic-over-capacity",
    "zipf-hot",
    "single-set-hammer",
)
COLUMNAR_DUEL_STREAMS: Tuple[str, ...] = ("duel-flip", "zipf-hot")

_COLUMNAR_ENGINES: Dict[str, Tuple[str, ...]] = {
    "ipv": ("columnar", "walk", "lut"),
    "duel": ("simulate_duel", "scalar"),
}

_COLUMNAR_GEOMETRIES: Tuple[Tuple[int, int], ...] = (
    (16, 2), (8, 4), (8, 8), (4, 16)
)


def _columnar_lanes(assoc: int) -> List[Tuple[int, ...]]:
    """The IPV lanes a cell batches: classic LRU, LIP, a deterministic
    stress vector, and a duplicate lane (pins table deduplication)."""
    from ..core.ipv import lip_ipv, lru_ipv
    from .conformance import _stress_ipv_entries

    return [
        tuple(lru_ipv(assoc).entries),
        tuple(lip_ipv(assoc).entries),
        tuple(_stress_ipv_entries(assoc, salt=7)),
        tuple(lru_ipv(assoc).entries),
    ]


def _columnar_duel_lanes(assoc: int) -> List[Tuple[Tuple[int, ...], ...]]:
    from ..core.ipv import lip_ipv, lru_ipv
    from .conformance import _stress_ipv_entries

    lru = tuple(lru_ipv(assoc).entries)
    lip = tuple(lip_ipv(assoc).entries)
    stress = tuple(_stress_ipv_entries(assoc, salt=9))
    return [(lru, lip), (lip, stress)]


class _ColumnarCorpus(Corpus):
    """Cells are ``(kind, stream, seed, num_sets, assoc, n, warmup)``;
    kind ``"ipv"`` pins the lockstep batch engine, ``"duel"`` the
    three-pass set-dueling engine."""

    name = "columnar"
    path = _GOLDENS_DIR / "columnar_goldens.json"
    schema = "repro-columnar-goldens/1"
    header = {"batch_accesses": COLUMNAR_GOLDEN_BATCH}

    def cells(self) -> List[tuple]:
        cells: List[tuple] = []
        for num_sets, assoc in _COLUMNAR_GEOMETRIES:
            for stream in COLUMNAR_GOLDEN_STREAMS:
                cells.append(
                    ("ipv", stream, GOLDEN_SEED, num_sets, assoc, 1200, 200)
                )
        for num_sets, assoc in ((8, 4), (4, 16)):
            for stream in COLUMNAR_DUEL_STREAMS:
                cells.append(
                    ("duel", stream, GOLDEN_SEED, num_sets, assoc, 1200, 200)
                )
        return cells

    def key(self, cell: tuple) -> str:
        kind, stream, seed, num_sets, assoc, n, warmup = cell
        return f"{kind}|{stream}|s{seed}|{num_sets}x{assoc}|n{n}|w{warmup}"

    def engines(self, cell: tuple) -> Tuple[str, ...]:
        return _COLUMNAR_ENGINES[cell[0]]

    def compute(self, cell: tuple, engine: str):
        """``ipv`` cells return the per-lane miss-count list; ``engine``
        selects ``"columnar"`` (ragged-chunk batch run), ``"walk"`` or
        ``"lut"`` (scalar loop per lane).  ``duel`` cells return
        ``{"misses": [...], "psel": [...]}`` via
        :func:`~repro.engine.scalar.simulate_duel` (``"simulate_duel"``)
        or the walk-kernel DGIPPR policy run per access (``"scalar"``).
        """
        from .streams import generate_stream

        kind, stream, seed, num_sets, assoc, n, warmup = cell
        if engine not in _COLUMNAR_ENGINES.get(kind, ()):
            raise ValueError(
                f"no engine {engine!r} for columnar golden kind {kind!r}"
            )
        accesses = generate_stream(stream, seed, n, num_sets, assoc)
        if kind == "ipv":
            lanes = _columnar_lanes(assoc)
            if engine == "columnar":
                from ..engine.columnar import BatchSimulator, ColumnarTrace

                simulator = BatchSimulator(num_sets, assoc, lanes, warmup)
                trace = ColumnarTrace(
                    accesses, num_sets, batch_accesses=COLUMNAR_GOLDEN_BATCH
                )
                return [int(m) for m in simulator.run(trace)]
            from ..ga.fitness import simulate_misses_plru_ipv

            return [
                simulate_misses_plru_ipv(
                    accesses, num_sets, assoc, entries, warmup, kernel=engine
                )
                for entries in lanes
            ]
        pairs = _columnar_duel_lanes(assoc)
        misses: List[int] = []
        psels: List[int] = []
        if engine == "simulate_duel":
            from ..core.dueling import DuelSelector
            from ..engine.scalar import simulate_duel

            for pair in pairs:
                selector = DuelSelector(num_sets, 2)
                misses.append(simulate_duel(
                    accesses, num_sets, assoc, pair, selector, warmup
                ))
                psels.append(selector.counters["psel"].value)
            return {"misses": misses, "psel": psels}
        from ..cache.cache import SetAssociativeCache
        from ..core.ipv import IPV
        from ..policies.plru import DGIPPRPolicy

        for pair in pairs:
            policy = DGIPPRPolicy(
                num_sets, assoc,
                ipvs=[IPV(list(v), name=f"g{i}") for i, v in enumerate(pair)],
                kernel="walk",
            )
            cache = SetAssociativeCache(
                num_sets, assoc, policy, block_size=1, name="goldens"
            )
            count = 0
            for i, block in enumerate(accesses):
                hit = cache.access(block)
                if not hit and i >= warmup:
                    count += 1
            misses.append(count)
            psels.append(policy.selector.counters["psel"].value)
        return {"misses": misses, "psel": psels}


# ----------------------------------------------------------------------
# Serving corpus: the streaming Zipf key-value scenario, end to end.
#
# Each cell pins the exact miss count of one serving spec (Zipf alpha,
# key churn, flash-crowd phases, two tenants) on a small geometry — the
# generator, the set-sharded front-end and the streaming engines all sit
# inside the pinned number.  The committed value comes from the
# single-shard pure-scalar reference and is recomputed through the
# sharded columnar front-end too.
# ----------------------------------------------------------------------

SERVING_GOLDEN_SEEDS: Tuple[int, ...] = (0, 1, 2)
SERVING_GOLDEN_POLICIES: Tuple[str, ...] = ("lru", "lip")
SERVING_GOLDEN_ALPHAS: Tuple[float, ...] = (1.1, 1.4)
#: Small geometry; 4096 accesses over 512 keys with churn and one flash
#: phase covers warm steady state, retirement and the crowd override.
SERVING_GOLDEN_GEOMETRY: Tuple[int, int] = (32, 4)
SERVING_GOLDEN_ACCESSES = 4096
SERVING_GOLDEN_KEYS = 512
SERVING_GOLDEN_TENANTS = 2
SERVING_GOLDEN_CHURN_PER_MILLION = 50_000
#: Sharded recomputation fan-out, and a deliberately prime feed chunk so
#: batch boundaries land mid-run everywhere.
SERVING_GOLDEN_SHARDS = 4
SERVING_GOLDEN_CHUNK = 509

#: Engine label -> (front-end engine, shards), the committed one first.
_SERVING_ENGINES: Dict[str, Tuple[str, int]] = {
    "scalar": ("scalar", 1),
    f"columnar/shards={SERVING_GOLDEN_SHARDS}": (
        "columnar", SERVING_GOLDEN_SHARDS
    ),
}


class _ServingCorpus(Corpus):
    """Cells are ``(seed, policy, alpha)``."""

    name = "serving"
    path = _GOLDENS_DIR / "serving_goldens.json"
    schema = "repro-serving-goldens/1"
    header = {
        "geometry": list(SERVING_GOLDEN_GEOMETRY),
        "accesses": SERVING_GOLDEN_ACCESSES,
        "keys": SERVING_GOLDEN_KEYS,
        "tenants": SERVING_GOLDEN_TENANTS,
        "churn_per_million": SERVING_GOLDEN_CHURN_PER_MILLION,
        "shards": SERVING_GOLDEN_SHARDS,
        "chunk": SERVING_GOLDEN_CHUNK,
    }

    def cells(self) -> List[tuple]:
        return [
            (seed, policy, alpha)
            for seed in SERVING_GOLDEN_SEEDS
            for policy in SERVING_GOLDEN_POLICIES
            for alpha in SERVING_GOLDEN_ALPHAS
        ]

    def key(self, cell: tuple) -> str:
        seed, policy, alpha = cell
        num_sets, assoc = SERVING_GOLDEN_GEOMETRY
        return (
            f"serve|{policy}|a{alpha}|s{seed}|{num_sets}x{assoc}"
            f"|n{SERVING_GOLDEN_ACCESSES}"
        )

    def engines(self, cell: tuple) -> Tuple[str, ...]:
        return tuple(_SERVING_ENGINES)

    def compute(self, cell: tuple, engine: str) -> int:
        """Miss count through one front-end configuration."""
        from ..serve.frontend import ShardedFrontend
        from ..serve.service import resolve_policy_entries
        from ..serve.workload import (
            ServingSpec,
            ServingStream,
            auto_flash_phases,
        )

        seed, policy, alpha = cell
        frontend_engine, shards = _SERVING_ENGINES[engine]
        num_sets, assoc = SERVING_GOLDEN_GEOMETRY
        _, entries = resolve_policy_entries(policy, assoc)
        frontend = ShardedFrontend(
            num_sets, assoc, entries, shards=shards, engine=frontend_engine
        )
        spec = ServingSpec(
            keys=SERVING_GOLDEN_KEYS,
            alpha=alpha,
            tenants=SERVING_GOLDEN_TENANTS,
            accesses=SERVING_GOLDEN_ACCESSES,
            churn_per_million=SERVING_GOLDEN_CHURN_PER_MILLION,
            phases=auto_flash_phases(SERVING_GOLDEN_ACCESSES, 1),
            seed=seed,
        )
        misses = 0
        for chunk in ServingStream(spec).chunks(SERVING_GOLDEN_CHUNK):
            misses += frontend.process(chunk)
        return misses


CONFORMANCE = _ConformanceCorpus()
COLUMNAR = _ColumnarCorpus()
SERVING = _ServingCorpus()
CORPORA: Tuple[Corpus, ...] = (CONFORMANCE, COLUMNAR, SERVING)


def _committed_entries(corpus: Corpus) -> Dict[str, object]:
    """The committed ``entries`` of ``corpus``.

    Raises ``ValueError`` naming the file when it is missing, unreadable
    or torn, not a JSON object, of another schema, or its ``entries`` is
    not an object.
    """
    path = corpus.path
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{path}: corpus missing (regen needed)") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable corpus: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    if payload.get("schema") != corpus.schema:
        raise ValueError(
            f"{path}: unknown schema {payload.get('schema')!r} "
            f"(expected {corpus.schema!r})"
        )
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"{path}: 'entries' is not a JSON object")
    return entries


def check_corpus(corpus: Corpus) -> Tuple[List[str], int]:
    """Recompute every cell through every engine; name each drift.

    Returns ``(drift_lines, checked_cells)``.  A drift line names the key,
    the engine, the computed and the committed value.  A file that cannot
    be read as this corpus is one drift line naming the file, and so are a
    matrix cell missing from the file and a committed key no longer in the
    matrix, so adding or removing a cell forces a deliberate regeneration.
    """
    try:
        committed = _committed_entries(corpus)
    except ValueError as exc:
        return [str(exc)], 0
    drift: List[str] = []
    checked = 0
    current = {corpus.key(cell): cell for cell in corpus.cells()}
    for key, cell in current.items():
        if key not in committed:
            drift.append(f"{key}: not in {corpus.path.name} (regen needed)")
            continue
        expected = committed[key]
        checked += 1
        for engine in corpus.engines(cell):
            actual = corpus.compute(cell, engine)
            if actual != expected:
                drift.append(
                    f"{key}: {engine} {actual!r} != committed {expected!r}"
                )
    for key in committed:
        if key not in current:
            drift.append(
                f"{key}: in {corpus.path.name} but no longer in the matrix"
            )
    return drift, checked


def write_corpus(corpus: Corpus) -> Dict[str, Tuple[object, object]]:
    """Recompute ``corpus`` and atomically rewrite its file and manifest.

    Every cell runs through every engine; any disagreement raises
    ``AssertionError`` before anything is written, because a corpus
    pinning a divergent engine would institutionalise the bug it exists
    to catch.  Returns ``{key: (old, new)}`` for each entry that moved,
    was added (``old`` is ``None``) or was removed (``new`` is ``None``).
    """
    entries: Dict[str, object] = {}
    for cell in corpus.cells():
        key = corpus.key(cell)
        committed_engine, *others = corpus.engines(cell)
        value = corpus.compute(cell, committed_engine)
        for engine in others:
            other = corpus.compute(cell, engine)
            if other != value:
                raise AssertionError(
                    f"{key}: {engine} {other!r} != {committed_engine} "
                    f"{value!r}; refusing to write a divergent corpus"
                )
        entries[key] = value
    try:
        previous = _committed_entries(corpus)
    except ValueError:
        previous = {}
    payload = dict(corpus.header, schema=corpus.schema, entries=entries)
    write_atomic(
        corpus.path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    write_manifest(
        corpus.path,
        build_manifest(extra={"goldens": {
            "corpus": corpus.name,
            "schema": corpus.schema,
            "entries": len(entries),
        }}),
    )
    return {
        key: (previous.get(key), entries.get(key))
        for key in sorted(set(previous) | set(entries))
        if previous.get(key) != entries.get(key)
    }
