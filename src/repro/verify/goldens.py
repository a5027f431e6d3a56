"""Golden regression corpus: exact miss counts, committed to the repo.

The corpus pins the miss count of every registered policy on a small
deterministic matrix of ``stream x seed x geometry`` cells (the streams
come from :mod:`repro.verify.streams`, the policy kwargs from
:mod:`repro.verify.conformance`, so each entry is fully reproducible from
its key alone).  ``check_golden_corpus`` recomputes every entry and
reports *which* policy/stream/geometry drifted — a behavioural change to
any replacement policy fails conformance with the offender's name, not
just a checksum mismatch.

Regeneration is deliberate and auditable: ``scripts/regen_goldens.py``
rewrites the corpus (with a provenance manifest sidecar recording the
code digest and git revision), and the diff shows exactly which counts
moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "GOLDEN_SCHEMA",
    "DEFAULT_GOLDENS_PATH",
    "COLUMNAR_GOLDEN_SCHEMA",
    "DEFAULT_COLUMNAR_GOLDENS_PATH",
    "SERVING_GOLDEN_SCHEMA",
    "DEFAULT_SERVING_GOLDENS_PATH",
    "golden_matrix",
    "golden_key",
    "compute_golden",
    "compute_goldens",
    "write_golden_corpus",
    "load_golden_corpus",
    "check_golden_corpus",
    "columnar_golden_matrix",
    "columnar_golden_key",
    "compute_columnar_golden",
    "write_columnar_golden_corpus",
    "check_columnar_goldens",
    "serving_golden_matrix",
    "serving_golden_key",
    "compute_serving_golden",
    "write_serving_golden_corpus",
    "check_serving_goldens",
]

#: Bump when the corpus layout changes.
GOLDEN_SCHEMA = "repro-goldens/1"

#: The committed corpus (kept under tests/ so pytest finds it naturally).
DEFAULT_GOLDENS_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests"
    / "goldens"
    / "conformance_goldens.json"
)

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

#: A golden cell: (policy, stream, seed, num_sets, assoc, n).
Cell = Tuple[str, str, int, int, int, int]


def golden_matrix() -> List[Cell]:
    """The full, ordered list of pinned cells."""
    from ..policies.registry import policy_names

    cells: List[Cell] = []
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
                (policy, stream, GOLDEN_SEED, wide_sets, wide_assoc, GOLDEN_N)
            )
    return cells


def golden_key(cell: Cell) -> str:
    policy, stream, seed, num_sets, assoc, n = cell
    return f"{policy}|{stream}|s{seed}|{num_sets}x{assoc}|n{n}"


def compute_golden(cell: Cell) -> int:
    """Miss count for one cell, recomputed from scratch."""
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


def compute_goldens(
    cells: Optional[List[Cell]] = None,
) -> Dict[str, int]:
    """Recompute the whole corpus (key -> miss count)."""
    if cells is None:
        cells = golden_matrix()
    return {golden_key(cell): compute_golden(cell) for cell in cells}


def write_golden_corpus(
    path: Union[str, Path, None] = None,
    with_manifest: bool = True,
) -> Path:
    """Atomically (re)write the committed corpus, plus its provenance
    manifest sidecar when ``with_manifest`` is set."""
    path = Path(path) if path is not None else DEFAULT_GOLDENS_PATH
    entries = compute_goldens()
    payload = {
        "schema": GOLDEN_SCHEMA,
        "seed": GOLDEN_SEED,
        "n": GOLDEN_N,
        "streams": list(GOLDEN_STREAMS),
        "geometries": [list(GOLDEN_GEOMETRY), list(GOLDEN_WIDE_GEOMETRY)],
        "entries": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    if with_manifest:
        from ..obs.provenance import build_manifest, write_manifest

        write_manifest(
            path,
            build_manifest(
                extra={
                    "goldens": {
                        "schema": GOLDEN_SCHEMA,
                        "entries": len(entries),
                        "seed": GOLDEN_SEED,
                        "n": GOLDEN_N,
                    }
                }
            ),
        )
    return path


def load_golden_corpus(path: Union[str, Path, None] = None) -> dict:
    path = Path(path) if path is not None else DEFAULT_GOLDENS_PATH
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"{path}: unknown goldens schema {payload.get('schema')!r}"
        )
    return payload


def check_golden_corpus(
    path: Union[str, Path, None] = None,
) -> Tuple[List[str], int]:
    """Recompute every committed entry and name each drifting cell.

    Returns ``(drift_messages, checked_count)``.  A missing corpus file is
    itself reported as drift (the gate must not silently pass when the
    corpus was deleted); cells present in the current matrix but absent
    from the corpus — or vice versa — are reported too, so adding or
    removing a policy forces a deliberate regeneration.
    """
    target = Path(path) if path is not None else DEFAULT_GOLDENS_PATH
    try:
        payload = load_golden_corpus(target)
    except FileNotFoundError:
        return [f"golden corpus missing: {target}"], 0
    except ValueError as exc:
        return [str(exc)], 0
    committed: Dict[str, int] = dict(payload.get("entries", {}))
    drift: List[str] = []
    checked = 0
    current = {golden_key(cell): cell for cell in golden_matrix()}
    for key, cell in current.items():
        if key not in committed:
            drift.append(f"{key}: not in committed corpus (regen needed)")
            continue
        expected = committed[key]
        actual = compute_golden(cell)
        checked += 1
        if actual != expected:
            drift.append(
                f"{key}: misses {actual} != committed {expected}"
            )
    for key in committed:
        if key not in current:
            drift.append(f"{key}: committed but no longer in the matrix")
    return drift, checked


# ----------------------------------------------------------------------
# Columnar-engine corpus: kernel-identity goldens.
#
# A second, smaller corpus pinning the columnar batch engine against the
# scalar kernels.  Each multi-lane cell commits the per-lane miss counts
# once; the checker recomputes them through *every* kernel (walk, LUT and
# the columnar engine — including a deliberately ragged chunk size) and
# names the engine that drifted.  Duel cells pin the set-dueling engine
# ``repro compare`` runs, :func:`repro.engine.scalar.simulate_duel` (final
# PSEL value included), against the per-access DGIPPR policy.
# ----------------------------------------------------------------------
COLUMNAR_GOLDEN_SCHEMA = "repro-columnar-goldens/1"

DEFAULT_COLUMNAR_GOLDENS_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests"
    / "goldens"
    / "columnar_goldens.json"
)

#: Deliberately prime and far below any trace length: every chunk
#: boundary lands mid-trace, so ragged step-transpose tails are pinned.
COLUMNAR_GOLDEN_BATCH = 193

COLUMNAR_GOLDEN_STREAMS: Tuple[str, ...] = (
    "cyclic-over-capacity",
    "zipf-hot",
    "single-set-hammer",
)
COLUMNAR_DUEL_STREAMS: Tuple[str, ...] = ("duel-flip", "zipf-hot")

#: (kind, stream, seed, num_sets, assoc, n, warmup); kind "ipv" pins the
#: lockstep batch engine, "duel" the three-pass set-dueling engine.
ColumnarCell = Tuple[str, str, int, int, int, int, int]

#: Engines each kind is recomputed through, the pinned engine first and
#: its reference second.
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


def columnar_golden_matrix() -> List[ColumnarCell]:
    """The full, ordered list of columnar cells."""
    cells: List[ColumnarCell] = []
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


def columnar_golden_key(cell: ColumnarCell) -> str:
    kind, stream, seed, num_sets, assoc, n, warmup = cell
    return f"{kind}|{stream}|s{seed}|{num_sets}x{assoc}|n{n}|w{warmup}"


def compute_columnar_golden(cell: ColumnarCell, engine: str = "columnar"):
    """One cell's value through one engine.

    ``ipv`` cells return the per-lane miss-count list; ``engine`` selects
    ``"columnar"`` (ragged-chunk batch run), ``"walk"`` or ``"lut"``
    (scalar loop per lane).  ``duel`` cells return
    ``{"misses": [...], "psel": [...]}`` via
    :func:`~repro.engine.scalar.simulate_duel` (``"simulate_duel"``) or
    the walk-kernel DGIPPR policy run per access (``"scalar"``).
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
        from ..core.dueling import make_selector
        from ..engine.scalar import simulate_duel

        for pair in pairs:
            selector = make_selector(num_sets, 2)
            misses.append(simulate_duel(
                accesses, num_sets, assoc, pair, selector, warmup
            ))
            psels.append(selector.psel.value)
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
        psels.append(policy.selector.psel.value)
    return {"misses": misses, "psel": psels}


def write_columnar_golden_corpus(
    path: Union[str, Path, None] = None,
    with_manifest: bool = True,
) -> Path:
    """Atomically (re)write the committed columnar corpus.

    Refuses to write when the engines disagree — a corpus pinning a
    divergent engine would institutionalise the bug it exists to catch.
    """
    path = Path(path) if path is not None else DEFAULT_COLUMNAR_GOLDENS_PATH
    entries: Dict[str, object] = {}
    for cell in columnar_golden_matrix():
        key = columnar_golden_key(cell)
        engine, reference_engine = _COLUMNAR_ENGINES[cell[0]][:2]
        value = compute_columnar_golden(cell, engine=engine)
        reference = compute_columnar_golden(cell, engine=reference_engine)
        if value != reference:
            raise AssertionError(
                f"{key}: {engine} {value!r} != {reference_engine} "
                f"{reference!r}; refusing to write a divergent corpus"
            )
        entries[key] = value
    payload = {
        "schema": COLUMNAR_GOLDEN_SCHEMA,
        "batch_accesses": COLUMNAR_GOLDEN_BATCH,
        "entries": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    if with_manifest:
        from ..obs.provenance import build_manifest, write_manifest

        write_manifest(
            path,
            build_manifest(
                extra={
                    "columnar_goldens": {
                        "schema": COLUMNAR_GOLDEN_SCHEMA,
                        "entries": len(entries),
                        "batch_accesses": COLUMNAR_GOLDEN_BATCH,
                    }
                }
            ),
        )
    return path


def check_columnar_goldens(
    path: Union[str, Path, None] = None,
) -> Tuple[List[str], int]:
    """Recompute the columnar corpus through every engine; name drifters.

    Each ipv cell is recomputed via the columnar engine, the walk and the
    LUT; each duel cell via :func:`~repro.engine.scalar.simulate_duel`
    and the per-access DGIPPR policy.  Any engine disagreeing with the
    committed value is reported by name.
    """
    target = (
        Path(path) if path is not None else DEFAULT_COLUMNAR_GOLDENS_PATH
    )
    try:
        with open(target) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return [f"columnar golden corpus missing: {target}"], 0
    if payload.get("schema") != COLUMNAR_GOLDEN_SCHEMA:
        return [
            f"{target}: unknown columnar goldens schema "
            f"{payload.get('schema')!r}"
        ], 0
    committed: Dict[str, object] = dict(payload.get("entries", {}))
    drift: List[str] = []
    checked = 0
    current = {
        columnar_golden_key(cell): cell for cell in columnar_golden_matrix()
    }
    for key, cell in current.items():
        if key not in committed:
            drift.append(f"{key}: not in committed columnar corpus")
            continue
        expected = committed[key]
        checked += 1
        for engine in _COLUMNAR_ENGINES[cell[0]]:
            actual = compute_columnar_golden(cell, engine=engine)
            if actual != expected:
                drift.append(
                    f"{key}: {engine} {actual!r} != committed {expected!r}"
                )
    for key in committed:
        if key not in current:
            drift.append(
                f"{key}: committed but no longer in the columnar matrix"
            )
    return drift, checked


# ----------------------------------------------------------------------
# Serving corpus: the streaming Zipf key-value scenario, end to end.
#
# Each cell pins the exact miss count of one serving spec (Zipf alpha,
# key churn, flash-crowd phases, two tenants) on a small geometry — the
# generator, the set-sharded front-end and the streaming engines all sit
# inside the pinned number.  The committed value comes from the
# single-shard pure-scalar reference; the checker recomputes it there
# *and* through the sharded columnar front-end, so a drift message names
# both the cell and the engine that moved.
# ----------------------------------------------------------------------
SERVING_GOLDEN_SCHEMA = "repro-serving-goldens/1"

DEFAULT_SERVING_GOLDENS_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests"
    / "goldens"
    / "serving_goldens.json"
)

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

#: (seed, policy, alpha)
ServingCell = Tuple[int, str, float]


def serving_golden_matrix() -> List[ServingCell]:
    """The full, ordered list of serving cells (seeds x policies x alphas)."""
    return [
        (seed, policy, alpha)
        for seed in SERVING_GOLDEN_SEEDS
        for policy in SERVING_GOLDEN_POLICIES
        for alpha in SERVING_GOLDEN_ALPHAS
    ]


def serving_golden_key(cell: ServingCell) -> str:
    seed, policy, alpha = cell
    num_sets, assoc = SERVING_GOLDEN_GEOMETRY
    return (
        f"serve|{policy}|a{alpha}|s{seed}|{num_sets}x{assoc}"
        f"|n{SERVING_GOLDEN_ACCESSES}"
    )


def _serving_golden_spec(cell: ServingCell):
    from ..serve.workload import ServingSpec, auto_flash_phases

    seed, _, alpha = cell
    return ServingSpec(
        keys=SERVING_GOLDEN_KEYS,
        alpha=alpha,
        tenants=SERVING_GOLDEN_TENANTS,
        accesses=SERVING_GOLDEN_ACCESSES,
        churn_per_million=SERVING_GOLDEN_CHURN_PER_MILLION,
        phases=auto_flash_phases(SERVING_GOLDEN_ACCESSES, 1),
        seed=seed,
    )


def compute_serving_golden(
    cell: ServingCell, engine: str = "scalar", shards: int = 1
) -> int:
    """One cell's miss count through one front-end configuration."""
    from ..serve.frontend import ShardedFrontend
    from ..serve.service import resolve_policy_entries
    from ..serve.workload import ServingStream

    _, policy, _ = cell
    num_sets, assoc = SERVING_GOLDEN_GEOMETRY
    _, entries = resolve_policy_entries(policy, assoc)
    frontend = ShardedFrontend(
        num_sets, assoc, entries, shards=shards, engine=engine
    )
    misses = 0
    stream = ServingStream(_serving_golden_spec(cell))
    for chunk in stream.chunks(SERVING_GOLDEN_CHUNK):
        misses += frontend.process(chunk)
    return misses


def write_serving_golden_corpus(
    path: Union[str, Path, None] = None,
    with_manifest: bool = True,
) -> Path:
    """Atomically (re)write the committed serving corpus.

    The committed value is the single-shard pure-scalar reference; the
    sharded columnar front-end is recomputed too and any disagreement
    aborts the write — the corpus must never pin a diverging engine pair.
    """
    path = (
        Path(path) if path is not None else DEFAULT_SERVING_GOLDENS_PATH
    )
    entries: Dict[str, int] = {}
    for cell in serving_golden_matrix():
        key = serving_golden_key(cell)
        value = compute_serving_golden(cell, engine="scalar", shards=1)
        sharded = compute_serving_golden(
            cell, engine="columnar", shards=SERVING_GOLDEN_SHARDS
        )
        if sharded != value:
            raise AssertionError(
                f"{key}: sharded columnar misses {sharded} != scalar "
                f"reference {value}; refusing to write a divergent corpus"
            )
        entries[key] = value
    payload = {
        "schema": SERVING_GOLDEN_SCHEMA,
        "geometry": list(SERVING_GOLDEN_GEOMETRY),
        "accesses": SERVING_GOLDEN_ACCESSES,
        "keys": SERVING_GOLDEN_KEYS,
        "tenants": SERVING_GOLDEN_TENANTS,
        "churn_per_million": SERVING_GOLDEN_CHURN_PER_MILLION,
        "shards": SERVING_GOLDEN_SHARDS,
        "chunk": SERVING_GOLDEN_CHUNK,
        "entries": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    if with_manifest:
        from ..obs.provenance import build_manifest, write_manifest

        write_manifest(
            path,
            build_manifest(
                extra={
                    "serving_goldens": {
                        "schema": SERVING_GOLDEN_SCHEMA,
                        "entries": len(entries),
                        "columnar_cross_checked": True,
                    }
                }
            ),
        )
    return path


def check_serving_goldens(
    path: Union[str, Path, None] = None,
) -> Tuple[List[str], int]:
    """Recompute the serving corpus and name each drifting cell.

    Every cell is recomputed through the single-shard scalar reference
    and through the ``SERVING_GOLDEN_SHARDS``-way columnar front-end; a
    drift message names the cell *and* the configuration that moved.
    """
    target = (
        Path(path) if path is not None else DEFAULT_SERVING_GOLDENS_PATH
    )
    try:
        with open(target) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return [f"serving golden corpus missing: {target}"], 0
    if payload.get("schema") != SERVING_GOLDEN_SCHEMA:
        return [
            f"{target}: unknown serving goldens schema "
            f"{payload.get('schema')!r}"
        ], 0
    configs: List[Tuple[str, str, int]] = [
        ("scalar", "scalar", 1),
        (
            f"columnar/shards={SERVING_GOLDEN_SHARDS}",
            "columnar",
            SERVING_GOLDEN_SHARDS,
        ),
    ]
    committed: Dict[str, int] = dict(payload.get("entries", {}))
    drift: List[str] = []
    checked = 0
    current = {
        serving_golden_key(cell): cell for cell in serving_golden_matrix()
    }
    for key, cell in current.items():
        if key not in committed:
            drift.append(f"{key}: not in committed serving corpus")
            continue
        expected = committed[key]
        checked += 1
        for label, engine, shards in configs:
            actual = compute_serving_golden(
                cell, engine=engine, shards=shards
            )
            if actual != expected:
                drift.append(
                    f"{key}: {label} misses {actual} != committed "
                    f"{expected}"
                )
    for key in committed:
        if key not in current:
            drift.append(
                f"{key}: committed but no longer in the serving matrix"
            )
    return drift, checked
