"""Analytic IPV fitness surrogate: O(1) prefilter for paper-scale GAs.

The paper ran GA populations of 20 000 on a 200-CPU cluster.  After the
columnar engine the per-candidate cost is small but every candidate still
pays a full trace simulation, so *population scale* is the bottleneck.
This module removes it with three cooperating pieces:

1. **Per-trace features** (:class:`WorkloadFeatures`).  The vectorized
   Mattson profiler (:func:`repro.obs.analytics.profile_trace`) computes,
   once per ``(trace, num_sets)``, the aggregate per-set stack-distance
   histogram — the sufficient statistic for *every* LRU-like miss
   estimate.  Features are memoized in-process (bounded LRU, like the
   workload memos of :mod:`repro.ga.fitness`) and cached on disk in the
   eval result-cache directory keyed by a digest of the trace bytes, so a
   20k-population run pays the profiling cost once, ever.

2. **An analytic miss-rate surrogate** (:class:`SurrogateModel`), a
   Che/Fagin-style closed form over the per-start survival depths of a
   block-touch Markov chain.  In distinct-address units a block at
   recency position ``p`` is pushed down by an intervening first-touch
   event only if the event comes *from below* — a hit at source depth
   ``s > p`` promoted to ``promo[s] <= p`` — or misses (insertion at
   ``ins <= p``; the bottom position is additionally evicted by every
   miss).  Events that stay above ``p`` are excluded and the rates
   renormalised:

       ``q(p) = [fr·push_miss(p) + (1-fr)·sum_{s>p} Wh[s]·[promo[s]<=p]]
                / [fr + (1-fr)·sum_{s>p} Wh[s]]``

   A block left at ``t`` then survives ``N(t) = sum_{p=t}^{k-1} 1/q(p)``
   distinct addresses, and its reuse-miss probability is read off the
   trace's Mattson curve at ``N(t)``.  Which start positions matter is a
   Markov chain over touches: a hit at ``s`` moves the block to
   ``promo[s]``, a miss teleports it to ``ins``, and births follow the
   cold-fill distribution — fills into a not-yet-full set land at
   ``min(ins, fill order)``, the founder effect that lets deep insertion
   pin early reused blocks.  Because protected positions are absorbing
   on trace timescales the chain is averaged over *touch indices* with
   exact weights from the per-block touch-count histogram (reuse events
   are size-biased toward hot blocks; a geometric approximation inverts
   rankings on hit-rich workloads), and the environment (``fr``,
   ``Wh``) is refreshed from the chain's own solution for a few outer
   passes.  For the true-LRU vector the push numerator equals the
   denominator at every ``p``, so ``q == 1``, ``N == k`` and the model
   reproduces the exact LRU miss count — the anchor the correctness
   tests pin down.  The model lives in recency-stack (Mattson) space:
   against the ``substrate="lru"`` simulator rank fidelity is high
   (Spearman rho ~0.8+ on streaming workloads); the tree-PLRU substrate
   adds genuine reordering the stack model cannot see (the two
   *simulators* only agree at rho ~0.6), which is precisely what the
   prefilter's self-audit-and-deactivate safety net is for.  All
   parameters are per-workload (each workload simulates on its own
   cache).  Scoring a whole population is a few numpy einsums per
   workload over ``(N, k, k)`` tensors — milliseconds for 20k
   candidates.

3. **A prefilter + self-audit stage** (:class:`SurrogatePrefilter`) and a
   **cross-generation fitness memo** (:class:`FitnessMemo`).  The
   prefilter ranks a candidate batch analytically and only the top
   ``keep`` fraction (plus a random control sample) is simulated; the
   control sample's surrogate-vs-simulated Spearman rank correlation is
   reported live, and if it drops below ``rho_floor`` the prefilter
   *refuses to prefilter* (with a warning) and the search falls back to
   simulating everything.  The memo guarantees a canonical IPV tuple is
   never simulated twice in a run — across generations, hill-climbing
   passes and duplicate genomes alike — while returning the exact float
   the simulator produced (bit-identical results by construction).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import random
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ipv import IPV, lru_ipv
from ..obs.spans import span
from .fitness import FitnessEvaluator, _validate_ipv_entries

__all__ = [
    "SURROGATE_SCHEMA",
    "FitnessMemo",
    "SurrogateModel",
    "SurrogatePrefilter",
    "WorkloadFeatures",
    "clear_feature_memo",
    "feature_memo_stats",
    "features_for_trace",
    "publish_surrogate_gauges",
    "spearman_rho",
    "surrogate_code_version",
    "trace_digest",
]

logger = logging.getLogger(__name__)

#: Bump when the on-disk feature payload layout (or the feature
#: definition itself) changes — old cache entries then miss cleanly.
SURROGATE_SCHEMA = "repro-surrogate-features/2"

#: Feature histograms keep per-set stack distances up to ``depth - 1``
#: exactly plus one tail bucket; 8x a 16-way associativity leaves ample
#: headroom for effective depths beyond ``k`` (scan resistance) while
#: keeping the cached payload tiny.
DEFAULT_FEATURE_DEPTH_FACTOR = 8

#: Push probabilities are floored here before inversion: a structurally
#: unreachable position (q == 0) means "effectively never evicted", which
#: the depth clamp turns into the feature-depth ceiling rather than inf.
_Q_FLOOR = 1e-9

#: Fixed-point refinements of the environment (miss rate + promotion
#: targets); the LRU-seeded first pass is usually within a few percent
#: and the anchor cases are exact fixed points, so few passes suffice.
_OUTER_ITERS = 4

#: Power-iteration steps for the per-candidate stationary distribution.
#: Misses teleport the chain to the insertion state, so mass mixes
#: geometrically and 16 steps resolve it far below rank resolution.
_POWER_ITERS = 16

#: Candidates scored per numpy pass: bounds the (chunk, k, k) one-hot
#: promotion tensor to a few MB regardless of population size.
_SCORE_CHUNK = 4096

#: Per-block touch-count histogram buckets (last bucket: >= cap).  Must
#: exceed ``_POWER_ITERS + 2`` so every chain step's weight is exact.
_TOUCH_CAP = 64


# ----------------------------------------------------------------------
# Feature extraction.
# ----------------------------------------------------------------------
def trace_digest(addresses: Sequence[int]) -> str:
    """sha256 over the trace's int64-LE address bytes (cache identity)."""
    return hashlib.sha256(
        np.ascontiguousarray(addresses, dtype="<i8").tobytes()
    ).hexdigest()


_surrogate_code_memo: Optional[str] = None


def surrogate_code_version() -> str:
    """Digest over the sources that determine feature *values*.

    The eval-cache ``code_version`` tracks simulator semantics; features
    additionally depend on this module and the Mattson profiler, so their
    disk entries carry their own digest and invalidate independently.
    """
    global _surrogate_code_memo
    if _surrogate_code_memo is not None:
        return _surrogate_code_memo
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for rel in ("ga/surrogate.py", "obs/analytics/profile.py"):
        try:
            digest.update((root / rel).read_bytes())
        except OSError:  # pragma: no cover - racing file removal
            pass
        digest.update(b"\0")
    _surrogate_code_memo = digest.hexdigest()[:16]
    return _surrogate_code_memo


class WorkloadFeatures:
    """Sufficient statistics of one trace for the analytic surrogate.

    ``counts[d]`` aggregates, over all sets, the reuses at per-set stack
    distance ``d`` (``d < depth``); ``tail`` collects ``d >= depth``;
    ``cold`` is the compulsory misses.  :meth:`misses_at` is then the
    exact set-associative LRU miss count at any integer depth ``c``
    ``<= depth`` — the Mattson identity the surrogate interpolates.
    """

    __slots__ = ("accesses", "cold", "counts", "tail", "depth", "touches",
                 "_suffix")

    def __init__(self, accesses: int, cold: int, counts: Sequence[int],
                 tail: int, depth: int,
                 touches: Optional[Sequence[int]] = None):
        self.accesses = int(accesses)
        self.cold = int(cold)
        self.counts = [int(c) for c in counts]
        self.tail = int(tail)
        self.depth = int(depth)
        #: touches[m-1] = # distinct blocks touched exactly m times
        #: (last bucket: >= len(touches) touches); sizes the per-step
        #: weights of the block-touch chain.  ``None`` falls back to a
        #: geometric approximation in the model.
        self.touches = [int(t) for t in touches] if touches else None
        if len(self.counts) != self.depth:
            raise ValueError(
                f"expected {self.depth} distance buckets, got {len(self.counts)}"
            )
        # suffix[c] = misses at integer depth c, c in 0..depth.
        suffix = [0.0] * (self.depth + 1)
        running = float(self.cold + self.tail)
        suffix[self.depth] = running
        for d in range(self.depth - 1, -1, -1):
            running += self.counts[d]
            suffix[d] = running
        self._suffix = suffix

    def misses_at(self, depth: Union[int, float]) -> float:
        """LRU misses at (possibly fractional) per-set depth ``depth``.

        Integer depths reproduce the simulator exactly (whole trace, no
        warmup window); fractional depths interpolate linearly between
        the two neighbouring Mattson points.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        clamped = min(float(depth), float(self.depth))
        lo = int(math.floor(clamped))
        hi = min(lo + 1, self.depth)
        frac = clamped - lo
        return self._suffix[lo] * (1.0 - frac) + self._suffix[hi] * frac

    def to_payload(self) -> dict:
        payload = {
            "schema": SURROGATE_SCHEMA,
            "accesses": self.accesses,
            "cold": self.cold,
            "counts": list(self.counts),
            "tail": self.tail,
            "depth": self.depth,
        }
        if self.touches is not None:
            payload["touches"] = list(self.touches)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "WorkloadFeatures":
        if payload.get("schema") != SURROGATE_SCHEMA:
            raise ValueError("not a surrogate feature payload")
        return cls(payload["accesses"], payload["cold"], payload["counts"],
                   payload["tail"], payload["depth"],
                   touches=payload.get("touches"))


def _feature_cache_path(root: Path, key: str) -> Path:
    return root / "surrogate" / key[:2] / f"{key}.json"


def _feature_cache_key(digest: str, num_sets: int, depth: int) -> str:
    payload = {
        "schema": SURROGATE_SCHEMA,
        "code": surrogate_code_version(),
        "trace": digest,
        "num_sets": int(num_sets),
        "depth": int(depth),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _feature_cache_get(root: Path, key: str) -> Optional[WorkloadFeatures]:
    try:
        with open(_feature_cache_path(root, key)) as handle:
            payload = json.load(handle)
        return WorkloadFeatures.from_payload(payload)
    except (OSError, ValueError, KeyError):
        return None


def _feature_cache_put(root: Path, key: str, features: WorkloadFeatures) -> None:
    path = _feature_cache_path(root, key)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w") as handle:
            json.dump(features.to_payload(), handle, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError:  # pragma: no cover - cache dir unwritable
        try:
            tmp.unlink()
        except OSError:
            pass


# In-process bounded memo, keyed by the trace *derivation* (not address
# list identity) exactly like the ColumnarTrace memo in ga.fitness.
_FEATURE_MEMO: "OrderedDict[tuple, WorkloadFeatures]" = OrderedDict()
_FEATURE_MEMO_LIMIT = 128
_FEATURE_MEMO_STATS = {"hits": 0, "misses": 0, "disk_hits": 0, "evictions": 0}


def clear_feature_memo() -> None:
    """Drop the in-process feature memo (tests, memory pressure)."""
    _FEATURE_MEMO.clear()
    for key in _FEATURE_MEMO_STATS:
        _FEATURE_MEMO_STATS[key] = 0


def feature_memo_stats() -> dict:
    """Snapshot of the feature memo: size, limit, hit/miss/disk/evict."""
    lookups = _FEATURE_MEMO_STATS["hits"] + _FEATURE_MEMO_STATS["misses"]
    return {
        "size": len(_FEATURE_MEMO),
        "limit": _FEATURE_MEMO_LIMIT,
        "hits": _FEATURE_MEMO_STATS["hits"],
        "misses": _FEATURE_MEMO_STATS["misses"],
        "disk_hits": _FEATURE_MEMO_STATS["disk_hits"],
        "evictions": _FEATURE_MEMO_STATS["evictions"],
        "hit_rate": (
            _FEATURE_MEMO_STATS["hits"] / lookups if lookups else 0.0
        ),
    }


def _touch_histogram(addresses: Sequence[int]) -> List[int]:
    """``hist[m-1]`` = # distinct blocks touched exactly ``m`` times
    (last bucket: >= ``_TOUCH_CAP``)."""
    _unique, counts = np.unique(
        np.asarray(addresses, dtype=np.int64), return_counts=True
    )
    capped = np.minimum(counts, _TOUCH_CAP)
    return np.bincount(capped, minlength=_TOUCH_CAP + 1)[1:].tolist()


def features_for_trace(
    addresses: Sequence[int],
    num_sets: int,
    depth: int,
    memo_key: Optional[tuple] = None,
    cache_dir: Union[None, bool, str, Path] = True,
) -> WorkloadFeatures:
    """Features of one trace, via the in-process memo and the disk cache.

    ``memo_key`` is the trace derivation (benchmark, simpoint, length,
    capacity, seed); ``None`` skips the in-process memo (ad-hoc traces).
    ``cache_dir`` follows :func:`repro.eval.parallel.resolve_cache_dir`
    semantics: ``True`` uses the eval result-cache directory, a path uses
    that directory, ``None``/``False`` disables the disk layer.
    """
    full_key = None
    if memo_key is not None:
        full_key = tuple(memo_key) + (num_sets, depth)
        cached = _FEATURE_MEMO.get(full_key)
        if cached is not None:
            _FEATURE_MEMO_STATS["hits"] += 1
            _FEATURE_MEMO.move_to_end(full_key)
            return cached
        _FEATURE_MEMO_STATS["misses"] += 1

    from ..eval.parallel import resolve_cache_dir

    root = resolve_cache_dir(cache_dir)
    disk_key = None
    features = None
    if root is not None:
        disk_key = _feature_cache_key(trace_digest(addresses), num_sets, depth)
        features = _feature_cache_get(root, disk_key)
        if features is not None:
            _FEATURE_MEMO_STATS["disk_hits"] += 1
    if features is None:
        with span("surrogate.profile", accesses=len(addresses),
                  num_sets=num_sets):
            from ..obs.analytics import profile_trace

            profile = profile_trace(
                addresses, num_sets=num_sets, max_distance=depth
            )
        counts = [0] * depth
        tail = 0
        for row in profile.set_distance_counts:
            for d in range(depth):
                counts[d] += row[d]
            tail += row[depth]  # the capped bucket collects d >= depth
        features = WorkloadFeatures(
            profile.accesses, sum(profile.set_cold), counts, tail, depth,
            touches=_touch_histogram(addresses),
        )
        if root is not None and disk_key is not None:
            _feature_cache_put(root, disk_key, features)
    if full_key is not None:
        _FEATURE_MEMO[full_key] = features
        while len(_FEATURE_MEMO) > _FEATURE_MEMO_LIMIT:
            _FEATURE_MEMO.popitem(last=False)
            _FEATURE_MEMO_STATS["evictions"] += 1
    return features


# ----------------------------------------------------------------------
# The analytic model.
# ----------------------------------------------------------------------
def _step_weights(feat: WorkloadFeatures) -> List[float]:
    """Reuse-event weight of each block-touch chain step.

    A block touched ``m`` times contributes reuses at chain steps
    ``0..m-2``, so the fraction of *reuse events* happening at step ``t``
    is ``#blocks with >= t+2 touches / total reuses`` — exact from the
    touch histogram.  Reuse mass is size-biased toward hot blocks, whose
    late touches sit in the converged (protected) regime; a geometric
    approximation (matching only the mean touches/block) badly
    underweights that regime on Zipf-like traces and inverts rankings on
    hit-rich workloads.  Weights sum to < 1; the remainder belongs to
    steps beyond ``_POWER_ITERS`` and is applied to the converged state.
    """
    reuses = feat.accesses - feat.cold
    if reuses <= 0:
        return [1.0] + [0.0] * (_POWER_ITERS - 1)
    touches = feat.touches
    if touches:
        # ge[r-1] = # blocks with >= r touches (cap bucket = >= len).
        ge = list(touches)
        for i in range(len(ge) - 2, -1, -1):
            ge[i] += ge[i + 1]
        weights = []
        for t in range(_POWER_ITERS):
            r = t + 2
            count = ge[r - 1] if r - 1 < len(ge) else ge[-1]
            weights.append(count / reuses)
        return weights
    # No histogram (legacy payload): geometric with the mean reuse rate.
    gamma = reuses / feat.accesses if feat.accesses else 0.0
    return [(1.0 - gamma) * gamma ** t for t in range(_POWER_ITERS)]


class SurrogateModel:
    """Closed-form IPV fitness estimate over an evaluator's workloads.

    Scores live in the same units as the simulated fitness (mean
    linear-CPI speedup over a predicted-LRU baseline) so surrogate and
    simulator values are directly rank-comparable; only the *ranking* is
    consumed by the prefilter.
    """

    def __init__(
        self,
        assoc: int,
        workloads: Sequence[Tuple[str, float, int, float, WorkloadFeatures]],
        base_cpi: float,
        miss_penalty: float,
        num_sets: Optional[int] = None,
    ):
        """``workloads`` rows: (name, weight, instructions, measured_frac,
        features).  ``num_sets`` enables the cold-fill (founder) birth
        states — fills into a not-yet-full set land at ``min(ins, fill
        order)``, not at ``ins`` — which dominate whenever the footprint
        is within a small factor of the cache capacity."""
        if assoc < 2:
            raise ValueError("assoc must be at least 2")
        self.assoc = assoc
        self.num_sets = num_sets
        self.workloads = list(workloads)
        if not self.workloads:
            raise ValueError("surrogate model needs at least one workload")
        self.base_cpi = float(base_cpi)
        self.miss_penalty = float(miss_penalty)
        self.depth = min(w[4].depth for w in self.workloads)
        k = assoc
        # Per-workload model parameters (each workload simulates on its
        # own cache): the LRU miss fraction fr — the *initial* guess for
        # the policy's environment miss rate, refined by the fixed point
        # — and the LRU hit-depth distribution Wh[d] seeding the
        # promotion-target crossing probabilities.
        self._params: List[Dict[str, object]] = []
        for _name, _weight, _instr, _frac, feat in self.workloads:
            lru_misses = feat.misses_at(k)
            fr = lru_misses / feat.accesses if feat.accesses else 1.0
            hits = [
                float(feat.counts[d]) for d in range(min(k, feat.depth))
            ]
            hits += [0.0] * (k - len(hits))
            hit_total = sum(hits)
            wh = [h / hit_total for h in hits] if hit_total else [0.0] * k
            self._params.append({
                "fr": fr, "wh": wh, "step_w": _step_weights(feat),
            })
        # Predicted LRU baseline cycles per benchmark name (the surrogate
        # twin of FitnessEvaluator._lru_cycles).
        self._base_cycles: Dict[str, float] = {}
        for name, weight, instructions, frac, feat in self.workloads:
            cycles = (instructions * self.base_cpi
                      + feat.misses_at(k) * frac * self.miss_penalty)
            self._base_cycles[name] = (
                self._base_cycles.get(name, 0.0) + weight * cycles
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_evaluator(
        cls,
        evaluator: FitnessEvaluator,
        cache_dir: Union[None, bool, str, Path] = True,
        depth_factor: int = DEFAULT_FEATURE_DEPTH_FACTOR,
    ) -> "SurrogateModel":
        """Build the model from a :class:`FitnessEvaluator`'s workloads.

        Reuses the evaluator's exact trace derivations (so the in-process
        feature memo and disk cache are shared with any other model built
        over the same traces) and its timing constants.
        """
        cfg = evaluator.config
        depth = max(depth_factor * cfg.assoc, 4 * cfg.assoc)
        rows: List[Tuple[str, float, int, float, WorkloadFeatures]] = []
        with span("surrogate.features", workloads=len(evaluator._workloads)):
            for index, (name, weight, addresses, instructions, _pos) in (
                enumerate(evaluator._workloads)
            ):
                wname, simpoint = evaluator._workload_keys[index]
                memo_key = (wname, simpoint, cfg.trace_length,
                            cfg.capacity_blocks, cfg.seed)
                features = features_for_trace(
                    addresses, cfg.num_sets, depth,
                    memo_key=memo_key, cache_dir=cache_dir,
                )
                frac = max(
                    0.0, 1.0 - cfg.warmup_accesses / max(1, len(addresses))
                )
                rows.append((name, weight, instructions, frac, features))
        return cls(cfg.assoc, rows, evaluator.timing.base_cpi,
                   evaluator.timing.miss_penalty, num_sets=cfg.num_sets)

    # ------------------------------------------------------------------
    def _entries_matrix(self, ipvs: Sequence) -> List[Tuple[int, ...]]:
        out = []
        for ipv in ipvs:
            entries = tuple(ipv.entries if isinstance(ipv, IPV) else ipv)
            _validate_ipv_entries(entries, self.assoc)
            out.append(entries)
        return out

    def _batch_arrays(self, batch: List[Tuple[int, ...]]):
        """Population-shaped arrays reused by every workload pass."""
        k = self.assoc
        n = len(batch)
        entries = np.asarray(batch, dtype=np.int64)
        promo = entries[:, :k]
        ins = entries[:, k]
        positions = np.arange(k, dtype=np.int64)
        # ind[n, d, p] = [promo[n, d] <= p]; insmask[n, p] = [ins[n] <= p].
        ind = (promo[:, :, None] <= positions[None, None, :]).astype(
            np.float64
        )
        insmask = (ins[:, None] <= positions[None, :]).astype(np.float64)
        # onehot[n, s, t] = [promo[n, s] == t]: the hit-promotion move.
        onehot = (promo[:, :, None] == positions[None, None, :]).astype(
            np.float64
        )
        ins_onehot = np.zeros((n, k), dtype=np.float64)
        ins_onehot[np.arange(n), ins] = 1.0
        return promo, ins, ind, insmask, onehot, ins_onehot

    def _workload_predict(
        self, arrays, feat: WorkloadFeatures, params: Dict[str, object]
    ):
        """Predicted misses + mean protected depth for one workload.

        Vectorised fixed point of the block-touch Markov chain: a reuse
        from start position ``s`` survives its gap with probability read
        off the Mattson curve at the survival threshold ``N(s)``; a hit
        at ``s`` moves the block to ``promo[s]``, a miss teleports it to
        the fill state ``ins``.  Because protected positions are
        absorbing on trace timescales, the chain is averaged over a
        block's *touch sequence* (geometric weights with the per-block
        reuse rate) from the cold-fill birth distribution — founders
        born into a not-yet-full set land at ``min(ins, fill order)``,
        the effect that makes deep insertion pin early reused blocks —
        rather than evaluated at its stationary point.  The environment
        (miss rate ``fr``, promotion-target crossing probabilities) is
        refreshed from the chain's own solution.
        """
        promo, ins, ind, insmask, onehot, ins_onehot = arrays
        k = self.assoc
        n = promo.shape[0]
        rows = np.arange(n)
        suffix = np.asarray(feat._suffix, dtype=np.float64)
        cold = float(feat.cold)
        accesses = float(max(1, feat.accesses))
        reuses = float(feat.accesses - feat.cold)
        cap = float(feat.depth)
        positions = np.arange(k, dtype=np.int64)
        # A block at position p is pushed down by a first-touch event
        # only if the event comes *from below* (source depth s > p,
        # promotion target <= p) or misses (insertion at <= p; the
        # bottom position is evicted by every miss).  Events staying
        # above p are excluded and the rates renormalised — for the LRU
        # vector numerator == denominator at every p, so q == 1 exactly.
        below = (positions[:, None] > positions[None, :]).astype(np.float64)
        cross_from_below = ind * below[None, :, :]
        push_miss = insmask.copy()
        push_miss[:, k - 1] = 1.0
        # Birth states: founder fills (set not yet full) land at
        # min(ins, fill order) — uniform over the k fill orders — with
        # probability capacity/footprint; later fills land at ins.
        capacity = (self.num_sets or 0) * k
        founder_frac = (
            min(1.0, capacity / cold) if (capacity and cold) else 0.0
        )
        birth = (1.0 - founder_frac) * ins_onehot
        if founder_frac:
            positions = np.arange(k, dtype=np.int64)
            founder = (positions[None, :] < ins[:, None]) / float(k)
            founder[rows, ins] = (k - ins) / float(k)
            birth = birth + founder_frac * founder
        # Chain-step weights: the exact fraction of reuse events at each
        # touch index (see _step_weights); the remainder is converged.
        step_w = params["step_w"]
        # LRU-seeded environment: miss rate + hit source-depth weights.
        fr = np.full(n, float(params["fr"]), dtype=np.float64)
        hd = np.broadcast_to(
            np.asarray(params["wh"], dtype=np.float64), (n, k)
        ).copy()
        pred = np.full(n, float(params["fr"]) * accesses, dtype=np.float64)
        depths = np.full(n, float(k), dtype=np.float64)
        for _ in range(_OUTER_ITERS):
            hit_push = np.einsum("ns,nsp->np", hd, cross_from_below)
            hit_any = np.einsum("ns,sp->np", hd, below)
            q = (
                fr[:, None] * push_miss + (1.0 - fr[:, None]) * hit_push
            ) / np.maximum(
                fr[:, None] + (1.0 - fr[:, None]) * hit_any, _Q_FLOOR
            )
            inv = 1.0 / np.maximum(q, _Q_FLOOR)
            # N(s) = sum_{p=s}^{k-1} 1/q(p), clipped to the histogram cap.
            thresholds = np.clip(
                np.cumsum(inv[:, ::-1], axis=1)[:, ::-1], 0.0, cap
            )
            lo = np.floor(thresholds).astype(np.int64)
            hi = np.minimum(lo + 1, feat.depth)
            frac = thresholds - lo
            m_at = suffix[lo] * (1.0 - frac) + suffix[hi] * frac
            if reuses > 0:
                rm = np.clip((m_at - cold) / reuses, 0.0, 1.0)
            else:
                rm = np.ones((n, k), dtype=np.float64)
            survive = 1.0 - rm
            cur = birth.copy()
            pi = np.zeros_like(cur)
            weight_sum = 0.0
            for w in step_w:
                pi += w * cur
                weight_sum += w
                hit_mass = cur * survive
                miss_mass = (cur * rm).sum(axis=1)
                cur = np.einsum("ns,nst->nt", hit_mass, onehot)
                cur[rows, ins] += miss_mass
            pi += (1.0 - weight_sum) * cur
            reuse_miss = (pi * rm).sum(axis=1)
            pred = cold + reuse_miss * reuses
            depths = (pi * thresholds).sum(axis=1)
            # Refresh the environment from the chain's own solution.
            fr = pred / accesses
            hit_pos = pi * survive
            total_hit = np.maximum(
                hit_pos.sum(axis=1, keepdims=True), 1e-12
            )
            hd = hit_pos / total_hit
        return pred, depths

    def effective_depths(self, ipvs: Sequence) -> List[float]:
        """Access-weighted stationary mean of the survival thresholds.

        For true LRU this is exactly ``assoc`` (the chain sits at the
        MRU state whose threshold is k); elsewhere it is a summary only
        — :meth:`score_population` weighs the full per-start Mattson
        mixture, not this mean.
        """
        batch = self._entries_matrix(ipvs)
        if not batch:
            return []
        total_acc = float(
            sum(w[4].accesses for w in self.workloads)
        ) or 1.0
        depths = np.zeros(len(batch), dtype=np.float64)
        for start in range(0, len(batch), _SCORE_CHUNK):
            chunk = batch[start:start + _SCORE_CHUNK]
            arrays = self._batch_arrays(chunk)
            for (_n, _w, _i, _f, feat), params in zip(
                self.workloads, self._params
            ):
                _pred, d = self._workload_predict(arrays, feat, params)
                depths[start:start + len(chunk)] += d * (
                    feat.accesses / total_acc
                )
        return depths.tolist()

    def score_population(self, ipvs: Sequence) -> List[float]:
        """Analytic fitness estimate of every candidate, in input order.

        Chunked numpy passes per workload over the whole population.
        Returns a plain list so callers never hold numpy types.
        """
        if not len(ipvs):
            return []
        with span("surrogate.score", candidates=len(ipvs)):
            batch = self._entries_matrix(ipvs)
            out = np.zeros(len(batch), dtype=np.float64)
            for start in range(0, len(batch), _SCORE_CHUNK):
                chunk = batch[start:start + _SCORE_CHUNK]
                arrays = self._batch_arrays(chunk)
                cycles: Dict[str, object] = {}
                for (name, weight, instructions, mfrac, feat), params in (
                    zip(self.workloads, self._params)
                ):
                    pred, _depths = self._workload_predict(
                        arrays, feat, params
                    )
                    value = (instructions * self.base_cpi
                             + pred * mfrac * self.miss_penalty) * weight
                    cycles[name] = cycles.get(name, 0.0) + value
                total = np.zeros(len(chunk), dtype=np.float64)
                for name, lane_cycles in cycles.items():
                    total += self._base_cycles[name] / lane_cycles
                out[start:start + len(chunk)] = total / len(cycles)
            return out.tolist()


# ----------------------------------------------------------------------
# Spearman rank correlation (stdlib/numpy only — no scipy dependency).
# ----------------------------------------------------------------------
def _average_ranks(values: Sequence[float]) -> List[float]:
    """1-based average ranks with standard tie handling."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for pos in range(i, j + 1):
            ranks[order[pos]] = rank
        i = j + 1
    return ranks


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation of two samples (``None`` if degenerate).

    Pearson correlation over tie-averaged ranks; needs at least three
    points and non-constant ranks on both sides.
    """
    if len(a) != len(b):
        raise ValueError("samples must have equal length")
    n = len(a)
    if n < 3:
        return None
    ra = _average_ranks(list(a))
    rb = _average_ranks(list(b))
    mean = (n + 1) / 2.0
    cov = sxx = syy = 0.0
    for x, y in zip(ra, rb):
        dx = x - mean
        dy = y - mean
        cov += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        return None
    return cov / math.sqrt(sxx * syy)


# ----------------------------------------------------------------------
# Cross-generation fitness memo.
# ----------------------------------------------------------------------
class FitnessMemo:
    """Bounded LRU of simulated fitness keyed by canonical IPV tuple.

    Stores the exact float the simulator returned, so routing a batch
    through the memo is bit-identical to re-simulating it.  One memo
    serves a whole search run: GA generations, hill-climbing passes and
    duplicate genomes all share it.
    """

    def __init__(self, limit: int = 1 << 20):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = int(limit)
        self._memo: "OrderedDict[Tuple[int, ...], float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, entries: Tuple[int, ...]) -> Optional[float]:
        value = self._memo.get(entries)
        if value is not None:
            self._memo.move_to_end(entries)
        return value

    def put(self, entries: Tuple[int, ...], fitness: float) -> None:
        self._memo[entries] = fitness
        while len(self._memo) > self.limit:
            self._memo.popitem(last=False)

    def evaluate_all(
        self, pop_eval, individuals: Sequence[Sequence[int]]
    ) -> List[float]:
        """``pop_eval.evaluate_all`` with memoization and in-batch dedup.

        Only tuples never simulated before reach the evaluator; results
        come back in input order and duplicate inputs (within the batch
        or across calls) receive the identical cached float.
        """
        batch = [tuple(ind) for ind in individuals]
        results: List[Optional[float]] = [None] * len(batch)
        fresh: List[Tuple[int, ...]] = []
        fresh_pos: Dict[Tuple[int, ...], int] = {}
        for i, entries in enumerate(batch):
            cached = self.get(entries)
            if cached is not None:
                self.hits += 1
                results[i] = cached
            elif entries in fresh_pos:
                self.hits += 1  # in-batch duplicate: one simulation serves all
            else:
                self.misses += 1
                fresh_pos[entries] = len(fresh)
                fresh.append(entries)
        if fresh:
            scores = pop_eval.evaluate_all(fresh)
            for entries, score in zip(fresh, scores):
                self.put(entries, score)
        for i, entries in enumerate(batch):
            if results[i] is None:
                results[i] = self._memo[entries]
        return results  # type: ignore[return-value]

    def stats(self) -> dict:
        lookups = self.hits + self.misses
        return {
            "size": len(self._memo),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


# ----------------------------------------------------------------------
# The prefilter stage.
# ----------------------------------------------------------------------
class SurrogatePrefilter:
    """Rank candidates analytically; simulate only the promising tail.

    Parameters
    ----------
    model:
        The :class:`SurrogateModel` (build with
        :meth:`SurrogateModel.from_evaluator`).
    keep:
        Fraction of each batch to simulate (the paper's "top decile" is
        ``0.1``, the default).  At least ``min_keep`` candidates always
        survive so tiny batches stay meaningful.
    audit:
        Size of the random control sample simulated *in addition to* the
        kept fraction; its surrogate-vs-simulated Spearman rho is the
        live fidelity signal.  ``0`` disables auditing (not recommended).
    rho_floor:
        If an audit rho drops below this, the prefilter deactivates
        itself with a warning and every later batch is simulated in full
        — rank infidelity must never silently cull good candidates.
    seed:
        Seed of the private control-sample RNG (kept separate from the
        GA's breeding RNG so prefiltering never perturbs evolution).
    """

    def __init__(
        self,
        model: SurrogateModel,
        keep: float = 0.1,
        audit: int = 32,
        rho_floor: float = 0.5,
        seed: int = 0,
        min_keep: int = 4,
    ):
        if not 0.0 < keep <= 1.0:
            raise ValueError("keep must be in (0, 1]")
        if audit < 0:
            raise ValueError("audit must be non-negative")
        if min_keep < 1:
            raise ValueError("min_keep must be positive")
        self.model = model
        self.keep = float(keep)
        self.audit = int(audit)
        self.rho_floor = float(rho_floor)
        self.min_keep = int(min_keep)
        self._rng = random.Random(seed ^ 0x5AFE5EED)
        self.active = True
        self.scored = 0
        self.simulated = 0
        self.skipped = 0
        self.audits = 0
        self.rho: Optional[float] = None
        self.rho_history: List[float] = []

    @classmethod
    def from_evaluator(
        cls,
        evaluator: FitnessEvaluator,
        keep: float = 0.1,
        audit: int = 32,
        rho_floor: float = 0.5,
        seed: int = 0,
        min_keep: int = 4,
        cache_dir: Union[None, bool, str, Path] = True,
    ) -> "SurrogatePrefilter":
        model = SurrogateModel.from_evaluator(evaluator, cache_dir=cache_dir)
        return cls(model, keep=keep, audit=audit, rho_floor=rho_floor,
                   seed=seed, min_keep=min_keep)

    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        pop_eval,
        memo: FitnessMemo,
        individuals: Sequence[Sequence[int]],
    ) -> List[Tuple[float, Tuple[int, ...]]]:
        """Score, select, simulate and audit one candidate batch.

        Returns ``(fitness, entries)`` pairs for the *simulated* subset
        only (all of the batch when the prefilter is inactive or the
        batch is small).  Simulated fitness comes from the same memoized
        evaluator path an unfiltered run uses, so surviving candidates'
        values are bit-identical to full simulation.
        """
        batch = [tuple(ind) for ind in individuals]
        if not batch:
            return []
        floor = min(len(batch), max(self.min_keep, self.audit))
        if not self.active or len(batch) <= floor:
            scores = memo.evaluate_all(pop_eval, batch)
            self.simulated += len(batch)
            return list(zip(scores, batch))
        surrogate = self.model.score_population(batch)
        self.scored += len(batch)
        keep_count = max(self.min_keep, int(round(self.keep * len(batch))))
        keep_count = min(keep_count, len(batch))
        order = sorted(range(len(batch)), key=lambda i: surrogate[i],
                       reverse=True)
        chosen = set(order[:keep_count])
        audit_idx: List[int] = []
        if self.audit:
            audit_idx = self._rng.sample(
                range(len(batch)), min(self.audit, len(batch))
            )
            chosen.update(audit_idx)
        selected = sorted(chosen)
        with span("ga.surrogate_simulate", batch=len(batch),
                  simulated=len(selected)):
            fitnesses = memo.evaluate_all(
                pop_eval, [batch[i] for i in selected]
            )
        self.simulated += len(selected)
        self.skipped += len(batch) - len(selected)
        fitness_of = dict(zip(selected, fitnesses))
        if audit_idx:
            self._run_audit([surrogate[i] for i in audit_idx],
                            [fitness_of[i] for i in audit_idx])
        return [(fitness_of[i], batch[i]) for i in selected]

    def _run_audit(self, surrogate_scores: List[float],
                   simulated_scores: List[float]) -> None:
        with span("ga.surrogate_audit", sample=len(surrogate_scores)):
            rho = spearman_rho(surrogate_scores, simulated_scores)
        if rho is None:
            return
        self.audits += 1
        self.rho = rho
        self.rho_history.append(rho)
        if rho < self.rho_floor and self.active:
            self.active = False
            logger.warning(
                "surrogate prefilter disabled: audit Spearman rho %.3f "
                "fell below the floor %.3f — simulating every candidate "
                "from here on", rho, self.rho_floor,
            )

    def stats(self) -> dict:
        """Counters for status publishing, metrics gauges and reports."""
        return {
            "active": self.active,
            "keep": self.keep,
            "audit": self.audit,
            "rho_floor": self.rho_floor,
            "scored": self.scored,
            "simulated": self.simulated,
            "skipped": self.skipped,
            "audits": self.audits,
            "rho": self.rho,
            "rho_min": min(self.rho_history) if self.rho_history else None,
        }


def publish_surrogate_gauges(
    registry,
    prefilter: Optional[SurrogatePrefilter] = None,
    memo: Optional[FitnessMemo] = None,
) -> None:
    """Export prefilter/memo/feature counters as ``repro_surrogate_*``
    gauges (idempotent republish, like the kernel/memo gauges)."""
    if prefilter is not None:
        stats = prefilter.stats()
        for field, help_text in (
            ("scored", "Candidates scored by the analytic surrogate"),
            ("simulated", "Candidates simulated after prefiltering"),
            ("skipped", "Candidates culled by the surrogate prefilter"),
            ("audits", "Surrogate control-sample audits performed"),
        ):
            registry.gauge(f"repro_surrogate_{field}", help_text).set(
                stats[field]
            )
        registry.gauge(
            "repro_surrogate_active",
            "Whether the surrogate prefilter is still active (1) or "
            "deactivated by a failed audit (0)",
        ).set(1 if stats["active"] else 0)
        if stats["rho"] is not None:
            registry.gauge(
                "repro_surrogate_rho",
                "Latest surrogate-vs-simulated Spearman rank correlation",
            ).set(stats["rho"])
    if memo is not None:
        mstats = memo.stats()
        for field, help_text in (
            ("size", "Fitness memo entries resident"),
            ("hits", "Fitness memo lookup hits (simulations avoided)"),
            ("misses", "Fitness memo lookup misses (simulations performed)"),
        ):
            registry.gauge(f"repro_fitness_memo_{field}", help_text).set(
                mstats[field]
            )
    fstats = feature_memo_stats()
    for field, help_text in (
        ("hits", "Surrogate feature memo hits"),
        ("misses", "Surrogate feature memo misses"),
        ("disk_hits", "Surrogate features loaded from the disk cache"),
    ):
        registry.gauge(f"repro_surrogate_features_{field}", help_text).set(
            fstats[field]
        )


def _self_check_lru_anchor() -> None:  # pragma: no cover - debug aid
    """Tiny inline sanity check: the LRU vector maps to depth == assoc."""
    from ..eval.config import default_config

    evaluator = FitnessEvaluator(
        ["429.mcf"], config=default_config(trace_length=2_000)
    )
    model = SurrogateModel.from_evaluator(evaluator, cache_dir=None)
    depth = model.effective_depths([lru_ipv(model.assoc)])[0]
    assert abs(depth - model.assoc) < 1e-6, depth
