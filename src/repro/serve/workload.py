"""Bounded-memory streaming Zipf key-value workload generator.

The ROADMAP's north star is a service "serving heavy traffic from
millions of users".  This module models that traffic the way the KV-
serving literature does (Multi-step LRU; Berthet's power-law miss-rate
analysis): key popularity follows a Zipf law with configurable ``alpha``,
the key space *churns* (old keys retire, fresh keys arrive), flash-crowd
phases concentrate traffic on a tiny hot subset, and several tenants
interleave on one cache.

Design constraints, in order:

1. **Bounded memory.**  The stream is produced in fixed
   :data:`GEN_BLOCK`-access generation blocks; working memory is
   O(keys + chunk), never O(accesses) — a 100M-access stream
   materializes nothing.
2. **Deterministic and chunk-invariant.**  Every random draw is a pure
   counter-based hash (splitmix64 finalizer) of
   ``(seed, stream tag, access index)``, and churn is applied on fixed
   generation-block boundaries — so the address sequence is a pure
   function of the spec, independent of how the consumer chunks it.
3. **Backend bit-identity.**  Both backends draw the same 53-bit
   uniform floats (``v >> 11``) and invert the same shared Zipf CDF,
   so a no-numpy host generates the identical stream.  The Python
   backend binary-searches the CDF per draw (``bisect_right``).  The
   numpy backend looks the rank up in a guide table built once from
   the CDF: a draw's top bits pick a bucket of ``u`` values, a bucket
   no CDF entry splits holds its one rank, and only draws in split
   buckets are binary-searched.
4. **Churned-out keys never reappear.**  Every key slot holds a
   monotonically increasing uid; retiring a slot assigns a fresh uid and
   uids are never reused.  Addresses are an *injective* image of
   ``(tenant, uid)`` (odd-multiplier bijection mod 2**62), so a retired
   key's address is gone for good.

Address layout: ``addr = ((uid * tenants + tenant) * ADDR_MULT) mod
2**62``.  The odd multiplier is invertible mod 2**62 (injectivity) and
scatters Zipf rank away from the set-index bits, so low-order set
selection is unbiased.  Addresses are non-negative int64 — exactly what
:class:`~repro.engine.columnar.ColumnarTrace` requires.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple

from ..kernels.tables import numpy_or_none
from ..obs.slo import SLOSpec
from ..workloads.seeding import derive_seed, spec_digest

__all__ = [
    "ADDR_MASK",
    "GEN_BLOCK",
    "FlashPhase",
    "ServingSpec",
    "ServingStream",
    "auto_flash_phases",
    "zipf_cdf",
]

#: Accesses per generation block.  Churn is applied on these boundaries,
#: which is what makes the stream invariant under consumer chunking.
GEN_BLOCK = 8192

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Odd multiplier of the address bijection (invertible mod 2**62).
ADDR_MULT = 0x9E3779B97F4A7C15
ADDR_MASK = (1 << 62) - 1

# Stream tags: one independent hash stream per random decision.
_TAG_TENANT = 1
_TAG_RANK = 2
_TAG_FLASH = 3
_TAG_HOT = 4
_TAG_CHURN_TENANT = 5
_TAG_CHURN_SLOT = 6


def _mix64(x: int) -> int:
    """splitmix64 finalizer over a 64-bit int (pure Python)."""
    x &= _M64
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    return x ^ (x >> 31)


def _stream_seed(seed: int, tag: int) -> int:
    """Base state of one counter-based hash stream."""
    return _mix64((seed + tag * _GOLDEN) & _M64)


def _hash_at(stream: int, i: int) -> int:
    """The ``i``-th draw of a stream: pure function of (stream, i)."""
    return _mix64((stream + i * _GOLDEN) & _M64)


def _u53(v: int) -> float:
    """Uniform float64 in [0, 1) from a 64-bit draw (exact, portable)."""
    return (v >> 11) * (2.0 ** -53)


def _share_threshold(share: float) -> int:
    """Integer threshold for ``draw < threshold`` == prob. ``share``."""
    return min(int(share * 2.0 ** 64), _M64)


def zipf_cdf(keys: int, alpha: float) -> List[float]:
    """CDF of the Zipf(alpha) law over ranks ``0..keys-1``.

    Built once in pure Python and shared verbatim by both backends —
    the float64 list *is* the contract: the Python backend
    binary-searches it per draw and the numpy backend builds its rank
    guide table from it.  The last entry is pinned to 1.0.
    """
    if keys < 1:
        raise ValueError(f"keys must be positive, got {keys}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    weights = [float(r + 1) ** -alpha for r in range(keys)]
    total = 0.0
    cdf = []
    for w in weights:
        total += w
        cdf.append(total)
    inv = 1.0 / total
    cdf = [c * inv for c in cdf]
    cdf[-1] = 1.0
    return cdf


class FlashPhase(Tuple[int, int, float, int]):
    """A flash-crowd window: ``share`` of accesses in
    ``[start, start + length)`` are redirected onto the hottest
    ``hot_keys`` Zipf ranks."""

    __slots__ = ()

    def __new__(cls, start: int, length: int, share: float = 0.5,
                hot_keys: int = 64):
        if start < 0 or length < 0:
            raise ValueError("flash phase start/length must be >= 0")
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"flash share must be in [0, 1], got {share}")
        if hot_keys < 1:
            raise ValueError("flash hot_keys must be positive")
        return super().__new__(
            cls, (int(start), int(length), float(share), int(hot_keys))
        )

    @property
    def start(self) -> int:
        return self[0]

    @property
    def length(self) -> int:
        return self[1]

    @property
    def share(self) -> float:
        return self[2]

    @property
    def hot_keys(self) -> int:
        return self[3]


def auto_flash_phases(
    accesses: int, count: int, share: float = 0.5, hot_keys: int = 64,
    duty: float = 0.1,
) -> Tuple[FlashPhase, ...]:
    """``count`` evenly spaced flash crowds, each ``duty`` of the stream."""
    if count < 0:
        raise ValueError("phase count must be >= 0")
    if count == 0 or accesses == 0:
        return ()
    count = min(count, accesses)  # never more phases than accesses
    period = accesses // count
    length = max(1, int(period * duty))
    return tuple(
        FlashPhase(i * period + max(0, (period - length) // 2), length,
                   share, hot_keys)
        for i in range(count)
    )


@dataclass(frozen=True)
class ServingSpec:
    """Everything that determines a serving stream, digestibly.

    ``seed=None`` never touches global random state: the effective seed
    is derived from the spec digest (:func:`resolved_seed`) and recorded
    in the provenance manifest via :meth:`manifest_extra`.

    ``slo`` is an *operational overlay* — an
    :class:`~repro.obs.slo.SLOSpec` (or its dict form) the serving
    driver evaluates over the run's windowed telemetry.  It never
    shapes the generated stream, so it is deliberately **excluded from
    the digest payload**: attaching or changing an SLO must not change
    the derived seed or the golden serving corpus.
    """

    keys: int = 1 << 14            # live key slots per tenant
    alpha: float = 1.2             # Zipf skew
    tenants: int = 1
    accesses: int = 1 << 20        # total stream length
    churn_per_million: int = 0     # slot retirements per 1M accesses
    phases: Tuple[FlashPhase, ...] = field(default_factory=tuple)
    seed: Optional[int] = None
    slo: Optional[SLOSpec] = None

    def __post_init__(self):
        if self.keys < 1:
            raise ValueError(f"keys must be positive, got {self.keys}")
        if self.tenants < 1:
            raise ValueError(
                f"tenants must be positive, got {self.tenants}"
            )
        if self.accesses < 0:
            raise ValueError(
                f"accesses must be non-negative, got {self.accesses}"
            )
        if self.alpha < 0:
            raise ValueError(
                f"alpha must be non-negative, got {self.alpha}"
            )
        if self.churn_per_million < 0:
            raise ValueError("churn_per_million must be non-negative")
        object.__setattr__(
            self,
            "phases",
            tuple(
                p if isinstance(p, FlashPhase) else FlashPhase(*p)
                for p in self.phases
            ),
        )
        if self.slo is not None and not isinstance(self.slo, SLOSpec):
            object.__setattr__(self, "slo", SLOSpec.from_dict(self.slo))

    def digest_payload(self) -> dict:
        # NOTE: ``slo`` is intentionally absent — see the class docstring.
        return {
            "kind": "serving-spec",
            "keys": self.keys,
            "alpha": self.alpha,
            "tenants": self.tenants,
            "accesses": self.accesses,
            "churn_per_million": self.churn_per_million,
            "phases": [list(p) for p in self.phases],
            "seed": self.seed,
        }

    def digest(self) -> str:
        return spec_digest(self.digest_payload())

    def resolved_seed(self) -> int:
        """The effective seed: ``seed``, or spec-digest derivation."""
        if self.seed is not None:
            return int(self.seed)
        # Derive from the digest *without* the (None) seed field so the
        # derivation is a pure function of the workload shape.
        payload = self.digest_payload()
        del payload["seed"]
        return derive_seed(spec_digest(payload))

    def with_accesses(self, accesses: int) -> "ServingSpec":
        return replace(self, accesses=accesses)

    def manifest_extra(self) -> dict:
        """Provenance-manifest fields describing this spec exactly."""
        out = {
            "serving_spec": self.digest_payload(),
            "serving_spec_digest": self.digest(),
            "serving_seed": self.resolved_seed(),
            "serving_seed_derived": self.seed is None,
        }
        if self.slo is not None:
            out["serving_slo"] = self.slo.to_dict()
        return out


class ServingStream:
    """Iterator factory over one :class:`ServingSpec`'s address stream.

    ``backend`` is ``"auto"`` (numpy when importable), ``"numpy"``
    (demand it) or ``"python"`` (force the scalar mirror — bit-identical
    output).  ``track_retired=True`` records every retired address in
    :attr:`retired_addresses` (test hook; unbounded, off by default).
    """

    def __init__(self, spec: ServingSpec, backend: str = "auto",
                 track_retired: bool = False):
        if backend not in ("auto", "numpy", "python"):
            raise ValueError(
                f"backend must be auto|numpy|python, got {backend!r}"
            )
        np = numpy_or_none() if backend in ("auto", "numpy") else None
        if backend == "numpy" and np is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not importable"
            )
        self.spec = spec
        self._np = np
        self.backend = "numpy" if np is not None else "python"
        self.track_retired = track_retired
        self.retired_addresses: set = set()
        seed = spec.resolved_seed()
        self._s_tenant = _stream_seed(seed, _TAG_TENANT)
        self._s_rank = _stream_seed(seed, _TAG_RANK)
        self._s_flash = _stream_seed(seed, _TAG_FLASH)
        self._s_hot = _stream_seed(seed, _TAG_HOT)
        self._s_churn_t = _stream_seed(seed, _TAG_CHURN_TENANT)
        self._s_churn_s = _stream_seed(seed, _TAG_CHURN_SLOT)
        self._cdf = zipf_cdf(spec.keys, spec.alpha)
        if np is not None:
            # Guide table: bucket b = v >> (64 - bits) holds the draws
            # with b <= u * 2**bits < b + 1.  bisect_right is monotone in
            # u, so a bucket whose two edges share a rank has that rank
            # throughout; the others (-1) fall back to searchsorted.
            self._cdf_np = np.asarray(self._cdf, dtype=np.float64)
            bits = min(16, max(8, (8 * spec.keys).bit_length()))
            edges = np.arange((1 << bits) + 1) * 2.0 ** -bits
            at = np.searchsorted(self._cdf_np, edges, side="right")
            self._guide = np.where(
                at[:-1] == at[1:], at[:-1], -1
            ).astype(np.int32)
            self._guide_shift = np.uint64(64 - bits)
        self._phases = [
            (p.start, p.start + p.length, _share_threshold(p.share),
             min(p.hot_keys, spec.keys))
            for p in spec.phases
        ]
        self.reset()

    # -- deterministic churn/uid state ---------------------------------
    def reset(self) -> "ServingStream":
        """Return to stream position 0 (slot uids back to initial)."""
        spec = self.spec
        T, K = spec.tenants, spec.keys
        if self._np is not None:
            np = self._np
            # slot s of tenant t starts as uid s: uid*T + t enumerates
            # the initial key population injectively.
            self._slots = np.tile(
                np.arange(K, dtype=np.uint64), (T, 1)
            )
        else:
            self._slots = [list(range(K)) for _ in range(T)]
        self._next_uid = [K] * T
        self._churn_done = 0
        self.retired = 0
        if self.track_retired:
            self.retired_addresses = set()
        return self

    def _address_of(self, tenant: int, uid: int) -> int:
        g = uid * self.spec.tenants + tenant
        return (g * ADDR_MULT) & ADDR_MASK

    def _apply_churn(self, block: int) -> None:
        """Retire slots due before generation block ``block`` begins."""
        cpm = self.spec.churn_per_million
        if not cpm:
            return
        due = (block * GEN_BLOCK * cpm) // 1_000_000
        T, K = self.spec.tenants, self.spec.keys
        np = self._np
        if np is not None and due - self._churn_done > 16:
            # Bulk-hash the pending events: the per-event splitmix in
            # Python dominates generation under heavy churn.  The
            # scatter itself stays sequential for exact parity with the
            # Python backend — a slot drawn twice in one batch must
            # retire the uid installed by the earlier event.
            j = np.arange(self._churn_done, due, dtype=np.uint64)
            golden = np.uint64(_GOLDEN)
            mix1, mix2 = np.uint64(_MIX1), np.uint64(_MIX2)
            s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)

            def draws(stream):
                x = np.uint64(stream) + j * golden
                x = (x ^ (x >> s30)) * mix1
                x = (x ^ (x >> s27)) * mix2
                return x ^ (x >> s31)

            t_list = (draws(self._s_churn_t) % np.uint64(T)).tolist()
            s_list = (draws(self._s_churn_s) % np.uint64(K)).tolist()
            slots = self._slots
            next_uid = self._next_uid
            track = self.track_retired
            for t, slot in zip(t_list, s_list):
                if track:
                    self.retired_addresses.add(
                        self._address_of(t, int(slots[t, slot]))
                    )
                slots[t, slot] = next_uid[t]
                next_uid[t] += 1
            self.retired += len(t_list)
            self._churn_done = due
            return
        numpy_slots = np is not None
        while self._churn_done < due:
            j = self._churn_done
            t = _hash_at(self._s_churn_t, j) % T
            slot = _hash_at(self._s_churn_s, j) % K
            old = int(self._slots[t][slot]) if not numpy_slots else int(
                self._slots[t, slot]
            )
            uid = self._next_uid[t]
            if numpy_slots:
                self._slots[t, slot] = uid
            else:
                self._slots[t][slot] = uid
            self._next_uid[t] = uid + 1
            self.retired += 1
            if self.track_retired:
                self.retired_addresses.add(self._address_of(t, old))
            self._churn_done += 1

    # -- block generation ----------------------------------------------
    def _block_python(self, block: int, m: int) -> List[int]:
        spec = self.spec
        T = spec.tenants
        cdf = self._cdf
        slots = self._slots
        base = block * GEN_BLOCK
        phases = [
            p for p in self._phases if p[0] < base + m and p[1] > base
        ]
        out = []
        for i in range(base, base + m):
            tenant = _hash_at(self._s_tenant, i) % T
            rank = bisect_right(cdf, _u53(_hash_at(self._s_rank, i)))
            for start, end, thr, hot in phases:
                if start <= i < end and _hash_at(self._s_flash, i) < thr:
                    rank = _hash_at(self._s_hot, i) % hot
            uid = slots[tenant][rank]
            g = uid * T + tenant
            out.append((g * ADDR_MULT) & ADDR_MASK)
        return out

    def _ranks(self, v):
        """Zipf ranks of uint64 draws ``v``: ``bisect_right(cdf, _u53(v))``."""
        np = self._np
        rank = self._guide.take(v >> self._guide_shift)
        mixed = np.flatnonzero(rank < 0)
        u = (v[mixed] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        rank[mixed] = np.searchsorted(self._cdf_np, u, side="right")
        return rank

    def _block_numpy(self, block: int, m: int):
        np = self._np
        spec = self.spec
        T = spec.tenants
        base = block * GEN_BLOCK
        i = np.arange(base, base + m, dtype=np.uint64)
        golden = np.uint64(_GOLDEN)
        mix1, mix2 = np.uint64(_MIX1), np.uint64(_MIX2)
        s30, s27, s31 = np.uint64(30), np.uint64(27), np.uint64(31)

        def draws(stream):
            x = np.uint64(stream) + i * golden
            x = (x ^ (x >> s30)) * mix1
            x = (x ^ (x >> s27)) * mix2
            return x ^ (x >> s31)

        tenant = (draws(self._s_tenant) % np.uint64(T)).astype(np.int64)
        rank = self._ranks(draws(self._s_rank))
        for start, end, thr, hot in self._phases:
            if start >= base + m or end <= base:
                continue
            mask = (i >= np.uint64(start)) & (i < np.uint64(end))
            mask &= draws(self._s_flash) < np.uint64(thr)
            if mask.any():
                hot_rank = (
                    draws(self._s_hot) % np.uint64(hot)
                ).astype(np.int64)
                rank = np.where(mask, hot_rank, rank)
        uid = self._slots.take(tenant * spec.keys + rank)
        g = uid * np.uint64(T) + tenant.astype(np.uint64)
        addr = (g * np.uint64(ADDR_MULT)) & np.uint64(ADDR_MASK)
        return addr.astype(np.int64)

    # -- public chunk iterator -----------------------------------------
    def chunks(self, chunk_accesses: int = 1 << 16) -> Iterator:
        """Yield the stream as address batches of ``chunk_accesses``.

        Restarts from position 0 on every call (:meth:`reset`), so the
        sequence is a pure function of the spec: any two chunk sizes
        yield the same concatenated stream, numpy or not.  Batches are
        int64 numpy arrays (numpy backend) or Python int lists.
        """
        if chunk_accesses < 1:
            raise ValueError("chunk_accesses must be positive")
        self.reset()
        np = self._np
        total = self.spec.accesses
        buf: List = []
        have = 0
        nblocks = (total + GEN_BLOCK - 1) // GEN_BLOCK
        for block in range(nblocks):
            self._apply_churn(block)
            m = min(GEN_BLOCK, total - block * GEN_BLOCK)
            if np is not None:
                buf.append(self._block_numpy(block, m))
            else:
                buf.append(self._block_python(block, m))
            have += m
            if have >= chunk_accesses:
                if np is not None:
                    flat = np.concatenate(buf)
                else:
                    flat = [a for part in buf for a in part]
                pos = 0
                while have - pos >= chunk_accesses:
                    yield flat[pos:pos + chunk_accesses]
                    pos += chunk_accesses
                buf = [flat[pos:]] if have - pos else []
                have -= pos
        if have:
            if np is not None:
                yield np.concatenate(buf)
            else:
                yield [a for part in buf for a in part]

    def addresses(self) -> List[int]:
        """The full stream as a flat Python int list (small specs only)."""
        out: List[int] = []
        for chunk in self.chunks(max(1, min(self.spec.accesses, 1 << 16))):
            out.extend(int(a) for a in chunk)
        return out
