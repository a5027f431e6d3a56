"""Protecting Distance based Policy (Duong et al., MICRO 2012).

PDP protects each line from eviction for a *protecting distance* (PD): a
number of accesses to the line's set.  The PD is recomputed periodically
from a reuse-distance histogram by maximizing a hit-rate-per-occupancy
estimate — the job the original design gives to a small microcontroller,
performed here in plain Python (Section 4.7 of the reproduced paper notes
PDP's extra state and microcontroller cost; our overhead accounting reflects
that).

This is the reproduced paper's configuration: **4 bits per block, no
bypass**.

Mechanics
---------
* Every line has a quantized remaining-protecting-distance (RPD) counter.
* On a fill or hit the RPD is reset to the quantized PD.
* Every ``step`` accesses to a set, all RPDs in the set decay by one; a line
  with RPD 0 is unprotected.  The model keeps a per-set decay epoch and a
  per-line expiry epoch, so a tick is one increment and a line's RPD is
  ``max(0, expiry - epoch)``.
* The victim is an unprotected line if one exists.  When every line is
  still protected, the *youngest* line (highest RPD) is evicted: older
  protected lines are closer to their predicted reuse, and churning the
  newcomer is what lets a protected working set survive thrash without
  bypassing (the incoming line immediately becomes the next victim
  candidate, like LRU-position insertion).

The reuse-distance histogram is collected from a deterministic sample of
sets, measured in set accesses — the unit PD is defined over.
:func:`simulate_pdp` runs a whole PDP trace in one loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .base import AccessContext, ReplacementPolicy

__all__ = ["PDPPolicy", "compute_protecting_distance", "simulate_pdp"]


def compute_protecting_distance(
    histogram: List[int],
    default_pd: int,
    line_fill_cost: float = 1.0,
) -> int:
    """Choose the PD maximizing estimated hits per unit line occupancy.

    For candidate distance ``d``, accesses with reuse distance ``i <= d``
    hit and occupy the line for ``i`` set accesses; the rest miss and hold
    the line for the full ``d`` (plus a fill).  The estimator

    ``E(d) = hits(d) / (sum_{i<=d} N_i * i + (N_total - hits(d)) * (d + c))``

    is the non-bypass form of Duong et al.'s protecting-distance benefit
    function.  Returns ``default_pd`` when the histogram is empty.
    """
    total = sum(histogram)
    if total == 0:
        return default_pd
    best_d = default_pd
    best_e = -1.0
    hits = 0
    occupancy = 0.0
    for d in range(1, len(histogram)):
        count = histogram[d]
        hits += count
        occupancy += count * d
        if hits == 0:
            continue
        denom = occupancy + (total - hits) * (d + line_fill_cost)
        e = hits / denom
        if e > best_e:
            best_e = e
            best_d = d
    return best_d


class PDPPolicy(ReplacementPolicy):
    """Protecting Distance Policy without bypass, 4 bits per block."""

    name = "pdp"

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        counter_bits: int = 4,
        max_distance: int = 256,
        recompute_interval: int = 512,
        sampled_set_stride: int = 4,
        default_pd: int = 17,
    ):
        super().__init__(num_sets, assoc)
        if counter_bits < 2:
            raise ValueError("PDP needs at least 2 counter bits")
        self.counter_bits = counter_bits
        self.max_rpd = (1 << counter_bits) - 1
        self.max_distance = max_distance
        self.recompute_interval = recompute_interval
        self.sampled_set_stride = sampled_set_stride
        self.pd = default_pd
        self._default_pd = default_pd
        self._expiry: List[List[int]] = [[0] * assoc for _ in range(num_sets)]
        self._epoch: List[int] = [0] * num_sets
        self._set_accesses: List[int] = [0] * num_sets
        self._decay_tick: List[int] = [0] * num_sets
        # Per sampled set: block address -> set-access count at last touch.
        self._last_touch: Dict[int, Dict[int, int]] = {
            s: {} for s in range(0, num_sets, sampled_set_stride)
        }
        self._histogram: List[int] = [0] * (max_distance + 1)
        self._samples_since_recompute = 0
        self.recompute_count = 0

    # ------------------------------------------------------------------
    # Quantization: the RPD counter has few bits, so it decays once every
    # ``step`` set accesses instead of every access.
    # ------------------------------------------------------------------
    @property
    def pd(self) -> int:
        """The protecting distance, in set accesses."""
        return self._pd

    @pd.setter
    def pd(self, value: int) -> None:
        self._pd = value
        self._step = max(1, -(-value // self.max_rpd))
        self._qpd = min(self.max_rpd, -(-value // self._step))

    @property
    def step(self) -> int:
        """Set accesses per RPD decay tick (ceil(PD / max counter))."""
        return self._step

    def _quantized_pd(self) -> int:
        return self._qpd

    def _tick_and_observe(self, set_index: int, ctx: AccessContext) -> None:
        """Advance the set clock, decay RPDs, and sample reuse distance."""
        self._set_accesses[set_index] += 1
        tick = self._decay_tick[set_index] + 1
        if tick >= self._step:
            tick = 0
            self._epoch[set_index] += 1
        self._decay_tick[set_index] = tick
        sampler = self._last_touch.get(set_index)
        if sampler is None:
            return
        now = self._set_accesses[set_index]
        last = sampler.get(ctx.block)
        if last is not None:
            distance = min(now - last, self.max_distance)
            self._histogram[distance] += 1
        sampler[ctx.block] = now
        self._samples_since_recompute += 1
        if self._samples_since_recompute >= self.recompute_interval:
            self._recompute()

    def _recompute(self) -> None:
        self.pd = compute_protecting_distance(self._histogram, self._default_pd)
        self.recompute_count += 1
        self._samples_since_recompute = 0
        # Exponential decay so the PD tracks phase changes.
        self._histogram = [n >> 1 for n in self._histogram]

    # ------------------------------------------------------------------
    # Policy hooks.
    # ------------------------------------------------------------------
    def victim(self, set_index: int, ctx: AccessContext) -> int:
        expiry = self._expiry[set_index]
        epoch = self._epoch[set_index]
        # Prefer the first unprotected line (RPD 0)...
        if min(expiry) <= epoch:
            for way, value in enumerate(expiry):
                if value <= epoch:
                    return way
        # ...else evict the first youngest protected line (highest RPD).
        return expiry.index(max(expiry))

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._tick_and_observe(set_index, ctx)
        self._expiry[set_index][way] = self._epoch[set_index] + self._qpd

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self._tick_and_observe(set_index, ctx)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        self._expiry[set_index][way] = self._epoch[set_index] + self._qpd

    def state_bits_per_set(self) -> float:
        return self.counter_bits * self.assoc

    def global_state_bits(self) -> int:
        # RD sampler histogram (16 bits per bucket) + PD register; the
        # original design also spends ~10K NAND gates of microcontroller,
        # which has no bit equivalent and is noted in overhead reports.
        return 16 * (self.max_distance + 1) + 8


def simulate_pdp(
    policy: PDPPolicy,
    addresses: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
) -> int:
    """Measured misses of a cold PDP cache over block ``addresses``.

    One pass in access order makes the transitions of ``policy`` behind
    ``SetAssociativeCache.access`` (``block_size=1``).  Misses at indices
    ``>= warmup`` are counted, and appended to ``miss_indices`` if given.
    Per-set state stays untouched; ``pd``, ``recompute_count`` and the
    histogram end where the per-access run leaves them.
    """
    if hasattr(addresses, "tolist"):
        addresses = addresses.tolist()
    num_sets, assoc = policy.num_sets, policy.assoc
    mask, max_distance = num_sets - 1, policy.max_distance
    interval, misses = policy.recompute_interval, 0
    samples = policy._samples_since_recompute
    step, qpd, histogram = policy._step, policy._qpd, policy._histogram
    sampled = policy._last_touch
    samplers = [{} if s in sampled else None for s in range(num_sets)]
    expiries = [[0] * assoc for _ in range(num_sets)]
    epochs, decay_ticks, set_accesses = ([0] * num_sets for _ in range(3))
    tag_to_way: List[dict] = [{} for _ in range(num_sets)]
    way_to_tag = [[0] * assoc for _ in range(num_sets)]
    for i, addr in enumerate(addresses):
        # _tick_and_observe, which every access runs.
        si = addr & mask
        tick = decay_ticks[si] + 1
        if tick >= step:
            tick = 0
            epochs[si] += 1
        decay_ticks[si] = tick
        sampler = samplers[si]
        if sampler is not None:
            now = set_accesses[si] = set_accesses[si] + 1  # read only here
            last = sampler.get(addr)
            if last is not None:
                histogram[min(now - last, max_distance)] += 1
            sampler[addr] = now
            samples += 1
            if samples >= interval:
                policy._recompute()  # the PD choice stays in the policy
                step, qpd = policy._step, policy._qpd
                histogram, samples = policy._histogram, 0
        epoch, ways = epochs[si], tag_to_way[si]
        way = ways.get(addr)
        if way is None:
            if i >= warmup:
                misses += 1
                if miss_indices is not None:
                    miss_indices.append(i)
            tags = way_to_tag[si]
            if len(ways) < assoc:
                way = len(ways)
            else:
                expiry = expiries[si]
                for way, value in enumerate(expiry):
                    if value <= epoch:
                        break  # the first unprotected line
                else:
                    way = expiry.index(max(expiry))  # the youngest
                del ways[tags[way]]
            tags[way] = addr
            ways[addr] = way
        expiries[si][way] = epoch + qpd
    policy._samples_since_recompute = samples
    return misses
