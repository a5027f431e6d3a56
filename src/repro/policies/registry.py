"""Policy registry: build any policy by name.

The registry is how benches and examples request policies uniformly:

>>> policy = make_policy("drrip", num_sets=64, assoc=16)

Extra keyword arguments are forwarded to the policy constructor, so
``make_policy("gippr", 64, 16, ipv=my_vector)`` works too.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import ReplacementPolicy
from .belady import BeladyPolicy
from .bypass import BypassDGIPPRPolicy
from .counter_based import CounterBasedPolicy
from .dip import BIPPolicy, DIPPolicy, LIPPolicy
from .ipv_rrip import DynamicIPVRRIPPolicy, IPVRRIPPolicy
from .lru import GIPLRPolicy, IPVLRUPolicy, TrueLRUPolicy
from .pdp import PDPPolicy
from .plru import DGIPPRPolicy, GIPPRPolicy, TreePLRUPolicy
from .rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from .sdbp import SDBPPolicy
from .ship import SHiPPolicy
from .simple import FIFOPolicy, RandomPolicy

__all__ = ["POLICIES", "make_policy", "policy_factory", "policy_names"]

POLICIES: Dict[str, Callable[..., ReplacementPolicy]] = {
    "lru": TrueLRUPolicy,
    "ipv-lru": IPVLRUPolicy,
    "giplr": GIPLRPolicy,
    "plru": TreePLRUPolicy,
    "gippr": GIPPRPolicy,
    "dgippr": DGIPPRPolicy,
    "bypass-dgippr": BypassDGIPPRPolicy,
    "random": RandomPolicy,
    "fifo": FIFOPolicy,
    "lip": LIPPolicy,
    "bip": BIPPolicy,
    "dip": DIPPolicy,
    "srrip": SRRIPPolicy,
    "ipv-rrip": IPVRRIPPolicy,
    "dipv-rrip": DynamicIPVRRIPPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
    "pdp": PDPPolicy,
    "ship": SHiPPolicy,
    "sdbp": SDBPPolicy,
    "counter": CounterBasedPolicy,
    "belady": BeladyPolicy,
}


def policy_factory(name: str) -> Callable[..., ReplacementPolicy]:
    """The constructor registered as ``name``; ``ValueError`` if none is."""
    try:
        return POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown policy {name!r}; known: {known}") from None


def make_policy(
    name: str, num_sets: int, assoc: int, **kwargs
) -> ReplacementPolicy:
    """Instantiate a registered policy by name."""
    return policy_factory(name)(num_sets, assoc, **kwargs)


def policy_names() -> List[str]:
    return sorted(POLICIES)
