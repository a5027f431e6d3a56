"""Core primitives: PLRU tree, IPVs, recency stacks and set-dueling."""

from .dueling import DuelSelector, SaturatingCounter, assign_leader_sets
from .ipv import IPV, lip_ipv, lru_ipv, mru_pessimistic_ipv, random_ipv
from .plru import (
    PLRUTree,
    all_positions,
    find_plru,
    position,
    promote,
    set_position,
    way_at_position,
)
from .recency import RecencyStack
from .vectors import (
    DGIPPR2_WI_VECTORS,
    DGIPPR4_WI_VECTORS,
    GIPLR_VECTOR,
    GIPPR_WI_VECTOR,
    GIPPR_WN1_PERLBENCH,
    LIP16,
    LRU16,
    paper_vectors,
)

__all__ = [
    "IPV",
    "lru_ipv",
    "lip_ipv",
    "mru_pessimistic_ipv",
    "random_ipv",
    "PLRUTree",
    "find_plru",
    "promote",
    "position",
    "set_position",
    "all_positions",
    "way_at_position",
    "RecencyStack",
    "SaturatingCounter",
    "DuelSelector",
    "assign_leader_sets",
    "GIPLR_VECTOR",
    "GIPPR_WI_VECTOR",
    "GIPPR_WN1_PERLBENCH",
    "DGIPPR2_WI_VECTORS",
    "DGIPPR4_WI_VECTORS",
    "LRU16",
    "LIP16",
    "paper_vectors",
]
