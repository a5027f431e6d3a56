"""Trace-event model and JSON schema.

One simulated access can generate several events; they share the access
index so a reader can reassemble the per-access story.  The kinds:

``hit``
    A resident block was re-referenced.  Carries the way and, when the
    policy exposes recency positions, the PLRU stack position before and
    after the policy's hit handling.
``promotion``
    Emitted alongside a ``hit`` when the block's recency position changed
    (``pos_before`` → ``pos_after``); the *promotion distance* is
    ``pos_before - pos_after`` (positive = moved toward MRU).
``miss``
    The access missed.  Carries the block address.
``eviction``
    A valid block is being replaced.  ``way`` is the victim way,
    ``pos_before`` its recency position at eviction time (``assoc - 1``
    for a well-behaved PLRU victim), ``value`` is 1 if the victim was
    dirty.
``insertion``
    The incoming block was placed.  ``pos_after`` is the recency position
    chosen by the policy's insertion rule (the IPV's last entry for
    GIPPR/DGIPPR).
``bypass``
    The policy declined to allocate the missing block.
``duel_flip``
    The set-dueling selector changed its follower policy as a result of
    this access's miss.  ``policy`` is the newly selected policy index,
    ``value`` the previously selected one.
``psel_sample``
    A sampled saturating-counter value (every ``psel_every`` accesses).
    ``label`` names the counter as the selector's ``counters`` does,
    ``value`` is the raw signed value.

Events serialize to compact JSON objects with ``None`` fields omitted;
:data:`EVENT_SCHEMA` documents required/optional fields per kind and
:func:`validate_event_dict` enforces it (no external jsonschema needed).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "TraceEvent",
    "event_from_dict",
    "validate_event_dict",
]

#: Every kind a :class:`TraceEvent` may carry, in hot-path order.
EVENT_KINDS = (
    "hit",
    "promotion",
    "miss",
    "eviction",
    "insertion",
    "bypass",
    "duel_flip",
    "psel_sample",
)

#: Required / optional integer fields per event kind.  ``kind`` and
#: ``access`` are required everywhere; ``policy`` (the selected policy /
#: IPV index governing the set, -1 when the policy does not duel) is
#: optional everywhere.
EVENT_SCHEMA = {
    "version": 1,
    "common_required": ("kind", "access"),
    "common_optional": ("policy",),
    "kinds": {
        "hit": {"required": ("set", "way"), "optional": ("pos_before", "pos_after", "block")},
        "promotion": {"required": ("set", "way", "pos_before", "pos_after"), "optional": ("block",)},
        "miss": {"required": ("set",), "optional": ("block",)},
        "eviction": {"required": ("set", "way"), "optional": ("pos_before", "value", "block")},
        "insertion": {"required": ("set", "way"), "optional": ("pos_after", "block")},
        "bypass": {"required": ("set",), "optional": ("block",)},
        "duel_flip": {"required": ("set", "policy", "value"), "optional": ()},
        "psel_sample": {"required": ("label", "value"), "optional": ()},
    },
}

_INT_FIELDS = frozenset(
    {"access", "set", "way", "block", "pos_before", "pos_after", "policy", "value"}
)


class TraceEvent:
    """One structured observation from the simulator.

    A plain slotted record; ``to_dict`` omits unset fields so JSONL lines
    stay small.  Field meanings are kind-dependent (see module docstring).
    """

    __slots__ = (
        "kind",
        "access",
        "set",
        "way",
        "block",
        "pos_before",
        "pos_after",
        "policy",
        "value",
        "label",
    )

    def __init__(
        self,
        kind: str,
        access: int,
        set: Optional[int] = None,  # noqa: A002 - matches the wire name
        way: Optional[int] = None,
        block: Optional[int] = None,
        pos_before: Optional[int] = None,
        pos_after: Optional[int] = None,
        policy: Optional[int] = None,
        value: Optional[int] = None,
        label: Optional[str] = None,
    ):
        self.kind = kind
        self.access = access
        self.set = set
        self.way = way
        self.block = block
        self.pos_before = pos_before
        self.pos_after = pos_after
        self.policy = policy
        self.value = value
        self.label = label

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "access": self.access}
        for field in ("set", "way", "block", "pos_before", "pos_after",
                      "policy", "value", "label"):
            v = getattr(self, field)
            if v is not None:
                out[field] = v
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in TraceEvent.__slots__
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(
            f"{f}={getattr(self, f)!r}"
            for f in TraceEvent.__slots__
            if getattr(self, f) is not None
        )
        return f"TraceEvent({fields})"


def event_from_dict(payload: dict) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its ``to_dict`` form."""
    return TraceEvent(
        payload["kind"],
        payload["access"],
        set=payload.get("set"),
        way=payload.get("way"),
        block=payload.get("block"),
        pos_before=payload.get("pos_before"),
        pos_after=payload.get("pos_after"),
        policy=payload.get("policy"),
        value=payload.get("value"),
        label=payload.get("label"),
    )


def validate_event_dict(payload: dict) -> None:
    """Raise ``ValueError`` if ``payload`` violates :data:`EVENT_SCHEMA`."""
    if not isinstance(payload, dict):
        raise ValueError(f"event must be an object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in EVENT_SCHEMA["kinds"]:
        raise ValueError(f"unknown event kind {kind!r}")
    spec = EVENT_SCHEMA["kinds"][kind]
    for field in EVENT_SCHEMA["common_required"]:
        if field not in payload:
            raise ValueError(f"{kind} event missing required field {field!r}")
    for field in spec["required"]:
        if field not in payload:
            raise ValueError(f"{kind} event missing required field {field!r}")
    allowed = (
        set(EVENT_SCHEMA["common_required"])
        | set(EVENT_SCHEMA["common_optional"])
        | set(spec["required"])
        | set(spec["optional"])
    )
    for field, value in payload.items():
        if field not in allowed:
            raise ValueError(f"{kind} event has unexpected field {field!r}")
        if field == "kind":
            continue
        if field == "label":
            if not isinstance(value, str):
                raise ValueError(f"{kind} event field 'label' must be a string")
        elif field in _INT_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{kind} event field {field!r} must be an integer, "
                    f"got {value!r}"
                )
