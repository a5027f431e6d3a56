"""TraceEvent schema, serialization, and validation."""

import pytest

from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    TraceEvent,
    event_from_dict,
    validate_event_dict,
)


class TestTraceEvent:
    def test_to_dict_omits_none_fields(self):
        event = TraceEvent("miss", 7, set=3, policy=1, block=42)
        d = event.to_dict()
        assert d == {
            "kind": "miss", "access": 7, "set": 3, "policy": 1, "block": 42
        }
        assert "way" not in d and "pos_before" not in d

    def test_round_trip(self):
        event = TraceEvent(
            "hit", 11, set=2, way=5, pos_before=9, pos_after=0, policy=0,
            block=1234,
        )
        assert event_from_dict(event.to_dict()) == event

    def test_round_trip_all_kinds(self):
        for kind in EVENT_KINDS:
            event = TraceEvent(kind, 1, set=0, way=0, pos_before=1,
                               pos_after=0, value=0, label="psel")
            again = event_from_dict(event.to_dict())
            assert again.kind == kind
            assert again == event

    def test_equality_differs_on_fields(self):
        a = TraceEvent("miss", 1, set=0)
        b = TraceEvent("miss", 1, set=1)
        assert a != b


class TestSchema:
    def test_every_kind_has_schema(self):
        assert set(EVENT_KINDS) == set(EVENT_SCHEMA["kinds"])

    def test_valid_event_passes(self):
        validate_event_dict({"kind": "miss", "access": 3, "set": 0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            validate_event_dict({"kind": "warp", "access": 3})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="access"):
            validate_event_dict({"kind": "miss", "set": 0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            validate_event_dict(
                {"kind": "miss", "access": 3, "set": 0, "bogus": 1}
            )

    def test_type_checked(self):
        with pytest.raises(ValueError):
            validate_event_dict(
                {"kind": "miss", "access": "three", "set": 0}
            )


class TestTelemetryKinds:
    """``psel_sample`` is the one kind that carries a ``label``; like
    every other kind, its ``value`` is integer-only."""

    def test_requires_label_and_value(self):
        with pytest.raises(ValueError, match="value"):
            validate_event_dict(
                {"kind": "psel_sample", "access": 1, "label": "psel"}
            )
        with pytest.raises(ValueError, match="label"):
            validate_event_dict(
                {"kind": "psel_sample", "access": 1, "value": 3}
            )

    def test_bool_value_rejected(self):
        with pytest.raises(ValueError):
            validate_event_dict(
                {"kind": "psel_sample", "access": 1, "label": "psel",
                 "value": True}
            )

    def test_float_value_still_rejected_for_policy_kinds(self):
        with pytest.raises(ValueError):
            validate_event_dict(
                {"kind": "psel_sample", "access": 1, "set": 0,
                 "label": "psel", "value": 0.5}
            )

    def test_serving_kinds_are_not_event_kinds(self):
        # Serving telemetry records latency histograms, not events.
        for kind in ("drift", "slo_violation"):
            assert kind not in EVENT_KINDS
            with pytest.raises(ValueError, match="unknown event kind"):
                validate_event_dict(
                    {"kind": kind, "access": 1, "label": "hit_rate",
                     "value": 1}
                )
