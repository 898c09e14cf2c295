"""Wire schema v1: framing, checksums, and the corruption property suite.

The Hypothesis half is the satellite gate: *any* byte-mangled or
truncated request must come back as a structured error response obeying
the pinned error schema v1 — never an exception escaping the service,
never a dropped (unanswered) request.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import wire
from repro.serve.service import Service
from repro.serve.wire import (
    ERROR_CODES,
    FrameError,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    request_frame,
    validate_request,
    validate_response,
)


class TestFraming:
    def test_round_trip(self):
        frame = decode_frame(
            request_frame("r1", "cache.stats", {}, tenant="t").rstrip(b"\n")
        )
        request = validate_request(frame)
        assert request.id == "r1"
        assert request.method == "cache.stats"
        assert request.tenant == "t"
        assert request.deadline_ticks is None

    def test_decoded_frames_share_field_names(self):
        first = decode_frame(ok_response("a", {"answer": True, "bits": 3}))
        second = decode_frame(ok_response("b", {"answer": False, "bits": 5}))
        names = [
            {name: name for name in (*frame, *frame["result"])}
            for frame in (first, second)
        ]
        for name in names[0]:
            assert names[0][name] is names[1][name]

    def test_encoding_is_canonical_and_crc_stamped(self):
        data = encode_frame({"v": 1, "id": "x", "ok": True, "result": {}})
        text = data.decode().rstrip("\n")
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        obj = json.loads(text)
        assert obj["crc"] == wire.frame_crc(obj)

    def test_single_bit_garble_fails_the_checksum(self):
        data = bytearray(request_frame("r1", "cache.stats"))
        data[len(data) // 2] ^= 0x10
        with pytest.raises(FrameError) as err:
            decode_frame(bytes(data))
        assert err.value.code == "bad_frame"

    def test_oversized_frame_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"x" * (wire.MAX_FRAME_BYTES + 1))

    def test_unknown_fields_rejected(self):
        frame = decode_frame(
            encode_frame({
                "v": 1, "id": "r", "method": "cache.stats", "params": {},
                "tenant": "t", "extra": 1,
            })
        )
        with pytest.raises(FrameError) as err:
            validate_request(frame)
        assert err.value.code == "bad_request"
        assert err.value.frame_id == "r"

    def test_foreign_version_rejected(self):
        frame = decode_frame(
            encode_frame({"v": 2, "id": "r", "method": "cache.stats"})
        )
        with pytest.raises(FrameError) as err:
            validate_request(frame)
        assert err.value.code == "unsupported_version"


class TestErrorSchemaV1:
    def test_every_code_produces_a_valid_payload(self):
        for code in ERROR_CODES:
            frame = decode_frame(error_response("r", code, "msg").rstrip(b"\n"))
            checked = validate_response(frame)
            error = checked["error"]
            assert error["schema"] == 1
            assert error["code"] == code
            assert isinstance(error["retryable"], bool)
            assert ("backoff_ticks" in error) == error["retryable"]

    def test_retryable_default_follows_the_taxonomy(self):
        for code, (retryable, _meaning) in ERROR_CODES.items():
            frame = decode_frame(error_response(None, code, "m").rstrip(b"\n"))
            assert frame["error"]["retryable"] is retryable

    def test_unknown_code_refused_at_build_time(self):
        with pytest.raises(ValueError):
            error_response("r", "no_such_code", "m")

    def test_validate_response_pins_the_schema(self):
        bad = decode_frame(error_response("r", "overloaded", "m").rstrip(b"\n"))
        bad["error"]["schema"] = 2
        with pytest.raises(FrameError):
            validate_response(bad)
        missing_backoff = decode_frame(
            error_response("r", "overloaded", "m").rstrip(b"\n")
        )
        del missing_backoff["error"]["backoff_ticks"]
        with pytest.raises(FrameError):
            validate_response(missing_backoff)

    def test_ok_response_round_trip(self):
        frame = validate_response(
            decode_frame(ok_response("r", {"d": 2}).rstrip(b"\n"))
        )
        assert frame["ok"] is True and frame["result"] == {"d": 2}


def _call(data: bytes) -> bytes:
    """One service call on a fresh (unstarted) service — pure decode path.

    Corrupted frames never reach the queue, so an unstarted service
    exercises exactly the containment boundary the property gates on; a
    frame that *survives* decoding gets a structured ``shutting_down``.
    """
    return asyncio.run(Service().call(data, tenant="hypothesis"))


def _assert_structured(raw: bytes) -> dict:
    """The response must decode and validate under the pinned schema."""
    frame = validate_response(decode_frame(raw.rstrip(b"\n")))
    if not frame["ok"]:
        assert frame["error"]["code"] in ERROR_CODES
    return frame


class TestCorruptionProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_arbitrary_bytes_get_a_structured_response(self, blob):
        _assert_structured(_call(blob))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=7),
    )
    def test_single_bit_mangle_never_escapes(self, position, bit):
        frame = bytearray(
            request_frame("h-1", "exhaustive.cc", {"matrix": [[1, 0], [0, 1]]})
        )
        frame[position % len(frame)] ^= 1 << bit
        response = _assert_structured(_call(bytes(frame)))
        # A flipped bit cannot silently alter the request: either the
        # checksum catches it (bad_frame) or — vanishingly rarely — the
        # flip lands in ignorable whitespace semantics and still parses
        # identically.  It must never execute as a *different* request.
        if not response["ok"]:
            assert response["error"]["code"] in ERROR_CODES

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_truncation_never_escapes(self, cut):
        frame = request_frame("h-2", "protocol.run", {"scenario": "equality"})
        truncated = frame[: cut % len(frame)]
        response = _assert_structured(_call(truncated))
        assert response["ok"] is False  # a prefix is never a valid frame

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=1, max_size=40), st.integers(0, 10_000))
    def test_random_insertion_never_escapes(self, insert, where):
        frame = request_frame("h-3", "cache.stats")
        index = where % len(frame)
        _assert_structured(_call(frame[:index] + insert + frame[index:]))

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_json_text_never_escapes(self, text):
        _assert_structured(_call(text.encode("utf-8", errors="replace")))
