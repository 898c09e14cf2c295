"""Deliberate DET/ISO violations in serve code — scanned, never imported.

The serve contract the lint rules pin down: handlers make no
protocol-visible decision from the wall clock (deadlines are service
ticks), draw no ambient randomness (workloads and faults are seeded),
let no unordered iteration reach a frame encoder, and share no mutable
per-client state through module globals.  The only legitimate wall reads
live in the load harness's latency probes, behind inline pragmas —
mirrored here by the control case.
"""

import random
import time

_PER_CLIENT_STATE = {}

SERVICE_NAME = "fixture-serve"  # control: immutable module global


def encode_frame(obj):
    """Local stand-in so sink detection has something to find."""
    return str(obj)


def deadline_from_wall_clock(request):
    return time.monotonic() + request["timeout"]  # DET203: wall deadline


def jittered_backoff():
    return random.random() * 4  # DET201: unseeded backoff jitter


def leaks_param_order(params):
    frames = []
    for value in params.values():  # DET204: dict order reaches the encoder
        frames.append(encode_frame(value))
    return frames


def latency_probe():
    # a measurement-only wall read: declared, documented, suppressed
    return time.perf_counter()  # repro-lint: disable=DET203 -- latency probe


def canonical_response(params):
    out = {}
    for key in sorted(params):  # control: sorted() iteration in a sink fn
        out[key] = params[key]
    return encode_frame(out)


def agent0(view0):
    _PER_CLIENT_STATE["last"] = view0  # ISO302: shared per-client state
    return _PER_CLIENT_STATE


def alice_session(view0):
    global SERVICE_NAME  # ISO302: global statement from a party
    SERVICE_NAME = "hijacked"
    return view0


def tick_deadline(request, now_ticks):
    """Control: the deterministic deadline the real service uses."""
    return now_ticks + request.get("deadline_ticks", 1)
