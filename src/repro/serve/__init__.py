"""``repro.serve`` — the fault-tolerant multi-tenant protocol service.

The rest of the repository is a library: engines (protocol runs, exhaustive
``D(f)`` search, partition sweeps) invoked in-process by whoever imports
them.  This package puts those engines behind a *served* interface — the
first step toward the ROADMAP's production-scale, many-client north star
and toward the coordinator topology of the multiplayer message-passing
model (Li–Sun–Wang–Woodruff): one mediator, many concurrent parties.

The layers, bottom to top:

* :mod:`repro.serve.wire` — the versioned JSON frame format (schema v1):
  CRC-protected request/response frames and the pinned structured-error
  schema every failure mode maps onto.
* :mod:`repro.serve.service` — the asyncio :class:`~repro.serve.service.
  Service`: per-client admission control, a bounded work queue with
  429-style load shedding, deterministic-tick deadlines, request
  coalescing keyed by the blake2b content addresses of
  :mod:`repro.cache`, and per-request step/bit budgets enforced through
  :func:`repro.comm.agents.run_supervised`.
* :mod:`repro.serve.server` — the thin TCP shell (newline-delimited JSON
  frames) behind ``python -m repro serve``.
* :mod:`repro.serve.chaos` — the six fault kinds of
  :mod:`repro.comm.faults`, re-applied to *frames* instead of bits, plus
  the standing gate behind ``python -m repro serve-chaos``: across seeded
  sweeps every request must terminate with a correct result or a
  structured error — zero silent corruption, zero hung connections, zero
  lost requests.

Everything protocol-visible is deterministic: deadlines are measured in
service ticks (completed work units), never wall clock.  The package
makes no wall-clock reads at all; its one wall-clock use is the chaos
gate's safety-net timeout, which turns a hung client into a counted
``hung`` outcome.  Serve latency is measured from outside the library,
by ``perfbench/serve_mixed.py``.  See ``docs/serving.md`` for the full
API and semantics.
"""

from repro.serve.chaos import (
    FRAME_FAULT_KINDS,
    FrameFaultModel,
    FramePipe,
    ServeChaosPoint,
    chaos_sweep,
    make_frame_fault_model,
)
from repro.serve.server import serve_tcp
from repro.serve.service import Service, ServiceConfig
from repro.serve.wire import (
    ERROR_CODES,
    ERROR_SCHEMA_VERSION,
    WIRE_VERSION,
    FrameError,
    Request,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    request_frame,
    validate_request,
    validate_response,
)

__all__ = [
    "ERROR_CODES",
    "ERROR_SCHEMA_VERSION",
    "FRAME_FAULT_KINDS",
    "FrameError",
    "FrameFaultModel",
    "FramePipe",
    "Request",
    "ServeChaosPoint",
    "Service",
    "ServiceConfig",
    "WIRE_VERSION",
    "chaos_sweep",
    "decode_frame",
    "encode_frame",
    "error_response",
    "make_frame_fault_model",
    "ok_response",
    "request_frame",
    "serve_tcp",
    "validate_request",
    "validate_response",
]
