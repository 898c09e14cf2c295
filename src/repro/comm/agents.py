"""The two-agent runtime: generator coroutines over a :class:`BitChannel`.

An *agent program* is a Python generator function.  It receives its local
input (plus an optional public random string), and communicates by yielding
effect objects:

* ``yield Send(value, width)`` — transmit the ``width``-bit payload
  ``value`` to the peer (bit ``i`` of ``value`` is the ``i``-th bit on the
  wire, so ``Send(bits_to_int(p), len(p))`` sends the bit list ``p``);
* ``value = yield Recv(n)`` — block until n bits arrive, receive them
  packed the same way, as one int;
* ``value = yield Recv(n, timeout=t)`` — same, but if the run stalls for
  ``t`` ticks the agent is woken with ``None`` instead (the deterministic,
  wall-clock-free timeout the reliable transport builds retransmission on);
* ``value, width = yield Drain()`` — immediately receive whatever is
  queued (possibly nothing) without blocking;
* ``return value``        — finish with a local output.

The :func:`run_protocol` scheduler alternates the two generators with a
cooperative, deterministic discipline (agent 0 runs until it blocks, then
agent 1, …), detects deadlock, and returns both outputs plus the transcript.
This mirrors the mpi4py send/recv idiom while keeping everything
single-threaded and replayable.

Time is a logical *tick* counter owned by the scheduler: it only advances
when no agent can make progress, jumping straight to the earliest pending
Recv deadline.  Runs are therefore fully deterministic — same programs,
same inputs, same faults ⇒ same tick sequence.

On top of the raw scheduler sits the supervision layer:

* :func:`run_protocol` — the strict historical entry point: any failure
  (deadlock, crash, budget) raises.
* :func:`run_supervised` — the production entry point: every failure mode
  is converted into a structured :class:`RunReport` with an outcome in
  ``{ok, deadlock, budget_exceeded, transport_failure, agent_error}``.
* :func:`run_with_retries` — re-executes a flaky randomized protocol with
  fresh coins until it succeeds or the attempt budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator

from repro.comm.channel import (
    BitChannel,
    ChannelClosed,
    Transcript,
    TransportFailure,
)
from repro.trace import core as trace
from repro.util.rng import ReproducibleRNG, derive_seed


@dataclass(frozen=True)
class Send:
    """Effect: transmit the ``width``-bit payload ``value`` to the peer.

    Bit ``i`` of ``value`` is the ``i``-th bit on the wire.  The range
    ``0 <= value < 2**width`` is checked here, once per message, so a
    malformed payload is an error of the agent that built it.
    """

    value: int
    width: int

    def __post_init__(self):
        if not (self.width >= 0 and 0 <= self.value < 1 << self.width):
            raise ValueError(f"payload {self.value!r} is not a {self.width}-bit value")


@dataclass(frozen=True)
class Recv:
    """Effect: wait for exactly ``nbits`` bits from the peer, as one int.

    With ``timeout=None`` (the default) the agent blocks until the bits
    arrive — or the run deadlocks.  With an integer ``timeout`` the agent
    is instead woken with ``None`` once the whole run has stalled and the
    logical clock has advanced ``timeout`` ticks past the moment it
    blocked.
    """

    nbits: int
    timeout: int | None = None

    def __post_init__(self):
        if self.nbits < 0:
            raise ValueError("nbits must be non-negative")
        if self.timeout is not None and self.timeout < 1:
            raise ValueError("timeout must be None or >= 1 tick")


@dataclass(frozen=True)
class Drain:
    """Effect: immediately receive all queued bits as ``(value, width)``
    (never blocks).

    The reliable transport uses it to flush the unreadable tail of a
    corrupted or truncated frame so the bit stream realigns on the next
    retransmission.
    """


AgentProgram = Generator["Send | Recv | Drain", Any, Any]


class ProtocolDeadlock(Exception):
    """Both agents are blocked on Recv (no timeout) and no bits are in flight."""


class ProtocolError(Exception):
    """An agent misbehaved (bad yield, output mismatch, unread bits…)."""


class BudgetExceeded(ProtocolError):
    """An agent overran its step or bit budget."""


class _AgentCrash(Exception):
    """Internal: wraps an exception raised inside an agent program."""

    def __init__(self, agent: int, original: BaseException):
        super().__init__(f"agent {agent} crashed: {original!r}")
        self.agent = agent
        self.original = original


@dataclass(frozen=True)
class RunResult:
    """Everything observable about one protocol execution.

    Attributes:
        outputs: the two agents' return values.
        transcript: the channel transcript (bits, rounds, directions).
    """

    outputs: tuple[Any, Any]
    transcript: Transcript

    @property
    def bits_exchanged(self) -> int:
        """Total bits across both directions — the protocol's cost."""
        return self.transcript.total_bits

    @property
    def rounds(self) -> int:
        """Maximal same-sender message blocks."""
        return self.transcript.rounds

    def agreed_output(self) -> Any:
        """The common output, when the protocol computes a shared answer.

        Both agents must return equal non-None values (or exactly one may
        return None, meaning "the other agent is responsible for the output"
        — the model lets output responsibility be split).
        """
        a, b = self.outputs
        if a is None:
            return b
        if b is None:
            return a
        if a != b:
            raise ProtocolError(f"agents disagree: {a!r} vs {b!r}")
        return a


#: The legal :attr:`RunReport.outcome` values.
OUTCOMES = ("ok", "deadlock", "budget_exceeded", "transport_failure", "agent_error")


@dataclass(frozen=True)
class RunReport:
    """A structured verdict on one supervised protocol execution.

    Unlike :class:`RunResult` (which only exists for clean runs), a report
    exists for *every* run: crashes, deadlocks, exhausted budgets and
    transport give-ups all land here as data, not exceptions.

    Attributes:
        outcome: one of :data:`OUTCOMES`.
        outputs: the agents' return values (None for agents that never
            finished).
        transcript: the channel transcript — everything that was paid for.
        detail: human-readable failure specifics ("" on success).
        fault_events: injected faults, when the channel was a
            :class:`~repro.comm.faults.FaultyChannel`.
        retries: transport-level retransmissions + timeouts, filled in by
            callers that own the transport endpoints (e.g.
            :func:`repro.matrix.sweep.run_arq`).
        overhead_bits: transcript bits beyond the inner protocol's payload
            (framing, checksums, acks, retransmissions).
        payload_bits: the inner protocol's own bits, as counted by the
            transport layer.
        unread_bits: bits still queued when the run ended (0 for a clean,
            fully-framed exchange).
        attempts: how many supervised executions :func:`run_with_retries`
            used to produce this report (1 for a direct run).
        ticks: final value of the scheduler's logical clock.
        steps: generator advances consumed per agent.
    """

    outcome: str
    outputs: tuple[Any, Any]
    transcript: Transcript
    detail: str = ""
    fault_events: tuple = ()
    retries: int = 0
    overhead_bits: int = 0
    payload_bits: int = 0
    unread_bits: int = 0
    attempts: int = 1
    ticks: int = 0
    steps: tuple[int, int] = (0, 0)

    @property
    def ok(self) -> bool:
        """True iff the run completed cleanly."""
        return self.outcome == "ok"

    @property
    def bits_exchanged(self) -> int:
        """Total bits across both directions — the cost actually paid."""
        return self.transcript.total_bits

    @property
    def faults_injected(self) -> int:
        """Number of fault events the channel logged during the run."""
        return len(self.fault_events)

    def agreed_output(self) -> Any:
        """The common output of a clean run.

        Raises :class:`ProtocolError` if the run did not complete or the
        agents disagree.
        """
        if not self.ok:
            raise ProtocolError(
                f"run ended with outcome {self.outcome!r}: {self.detail}"
            )
        return RunResult(self.outputs, self.transcript).agreed_output()


@dataclass
class _SchedulerState:
    """Mutable bookkeeping for one execution (internal)."""

    finished: list[bool] = field(default_factory=lambda: [False, False])
    outputs: list[Any] = field(default_factory=lambda: [None, None])
    waiting: list[Recv | None] = field(default_factory=lambda: [None, None])
    deadline: list[int | None] = field(default_factory=lambda: [None, None])
    steps: list[int] = field(default_factory=lambda: [0, 0])
    sent_bits: list[int] = field(default_factory=lambda: [0, 0])
    now: int = 0


def _instantiate(
    program0: Callable[..., AgentProgram],
    program1: Callable[..., AgentProgram],
    input0: Any,
    input1: Any,
    public_randomness: Any,
) -> list[AgentProgram]:
    """Call the two program factories with or without public coins."""
    if public_randomness is None:
        return [program0(input0), program1(input1)]
    return [
        program0(input0, public_randomness),
        program1(input1, public_randomness),
    ]


def _execute(
    gens: list[AgentProgram],
    channel: BitChannel,
    *,
    max_steps: int,
    step_budget: int | None,
    bit_budget: int | None,
) -> _SchedulerState:
    """Drive both generators to completion over ``channel``.

    The deterministic cooperative scheduler: an agent runs until it blocks
    on an unsatisfiable ``Recv`` or finishes; control then passes to the
    other agent.  When neither can progress, the logical clock jumps to the
    earliest pending ``Recv`` deadline and that agent is woken with ``None``
    (its timeout); if no deadline is pending the run is a deadlock.

    Failure channel: raises :class:`ProtocolDeadlock`,
    :class:`BudgetExceeded`, :class:`ProtocolError`,
    :class:`~repro.comm.channel.ChannelClosed`,
    :class:`~repro.comm.channel.TransportFailure` (from inside an agent) or
    :class:`_AgentCrash` wrapping any other agent exception.
    """
    state = _SchedulerState()

    def advance(agent: int, to_inject: Any) -> None:
        """Run one agent until it blocks or finishes."""
        gen = gens[agent]
        inject = to_inject
        for _ in range(max_steps):
            try:
                effect = gen.send(inject)
            except StopIteration as stop:
                state.finished[agent] = True
                state.outputs[agent] = stop.value
                state.waiting[agent] = None
                state.deadline[agent] = None
                return
            except (TransportFailure, ChannelClosed):
                raise
            except (ProtocolDeadlock, ProtocolError):
                raise
            except BaseException as exc:
                raise _AgentCrash(agent, exc) from exc
            inject = None
            state.steps[agent] += 1
            if step_budget is not None and state.steps[agent] > step_budget:
                raise BudgetExceeded(
                    f"agent {agent} exceeded its step budget of {step_budget}"
                )
            if isinstance(effect, Send):
                state.sent_bits[agent] += effect.width
                if bit_budget is not None and state.sent_bits[agent] > bit_budget:
                    raise BudgetExceeded(
                        f"agent {agent} exceeded its bit budget of {bit_budget}"
                    )
                channel.send(agent, effect.value, effect.width)
            elif isinstance(effect, Recv):
                if channel.available(agent) >= effect.nbits:
                    inject = channel.recv(agent, effect.nbits)
                else:
                    state.waiting[agent] = effect
                    state.deadline[agent] = (
                        None
                        if effect.timeout is None
                        else state.now + effect.timeout
                    )
                    return
            elif isinstance(effect, Drain):
                inject = channel.drain(agent)
            else:
                raise ProtocolError(
                    f"agent {agent} yielded {effect!r}; expected Send, Recv or Drain"
                )
        raise ProtocolError("max_steps exceeded; runaway agent program")

    # Prime both generators (run to first effect or completion).
    current = 0
    advance(0, None)
    advance(1, None)
    for _ in range(max_steps):
        if all(state.finished):
            break
        progressed = False
        for agent in (current, 1 - current):
            if state.finished[agent]:
                continue
            want = state.waiting[agent]
            assert want is not None, "unfinished agent must be waiting on Recv"
            if channel.available(agent) >= want.nbits:
                state.waiting[agent] = None
                state.deadline[agent] = None
                advance(agent, channel.recv(agent, want.nbits))
                progressed = True
                current = agent
                break
        if progressed:
            continue
        # No agent can run on data alone — fire the earliest timeout.
        pending = [
            (state.deadline[i], i)
            for i in (0, 1)
            if not state.finished[i] and state.deadline[i] is not None
        ]
        if pending:
            when, agent = min(pending)
            state.now = max(state.now, when)
            state.waiting[agent] = None
            state.deadline[agent] = None
            advance(agent, None)  # None = "your Recv timed out"
            current = agent
            continue
        blocked = [i for i in (0, 1) if not state.finished[i]]
        raise ProtocolDeadlock(
            f"agents {blocked} blocked on Recv with no bits in flight "
            f"(transcript so far: {channel.total_bits} bits)"
        )
    else:
        raise ProtocolError("max_steps exceeded in scheduler loop")
    return state


def run_protocol(
    program0: Callable[..., AgentProgram],
    program1: Callable[..., AgentProgram],
    input0: Any,
    input1: Any,
    *,
    public_randomness: Any = None,
    max_steps: int = 10_000_000,
    channel: BitChannel | None = None,
    step_budget: int | None = None,
    bit_budget: int | None = None,
) -> RunResult:
    """Execute two agent programs to completion over a (fresh) channel.

    ``program0``/``program1`` are generator functions.  They are called as
    ``program(input)`` or, when ``public_randomness`` is given, as
    ``program(input, public_randomness)`` (the public-coin model: both see
    the same random object).

    This is the *strict* entry point: deadlocks, crashes, budget overruns
    and framing inconsistencies raise.  Production code that must survive
    misbehaving channels should use :func:`run_supervised` instead.
    """
    if channel is None:
        channel = BitChannel()
    gens = _instantiate(program0, program1, input0, input1, public_randomness)
    with trace.span("protocol.run", runner="run_protocol"):
        try:
            state = _execute(
                gens,
                channel,
                max_steps=max_steps,
                step_budget=step_budget,
                bit_budget=bit_budget,
            )
        except _AgentCrash as crash:
            raise crash.original
        if not channel.drained():
            raise ProtocolError(
                "protocol finished with unread bits on the channel — "
                "message framing is inconsistent between the agents"
            )
        channel.close()
        transcript = channel.transcript
        trace.event(
            "run.report",
            outcome="ok",
            bits=transcript.total_bits,
            rounds=transcript.rounds,
            leaf=transcript.as_bit_string(),
            unread=0,
        )
    return RunResult((state.outputs[0], state.outputs[1]), channel.transcript)


def run_supervised(
    program0: Callable[..., AgentProgram],
    program1: Callable[..., AgentProgram],
    input0: Any,
    input1: Any,
    *,
    public_randomness: Any = None,
    max_steps: int = 10_000_000,
    channel: BitChannel | None = None,
    step_budget: int | None = None,
    bit_budget: int | None = None,
) -> RunReport:
    """Execute under supervision: every failure mode becomes a report.

    The outcome taxonomy:

    * ``ok`` — both agents returned and the channel drained;
    * ``deadlock`` — both agents blocked with no timeout pending;
    * ``budget_exceeded`` — an agent overran ``step_budget``/``bit_budget``;
    * ``transport_failure`` — the reliable transport gave up
      (:class:`~repro.comm.channel.TransportFailure`) or the channel died
      (:class:`~repro.comm.channel.ChannelClosed`);
    * ``agent_error`` — any other exception inside an agent program, or a
      protocol-discipline violation (bad yield, runaway loop).

    Unread bits at the end of an otherwise clean run are *reported*
    (``unread_bits``) rather than raised, because fault injection can leave
    stray duplicate deliveries behind through no fault of the protocol.
    """
    if channel is None:
        channel = BitChannel()
    gens = _instantiate(program0, program1, input0, input1, public_randomness)
    outcome = "ok"
    detail = ""
    state = _SchedulerState()
    with trace.span("protocol.run", runner="run_supervised"):
        try:
            state = _execute(
                gens,
                channel,
                max_steps=max_steps,
                step_budget=step_budget,
                bit_budget=bit_budget,
            )
        except ProtocolDeadlock as exc:
            outcome, detail = "deadlock", str(exc)
        except BudgetExceeded as exc:
            outcome, detail = "budget_exceeded", str(exc)
        except (TransportFailure, ChannelClosed) as exc:
            outcome, detail = "transport_failure", f"{type(exc).__name__}: {exc}"
        except _AgentCrash as crash:
            outcome, detail = "agent_error", str(crash)
        except ProtocolError as exc:
            outcome, detail = "agent_error", f"ProtocolError: {exc}"
        unread = channel.available(0) + channel.available(1)
        fault_events: tuple = ()
        fault_log = getattr(channel, "fault_log", None)
        if fault_log is not None:
            fault_events = tuple(fault_log.events)
        channel.close()
        transcript = channel.transcript
        fault_kinds = {} if fault_log is None else fault_log.kinds()
        trace.event(
            "run.report",
            outcome=outcome,
            bits=transcript.total_bits,
            rounds=transcript.rounds,
            leaf=transcript.as_bit_string(),
            unread=unread,
            ticks=state.now,
            faults=len(fault_events),
            fault_kinds={k: fault_kinds[k] for k in sorted(fault_kinds)},
        )
    return RunReport(
        outcome=outcome,
        outputs=(state.outputs[0], state.outputs[1]),
        transcript=channel.transcript,
        detail=detail,
        fault_events=fault_events,
        unread_bits=unread,
        ticks=state.now,
        steps=(state.steps[0], state.steps[1]),
    )


def run_with_retries(
    program0: Callable[..., AgentProgram],
    program1: Callable[..., AgentProgram],
    input0: Any,
    input1: Any,
    *,
    attempts: int = 3,
    seed: int | None = 0,
    channel_factory: Callable[[int], BitChannel] | None = None,
    accept: Callable[[RunReport], bool] | None = None,
    max_steps: int = 10_000_000,
    step_budget: int | None = None,
    bit_budget: int | None = None,
) -> RunReport:
    """Re-execute a flaky protocol with fresh randomness until it succeeds.

    Each attempt gets independent public coins (derived deterministically
    from ``seed`` and the attempt index) and a fresh channel from
    ``channel_factory`` (a plain :class:`BitChannel` when omitted).  The
    first report with outcome ``ok`` — and passing ``accept`` when given —
    is returned with its ``attempts`` field set; if every attempt fails,
    the last report is returned (so the caller still sees *why*).

    With ``seed=None`` the programs are run coinless (deterministic
    protocols whose flakiness comes from the channel, not the coins).
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    report: RunReport | None = None
    for attempt in range(attempts):
        coins = (
            None
            if seed is None
            else ReproducibleRNG(derive_seed(seed, "retry", attempt))
        )
        channel = channel_factory(attempt) if channel_factory else None
        report = run_supervised(
            program0,
            program1,
            input0,
            input1,
            public_randomness=coins,
            max_steps=max_steps,
            channel=channel,
            step_budget=step_budget,
            bit_budget=bit_budget,
        )
        report = replace(report, attempts=attempt + 1)
        if report.ok and (accept is None or accept(report)):
            return report
    assert report is not None
    return report
