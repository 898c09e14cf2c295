"""Deliberate SES duality violations — scanned by the lint tests, never run."""


def Send(value, width):
    return value, width


def Recv(nbits):
    return nbits


class MismatchedTurnOrder:
    """SES501: both parties speak first — a static deadlock."""

    def agent0(self, x):
        yield Send(x, 1)
        ack = yield Recv(1)

    def agent1(self, y):
        yield Send(y, 1)  # wrong: should Recv agent0's bit first
        ack = yield Recv(1)


class UnmatchedRecv:
    """SES501: agent1 expects a second message nobody sends."""

    def agent0(self, x):
        yield Send(x, 1)

    def agent1(self, y):
        bit = yield Recv(1)
        extra = yield Recv(1)
        yield Send(1, 1)


class WidthMismatch:
    """SES502: widths resolve on both sides and disagree by one bit."""

    def __init__(self, width):
        self.width = width

    def agent0(self, x):
        yield Send(x, self.width)
        ack = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(self.width + 1)  # off by one
        yield Send(1, 1)


class LoopBoundMismatch:
    """SES503: the parties disagree on the number of rounds."""

    def __init__(self, rounds):
        self.rounds = rounds

    def agent0(self, x):
        for _ in range(self.rounds):
            yield Send(x, 1)
        ack = yield Recv(1)

    def agent1(self, y):
        for _ in range(self.rounds + 1):
            bit = yield Recv(1)
        yield Send(1, 1)


class WellPaired:
    """Control: a textbook dual pair — no findings."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        yield Send(x, self.n_bits)
        verdict = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(self.n_bits)
        yield Send(1, 1)


class DispatchedProtocol:
    """Control: agents dispatch to distinct helpers; extraction follows."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        return self._talk(x)

    def _talk(self, value):
        yield Send(value, self.n_bits)
        ack = yield Recv(1)

    def agent1(self, y):
        return self._listen(y)

    def _listen(self, value):
        payload = yield Recv(self.n_bits)
        yield Send(1, 1)


class StreamingRecv:
    """Control: data-dependent while loops degrade to UNBOUNDED, not a crash.

    The bounds are unresolvable so duality holds structurally; nothing
    is reported and the loop carries the documented UNBOUNDED term.
    """

    def agent0(self, x):
        while x:
            yield Send(x[0], 1)
            x = x[1:]
        ack = yield Recv(1)

    def agent1(self, y):
        while y:
            bit = yield Recv(1)
            y = y - 1
        yield Send(1, 1)


class SilencedMismatch:  # repro-lint: disable=SES501 -- seeded pragma case
    """Pragma control: same defect as MismatchedTurnOrder, suppressed."""

    def agent0(self, x):
        yield Send(x, 1)
        ack = yield Recv(1)

    def agent1(self, y):
        yield Send(y, 1)
        ack = yield Recv(1)
