"""Deliberate COST plan-accounting cases — scanned by lint tests, never run.

The fixture plan table lives in ``../costs/plan.py``; the fixture config
narrows the cost scope to exactly this module so the SES/ISO/DET fixture
protocols elsewhere in the tree stay out of plan accounting.
"""


def Send(value, width):
    return value, width


def Recv(nbits):
    return nbits


class AccountedProtocol:
    """Control: the derived plan matches the declared entry exactly."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        yield Send(x, self.n_bits)
        verdict = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(self.n_bits)
        yield Send(1, 1)


class DriftedProtocol:
    """COST601: code ships 2*n_bits where the table still says n_bits."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        yield Send(x, 2 * self.n_bits)
        verdict = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(2 * self.n_bits)
        yield Send(1, 1)


class UndeclaredProtocol:
    """COST602: exchanges bits but the plan table has no entry for it."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        yield Send(x, self.n_bits)
        verdict = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(self.n_bits)
        yield Send(1, 1)


class SilencedDrift:  # repro-lint: disable=COST601 -- seeded pragma case
    """Pragma control: same drift as DriftedProtocol, suppressed."""

    def __init__(self, n_bits):
        self.n_bits = n_bits

    def agent0(self, x):
        yield Send(x, 2 * self.n_bits)
        verdict = yield Recv(1)

    def agent1(self, y):
        payload = yield Recv(2 * self.n_bits)
        yield Send(1, 1)
