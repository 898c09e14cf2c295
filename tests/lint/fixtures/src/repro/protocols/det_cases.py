"""Deliberate DET violations — scanned by the lint tests, never imported."""

import random
import time
from datetime import datetime
from random import shuffle

import numpy as np


def Send(value, width):
    """Local stand-in so sink detection has something to find."""
    return value, width


def ambient_coin():
    return random.randrange(2)  # DET201


def ambient_shuffle(xs):
    shuffle(xs)  # import line is the DET201 finding
    return xs


def np_noise(n):
    return np.random.randint(0, 2, size=n)  # DET202


def wall_clock_deadline():
    return time.time() + 5  # DET203


def stamped():
    return datetime.now()  # DET203 (plus the import-line finding)


def leaks_set_order(positions, view):
    out = []
    for p in set(positions):  # DET204: unordered order reaches Send
        out.append(Send(view[p], 1))
    return out


def leaks_values_view(table):
    return [Send(v, 1) for v in table.values()]  # DET204


def harmless_set_iteration(positions):
    return sorted(p for p in set(positions))  # control: no sink in here


def canonical_order(positions, view):
    out = []
    for p in sorted(positions):  # control: sorted() iteration in a sink fn
        out.append(Send(view[p], 1))
    return out
