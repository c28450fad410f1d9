"""A fixed kernel, timed between ops, that tracks the host's speed.

The benchmark runs on a few cores of a shared host, whose speed for the
same work drifts by up to 2x over periods of seconds to minutes.  Every op
is bracketed by a probe of this kernel, and its wall time is scaled to the
reference speed:

    scaled = seconds * REFERENCE_S / mean(probe before, probe after)

The kernel mixes what the ops spend their time on: numpy transcendentals,
small matrix products and interpreted Python.  It imports nothing from
confsphere, so a change to the program moves the scaled times and not the
probe.  REFERENCE_S is the kernel's best time on the reference machine
(README.md, run record), so scaled times read as seconds on that machine.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: best wall time of one kernel pass on the reference machine
REFERENCE_S = 0.45e-3
#: kernel passes per probe; the probe is their best time
PASSES = 3

_THETA = np.linspace(0.0, 2.0 * np.pi, 2048)
_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def _kernel() -> float:
    acc = 0.0
    for k in range(1, 9):
        acc += float(np.cos(k * _THETA).sum())
    b = _MATRIX
    for _ in range(4):
        b = np.tanh(b @ _MATRIX * 0.1)
    total = 0
    for i in range(3000):
        total += i * i
    return acc + float(b[0, 0]) + total


def probe() -> float:
    """Best wall time of a few kernel passes, in seconds."""
    best = float("inf")
    for _ in range(PASSES):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds, probes) -> list:
    """Op times scaled to the reference speed; op i lies between probes i and i + 1."""
    return [t * REFERENCE_S * 2.0 / (probes[i] + probes[i + 1]) for i, t in enumerate(seconds)]
