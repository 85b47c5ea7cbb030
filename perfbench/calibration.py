"""Host speed probe, so that times measured at different host speeds compare.

On a shared machine the speed a process gets changes from minute to minute
with what other tenants run; on the 2-vCPU development machine the median
``riaho verify all`` time of 20-second windows varied by 18% (coefficient
of variation), with wall time equal to CPU time and no steal time.  The
benchmark therefore runs this probe before and after every timed operation
and scales the operation's time by ``NOMINAL_S`` over the mean of the two
probe times.  Reported times are "reference seconds": what the operation
would take on a host on which the probe takes ``NOMINAL_S``.

The probe does the three kinds of work riaho does, in code of its own: a
fixed-step RK4 loop over 4-element numpy arrays (like ``classdyn``), exact
``Fraction`` arithmetic (like the exact ring in ``phasealg``) and small dense
LAPACK calls (like ``fockeng``).  Work of the same kind slows alike when the
host is busy: on the development machine this probe brought the 20-second
window variation down to 2-3% on verify-all, exact-algebra and fock-scale,
where a plain integer loop left 6-7%.  The probe never calls riaho, so a
change to riaho moves scaled times exactly as it moves raw ones.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Probe time on the development machine (x86_64, 2 vCPU) when it was quiet.
NOMINAL_S = 0.015

_MATRIX = np.random.default_rng(0).standard_normal((60, 60))


def _rk4_work():
    def rhs(y):
        return np.array([y[2], y[3], -y[0] + 0.3 * y[3], -y[1] - 0.3 * y[2]])

    y, h = np.array([1.0, 0.0, 0.0, 1.0]), 0.01
    for _ in range(400):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _fraction_work():
    total = Fraction(0)
    for i in range(1, 900):
        total = total * Fraction(i, i + 1) + Fraction(1, i)
    return total


def _lapack_work():
    for _ in range(6):
        np.linalg.svd(_MATRIX)
        _MATRIX @ _MATRIX


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    start = time.perf_counter()
    _rk4_work()
    _fraction_work()
    _lapack_work()
    return time.perf_counter() - start


def scale(probe_times) -> float:
    """Factor from measured seconds to reference seconds."""
    return NOMINAL_S * len(probe_times) / sum(probe_times)
