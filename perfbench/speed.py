"""The host's current speed, from a fixed computation timed between attacks.

The 2-vCPU VM this benchmark was first measured on runs the same Python code
at two speeds about 1.8x apart, switching every few seconds to a few
minutes; CPU time tracks wall time within 1% in both, so the cause lies
below the guest.  A run is too short to average those phases out, so
every time the benchmark reports is scaled to a host on which `reference`
takes REFERENCE_NS: time * REFERENCE_NS / (the median of the reference
runs made next to it).  The raw times go to the run's output file too.

`reference` has two halves of about equal time: six passes of weighted
Gauss reduction on tuples, on a fixed lattice of the full-scale shape
(l = p = 2048, both weights 2^1024), and a loop of small rationals and
frozen dataclasses.  They are the two kinds of work the attack does (big
integers dominate at full scale, small objects at toy scale), and the
host's phases slow them by different amounts.  Measured in 2-second
windows, full-scale attack times over the big-integer half stayed within
4%, while toy attack times over it moved by 12%, over the small half by
6% and over the sum by 8%; unscaled, both moved by up to 1.8x.  It is
frozen here and never calls the program, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import thread_time_ns

# About the reference's time in that VM's slower, more common phase,
# so that scaled times read close to the times measured in that phase.
REFERENCE_NS = 1_000_000

_P = 2048
_Z = (1 << 2047) | 3**1290  # a fixed 2048-bit multiplier
_U1 = (1, _Z - (1 << _P))
_U2 = (2, 2 * _Z - (1 << _P))
_W = 1 << 1024
PASSES = 6
STEPS = 90


@dataclass(frozen=True)
class _Vec:
    x: int
    y: int


def _nearest(num: int, den: int) -> int:
    quot, rem = divmod(num, den)
    return quot + (2 * rem > den)


def reference() -> tuple:
    """Big-integer reduction passes, then small rationals and objects."""
    (x1, y1), (x2, y2) = _U1, _U2
    for _ in range(PASSES):
        c = _nearest(_W * x1 * x2 + _W * y1 * y2, _W * x2 * x2 + _W * y2 * y2)
        x1, y1 = x1 - c * x2, y1 - c * y2
        c = _nearest(_W * x1 * x2 + _W * y1 * y2, _W * x1 * x1 + _W * y1 * y1)
        x2, y2 = x2 - c * x1, y2 - c * y1
    total, v = Fraction(0), _Vec(1, 2)
    for i in range(1, STEPS):
        total += Fraction(i * 37 % 101, i + 7)
        v = _Vec(v.y, (v.x * 31 + i) % 65521)
    return x1, y1, x2, y2, total, v


def reference_ns() -> int:
    t0 = thread_time_ns()
    reference()
    return thread_time_ns() - t0


def factor(samples: list[int]) -> float:
    """Scale for times measured next to these reference samples."""
    return REFERENCE_NS / statistics.median(samples)
