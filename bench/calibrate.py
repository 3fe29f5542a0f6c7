"""Speed calibration: times rescaled to a reference speed of the host.

The benchmark runs on shared machines whose speed drifts fast: on a shared
2-vCPU virtual machine the same pure-Python loop took anywhere from 112 to
209 ms within a minute, and the program's own times drifted with it.  So
reference work of the operation's own kind, none of it from deltamachine,
is timed right before and right after every timed call:

* ``fractions``: stdlib ``Fraction`` sums of ``math.comb`` products, like
  the arithmetic of the exact tables;
* ``numpy``, ``numpy_large``: gather/scatter swaps on an int8 matrix, like
  the trial kernel, on a matrix that fits in cache and on one that does not.

Each operation names the probes that match its work, so that the probe
shares the resources the operation is slowed down on.

The host's slowness is the geometric mean, over the operation's probes, of
probe time / reference time.  A call's time is divided by the mean of the
slowness before and after it, which gives its time at the speed where every
probe takes its reference time.  In measurements on that machine, this
brought the spread of 20-second medians from 20-50 % down to 2-6 %.
Wall-clock times are reported beside the rescaled ones.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

_SMALL = (4096, 64, 63)  # rows, columns, swap steps: a 256 KiB matrix
_LARGE = (16384, 256, 6)  # a 4 MiB matrix, like a chunk at K = 256
_SWAPS = {
    shape: np.random.default_rng(0).integers(0, shape[1], size=(shape[2], shape[0]))
    for shape in (_SMALL, _LARGE)
}


def _fractions() -> None:
    n = 90
    cells = []
    for k in range(1, n, 3):
        for kp in range(0, n + 1, 3):
            num = sum(math.comb(kp, k - m) * math.comb(n - kp, m) for m in range((k + 1) // 2))
            cells.append(Fraction(num, math.comb(n, k)))


def _swaps(shape: tuple[int, int, int]) -> None:
    n_rows, n_cols, steps = shape
    mat = np.zeros((n_rows, n_cols), dtype=np.int8)
    rows = np.arange(n_rows)
    for step, r in enumerate(_SWAPS[shape]):
        j = n_cols - 1 - step
        left = mat[rows, j]
        mat[rows, j] = mat[rows, r]
        mat[rows, r] = left


#: Probe and its reference time: about its median on the 2-vCPU virtual
#: machine the first baseline was measured on.
PROBES: dict[str, tuple[Callable[[], None], float]] = {
    "fractions": (_fractions, 0.007),
    "numpy": (lambda: _swaps(_SMALL), 0.006),
    "numpy_large": (lambda: _swaps(_LARGE), 0.005),
}


def slowness(kinds: tuple[str, ...]) -> float:
    """Geometric mean of probe time / reference time, now (1.0 without probes)."""
    if not kinds:
        return 1.0
    logs = []
    for kind in kinds:
        probe, reference = PROBES[kind]
        t0 = time.perf_counter()
        probe()
        logs.append(math.log((time.perf_counter() - t0) / reference))
    return math.exp(sum(logs) / len(logs))


def timed(fn: Callable[[], object], kinds: tuple[str, ...]) -> tuple[object, float, float]:
    """Call ``fn``; return (result, wall time, time at the reference speed).

    An exception from ``fn`` propagates after the second probe.
    """
    before = slowness(kinds)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        after = slowness(kinds)
    return out, wall, wall * 2 / (before + after)
