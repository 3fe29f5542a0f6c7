"""Shared ensemble bookkeeping for the seeded Monte Carlo simulations.

Both simulators (sphere machine, breakable elastic) follow the same scheme:
trial ``i`` of an ensemble owns the counter-indexed child stream
``substream_seed(master_seed, i)``, so results are independent of execution
order and chunking, and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import rng
from .spheres import as_int

DEFAULT_Z = 3.0

#: Working-set budget of one vectorized chunk, in bytes.  A chunk holds
#: ``max(1, CHUNK_BYTES // trial_bytes)`` trials, so it stays cache-sized and
#: its memory is bounded whatever the cluster size; a memory/latency
#: trade-off only, never visible in the results.
CHUNK_BYTES = 1 << 20

#: Default working set of one trial: its seed, draw and index words.
TRIAL_BYTES = 32


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate of a seeded ensemble of yes/no trials.

    ``frequency`` is the exact ratio ``transmitted / n_trials``; the
    half-width is the normal-approximation interval ``z * sqrt(p(1-p)/n)``
    at the recorded ``z`` computed from the empirical frequency.  ``seed``
    and ``generator`` pin down the exact bit stream for reproducibility.
    """

    n_trials: int
    transmitted: int
    frequency: Fraction
    half_width: float
    z: float
    seed: int
    generator: str = rng.GENERATOR_NAME


def normal_half_width(p: float, n_trials: int, z: float) -> float:
    """Half-width of the normal-approximation interval at level z."""
    return z * math.sqrt(p * (1.0 - p) / n_trials)


def run_counted(
    n_trials: int,
    seed: int,
    success_mask: Callable[[np.ndarray], np.ndarray],
    *,
    z: float = DEFAULT_Z,
    trial_bytes: int = TRIAL_BYTES,
) -> EnsembleResult:
    """Run ``n_trials`` counter-seeded trials and aggregate the successes.

    ``success_mask`` maps an array of per-trial seeds to a boolean array.
    ``trial_bytes`` is the working set of one trial in ``success_mask``;
    chunks of ``max(1, CHUNK_BYTES // trial_bytes)`` trials keep memory
    bounded.  Because per-trial seeds depend only on ``(seed, trial_index)``,
    the aggregate is identical for any chunking or evaluation order.
    ``seed`` is any integer, reduced modulo 2**64 and recorded as such;
    ``bool``, float and ``str`` seeds raise ``TypeError``.
    """
    n_trials = as_int(n_trials, "n_trials")
    if n_trials < 1:
        raise ValueError("n_trials must be a positive integer")
    if not math.isfinite(z) or z < 0.0:
        raise ValueError("z must be a nonnegative finite real")
    trial_bytes = as_int(trial_bytes, "trial_bytes")
    if trial_bytes < 1:
        raise ValueError("trial_bytes must be a positive integer")
    seed = as_int(seed, "seed") & rng.MASK64
    chunk = max(1, CHUNK_BYTES // trial_bytes)
    count = 0
    for start in range(0, n_trials, chunk):
        m = min(chunk, n_trials - start)
        trial_seeds = rng.substream_seeds(seed, start, m)
        count += int(np.count_nonzero(success_mask(trial_seeds)))
    freq = Fraction(count, n_trials)
    return EnsembleResult(
        n_trials=n_trials,
        transmitted=count,
        frequency=freq,
        half_width=normal_half_width(float(freq), n_trials, z),
        z=float(z),
        seed=seed,
    )
