"""Shared ensemble bookkeeping for the seeded Monte Carlo simulations.

Both simulators (sphere machine, breakable elastic) follow the same scheme:
trial ``i`` of an ensemble owns the counter-indexed child stream
``substream_seed(master_seed, i)``, so results are independent of execution
order and chunking, and any single trial can be replayed in isolation.
Trial ``i`` of a sphere-machine ensemble is
``machine.run_trial(state, meas, substream_seed(master_seed, i))``.
An ensemble returns only what its run decided: the trial count, the
transmitted count and the seed.  Its frequency and generator are derived from
them, and the report (:mod:`deltamachine.serialize`) adds any interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import rng
from .values import as_int

#: Working-set budget of one vectorized chunk, in bytes.  A chunk holds
#: ``max(1, CHUNK_BYTES // trial_bytes)`` trials, so it stays cache-sized and
#: its memory is bounded whatever the cluster size; a memory/latency
#: trade-off only, never visible in the results.
CHUNK_BYTES = 1 << 20

#: Default working set of one trial: its seed, draw and index words.
TRIAL_BYTES = 32


@dataclass(frozen=True)
class EnsembleResult:
    """Count of a seeded ensemble of yes/no trials.

    Only the counts and ``seed`` are fields; ``frequency`` and ``generator``
    are derived, and ``seed`` with ``generator`` pins down the bit stream.
    """

    n_trials: int
    transmitted: int
    seed: int

    @property
    def frequency(self) -> Fraction:
        """The exact ratio ``transmitted / n_trials``."""
        return Fraction(self.transmitted, self.n_trials)

    @property
    def generator(self) -> str:
        """The name of the stream, :data:`rng.GENERATOR_NAME`."""
        return rng.GENERATOR_NAME


def run_counted(
    n_trials: int,
    seed: int,
    success_mask: Callable[[np.ndarray], np.ndarray] | bool,
    *,
    trial_bytes: int = TRIAL_BYTES,
) -> EnsembleResult:
    """Run ``n_trials`` counter-seeded trials and count the successes.

    ``success_mask`` maps an array of per-trial seeds to a boolean array, or
    is a ``bool`` when every trial's outcome is known in advance: then the
    count is ``n_trials`` or 0, and no seed is derived and nothing is drawn.
    ``trial_bytes`` is the working set of one trial in ``success_mask``;
    chunks of ``max(1, CHUNK_BYTES // trial_bytes)`` trials keep memory
    bounded.  Because per-trial seeds depend only on ``(seed, trial_index)``,
    the count is identical for any chunking or evaluation order.
    ``seed`` is any integer, reduced modulo 2**64 and recorded as such;
    ``bool``, float and ``str`` seeds raise ``TypeError``.
    """
    n_trials = as_int(n_trials, "n_trials")
    if n_trials < 1:
        raise ValueError("n_trials must be a positive integer")
    trial_bytes = as_int(trial_bytes, "trial_bytes")
    if trial_bytes < 1:
        raise ValueError("trial_bytes must be a positive integer")
    seed = as_int(seed, "seed") & rng.MASK64
    if isinstance(success_mask, bool):
        count = n_trials if success_mask else 0
    else:
        chunk = max(1, CHUNK_BYTES // trial_bytes)
        count = 0
        for start in range(0, n_trials, chunk):
            m = min(chunk, n_trials - start)
            trial_seeds = rng.substream_seeds(seed, start, m)
            count += int(np.count_nonzero(success_mask(trial_seeds)))
    return EnsembleResult(n_trials=n_trials, transmitted=count, seed=seed)
