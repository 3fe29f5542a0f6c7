"""Seeded, reproducible Monte Carlo of the charged-sphere scattering machine.

One run of the machine drops the assembled cluster in; it disassembles into
a shuttered queue (a uniformly random sphere ordering — the uncontrollable
selection that generates the statistics); the first tranche of ``k`` spheres
falls through the deflecting field and tilts the lever by charge majority;
every later tranche follows the tilt (its torque can no longer flip the
lever); and the cluster reassembles in one exit compartment.  The entity is
transmitted iff the lever tilted right.

Randomness enters in exactly two places, both served by the trial's own
counter-indexed stream (see :mod:`deltamachine.rng`):

* draws ``0 .. K-2`` define the queue: a Fisher-Yates shuffle in which draw
  ``K-1-j`` picks the partner of position ``j``, taken modulo ``j + 1``
  (relative bias per step (j+1)/2**64 <= K/2**64, below 2**-57 for
  K <= 128).  Only the tranche's charge sum matters, so the
  kernel runs the steps ``j = K-1 .. k`` and consumes draws ``0 .. K-1-k``;
* draw ``K-1`` resolves an exactly balanced first tranche by fair coin
  (low bit set = tilt right).  Balance is impossible for odd ``k`` and the
  code asserts that instead of handling it.

The outcome is therefore a pure function of ``(state, measurement, seed)``.
One kernel, :func:`_transmitted_mask`, decides trials over an array of
per-trial seeds: :func:`run_ensemble` feeds it chunks of child seeds, and
:func:`run_trial` replays any single trial of an ensemble through it.  It
holds a cluster of up to 64 spheres as one 64-bit word per trial and a
larger one as a row of bytes; both replay the same shuffle steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .ensemble import TRIAL_BYTES, EnsembleResult, run_counted
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    KMeasurement,
    _require_valid,
    as_int,
    probability_table,
)


class Outcome(Enum):
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"


def _charges(state: ElectricState) -> np.ndarray:
    """The cluster's sphere charges in canonical order, positive first."""
    return np.repeat(np.array([1, -1], np.int8), (state.k_plus, state.k_minus))


def run_trial(state: ElectricState, meas: KMeasurement, seed: int) -> Outcome:
    """Replay one seeded trial; deterministic in ``(state, meas, seed)``.

    Trial ``i`` of ``run_ensemble(state, meas, n, s)`` is
    ``run_trial(state, meas, substream_seed(s, i))``.  ``seed`` is any
    integer, reduced modulo 2**64; ``bool``, float and ``str`` seeds raise
    ``TypeError``.
    """
    _require_valid(state, meas)
    seed = as_int(seed, "seed") & rng.MASK64
    trial_seeds = np.array([seed], dtype=np.uint64)
    if _transmitted_mask(_charges(state), meas.k, trial_seeds)[0]:
        return Outcome.TRANSMITTED
    return Outcome.REFLECTED


#: Shuffle draws the kernel takes from the RNG in one call (128 KiB).  A
#: chunk of few trials (large K) then gets many steps' draws per call, so
#: numpy's fixed cost per call does not dominate; larger blocks measured
#: slower, as they leave the cache.
_DRAWS_PER_BLOCK = 1 << 14

#: Largest cluster held as one ``uint64`` word per trial (bit ``p`` set iff
#: position ``p`` holds a positive sphere); larger ones hold a byte per sphere.
_WORD_BITS = 64
_U64_1 = np.uint64(1)


def _trial_bytes(total: int) -> int:
    """Working set of one trial in bytes: a word and the two temporaries of a
    step, or one byte per sphere; plus the seed, draw and index words."""
    return (3 * 8 if total <= _WORD_BITS else total) + TRIAL_BYTES


def _step_blocks(total: int, k: int, trial_seeds: np.ndarray):
    """Yield ``(top, partners)`` for the steps ``j = K-1 .. k``: row ``i`` holds
    each trial's partner ``r <= j`` of step ``j = top - i``.  One RNG call serves
    ``_DRAWS_PER_BLOCK // m`` steps (see :func:`rng.advanced_seeds`)."""
    per_block = max(1, _DRAWS_PER_BLOCK // trial_seeds.size)
    block_seeds = rng.advanced_seeds(trial_seeds, min(per_block, total - k))
    for first in range(0, total - k, per_block):
        # Row i holds draw first + i, the draw of step j = K-1-first-i.
        draws = rng.draws_at(block_seeds[: total - k - first], first)
        spans = np.arange(total - first, total - first - len(draws), -1, dtype=np.uint64)
        # draws % spans (span = j + 1 per row), as draws - (draws // span) *
        # span: numpy divides by a scalar with a precomputed reciprocal, but
        # takes `%`, or division by an array, by hardware division.
        quotient = np.empty_like(draws)
        for draw, span, out in zip(draws, spans, quotient):
            np.floor_divide(draw, span, out=out)
        quotient *= spans[:, None]
        draws -= quotient
        yield total - 1 - first, draws


def _word_tranche_sums(charges: np.ndarray, k: int, trial_seeds: np.ndarray) -> np.ndarray:
    """Tranche charge sums of words: step ``j`` copies bit ``j`` into bit
    ``r`` by a delta swap (Knuth, TAOCP 4A 7.1.3) of six array operations."""
    word = sum(1 << p for p in np.flatnonzero(charges > 0).tolist())
    x = np.full(trial_seeds.size, word, dtype=np.uint64)
    t, u = np.empty_like(x), np.empty_like(x)
    for top, partners in _step_blocks(charges.size, k, trial_seeds):
        for i, r in enumerate(partners):
            np.right_shift(x, r, out=t)
            np.right_shift(x, np.uint64(top - i), out=u)
            t ^= u
            t &= _U64_1
            t <<= r
            x ^= t
    x &= np.uint64((1 << k) - 1)
    return 2 * np.bitwise_count(x).astype(np.int16) - k


def _row_tranche_sums(charges: np.ndarray, k: int, trial_seeds: np.ndarray) -> np.ndarray:
    """Tranche charge sums of byte rows: per step, a gather of column ``j``
    and a scatter to the offsets ``rows + r`` of one flat buffer."""
    total, m = charges.size, trial_seeds.size
    flat = np.tile(charges, m)
    rows = np.arange(0, m * total, total, dtype=np.int64)
    columns = flat.reshape(m, total)
    for top, partners in _step_blocks(total, k, trial_seeds):
        dest = partners.view(np.int64)  # partners < j + 1: same bits
        dest += rows
        for i, row_dest in enumerate(dest):
            flat[row_dest] = columns[:, top - i]
    return columns[:, :k].sum(axis=1, dtype=np.int32)


def _transmitted_mask(charges: np.ndarray, k: int, trial_seeds: np.ndarray) -> np.ndarray:
    """The trial kernel: which of the trials with these seeds transmit.

    The outcome depends only on the multiset of charges in the first ``k``
    queue positions, so only the shuffle steps ``j = K-1 .. k`` run: after
    step ``k`` the later steps merely permute positions inside the tranche.
    Each step carries the one value the Fisher-Yates swap moves into the live
    prefix (position ``j`` into position ``r``); the value swapped out to
    position ``j >= k`` is final, outside the tranche and never read again,
    so it is not written.  ``K`` alone picks the representation (see
    ``_WORD_BITS``); both take the same draws and give the same sums.
    """
    total = charges.size
    if total <= _WORD_BITS:
        charge_sum = _word_tranche_sums(charges, k, trial_seeds)
    else:
        charge_sum = _row_tranche_sums(charges, k, trial_seeds)
    transmitted = charge_sum > 0
    tie = charge_sum == 0
    if tie.any():
        assert k % 2 == 0, "balanced tranche with odd tranche size"
        coins = rng.draws_at(trial_seeds[tie], total - 1) & _U64_1
        transmitted[tie] = coins == 1
    return transmitted


def run_ensemble(
    state: ElectricState, meas: KMeasurement, n_trials: int, seed: int
) -> EnsembleResult:
    """Run ``n_trials`` independent trials with counter-derived per-trial seeds.

    Trial ``i`` uses ``substream_seed(seed, i)``, so
    ``run_trial(state, meas, substream_seed(seed, i))`` replays it; the
    count is reproducible and order-independent.
    """
    _require_valid(state, meas)
    charges = _charges(state)
    return run_counted(
        n_trials,
        seed,
        lambda trial_seeds: _transmitted_mask(charges, meas.k, trial_seeds),
        trial_bytes=_trial_bytes(state.total),
    )


@dataclass(frozen=True)
class EmpiricalRow:
    k: int
    entries: tuple[tuple[ElectricState, EnsembleResult], ...]


@dataclass(frozen=True)
class EmpiricalTable:
    """Ensemble results on the same (k, state) grid as the exact table."""

    K: int
    n_trials: int
    seed: int
    rows: tuple[EmpiricalRow, ...]

    def row(self, k: int) -> EmpiricalRow:
        k = as_int(k, "k")
        if not 1 <= k <= self.K:
            raise KeyError(f"no row for k={k} in a K={self.K} table")
        return self.rows[k - 1]


def empirical_table(
    K: int,
    n_trials: int,
    seed: int,
    *,
    ceiling: int = DEFAULT_TABLE_CEILING,
) -> EmpiricalTable:
    """Ensemble counts for every cell of the exact table's (k, state) grid.

    Cell (k, K+) uses the child seed ``substream_seed(seed, (k-1)*(K+1)+K+)``
    so the whole table is reproducible from the single master seed.
    """
    exact = probability_table(K, ceiling=ceiling)  # validates K and ceiling
    seed = as_int(seed, "seed") & rng.MASK64
    rows = []
    for row in exact.rows:
        meas = KMeasurement(row.k)
        entries = []
        for state, _ in row.entries:
            cell_index = (row.k - 1) * (K + 1) + state.k_plus
            cell_seed = rng.substream_seed(seed, cell_index)
            entries.append((state, run_ensemble(state, meas, n_trials, cell_seed)))
        rows.append(EmpiricalRow(k=row.k, entries=tuple(entries)))
    return EmpiricalTable(K=K, n_trials=n_trials, seed=seed, rows=tuple(rows))
