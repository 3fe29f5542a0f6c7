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
  (relative bias per step (j+1)/2**64 <= K/2**64, at most 2**-49 for
  K <= 2**15, the CLI's ``MAX_CLUSTER_SIZE``).  Only the tranche's charge
  sum matters, so the kernel runs the steps ``j = K-1 .. k`` and consumes
  draws ``0 .. K-1-k``;
* draw ``K-1`` resolves an exactly balanced first tranche by fair coin
  (low bit set = tilt right).  Only the tied trials draw it.  Balance is
  impossible for odd ``k`` and the code asserts that instead of handling it.

The outcome is therefore a pure function of ``(state, measurement, seed)``.

One hidden variable decides every measurement.  A trial's draws
``0 .. K-1`` depend only on ``(K, seed)``, not on K+ or ``k``; they fix
lambda, the full queue of the K slots (positive spheres in the first K+)
and the tie coin, drawn by the measurement independently of the state: the
paper's hidden measurement.  Tranche ``k`` is the queue's first ``k``
slots, so one seed's lambda decides the outcome of every ``(k, K+)`` cell
run with that seed.  For one state, all the k-measurements therefore have a
joint distribution, and no Bell-type inequality between them can be
violated (Fine, Phys. Rev. Lett. 48, 291 (1982)): an Intermediate verdict of
:mod:`deltamachine.regimes` is not a contextuality claim.
:func:`empirical_table` gives each cell a seed of its own, so its cells do
not share lambda.

One kernel, :func:`_transmitted_mask`, decides trials over an array of
per-trial seeds: :func:`run_ensemble` feeds it chunks of child seeds, and
:func:`run_trial` replays any single trial of an ensemble through it.  Every
queue position from K+ on stays negative through the steps it runs (the
proof is in :func:`_transmitted_mask`), so it holds only the first K+
positions of a trial: up to K+ = 256 as ``ceil(K+/64)`` 64-bit words, and
above that all K spheres as a row of bytes.  Both replay the same shuffle
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .ensemble import TRIAL_BYTES, EnsembleResult, run_counted
# ``probability_table`` is not called here, but stays importable from this
# module: bench/tracing.py wraps ``machine.probability_table``.
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    KMeasurement,
    _require_valid,
    _row_index,
    _states,
    determinism_threshold,
    probability_table,
)
from .values import as_int


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

#: Largest positive block held as ``uint64`` words, one bit per position
#: below K+.  Per trial at K+ = K-, k = 10, words took 0.85 of the byte rows'
#: time at K+ = 256, 1.04 at 320 and 1.14 at 512 (2 cores, Python 3.11,
#: numpy 2.4): the words' masks grow with K+, a byte step does not.
_WORD_POSITIONS = 256
_U64_1 = np.uint64(1)
_I64_63 = np.int64(63)
#: First position of each word, as a column: ``r - 64 w`` is partner ``r``'s
#: bit in word ``w``, and wraps past 64 (so shifts to 0) outside that word.
_WORD_OFFSETS = np.arange(0, _WORD_POSITIONS, 64, dtype=np.uint64)[:, None]


def _words(k_plus: int) -> int:
    return -(-k_plus // 64)


def _trial_bytes(state: ElectricState) -> int:
    """Working set of one trial in bytes, plus its seed, draw and index words
    (``TRIAL_BYTES``): for K+ <= 256, its ``W = ceil(K+/64)`` words, ``W``
    scratch words, ``W`` partner masks per step row and the source-bit word;
    above that, one byte per sphere."""
    if state.k_plus <= _WORD_POSITIONS:
        return 8 * (3 * _words(state.k_plus) + 1) + TRIAL_BYTES
    return state.total + TRIAL_BYTES


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


def _word_tranche_sums(charges: np.ndarray, k: int, m: int, blocks) -> np.ndarray:
    """Tranche charge sums of ``m`` trials held as words, for canonical
    ``charges`` (positive first) with K+ <= 256.

    Bit ``p % 64`` of word ``p // 64`` is set iff position ``p < 64 W`` holds a
    negative sphere; every position from K+ on does (see
    :func:`_transmitted_mask`).  A step ``j >= K+`` therefore sets bit ``r``,
    one OR.  A step ``j < K+`` copies bit ``j`` into bit ``r`` by a masked
    merge (Knuth, TAOCP 4A 7.1.3) in the words ``0 .. j // 64``; the words
    above hold only final positions.  ``blocks`` are the ``(top, partners)``
    rows of :func:`_step_blocks`, which this consumes.
    """
    k_plus = int(np.count_nonzero(charges > 0))
    words = _words(k_plus)
    negative = np.zeros((words, m), dtype=np.uint64)
    if k_plus % 64:  # positions K+ .. 64 W - 1 of the last word
        negative[-1] = np.uint64(-(1 << (k_plus % 64)) & rng.MASK64)
    source = np.empty(m, dtype=np.uint64)
    spread = source.view(np.int64)
    scratch = np.empty_like(negative)
    for top, partners in blocks:
        # masks[i, w]: bit r of step top - i within word w, 0 outside it;
        # word 0 needs no offset, so one word shifts the partners in place.
        live = min(words, (top >> 6) + 1)
        masks = partners[:, None] - _WORD_OFFSETS[:live] if live > 1 else partners[:, None]
        np.left_shift(_U64_1, masks, out=masks)
        for j, mask in zip(range(top, -1, -1), masks):
            if j >= k_plus:
                negative |= mask
                continue
            # Bit j spread over a whole word: shifted to the top, then back
            # down by an arithmetic shift.
            np.left_shift(negative[j >> 6], np.uint64(63 - (j & 63)), out=source)
            np.right_shift(spread, _I64_63, out=spread)
            # Words 0 .. j // 64 take bit r from the spread bit.
            prefix, diff = negative[: (j >> 6) + 1], scratch[: (j >> 6) + 1]
            np.bitwise_xor(prefix, source, out=diff)
            diff &= mask[: len(diff)]
            prefix ^= diff
    full, part = divmod(k, 64)
    tranche = negative[: full + (part > 0)]
    if part and full < words:
        tranche[full] &= np.uint64((1 << part) - 1)
    sums = np.bitwise_count(tranche).sum(axis=0, dtype=np.int32)
    sums *= -2
    # Tranche positions past the words are at least K+, so negative.
    sums += k - 2 * max(0, k - 64 * words)
    return sums


def _row_tranche_sums(charges: np.ndarray, k: int, m: int, blocks) -> np.ndarray:
    """Tranche charge sums of ``m`` trials held as byte rows, for charges in
    any order: per step, a gather of column ``j`` and a scatter to the offsets
    ``rows + r`` of one flat buffer.  ``blocks`` are as for
    :func:`_word_tranche_sums`."""
    total = charges.size
    flat = np.tile(charges, m)
    rows = np.arange(0, m * total, total, dtype=np.int64)
    columns = flat.reshape(m, total)
    for top, partners in blocks:
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
    so it is not written.

    *Invariant: every position from K+ on holds a negative sphere before
    each step.*  The charges are canonical (positive first), so it holds
    before step ``K-1``.  Step ``j`` writes only position ``r <= j``, with the
    value at position ``j``; for ``r = j`` nothing changes.  If ``r >= K+``,
    then ``j > r >= K+``, so that value is negative by the invariant, and the
    invariant holds before step ``j-1``.  Hence a step ``j >= K+`` moves a
    negative sphere into ``r``: it reads nothing at position ``j``, and no
    position from K+ on needs storage.

    For K+ <= 256 (``_WORD_POSITIONS``) the positions below K+ are held as
    ``ceil(K+/64)`` words per trial (:func:`_word_tranche_sums`); above
    that as byte rows of all K spheres (:func:`_row_tranche_sums`).  Both
    take the same draws and give the same sums on canonical charges.
    """
    total, m = charges.size, trial_seeds.size
    blocks = _step_blocks(total, k, trial_seeds)
    if np.count_nonzero(charges > 0) <= _WORD_POSITIONS:
        charge_sum = _word_tranche_sums(charges, k, m, blocks)
    else:
        charge_sum = _row_tranche_sums(charges, k, m, blocks)
    transmitted = charge_sum > 0
    tie = np.flatnonzero(charge_sum == 0)
    if tie.size:
        assert k % 2 == 0, "balanced tranche with odd tranche size"
        coins = rng.draws_at(trial_seeds.take(tie), total - 1)
        transmitted[tie] = coins & _U64_1
    return transmitted


def run_ensemble(
    state: ElectricState, meas: KMeasurement, n_trials: int, seed: int
) -> EnsembleResult:
    """Run ``n_trials`` independent trials with counter-derived per-trial seeds.

    Trial ``i`` uses ``substream_seed(seed, i)``, so
    ``run_trial(state, meas, substream_seed(seed, i))`` replays it; the
    count is reproducible and order-independent.  From the determinism
    threshold on, every trial has the same outcome, so the count is known
    without drawing.
    """
    _require_valid(state, meas)
    if meas.k >= determinism_threshold(state):
        # The tranche holds a strict majority of the larger species.
        return run_counted(n_trials, seed, state.k_plus > state.k_minus)
    charges = _charges(state)
    return run_counted(
        n_trials,
        seed,
        lambda trial_seeds: _transmitted_mask(charges, meas.k, trial_seeds),
        trial_bytes=_trial_bytes(state),
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
        return self.rows[_row_index(k, self.K)]


def empirical_table(
    K: int,
    n_trials: int,
    seed: int,
    *,
    ceiling: int = DEFAULT_TABLE_CEILING,
) -> EmpiricalTable:
    """Ensemble counts for every cell of the exact table's (k, state) grid.

    Cell (k, K+) uses the child seed ``substream_seed(seed, (k-1)*(K+1)+K+)``
    so the whole table is reproducible from the single master seed.  No
    exact table is built.
    """
    states = _states(K, ceiling)  # validates K and ceiling
    K = len(states) - 1
    n_trials = as_int(n_trials, "n_trials")
    seed = as_int(seed, "seed") & rng.MASK64
    rows = []
    for k in range(1, K + 1):
        meas = KMeasurement(k)
        entries = []
        for state in states:
            cell_seed = rng.substream_seed(seed, (k - 1) * (K + 1) + state.k_plus)
            entries.append((state, run_ensemble(state, meas, n_trials, cell_seed)))
        rows.append(EmpiricalRow(k=k, entries=tuple(entries)))
    return EmpiricalTable(K=K, n_trials=n_trials, seed=seed, rows=tuple(rows))
