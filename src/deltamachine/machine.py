"""Event-level seeded simulation of the charged-sphere scattering machine.

A trial walks the machine through its five phases: the assembled cluster is
dropped in, disassembles into a shuttered queue (a uniformly random sphere
ordering — the uncontrollable selection that generates the statistics), the
first tranche of ``k`` spheres falls through the deflecting field and tilts
the lever by charge majority, every later tranche is routed to the already
tilted side (its torque can no longer flip the lever), and the cluster
reassembles in one exit compartment.

Randomness enters in exactly two places, both served by the trial's own
counter-indexed stream (see :mod:`deltamachine.rng`):

* draws ``0 .. K-2`` shuffle the spheres (Fisher-Yates, one bounded index
  per position, taken modulo the remaining range — bias below 2**-57);
* draw ``K-1`` resolves an exactly balanced first tranche by fair coin
  (low bit set = tilt right).  Balance is impossible for odd ``k`` and the
  code asserts that instead of handling it.

The outcome is therefore a pure function of ``(state, measurement, seed)``,
and the vectorized ensemble path reproduces the scalar trial bit-for-bit.
That stream contract is the same for both paths: draws ``0 .. K-2`` define
the shuffle.  The scalar trial consumes all of them because its trace shows
the whole queue; the vectorized kernel needs only the tranche's charge sum
and so consumes only draws ``0 .. K-1-k`` (plus draw ``K-1`` on a tie).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .ensemble import DEFAULT_Z, TRIAL_BYTES, EnsembleResult, run_counted
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    KMeasurement,
    _require_valid,
    as_int,
    probability_table,
)


@dataclass(frozen=True)
class Sphere:
    """One constituent sphere: unit charge and a trial-unique id."""

    charge: int
    id: int

    def __post_init__(self) -> None:
        if self.charge not in (1, -1):
            raise ValueError("charge must be +1 or -1")


class Tilt(Enum):
    LEFT = "left"
    RIGHT = "right"


class Outcome(Enum):
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"


class MachinePhase(Enum):
    ASSEMBLED = "assembled"
    DISASSEMBLED = "disassembled"
    DECIDING = "deciding"
    SETTLED = "settled"
    REASSEMBLED = "reassembled"


PHASE_ORDER = (
    MachinePhase.ASSEMBLED,
    MachinePhase.DISASSEMBLED,
    MachinePhase.DECIDING,
    MachinePhase.SETTLED,
    MachinePhase.REASSEMBLED,
)


@dataclass(frozen=True)
class PhaseRecord:
    """One phase of a trial, with the payload relevant to that phase.

    Each of the five phases is entered exactly once per trial, so a full
    trace is five records; the only O(K) payload is the shutter queue.
    ``routed`` counts spheres delivered to the tilted side and has reached
    K by the time the machine settles.
    """

    phase: MachinePhase
    queue: tuple[Sphere, ...] | None = None
    tranche: tuple[Sphere, ...] | None = None
    tilt: Tilt | None = None
    routed: int | None = None


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial; ``result`` is transmitted iff the lever tilted right."""

    result: Outcome
    tie_broken: bool
    trace: tuple[PhaseRecord, ...] | None = None


def spheres_for_state(state: ElectricState) -> tuple[Sphere, ...]:
    """Canonical sphere labelling: ids 0..K-1, positive charges first."""
    positive = tuple(Sphere(charge=1, id=i) for i in range(state.k_plus))
    negative = tuple(
        Sphere(charge=-1, id=state.k_plus + i) for i in range(state.k_minus)
    )
    return positive + negative


def _shuffled_ids(total: int, seed: int) -> list[int]:
    """Fisher-Yates ordering driven by draws 0..total-2 of the trial stream."""
    order = list(range(total))
    for j in range(total - 1, 0, -1):
        r = rng.draw(seed, total - 1 - j) % (j + 1)
        order[j], order[r] = order[r], order[j]
    return order


def run_trial(
    state: ElectricState,
    meas: KMeasurement,
    seed: int,
    *,
    record_trace: bool = False,
) -> TrialOutcome:
    """Run one seeded trial; deterministic in ``(state, meas, seed)``.

    ``seed`` is any integer, reduced modulo 2**64; ``bool``, float and
    ``str`` seeds raise ``TypeError``.
    """
    _require_valid(state, meas)
    total = state.total
    k = meas.k
    seed = as_int(seed, "seed") & rng.MASK64

    spheres = spheres_for_state(state)
    queue = tuple(spheres[i] for i in _shuffled_ids(total, seed))
    tranche = queue[:k]
    charge_sum = sum(s.charge for s in tranche)

    if charge_sum == 0:
        assert k % 2 == 0, "balanced tranche with odd tranche size"
        tie_broken = True
        tilt = Tilt.RIGHT if rng.coin(rng.draw(seed, total - 1)) else Tilt.LEFT
    else:
        tie_broken = False
        tilt = Tilt.RIGHT if charge_sum > 0 else Tilt.LEFT

    # Remaining tranches only follow the tilt; no further randomness.
    trace: tuple[PhaseRecord, ...] | None = None
    if record_trace:
        trace = (
            PhaseRecord(phase=MachinePhase.ASSEMBLED),
            PhaseRecord(phase=MachinePhase.DISASSEMBLED, queue=queue),
            PhaseRecord(phase=MachinePhase.DECIDING, tranche=tranche),
            PhaseRecord(phase=MachinePhase.SETTLED, tilt=tilt, routed=total),
            PhaseRecord(phase=MachinePhase.REASSEMBLED, tilt=tilt),
        )

    result = Outcome.TRANSMITTED if tilt is Tilt.RIGHT else Outcome.REFLECTED
    return TrialOutcome(result=result, tie_broken=tie_broken, trace=trace)


#: Shuffle draws the kernel takes from the RNG in one call (128 KiB).  A
#: chunk of few trials (large K) then gets many steps' draws per call, so
#: numpy's fixed cost per call does not dominate; larger blocks measured
#: slower, as they leave the cache.
_DRAWS_PER_BLOCK = 1 << 14


def _transmitted_mask(
    charges: np.ndarray, k: int, trial_seeds: np.ndarray
) -> np.ndarray:
    """Vectorized replica of the trial kernel over many per-trial seeds.

    The outcome depends only on the multiset of charges in the first ``k``
    queue positions, so only the shuffle steps ``j = K-1 .. k`` run: after
    step ``k`` the later steps merely permute positions inside the tranche.
    Each step carries the one value the scalar swap moves into the live
    prefix (position ``j`` into position ``r``); the value swapped out to
    position ``j >= k`` is final, outside the tranche and never read again,
    so it is not written.  The trials share one flat row-major buffer, and a
    step is one gather (column ``j``) and one scatter (offsets ``rows + r``).
    The draws of consecutive steps come from one RNG call per block of
    ``_DRAWS_PER_BLOCK // m`` steps (see :func:`rng.advanced_seeds`).
    """
    total = charges.size
    m = trial_seeds.size
    flat = np.tile(charges, m)
    rows = np.arange(0, m * total, total, dtype=np.int64)
    columns = flat.reshape(m, total)
    per_block = max(1, _DRAWS_PER_BLOCK // m)
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
        dest = draws.view(np.int64)  # remainders < j + 1: same bits
        dest += rows
        for i, row_dest in enumerate(dest):
            flat[row_dest] = columns[:, total - 1 - first - i]
    charge_sum = columns[:, :k].sum(axis=1, dtype=np.int32)
    transmitted = charge_sum > 0
    tie = charge_sum == 0
    if tie.any():
        assert k % 2 == 0, "balanced tranche with odd tranche size"
        coins = rng.draws_at(trial_seeds[tie], total - 1) & np.uint64(1)
        transmitted[tie] = coins == 1
    return transmitted


def run_ensemble(
    state: ElectricState,
    meas: KMeasurement,
    n_trials: int,
    seed: int,
    *,
    z: float = DEFAULT_Z,
) -> EnsembleResult:
    """Run ``n_trials`` independent trials with counter-derived per-trial seeds.

    Trial ``i`` uses ``substream_seed(seed, i)`` and is bit-identical to
    ``run_trial(state, meas, substream_seed(seed, i))``; the aggregate is
    reproducible and order-independent.
    """
    _require_valid(state, meas)
    total = state.total
    # The charges of spheres_for_state(state), positive first, without the objects.
    charges = np.repeat(np.array([1, -1], np.int8), (state.k_plus, state.k_minus))
    return run_counted(
        n_trials,
        seed,
        lambda trial_seeds: _transmitted_mask(charges, meas.k, trial_seeds),
        z=z,
        trial_bytes=total + TRIAL_BYTES,
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
    z: float
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
    z: float = DEFAULT_Z,
    ceiling: int = DEFAULT_TABLE_CEILING,
) -> EmpiricalTable:
    """Run an ensemble for every cell of the exact table's (k, state) grid.

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
            entries.append((state, run_ensemble(state, meas, n_trials, cell_seed, z=z)))
        rows.append(EmpiricalRow(k=row.k, entries=tuple(entries)))
    return EmpiricalTable(K=K, n_trials=n_trials, seed=seed, z=float(z), rows=tuple(rows))
