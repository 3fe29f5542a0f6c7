"""Counter-indexed 64-bit pseudorandom streams for reproducible simulation.

The generator is splitmix64 evaluated in counter mode: draw ``j`` of the
stream identified by ``seed`` is ``mix64(seed + (j + 1) * GOLDEN)``, i.e. the
classic splitmix64 output sequence addressed by position instead of by
stepping hidden state.  Every draw is a pure function of ``(seed, index)``,
so streams can be evaluated out of order, in chunks, vectorized with numpy,
or split across workers, and always reproduce bit-for-bit.

Child streams (per-trial seeds, per-table-cell seeds) are derived with
:func:`substream_seed`, which is simply draw ``index`` of the parent stream —
the same splitting rule used by splittable-generator designs.

Seeds and draws are unsigned 64-bit values; arbitrary Python ints are reduced
modulo 2**64 on entry.  The seeded entry points (``run_ensemble``,
``simulate_elastic`` and ``empirical_table``, all through ``run_counted``,
the one-trial replay ``run_trial``, and :func:`draw` and
:func:`substream_seed` here, for their index too) accept any integer, numpy
integers included, and raise ``TypeError`` for ``bool``, float and ``str``
seeds, so the seed a result records is always the stream that produced it.
"""

from __future__ import annotations

import numpy as np

from .values import as_int

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

#: Identifier recorded in every ensemble result so published numbers can be
#: tied to the exact bit stream that produced them.
GENERATOR_NAME = "splitmix64"

_U64_GOLDEN = np.uint64(GOLDEN)
_U64_MULT1 = np.uint64(_MULT1)
_U64_MULT2 = np.uint64(_MULT2)
_U64_1, _U64_27, _U64_30, _U64_31 = (np.uint64(n) for n in (1, 27, 30, 31))


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def draw(seed: int, index: int) -> int:
    """Draw ``index`` (0-based) of the stream identified by ``seed``."""
    seed, index = as_int(seed, "seed"), as_int(index, "index")
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def substream_seed(seed: int, index: int) -> int:
    """Seed of child stream ``index`` of the stream identified by ``seed``."""
    return draw(seed, index)


# ---------------------------------------------------------------------------
# Vectorized equivalents.  These replicate the scalar arithmetic exactly on
# uint64 arrays (numpy unsigned arithmetic wraps mod 2**64), so a chunk of
# streams gives the same draws as each stream on its own.
# ---------------------------------------------------------------------------


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied to a uint64 array in place; returns it.

    Integer array arithmetic wraps silently, so no ``errstate`` is needed.
    """
    z ^= z >> _U64_30
    z *= _U64_MULT1
    z ^= z >> _U64_27
    z *= _U64_MULT2
    z ^= z >> _U64_31
    return z


def draws_at(seeds: np.ndarray, index: int) -> np.ndarray:
    """Draw ``index`` of many streams at once (``seeds`` is a uint64 array)."""
    base = np.empty(np.shape(seeds), dtype=np.uint64)  # also for 0-d seeds
    np.add(seeds, np.uint64(((index + 1) * GOLDEN) & MASK64), out=base)
    return _mix64_inplace(base)


def advanced_seeds(seeds: np.ndarray, count: int) -> np.ndarray:
    """Seeds advanced by ``0 .. count-1`` draws, one row per advance.

    In counter mode, draw ``j`` of seed ``s + i * GOLDEN`` is draw ``j + i``
    of seed ``s``, so ``draws_at(advanced_seeds(seeds, n), j)`` gives draws
    ``j .. j+n-1`` of every stream in one call (row ``i`` is draw ``j + i``).
    """
    offsets = np.arange(count, dtype=np.uint64)
    offsets *= _U64_GOLDEN
    return offsets[:, None] + seeds


def substream_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """Seeds of child streams ``start .. start+count-1`` as a uint64 array."""
    base = np.arange(start, start + count, dtype=np.uint64)
    base += _U64_1
    base *= _U64_GOLDEN
    base += np.uint64(seed & MASK64)
    return _mix64_inplace(base)

