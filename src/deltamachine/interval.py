"""The report's interval around every ensemble frequency.

Ensembles return counts only; ``serialize.ensemble_payload`` adds this
interval at level ``z``.  The command line's ``--z`` default lives here too.
"""

from __future__ import annotations

import math

#: Default confidence level ``z`` of the half-width.
DEFAULT_Z = 3.0


def normal_half_width(p: float, n_trials: int, z: float) -> float:
    """Half-width of the normal-approximation interval at level z."""
    return z * math.sqrt(p * (1.0 - p) / n_trials)
