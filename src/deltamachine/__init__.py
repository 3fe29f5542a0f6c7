"""Charged-sphere scattering machine: exact statistics, simulation, analysis.

The package computes, simulates, and classifies the transmission/reflection
statistics of a macroscopic measurement device whose outcome frequencies
reproduce 1-D delta-potential quantum scattering:

* :mod:`~deltamachine.spheres` — exact rational probabilities for
  tranche-majority measurements on a cluster of charged spheres;
* :mod:`~deltamachine.scattering` — analytic delta-potential amplitudes,
  probabilities, and wave-packet quadrature;
* :mod:`~deltamachine.machine` — seeded, reproducible event-level Monte
  Carlo of the machine itself;
* :mod:`~deltamachine.elastic` — the breakable-elastic spin measurement and
  its closed forms;
* :mod:`~deltamachine.regimes` — classification of probability tables as
  classical, quantum, or irreducibly intermediate, with witnesses;
* :mod:`~deltamachine.cli` — command-line front end.

Only the simulation modules (``machine``, ``elastic``, ``ensemble``, ``rng``)
and the array functions of ``scattering`` use numpy.  Their names are
resolved on first access (PEP 562), so ``import deltamachine`` and the exact
and scalar commands of the command line never load numpy.
"""

from importlib import import_module as _import_module

from .regimes import (
    Regime,
    RegimeVerdict,
    Witness,
    WitnessKind,
    classify_row,
    classify_table,
    wronskian_witnesses,
)
from .scattering import (
    ScatteringAmplitudes,
    ScatteringConfig,
    WavePacket,
    amplitudes,
    jump_condition_residual,
    reflection_probability,
    transmission_probability,
    wavepacket_transmission,
)
from .spheres import (
    DEFAULT_TABLE_CEILING,
    ElectricState,
    ExactProbability,
    KMeasurement,
    ProbabilityTable,
    ProbabilityTableRow,
    determinism_threshold,
    probability_table,
    reflection_probability_exact,
    transmission_probability_exact,
)

__version__ = "0.1.0"

#: Names whose defining modules load numpy, with those modules.
_LAZY_NAMES = {
    **dict.fromkeys(
        (
            "ElasticExperiment",
            "OutcomePair",
            "epsilon_probabilities",
            "quantum_spin_probabilities",
            "simulate_elastic",
        ),
        "elastic",
    ),
    "EnsembleResult": "ensemble",
    **dict.fromkeys(
        (
            "EmpiricalRow",
            "EmpiricalTable",
            "Outcome",
            "empirical_table",
            "run_ensemble",
            "run_trial",
        ),
        "machine",
    ),
}

#: Submodules that load numpy; each is imported on first access.
_LAZY_SUBMODULES = ("elastic", "ensemble", "machine", "rng")

__all__ = [
    "DEFAULT_TABLE_CEILING",
    "ElasticExperiment",
    "ElectricState",
    "EmpiricalRow",
    "EmpiricalTable",
    "EnsembleResult",
    "ExactProbability",
    "KMeasurement",
    "Outcome",
    "OutcomePair",
    "ProbabilityTable",
    "ProbabilityTableRow",
    "Regime",
    "RegimeVerdict",
    "ScatteringAmplitudes",
    "ScatteringConfig",
    "WavePacket",
    "Witness",
    "WitnessKind",
    "amplitudes",
    "classify_row",
    "classify_table",
    "determinism_threshold",
    "empirical_table",
    "epsilon_probabilities",
    "jump_condition_residual",
    "probability_table",
    "quantum_spin_probabilities",
    "reflection_probability",
    "reflection_probability_exact",
    "run_ensemble",
    "run_trial",
    "simulate_elastic",
    "transmission_probability",
    "transmission_probability_exact",
    "wavepacket_transmission",
    "wronskian_witnesses",
]


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        value = getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    elif name in _LAZY_SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_SUBMODULES})
