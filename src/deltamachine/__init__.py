"""Charged-sphere scattering machine: exact statistics, simulation, analysis.

The package computes, simulates, and classifies the transmission/reflection
statistics of a macroscopic measurement device whose outcome frequencies
reproduce 1-D delta-potential quantum scattering:

* :mod:`~deltamachine.spheres` — exact rational probabilities for
  tranche-majority measurements on a cluster of charged spheres, and for
  mixtures of its states (a wave packet on the lattice energies);
* :mod:`~deltamachine.scattering` — analytic delta-potential amplitudes and
  probabilities;
* :mod:`~deltamachine.machine` — seeded, reproducible event-level Monte
  Carlo of the machine itself;
* :mod:`~deltamachine.band` — the breakable-elastic spin measurement (the
  ε-model) and its closed forms, without numpy;
* :mod:`~deltamachine.elastic` — the seeded simulator of that measurement;
* :mod:`~deltamachine.regimes` — classification of probability tables as
  classical, quantum, or irreducibly intermediate, with witnesses;
* :mod:`~deltamachine.cli` — command-line front end.

Every public name is declared once, in ``_EXPORTS``, under the submodule
that defines it, and is loaded on first access (PEP 562).  ``import
deltamachine`` therefore loads no submodule.  Only the simulation modules
(``machine``, ``elastic``, ``ensemble``, ``rng``) use numpy, so the exact
and scalar commands of the command line, ``epsilon`` without ``--n`` among
them, never load it.  Every module takes its argument checks and its
value-type decorator from ``values``, a leaf module that imports nothing
from the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Defining submodule -> the public names it exports.  Every key is also
#: reachable as an attribute after a bare ``import deltamachine``.
_EXPORTS = {
    "band": (
        "ElasticExperiment",
        "OutcomePair",
        "epsilon_probabilities",
        "quantum_spin_probabilities",
    ),
    "elastic": ("simulate_elastic",),
    "ensemble": ("EnsembleResult",),
    "machine": (
        "EmpiricalRow",
        "EmpiricalTable",
        "Outcome",
        "empirical_table",
        "run_ensemble",
        "run_trial",
    ),
    "regimes": (
        "Regime",
        "RegimeVerdict",
        "Witness",
        "WitnessKind",
        "classify_row",
        "classify_table",
        "wronskian_witnesses",
    ),
    "rng": (),
    "scattering": (
        "ScatteringAmplitudes",
        "ScatteringConfig",
        "amplitudes",
        "jump_condition_residual",
        "reflection_probability",
        "transmission_probability",
    ),
    "spheres": (
        "DEFAULT_TABLE_CEILING",
        "ElectricState",
        "ExactProbability",
        "KMeasurement",
        "ProbabilityTable",
        "ProbabilityTableRow",
        "determinism_threshold",
        "mixed_transmission",
        "probability_table",
        "reflection_probability_exact",
        "transmission_probability_exact",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_EXPORTS})
