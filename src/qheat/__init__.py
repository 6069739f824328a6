"""Heat statistics of quantum systems under repeated projective measurements.

A small toolkit for the two-point measurement protocol: an opening
projective energy measurement, a train of projective measurements of an
arbitrary observable at fixed or random waiting times, and a closing
energy measurement. The energy difference between the two readouts is
the exchanged heat; the package computes its distribution, its
characteristic function and its moments by Monte Carlo sampling, exact
enumeration, and closed forms for the two-level case.
"""

__version__ = "0.1.0"

from . import disorder, engine, operators, tls, verify
from .disorder import (
    Annealed,
    DiscreteWaitingDist,
    Fixed,
    Quenched,
    SequenceRealization,
    WaitingTimeModel,
    enumerate_realizations,
    sample_until_total_time,
    sample_waiting_times,
)
from .engine import (
    HeatDistribution,
    ProtocolConfig,
    characteristic_function,
    exact_distribution,
    heat_moment,
    jarzynski_estimate,
    sample_heats,
    unitality_residual,
)
from .exceptions import (
    ConfigError,
    DegenerateSpectrumError,
    EnumerationTooLargeError,
    IntervalCapError,
    InvalidStateError,
    MomentMismatchError,
    NotHermitianError,
    QheatError,
    UnreachableMeanError,
)
from .operators import (
    DensityMatrix,
    HermitianOperator,
    MeasurementBasis,
    OutcomeSequence,
    energy_populations,
    measurement_sequence_operator,
    propagator,
    spectral_decompose,
    transition_probability,
)
from .tls import TwoLevelParams

__all__ = [
    "__version__",
    "disorder",
    "engine",
    "operators",
    "tls",
    "verify",
    "Annealed",
    "DiscreteWaitingDist",
    "Fixed",
    "Quenched",
    "SequenceRealization",
    "WaitingTimeModel",
    "enumerate_realizations",
    "sample_until_total_time",
    "sample_waiting_times",
    "HeatDistribution",
    "ProtocolConfig",
    "characteristic_function",
    "exact_distribution",
    "heat_moment",
    "jarzynski_estimate",
    "sample_heats",
    "unitality_residual",
    "ConfigError",
    "DegenerateSpectrumError",
    "EnumerationTooLargeError",
    "IntervalCapError",
    "InvalidStateError",
    "MomentMismatchError",
    "NotHermitianError",
    "QheatError",
    "UnreachableMeanError",
    "DensityMatrix",
    "HermitianOperator",
    "MeasurementBasis",
    "OutcomeSequence",
    "energy_populations",
    "measurement_sequence_operator",
    "propagator",
    "spectral_decompose",
    "transition_probability",
    "TwoLevelParams",
]
