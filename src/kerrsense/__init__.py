"""Squeezed Kerr oscillator: simulation and displacement-sensing analysis.

The package simulates a driven Kerr oscillator in a truncated Fock space,
with and without single-photon loss, and evaluates how well the prepared
states sense small phase-space displacements: minimum quadrature variance,
linear and higher-order moment sensitivities, quantum Fisher information,
and the echo (measurement-after-interaction) protocol.  Closed-form Gaussian
results provide independent cross-checks, a Wigner module renders phase-space
snapshots, and a CLI drives reproducible parameter sweeps.

Diagnostics go to the ``kerrsense`` stdlib logger (e.g. the dimensions that
``converge_dim`` tries, with their tails, at DEBUG).  It has a NullHandler,
so nothing is printed unless the application configures logging.

Importing the package pins OpenBLAS to one thread (``OPENBLAS_NUM_THREADS``
= 1, unless already set) before numpy loads: every computation here is
serial and small, so BLAS helper threads would only spin.  The pin takes
effect only if kerrsense is imported before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import logging

from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    parse_config,
    serialize_config,
)
from .dynamics import (
    HamiltonianParams,
    LossParams,
    NoInteriorMinimumError,
    evolve_lindblad,
    evolve_unitary,
    hamiltonian,
    min_variance,
    optimal_squeezing,
    squeezing_trace,
)
from .fock import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    TruncationError,
    TruncationWarning,
    annihilation,
    commutator,
    converge_dim,
    creation,
    displacement,
    expectation,
    number_operator,
    parity,
    position,
    momentum,
    quadrature,
    state_fidelity,
    variance,
)
from .gaussian import (
    GaussianState,
    chi_linear,
    chi_linear_max,
    from_free_squeezing,
    mai_gaussian,
    noisy_sensitivities,
    qfi_displacement,
    qfi_max as gaussian_qfi_max,
    qfi_vs_excitations,
)
from .harness import (
    CSV_COLUMNS,
    ScalingFit,
    SweepResult,
    SweepRow,
    emit,
    evaluate_point,
    run_experiment,
)
from .metrology import (
    DetectionNoise,
    SensitivityReport,
    linear_sensitivity,
    mai_sensitivity,
    moment_basis,
    moment_sensitivity,
    noisy_linear_sensitivity,
    qfi_max,
    sensitivity,
)
from .wigner import PhaseGrid, wigner

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
