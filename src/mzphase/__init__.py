"""Phase estimation in a lossy Mach-Zehnder interferometer driven by a
coherent state and a photon-added squeezed vacuum.

Subpackages by task:

- jets: truncated power series in one variable and the closed-form
  [t^m tau^m] coefficient extraction (the derivative engine)
- states: probe-state parameters, normalization constants, energy budgets
- parity: lossy parity signal, classical Fisher information, phase sensitivity
- moments: photon-number moments of the pre-loss probe arm
- qfi_linear / qfi_kerr: quantum Fisher information bounds for linear and
  Kerr phase shifts, ideal and lossy
- oracle: independent brute-force Fock-space engine used for cross-checks
- sweep / cli: parameter sweeps, figure presets, CSV output
"""

__version__ = "0.1.0"

from .errors import (
    BracketExceeded,
    ConsistencyError,
    CutoffTooSmall,
    DegenerateSignal,
    InfeasibleTarget,
    JetError,
    ParamOutOfRange,
    SchemaViolation,
    SingularConstantTerm,
    SingularNormalEquations,
    SpecInvalid,
    TraceDrift,
    UnitarityDrift,
    UnknownFigure,
)
from .moments import MomentSet, moment_set, nb_moment
from .parity import (
    ParitySignal,
    classical_fisher,
    optimal_phase,
    optimal_phases,
    parity_expectation,
    parity_signals,
    phase_sensitivity,
)
from .qfi_kerr import kerr_cq, kerr_mu_opt, qfi_ideal_kerr, qfi_lossy_kerr
from .qfi_linear import (
    BenchmarkLimits,
    QfiResult,
    benchmark_limits,
    qfi_ideal_linear,
    qfi_lossy_linear,
)
from .states import (
    EnergyReport,
    ProbeParams,
    coherent_fock_amplitudes,
    energy_report,
    pasvs_fock_amplitudes,
    pasvs_mean_photons,
    pasvs_norm,
    solve_r_for_energy,
)
from .sweep import CsvTable, SweepSpec, figure_preset, parse_config, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
