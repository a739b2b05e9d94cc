"""Sampled-data feedback stabilization toolkit.

Layers:

* :mod:`sdstab.sysmodel` / :mod:`sdstab.odeint` - systems (each with its
  own ``rhs(x, u)``), signals, fixed-step integration with blow-up
  detection.
* :mod:`sdstab.synth` - stabilizing-gain synthesis (Riccati via the
  Hamiltonian's stable subspace) with verified quadratic decrease.
* :mod:`sdstab.liecalc` / :mod:`sdstab.exprs` / :mod:`sdstab.jets` -
  expression fields, Lie brackets and derivatives through jet arithmetic,
  and the pointwise stabilizability condition checkers.
* :mod:`sdstab.patchwork` - discontinuous glued Lyapunov functions built
  from region-local pieces, with statistical verification.
* :mod:`sdstab.sampling` - seeded scrambled Halton points over boxes and
  balls, drawn in NumPy (the points of ``scipy.stats.qmc.Halton``, bit for
  bit, without importing ``scipy.stats``).
* :mod:`sdstab.sdfctl` - sampled-data closed loops sampled at ``k*h``
  (frozen-gain and patchwork-dispatch controllers) and decrease
  certificates.
* :mod:`sdstab.cli` - the ``sdstab`` command-line front end.
"""

from .errors import (
    ConfigError,
    ControllerError,
    NonFiniteMatrixError,
    NotStabilizableError,
    NumericalFailure,
    OffsetSelectionError,
    UncoveredPointError,
)
from .odeint import IntegrationConfig, integrate, max_excursion
from .sysmodel import (
    AffineSystem,
    ControlSignal,
    StateLinearSystem,
    Trajectory,
    state_vector,
    zero_signal,
)
from .synth import (
    GainSynthesisResult,
    solve_lyapunov,
    spectral_abscissa,
    synthesize_gain,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSystem",
    "ConfigError",
    "ControlSignal",
    "ControllerError",
    "GainSynthesisResult",
    "IntegrationConfig",
    "NonFiniteMatrixError",
    "NotStabilizableError",
    "NumericalFailure",
    "OffsetSelectionError",
    "StateLinearSystem",
    "Trajectory",
    "UncoveredPointError",
    "integrate",
    "max_excursion",
    "solve_lyapunov",
    "spectral_abscissa",
    "state_vector",
    "synthesize_gain",
    "zero_signal",
]
