"""Slow sound in a dark-soliton lattice: impurity spectra, phonon decay,
driven three-level dynamics, and acoustic pulse propagation.

The public surface mirrors the physics pipeline: :mod:`slowsound.params`
fixes the dimensionless parameter set, :mod:`slowsound.qutrit` solves the
trapped-impurity level structure, :mod:`slowsound.coupling` and
:mod:`slowsound.decay` connect those levels to the phonon bath,
:mod:`slowsound.bloch` drives the resulting three-level system, and
:mod:`slowsound.response` turns the steady state into susceptibility,
dispersion, and pulse observables.  :mod:`slowsound.gpe` provides the
independent mean-field solver used for cross-validation.
"""

__version__ = "0.1.0"

from slowsound.params import ConfigError, Params, nu_from_ratios
from slowsound.qutrit import NotAQutrit, QutritSpectrum, spectrum
from slowsound.bogoliubov import dispersion, resonant_wavevector
from slowsound.coupling import CouplingSet, coupling_set
from slowsound.decay import DecayRates, cascade, decay_rates
from slowsound.bloch import DriveConfig, drive_from_params, steady_state_lindblad
from slowsound.response import (
    group_velocity_curve,
    propagate_envelope,
    susceptibility_curve,
    transparency_width,
)
from slowsound.gpe import well_eigenstates

__all__ = [
    "ConfigError",
    "Params",
    "nu_from_ratios",
    "NotAQutrit",
    "QutritSpectrum",
    "spectrum",
    "dispersion",
    "resonant_wavevector",
    "CouplingSet",
    "coupling_set",
    "DecayRates",
    "cascade",
    "decay_rates",
    "DriveConfig",
    "drive_from_params",
    "steady_state_lindblad",
    "group_velocity_curve",
    "propagate_envelope",
    "susceptibility_curve",
    "transparency_width",
    "well_eigenstates",
    "__version__",
]
