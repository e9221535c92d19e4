"""Slow sound in a dark-soliton lattice: impurity spectra, phonon decay,
driven three-level dynamics, and acoustic pulse propagation.

The public surface mirrors the physics pipeline: :mod:`slowsound.params`
fixes the dimensionless parameter set, :mod:`slowsound.qutrit` solves the
trapped-impurity level structure, :mod:`slowsound.coupling` and
:mod:`slowsound.decay` connect those levels to the phonon bath,
:mod:`slowsound.bloch` drives the resulting three-level system, and
:mod:`slowsound.response` turns the steady state into susceptibility,
dispersion, and pulse observables.  :mod:`slowsound.gpe` holds the
frozen-well eigensolve and the imaginary-time coupled ground state used
for cross-validation.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module.  The names are resolved on first access
# (PEP 562), so importing the package, or `slowsound.cli` through it, does
# not load numpy: the CLI's --threads must set the BLAS thread variables
# before numpy first loads.
_EXPORTS = {
    "ConfigError": "slowsound.params",
    "Params": "slowsound.params",
    "nu_from_ratios": "slowsound.params",
    "NotAQutrit": "slowsound.qutrit",
    "QutritSpectrum": "slowsound.qutrit",
    "spectrum": "slowsound.qutrit",
    "dispersion": "slowsound.bogoliubov",
    "resonant_wavevector": "slowsound.bogoliubov",
    "DecayRates": "slowsound.decay",
    "cascade": "slowsound.decay",
    "decay_rates": "slowsound.decay",
    "DriveConfig": "slowsound.bloch",
    "drive_from_params": "slowsound.bloch",
    "steady_state_lindblad": "slowsound.bloch",
    "group_velocity_curve": "slowsound.response",
    "propagate_envelope": "slowsound.response",
    "susceptibility_curve": "slowsound.response",
    "transparency_width": "slowsound.response",
    "well_eigenstates": "slowsound.gpe",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
