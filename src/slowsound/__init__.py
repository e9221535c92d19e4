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
for cross-validation.  Names are imported from these modules; the
package holds only __version__, so importing it loads no numpy.
"""

__version__ = "0.1.0"
