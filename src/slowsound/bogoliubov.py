"""Phonon branch of the condensate: its dispersion, slope and inverse.

The condensate's linearized excitations have dispersion

    eps(k) = sqrt(k^2 (k^2 + 2))        (reduced units)

with the long-wavelength phonon slope sqrt(2) playing the role of the sound
speed and the free-particle asymptote eps ~ k^2 at large k.  (In textbook
form this is eps = sqrt(eps0 (eps0 + 2 mu)) with eps0 = k^2 mu xi^2 for the
healing-length convention used here, i.e. hbar^2/(2m) = mu xi^2.)
dispersion_derivative is its slope, the 1D density of states of the
golden-rule rates, and resonant_wavevector its inverse: the wavevector of
the phonon that a transition at omega emits.
"""

import numpy as np

__all__ = [
    "dispersion",
    "dispersion_derivative",
    "resonant_wavevector",
]


def dispersion(k):
    """Excitation energy eps(k) = sqrt(k^2(k^2+2)); even in k, eps(0) = 0."""
    k2 = np.square(k)
    return np.sqrt(k2 * (k2 + 2.0))


def dispersion_derivative(k):
    """Group slope d eps/d k = 2k(k^2+1)/eps(k) for k != 0."""
    k = np.asarray(k, dtype=float)
    if np.any(k == 0.0):
        raise ValueError("dispersion slope is undefined at k = 0 (use the limit sqrt(2))")
    return 2.0 * k * (k * k + 1.0) / dispersion(k)


def resonant_wavevector(omega):
    """The positive k solving eps(k) = omega, for a float or an array.

    The quartic k^4 + 2k^2 = omega^2 inverts to k^2 = sqrt(1 + omega^2) - 1,
    written as omega^2 / (1 + sqrt(1 + omega^2)) so that nothing cancels:
    k = omega / sqrt(1 + sqrt(1 + omega^2)) keeps full relative precision
    down to the sound-slope limit k -> omega / sqrt(2).
    """
    if not np.all(np.asarray(omega) > 0):
        raise ValueError(f"resonance requires omega > 0, got {omega!r}")
    return omega / np.sqrt(1.0 + np.sqrt(1.0 + np.square(omega)))
