"""Phonon excitations on the dark-soliton background.

The condensate's linearized excitations have dispersion

    eps(k) = sqrt(k^2 (k^2 + 2))        (reduced units)

with the long-wavelength phonon slope sqrt(2) playing the role of the sound
speed and the free-particle asymptote eps ~ k^2 at large k.  (In textbook
form this is eps = sqrt(eps0 (eps0 + 2 mu)) with eps0 = k^2 mu xi^2 for the
healing-length convention used here, i.e. hbar^2/(2m) = mu xi^2.)

On top of a dark soliton the scattering modes acquire localized envelope
corrections.  BogoliubovMode gives the standard closed-form amplitudes
u_k, v_k: envelope brackets in tanh/sech times the plane-wave carrier
e^{ikx}, so that far from the soliton they reduce to uniform-condensate
Bogoliubov amplitudes.  The envelope normalization is per unit length
(the 1/sqrt(4 pi) prefactor), so far from the soliton the plane-wave norm
is |u|^2 - |v|^2 = k^2 (k^2 + 4) / (2 pi eps(k)), not 1; the decay-rate
bookkeeping carries the corresponding length factor explicitly.
"""

import math

import numpy as np

__all__ = [
    "dispersion",
    "dispersion_derivative",
    "BogoliubovMode",
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


class BogoliubovMode:
    """Mode amplitudes u(x), v(x) for one wavevector or an array of them.

    Attributes
    ----------
    k : wavevector (1/xi), a scalar or an array
    energy : eps(k) (mu), of k's shape
    u, v : methods over x returning complex arrays of shape k.shape + x.shape,
        so an array of k evaluates every mode on the same x grid at once
    """

    def __init__(self, k):
        k = np.asarray(k, dtype=float)
        if np.any(k == 0.0):
            raise ValueError("k = 0 is the singular zero mode (eps = 0 in denominators)")
        self.k = k[()]
        self.energy = dispersion(self.k)

    def _amplitude(self, x, sign):
        x = np.asarray(x, dtype=float)
        shape = np.shape(self.k) + (1,) * x.ndim
        kk = np.reshape(self.k, shape)
        eps = np.reshape(self.energy, shape)
        pref = math.sqrt(1.0 / (4.0 * math.pi)) / eps
        # pref * envelope * carrier, built in one array of shape k.shape + x.shape
        amplitude = 0.5 * kk + 1j * np.tanh(x)
        amplitude *= kk * kk + sign * 2.0 * eps
        amplitude += kk / np.cosh(x) ** 2
        amplitude *= pref
        amplitude *= np.exp(1j * kk * x)
        return amplitude

    def u(self, x):
        """Particle amplitude u_k(x)."""
        return self._amplitude(x, 1.0)

    def v(self, x):
        """Hole amplitude v_k(x)."""
        return self._amplitude(x, -1.0)

    def __repr__(self):
        k = np.array2string(np.asarray(self.k), precision=6)
        return f"BogoliubovMode(k={k})"


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
