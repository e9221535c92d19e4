"""Trapezoid-sum oracle for the overlap integrals of coupling.g_quadrature.

This is the uniform trapezoid sum that g_quadrature ran before it became
an exact finite sum, kept here with its accuracy guard so the tests can
set the exact sum against an independent route at any parameters.

The overlap integrands are analytic in the strip |Im x| < pi/2 and decay
like sech^(2 alpha), so the uniform trapezoid rule converges geometrically
in 1/h (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)) and the cut at
|x| = 40 loses nothing measurable (the edge samples are checked).  What h
must resolve is the carrier e^{ikx}: with k h <= MAX_KH the 2h sum that
estimates the error still samples the carrier well below its Nyquist
limit.  A fixed h cannot catch its own aliasing: at k h = 2 pi the h and
2h sums agree on a wrong value.

The kernel u_k + v_k comes from BogoliubovMode, the closed-form mode
amplitudes on the soliton background; coupling.g_quadrature writes u + v
in closed form instead, so the two share no code.
"""

import math

import numpy as np

from slowsound.bogoliubov import dispersion
from slowsound.numerics import NumericsError
from slowsound.qutrit import ImpurityStates

STEP = 0.05
HALF_WIDTH = 40.0
MAX_KH = 0.6
# Bound on the h/2h difference and on the edge samples, relative to the
# trapezoid sum of |integrand|.
REL_TOL = 1e-10


class BogoliubovMode:
    """Mode amplitudes u(x), v(x) for one wavevector or an array of them.

    On top of a dark soliton the scattering modes acquire localized
    envelope corrections.  These are the standard closed-form amplitudes
    u_k, v_k: envelope brackets in tanh/sech times the plane-wave carrier
    e^{ikx}, so that far from the soliton they reduce to uniform-condensate
    Bogoliubov amplitudes.  The envelope normalization is per unit length
    (the 1/sqrt(4 pi) prefactor), so far from the soliton the plane-wave
    norm is |u|^2 - |v|^2 = k^2 (k^2 + 4) / (2 pi eps(k)), not 1; the
    decay-rate bookkeeping carries the corresponding length factor
    explicitly.

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


def trapezoid_coupling(l, lp, k, params, step=STEP):
    """g12 * integral phi_l phi_l' sqrt(n0) tanh(x) (u_k + v_k) dx for every k at once.

    One trapezoid sum over a uniform grid on |x| <= 40, at the given step
    or smaller when the largest k needs it.  Raises NumericsError, naming
    the pair and k, when the sum at step h and the one over its even
    samples (step 2h) differ, or the integrand has not decayed at the
    grid's edges, by more than REL_TOL of the sum of |integrand|.
    """
    k = np.asarray(k, dtype=float)
    states = ImpurityStates(params)
    h = min(step, MAX_KH / float(np.max(k)))
    n = 2 * math.ceil(HALF_WIDTH / (2.0 * h))  # even, so the 2h grid keeps both ends
    x = h * np.arange(-n, n + 1)
    weight = states[l](x) * states[lp](x) * math.sqrt(params.density_xi) * np.tanh(x)
    # trapezoid weights at step h and, on the even samples, at step 2h
    fine = np.full(x.shape, h)
    fine[[0, -1]] = 0.5 * h
    coarse = np.zeros(x.shape)
    coarse[::2] = 2.0 * h
    coarse[[0, -1]] = h
    mode = BogoliubovMode(k)
    kernel = mode.u(x) + mode.v(x)
    fine *= weight
    total = kernel @ fine
    scale = np.abs(kernel) @ np.abs(fine)
    miss = np.maximum(
        np.abs(total - kernel @ (coarse * weight)),
        np.max(np.abs(kernel[..., [0, -1]] * weight[[0, -1]]), axis=-1),
    )
    bad = ~(miss <= REL_TOL * scale)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise NumericsError(
            f"overlap integral g_{l}{lp} at k={np.ravel(k)[i]:.6g} is not resolved by "
            f"the trapezoid sum (h={h:.3g} on |x| <= {x[-1]:g}): error estimate "
            f"{np.ravel(miss)[i]:.2e} exceeds {REL_TOL:g} of {np.ravel(scale)[i]:.2e}"
        )
    return params.g12 * total
