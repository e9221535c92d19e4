"""Impurity-phonon coupling amplitudes.

Two routes to the same physics.  The chain (decay_rates, cascade, and
through them every sweep) runs on the first; the second is its oracle,
called directly by the couplings and validate scenarios, which print
where the two disagree:

* the paper's printed closed forms g0_closed / g1_closed for the two
  interband transitions (ground <-> first, first <-> second),
  polynomial-times-csch expressions whose exponential csch(pi k/2)
  envelope reflects the smooth sech-type overlap region of width ~ xi;
* the overlap integral g_quadrature(l, l', k) of the defining expression
  g12 * integral phi_l phi_l' psi_sol (u_k + v_k) dx with psi_sol =
  sqrt(n0) tanh(x) and the soliton-frame mode amplitudes, evaluated for a
  whole array of k by one uniform trapezoid sum over x; it also provides
  the intraband amplitudes (l = l') that the closed forms do not cover.

Every function here takes a float k or an array of k, and returns a value
or an array of k's shape.

Only |g|^2 enters rates and susceptibilities; complex phases are retained
for amplitude-level dynamics.  The closed forms carry a global i by
convention, while the overlap integral's phase depends on the parity of
the weight function (even weights give real values, odd weights imaginary
ones); magnitude comparisons are the meaningful cross-check.
"""

import math

import numpy as np

from .bogoliubov import BogoliubovMode, dispersion
from .numerics import NumericsError
from .params import Params
from .qutrit import ImpurityStates

__all__ = [
    "csch",
    "g0_closed",
    "g1_closed",
    "g_quadrature",
]

# csch(pi k / 2) underflows to zero well before sinh overflows.
_CSCH_ARG_MAX = 700.0

# The overlap integrands are analytic in the strip |Im x| < pi/2 and decay
# like sech^(2 alpha), so the uniform trapezoid rule converges geometrically
# in 1/h (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)) and the cut at
# |x| = 40 loses nothing measurable (the edge samples are checked).  What h
# must resolve is the carrier e^{ikx}: with k h <= _MAX_KH the 2h sum that
# estimates the error still samples the carrier well below its Nyquist
# limit.  A fixed h cannot catch its own aliasing: at k h = 2 pi the h and
# 2h sums agree on a wrong value.
_STEP = 0.05
_HALF_WIDTH = 40.0
_MAX_KH = 0.6
# Bound on the h/2h difference and on the edge samples, relative to the
# trapezoid sum of |integrand|.
_REL_TOL = 1e-10


def _wavevectors(k):
    k = np.asarray(k, dtype=float)
    bad = k[~(k > 0)]
    if bad.size:
        raise ValueError(f"couplings are defined for k > 0, got {float(bad[0])!r}")
    return k


def csch(x):
    """Hyperbolic cosecant, elementwise, with graceful underflow for large arguments."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("csch(0) is singular")
    big = np.abs(x) > _CSCH_ARG_MAX
    return np.where(big, 0.0, 1.0 / np.sinh(np.where(big, 1.0, x)))[()]


def g0_closed(k, params: Params):
    """Closed-form lower-transition coupling g_0(k) (complex, reduced units).

    i g12 k^2/(80 eps) sqrt(n0 pi/6) (2 + 8k^2 + 15 eps)(-4 + k^2) csch(pi k/2)
    """
    k = _wavevectors(k)
    eps = dispersion(k)
    pref = params.g12 * k * k / (80.0 * eps) * math.sqrt(params.density_xi * math.pi / 6.0)
    poly = (2.0 + 8.0 * k * k + 15.0 * eps) * (-4.0 + k * k)
    return 1j * pref * poly * csch(math.pi * k / 2.0)


def g1_closed(k, params: Params):
    """Closed-form upper-transition coupling g_1(k) (complex, reduced units).

    i g12 k^2/(896 eps) sqrt(n0 pi/15)
        [28 (2k^4 - 35k^2 + 68) eps + (29k^6 - 504k^4 + 896k^2 + 64)] csch(pi k/2)
    """
    k = _wavevectors(k)
    eps = dispersion(k)
    k2 = k * k
    pref = params.g12 * k2 / (896.0 * eps) * math.sqrt(params.density_xi * math.pi / 15.0)
    bracket = 28.0 * (2.0 * k2 * k2 - 35.0 * k2 + 68.0) * eps + (
        29.0 * k2 ** 3 - 504.0 * k2 * k2 + 896.0 * k2 + 64.0
    )
    return 1j * pref * bracket * csch(math.pi * k / 2.0)


def g_quadrature(l, lp, k, params: Params):
    """Overlap-integral coupling between impurity states l and l' at wavevector k.

    Evaluates g12 * integral phi_l(x) phi_l'(x) psi_sol(x) [u_k(x)+v_k(x)] dx
    with psi_sol = sqrt(n0) tanh(x), for every k at once, as one trapezoid
    sum over a uniform grid on |x| <= 40.  The step is 0.05, or smaller
    when the largest k needs it.  The impurity states are the params'
    ansatz family, whose normalization is closed form.

    Raises NumericsError, naming the pair and k, when the sum at step h
    and the one over its even samples (step 2h) differ, or the integrand
    has not decayed at the grid's edges, by more than _REL_TOL of the sum
    of |integrand|.
    """
    if l not in (0, 1, 2) or lp not in (0, 1, 2):
        raise ValueError(f"state indices must be in {{0,1,2}}, got ({l!r}, {lp!r})")
    k = _wavevectors(k)
    states = ImpurityStates(params)
    h = min(_STEP, _MAX_KH / float(np.max(k)))
    n = 2 * math.ceil(_HALF_WIDTH / (2.0 * h))  # even, so the 2h grid keeps both ends
    x = h * np.arange(-n, n + 1)
    weight = states[l](x) * states[lp](x) * math.sqrt(params.density_xi) * np.tanh(x)
    # trapezoid weights at step h and, on the even samples, at step 2h
    fine = np.full(x.shape, h)
    fine[[0, -1]] = 0.5 * h
    coarse = np.zeros(x.shape)
    coarse[::2] = 2.0 * h
    coarse[[0, -1]] = h
    mode = BogoliubovMode(k)
    kernel = mode.u(x)
    kernel += mode.v(x)
    fine *= weight
    total = kernel @ fine
    scale = np.abs(kernel) @ np.abs(fine)
    miss = np.maximum(
        np.abs(total - kernel @ (coarse * weight)),
        np.max(np.abs(kernel[..., [0, -1]] * weight[[0, -1]]), axis=-1),
    )
    bad = ~(miss <= _REL_TOL * scale)
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise NumericsError(
            f"overlap integral g_{l}{lp} at k={np.ravel(k)[i]:.6g} is not resolved by "
            f"the trapezoid sum (h={h:.3g} on |x| <= {x[-1]:g}): error estimate "
            f"{np.ravel(miss)[i]:.2e} exceeds {_REL_TOL:g} of {np.ravel(scale)[i]:.2e}"
        )
    return params.g12 * total

