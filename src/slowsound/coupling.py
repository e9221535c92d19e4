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
  sqrt(n0) tanh(x) and the soliton-frame mode amplitudes, evaluated
  exactly as a finite sum of the Gamma-function moments of sech powers
  (the integrand is sech^(2 alpha) e^{ikx} times a polynomial in tanh).
  numerics.sech_moments evaluates the moments, the same rule that gives
  the states' norms at k = 0.  It also provides the intraband amplitudes
  (l = l') that the closed forms do not cover, and keeps the name of the
  trapezoid sum it replaced (see its docstring).  g_quadratures gives
  several pairs over one k from one evaluation of the moments.

Every function here takes a float k or an array of k, and returns a value
or an array of k's shape (g_quadratures a list of them).

Only |g|^2 enters rates and susceptibilities; complex phases are retained
for amplitude-level dynamics.  The closed forms carry a global i by
convention, while the overlap integral's phase depends on the parity of
the weight function (even weights give real values, odd weights imaginary
ones); magnitude comparisons are the meaningful cross-check.
"""

import math

import numpy as np

from .bogoliubov import dispersion
from .numerics import sech_moments
from .params import Params
from .qutrit import ImpurityStates

__all__ = [
    "csch",
    "g0_closed",
    "g1_closed",
    "g_quadrature",
    "g_quadratures",
]

# csch(pi k / 2) underflows to zero well before sinh overflows.
_CSCH_ARG_MAX = 700.0

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

    g12 * integral phi_l(x) phi_l'(x) psi_sol(x) [u_k(x)+v_k(x)] dx with
    psi_sol = sqrt(n0) tanh(x), evaluated exactly for every k at once.
    With t = tanh x and s = sech x the states are s^alpha P_l(t)
    (ImpurityStates.polynomials) and 2 sqrt(pi) eps (u_k + v_k) e^{-ikx}
    is (k^3 + 2k) + 2ik^2 t - 2k t^2, so the integrand is s^(2 alpha)
    e^{ikx} times a polynomial in t of degree at most 7: a finite sum of
    the moments of numerics.sech_moments, one log-gamma per k.

    The name is that of the uniform trapezoid sum this replaced, kept
    because scenarios, tests and profiling hooks call it by name; the
    value is the same integral, and the tests keep that sum as an oracle.
    """
    return g_quadratures(((l, lp),), k, params)[0]


def g_quadratures(pairs, k, params: Params):
    """g_quadrature(l, l', k, params) for each (l, l') of pairs, as a list.

    One ImpurityStates and one sech_moments of k serve every pair: the
    moments, most of an evaluation's cost, are contracted with each
    pair's weights in the same order as a lone g_quadrature call, so each
    value equals that call's bit for bit.  Curves over a shared k array
    (validate's interband and intraband families, the couplings
    scenario's intraband sweep) are evaluated through this.
    """
    for l, lp in pairs:
        if l not in (0, 1, 2) or lp not in (0, 1, 2):
            raise ValueError(f"state indices must be in {{0,1,2}}, got ({l!r}, {lp!r})")
    k = _wavevectors(k)
    states = ImpurityStates(params)
    # sqrt(n0) tanh(x) phi_l phi_l' = s^(2 alpha) t sum_m weight[m] t^m, m <= 4
    weights = [
        (math.sqrt(params.density_xi)
         * np.convolve(states.polynomials[l], states.polynomials[lp])).tolist()
        for l, lp in pairs
    ]
    moments = sech_moments(states.exponent, k)
    envelope = (k * k * k + 2.0 * k, 2j * k * k, -2.0 * k)
    # the moment of t^(m+1) times the envelope, for each power m some pair weighs
    enveloped = {
        m: sum(e * moments[m + 1 + j] for j, e in enumerate(envelope))
        for m in sorted({m for weight in weights for m, w in enumerate(weight) if w})
    }
    denominator = 2.0 * math.sqrt(math.pi) * dispersion(k)
    return [
        params.g12 * sum(w * enveloped[m] for m, w in enumerate(weight) if w) / denominator
        for weight in weights
    ]
