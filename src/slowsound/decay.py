"""Spontaneous phonon emission of the impurity qutrit.

Rates
-----
Two routes to the decay rates gamma_0 (first excited -> ground) and
gamma_1 (second transition):

* gamma_closed — verbatim closed forms, polynomial brackets in
  eta = sqrt(1 + omega^2) times csch^2(pi k_res/2).  The upper-transition
  denominator constant is the exact 24084480 = 2 * 15 * 896^2 (the product
  of the golden-rule factor 2, the 15 from the coupling's sqrt(n0 pi/15)
  normalization, and the squared 896 coupling denominator); a rounded
  2.4e7 would shift the rate by 0.35% and break the route equivalence.
* gamma_integral — golden rule evaluated honestly: root-find the resonant
  wavevector, evaluate the coupling there, divide by the dispersion slope
  (the 1D density of states), and scale by the per-site impurity
  normalization N0/(n0 xi).  Equivalently (L_eff/sqrt(2)) *
  (sqrt(1+eta)/eta) * |g|^2 with L_eff = N0/(sqrt(2) n0), since
  d eps/d k = 2 eta / sqrt(1+eta) at resonance.

Cascade
-------
Starting from the upper qutrit state with no phonons, the amplitudes
(a, b_k, b_kp) of the zero-, one-, and two-phonon sectors obey

    da/dt    = -gamma_1/2 a
    db_k/dt  = -i g1(k)* a(t) e^{i(w_k - w_1) t} - gamma_0/2 b_k
    db_kp/dt = -i g0(p)* b_k(t) e^{i(w_p - w_0) t}

whose explicit integrals are implemented in closed form (cascade) with the
two-phonon energy reference w_eg = w_0 + w_1.  Continuum sums use the
measure m dk with m = N0/(2 pi n0 xi) — the same per-site normalization
that links the couplings to the rates — so total norm is conserved
independent of N0.  The t -> infinity first-emission line (the marginal of
|b_kp|^2 over the second phonon) is Lorentzian with full width
gamma_0 + gamma_1, a property verified numerically rather than assumed.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import dispersion, dispersion_derivative, resonant_wavevector
from .coupling import csch, interband_coupling
from .numerics import NumericsError
from .params import Params
from .qutrit import ImpurityStates, NotAQutrit, spectrum

__all__ = [
    "GAMMA1_DENOMINATOR",
    "SpectralResolutionError",
    "DecayRates",
    "gamma_closed",
    "gamma_integral",
    "decay_rates",
    "emission_grid",
    "CascadeResult",
    "cascade",
]

GAMMA1_DENOMINATOR = 30 * 896 ** 2  # exact prefactor, = 24084480


class SpectralResolutionError(NumericsError):
    """Raised when an emission grid cannot resolve the narrowest linewidth."""


def gamma_closed(params: Params, omega, which):
    """Closed-form decay rate for transition `which` at frequency omega.

    omega = 0 is the degenerate limit (eta -> 1): the emission phase space
    closes and the rate is returned as exactly 0.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which!r}")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega!r}")
    if omega == 0.0:
        return 0.0
    eta = math.sqrt(1.0 + omega * omega)
    n0 = params.impurity_norm
    g12 = params.g12
    k_arg = math.sqrt(eta - 1.0)
    envelope = csch(math.pi * k_arg / 2.0) ** 2
    if which == 0:
        bracket = (eta - 5.0) ** 2 * (8.0 * eta - 6.0 + 15.0 * omega) ** 2
        denom = 76800.0
    else:
        poly = (
            -1956.0
            + omega * omega * (-591.0 + 56.0 * omega + 29.0 * eta)
            + 4.0 * (505.0 * eta + 7.0 * omega * (107.0 - 39.0 * eta))
        )
        bracket = poly ** 2
        denom = float(GAMMA1_DENOMINATOR)
    return (
        math.pi
        * n0
        * g12 ** 2
        / (denom * eta * math.sqrt(1.0 + eta))
        * (eta - 1.0)
        * bracket
        * envelope
    )


def gamma_integral(params: Params, omega, which, states: ImpurityStates = None):
    """Golden-rule decay rate: resonant coupling over the dispersion slope.

    Uses the coupling mode configured in params ("closed" or "quadrature").
    Fully independent of gamma_closed's transcription: the resonant
    wavevector comes from bracketed root finding, the coupling from the
    coupling module, and the density of states from the dispersion slope.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which!r}")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega!r}")
    if omega == 0.0:
        return 0.0
    k_res = resonant_wavevector(omega)
    g = interband_coupling(which, k_res, params, states=states)
    weight = params.impurity_norm / params.density_xi
    return weight * abs(g) ** 2 / float(dispersion_derivative(k_res))


@dataclass(frozen=True)
class DecayRates:
    """Decay rates, their transitions and the route that gave them (reduced units)."""

    gamma_0: float
    gamma_1: float
    omega_0: float
    omega_1: float
    eta_0: float
    eta_1: float
    route: str  # "closed" or "integral"
    degenerate_0: bool = False
    degenerate_1: bool = False


def decay_rates(params: Params, route="closed", states: ImpurityStates = None):
    """Both transition rates for the given parameters.

    route="closed" transcribed rate expressions; route="integral" golden
    rule with the coupling mode taken from params.coupling_mode.
    Parameters outside the qutrit window raise ValueError (rates of a
    two-level or scattering-dominated configuration are out of scope).
    """
    spec = spectrum(params)
    if isinstance(spec, NotAQutrit):
        raise ValueError(spec.reason)
    if route == "closed":
        g0 = gamma_closed(params, spec.omega_0, 0)
        g1 = gamma_closed(params, spec.omega_1, 1)
    elif route == "integral":
        g0 = gamma_integral(params, spec.omega_0, 0, states=states)
        g1 = gamma_integral(params, spec.omega_1, 1, states=states)
    else:
        raise ValueError(f"route must be 'closed' or 'integral', got {route!r}")
    return DecayRates(
        gamma_0=g0,
        gamma_1=g1,
        omega_0=spec.omega_0,
        omega_1=spec.omega_1,
        eta_0=math.sqrt(1.0 + spec.omega_0 ** 2),
        eta_1=math.sqrt(1.0 + spec.omega_1 ** 2),
        route=route,
        degenerate_0=spec.omega_0 == 0.0,
        degenerate_1=spec.omega_1 == 0.0,
    )


# ----------------------------------------------------------------------
# Emission grids and the cascade amplitudes
# ----------------------------------------------------------------------

def _k_of_omega(omega):
    return np.sqrt(-1.0 + np.sqrt(1.0 + np.square(omega)))


def emission_grid(
    center_omega,
    line_width,
    narrow_width,
    core_halfwidth=15.0,
    span_factor=100.0,
    points_per_width=6.0,
    tail_ratio=1.15,
):
    """Wavevector grid resolving a Lorentzian emission line.

    Dense uniform core of spacing narrow_width/points_per_width covering
    center +- core_halfwidth*line_width, with geometrically stretched
    tails out to +- span_factor*line_width (capturing the ~1/(pi*span)
    Lorentzian tail mass).  Built in frequency, mapped to k through the
    dispersion inversion; clipped at omega > 0.
    """
    if not (line_width > 0 and narrow_width > 0):
        raise ValueError("linewidths must be positive")
    step = narrow_width / points_per_width
    core_hw = core_halfwidth * line_width
    n_core = int(math.ceil(core_hw / step))
    core = center_omega + step * np.arange(-n_core, n_core + 1)
    tail = [core_hw]
    while tail[-1] < span_factor * line_width:
        tail.append(tail[-1] * tail_ratio)
    tail = np.asarray(tail[1:])
    omegas = np.concatenate([center_omega - tail[::-1], core, center_omega + tail])
    omegas = omegas[omegas > 1e-12]
    return _k_of_omega(omegas)


def _check_resolution(k_grid, center_omega, narrow_width, label):
    """Ensure spacing near the line center resolves the narrowest width."""
    omegas = np.asarray(dispersion(k_grid))
    core = np.abs(omegas - center_omega) < 3.0 * narrow_width
    if core.sum() < 4:
        idx = int(np.argmin(np.abs(omegas - center_omega)))
        lo = max(idx - 2, 0)
        core = np.zeros_like(core)
        core[lo : lo + 5] = True
    d_omega = np.diff(omegas[core])
    worst = float(np.max(np.abs(d_omega))) if len(d_omega) else math.inf
    if worst > narrow_width / 5.0:
        slope = float(dispersion_derivative(_k_of_omega(np.asarray(center_omega))))
        needed = narrow_width / 5.0 / slope
        raise SpectralResolutionError(
            f"{label} grid spacing {worst:.3e} (in frequency) cannot resolve "
            f"linewidth {narrow_width:.3e}; need grid spacing "
            f"dk <= {needed:.3e} near k = {float(_k_of_omega(np.asarray(center_omega))):.4f}"
        )


def _trapezoid_weights(x):
    w = np.zeros_like(x)
    w[1:] += 0.5 * np.diff(x)
    w[:-1] += 0.5 * np.diff(x)
    return w


@dataclass
class CascadeResult:
    """Cascade amplitudes and sector norms over a set of sample times.

    b_k rows are the one-phonon amplitudes over k_grid at each time; the
    (large) two-phonon array is not stored per time — two_phonon_amplitudes
    materializes it on demand and the norm bookkeeping was accumulated
    during construction.  measure is the continuum weight m in
    sum_k -> m * integral dk.
    """

    times: np.ndarray
    a: np.ndarray
    k_grid: np.ndarray
    p_grid: np.ndarray
    b_k: np.ndarray
    norm_one_phonon: np.ndarray
    norm_two_phonon: np.ndarray
    measure: float
    rates: DecayRates
    omega_eg: float
    _g1_k: np.ndarray = field(repr=False, default=None)
    _g0_p: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        # Detunings, resonance denominators and the coupling prefactor of
        # b_kp: the time-independent parts, shared by every sample time.
        g0, g1 = self.rates.gamma_0, self.rates.gamma_1
        self._dk = np.asarray(dispersion(self.k_grid)) - self.rates.omega_1
        self._dp = np.asarray(dispersion(self.p_grid)) - self.rates.omega_0
        self._denom_k = 1j * self._dk - 0.5 * (g1 - g0)
        self._denom_p = 1j * self._dp - 0.5 * g0
        self._inv_denom_eg = 1.0 / (1j * (self._dk[:, None] + self._dp[None, :]) - 0.5 * g1)
        self._pref_kp = np.multiply.outer(np.conj(self._g1_k) / self._denom_k, np.conj(self._g0_p))

    @property
    def norm_total(self):
        return np.abs(self.a) ** 2 + self.norm_one_phonon + self.norm_two_phonon

    def two_phonon_amplitudes(self, t):
        """Full b_kp array at time t (k rows, p columns).

        exp((i(dk + dp) - gamma_1/2) t) is taken as the outer product of
        exp((i dk - gamma_1/2) t) and exp(i dp t), so only 1-D exponentials
        are evaluated.
        """
        g0, g1 = self.rates.gamma_0, self.rates.gamma_1
        term_p = (np.exp((1j * self._dp - 0.5 * g0) * t) - 1.0) / self._denom_p
        # b_kp = pref_kp (term_p + (1 - phase) / denom_eg), built in place
        b = np.multiply.outer(np.exp((1j * self._dk - 0.5 * g1) * t), np.exp(1j * self._dp * t))
        np.subtract(1.0, b, out=b)
        b *= self._inv_denom_eg
        b += term_p[None, :]
        b *= self._pref_kp
        return b

    def first_line_spectrum(self):
        """Asymptotic first-emission spectrum: marginal of |b_kp(inf)|^2 over p.

        Returns (k_grid, spectral density in k).  The exponential factors
        vanish as t -> infinity, leaving the pure two-pole structure.
        """
        b_inf = self._pref_kp * (-1.0 / self._denom_p[None, :] + self._inv_denom_eg)
        w_p = _trapezoid_weights(self.p_grid)
        return self.k_grid, self.measure * np.sum(np.abs(b_inf) ** 2 * w_p[None, :], axis=1)


def cascade(params: Params, times, k_grid=None, p_grid=None, states: ImpurityStates = None):
    """Closed-form cascade amplitudes at the requested times.

    Rates are computed by the golden-rule route with the params' coupling
    mode, so that couplings, rates, and the continuum measure are mutually
    consistent and the total norm is conserved (up to the Lorentzian tail
    mass outside the finite grids and trapezoid error).

    k_grid / p_grid default to emission_grid around the upper / lower
    transition lines; custom grids are resolution-checked against the
    narrowest linewidth and rejected with the needed spacing if too coarse.
    """
    spec = spectrum(params)
    if isinstance(spec, NotAQutrit):
        raise ValueError(spec.reason)
    if states is None and params.coupling_mode == "quadrature":
        states = ImpurityStates(params)
    rates = decay_rates(params, route="integral", states=states)
    g0_rate, g1_rate = rates.gamma_0, rates.gamma_1
    narrow = min(g0_rate, g1_rate, abs(g0_rate - g1_rate) or math.inf)

    if k_grid is None:
        k_grid = emission_grid(spec.omega_1, g0_rate + g1_rate, narrow)
    else:
        k_grid = np.asarray(k_grid, dtype=float)
    if p_grid is None:
        p_grid = emission_grid(spec.omega_0, g0_rate, narrow)
    else:
        p_grid = np.asarray(p_grid, dtype=float)
    _check_resolution(k_grid, spec.omega_1, narrow, "one-phonon (k)")
    _check_resolution(p_grid, spec.omega_0, narrow, "two-phonon (p)")

    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0")

    g1_k = interband_coupling(1, k_grid, params, states=states)
    g0_p = interband_coupling(0, p_grid, params, states=states)

    measure = params.impurity_norm / (2.0 * math.pi * params.density_xi)
    w_k = _trapezoid_weights(k_grid)
    w_p = _trapezoid_weights(p_grid)

    a = np.exp(-0.5 * g1_rate * times).astype(complex)
    b_k = np.empty((len(times), len(k_grid)), dtype=complex)
    norm1 = np.empty(len(times))
    norm2 = np.empty(len(times))

    result = CascadeResult(
        times=times,
        a=a,
        k_grid=k_grid,
        p_grid=p_grid,
        b_k=b_k,
        norm_one_phonon=norm1,
        norm_two_phonon=norm2,
        measure=measure,
        rates=rates,
        omega_eg=spec.omega_0 + spec.omega_1,
        _g1_k=g1_k,
        _g0_p=g0_p,
    )

    for i, t in enumerate(times):
        b_k[i] = (
            -1j
            * np.conj(g1_k)
            * (np.exp((1j * result._dk - 0.5 * g1_rate) * t) - math.exp(-0.5 * g0_rate * t))
            / result._denom_k
        )
        norm1[i] = measure * float(np.sum(np.abs(b_k[i]) ** 2 * w_k))
        b_kp = result.two_phonon_amplitudes(t)
        norm2[i] = measure ** 2 * float(w_k @ (np.abs(b_kp) ** 2 @ w_p))

    return result
