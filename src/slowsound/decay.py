"""Spontaneous phonon emission of the impurity qutrit.

Rates
-----
decay_rates gives the decay rates gamma_0 (first excited -> ground) and
gamma_1 (second transition) by the golden rule, evaluated honestly: invert
the dispersion for the resonant wavevector, evaluate the printed coupling
g0_closed / g1_closed there, divide by the dispersion slope (the 1D
density of states), and scale by the per-site impurity normalization
N0/(n0 xi).
Equivalently (L_eff/sqrt(2)) * (sqrt(1+eta)/eta) * |g|^2 with
L_eff = N0/(sqrt(2) n0), since d eps/d k = 2 eta / sqrt(1+eta) at
resonance.  The lower line's resonant wavevector k0 and |g0(k0)|^2 ride
along: they are the probe carrier of the response layer.

gamma_closed is the independent route, called directly by the checks: the
verbatim closed forms, polynomial brackets in eta = sqrt(1 + omega^2)
times csch^2(pi k_res/2).  The upper-transition denominator constant is
the exact 24084480 = 2 * 15 * 896^2 (the product of the golden-rule
factor 2, the 15 from the coupling's sqrt(n0 pi/15) normalization, and the
squared 896 coupling denominator); a rounded 2.4e7 would shift the rate by
0.35% and break the route equivalence.

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

The sector norms are trapezoid sums, at every time at once.  Write b_kp =
A_k B_p (c_p + M_kp D_kp): A_k B_p the coupling prefactor, c_p the lower
line's term, M = 1/(i(dk + dp) - gamma_1/2) and D = 1 - E_k P_p with E_k =
e^{(i dk - gamma_1/2) t} and |P_p| = |e^{i dp t}| = 1.  Splitting D =
(1 - P) + P (1 - E) turns the double sum of |b_kp|^2 into time-independent
sums and two (times x p) @ (p x k) products, one with M and one with
|M|^2; every term is exactly 0 at t = 0.  Only real (k, p) arrays enter:
M = -q (gamma_1/2 + i(dk + dp)) with q = |M|^2 and s = q (dk + dp), so
every product with M is a real matrix product with q and s, and the
t -> infinity first line is a few matrix-vector products with them.  q
and s are built a block of k rows at a time into two cache-sized buffers,
and every product is taken in that one pass, so no (k, p) array is kept.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import dispersion, dispersion_derivative, resonant_wavevector
from .coupling import csch, g0_closed, g1_closed
from .numerics import NumericsError
from .params import ConfigError, Params
from .qutrit import NotAQutrit, spectrum

__all__ = [
    "GAMMA1_DENOMINATOR",
    "DecayRates",
    "gamma_closed",
    "decay_rates",
    "emission_grid",
    "CascadeResult",
    "cascade",
]

GAMMA1_DENOMINATOR = 30 * 896 ** 2  # exact prefactor, = 24084480
# Bytes of each (k, p) block buffer of the cascade: 192-512 KiB ran its
# REFERENCE cascades equally fast (2 MiB L2), 32 KiB and 2 MiB about 20% slower.
_BLOCK_BYTES = 3 * 2 ** 17
# Largest (k, p) grid the cascade runs: at 9.6e7 points it took 0.43 s for
# 3 sample times and 2.2 s for 26 (one BLAS thread), about 5 times that at 3.3e8.
MAX_GRID_POINTS = 10 ** 8


def gamma_closed(params: Params, omega, which, g12=None):
    """Closed-form decay rate for transition `which` at frequency omega.

    omega and g12 (default params.g12) may be arrays; float_power calls C
    pow as a Python float's ** does, so each rate equals the scalar one bit
    for bit.  omega = 0 is the degenerate limit (eta -> 1): the emission
    phase space closes and the rate is exactly 0.
    """
    if which not in (0, 1):
        raise ValueError(f"which must be 0 or 1, got {which!r}")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError(f"omega must be >= 0, got {float(np.min(omega))!r}")
    closed = omega == 0.0
    omega = np.where(closed, 1.0, omega)  # any positive stand-in; masked below
    eta = np.sqrt(1.0 + omega * omega)
    g12 = params.g12 if g12 is None else g12
    k_arg = np.sqrt(eta - 1.0)
    envelope = np.float_power(csch(math.pi * k_arg / 2.0), 2)
    if which == 0:
        bracket = np.float_power(eta - 5.0, 2) * np.float_power(8.0 * eta - 6.0 + 15.0 * omega, 2)
        denom = 76800.0
    else:
        poly = (
            -1956.0
            + omega * omega * (-591.0 + 56.0 * omega + 29.0 * eta)
            + 4.0 * (505.0 * eta + 7.0 * omega * (107.0 - 39.0 * eta))
        )
        bracket = np.float_power(poly, 2)
        denom = float(GAMMA1_DENOMINATOR)
    rate = (
        math.pi
        * params.impurity_norm
        * np.float_power(g12, 2)
        / (denom * eta * np.sqrt(1.0 + eta))
        * (eta - 1.0)
        * bracket
        * envelope
    )
    return np.where(closed, 0.0, rate)[()]


@dataclass(frozen=True)
class DecayRates:
    """Golden-rule decay rates, their transitions and the probe carrier.

    carrier_k is the lower line's resonant wavevector k0 and
    carrier_coupling the |g0(k0)|^2 that gamma_0 was taken from (reduced
    units).
    """

    gamma_0: float
    gamma_1: float
    omega_0: float
    omega_1: float
    carrier_k: float
    carrier_coupling: float


def decay_rates(params: Params):
    """Golden-rule rates of both transitions, from the printed couplings.

    Each rate is the resonant coupling over the dispersion slope (the 1D
    density of states), scaled by the per-site impurity normalization
    N0/(n0 xi).  The lower line's resonant wavevector and |g0|^2 there are
    returned with the rates, so a sweep's chi prefactor comes from the
    same coupling as gamma_0.  Parameters outside the qutrit window raise
    ConfigError (rates of a two-level or scattering-dominated configuration
    are out of scope).
    """
    spec = spectrum(params)
    if isinstance(spec, NotAQutrit):
        raise ConfigError(spec.reason)
    weight = params.impurity_norm / params.density_xi
    k0, k1 = (float(resonant_wavevector(w)) for w in (spec.omega_0, spec.omega_1))
    g0_sq = abs(g0_closed(k0, params)) ** 2
    g1_sq = abs(g1_closed(k1, params)) ** 2
    return DecayRates(
        gamma_0=float(weight * g0_sq / dispersion_derivative(k0)),
        gamma_1=float(weight * g1_sq / dispersion_derivative(k1)),
        omega_0=spec.omega_0,
        omega_1=spec.omega_1,
        carrier_k=k0,
        carrier_coupling=float(g0_sq),
    )


# ----------------------------------------------------------------------
# Emission grids and the cascade amplitudes
# ----------------------------------------------------------------------

def emission_grid(center_omega, line_width, narrow_width):
    """Wavevector grid resolving a Lorentzian emission line.

    Dense uniform core of spacing narrow_width/6 covering center +-
    15 line_width, with tails stretched geometrically (ratio 1.15) out to
    +- 100 line_width (capturing the ~1/(100 pi) Lorentzian tail mass).
    Built in frequency, mapped to k through the dispersion inversion;
    clipped at omega > 0.
    """
    if not (line_width > 0 and narrow_width > 0):
        raise ValueError("linewidths must be positive")
    step = narrow_width / 6.0
    core_hw = 15.0 * line_width
    n_core = int(math.ceil(core_hw / step))
    core = center_omega + step * np.arange(-n_core, n_core + 1)
    tail = [core_hw]
    while tail[-1] < 100.0 * line_width:
        tail.append(tail[-1] * 1.15)
    tail = np.asarray(tail[1:])
    omegas = np.concatenate([center_omega - tail[::-1], core, center_omega + tail])
    omegas = omegas[omegas > 1e-12]
    return resonant_wavevector(omegas)


def _trapezoid_weights(x):
    w = np.zeros_like(x)
    w[1:] += 0.5 * np.diff(x)
    w[:-1] += 0.5 * np.diff(x)
    return w


@dataclass
class CascadeResult:
    """Cascade amplitudes, sector norms and first line over a set of times.

    b_k rows are the one-phonon amplitudes over k_grid at each time.  The
    two-phonon norm and the first line are summed in one pass over blocks
    of q and s (module docstring); two_phonon_amplitudes builds b_kp at one
    time from one full-size block, the direct route the tests check those
    sums against.  measure is the continuum weight m in sum_k -> m * dk.
    """

    times: np.ndarray
    a: np.ndarray
    k_grid: np.ndarray
    p_grid: np.ndarray
    measure: float
    rates: DecayRates
    omega_eg: float
    _g1_k: np.ndarray = field(repr=False, default=None)
    _g0_p: np.ndarray = field(repr=False, default=None)
    b_k: np.ndarray = field(init=False)
    norm_one_phonon: np.ndarray = field(init=False)
    norm_two_phonon: np.ndarray = field(init=False)

    def __post_init__(self):
        # Detunings, resonance denominators and the coupling prefactor of
        # b_kp: the time-independent parts, shared by every sample time.
        g0, g1 = self.rates.gamma_0, self.rates.gamma_1
        self._dk = np.asarray(dispersion(self.k_grid)) - self.rates.omega_1
        self._dp = np.asarray(dispersion(self.p_grid)) - self.rates.omega_0
        self._denom_p = 1j * self._dp - 0.5 * g0
        self._amp_k = np.conj(self._g1_k) / (1j * self._dk - 0.5 * (g1 - g0))

        # Both sectors at every time at once, times down the rows.
        t = self.times[:, None]
        w_k, w_p = _trapezoid_weights(self.k_grid), _trapezoid_weights(self.p_grid)
        e_k = np.exp((1j * self._dk - 0.5 * g1) * t)
        self.b_k = -1j * self._amp_k * (e_k - np.exp(-0.5 * g0 * t))
        self.norm_one_phonon = self.measure * np.sum(np.abs(self.b_k) ** 2 * w_k, axis=1)
        phase = np.exp(1j * self._dp * t)
        c_p = (np.exp(self._denom_p * t) - 1.0) / self._denom_p
        a_k, b_p = w_k * np.abs(self._amp_k) ** 2, w_p * np.abs(self._g0_p) ** 2
        r_p = 1.0 / self._denom_p  # first_line_spectrum's lower-line term
        # cross = (b_p (phase - 1)) @ q.T + x @ M.T = z @ q.T - i x @ s.T
        x = b_p * np.conj(c_p) * phase
        z = b_p * (phase - 1.0) - 0.5 * g1 * x
        # One pass: per k, q's p sums against b_p, the first line's q weight,
        # Re z, Im z and s's against its s weight, Im x, -Re x; a_k @ q and @ s.
        by_q = np.column_stack((b_p, b_p * (1.0 + g1 * r_p.real), z.real.T, z.imag.T))
        by_s = np.column_stack((2.0 * b_p * r_p.imag, x.imag.T, -x.real.T))
        q_sums, s_sums = np.empty((len(a_k), len(by_q.T))), np.empty((len(a_k), len(by_s.T)))
        a_q, a_s = np.zeros_like(b_p), np.zeros_like(b_p)  # a_k @ M = -(g1/2) a_q - i a_s
        for rows, q, s in _qs_blocks(self._dk, self._dp, g1, _BLOCK_BYTES // self._dp.nbytes):
            np.matmul(q, by_q, out=q_sums[rows])
            np.matmul(s, by_s, out=s_sums[rows])
            a_q += a_k[rows] @ q
            a_s += a_k[rows] @ s
        cross_re, cross_im = np.hsplit(q_sums[:, 2:] + s_sums[:, 1:], 2)  # cross.T
        u = b_p * c_p * np.conj(1.0 - phase)  # 2 Re(u @ conj(a_k @ M)) below
        self.norm_two_phonon = self.measure ** 2 * (
            np.sum(a_k) * (np.abs(c_p) ** 2 @ b_p)
            + (b_p * np.abs(1.0 - phase) ** 2) @ a_q
            + np.abs(1.0 - e_k) ** 2 @ (a_k * q_sums[:, 0])
            - 2.0 * (u.real @ (0.5 * g1 * a_q) + u.imag @ a_s)
            + 2.0 * np.real(((1.0 - e_k) * (cross_re + 1j * cross_im).T) @ a_k)
        )
        line = q_sums[:, 1] + s_sums[:, 0] + b_p @ np.abs(r_p) ** 2
        self._first_line = self.measure * np.abs(self._amp_k) ** 2 * line

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
        ((_, q, s),) = _qs_blocks(self._dk, self._dp, g1, len(self._dk))
        term_p = (np.exp((1j * self._dp - 0.5 * g0) * t) - 1.0) / self._denom_p
        # b_kp = pref_kp (term_p + (1 - phase) M), built in place
        b = np.multiply.outer(np.exp((1j * self._dk - 0.5 * g1) * t), np.exp(1j * self._dp * t))
        np.subtract(1.0, b, out=b)
        b *= -0.5 * g1 * q - 1j * s
        b += term_p[None, :]
        b *= np.multiply.outer(self._amp_k, np.conj(self._g0_p))
        return b

    def first_line_spectrum(self):
        """Asymptotic first-emission spectrum: marginal of |b_kp(inf)|^2 over p.

        Returns (k_grid, spectral density in k).  The exponential factors
        vanish as t -> infinity, leaving b_kp = A_k B_p (M_kp - r_p) with
        r_p = 1/(i dp - gamma_0/2), and |M - r_p|^2 = q + gamma_1 q Re r_p
        + 2 s Im r_p + |r_p|^2 makes the sum over p matrix-vector products.
        """
        return self.k_grid, self._first_line


def _qs_blocks(dk, dp, gamma_1, rows):
    """Yield (k slice, q, s) per block of at most `rows` k rows, q = |M|^2 and
    s = q (dk + dp) written into two buffers that every block reuses."""
    rows = max(1, min(rows, len(dk)))
    s_buf, q_buf = np.empty((rows, len(dp))), np.empty((rows, len(dp)))
    for start in range(0, len(dk), rows):
        k = slice(start, start + rows)
        s, q = s_buf[: len(dk[k])], q_buf[: len(dk[k])]
        np.add.outer(dk[k], dp, out=s)
        np.multiply(s, s, out=q)
        q += 0.25 * gamma_1 * gamma_1
        np.reciprocal(q, out=q)
        s *= q
        yield k, q, s


def cascade(params: Params, times, rates=None):
    """Closed-form cascade amplitudes at the requested times.

    Rates are the golden-rule rates (decay_rates) and the amplitudes use
    the same printed g0_closed / g1_closed, so that couplings, rates, and
    the continuum measure are mutually consistent and the total norm is
    conserved (up to the Lorentzian tail mass outside the finite grids and
    trapezoid error).
    The k and p grids are emission_grid around the upper and lower
    transition lines, stepped at a sixth of min(gamma_0, gamma_1, |gamma_0 -
    gamma_1|); near gamma_0 = gamma_1 a grid whose cores exceed
    MAX_GRID_POINTS is refused (NumericsError) before it is built.  times
    must be finite, 1-D and >= 0.  rates, when given, must be
    decay_rates(params), already resolved by the caller.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError(f"times must be a 1-D array of finite values >= 0, got {times!r}")
    if rates is None:
        rates = decay_rates(params)
    g0_rate, g1_rate = rates.gamma_0, rates.gamma_1
    narrow = min(g0_rate, g1_rate, abs(g0_rate - g1_rate) or math.inf)
    n_k, n_p = (2 * math.ceil(15.0 * w / (narrow / 6.0)) + 1 for w in (g0_rate + g1_rate, g0_rate))
    if n_k * n_p > MAX_GRID_POINTS:
        raise NumericsError(f"cascade at gamma_0/gamma_1 = {g0_rate / g1_rate:.9g}: the (k, p) "
                            f"grid's cores alone are K x P = {n_k} x {n_p} = {n_k * n_p:.3g} "
                            f"points, above {MAX_GRID_POINTS:.0e}")
    k_grid = emission_grid(rates.omega_1, g0_rate + g1_rate, narrow)
    p_grid = emission_grid(rates.omega_0, g0_rate, narrow)

    return CascadeResult(
        times=times,
        a=np.exp(-0.5 * g1_rate * times).astype(complex),
        k_grid=k_grid,
        p_grid=p_grid,
        measure=params.impurity_norm / (2.0 * math.pi * params.density_xi),
        rates=rates,
        omega_eg=rates.omega_0 + rates.omega_1,
        _g1_k=g1_closed(k_grid, params),
        _g0_p=g0_closed(p_grid, params),
    )
