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

whose explicit integrals are known in closed form, with the two-phonon
energy reference w_eg = w_0 + w_1; cascade returns a, the sector norms and
the first line, never b_k or b_kp themselves.  Continuum sums use the
measure m dk with m = N0/(2 pi n0 xi) — the same per-site normalization
that links the couplings to the rates — so total norm is conserved
independent of N0.  The t -> infinity first-emission line (the marginal of
|b_kp|^2 over the second phonon) is Lorentzian with full width
gamma_0 + gamma_1, a property verified numerically rather than assumed.

The sector norms are trapezoid sums, at every time at once.  Write b_kp =
A_k B_p (c_p + M_kp D_kp): A_k B_p the coupling prefactor, c_p =
(e^{(i dp - gamma_0/2) t} - 1)/(i dp - gamma_0/2) the lower line's term,
M = 1/(i x - gamma_1/2) at x = dk + dp and D = 1 - e^{-gamma_1 t/2} e^{i x
t}.  With the weights a_k = w_k |A_k|^2 and b_p = w_p |B_p|^2, q = |M|^2,
s = q x, h = -M = (gamma_1/2) q + i s and beta_p = b_p/conj(i dp -
gamma_0/2), the two-phonon norm over m^2 is

    sum_k a  sum_p b |c_p|^2  +  (1 - e^{-gamma_1 t/2})^2 sum_kp a q b
    - 2 Re sum_kp a h beta (e^{-gamma_0 t/2} (e^{-i dp t} - 1) + e^{-gamma_0 t/2} - 1)
    + 2 e^{-gamma_1 t/2} Re sum_kp a h beta (e^{-gamma_0 t/2} (e^{i dk t} - 1)
                                             + e^{-gamma_0 t/2} - 1)
    - 2 e^{-gamma_1 t/2} Re sum_kp a (q b + h beta) (e^{i x t} - 1).

Every time factor is e^{-gamma t/2} - 1 or e^{i theta} - 1 = -2 sin^2(theta/2)
+ i sin(theta), so every term is exactly 0 at t = 0 and the norm starts at
0 bit for bit.  All but the last sum are time-independent per-k or per-p
sums (sum_p q b, sum_p h beta, sum_k a h) against 1-D phases; the t ->
infinity first line is m |A_k|^2 (sum_p q b + 2 Re sum_p h beta + sum_p
b |1/(i dp - gamma_0/2)|^2).

The (k, p) sums never form a K x P x times product.  The cores of both
grids step at the same narrow/6 in omega, so dk = n_k step + eps_k and dp
= n_p step + eps_p, with offsets eps of about 1e-16 from the omega -> k ->
omega round trip: every pair of core points sits on one lattice, x =
(n_k + n_p) step + eps_k + eps_p, where q and s are Hankel in (k, p).  The
per-k and per-p sums over core pairs are then correlations with the
lattice kernels, and the last sum is sum_m (q_m (a * b)_m + h_m (a *
beta)_m)(e^{i x_m t} - 1) with * the convolution over the lattice; all are
taken by FFT in O((K + P) log(K + P)) (Golub & Van Loan, Matrix
Computations, 4th ed., section 4.7).  Each is corrected to first order in
the offsets: q and s at x_m plus their derivative times eps_k + eps_p, and
e^{i x t} as e^{i x_m t} (1 + i (eps_k + eps_p) t), whose error is (eps
t)^2.  The lattice phases are factored, e^{i (h J + l) step t} = e^{i h J
step t} e^{i l step t}, so only times x 2 sqrt(K + P) of them are taken.
The geometric tails, about 14 points a side, are off the lattice: the
pairs with an off-lattice point are two dense strips (off-lattice k
against every p, core k against off-lattice p), summed with q in full and
one matrix product per strip against the sin and cos arrays of the long
side.  e^{i x t} - 1 = (e^{i dk t} - 1)(e^{i dp t} - 1) + (e^{i dk t} - 1)
+ (e^{i dp t} - 1) keeps every strip term exactly 0 at t = 0 as well.
"""

import math
from dataclasses import dataclass

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
# Largest (k, p) grid the cascade runs: at 9.6e7 points (13 757 x 6 983) it
# took 0.05 s for 3 sample times and 0.07 s for 26 (one BLAS thread); past it
# the grids' sides and the times x (K + P) phase arrays grow as 1/|gamma_0 - gamma_1|.
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


@dataclass(frozen=True)
class CascadeResult:
    """What cascade returns: a plain record, computed when it is made.

    a is the upper state's amplitude, and norm_one_phonon and
    norm_two_phonon the one- and two-phonon sector norms, each over times.
    first_line is the t -> infinity first-emission spectrum over k_grid:
    the marginal of |b_kp(inf)|^2 over the second phonon, a spectral
    density in k.  The norms and the first line are sums over the (k, p)
    grid, taken on its shared omega lattice and in two dense strips
    (module docstring).
    """

    times: np.ndarray
    a: np.ndarray
    k_grid: np.ndarray
    p_grid: np.ndarray
    norm_one_phonon: np.ndarray
    norm_two_phonon: np.ndarray
    first_line: np.ndarray

    @property
    def norm_total(self):
        return np.abs(self.a) ** 2 + self.norm_one_phonon + self.norm_two_phonon


def _narrowest_width(rates):
    """min(gamma_0, gamma_1, |gamma_0 - gamma_1|): the emission grids step at a sixth of it."""
    g0, g1 = rates.gamma_0, rates.gamma_1
    return min(g0, g1, abs(g0 - g1) or math.inf)


def _q(x, gamma_1):
    """q = |M|^2 = 1/(x^2 + gamma_1^2/4) for M = 1/(i x - gamma_1/2) = -q (gamma_1/2 + i x)."""
    q = x * x
    q += 0.25 * gamma_1 * gamma_1
    return np.reciprocal(q, out=q)


def _lattice(d, step, gamma_1):
    """The lattice run of a grid of detunings d: the longest run of
    consecutive points within 1e-9 gamma_1 of the lattice n step, as
    (slice, n, offsets d - n step).  An emission grid's core is that run,
    its offsets about 1e-16 from the omega -> k -> omega round trip.  The
    bound keeps what the first-order sums drop, (offset/gamma_1)^2 and
    (offset t)^2, below 1e-18 and 1e-18 (gamma_1 t)^2."""
    n = np.rint(d / step)
    on = np.flatnonzero(np.abs(d - n * step) <= 1e-9 * gamma_1)
    run = max(np.split(on, np.flatnonzero(np.diff(on) > 1) + 1), key=len)
    core = slice(run[0], run[-1] + 1)
    return core, n[core].astype(int), d[core] - n[core] * step


def _phase(d, times):
    """e^{i d t} - 1 as cos(d t) - 1 = -2 sin^2(d t/2) and sin(d t), stacked
    in one array of shape (2, times, d); both are exactly 0 at t = 0."""
    out = np.empty((2, len(times), len(d)))
    np.multiply.outer(times, d, out=out[1])
    np.multiply(out[1], 0.5, out=out[0])
    np.sin(out, out=out)
    out[0] *= out[0]
    out[0] *= -2.0
    return out


def _pair_sums(dk, dp, step, gamma_1, a, b, beta, times, phase_k, phase_p):
    """The (k, p) sums of the cascade's norms, with q and h = (gamma_1/2) q +
    i s at x = dk + dp: (qb, hb, ah_beta, on_k, on_p, cross).

    Per k sum_p q b and sum_p h beta, per p beta sum_k a h, and Re sum_kp a
    (q b + h beta)(e^{i x t} - 1) as cross + Re sum_k on_k (e^{i dk t} - 1)
    + Re sum_p on_p (e^{i dp t} - 1), from phase_k = _phase(dk, times) and
    phase_p.  Pairs of lattice points are summed on the lattice, the others
    in two dense strips: off-lattice k against every p, lattice k against
    off-lattice p.
    """
    (k_core, n_k, eps_k), (p_core, n_p, eps_p) = (_lattice(d, step, gamma_1) for d in (dk, dp))
    qb, hb, on_k = np.zeros(len(dk)), np.zeros(len(dk), complex), np.zeros(len(dk), complex)
    ah_beta, on_p = np.zeros(len(dp), complex), np.zeros(len(dp), complex)
    qb[k_core], hb[k_core], ah_beta[p_core], cross = _lattice_sums(
        n_k, eps_k, n_p, eps_p, step, gamma_1, a[k_core], b[p_core], beta[p_core], times)
    k_tail = np.r_[:k_core.start, k_core.stop:len(dk)]
    p_tail = np.r_[:p_core.start, p_core.stop:len(dp)]
    for rows, cols in ((k_tail, slice(None)), (k_core, p_tail)):
        strip = _dense_sums(dk[rows], dp[cols], gamma_1, a[rows], b[cols], beta[cols],
                            phase_k[:, :, rows], phase_p[:, :, cols])
        qb[rows] += strip[0]
        hb[rows] += strip[1]
        ah_beta[cols] += strip[2]
        on_k[rows] += strip[3]
        on_p[cols] += strip[4]
        cross += strip[5]
    return qb, hb, ah_beta, on_k, on_p, cross


def _dense_sums(dk, dp, gamma_1, a, b, beta, phase_k, phase_p):
    """_pair_sums over one block of the (k, p) grid, with q in full; the
    block's row and column sums of a (q b + h beta) are on_k and on_p."""
    x = np.add.outer(dk, dp)
    q = _q(x, gamma_1)
    qb, aq = q @ b, a @ q
    # q b + h beta = g_re + i g_im = q (u + i x beta), u = b + (gamma_1/2) beta,
    # built over x
    u = b + 0.5 * gamma_1 * beta
    g_im = x * beta.real
    g_im += u.imag
    g_im *= q
    g_re = x
    g_re *= -beta.imag
    g_re += u.real
    g_re *= q
    ones = np.ones(len(dp))
    by_k = g_re @ ones + 1j * (g_im @ ones)
    by_p = a @ g_re + 1j * (a @ g_im)
    g_re *= a[:, None]
    g_im *= a[:, None]
    return (qb, by_k - qb, by_p - aq * b, a * by_k, by_p,
            _bilinear(phase_k, g_re, g_im, phase_p))


def _bilinear(phase_k, g_re, g_im, phase_p):
    """Re sum_kp (e^{i dk t} - 1) g_kp (e^{i dp t} - 1) per time, g = g_re + i
    g_im, from the _phase arrays of the block's rows and columns.

    The longer side is summed first, by one matrix product with its phases
    per part of g, so nothing of size times x (longer side) is made.
    """
    if g_re.shape[0] > g_re.shape[1]:
        return _bilinear(phase_p, g_re.T, g_im.T, phase_k)
    cm_k, sn_k = phase_k
    n_t = len(cm_k)
    stacked = phase_p.reshape(2 * n_t, -1).T
    zr, zi = g_re @ stacked, g_im @ stacked  # [g (cos - 1)^T | g sin^T]
    z_re, z_im = zr[:, :n_t] - zi[:, n_t:], zr[:, n_t:] + zi[:, :n_t]
    return np.einsum("tk,kt->t", cm_k, z_re) - np.einsum("tk,kt->t", sn_k, z_im)


def _lattice_sums(n_k, eps_k, n_p, eps_p, step, gamma_1, a, b, beta, times):
    """_pair_sums over the lattice points of both grids (module docstring):
    one real FFT of 12 rows and one inverse of 16 give the per-k and per-p
    correlations with q, s and their derivatives, to first order in the
    offsets eps, and the convolutions of a with b and beta that cross sums
    against the lattice phases (_lattice_phases).  Returns (qb, hb,
    ah_beta, cross).
    """
    j, i = n_k - n_k[0], n_p - n_p[0]
    size = int(j[-1] + i[-1]) + 1
    # the shortest 2^n, 3 2^n, 5 2^n, 9 2^n or 15 2^n that holds the lattice
    n_fft = min(m << (-(-size // m) - 1).bit_length() for m in (1, 3, 5, 9, 15))
    x = (n_k[0] + n_p[0] + np.arange(size)) * step
    q = _q(x, gamma_1)
    s = q * x
    dq, ds = -2.0 * s * q, q - 2.0 * s * s  # d/dx of q and s
    buf = np.zeros((16, n_fft))
    buf[:4, :size] = q, s, dq, ds
    buf[4, j], buf[5, j] = a, eps_k * a
    buf[6:9, i] = b, beta.real, beta.imag
    buf[9:12, i] = eps_p * buf[6:9, i]
    spectra = np.fft.rfft(buf[:12])
    fq, fs, fdq, fds, fa, fea = spectra[:6]
    ca, cea, cb, cr, ci, ceb, cer, cei = spectra[4:].conj()
    hq = 0.5 * gamma_1
    products = np.empty((16, len(fq)), complex)
    # per k: sum_p q b, Re and Im sum_p h beta; then their parts times eps_k
    products[0] = fq * cb + fdq * ceb
    products[1] = hq * (fq * cr + fdq * cer) - fs * ci - fds * cei
    products[2] = hq * (fq * ci + fdq * cei) + fs * cr + fds * cer
    products[3] = fdq * cb
    products[4] = hq * fdq * cr - fds * ci
    products[5] = hq * fdq * ci + fds * cr
    # per p: sum_k a q and sum_k a s; then their parts times eps_p
    products[6] = fq * ca + fdq * cea
    products[7] = fs * ca + fds * cea
    products[8] = fdq * ca
    products[9] = fds * ca
    # the convolutions of a with b, Re beta and Im beta; then of the offsets' parts
    products[10:13] = fa * spectra[6:9]
    products[13:16] = fea * spectra[6:9] + fa * spectra[9:12]
    out = np.fft.irfft(products, n_fft, out=buf)
    qb, hb_re, hb_im = out[0:3, j] + eps_k * out[3:6, j]
    aq, as_ = out[6:8, i] + eps_p * out[8:10, i]
    conv, e_conv = out[10:13, :size], out[13:16, :size]
    h, dh = hq * q + 1j * s, hq * dq + 1j * ds
    # Re of sum_m (e^{i x_m t} - 1) g_m + i t e^{i x_m t} g_eps_m
    g_eps = q * e_conv[0] + h * (e_conv[1] + 1j * e_conv[2])
    g = q * conv[0] + h * (conv[1] + 1j * conv[2]) + dq * e_conv[0] + dh * (e_conv[1] + 1j * e_conv[2])
    sums = _lattice_phases(np.column_stack((g, g_eps)), n_k[0] + n_p[0], step, times)
    cross = sums[:, 0].real - times * (sums[:, 1].imag + np.sum(g_eps.imag))
    return qb, hb_re + 1j * hb_im, (hq * aq + 1j * as_) * beta, cross


def _lattice_phases(w, n_0, step, times):
    """sum_m w_m (e^{i (n_0 + m) step t} - 1) per column of w, times down the rows.

    With m = h J + l, e^{i (n_0 + m) step t} = A_h B_l for A_h = e^{i h J step
    t} and B_l = e^{i (n_0 + l) step t}, and A_h B_l - 1 = (A_h - 1) B_l +
    (B_l - 1): only times x (J + M) phases are taken, and the sum is
    exactly 0 at t = 0.
    """
    n_l = math.isqrt(len(w) - 1) + 1
    n_h = -(-len(w) // n_l)
    padded = np.zeros((n_h * n_l, w.shape[1]), complex)
    padded[:len(w)] = w
    padded = padded.reshape(n_h, n_l, -1)
    a_m1 = _phase(n_l * step * np.arange(n_h), times)
    b_m1 = _phase((n_0 + np.arange(n_l)) * step, times)
    b_m1 = b_m1[0] + 1j * b_m1[1]
    inner = (1.0 + b_m1) @ padded.transpose(1, 0, 2).reshape(n_l, -1)  # sum_l B_l w_hl
    inner = inner.reshape(len(times), n_h, -1)
    return np.einsum("th,thv->tv", a_m1[0] + 1j * a_m1[1], inner) + b_m1 @ padded.sum(axis=0)


def cascade(params: Params, times, rates=None):
    """The cascade's amplitude a, sector norms and first line at the requested times.

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
    narrow = _narrowest_width(rates)
    n_k, n_p = (2 * math.ceil(15.0 * w / (narrow / 6.0)) + 1 for w in (g0_rate + g1_rate, g0_rate))
    if n_k * n_p > MAX_GRID_POINTS:
        raise NumericsError(f"cascade at gamma_0/gamma_1 = {g0_rate / g1_rate:.9g}: the (k, p) "
                            f"grid's cores alone are K x P = {n_k} x {n_p} = {n_k * n_p:.3g} "
                            f"points, above {MAX_GRID_POINTS:.0e}")
    k_grid = emission_grid(rates.omega_1, g0_rate + g1_rate, narrow)
    p_grid = emission_grid(rates.omega_0, g0_rate, narrow)
    measure = params.impurity_norm / (2.0 * math.pi * params.density_xi)

    # Detunings, resonance denominators and the coupling prefactor A_k of
    # b_kp: the time-independent parts, shared by every sample time.
    dk = np.asarray(dispersion(k_grid)) - rates.omega_1
    dp = np.asarray(dispersion(p_grid)) - rates.omega_0
    amp_k = np.conj(g1_closed(k_grid, params)) / (1j * dk - 0.5 * (g1_rate - g0_rate))
    w_k, w_p = _trapezoid_weights(k_grid), _trapezoid_weights(p_grid)
    a_k, b_p = w_k * np.abs(amp_k) ** 2, w_p * np.abs(g0_closed(p_grid, params)) ** 2
    r_p = 1.0 / (1j * dp - 0.5 * g0_rate)  # the first line's lower-line term
    beta, lower = b_p * np.conj(r_p), b_p * np.abs(r_p) ** 2
    phase_k, phase_p = _phase(dk, times), _phase(dp, times)
    qb, hb, ah_beta, on_k, on_p, cross = _pair_sums(
        dk, dp, narrow / 6.0, g1_rate, a_k, b_p, beta, times, phase_k, phase_p)
    # the sums against e^{i dk t} - 1 and e^{i dp t} - 1: cos - 1 rows, then sin rows
    by_k = a_k * hb
    cm_k, sn_k = np.split(phase_k.reshape(-1, len(a_k)) @ np.column_stack(
        (a_k, by_k.real, by_k.imag, on_k.real, on_k.imag)), 2)
    cm_p, sn_p = np.split(phase_p.reshape(-1, len(b_p)) @ np.column_stack(
        (lower, ah_beta.real, ah_beta.imag, on_p.real, on_p.imag)), 2)
    decay_0, decay_1 = np.exp(-0.5 * g0_rate * times), np.exp(-0.5 * g1_rate * times)
    cross += cm_k[:, 3] - sn_k[:, 4] + cm_p[:, 3] - sn_p[:, 4]
    return CascadeResult(
        times=times,
        a=np.exp(-0.5 * g1_rate * times).astype(complex),
        k_grid=k_grid,
        p_grid=p_grid,
        # |b_k|^2 = |A_k|^2 |e^{(i dk - gamma_1/2) t} - e^{-gamma_0 t/2}|^2
        norm_one_phonon=measure * (
            (decay_1 - decay_0) ** 2 * np.sum(a_k) - 2.0 * decay_0 * decay_1 * cm_k[:, 0]),
        norm_two_phonon=measure ** 2 * (
            np.sum(a_k) * ((decay_0 - 1.0) ** 2 * np.sum(lower) - 2.0 * decay_0 * cm_p[:, 0])
            + (1.0 - decay_1) ** 2 * (a_k @ qb)
            - 2.0 * (decay_0 * (cm_p[:, 1] + sn_p[:, 2]) + (decay_0 - 1.0) * np.sum(ah_beta.real))
            + 2.0 * decay_1 * (decay_0 * (cm_k[:, 1] - sn_k[:, 2])
                               + (decay_0 - 1.0) * np.sum(by_k.real) - cross)
        ),
        # b_kp(inf) = A_k B_p (M_kp - r_p): |M - r_p|^2 = q + 2 Re(h conj(r_p)) + |r_p|^2
        first_line=measure * np.abs(amp_k) ** 2 * (qb + 2.0 * hb.real + np.sum(lower)),
    )
