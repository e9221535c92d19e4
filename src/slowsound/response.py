"""Acoustic response of the soliton-trapped qutrit array.

A dilute line of dark solitons (concentration N xi per healing length,
one impurity qutrit per soliton) dresses a weak probe phonon at carrier
wavevector k0 resonant with the lower transition.  Averaging the
qutrits' probe coherence over the gas gives the acoustic susceptibility

    chi(Delta_p) = i (N xi) |g0(k0)|^2 / (eps(k0) D(Delta_p))

with D the dressed denominator of the weak-probe coherence.  Everything
observable follows from chi: absorption Im chi, refraction Re chi, the
acoustic index n = sqrt(1 + chi), the group velocity

    v_g = u / (1 + Re chi / 2 + (omega_p / 2) d Re chi / d omega_p)

(u = eps(k0)/k0 the carrier phase velocity; at the transparency point
Re chi = 0 so the carrier-velocity choice does not move v_g), and pulse
propagation through the transfer phase k0 chi(Delta) x / 2 on top of
advection at u.

chi is the weak-probe closed form, and so is d chi / d Delta_p, exact on
any grid.  The full 9x9 Lindblad steady state (bloch) is the independent
check: validate and the tests compare its probe coherence with
weak_probe_coherences directly, and a central difference of it at the
window centre checks the slope.  Params is the only physics input: each
sweep resolves its rates, drive and carrier once (decay_rates, which
also returns k0 and |g0(k0)|^2), so a scan is
susceptibility_curve(replace(params, ...)).  No rate depends on the
drive, so a scan of the control alone resolves the rates once and sweeps
each control through susceptibility_at_rates.  Each observable is one
function of the SusceptibilityCurve it reads, which keeps the params it
was built from: group_velocity_curve(curve), dispersion_curve(curve) and
propagate_envelope(curve, distance), which reads v_g(0) off the curve
and chi on its FFT grid at the curve's params and rates.

The default sweep spans +-max(20 gamma_0, 3 Omega_c) on a grid sized by
the poles and zero of chi: dense across the transparency window and the
dressed lines near +-Omega_c/2, graded geometrically between and beyond
them (379 points at REFERENCE, at most 4 001 for any drive).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bloch import DriveConfig, drive_from_params, weak_probe_coherences, weak_probe_denominator
from .bogoliubov import dispersion
from .decay import DecayRates, decay_rates
from .numerics import fft, ifft
from .params import ConfigError, Params

__all__ = [
    "SusceptibilityCurve",
    "susceptibility_curve",
    "susceptibility_at_rates",
    "TransparencyWindow",
    "NoTransparency",
    "level_width",
    "transparency_width",
    "GroupVelocityCurve",
    "group_velocity_curve",
    "DispersionCurve",
    "dispersion_curve",
    "PulseReport",
    "OpaqueMedium",
    "propagate_envelope",
]

SOUND_SPEED = math.sqrt(2.0)  # reduced phonon slope


@dataclass
class SusceptibilityCurve:
    """chi sampled over probe detunings, with the carrier bookkeeping and
    the params and rates it was built from."""

    detunings: np.ndarray
    chi: np.ndarray
    carrier_energy: float
    carrier_velocity: float  # eps(k0)/k0
    drive: DriveConfig
    rates: DecayRates
    params: Params

    @property
    def absorption(self):
        return np.imag(self.chi)

    @property
    def refraction(self):
        return np.real(self.chi)

    @property
    def center(self):
        """Index of the sample nearest Delta = 0 (a default sweep holds 0 exactly)."""
        return int(np.argmin(np.abs(self.detunings)))


# Default-grid step as a fraction of the distance to the nearest pole or
# zero of chi: about 20 points per half width at each feature.
_GRID_RESOLUTION = 1.0 / 20.0


def _features(rates: DecayRates, drive: DriveConfig):
    """Complex detunings of the poles and zero of chi, the sweep's features.

    chi is proportional to 1/D.  Tracking the control (dlt = Delta), D = 0
    is a quadratic whose roots are the dressed lines: a pair near
    +-Omega_c/2, half width (gamma_0 + gamma_1)/4, once the control
    exceeds |gamma_0 - gamma_1|/2, and two lines at zero below that.  The
    pole of D at -i gamma_1/2 is the zero of chi at the centre of the
    transparency window.  With the two-photon detuning pinned, D is linear
    and chi one power-broadened line.  The bare probe line, half width
    gamma_0/2, is added in both cases, so that a weaker control's chi on
    the same grid is resolved too.
    """
    g0, g1, oc = rates.gamma_0, rates.gamma_1, drive.control_rabi
    bare = -0.5j * g0
    if drive.delta_mode == "fixed":
        return [-0.5j * (g0 + oc**2 / g1), bare]
    split = np.sqrt(complex(0.25 * (g0 - g1) ** 2 - oc**2))
    return [
        0.5j * (split - 0.5 * (g0 + g1)),
        -0.5j * (split + 0.5 * (g0 + g1)),
        -0.5j * g1,
        bare,
    ]


def _default_detunings(rates: DecayRates, drive: DriveConfig):
    """Symmetric detuning grid over +-max(20 gamma_0, 3 Omega_c), sized by chi.

    The step at Delta is _GRID_RESOLUTION times the distance from Delta to
    the nearest feature of chi in the complex plane (_features): uniform
    across each line and across the transparency window, and growing
    geometrically away from them, like the core and tails of
    decay.emission_grid.  Delta = 0 and both ends are grid points.

    The floor on the step bounds the grid whatever the line widths: each
    of at most four features adds no more than
    (1 + r)(2/r)(1 + ln(r span/floor)) < 500 steps to a side (r the
    resolution), so the grid never exceeds 4 001 points.  The floor binds
    only where a feature is narrower than 2e-5 span: at REFERENCE, above a
    control of about 2 500 gamma_0.  The loop runs in units of a power of
    two near the span, so squared widths cannot underflow, and with squares
    taken as products that scaling is exact.

    The loop runs over two features.  On Delta >= 0 a feature is never
    nearer than one with the same |Re|, a Re not smaller and an Im^2 not
    larger, nor is it in floating point, as rounding is monotone.  So of
    each (Re, Im^2), counted once, only those that none dominates are
    kept: the right dressed pole and the narrower line on the imaginary
    axis, a lone one padded with a repeat.  The nearest squared distance
    is then the value min() takes over all, and the step is taken as
    max(floor, step) takes it.
    """
    span = max(20.0 * rates.gamma_0, 3.0 * drive.control_rabi)
    unit = 2.0 ** math.frexp(span)[1]
    span /= unit
    features = [(f.real / unit, f.imag / unit) for f in _features(rates, drive)]
    pairs = {(r, i * i) for r, i in features}
    kept = [(r, q) for r, q in pairs if not any(
        abs(r2) == abs(r) and r2 >= r and q2 <= q for r2, q2 in pairs - {(r, q)})]
    (r0, q0), (r1, q1) = kept if len(kept) == 2 else kept * 2
    floor = 1e-6 * span
    resolution, sqrt = _GRID_RESOLUTION, math.sqrt
    side = []
    append = side.append
    x = 0.0
    while True:
        d = x - r0
        nearest = d * d + q0
        d = x - r1
        d = d * d + q1
        if d < nearest:
            nearest = d
        step = resolution * sqrt(nearest)
        if not step > floor:
            step = floor
        # the last step may stretch to 1.5 steps rather than leave a sliver
        if x + 1.5 * step >= span:
            break
        x += step
        append(x)
    side.append(span)
    side = unit * np.asarray(side)
    return np.concatenate([-side[::-1], [0.0], side])


def susceptibility_curve(params: Params, detunings=None):
    """Sweep the weak-probe chi over probe detunings.

    The decay rates are the golden-rule rates of the printed couplings
    (decay_rates), the ones cascade uses: gamma_0 and gamma_1 in the
    denominator and |g0(k0)|^2 in the prefactor then come from one
    coupling.  They equal the closed-form rates (gamma_closed) to
    rounding.  The drive follows from params and gamma_0
    (drive_from_params), and parameters outside the qutrit window raise
    ConfigError from decay_rates.
    """
    return susceptibility_at_rates(params, decay_rates(params), detunings)


def susceptibility_at_rates(params: Params, rates: DecayRates, detunings=None):
    """susceptibility_curve at params, over rates already resolved for them.

    rates must be decay_rates of params, or of parameters that differ from
    params only in the drive: no rate depends on the control or the probe,
    so a control scan resolves its rates once and sweeps each
    replace(params, control_rabi_gamma0=...) here.  The carrier comes
    from the rates.  chi is the array of weak_probe_coherences, scaled in
    place, so a sweep allocates one complex array that it keeps.
    """
    drive = drive_from_params(params, rates)
    if detunings is None:
        detunings = _default_detunings(rates, drive)
    detunings = np.asarray(detunings, dtype=float)
    k0 = rates.carrier_k
    eps0 = float(dispersion(k0))
    prefactor = params.soliton_concentration * rates.carrier_coupling / eps0
    chi = weak_probe_coherences(rates, drive, detunings)
    chi *= prefactor
    chi /= drive.probe_rabi
    return SusceptibilityCurve(
        detunings=detunings,
        chi=chi,
        carrier_energy=eps0,
        carrier_velocity=eps0 / k0,
        drive=drive,
        rates=rates,
        params=params,
    )


@dataclass(frozen=True)
class TransparencyWindow:
    """Half-depth width of the absorption dip between the dressed lines."""

    width: float
    dip_detuning: float
    dip_absorption: float
    peak_left: float
    peak_right: float


@dataclass(frozen=True)
class NoTransparency:
    reason: str


def level_width(x, y, i, level):
    """Width between the first crossings of level on either side of sample i.

    Walks outward from y[i] while y stays on its side of level and
    interpolates linearly across the interval where it crosses: with
    level = y[i]/2 at a peak this is the full width at half maximum, with
    level halfway up from a dip the half-depth width.  A side that never
    crosses ends on the grid's last interval.
    """
    side = 1.0 if y[i] > level else -1.0

    def crossing(step):
        j = i
        while 0 < j < len(y) - 1 and (y[j] - level) * side > 0:
            j += step
        lo, hi = sorted((j, j - step))
        frac = (level - y[lo]) / (y[hi] - y[lo]) if y[hi] != y[lo] else 0.5
        return x[lo] + frac * (x[hi] - x[lo])

    return crossing(+1) - crossing(-1)


def transparency_width(curve: SusceptibilityCurve):
    """Locate the central absorption dip and measure its half-depth width.

    Transparency means the dip removes at least half of the flanking
    absorption; with the tracking two-photon convention an arbitrarily
    weak control already cuts a perturbative notch of depth
    1/(1 + control^2/(gamma_0 gamma_1)) at zero detuning, so the
    half-peak gate places the onset at the usual control ~
    sqrt(gamma_0 gamma_1) threshold.  Returns NoTransparency for a
    single central maximum (no control tone, or the pinned two-photon
    convention, which power-broadens the line without splitting it)
    and for sub-threshold notches.
    """
    a = curve.absorption
    d = curve.detunings
    ic = curve.center
    if ic == 0 or ic == len(d) - 1:
        return NoTransparency("detuning grid does not bracket zero")
    left_peak = float(np.max(a[:ic]))
    right_peak = float(np.max(a[ic + 1 :]))
    dip = float(a[ic])
    if dip >= 0.99 * min(left_peak, right_peak):
        return NoTransparency(
            "absorption is maximal at zero detuning: no induced transparency"
        )
    if dip >= 0.5 * min(left_peak, right_peak):
        return NoTransparency(
            "central notch does not reach half the flanking absorption: "
            "control below the transparency threshold"
        )
    level = 0.5 * (dip + min(left_peak, right_peak))
    return TransparencyWindow(
        width=float(level_width(d, a, ic, level)),
        dip_detuning=float(d[ic]),
        dip_absorption=dip,
        peak_left=left_peak,
        peak_right=right_peak,
    )


@dataclass
class GroupVelocityCurve:
    """v_g across the probe line, from the closed-form refraction slope.

    refraction_slope is d Re chi / d Delta in closed form, exact at every
    detuning (_chi_slope).  vg_over_cs is nan wherever the dispersion
    denominator is not positive (steep anomalous dispersion near the
    absorption peaks, where a group velocity is not meaningful); flagged
    counts them.
    """

    detunings: np.ndarray
    vg_over_cs: np.ndarray
    refraction_slope: np.ndarray
    curve: SusceptibilityCurve
    flagged: int

    @property
    def at_center(self):
        return float(self.vg_over_cs[self.curve.center])


def _chi_slope(curve: SusceptibilityCurve):
    """d chi / d Delta of a sweep, in closed form.

    chi is proportional to 1/D, the weak-probe denominator, so
    chi' = -chi D'/D with D and D' from bloch.weak_probe_denominator.
    """
    denom, d_denom = weak_probe_denominator(curve.rates, curve.drive, curve.detunings)
    return -curve.chi * d_denom / denom


def group_velocity_curve(curve: SusceptibilityCurve):
    """Group velocity over a sweep, from the closed slope of Re chi."""
    d = curve.detunings
    slope = np.real(_chi_slope(curve))
    omega_p = curve.rates.omega_0 + d
    denom = 1.0 + 0.5 * curve.refraction + 0.5 * omega_p * slope
    vg = np.full_like(denom, np.nan)
    ok = denom > 1e-12
    vg[ok] = (curve.carrier_velocity / SOUND_SPEED) / denom[ok]
    return GroupVelocityCurve(
        detunings=d,
        vg_over_cs=vg,
        refraction_slope=slope,
        curve=curve,
        flagged=int(np.sum(~ok)),
    )


@dataclass
class DispersionCurve:
    """Probe wavenumber q(omega_p) = (omega_p/u) Re n against the free line."""

    omega_p: np.ndarray
    q: np.ndarray
    q_free: np.ndarray
    curve: SusceptibilityCurve


def dispersion_curve(curve: SusceptibilityCurve):
    """Dressed probe wavenumber over a sweep."""
    omega_p = curve.rates.omega_0 + curve.detunings
    q_free = omega_p / curve.carrier_velocity
    q = q_free * np.real(np.sqrt(1.0 + curve.chi))
    return DispersionCurve(omega_p=omega_p, q=q, q_free=q_free, curve=curve)


@dataclass
class PulseReport:
    """Outcome of sending a Gaussian probe envelope across the gas.

    Delays are quoted in the frame co-moving at the carrier velocity u:
    measured_delay is the peak shift beyond the free transit x/u, and
    predicted_delay = x/v_g - x/u from the group-velocity formula at the
    transparency point.  Total arrival time = free_transit + delay.
    """

    distance: float
    bandwidth: float
    transparency: TransparencyWindow
    measured_delay: float
    predicted_delay: float
    free_transit: float
    transmitted_fraction: float
    vg_over_cs_center: float
    times: np.ndarray
    envelope_in: np.ndarray
    envelope_out: np.ndarray
    bandwidth_warning: bool

    @property
    def relative_delay_error(self):
        return abs(self.measured_delay - self.predicted_delay) / self.predicted_delay


# Time samples of the pulse, a power of two for the FFT.
_PULSE_SAMPLES = 4096


class OpaqueMedium(ConfigError):
    """propagate_envelope's refusal: the medium has no transparency window."""


def propagate_envelope(curve: SusceptibilityCurve, distance, window_fraction=0.1):
    """Propagate a Gaussian probe pulse a given distance through the gas.

    A carrier-frame envelope component A(Delta) e^{-i Delta t} acquires
    the transfer factor exp(i k0 chi(Delta) x / 2) over distance x (the
    first-order expansion of the index; advection at u is removed by
    working in the co-moving frame, where it is an exact time shift).
    With the e^{-i Delta t} convention the decomposition amplitudes are
    numpy's inverse FFT of the time samples and the synthesis is the
    forward FFT, and Im chi > 0 attenuates — the passivity check.

    The bandwidth, the full width at half maximum of the spectral
    intensity, is window_fraction of the transparency width.  Pulses
    wider than a third of the window are flagged (absorption at the
    window edges visibly distorts the envelope).  The measured delay
    is the quadratically interpolated peak shift of |envelope|^2.

    curve is the sweep the pulse reads: its transparency window, v_g at
    its detuning nearest zero (the default grid holds zero), and its
    params and rates, at which chi is re-evaluated on the FFT grid.
    Raises ValueError unless distance and window_fraction are finite and
    positive, and OpaqueMedium (a ConfigError) when the medium has no
    transparency window to carry the pulse.
    """
    for name, value in (("distance", distance), ("window_fraction", window_fraction)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    window = transparency_width(curve)
    if isinstance(window, NoTransparency):
        raise OpaqueMedium(f"cannot propagate through opaque medium: {window.reason}")
    bandwidth = window_fraction * window.width
    warn = bandwidth > window.width / 3.0

    # v_g at the centre from the sweep (the default grid holds Delta = 0),
    # and chi on the FFT grid at the sweep's params and rates
    vg_center = group_velocity_curve(curve).at_center
    u = curve.carrier_velocity
    free_transit = distance / u
    predicted = distance / (vg_center * SOUND_SPEED) - free_transit

    # Gaussian with spectral intensity FWHM = bandwidth.
    sigma_t = 2.0 * math.sqrt(math.log(2.0)) / bandwidth
    span = 2.0 * (abs(predicted) + 10.0 * sigma_t)
    dt = span / _PULSE_SAMPLES
    t = dt * (np.arange(_PULSE_SAMPLES) - _PULSE_SAMPLES // 4)  # input peak at t = 0
    envelope_in = np.exp(-0.5 * (t / sigma_t) ** 2)

    freqs = 2.0 * math.pi * np.fft.fftfreq(_PULSE_SAMPLES, d=dt)
    chi_f = susceptibility_at_rates(curve.params, curve.rates, freqs).chi
    transfer = np.exp(0.5j * curve.rates.carrier_k * chi_f * distance)
    envelope_out = fft(ifft(envelope_in) * transfer)

    def peak_time(env):
        p = np.abs(env) ** 2
        i = int(np.argmax(p))
        if i == 0 or i == len(p) - 1:
            return t[i]
        y0, y1, y2 = p[i - 1], p[i], p[i + 1]
        denom = y0 - 2.0 * y1 + y2
        offset = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        return t[i] + offset * dt

    measured = peak_time(envelope_out) - peak_time(envelope_in)
    energy_in = float(np.sum(np.abs(envelope_in) ** 2))
    energy_out = float(np.sum(np.abs(envelope_out) ** 2))
    return PulseReport(
        distance=distance,
        bandwidth=bandwidth,
        transparency=window,
        measured_delay=float(measured),
        predicted_delay=float(predicted),
        free_transit=free_transit,
        transmitted_fraction=energy_out / energy_in,
        vg_over_cs_center=vg_center,
        times=t,
        envelope_in=envelope_in.astype(complex),
        envelope_out=envelope_out,
        bandwidth_warning=warn,
    )
