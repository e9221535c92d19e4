"""Acoustic susceptibility, transparency window, slow group velocity, pulses."""

import inspect
from dataclasses import replace

import numpy as np
import pytest

from slowsound import coupling, response, scenarios
from slowsound.bloch import drive_from_params, steady_state_lindblad, weak_probe_coherences
from slowsound.decay import decay_rates
from slowsound.numerics import hilbert_transform
from slowsound.output import OutputSink
from slowsound.params import REFERENCE
from slowsound.qutrit import qutrit_window_in_coupling_ratio
from slowsound.response import (
    NoTransparency,
    SusceptibilityCurve,
    TransparencyWindow,
    dispersion_curve,
    group_velocity_curve,
    level_width,
    propagate_envelope,
    susceptibility_at_rates,
    susceptibility_curve,
    transparency_width,
)

RATES = decay_rates(REFERENCE)
DRIVE = drive_from_params(REFERENCE, RATES)


def at_control(control_over_gamma0, delta_mode=REFERENCE.delta_mode):
    return replace(REFERENCE, control_rabi_gamma0=control_over_gamma0, delta_mode=delta_mode)


# -- the response layer's inputs ----------------------------------------------

@pytest.mark.parametrize("params", [REFERENCE], ids=["closed"])
def test_sweeps_use_the_golden_rule_rates_of_the_coupling_mode(params):
    curve = susceptibility_curve(params, detunings=np.array([0.0]))
    assert curve.rates == decay_rates(params)
    assert curve.drive == drive_from_params(params, curve.rates)


def test_params_is_the_only_physics_input():
    for fn in (susceptibility_curve, group_velocity_curve, dispersion_curve, propagate_envelope):
        names = inspect.signature(fn).parameters
        assert "rates" not in names and "drive" not in names, fn.__name__
    for fn in (decay_rates, susceptibility_curve, group_velocity_curve):
        assert "route" not in inspect.signature(fn).parameters, fn.__name__
    # each observable reads the sweep it is handed, and nothing else physical
    for fn in (group_velocity_curve, dispersion_curve, propagate_envelope):
        parameters = inspect.signature(fn).parameters
        assert next(iter(parameters.values())).annotation is SusceptibilityCurve, fn.__name__
        assert "params" not in parameters, fn.__name__
    # and the scenarios reach the response layer through its public names only
    private = [name for name, value in vars(scenarios).items()
               if name.startswith("_") and getattr(value, "__module__", None) == response.__name__]
    assert private == []


@pytest.mark.parametrize("params", [REFERENCE], ids=["closed"])
def test_one_pulse_resolves_the_rates_once(params, monkeypatch):
    """v_g at the centre and chi on the FFT grid are read at the rates of
    the base sweep: one decay_rates call, on the printed couplings, and no
    overlap integral (the oracle is not on the chain's path)."""
    calls = {"decay_rates": 0, "g_quadrature": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(response, "decay_rates")
    counted(coupling, "g_quadrature")
    propagate_envelope(susceptibility_curve(params), distance=params.box_length_xi)
    assert calls == {"decay_rates": 1, "g_quadrature": 0}


# -- susceptibility ---------------------------------------------------------

def test_absorption_nonnegative():
    curve = susceptibility_curve(REFERENCE)
    assert np.all(curve.absorption >= -1e-12)


def test_routes_agree_at_spot_detunings():
    dets = np.array([-2.0, -0.3, 0.0, 0.4, 1.7]) * RATES.gamma_0
    analytic = weak_probe_coherences(RATES, DRIVE, dets)
    lind = steady_state_lindblad(RATES, DRIVE, dets)[:, 1, 0]
    for full, a in zip(lind, analytic):
        assert full == pytest.approx(a, rel=0.01)


def test_transparency_gate_sequence():
    """Vanishing control (1e-6 gamma_0; Params rejects 0): single line.
    Sub-threshold control: a notch that does not count as transparency.
    Strong control: a real window whose dip sits at two-photon resonance."""
    no_control = transparency_width(susceptibility_curve(at_control(1e-6)))
    assert isinstance(no_control, NoTransparency)

    weak = transparency_width(susceptibility_curve(at_control(0.2)))
    assert isinstance(weak, NoTransparency)

    strong = transparency_width(susceptibility_curve(at_control(2.0)))
    assert isinstance(strong, TransparencyWindow)
    assert strong.width > 0
    assert abs(strong.dip_detuning) < 0.2 * RATES.gamma_0
    assert strong.dip_absorption < 0.5 * min(strong.peak_left, strong.peak_right)


@pytest.mark.parametrize("shape", ["peak", "dip"])
def test_level_width_of_sampled_lorentzian(shape):
    # a Lorentzian of half width g crosses half its height (or half its
    # depth) at +-g; linear interpolation misplaces each crossing by at
    # most (h^2/8)|y''/y'| = h^2/(8 g) there
    g, h = 0.7, 0.05
    x = -20.0 + 0.013 + h * np.arange(800)  # offset: no sample on a crossing
    lorentz = 1.0 / (1.0 + (x / g) ** 2)
    centre = int(np.argmin(np.abs(x)))
    if shape == "peak":
        width = level_width(x, lorentz, centre, 0.5)
    else:
        width = level_width(x, 1.0 - 0.9 * lorentz, centre, 1.0 - 0.45)
    assert abs(width - 2.0 * g) <= 1.01 * h**2 / (4.0 * g)
    assert width != 2.0 * g


def test_transparency_threshold_is_geometric_mean():
    """The half-peak gate puts the dip onset at sqrt(gamma_0 gamma_1)."""
    threshold = np.sqrt(RATES.gamma_0 * RATES.gamma_1) / RATES.gamma_0
    below = transparency_width(susceptibility_curve(at_control(0.8 * threshold)))
    above = transparency_width(susceptibility_curve(at_control(1.25 * threshold)))
    assert isinstance(below, NoTransparency)
    assert isinstance(above, TransparencyWindow)


def test_window_width_grows_with_control():
    w2 = transparency_width(susceptibility_curve(at_control(2.0)))
    w4 = transparency_width(susceptibility_curve(at_control(4.0)))
    assert w4.width > w2.width


def test_autler_townes_separation():
    strong = at_control(10.0 * RATES.gamma_1 / RATES.gamma_0)
    dets = np.linspace(-30.0 * RATES.gamma_1, 30.0 * RATES.gamma_1, 4001)
    curve = susceptibility_curve(strong, detunings=dets)
    control = curve.drive.control_rabi
    a = curve.absorption
    ic = len(dets) // 2
    left = int(np.argmax(a[:ic]))
    right = ic + 1 + int(np.argmax(a[ic + 1 :]))
    separation = dets[right] - dets[left]
    assert separation == pytest.approx(control, rel=0.10)


def test_strong_control_suppresses_central_absorption():
    weak = susceptibility_curve(at_control(0.2), detunings=np.array([0.0]))
    strong = susceptibility_curve(at_control(2.0), detunings=np.array([0.0]))
    assert strong.absorption[0] < 0.5 * weak.absorption[0]


def test_kramers_kronig_on_wide_grid():
    """Causality pairing: -H[Im chi] rebuilds Re chi on the central band."""
    span = max(20.0 * RATES.gamma_0, 3.0 * DRIVE.control_rabi)
    n = 1 << 15
    grid = 15.0 * span * (2.0 * np.arange(n) / n - 1.0)
    curve = susceptibility_curve(REFERENCE, detunings=grid)
    re_rec = -hilbert_transform(curve.absorption)
    core = np.abs(grid) <= span
    rms = np.sqrt(np.mean((re_rec[core] - curve.refraction[core]) ** 2))
    assert rms < 0.05 * np.sqrt(np.mean(curve.refraction[core] ** 2))


# -- group velocity and dispersion -------------------------------------------

def test_group_velocity_slow_at_center_fast_at_edges():
    gv = group_velocity_curve(susceptibility_curve(REFERENCE))
    ic = int(np.argmin(np.abs(gv.detunings)))
    center = gv.vg_over_cs[ic]
    edges = 0.5 * (gv.vg_over_cs[0] + gv.vg_over_cs[-1])
    assert 0.0 < center < 0.15
    assert edges > 4.0 * center


def test_group_velocity_matches_refraction_slope():
    """v_g comes from the refraction derivative; check one point by a
    finite difference of the susceptibility itself."""
    gv = group_velocity_curve(susceptibility_curve(REFERENCE))
    ic = int(np.argmin(np.abs(gv.detunings)))
    h = 1e-3 * RATES.gamma_0
    dets = np.array([-h, h])
    curve = susceptibility_curve(REFERENCE, detunings=dets)
    slope = (curve.refraction[1] - curve.refraction[0]) / (2.0 * h)
    assert gv.refraction_slope[ic] == pytest.approx(slope, rel=1e-3)


def test_flagged_counts_the_nan_points():
    # vg is nan where anomalous dispersion makes it meaningless; the
    # flagged field is the tally of those points.  A share of points means
    # a share of the sweep only on a uniform grid: this one has step
    # gamma_0/50 over +-20 gamma_0.
    uniform = RATES.gamma_0 / 50.0 * np.arange(-1000, 1001)
    gv = group_velocity_curve(susceptibility_curve(REFERENCE, detunings=uniform))
    n_nan = int(np.sum(~np.isfinite(gv.vg_over_cs)))
    assert gv.flagged == n_nan
    assert n_nan < 0.1 * len(gv.detunings)


def test_flagged_share_of_the_default_sweep():
    # the default grid crowds points onto the dressed lines, where the
    # flagged band lies, so the share is weighted by detuning span
    gv = group_velocity_curve(susceptibility_curve(REFERENCE))
    d = gv.detunings
    weights = np.zeros_like(d)
    weights[1:] += 0.5 * np.diff(d)
    weights[:-1] += 0.5 * np.diff(d)
    flagged = ~np.isfinite(gv.vg_over_cs)
    assert gv.flagged == int(np.sum(flagged)) > 0
    assert np.sum(weights[flagged]) < 0.1 * np.sum(weights)


@pytest.mark.parametrize("mode", ["track", "fixed"])
@pytest.mark.parametrize("control_over_gamma0", [0.5, REFERENCE.control_rabi_gamma0, 20.0, 100.0])
def test_closed_slope_matches_central_differences(mode, control_over_gamma0):
    """The closed-form d Re chi / d Delta against central differences of
    chi on a uniform stencil of step 1e-5 gamma_0 about every default
    sweep point; the stencil's truncation error is (h / line width)^2."""
    params = at_control(control_over_gamma0, mode)
    gv = group_velocity_curve(susceptibility_curve(params))
    h = 1e-5 * RATES.gamma_0
    stencil = np.concatenate([gv.detunings - h, gv.detunings + h])
    re_chi = susceptibility_curve(params, detunings=stencil).refraction.reshape(2, -1)
    central = (re_chi[1] - re_chi[0]) / (2.0 * h)
    scale = np.max(np.abs(central))
    np.testing.assert_allclose(gv.refraction_slope, central, rtol=1e-8, atol=1e-8 * scale)


def test_lindblad_centre_slope_matches_closed_slope():
    """The full master equation checks the closed slope: a central
    difference of the Lindblad probe coherence, step gamma_0/50, about the
    window centre, in units of chi, agrees with the closed form there to
    1%.  chi is a real multiple of the weak-probe coherence."""
    h = RATES.gamma_0 / 50.0
    gv = group_velocity_curve(susceptibility_curve(REFERENCE, detunings=[0.0]))
    chi_per_coherence = gv.curve.chi[0] / weak_probe_coherences(RATES, DRIVE, [0.0])[0]
    lind = steady_state_lindblad(RATES, DRIVE, [-h, h])[:, 1, 0]
    central = np.real(chi_per_coherence * (lind[1] - lind[0])) / (2.0 * h)
    assert central == pytest.approx(gv.refraction_slope[0], rel=0.01)


@pytest.mark.parametrize("mode", ["track", "fixed"])
def test_default_grid_shape(mode):
    """Over controls 0.1-100 gamma_0: strictly increasing, symmetric, holds
    zero, keeps the ends +-max(20 gamma_0, 3 control), at most 4 001 points.
    A control of 1e9 gamma_0 makes the dressed lines narrow enough against
    the span for the step floor to bind."""
    for control_over_gamma0 in [*np.geomspace(0.1, 100.0, 13), 1e9]:
        control = control_over_gamma0 * RATES.gamma_0
        d = susceptibility_curve(at_control(control_over_gamma0, mode)).detunings
        span = max(20.0 * RATES.gamma_0, 3.0 * control)
        assert np.all(np.diff(d) > 0)
        assert np.array_equal(d, -d[::-1])
        assert 0.0 in d
        assert d[0] == -span and d[-1] == span
        assert len(d) <= 4001


@pytest.mark.parametrize("mode", ["track", "fixed"])
def test_default_sweeps_center_on_zero_detuning(mode):
    """center is the sample at Delta = 0 over controls 0.1-100 gamma_0 at
    five points across the qutrit window, and the only sample where
    dispersion's omega_p - omega_0 is zero."""
    lo, hi = qutrit_window_in_coupling_ratio(REFERENCE.mass_ratio)
    for ratio in np.linspace(lo, hi, 7)[1:-1]:
        params = replace(REFERENCE, coupling_ratio=float(ratio), delta_mode=mode)
        rates = decay_rates(params)
        for control in np.geomspace(0.1, 100.0, 7):
            curve = susceptibility_at_rates(replace(params, control_rabi_gamma0=control), rates)
            assert curve.detunings[curve.center] == 0.0
            offsets = (rates.omega_0 + curve.detunings) - rates.omega_0
            assert np.flatnonzero(offsets == 0.0).tolist() == [curve.center]


def test_center_is_the_nearest_sample_of_a_grid_without_zero():
    """On a user grid that misses Delta = 0, center is the nearest sample,
    and the transparency window and v_g(0) both read it."""
    step = 40.0 * RATES.gamma_0 / 400
    d = np.arange(-200, 200) * step + 0.3 * step
    curve = susceptibility_curve(at_control(2.0), d)
    assert 0.0 not in d
    assert curve.center == 200 and abs(d[200]) < abs(d[199])
    window = transparency_width(curve)
    assert window.dip_detuning == d[curve.center]
    assert window.dip_absorption == curve.absorption[curve.center]
    gv = group_velocity_curve(curve)
    assert gv.at_center == gv.vg_over_cs[curve.center]


def test_susceptibility_writes_chi_at_the_center(tmp_path):
    """The chi(0) values in susceptibility.json are those of each sweep's
    center sample."""
    with OutputSink(str(tmp_path), ("json",)) as sink:
        summary = scenarios.scenario_susceptibility(REFERENCE, sink)
    curve = susceptibility_curve(REFERENCE)
    assert summary["chi_at_zero"] == {"re": curve.chi[curve.center].real,
                                      "im": curve.chi[curve.center].imag}
    contrast = summary["contrast_weak_vs_strong_control"]
    for key, control in (("im_chi0_control_0p2_gamma0", 0.2), ("im_chi0_control_2_gamma0", 2.0)):
        sweep = susceptibility_at_rates(at_control(control), curve.rates)
        assert contrast[key] == sweep.absorption[sweep.center]


def test_default_grid_bounded_when_line_widths_underflow():
    """At density_xi = 1e200 the line widths (~5e-202) square below the
    smallest double; the grid keeps its 4 001-point bound."""
    params = replace(REFERENCE, density_xi=1e200)
    rates = decay_rates(params)
    d = response._default_detunings(rates, drive_from_params(params, rates))
    assert np.all(np.diff(d) > 0)
    assert len(d) <= 4001


def test_dispersion_branches_merge_at_edges():
    dc = dispersion_curve(susceptibility_curve(REFERENCE))
    for idx in (0, -1):
        assert dc.q[idx] == pytest.approx(dc.q_free[idx], rel=0.01)
    # inside the window the dressed branch departs from the free one
    ic = int(np.argmin(np.abs(dc.omega_p - np.median(dc.omega_p))))
    window = slice(ic - 20, ic + 20)
    assert np.max(np.abs(dc.q[window] - dc.q_free[window])) > 1e-6


# -- pulse propagation --------------------------------------------------------

def test_pulse_delay_matches_analytic_group_velocity():
    rep = propagate_envelope(susceptibility_curve(REFERENCE), distance=REFERENCE.box_length_xi)
    assert rep.measured_delay == pytest.approx(rep.predicted_delay, rel=0.10)
    assert 0.0 < rep.transmitted_fraction <= 1.0
    assert not rep.bandwidth_warning


def test_pulse_delay_converges_with_narrowing_band():
    err = []
    curve = susceptibility_curve(REFERENCE)
    for frac in (0.1, 0.02):
        rep = propagate_envelope(curve, distance=REFERENCE.box_length_xi, window_fraction=frac)
        err.append(abs(rep.measured_delay - rep.predicted_delay) / rep.predicted_delay)
    assert err[1] < err[0]
    assert err[1] < 0.02


def test_pulse_is_actually_slow():
    rep = propagate_envelope(susceptibility_curve(REFERENCE), distance=REFERENCE.box_length_xi)
    # the medium transit must exceed the free transit by an order of magnitude
    assert rep.measured_delay > 5.0 * rep.free_transit


def test_wideband_pulse_warns():
    rep = propagate_envelope(susceptibility_curve(REFERENCE), distance=20.0, window_fraction=0.5)
    assert rep.bandwidth_warning


@pytest.mark.parametrize("fraction", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
def test_pulse_rejects_nonpositive_window_fraction(fraction):
    with pytest.raises(ValueError, match="window_fraction"):
        propagate_envelope(susceptibility_curve(REFERENCE), distance=20.0, window_fraction=fraction)


@pytest.mark.parametrize("distance", [0.0, -20.0, float("nan"), float("inf"), float("-inf")])
def test_pulse_rejects_nonpositive_distance(distance):
    with pytest.raises(ValueError, match="distance"):
        propagate_envelope(susceptibility_curve(REFERENCE), distance=distance)
