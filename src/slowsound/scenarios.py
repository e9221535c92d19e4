"""Scenario catalogue: the named runs behind the command line.

Each scenario computes one physics deliverable, writes its tables and
figures through an OutputSink, and returns a JSON-ready summary dict.
The CLI owns argument parsing, exit codes and the manifest, and hands
each scenario a sink that writes only the selected formats; the
functions here own the physics and the file contents.

Every scenario is deterministic for a fixed parameter set: sweep grids
are hard-coded or derived from the parameters, iteration orders are
fixed, and nothing in the package draws random numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np

from slowsound.bloch import (
    drive_from_params,
    evolve_master_equation,
    ground_projector,
    steady_state_lindblad,
    trace_distance,
    weak_probe_coherences,
)
from slowsound.bogoliubov import dispersion, resonant_wavevector
from slowsound.cli import SCENARIO_NAMES
from slowsound.coupling import g0_closed, g1_closed, g_quadrature, g_quadratures
from slowsound.decay import cascade, decay_rates, gamma_closed
from slowsound.gpe import frozen_well, well_eigenstates
from slowsound.numerics import NumericsError, hilbert_transform
from slowsound.params import ConfigError, Params, coupling_ratio_for_nu, nu_from_ratios
from slowsound.qutrit import (
    QUTRIT_NU_MAX,
    QUTRIT_NU_MIN,
    ImpurityStates,
    QutritSpectrum,
    bound_state_count,
    is_qutrit,
    ladder,
    qutrit_window_in_coupling_ratio,
    spectrum,
)
from slowsound.response import (
    SOUND_SPEED,
    NoTransparency,
    OpaqueMedium,
    dispersion_curve,
    group_velocity_curve,
    level_width,
    propagate_envelope,
    susceptibility_at_rates,
    susceptibility_curve,
    transparency_width,
)

__all__ = ["SCENARIOS"]

# External reference estimate for the slow-pulse regime (k ~ 1/d), kept
# for side-by-side reporting with the computed narrowband group velocity.
SLOW_PULSE_ESTIMATE_UM_PER_S = 5.0


def _autler_townes(params, rates):
    """(control, doublet separation): the distance between the two
    absorption maxima at a strong control of 10 gamma_1."""
    strong = replace(params, control_rabi_gamma0=10.0 * rates.gamma_1 / rates.gamma_0)
    curve = susceptibility_at_rates(strong, rates)
    control = curve.drive.control_rabi
    a = curve.absorption
    d = curve.detunings
    ic = curve.center
    left = int(np.argmax(a[:ic]))
    right = ic + 1 + int(np.argmax(a[ic + 1 :]))
    return control, float(d[right] - d[left])


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------

def scenario_spectrum(params: Params, sink):
    """Level structure across the coupling-ratio sweep, window marked.

    The sweep calls qutrit's ladder, window test and level count on whole
    arrays, so every row equals the scalar spectrum at its coupling ratio
    bit for bit.
    """
    r_m = params.mass_ratio
    lo_rg, hi_rg = qutrit_window_in_coupling_ratio(r_m)
    if not math.isfinite(nu_from_ratios(1.9, r_m)):  # the sweep's largest nu
        raise ConfigError(f"mass_ratio={r_m!r} puts nu out of float range at g12/g11 = 1.9")
    ratios = np.linspace(0.9, 1.9, 201)
    nu = nu_from_ratios(ratios, r_m)
    qutrit = is_qutrit(nu)
    omega_0, omega_1, energies = ladder(nu, r_m)
    omega_0, omega_1, *energies = (
        np.where(qutrit, level, math.nan) for level in (omega_0, omega_1, *energies)
    )
    sink.csv("spectrum.csv", [
        ("coupling_ratio", ratios), ("nu", nu), ("n_bound", bound_state_count(nu)),
        ("qutrit", qutrit), ("omega_0", omega_0), ("omega_1", omega_1),
        *((f"energy_{n}", level) for n, level in enumerate(energies)),
        ("window_lower_coupling_ratio", [lo_rg] * len(ratios)),
        ("window_upper_coupling_ratio", [hi_rg] * len(ratios)),
    ])

    configured = spectrum(params)
    summary = {
        "configured": {**asdict(configured), "qutrit": isinstance(configured, QutritSpectrum)},
        "window_nu": [QUTRIT_NU_MIN, QUTRIT_NU_MAX],
        "window_coupling_ratio": [lo_rg, hi_rg],
        "sweep": {"coupling_ratio_min": 0.9, "coupling_ratio_max": 1.9, "points": len(ratios)},
    }
    sink.json("spectrum.json", summary)
    sink.svg(
        "spectrum.svg",
        ratios,
        [("omega_0", omega_0), ("omega_1", omega_1)],
        title="Transition frequencies across the coupling-ratio sweep",
        xlabel="g12/g11",
        ylabel="frequency (mu units)",
    )
    return summary


# ----------------------------------------------------------------------
# decay
# ----------------------------------------------------------------------

def _closed_rates(params: Params, lines):
    """gamma_closed of both transitions at lines.omega_0 and lines.omega_1,
    and the relative gap of lines' golden-rule rates from each."""
    closed = gamma_closed(params, lines.omega_0, 0), gamma_closed(params, lines.omega_1, 1)
    gaps = tuple(abs(c - g) / c for c, g in zip(closed, (lines.gamma_0, lines.gamma_1)))
    return closed, gaps


def _first_line(casc):
    """(k, omega, spectral density, FWHM in omega) of the cascade's first emission line."""
    k_line, density = casc.k_grid, casc.first_line
    omega_line = np.asarray(dispersion(k_line))
    peak = int(np.argmax(density))
    return k_line, omega_line, density, level_width(omega_line, density, peak, 0.5 * density[peak])


def scenario_decay(params: Params, sink):
    """Phonon decay rates over the window plus the emission cascade.

    The window sweep is arrays that equal the scalar route bit for bit."""
    integral = decay_rates(params)  # raises ConfigError outside the qutrit window
    lo_rg, hi_rg = qutrit_window_in_coupling_ratio(params.mass_ratio)
    ratios = np.linspace(lo_rg, hi_rg, 122)[1:-1]
    nu = nu_from_ratios(ratios, params.mass_ratio)
    omega_0, omega_1, _ = ladder(nu, params.mass_ratio)
    g12 = ratios / params.density_xi
    g0, g1 = gamma_closed(params, omega_0, 0, g12), gamma_closed(params, omega_1, 1, g12)
    rwa = (g0 / omega_0, g1 / omega_1)
    sink.csv("decay.csv", [
        ("coupling_ratio", ratios), ("nu", nu), ("omega_0", omega_0), ("omega_1", omega_1),
        ("gamma_0", g0), ("gamma_1", g1),
        ("gamma_0_over_omega_0", rwa[0]), ("gamma_1_over_omega_1", rwa[1]),
    ])
    worst_rwa = np.max(rwa)

    closed, gaps = _closed_rates(params, integral)
    times = np.linspace(0.0, 5.0 / integral.gamma_1, 26)
    casc = cascade(params, times, rates=integral)
    survival = np.abs(casc.a) ** 2
    sink.csv("cascade.csv", [
        ("time", times), ("survival", survival), ("one_phonon", casc.norm_one_phonon),
        ("two_phonon", casc.norm_two_phonon), ("total_norm", casc.norm_total),
    ])

    k_line, omega_line, density, fwhm = _first_line(casc)
    sink.csv("first_line.csv",
             [("k", k_line), ("omega", omega_line), ("spectral_density", density)])
    gamma_sum = integral.gamma_0 + integral.gamma_1

    summary = {
        "rates_closed": {"gamma_0": closed[0], "gamma_1": closed[1]},
        "rates_integral": {"gamma_0": integral.gamma_0, "gamma_1": integral.gamma_1},
        "route_relative_difference": {"gamma_0": gaps[0], "gamma_1": gaps[1]},
        "omega_0": integral.omega_0,
        "omega_1": integral.omega_1,
        "gamma_over_omega": {
            "lower": closed[0] / integral.omega_0,
            "upper": closed[1] / integral.omega_1,
            "worst_over_window": worst_rwa,
        },
        "rwa_valid_everywhere": worst_rwa < 0.1,
        "cascade": {
            "norm_min": float(np.min(casc.norm_total)),
            "norm_max": float(np.max(casc.norm_total)),
            "final_survival": float(abs(casc.a[-1]) ** 2),
        },
        "first_line": {
            "fwhm": fwhm,
            "gamma_0_plus_gamma_1": gamma_sum,
            "fwhm_over_sum": fwhm / gamma_sum,
        },
        "lifetimes_ms": {
            "upper": params.time_ms(1.0 / closed[1]),
            "lower": params.time_ms(1.0 / closed[0]),
        },
    }
    sink.json("decay.json", summary)
    sink.svg(
        "decay.svg",
        ratios,
        [("gamma_0/omega_0", rwa[0]), ("gamma_1/omega_1", rwa[1])],
        title="Decay-to-frequency ratios across the window",
        xlabel="g12/g11",
        ylabel="gamma/omega",
    )
    sink.svg(
        "cascade.svg",
        times,
        [("survival", survival), ("one-phonon", casc.norm_one_phonon),
         ("two-phonon", casc.norm_two_phonon), ("total", casc.norm_total)],
        title="Cascade sector populations",
        xlabel="time (reduced)",
        ylabel="population",
    )
    return summary


# ----------------------------------------------------------------------
# couplings
# ----------------------------------------------------------------------

def scenario_couplings(params: Params, sink):
    """Interband (the chain's printed closed forms) and intraband (overlap
    integral) coupling amplitudes over a k sweep."""
    rates = decay_rates(params)  # raises ConfigError outside the qutrit window
    ks = np.arange(0.05, 4.0 + 1e-9, 0.05)
    g0, g1 = np.abs(g0_closed(ks, params)), np.abs(g1_closed(ks, params))
    intra = np.abs(g_quadratures(((0, 0), (1, 1), (2, 2)), ks, params))
    sink.csv("couplings.csv", [
        ("k", ks), *((f"abs_g{n}{n}", curve) for n, curve in enumerate(intra)),
        ("abs_g0_closed", g0), ("abs_g1_closed", g1),
    ])

    k0, k1 = rates.carrier_k, resonant_wavevector(rates.omega_1)
    g0_c = abs(g0_closed(k0, params))
    g1_c = abs(g1_closed(k1, params))
    g0_q = abs(g_quadrature(0, 1, k0, params))
    g1_q = abs(g_quadrature(1, 2, k1, params))

    summary = {
        "resonant_k": {"lower": k0, "upper": k1},
        "resonant_coupling_closed": {"lower": g0_c, "upper": g1_c},
        "resonant_coupling_quadrature": {"lower": g0_q, "upper": g1_q},
        "closed_over_quadrature": {"lower": g0_c / g0_q, "upper": g1_c / g1_q},
        "sweep_argmax_k": {
            "abs_g0_closed": float(ks[int(np.argmax(g0))]),
            "abs_g1_closed": float(ks[int(np.argmax(g1))]),
        },
    }
    sink.json("couplings.json", summary)
    sink.svg(
        "couplings.svg",
        ks,
        [("abs_g0_closed", g0), ("abs_g1_closed", g1)],
        title="Impurity-phonon transition couplings",
        xlabel="k (1/xi)",
        ylabel="|g|",
    )
    return summary


# ----------------------------------------------------------------------
# susceptibility
# ----------------------------------------------------------------------

def scenario_susceptibility(params: Params, sink):
    """Acoustic susceptibility of the probe transition with drive families.

    The rates are resolved once for the configured coupling ratio, whose
    control scans and Autler-Townes sweep share them, and once for each
    coupling ratio of the comparison family; each distinct control's
    default sweep is built once.
    """
    curve = susceptibility_curve(params)
    rates, drive, d = curve.rates, curve.drive, curve.detunings

    table = [("detuning", d), ("detuning_over_gamma0", d / rates.gamma_0),
             ("re_chi", curve.refraction), ("im_chi", curve.absorption)]
    series = [("im_chi", curve.absorption), ("re_chi", curve.refraction)]
    for rg in (1.1, 1.85):
        p = replace(params, coupling_ratio=rg)
        try:
            p_rates = decay_rates(p)
        except ConfigError as exc:
            raise ConfigError(f"comparison curve at coupling_ratio={rg:g}: {exc}") from exc
        for mult in (0.2, 2.0):
            chi = susceptibility_at_rates(replace(p, control_rabi_gamma0=mult), p_rates, d).chi
            tag = f"rg{rg:g}_oc{mult:g}".replace(".", "p")
            table += [(f"re_chi_{tag}", np.real(chi)), (f"im_chi_{tag}", np.imag(chi))]
            if (rg, mult) == (params.coupling_ratio, 0.2):
                series.append(("im_chi_weak_control", np.imag(chi)))
    sink.csv("susceptibility.csv", table)

    window = transparency_width(curve)
    if isinstance(window, NoTransparency):
        window_payload = {"present": False, "reason": window.reason}
    else:
        window_payload = {
            "present": True,
            "width": window.width,
            "width_over_gamma0": window.width / rates.gamma_0,
            "dip_absorption": window.dip_absorption,
            "peak_absorption": max(window.peak_left, window.peak_right),
            "contrast": window.dip_absorption / max(window.peak_left, window.peak_right),
        }

    scaling_mults = np.geomspace(2.0, 20.0, 6)
    controls = dict.fromkeys((0.2, 1.0, 2.0, 4.0, *scaling_mults.tolist()))
    sweeps = {m: susceptibility_at_rates(replace(params, control_rabi_gamma0=m), rates)
              for m in controls}
    # Weak-vs-strong control contrast at the configured coupling ratio.
    chi0 = complex(curve.chi[curve.center])
    im_weak, im_strong = (float(sweeps[m].absorption[sweeps[m].center]) for m in (0.2, 2.0))
    # Transparency width at each control, None without a window.
    windows = {m: transparency_width(c) for m, c in sweeps.items()}
    width = {m: None if isinstance(w, NoTransparency) else w.width for m, w in windows.items()}

    # Transparency width growth with the control power.
    widths = [{"control_over_gamma0": mult, "width": width[mult]} for mult in (1.0, 2.0, 4.0)]
    width_vals = [w["width"] for w in widths if w["width"] is not None]
    monotone = all(a < b for a, b in zip(width_vals, width_vals[1:]))

    # EIT-like scaling of the width over a decade of control power
    # (reported, not asserted).
    scaling_widths = np.array([width[m] for m in scaling_mults.tolist()], dtype=float)
    mask = np.isfinite(scaling_widths)
    exponent = float(
        np.polyfit(np.log(scaling_mults[mask]), np.log(scaling_widths[mask]), 1)[0]
    ) if np.sum(mask) >= 2 else math.nan

    at_control, at_sep = _autler_townes(params, rates)

    summary = {
        "carrier": {
            "k": rates.carrier_k,
            "energy": curve.carrier_energy,
            "velocity": curve.carrier_velocity,
        },
        "drive": {
            "control_rabi": drive.control_rabi,
            "probe_rabi": drive.probe_rabi,
            "control_over_gamma0": drive.control_rabi / rates.gamma_0,
            "delta_mode": drive.delta_mode,
        },
        "chi_at_zero": {"re": chi0.real, "im": chi0.imag},
        "transparency": window_payload,
        "contrast_weak_vs_strong_control": {
            "im_chi0_control_0p2_gamma0": im_weak,
            "im_chi0_control_2_gamma0": im_strong,
            "ratio": im_strong / im_weak,
            "below_half": im_strong < 0.5 * im_weak,
        },
        "width_growth": {"samples": widths, "monotone": monotone,
                         "scaling_exponent_reported": exponent},
        "autler_townes": {
            "control_rabi": at_control,
            "separation": at_sep,
            "separation_over_control": at_sep / at_control,
        },
    }
    sink.json("susceptibility.json", summary)

    sink.svg(
        "susceptibility.svg",
        d / rates.gamma_0,
        series,
        title="Acoustic susceptibility of the probe transition",
        xlabel="probe detuning / gamma_0",
        ylabel="chi",
    )
    return summary


# ----------------------------------------------------------------------
# dispersion
# ----------------------------------------------------------------------

def _merge_edge(curve):
    """Largest relative gap between the dressed and free branches at the sweep's two ends."""
    rel = np.abs(curve.q - curve.q_free) / curve.q_free
    return max(float(rel[0]), float(rel[-1]))


def scenario_dispersion(params: Params, sink):
    """Dressed probe dispersion against the bare phonon branch."""
    curve = dispersion_curve(susceptibility_curve(params))
    bare = np.asarray(dispersion(curve.q))
    sink.csv("dispersion.csv", [("q", curve.q), ("omega_dressed", curve.omega_p),
                                ("epsilon_bare_at_q", bare), ("q_free", curve.q_free)])

    edge = _merge_edge(curve)
    # Slope flattening at the center, against the group-velocity route.
    ic = curve.curve.center
    lo = max(ic - 2, 0)
    hi = min(ic + 2, len(curve.q) - 1)
    slope = (curve.omega_p[hi] - curve.omega_p[lo]) / (curve.q[hi] - curve.q[lo])
    # the default sweep holds Delta = 0 exactly, so v_g there comes from it
    vg_center = group_velocity_curve(curve.curve).at_center * SOUND_SPEED
    summary = {
        "edge_relative_deviation": edge,
        "merges_with_bare_branch": edge < 0.01,
        "center_slope_domega_dq": float(slope),
        "group_velocity_route": vg_center,
        "slope_ratio": float(slope) / vg_center,
        "carrier_velocity": curve.curve.carrier_velocity,
    }
    sink.json("dispersion.json", summary)
    sink.svg(
        "dispersion.svg",
        curve.q,
        [("dressed", curve.omega_p), ("bare", bare)],
        title="Probe dispersion across the transparency window",
        xlabel="q (1/xi)",
        ylabel="omega (mu units)",
    )
    return summary


# ----------------------------------------------------------------------
# groupvel
# ----------------------------------------------------------------------

def _transparency_point_minimum(gv):
    """(minimum v_g/c_s, its detuning, where it was taken).

    The minimum is taken across the central fifth of the transparency
    window.  The full sweep's minimum sits on the steep absorption
    shoulders just inside the dressed-line peaks, where a pulse would be
    absorbed rather than slowed; the quotable slow-sound figure is the
    minimum over the band the default pulse actually occupies (a tenth of
    the window to either side of the two-photon resonance).  Without a
    window it falls back to zero detuning, and the domain says why.
    """
    window = transparency_width(gv.curve)
    if isinstance(window, NoTransparency):
        domain = f"zero detuning (no transparency window: {window.reason})"
        if not math.isfinite(gv.at_center):
            domain += (
                "; v_g at zero detuning is flagged (dispersion denominator not "
                "positive), so no minimum is quoted"
            )
        return gv.at_center, 0.0, domain
    band = np.abs(gv.detunings) <= window.width / 10.0
    vg_band = gv.vg_over_cs[band]
    d_band = gv.detunings[band]
    ok = np.isfinite(vg_band) & (vg_band > 0)
    i = int(np.argmin(vg_band[ok]))
    return float(vg_band[ok][i]), float(d_band[ok][i]), "central fifth of the transparency window"


def scenario_groupvel(params: Params, sink):
    """Group velocity across the probe line; headline minimum in the JSON."""
    gv = group_velocity_curve(susceptibility_curve(params))
    sink.csv("groupvel.csv", [
        ("detuning", gv.detunings), ("detuning_over_gamma0", gv.detunings / gv.curve.rates.gamma_0),
        ("vg_over_cs", gv.vg_over_cs), ("refraction_slope", gv.refraction_slope),
    ])

    min_vg, min_at, domain = _transparency_point_minimum(gv)
    valid = np.isfinite(gv.vg_over_cs) & (gv.vg_over_cs > 0)
    vg_valid = gv.vg_over_cs[valid]
    d_valid = gv.detunings[valid]
    isweep = int(np.argmin(vg_valid))
    rates = gv.curve.rates
    drive = gv.curve.drive
    summary = {
        "min_vg_over_cs": min_vg,
        "min_at_detuning": min_at,
        "min_at_detuning_over_gamma0": min_at / rates.gamma_0,
        "minimum_domain": domain,
        "vg_over_cs_at_zero_detuning": gv.at_center,
        "full_sweep_min_vg_over_cs": float(vg_valid[isweep]),
        "full_sweep_min_at_detuning_over_gamma0": float(d_valid[isweep] / rates.gamma_0),
        "full_sweep_note": (
            "the unrestricted minimum lies on the absorption shoulders just "
            "inside the dressed-line peaks, outside the usable transparency band"
        ),
        "vg_um_per_s_computed": params.velocity_um_per_s(min_vg),
        "vg_um_per_s_reference_estimate": SLOW_PULSE_ESTIMATE_UM_PER_S,
        "flagged_points": gv.flagged,
        "control_over_gamma0": drive.control_rabi / rates.gamma_0,
        "validity_control_sq_over_gamma_product":
            drive.control_rabi ** 2 / (rates.gamma_0 * rates.gamma_1),
    }
    sink.json("groupvel.json", summary)
    sink.svg(
        "groupvel.svg",
        gv.detunings / rates.gamma_0,
        [("vg/cs", gv.vg_over_cs)],
        title="Group velocity across the probe line",
        xlabel="probe detuning / gamma_0",
        ylabel="vg/cs",
    )
    return summary


# ----------------------------------------------------------------------
# eigenstates
# ----------------------------------------------------------------------

def scenario_eigenstates(params: Params, sink):
    """Eigenstates of the frozen soliton well vs closed forms."""
    report = well_eigenstates(params, 3)
    x = report.grid.x
    potential = frozen_well(report.grid, report.nu, params.mass_ratio)

    densities = np.abs(report.states) ** 2
    table = [("x", x), ("potential", potential)]
    for n, psi in enumerate(report.states):
        table += [(f"re_psi_{n}", np.real(psi)), (f"im_psi_{n}", np.imag(psi)),
                  (f"density_{n}", densities[n])]
    sink.csv("eigenstates.csv", table)

    _, _, rungs = ladder(report.nu, params.mass_ratio)
    states_payload = []
    for n in range(report.states.shape[0]):
        entry = {
            "n": n,
            "energy": float(report.energies[n]),
            "energy_ladder": rungs[n],
            "bound": bool(report.bound[n]),
            "edge_fraction": float(report.edge_fractions[n]),
            "residual": float(report.residuals[n]),
        }
        if report.bound[n]:
            entry["energy_relative_error"] = abs(report.energies[n] - rungs[n]) / abs(rungs[n])
        try:
            entry["overlap_with_analytic"] = report.overlap_with_analytic(n)
        except ValueError:
            entry["overlap_with_analytic"] = None
            entry["overlap_note"] = (
                "no normalizable closed-form shape at this well depth (nu <= n)"
            )
        states_payload.append(entry)

    summary = {
        "nu": report.nu,
        "grid": {"points": report.grid.npoints, "length": report.grid.length},
        "states": states_payload,
        "note": (
            "the frozen well binds only the states n < nu, so for nu < 2 the "
            "n=2 rung of the analytic ladder is unbound and the third state "
            "is a box state, delocalized and near zero energy (bound false); "
            "every state solves the grid eigenproblem to its residual column"
        ),
    }
    sink.json("eigenstates.json", summary)
    series = [("potential", potential)] + [(f"density_{n}", d) for n, d in enumerate(densities)]
    sink.svg(
        "eigenstates.svg",
        x, series,
        title="Soliton-well impurity eigenstates",
        xlabel="x (xi)",
        ylabel="potential / density",
    )
    return summary


# ----------------------------------------------------------------------
# pulse
# ----------------------------------------------------------------------

def scenario_pulse(params: Params, sink):
    """Gaussian probe pulse sent across the gas: delay and transmission."""
    report = propagate_envelope(susceptibility_curve(params), distance=params.box_length_xi)
    sink.csv("pulse.csv", [
        ("time", report.times), ("abs_envelope_in", np.abs(report.envelope_in)),
        ("abs_envelope_out", np.abs(report.envelope_out)),
    ])
    summary = {
        "distance_xi": report.distance,
        "bandwidth": report.bandwidth,
        "bandwidth_over_window": report.bandwidth / report.transparency.width,
        "transparency_width": report.transparency.width,
        "free_transit_time": report.free_transit,
        "measured_delay": report.measured_delay,
        "predicted_delay": report.predicted_delay,
        "relative_delay_error": report.relative_delay_error,
        "transmitted_fraction": report.transmitted_fraction,
        "vg_over_cs": report.vg_over_cs_center,
        "vg_um_per_s": params.velocity_um_per_s(report.vg_over_cs_center),
        "delay_ms": params.time_ms(report.measured_delay),
        "free_transit_ms": params.time_ms(report.free_transit),
        "bandwidth_warning": report.bandwidth_warning,
    }
    sink.json("pulse.json", summary)
    sink.svg(
        "pulse.svg",
        report.times,
        [("input", np.abs(report.envelope_in)), ("output", np.abs(report.envelope_out))],
        title="Probe envelope before and after the gas",
        xlabel="time (reduced, co-moving frame)",
        ylabel="|envelope|",
    )
    return summary


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def _row(check, status, measured, target, detail=""):
    return {"check": check, "status": status, "measured": measured,
            "target": target, "detail": detail}


def check_levels(params, rates):
    """Level structure: the window edges' bound counts and the resonance inversion."""
    counts = (bound_state_count(QUTRIT_NU_MIN), bound_state_count(QUTRIT_NU_MAX))
    yield _row(
        "window_boundary_counts",
        "PASS" if counts == (3, 4) else "FAIL",
        f"{counts[0]} at nu=4/5, {counts[1]} at nu=9/7",
        "3 bound states on entry, 4 at the upper edge",
    )

    probe_omegas = np.linspace(0.05, 3.0, 10)
    roundtrip = max(
        abs(float(dispersion(resonant_wavevector(w))) - w) for w in probe_omegas
    )
    yield _row(
        "resonance_inversion_roundtrip",
        "PASS" if roundtrip < 1e-10 else "FAIL",
        f"{roundtrip:.3e}",
        "< 1e-10",
    )


def check_states(params, rates):
    """Impurity wavefunctions: normalization constants and orthogonality."""
    states = ImpurityStates(params)
    report = states.normalization_report()
    dev0 = report["constants"][0]["relative_deviation"]
    yield _row(
        "normalization_constant_0",
        "PASS" if dev0 < 1e-8 else "FAIL",
        f"{dev0:.3e}",
        "closed form matches quadrature < 1e-8",
    )
    yield _row(
        "normalization_constants_1_2",
        "REPORT",
        f"relative deviations {report['constants'][1]['relative_deviation']:.4f}, "
        f"{report['constants'][2]['relative_deviation']:.4f}",
        "recorded (closed forms known to disagree; quadrature authoritative)",
    )
    yield _row(
        "raw_overlap_phi0_phi2",
        "REPORT",
        f"{states.overlap_raw_02:.6f}",
        "recorded (removed by explicit orthogonalization)",
    )

    ortho = states.overlap(0, 2)
    yield _row(
        "orthogonality_after_projection",
        "PASS" if abs(ortho) < 1e-6 else "FAIL",
        f"{abs(ortho):.3e}",
        "< 1e-6",
    )


def check_couplings(params, rates):
    """Coupling family: parity, index symmetry, zero, tail, extremum, resonant
    ratio and interband dominance, each curve evaluated once and the moments
    of each k array once."""
    k_probe = 0.9
    k0, k1 = rates.carrier_k, resonant_wavevector(rates.omega_1)
    peak_ks = np.arange(0.2, 5.0 + 1e-9, 0.001)
    dom_ks = np.arange(0.6, 1.1 + 1e-9, 0.1)
    # One k array for the interband curves: the peak grid, k = 12, k_probe, k0,
    # k1 and the dominance grid; the intraband curves take [k_probe, dominance grid].
    n = len(peak_ks)
    ks = np.concatenate([peak_ks, [12.0, k_probe, k0, k1], dom_ks])
    values = {"g0_closed": g0_closed(ks, params), "g1_closed": g1_closed(ks, params)}
    values["g0_quadrature"], values["g1_quadrature"] = g_quadratures(((0, 1), (1, 2)), ks, params)
    intra = g_quadratures(((0, 0), (1, 1), (2, 2)), np.append(k_probe, dom_ks), params)
    q01, q12, q00 = values["g0_quadrature"][n + 1], values["g1_quadrature"][n + 1], intra[0][0]
    parity_dev = max(
        abs(q01.imag) / abs(q01), abs(q12.imag) / abs(q12), abs(q00.real) / abs(q00)
    )
    yield _row(
        "parity_structure",
        "PASS" if parity_dev < 1e-6 else "FAIL",
        f"{parity_dev:.3e}",
        "interband real, intraband imaginary, < 1e-6",
    )

    sym_dev = abs(q01 - g_quadrature(1, 0, k_probe, params)) / abs(q01)
    yield _row(
        "coupling_index_symmetry",
        "PASS" if sym_dev < 1e-9 else "FAIL",
        f"{sym_dev:.3e}",
        "g_01 = g_10 < 1e-9",
    )

    zero = abs(g0_closed(2.0, params))
    yield _row(
        "closed_form_zero_at_k2",
        "PASS" if zero < 1e-15 else "FAIL",
        f"{zero:.3e}",
        "exact zero of the lower-line closed form",
    )

    curves = {label: np.abs(c) for label, c in values.items()}
    tails = {label: c[n] / np.max(c[:n]) for label, c in curves.items()}
    loc = {label: float(ks[np.argmax(c[:n])]) for label, c in curves.items()}
    tail = max(tails["g0_closed"], tails["g1_closed"])
    yield _row(
        "exponential_tail_at_k12",
        "PASS" if tail < 1e-6 else "FAIL",
        f"{tail:.3e} (lower line {tails['g0_closed']:.3e}, upper {tails['g1_closed']:.3e}, "
        f"quadrature lower {tails['g0_quadrature']:.3e} upper {tails['g1_quadrature']:.3e})",
        "< 1e-6 of peak",
        detail="closed forms only cross 1e-6 of peak near k ~ 16 (lower) and"
        " k ~ 19 (upper); the independent overlap quadrature agrees the tail"
        " is fatter than advertised",
    )

    d0 = abs(loc["g0_closed"] - loc["g0_quadrature"])
    d1 = abs(loc["g1_closed"] - loc["g1_quadrature"])
    yield _row(
        "extremum_location_agreement",
        "PASS" if max(d0, d1) <= 0.05 else "FAIL",
        f"lower line: closed k={loc['g0_closed']:.3f} vs quadrature "
        f"k={loc['g0_quadrature']:.3f} (|dk|={d0:.3f}); upper line: "
        f"closed k={loc['g1_closed']:.3f} vs quadrature "
        f"k={loc['g1_quadrature']:.3f} (|dk|={d1:.3f})",
        "|dk| <= 0.05 between routes",
        "the two routes genuinely disagree in shape; the overlap integral "
        "is the oracle here",
    )

    r0 = curves["g0_closed"][n + 2] / curves["g0_quadrature"][n + 2]
    r1 = curves["g1_closed"][n + 3] / curves["g1_quadrature"][n + 3]
    yield _row(
        "resonant_amplitude_ratio",
        "REPORT",
        f"closed/quadrature = {r0:.4f} (lower), {r1:.4f} (upper)",
        "recorded (overall normalization may differ between routes)",
    )

    intra_max = np.max(np.abs(intra), axis=0)[1:]
    inter = np.maximum(curves["g0_quadrature"][n + 4:], curves["g1_quadrature"][n + 4:])
    worst = int(np.argmax(intra_max / inter))
    dom = float(intra_max[worst] / inter[worst])
    yield _row(
        "interband_dominance",
        "PASS" if dom < 1.0 else "FAIL",
        f"max intraband/interband = {dom:.3f} (worst at k={dom_ks[worst]:.1f})",
        "< 1 over k in [0.6, 1.1]",
        "the overlap integrals make the intraband amplitudes larger here",
    )


def check_decay(params, rates):
    """Decay rates across the window, the cascade norm and the first line's width."""
    nus = np.linspace(QUTRIT_NU_MIN + 0.01, QUTRIT_NU_MAX - 0.01, 10)
    worst_rate = 0.0
    for nu in nus:
        p = replace(params, coupling_ratio=coupling_ratio_for_nu(float(nu), params.mass_ratio))
        worst_rate = max(worst_rate, *_closed_rates(p, decay_rates(p))[1])
    yield _row(
        "decay_route_agreement",
        "PASS" if worst_rate < 1e-3 else "FAIL",
        f"{worst_rate:.3e}",
        "closed vs golden-rule < 1e-3 at 10 window points",
    )

    norm_target = "within [0.98, 1.005] at t = (0.5, 1, 3)/gamma_1"
    width_target = "within 5% of the summed linewidths"
    try:
        casc = cascade(params, np.array([0.5, 1.0, 3.0]) / rates.gamma_1, rates=rates)
    except NumericsError as exc:
        # the cascade refuses its grid near gamma_0 = gamma_1: both its rows fail
        yield _row("cascade_norm_conservation", "FAIL", f"refused: {exc}", norm_target)
        yield _row("first_line_width", "FAIL", f"refused: {exc}", width_target)
        return
    nmin, nmax = float(np.min(casc.norm_total)), float(np.max(casc.norm_total))
    yield _row(
        "cascade_norm_conservation",
        "PASS" if 0.98 <= nmin and nmax <= 1.005 else "FAIL",
        f"[{nmin:.4f}, {nmax:.4f}]",
        norm_target,
    )

    ratio = _first_line(casc)[3] / (rates.gamma_0 + rates.gamma_1)
    yield _row(
        "first_line_width",
        "PASS" if abs(ratio - 1.0) < 0.05 else "FAIL",
        f"fwhm/(gamma_0+gamma_1) = {ratio:.4f}",
        width_target,
    )


def check_lindblad(params, rates):
    """Driven three-level dynamics: weak-probe vs Lindblad steady states,
    state quality, weak-probe convergence and relaxation."""
    drive = drive_from_params(params, rates)

    def route_gap(dv, sweep, states):
        """Largest gap of the Lindblad coherence from the weak-probe one, relative."""
        co_a = weak_probe_coherences(rates, dv, sweep)
        return float(np.max(np.abs(states[:, 1, 0] - co_a)) / np.max(np.abs(co_a)))

    sweep = np.linspace(-20.0 * rates.gamma_0, 20.0 * rates.gamma_0, 200)
    lind_states = steady_state_lindblad(rates, drive, sweep)
    route_dev = route_gap(drive, sweep, lind_states)
    yield _row(
        "steady_state_route_agreement",
        "PASS" if route_dev < 0.01 else "FAIL",
        f"{route_dev:.3e}",
        "weak-probe analytic vs full Lindblad < 1% over 200 points",
    )

    quality_states = lind_states[::4]
    quality_h = np.conj(np.swapaxes(quality_states, 1, 2))
    herm = float(np.max(np.abs(quality_states - quality_h)))
    tr = float(np.max(np.abs(np.trace(quality_states, axis1=1, axis2=2).real - 1.0)))
    mineig = float(np.min(np.linalg.eigvalsh(0.5 * (quality_states + quality_h))))
    state_ok = herm < 1e-10 and tr < 1e-10 and mineig > -1e-8
    yield _row(
        "lindblad_state_quality",
        "PASS" if state_ok else "FAIL",
        f"hermiticity {herm:.1e}, trace {tr:.1e}, min eigenvalue {mineig:.1e}",
        "within (1e-10, 1e-10, -1e-8)",
    )

    small = np.linspace(-10.0 * rates.gamma_0, 10.0 * rates.gamma_0, 41)
    probes = [replace(drive, probe_rabi=f * drive.control_rabi) for f in (0.1, 0.01, 0.001)]
    errs = [route_gap(dv, small, steady_state_lindblad(rates, dv, small)) for dv in probes]
    yield _row(
        "weak_probe_convergence",
        "PASS" if errs[0] > errs[1] > errs[2] else "FAIL",
        f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}",
        "monotone decrease across probe fractions 0.1, 0.01, 0.001",
    )

    horizon = 20.0 / rates.gamma_0
    evolved = evolve_master_equation(
        rates, drive, 0.0, ground_projector(), np.array([0.0, horizon])
    )[-1]
    settled = trace_distance(evolved, steady_state_lindblad(rates, drive, 0.0))
    yield _row(
        "relaxation_to_steady_state",
        "PASS" if settled < 1e-4 else "FAIL",
        f"{settled:.3e}",
        "trace distance < 1e-4 at t = 20/gamma_0",
    )


def check_transparency(params, rates):
    """Transparency and slow sound: contrast, dip, Autler-Townes doublet, group
    velocity, branch merge, pulse delay and Kramers-Kronig consistency."""
    weak_curve, strong_curve = (
        susceptibility_at_rates(replace(params, control_rabi_gamma0=m), rates) for m in (0.2, 2.0)
    )
    contrast = (strong_curve.absorption[strong_curve.center]
                / weak_curve.absorption[weak_curve.center])
    yield _row(
        "transparency_contrast",
        "PASS" if contrast < 0.5 else "FAIL",
        f"Im chi(0) ratio strong/weak = {contrast:.4f}",
        "< 0.5 between control = 2 gamma_0 and 0.2 gamma_0",
    )

    weak_dip = not isinstance(transparency_width(weak_curve), NoTransparency)
    strong_dip = not isinstance(transparency_width(strong_curve), NoTransparency)
    yield _row(
        "dip_transition",
        "PASS" if strong_dip and not weak_dip else "FAIL",
        f"weak control: {'dip' if weak_dip else 'no dip'}; "
        f"strong control: {'dip' if strong_dip else 'no dip'}",
        "single peak at weak control, dip at strong control",
    )

    at_control, at_sep = _autler_townes(params, rates)
    yield _row(
        "autler_townes_separation",
        "PASS" if abs(at_sep / at_control - 1.0) < 0.1 else "FAIL",
        f"separation/control = {at_sep / at_control:.4f}",
        "within 10% of the control Rabi frequency at control = 10 gamma_1",
    )

    # v_g, the dispersion branches and the pulse read one default sweep
    base = susceptibility_at_rates(params, rates)
    min_vg, min_at, _ = _transparency_point_minimum(group_velocity_curve(base))
    yield _row(
        "group_velocity_minimum",
        "PASS" if 0.03 <= min_vg <= 0.12 else "FAIL",
        f"min vg/cs = {min_vg:.4f} at detuning {min_at / rates.gamma_0:.3f} gamma_0 "
        f"({params.velocity_um_per_s(min_vg):.2f} um/s vs reference estimate "
        f"{SLOW_PULSE_ESTIMATE_UM_PER_S} um/s)",
        "within [0.03, 0.12] across the transparency-point band",
    )

    edge = _merge_edge(dispersion_curve(base))
    yield _row(
        "dispersion_branch_merge",
        "PASS" if edge < 0.01 else "FAIL",
        f"{edge:.3e}",
        "dressed branch within 1% of free branch at the sweep edges",
    )

    try:
        pulse = propagate_envelope(base, params.box_length_xi)
        pulse_ok = pulse.relative_delay_error < 0.1
        pulse_measured = (
            f"measured {pulse.measured_delay:.1f} vs predicted {pulse.predicted_delay:.1f} "
            f"(relative error {pulse.relative_delay_error:.3f})"
        )
    except OpaqueMedium as exc:
        pulse_ok, pulse_measured = False, f"refused: {exc}"
    yield _row(
        "pulse_delay_consistency",
        "PASS" if pulse_ok else "FAIL",
        pulse_measured,
        "transfer-function delay within 10% of the derivative route at "
        "bandwidth = window/10",
    )

    # The refraction decays only like 1/detuning, so the discrete Hilbert
    # transform has to integrate far beyond the band of interest before
    # its reconstruction there converges: sample 15x the reporting span
    # and score the residual on the central band alone: the default
    # sweep's half-width.  The sweep sets validate's peak memory, so chi
    # and its grid are built in place and released before the transform.
    span = base.detunings[-1]
    n_kk = 1 << 15
    kk_grid = np.arange(0.0, 2.0 * n_kk, 2.0)
    kk_grid /= n_kk
    kk_grid -= 1.0
    kk_grid *= 15.0 * span
    chi = susceptibility_at_rates(params, rates, kk_grid).chi
    core = np.abs(kk_grid) <= span
    re_core, im_chi = chi.real[core], chi.imag.copy()
    del chi, kk_grid
    re_rec = hilbert_transform(im_chi)
    np.negative(re_rec, out=re_rec)
    kk_err = re_rec[core] - re_core
    kk_rms = float(np.sqrt(np.mean(kk_err**2)) / np.sqrt(np.mean(re_core ** 2)))
    yield _row(
        "kramers_kronig_consistency",
        "PASS" if kk_rms < 0.05 else "FAIL",
        f"RMS deviation {kk_rms:.4f} over the central band",
        "Hilbert transform of Im chi reproduces Re chi within 5% RMS",
    )


# validate's checks in row order: each yields its rows from params and their rates
CHECKS = (check_levels, check_states, check_couplings, check_decay, check_lindblad,
          check_transparency)


def scenario_validate(params: Params, sink):
    """Cross-check battery: closed forms vs numerical oracles.

    The rows come from CHECKS in order, each over params and the one
    decay_rates(params) made here (ConfigError outside the qutrit window).
    A row is PASS/FAIL against a stated criterion, or REPORT for a measured
    quantity with no asserted target.  Three rows transcribe tail, shape and
    dominance claims about the coupling family that the overlap-integral
    oracle contradicts; they are kept and fail, with the measured numbers.
    """
    rates = decay_rates(params)
    rows = [row for check in CHECKS for row in check(params, rates)]
    counts = Counter(r["status"] for r in rows)
    summary = {
        "rows": rows,
        "n_pass": counts["PASS"],
        "n_fail": counts["FAIL"],
        "n_report": counts["REPORT"],
        "note": (
            "FAIL rows transcribe stated claims the numerical oracles "
            "contradict; they are retained deliberately rather than weakened"
        ) if counts["FAIL"] else "",
    }
    # one column per key of _row, in its order
    sink.csv("validate.csv", [(key, [row[key] for row in rows]) for key in rows[0]])
    sink.json("validate.json", summary)
    return summary


# the command line's catalogue, each name run by its scenario_<name>
SCENARIOS = {name: globals()[f"scenario_{name}"] for name in SCENARIO_NAMES}
