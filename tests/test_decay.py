"""Phonon-emission rates and the two-step emission cascade.

The strongest check here integrates the discretized continuum directly:
a bare rk4 on the coupled amplitude equations, sharing nothing with the
closed-form Wigner-Weisskopf amplitudes under test except the couplings
and grids themselves.  Exponential decay at gamma_1 has to *emerge* from
that integration.
"""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slowsound.bogoliubov import dispersion, dispersion_derivative, resonant_wavevector
from slowsound.coupling import csch, g0_closed, g1_closed
from slowsound.cli import main
from slowsound.decay import (
    GAMMA1_DENOMINATOR,
    MAX_GRID_POINTS,
    cascade,
    decay_rates,
    emission_grid,
    gamma_closed,
)
from slowsound.numerics import NumericsError, find_root
from slowsound.params import REFERENCE, coupling_ratio_for_nu
from slowsound.qutrit import spectrum
from slowsound.scenarios import SCENARIOS
from cascade_ode_oracle import NSTEPS, one_phonon_ode
from test_qutrit import RowSink


# -- rates ------------------------------------------------------------------

def closed_rates(params, lines):
    """The closed-form oracle at the transition frequencies of lines."""
    return gamma_closed(params, lines.omega_0, 0), gamma_closed(params, lines.omega_1, 1)


def test_route_agreement_at_reference():
    integral = decay_rates(REFERENCE)
    closed_0, closed_1 = closed_rates(REFERENCE, integral)
    assert closed_0 == pytest.approx(integral.gamma_0, rel=1e-3)
    assert closed_1 == pytest.approx(integral.gamma_1, rel=1e-3)


def test_route_agreement_across_window():
    from slowsound.qutrit import qutrit_window_in_coupling_ratio

    lo, hi = qutrit_window_in_coupling_ratio(REFERENCE.mass_ratio)
    for rg in np.linspace(lo * 1.02, hi * 0.98, 5):
        p = replace(REFERENCE, coupling_ratio=float(rg))
        i = decay_rates(p)
        c0, c1 = closed_rates(p, i)
        assert c0 == pytest.approx(i.gamma_0, rel=1e-3), rg
        assert c1 == pytest.approx(i.gamma_1, rel=1e-3), rg


@pytest.mark.parametrize("params", [REFERENCE], ids=["closed"])
def test_rates_carry_the_carrier_coupling(params):
    """k0 is the lower line's resonant wavevector, and the carrier coupling
    the |g0(k0)|^2 of the printed closed form that the rates use."""
    r = decay_rates(params)
    assert r.carrier_k == resonant_wavevector(r.omega_0)
    assert r.carrier_coupling == abs(g0_closed(r.carrier_k, params)) ** 2


def test_rates_positive_and_weak():
    r = decay_rates(REFERENCE)
    assert r.gamma_0 > 0 and r.gamma_1 > 0
    # emission must stay perturbative for the three-level treatment
    assert r.gamma_0 / r.omega_0 < 0.1
    assert r.gamma_1 / r.omega_1 < 0.1


def test_rates_match_spectrum_frequencies():
    r = decay_rates(REFERENCE)
    spec = spectrum(REFERENCE)
    assert r.omega_0 == pytest.approx(spec.omega_0, rel=1e-14)
    assert r.omega_1 == pytest.approx(spec.omega_1, rel=1e-14)


def test_eta_bookkeeping_ties_to_dispersion():
    """eta = sqrt(1 + omega^2) encodes the resonant wavevector and the
    phase-space slope: k_res^2 = eta - 1 and d eps/dk = 2 eta/sqrt(1+eta)."""
    r = decay_rates(REFERENCE)
    for omega in (r.omega_0, r.omega_1):
        eta = math.sqrt(1.0 + omega ** 2)
        k_res = resonant_wavevector(omega)
        assert k_res ** 2 == pytest.approx(eta - 1.0, rel=1e-10)
        assert dispersion_derivative(k_res) == pytest.approx(
            2.0 * eta / math.sqrt(1.0 + eta), rel=1e-10
        )


def test_rate_scales_inversely_with_density():
    # |g|^2 carries n0 g12^2 = r_g^2 / n0, and the default impurity norm
    # keeps the continuum measure density-independent, so gamma ~ 1/n0
    dilute = replace(REFERENCE, density_xi=100.0)
    r1 = closed_rates(REFERENCE, spectrum(REFERENCE))
    r2 = closed_rates(dilute, spectrum(dilute))
    assert r2[0] / r1[0] == pytest.approx(0.5, rel=1e-12)
    assert r2[1] / r1[1] == pytest.approx(0.5, rel=1e-12)


def scalar_gamma_closed(params, omega, which):
    """The closed-form rate one Python float at a time, each square a
    Python ** (C pow): the scalar route the array sweep must reproduce."""
    if omega == 0.0:
        return 0.0
    eta = math.sqrt(1.0 + omega * omega)
    envelope = csch(math.pi * math.sqrt(eta - 1.0) / 2.0) ** 2
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
        math.pi * params.impurity_norm * params.g12 ** 2
        / (denom * eta * math.sqrt(1.0 + eta)) * (eta - 1.0) * bracket * envelope
    )


def bits(values):
    return [float(v).hex() for v in values]


def test_decay_sweep_matches_scalar_route_bit_for_bit():
    """Every decay.csv row of the array sweep, and both plotted ratios,
    against spectrum() and the scalar rates at the row's coupling ratio."""
    for mass_ratio in (1.0, 1.56, 2.0):
        # the configured point stays at REFERENCE's nu, inside the window
        rg = coupling_ratio_for_nu(REFERENCE.nu, mass_ratio)
        params = replace(REFERENCE, mass_ratio=mass_ratio, coupling_ratio=rg)
        sink = RowSink()
        SCENARIOS["decay"](params, sink)
        columns, rows = sink.tables["decay.csv"]
        assert len(rows) == 120
        for row in rows:
            p = replace(params, coupling_ratio=row[0])
            spec = spectrum(p)
            g0, g1 = (scalar_gamma_closed(p, w, n) for n, w in enumerate((spec.omega_0, spec.omega_1)))
            expected = [row[0], spec.nu, spec.omega_0, spec.omega_1, g0, g1,
                        g0 / spec.omega_0, g1 / spec.omega_1]
            assert bits(row) == bits(expected), (mass_ratio, row[0])
            assert bits(closed_rates(p, spec)) == bits([g0, g1]), (mass_ratio, row[0])
        plotted = sink.series["decay.svg"]
        for name, column in (("gamma_0/omega_0", 6), ("gamma_1/omega_1", 7)):
            assert bits(plotted[name]) == bits(row[column] for row in rows)


def test_gamma_closed_on_arrays_keeps_its_limits():
    omega = np.array([0.0, 0.3, 0.0, 0.12])
    for which in (0, 1):
        rates = gamma_closed(REFERENCE, omega, which)
        assert rates[0] == 0.0 and rates[2] == 0.0
        assert bits(rates[[1, 3]]) == bits(scalar_gamma_closed(REFERENCE, w, which) for w in (0.3, 0.12))
        assert gamma_closed(REFERENCE, 0.0, which) == 0.0
        with pytest.raises(ValueError):
            gamma_closed(REFERENCE, np.array([0.2, -1e-9]), which)
    with pytest.raises(ValueError):
        gamma_closed(REFERENCE, omega, 2)


def test_rates_outside_window_rejected():
    with pytest.raises(ValueError):
        decay_rates(replace(REFERENCE, coupling_ratio=0.5))


# -- cascade ----------------------------------------------------------------

def test_cascade_initial_state_and_norm_window():
    r = decay_rates(REFERENCE)
    times = np.array([0.0, 0.5, 1.0, 3.0]) / r.gamma_1
    res = cascade(REFERENCE, times)
    total = np.abs(res.a) ** 2 + res.norm_one_phonon + res.norm_two_phonon
    assert total[0] == pytest.approx(1.0, abs=1e-12)
    assert res.norm_one_phonon[0] == 0.0
    # finite grids and Lorentzian tails cost a little norm; the window is
    # the accepted bookkeeping tolerance on the default grids
    assert np.all(total[1:] > 0.98) and np.all(total[1:] < 1.005)


def _window_edge(which):
    from slowsound.qutrit import qutrit_window_in_coupling_ratio

    lo, hi = qutrit_window_in_coupling_ratio(REFERENCE.mass_ratio)
    # the window is [lo, hi): the upper edge itself binds a fourth state
    return replace(REFERENCE, coupling_ratio=lo if which == "lower" else hi * (1.0 - 1e-3))


@pytest.mark.parametrize(
    "params",
    [
        REFERENCE,
        _window_edge("lower"),
        _window_edge("upper"),
    ],
    ids=["closed", "lower-edge", "upper-edge"],
)
def test_two_phonon_norm_matches_direct_amplitudes(params):
    """The expanded two-phonon norm against the trapezoid sum of the full
    |b_kp(t)|^2 array that direct_two_phonon_amplitudes builds at each time."""
    r = decay_rates(params)
    times = np.array([0.0, 0.5, 1.0, 3.0, 5.0]) / r.gamma_1
    res = cascade(params, times)
    assert abs(res.norm_two_phonon[0]) <= 1e-15
    np.testing.assert_allclose(res.norm_two_phonon[1:],
                               direct_two_phonon_norm(params, res, times[1:]),
                               rtol=1e-12, atol=0)


def direct_two_phonon_amplitudes(params, res, t):
    """b_kp at time t on res's grids (k rows, p columns), in the unfactored
    closed form A_k B_p (c_p + e_kp):

        A_k  = conj(g1(k)) / (i dk - (gamma_1 - gamma_0)/2),   B_p = conj(g0(p)),
        c_p  = (e^{(i dp - gamma_0/2) t} - 1) / (i dp - gamma_0/2),
        e_kp = (1 - e^{(i (dk + dp) - gamma_1/2) t}) / (i (dk + dp) - gamma_1/2),

    from params, its golden-rule rates and the printed couplings alone.  At
    t = inf both exponentials have decayed to 0.
    """
    r = decay_rates(params)
    g0, g1 = r.gamma_0, r.gamma_1
    dk = np.asarray(dispersion(res.k_grid))[:, None] - r.omega_1
    dp = np.asarray(dispersion(res.p_grid))[None, :] - r.omega_0
    denom_p, denom_eg = 1j * dp - 0.5 * g0, 1j * (dk + dp) - 0.5 * g1
    late = math.isinf(t)
    term_p = ((0.0 if late else np.exp(denom_p * t)) - 1.0) / denom_p
    term_eg = (1.0 - (0.0 if late else np.exp(denom_eg * t))) / denom_eg
    return (
        np.conj(g1_closed(res.k_grid, params))[:, None] / (1j * dk - 0.5 * (g1 - g0))
        * np.conj(g0_closed(res.p_grid, params))[None, :] * (term_p + term_eg)
    )


def continuum_measure(params):
    """m = N0/(2 pi n0 xi), the weight of sum_k -> m * dk."""
    return params.impurity_norm / (2.0 * math.pi * params.density_xi)


def trapezoid_weights(x):
    return 0.5 * (np.diff(x, prepend=x[0]) + np.diff(x, append=x[-1]))


def direct_two_phonon_norm(params, res, times):
    """m^2 sum_kp w_k |b_kp(t)|^2 w_p from the full direct_two_phonon_amplitudes array."""
    w_k, w_p = trapezoid_weights(res.k_grid), trapezoid_weights(res.p_grid)
    return [continuum_measure(params) ** 2 * w_k
            @ np.abs(direct_two_phonon_amplitudes(params, res, t)) ** 2 @ w_p
            for t in times]


def direct_first_line(params, res):
    """m sum_p |b_kp(inf)|^2 w_p from the full direct_two_phonon_amplitudes array."""
    return (continuum_measure(params)
            * np.abs(direct_two_phonon_amplitudes(params, res, math.inf)) ** 2
            @ trapezoid_weights(res.p_grid))


@pytest.mark.parametrize(
    "params",
    [
        REFERENCE,
        _window_edge("lower"),
        _window_edge("upper"),
    ],
    ids=["closed", "lower-edge", "upper-edge"],
)
def test_first_line_spectrum_matches_direct_trapezoid_sum(params):
    """The lattice and strip first line against the trapezoid sum over p of
    an explicit |b_kp(inf)|^2 array (direct_first_line)."""
    r = decay_rates(params)
    res = cascade(params, np.array([1.0]) / r.gamma_1)
    assert res.first_line.shape == res.k_grid.shape
    np.testing.assert_allclose(res.first_line, direct_first_line(params, res), rtol=1e-12, atol=0)


def test_cascade_survival_is_exponential():
    r = decay_rates(REFERENCE)
    times = np.linspace(0.0, 3.0, 7) / r.gamma_1
    res = cascade(REFERENCE, times)
    assert np.allclose(np.abs(res.a) ** 2, np.exp(-r.gamma_1 * times), rtol=1e-12)


def test_cascade_against_direct_ode_integration():
    """Decay at gamma_1 must emerge from the bare coupled amplitudes."""
    r = decay_rates(REFERENCE)
    t_final = 3.0 / r.gamma_1
    times = np.linspace(0.0, t_final, 7)
    res = cascade(REFERENCE, times)

    survival, b_final, meas_w = one_phonon_ode()
    # compare survival pointwise at the sampled cascade times
    for i, t in enumerate(times):
        j = int(round(t / t_final * NSTEPS))
        assert survival[j] == pytest.approx(
            abs(res.a[i]) ** 2, rel=0.02
        ), f"t = {t:.1f}"
    # and the emitted-line norm at the final time
    norm_ode = float(np.sum(meas_w * np.abs(b_final) ** 2))
    assert norm_ode == pytest.approx(res.norm_one_phonon[-1], rel=0.02)


# the norm-ceiling counterexample of test_properties, where the p grid's
# geometric tail aliases the joint (dk + dp) line
ALIAS_COUNTEREXAMPLE = replace(REFERENCE, mass_ratio=1.203125, coupling_ratio=2.25)


def rate_equation_norms(rates, times):
    """N_1 and N_2 of the Markov rate equations of the cascade, d|a|^2/dt =
    -gamma_1 |a|^2 and dN_1/dt = gamma_1 |a|^2 - gamma_0 N_1 from |a|^2 = 1."""
    g0, g1 = rates.gamma_0, rates.gamma_1
    n_1 = g1 / (g0 - g1) * (np.exp(-g1 * times) - np.exp(-g0 * times))
    return n_1, 1.0 - np.exp(-g1 * times) - n_1


@pytest.mark.parametrize("params", [REFERENCE, ALIAS_COUNTEREXAMPLE],
                         ids=["closed", "alias-counterexample"])
def test_one_phonon_norm_follows_the_rate_equations(params):
    """N_1 on the grids against the Markov limit at t = (1, 2, 3, 4, 5)/gamma_1.

    The couplings are not flat across the lines, so the two differ a little:
    at most 0.070% at REFERENCE and 0.116% at the counterexample, measured
    before the cascade's sums moved to the lattice; the bound is 0.12%.
    """
    r = decay_rates(params)
    times = np.array([1.0, 2.0, 3.0, 4.0, 5.0]) / r.gamma_1
    res = cascade(params, times, rates=r)
    np.testing.assert_allclose(res.norm_one_phonon, rate_equation_norms(r, times)[0],
                               rtol=1.2e-3, atol=0)


def test_two_phonon_norm_follows_the_rate_equations_at_reference():
    """N_2 on the grids against the Markov limit at t = (0.5, 1, ..., 5)/gamma_1.

    At most 0.72% apart at REFERENCE (at t = 5/gamma_1), measured before the
    cascade's sums moved to the lattice; the bound is 0.8%.  At the alias
    counterexample N_2 is 3.9% off at t = 3/gamma_1 and is not checked: the
    tails alias the joint line there (the strict xfail in test_properties).
    """
    r = decay_rates(REFERENCE)
    times = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0]) / r.gamma_1
    res = cascade(REFERENCE, times, rates=r)
    np.testing.assert_allclose(res.norm_two_phonon, rate_equation_norms(r, times)[1],
                               rtol=8e-3, atol=0)


def test_first_line_peaks_at_resonance():
    r = decay_rates(REFERENCE)
    res = cascade(REFERENCE, [0.0], rates=r)  # the first line is the t -> infinity limit
    k_peak = res.k_grid[int(np.argmax(res.first_line))]
    k_res = resonant_wavevector(r.omega_1)
    assert k_peak == pytest.approx(k_res, abs=5.0 * (r.gamma_0 + r.gamma_1))


def test_cascade_rejects_negative_times():
    with pytest.raises(ValueError):
        cascade(REFERENCE, np.array([-1.0, 0.0]))


@pytest.mark.parametrize(
    "times",
    [
        np.array([0.0, float("nan")]),
        np.array([0.0, float("inf")]),
        np.array([float("-inf"), 1.0]),
        1.0,
        np.array([[0.0, 1.0], [2.0, 3.0]]),
    ],
    ids=["nan", "inf", "-inf", "scalar", "2-D"],
)
def test_cascade_requires_finite_one_dimensional_times(times):
    with pytest.raises(ValueError, match="times"):
        cascade(REFERENCE, times)


def test_cascade_keeps_no_grid_sized_array_and_peaks_below_one():
    """The lattice and strip sums: the traced peak stays below the bytes of
    one K x P float64 array, and the result holds none."""
    times = np.array([0.5, 1.0, 3.0]) / decay_rates(REFERENCE).gamma_1
    cascade(REFERENCE, times)  # first-call imports and caches out of the count
    tracemalloc.start()
    try:
        res = cascade(REFERENCE, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_points = len(res.k_grid) * len(res.p_grid)
    assert peak < 8 * grid_points, (peak, grid_points)
    kept = {name: value.size for name, value in vars(res).items() if isinstance(value, np.ndarray)}
    assert max(kept.values()) < grid_points, kept


def test_cascade_refuses_grid_near_equal_rates(tmp_path, capsys):
    """Near gamma_0 = gamma_1 the grids step at |gamma_0 - gamma_1| / 6:
    1e-4 above the crossing they would hold about 3e11 (k, p) points."""
    def rate_gap(ratio):
        rates = decay_rates(replace(REFERENCE, coupling_ratio=ratio))
        return rates.gamma_0 - rates.gamma_1

    crossing = find_root(rate_gap, 1.4, 1.6)
    params = replace(REFERENCE, coupling_ratio=crossing * (1.0 + 1e-4))
    with pytest.raises(NumericsError, match=r"cascade at gamma_0/gamma_1 = 1\.000.*K x P"):
        cascade(params, [0.0, 1.0])
    start = time.perf_counter()
    code = main(["decay", "--set", f"coupling_ratio={params.coupling_ratio!r}",
                 "--out", str(tmp_path / "decay")])
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert f"above {MAX_GRID_POINTS:.0e}" in capsys.readouterr().err


def test_emission_grid_resolves_line():
    center, width, narrow = 0.15, 1.3e-3, 3.1e-4
    grid = emission_grid(center, width, narrow)
    k_center = resonant_wavevector(center)
    # the grid must bracket the resonance and sample the core densely
    assert grid.min() < k_center < grid.max()
    omega = np.array([dispersion(float(k)) for k in grid])
    core = np.abs(omega - center) < 3.0 * width
    assert core.sum() > 10
    spacing = np.diff(omega)
    assert spacing[core[:-1]].max() < narrow / 3.0
