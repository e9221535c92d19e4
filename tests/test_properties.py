"""Property checks drawn across the qutrit window.

Each draw picks a mass ratio and a coupling ratio inside the window at
that mass ratio.  The response check adds a control Rabi frequency, a
soliton concentration and a two-photon convention, and checks every point
of its default detuning grid with one stacked Lindblad solve: the steady
states are physical, and the weak-probe chi is passive.  The coupling
check adds a wavevector and sets the exact overlap sums of all five state
pairs against the trapezoid oracle, parity classes included.  The grid
check sets the default detuning grid against the loop it replaced
(detuning_grid_oracle), bit for bit, up to controls where the step floor
binds.  The kernel check sets the in-place weak-probe coherence and chi
against the out-of-place route through weak_probe_denominator, bit for
bit, on arrays that hold Delta = 0 and on one Python-float detuning.
The group-velocity check finds v_g at zero detuning finite and
positive wherever the track-mode sweep has a transparency window.  The
cascade checks keep the total norm above its 0.98 floor at
three sample times, or see the grid refused near gamma_0 = gamma_1, and
set the cascade's lattice and strip sums against their direct routes at
the same times; the norm's 1.005 ceiling fails where the grids' tails
alias, a strict xfail.
The last check runs pytest, under this repository's settings, on a toy
failing hypothesis test: the failure must be reported, and the session
must go on to the next test.
"""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detuning_grid_oracle import oracle_detunings
from test_decay import ALIAS_COUNTEREXAMPLE, direct_first_line, direct_two_phonon_norm
from trapezoid_oracle import trapezoid_coupling

from slowsound import response
from slowsound.bloch import (
    drive_from_params,
    steady_state_lindblad,
    weak_probe_coherences,
    weak_probe_denominator,
)
from slowsound.bogoliubov import dispersion
from slowsound.coupling import g_quadrature
from slowsound.decay import MAX_GRID_POINTS, cascade, decay_rates
from slowsound.numerics import NumericsError
from slowsound.params import REFERENCE
from slowsound.qutrit import qutrit_window_in_coupling_ratio
from slowsound.response import (
    NoTransparency,
    group_velocity_curve,
    susceptibility_at_rates,
    susceptibility_curve,
    transparency_width,
)


@st.composite
def window_point(draw):
    mass_ratio = draw(st.floats(1.0, 2.0))
    lo, hi = qutrit_window_in_coupling_ratio(mass_ratio)
    coupling_ratio = draw(st.floats(lo, hi, exclude_max=True))
    return replace(REFERENCE, mass_ratio=mass_ratio, coupling_ratio=coupling_ratio)


@st.composite
def window_params(draw):
    return replace(
        draw(window_point()),
        control_rabi_gamma0=10.0 ** draw(st.floats(-1.0, 2.0)),
        soliton_concentration=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        delta_mode=draw(st.sampled_from(["track", "fixed"])),
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(window_params())
def test_steady_states_physical_and_chi_passive_on_default_grid(params):
    curve = susceptibility_curve(params)
    rho = steady_state_lindblad(curve.rates, curve.drive, curve.detunings)
    # steady_state_lindblad's own validation tolerance, checked here directly
    tol = 1e-8
    assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) <= tol
    rho_h = np.conj(np.swapaxes(rho, 1, 2))
    assert np.max(np.abs(rho - rho_h)) <= tol
    assert np.min(np.linalg.eigvalsh(0.5 * (rho + rho_h))) >= -tol
    assert np.all(curve.absorption >= 0.0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(window_point(), st.floats(0.05, 8.0))
def test_exact_couplings_match_trapezoid_oracle_and_keep_parity(params, k):
    for l, lp in ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2)):
        g = g_quadrature(l, lp, k, params)
        assert g == pytest.approx(trapezoid_coupling(l, lp, k, params), rel=1e-8), (l, lp)
        # odd state pairs give real elements, even pairs imaginary ones
        assert abs(g.real if l == lp else g.imag) <= 1e-12 * abs(g), (l, lp)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(window_params().map(lambda params: replace(params, delta_mode="track")))
def test_group_velocity_at_zero_detuning_is_positive_inside_a_window(params):
    # a window alone decides it: the control's threshold against
    # sqrt(gamma_0 gamma_1) does not (no window and a flagged v_g(0) were
    # seen with controls up to 2.3 sqrt(gamma_0 gamma_1) / gamma_0)
    curve = susceptibility_curve(params)
    if isinstance(transparency_width(curve), NoTransparency):
        return
    vg = group_velocity_curve(curve).at_center
    assert math.isfinite(vg) and vg > 0.0, vg


def grids(params):
    """The default detuning grid at params, and the oracle's."""
    rates = decay_rates(params)
    drive = drive_from_params(params, rates)
    return response._default_detunings(rates, drive), oracle_detunings(rates, drive)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(window_point(), st.floats(-1.0, 3.5), st.sampled_from(["track", "fixed"]))
@example(REFERENCE, 3.5, "track")
# line widths of about 1e-202, whose squares underflow in absolute units
@example(replace(REFERENCE, density_xi=1e200), math.log10(4.5), "track")
def test_default_grid_equals_the_list_minimum_loop_bit_for_bit(point, log_control, mode):
    params = replace(point, control_rabi_gamma0=10.0**log_control, delta_mode=mode)
    grid, expected = grids(params)
    assert np.array_equal(np.signbit(grid), np.signbit(expected))
    assert grid.tobytes() == expected.tobytes()


def test_step_floor_binds_at_the_top_of_the_drawn_controls():
    grid, _ = grids(replace(REFERENCE, control_rabi_gamma0=10.0**3.5))
    floor = 1e-6 * grid[-1]
    assert np.min(np.diff(grid)) == pytest.approx(floor, rel=1e-9)


def bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(window_params(), st.lists(st.floats(-50.0, 50.0), max_size=8), st.floats(-50.0, 50.0))
def test_in_place_kernel_equals_the_denominator_route_bit_for_bit(params, scaled, one):
    rates = decay_rates(params)
    drive = drive_from_params(params, rates)
    prefactor = params.soliton_concentration * rates.carrier_coupling / float(
        dispersion(rates.carrier_k))
    # every default grid holds Delta = 0, so each array here does too
    arrays = [rates.gamma_0 * np.array([0.0, *scaled]), response._default_detunings(rates, drive)]
    for detunings in (*arrays, one * rates.gamma_0):
        rho = weak_probe_coherences(rates, drive, detunings)
        direct = 1j * drive.probe_rabi / weak_probe_denominator(rates, drive, detunings)[0]
        assert np.ndim(rho) == np.ndim(detunings)
        assert np.array_equal(bits(rho), bits(direct))
        chi = susceptibility_at_rates(params, rates, detunings).chi
        assert np.array_equal(bits(chi), bits(prefactor * direct / drive.probe_rabi))


def cascade_at_three_times(params):
    """cascade(params) at t = (0, 1, 3)/gamma_1."""
    rates = decay_rates(params)
    return cascade(params, np.array([0.0, 1.0, 3.0]) / rates.gamma_1, rates=rates)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(window_point())
# 1e-4 above gamma_0 = gamma_1, where the grids would hold about 3e11 points
@example(replace(REFERENCE, coupling_ratio=1.49753))
def test_cascade_norm_keeps_its_floor_or_grid_is_refused(params):
    try:
        res = cascade_at_three_times(params)
    except NumericsError as exc:
        assert f"above {MAX_GRID_POINTS:.0e}" in str(exc)
        return
    assert res.norm_two_phonon[0] == 0.0
    assert np.all(res.norm_total > 0.98), res.norm_total


# Largest grid the direct routes below are built on: each holds a few
# complex K x P arrays, 50 MB at 1e6 points.  Larger grids lie in the band
# around gamma_0 = gamma_1, where the cascade's sums run the same code paths.
DIRECT_GRID_POINTS = 10 ** 6


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(window_point())
# its k grid's lower tail is clipped at omega > 1e-12
@example(ALIAS_COUNTEREXAMPLE)
@example(replace(REFERENCE, coupling_ratio=1.49753))  # refused
def test_cascade_sums_match_their_direct_routes_across_the_window(params):
    """The lattice and strip sums against the direct routes of test_decay:
    the two-phonon norm against the trapezoid sum of |b_kp(t)|^2 from
    direct_two_phonon_amplitudes, and the first line against its direct sum
    over p, at the rtol 1e-12 of the fixed-point tests."""
    try:
        res = cascade_at_three_times(params)
    except NumericsError as exc:
        assert f"above {MAX_GRID_POINTS:.0e}" in str(exc)
        return
    assume(len(res.k_grid) * len(res.p_grid) <= DIRECT_GRID_POINTS)
    np.testing.assert_allclose(res.norm_two_phonon[1:],
                               direct_two_phonon_norm(params, res, res.times[1:]),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.first_line, direct_first_line(params, res),
                               rtol=1e-12, atol=0)


# The norm's ceiling does not hold across the window: the geometric tails
# of the emission grids alias the joint (dk + dp) line of width gamma_1.
# Uniform grids over the same span give 0.9963 at t = 3/gamma_1 here.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the emission grids' geometric tails alias the joint line")
def test_cascade_norm_keeps_its_ceiling_where_the_tails_alias():
    res = cascade_at_three_times(ALIAS_COUNTEREXAMPLE)
    assert np.all(res.norm_total < 1.005), res.norm_total


TOY_SESSION = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_does_not_abort_the_session(tmp_path):
    # with filterwarnings = error, a DeprecationWarning raised inside the
    # hypothesis plugin while it reports a failure ended the session with
    # INTERNALERROR, and no later test ran
    (tmp_path / "test_toy.py").write_text(TOY_SESSION)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_toy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
