"""Property checks drawn across the qutrit window.

Each draw picks a mass ratio and a coupling ratio inside the window at
that mass ratio.  The response check adds a control Rabi frequency, a
soliton concentration and a two-photon convention, and checks every point
of its default detuning grid with one stacked Lindblad solve: the steady
states are physical, and the weak-probe chi is passive.  The coupling
check adds a wavevector and sets the exact overlap sums of all five state
pairs against the trapezoid oracle, parity classes included.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapezoid_oracle import trapezoid_coupling

from slowsound.bloch import steady_state_lindblad
from slowsound.coupling import g_quadrature
from slowsound.params import REFERENCE
from slowsound.qutrit import qutrit_window_in_coupling_ratio
from slowsound.response import susceptibility_curve


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
