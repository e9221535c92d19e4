"""Impurity spectrum in the soliton well: window, ladder, wavefunctions.

The quadrature oracle here is a dense trapezoid on a wide interval; the
bound shapes decay like sech(x)^(nu-n) times polynomials, so +-60 healing
lengths is far past any support that matters at these tolerances.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from slowsound.params import REFERENCE, coupling_ratio_for_nu
from slowsound.qutrit import (
    QUTRIT_NU_MAX,
    QUTRIT_NU_MIN,
    ImpurityStates,
    NotAQutrit,
    QutritSpectrum,
    bound_state_count,
    is_qutrit,
    poschl_teller_state,
    qutrit_window_in_coupling_ratio,
    spectrum,
)

X = np.linspace(-60.0, 60.0, 240001)
DX = X[1] - X[0]


def overlap(f, g):
    return float(np.trapezoid(f(X) * g(X), X))


# -- window arithmetic ----------------------------------------------------

def test_window_boundaries_exact():
    assert QUTRIT_NU_MIN == pytest.approx(4.0 / 5.0, abs=0.0)
    assert QUTRIT_NU_MAX == pytest.approx(9.0 / 7.0, abs=0.0)
    assert bound_state_count(4.0 / 5.0) == 3
    assert bound_state_count(9.0 / 7.0) == 4
    assert is_qutrit(4.0 / 5.0)
    assert not is_qutrit(9.0 / 7.0)


def test_window_interior_and_exterior():
    rng = np.random.default_rng(42)
    for nu in rng.uniform(4.0 / 5.0, 9.0 / 7.0, size=100):
        if nu < 9.0 / 7.0:
            assert is_qutrit(nu), nu
            assert bound_state_count(nu) == 3, nu
    assert not is_qutrit(0.79)
    assert not is_qutrit(1.30)
    assert bound_state_count(0.5) < 3
    assert bound_state_count(1.9) > 3


def test_window_in_coupling_ratio_roundtrip():
    lo, hi = qutrit_window_in_coupling_ratio(1.56)
    # the edges must map back onto the rational nu boundaries
    from slowsound.params import nu_from_ratios

    assert nu_from_ratios(lo, 1.56) == pytest.approx(4.0 / 5.0, rel=1e-12)
    assert nu_from_ratios(hi, 1.56) == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert lo < REFERENCE.coupling_ratio < hi


# -- energy ladder --------------------------------------------------------

def test_spectrum_ladder_arithmetic():
    """Transition frequencies recomputed from the energy ladder itself."""
    spec = spectrum(REFERENCE)
    assert isinstance(spec, QutritSpectrum)
    nu, rm = spec.nu, REFERENCE.mass_ratio
    energies = [-((nu - n) ** 2) / (2.0 * rm) for n in range(3)]
    assert np.allclose(spec.energies, energies, rtol=1e-13)
    # omega_0 is the 0->1 gap; omega_1 the magnitude of the 1->2 gap
    assert spec.omega_0 == pytest.approx(energies[1] - energies[0], rel=1e-13)
    assert spec.omega_0 == pytest.approx((2.0 * nu - 1.0) / (2.0 * rm), rel=1e-13)
    assert spec.omega_1 == pytest.approx(abs(2.0 * nu - 3.0) / (2.0 * rm), rel=1e-13)
    assert spec.n_bound == 3


def test_spectrum_outside_window():
    res = spectrum(replace(REFERENCE, coupling_ratio=0.5))
    assert isinstance(res, NotAQutrit)
    assert res.n_bound != 3
    res_hi = spectrum(replace(REFERENCE, coupling_ratio=3.0))
    assert isinstance(res_hi, NotAQutrit)


def test_spectrum_at_window_edges_in_coupling_ratio():
    lo, hi = qutrit_window_in_coupling_ratio(REFERENCE.mass_ratio)
    assert isinstance(spectrum(replace(REFERENCE, coupling_ratio=lo)), QutritSpectrum)
    assert isinstance(spectrum(replace(REFERENCE, coupling_ratio=hi)), NotAQutrit)


# -- bound-state shapes ---------------------------------------------------

def test_poschl_teller_states_normalized():
    nu = REFERENCE.nu
    for n in (0, 1):
        profile, _ = poschl_teller_state(n, nu)
        assert overlap(profile, profile) == pytest.approx(1.0, rel=1e-8)


def test_poschl_teller_parity():
    nu = REFERENCE.nu
    even, _ = poschl_teller_state(0, nu)
    odd, _ = poschl_teller_state(1, nu)
    assert np.allclose(even(X), even(-X), atol=1e-12)
    assert np.allclose(odd(X), -odd(-X), atol=1e-12)
    assert odd(0.0) == pytest.approx(0.0, abs=1e-12)


def test_poschl_teller_requires_bound_nu():
    with pytest.raises(ValueError):
        poschl_teller_state(2, 1.2)  # nu <= n: no normalizable shape
    with pytest.raises(ValueError):
        poschl_teller_state(1, 0.9999)


def test_poschl_teller_solves_schroedinger():
    """Rayleigh quotient of the closed-form shape against its own ladder.

    Second derivative by central differences on a fine grid; the state
    solves -psi''/(2 r_m) - nu(nu+1)/(2 r_m) sech^2 psi = E psi.
    """
    nu, rm = 1.22, 1.56
    for n in (0, 1):
        profile, _ = poschl_teller_state(n, nu)
        x = np.linspace(-45.0, 45.0, 90001)
        h = x[1] - x[0]
        psi = profile(x)
        d2 = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2
        v = -nu * (nu + 1.0) / (2.0 * rm) / np.cosh(x[1:-1]) ** 2
        h_psi = -d2 / (2.0 * rm) + v * psi[1:-1]
        e_rayleigh = np.trapezoid(psi[1:-1] * h_psi, x[1:-1])
        e_expected = -((nu - n) ** 2) / (2.0 * rm)
        # tolerance set by the O(h^2) central-difference truncation and the
        # slowly decaying sech^(nu-1) tail of the odd state
        assert e_rayleigh == pytest.approx(e_expected, rel=1e-5)


# -- assembled state family ------------------------------------------------

def test_wavefunctions_orthonormal():
    states = ImpurityStates(REFERENCE)
    gram = np.array([[overlap(states[i], states[j]) for j in range(3)] for i in range(3)])
    assert np.allclose(gram, np.eye(3), atol=1e-7)


def test_wavefunctions_parity():
    states = ImpurityStates(REFERENCE)
    assert np.allclose(states[0](X), states[0](-X), atol=1e-10)
    assert np.allclose(states[1](X), -states[1](-X), atol=1e-10)
    assert np.allclose(states[2](X), states[2](-X), atol=1e-10)


def test_normalization_report_structure():
    """The even ground state's closed-form constant is trusted; the others
    are recorded with their quadrature replacements."""
    report = ImpurityStates(REFERENCE).normalization_report()
    consts = {row["state"]: row for row in report["constants"]}
    assert consts[0]["relative_deviation"] < 1e-8
    # states 1 and 2 carry known closed-form/quadrature disagreements;
    # the report must expose them rather than hide them
    assert consts[1]["relative_deviation"] > 0.01
    assert consts[2]["relative_deviation"] > 0.01
    assert report["orthogonalized"] is True
    assert abs(report["overlap_raw_02"]) > 0.01


def test_wavefunctions_localized():
    states = ImpurityStates(REFERENCE)
    for n in range(3):
        tail = abs(states[n](25.0))
        core = abs(states[n](0.0)) + abs(states[n](0.7))
        assert tail < 1e-4 * core
