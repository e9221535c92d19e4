"""Phonon branch and soliton-frame mode profiles."""

import numpy as np
import pytest
from trapezoid_oracle import BogoliubovMode

from slowsound.bogoliubov import dispersion, dispersion_derivative, resonant_wavevector
from slowsound.numerics import NumericsError


def test_dispersion_landmarks():
    # gapless branch: eps(k) = k sqrt(k^2 + 2), sound slope sqrt(2)
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(np.sqrt(3.0), rel=1e-14)
    assert dispersion(1e-8) / 1e-8 == pytest.approx(np.sqrt(2.0), rel=1e-8)
    # free-particle limit: eps -> k^2 for large k
    assert dispersion(400.0) == pytest.approx(400.0 ** 2, rel=1e-4)


def test_dispersion_monotone():
    k = np.linspace(0.001, 8.0, 400)
    eps = np.array([dispersion(float(q)) for q in k])
    assert np.all(np.diff(eps) > 0)


def test_dispersion_derivative_matches_finite_difference():
    for k in (0.05, 0.34, 1.0, 2.7):
        fd = (dispersion(k + 1e-7) - dispersion(k - 1e-7)) / 2e-7
        assert dispersion_derivative(k) == pytest.approx(fd, rel=1e-6)


def test_resonant_wavevector_roundtrip():
    # relative tolerances only: pytest.approx's absolute floor of 1e-12
    # would pass anything at omega = 1e-10
    omegas = (1e-10, 1e-6, 1e-3, 0.01, 0.33, 0.494, 2.0, 11.0, 1e3)
    for omega in omegas:
        k = resonant_wavevector(omega)
        assert dispersion(k) == pytest.approx(omega, rel=1e-14, abs=0.0)
    # sound-slope limit: eps ~ sqrt(2) k, so k -> omega / sqrt(2)
    assert resonant_wavevector(1e-10) == pytest.approx(1e-10 / np.sqrt(2.0), rel=1e-14, abs=0.0)
    # an array inverts elementwise
    ks = resonant_wavevector(np.array(omegas))
    np.testing.assert_allclose(dispersion(ks), omegas, rtol=1e-14, atol=0.0)


def test_resonant_wavevector_rejects_nonpositive():
    with pytest.raises((ValueError, NumericsError)):
        resonant_wavevector(-0.5)


def test_mode_profiles_far_field():
    """Far from the soliton the mode is a plane wave: constant moduli and
    |u|^2 - |v|^2 equal to the stated per-length normalization."""
    for k in (0.35, 0.7, 1.4):
        mode = BogoliubovMode(k)
        u30, v30 = mode.u(30.0), mode.v(30.0)
        u35, v35 = mode.u(35.0), mode.v(35.0)
        assert abs(u30) == pytest.approx(abs(u35), rel=1e-9)
        assert abs(v30) == pytest.approx(abs(v35), rel=1e-9)
        norm = abs(u30) ** 2 - abs(v30) ** 2
        eps = dispersion(k)
        assert norm == pytest.approx(k ** 2 * (k ** 2 + 4.0) / (2.0 * np.pi * eps), rel=1e-9)


def test_mode_profiles_deform_near_soliton():
    mode = BogoliubovMode(0.7)
    # the soliton notch must actually imprint on the amplitudes
    assert abs(abs(mode.u(0.0)) - abs(mode.u(30.0))) > 1e-3


def test_mode_energy_field():
    mode = BogoliubovMode(0.52)
    assert mode.energy == pytest.approx(dispersion(0.52), rel=1e-14)
    assert mode.k == 0.52


def test_hole_amplitude_strictly_subdominant():
    # positive mode norm requires |v| < |u| pointwise in the far field,
    # whatever the per-length normalization does with overall growth
    for k in np.linspace(0.2, 9.0, 23):
        mode = BogoliubovMode(float(k))
        assert abs(mode.v(25.0)) < abs(mode.u(25.0)), k
