"""Driven three-level dynamics: Hamiltonian, Lindblad generator, steady states."""

import numpy as np
import pytest

from slowsound.bloch import (
    DriveConfig,
    drive_from_params,
    evolve_master_equation,
    ground_projector,
    hamiltonian,
    liouvillian,
    steady_state_lindblad,
    trace_distance,
    weak_probe_coherences,
)
from slowsound import bloch
from slowsound.decay import decay_rates
from slowsound.numerics import NumericsError
from slowsound.params import REFERENCE

RATES = decay_rates(REFERENCE)
DRIVE = drive_from_params(REFERENCE, RATES)


def random_density_matrix(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_drive_wiring():
    assert DRIVE.control_rabi == pytest.approx(
        REFERENCE.control_rabi_gamma0 * RATES.gamma_0, rel=1e-14
    )
    assert DRIVE.probe_rabi == pytest.approx(
        REFERENCE.probe_fraction * DRIVE.control_rabi, rel=1e-14
    )
    assert DRIVE.delta_mode == REFERENCE.delta_mode


def test_hamiltonian_hermitian():
    for det in (0.0, 0.5 * RATES.gamma_0, -3.0 * RATES.gamma_0):
        h = hamiltonian(DRIVE, det)
        assert h.shape == (3, 3)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_liouvillian_preserves_trace_and_hermiticity():
    """tr(L rho) = 0 and L maps hermitian onto hermitian for any state."""
    rng = np.random.default_rng(21)
    lio = liouvillian(RATES, DRIVE, 0.7 * RATES.gamma_0)
    for _ in range(5):
        rho = random_density_matrix(rng)
        drho = (lio @ rho.reshape(9)).reshape(3, 3)
        assert abs(np.trace(drho)) < 1e-15
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-15


def test_steady_state_is_a_fixed_point_and_physical():
    for det in (0.0, RATES.gamma_0, -2.0 * RATES.gamma_0):
        rho = steady_state_lindblad(RATES, DRIVE, det)
        lio = liouvillian(RATES, DRIVE, det)
        assert np.max(np.abs((lio @ rho.reshape(9)).reshape(3, 3))) < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_weak_probe_matches_lindblad():
    """First-order coherences against the full steady state at small probe."""
    dets = np.linspace(-3.0, 3.0, 11) * RATES.gamma_0
    rho_eg_weak = weak_probe_coherences(RATES, DRIVE, dets)
    for i, det in enumerate(dets):
        rho = steady_state_lindblad(RATES, DRIVE, float(det))
        # coherence between the probe-coupled excited state and the ground
        # state, to first order in the probe
        full = rho[1, 0]
        assert full == pytest.approx(rho_eg_weak[i], rel=0.01), det


def _mode(mode):
    return DriveConfig(DRIVE.probe_rabi, DRIVE.control_rabi, delta_mode=mode)


@pytest.mark.parametrize("mode", ["track", "fixed"])
def test_liouvillian_is_affine_in_detuning(mode):
    """L(Delta) = L0 + Delta L1 exactly, which the stacked steady states use."""
    drive = _mode(mode)
    l0 = liouvillian(RATES, drive, 0.0)
    l1 = liouvillian(RATES, drive, 1.0) - l0
    for det in np.linspace(-20.0, 20.0, 41) * RATES.gamma_0:
        assert np.array_equal(liouvillian(RATES, drive, det), l0 + det * l1), det


@pytest.mark.parametrize("mode", ["track", "fixed"])
def test_liouvillian_matches_kron_reference_bit_for_bit(mode):
    """The generator against its textbook np.kron form, the same products."""
    drive = _mode(mode)
    eye = np.eye(3, dtype=complex)
    c0 = np.zeros((3, 3), dtype=complex)
    c0[0, 1] = np.sqrt(RATES.gamma_0)
    c1 = np.zeros((3, 3), dtype=complex)
    c1[1, 2] = np.sqrt(RATES.gamma_1)
    for det in (0.0, 0.7 * RATES.gamma_0, -3.0 * RATES.gamma_0):
        h = hamiltonian(drive, det)
        ref = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for c in (c0, c1):
            cdc = c.conj().T @ c
            ref += np.kron(c, c.conj())
            ref -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        assert np.array_equal(liouvillian(RATES, drive, det), ref), det


@pytest.mark.parametrize("mode", ["track", "fixed"])
def test_stacked_steady_states_match_one_solve_per_detuning(mode):
    """Bit for bit against the null space of each L(Delta) solved alone."""
    drive = _mode(mode)
    dets = np.linspace(-20.0, 20.0, 200) * RATES.gamma_0
    stacked = steady_state_lindblad(RATES, drive, dets)
    assert stacked.shape == (200, 3, 3)
    for det, rho in zip(dets, stacked):
        mat = liouvillian(RATES, drive, det)
        mat[0, :] = 0.0
        mat[0, [0, 4, 8]] = 1.0
        alone = np.linalg.solve(mat, np.eye(9)[0]).reshape(3, 3)
        assert np.array_equal(rho, alone), det
        assert np.array_equal(rho, steady_state_lindblad(RATES, drive, float(det))), det


def test_singular_point_raises(monkeypatch):
    """One singular system in the stack: no steady state is made up for it,
    the sweep raises."""
    dets = np.array([-1.0, 0.0, 1.0]) * RATES.gamma_0
    true_solve = bloch.solve_dense

    def dead_middle(mat, rhs):
        mat = mat.copy()
        mat[1, 1:] = 0.0
        return true_solve(mat, rhs)

    monkeypatch.setattr(bloch, "solve_dense", dead_middle)
    with pytest.raises(NumericsError, match="1 of 3 dense solves"):
        steady_state_lindblad(RATES, DRIVE, dets)


def test_weak_probe_error_shrinks_with_probe():
    errs = []
    for frac in (0.1, 0.01, 0.001):
        drive = DriveConfig(
            probe_rabi=frac * DRIVE.control_rabi,
            control_rabi=DRIVE.control_rabi,
            delta_mode=DRIVE.delta_mode,
        )
        weak = weak_probe_coherences(RATES, drive, np.array([0.5 * RATES.gamma_0]))
        rho = steady_state_lindblad(RATES, drive, 0.5 * RATES.gamma_0)
        errs.append(abs(rho[1, 0] - weak[0]) / abs(weak[0]))
    assert errs[0] > errs[1] > errs[2]


def test_evolution_preserves_trace_and_relaxes():
    times = np.array([0.0, 0.5, 20.0]) / RATES.gamma_0
    traj = evolve_master_equation(RATES, DRIVE, 0.0, ground_projector(), times)
    for rho in traj:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    target = steady_state_lindblad(RATES, DRIVE, 0.0)
    assert trace_distance(traj[-1], target) < 1e-4
    # and it must actually move at early times
    assert trace_distance(traj[0], target) > trace_distance(traj[-1], target)


def test_trace_distance_extremes():
    a = np.diag([1.0, 0.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-12)


def test_ground_projector_properties():
    p = ground_projector()
    assert np.trace(p) == pytest.approx(1.0)
    assert np.max(np.abs(p @ p - p)) < 1e-15


def test_zero_control_doublet_collapses():
    """With the control off, the system is a two-level absorber: the
    steady coherence must follow a single Lorentzian line in detuning."""
    drive = DriveConfig(probe_rabi=1e-3 * RATES.gamma_0, control_rabi=0.0,
                        delta_mode=DRIVE.delta_mode)
    dets = np.linspace(-4.0, 4.0, 41) * RATES.gamma_0
    co = weak_probe_coherences(RATES, drive, dets)
    absorption = np.imag(co)
    peak = int(np.argmax(absorption))
    assert abs(dets[peak]) <= dets[1] - dets[0]
    # single maximum: strictly rising then strictly falling
    assert np.all(np.diff(absorption[: peak + 1]) > 0)
    assert np.all(np.diff(absorption[peak:]) < 0)
