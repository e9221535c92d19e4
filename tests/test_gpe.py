"""Checks for the mean-field fields, the frozen-well eigensolve and the
coupled relaxation.

The tanh pair is checked against the stationary field equation with a
spectral second derivative; the frozen-well eigensolve is compared
against the closed-form ladder and checked as an eigenproblem by an
FFT-applied Hamiltonian, and the imaginary-time relaxation of the
coupled pair against the bare tanh pair and its own step-size scaling.
"""
import dataclasses
import math

import numpy as np

from slowsound.gpe import (
    coupled_ground_state,
    frozen_well,
    gaussian_packet,
    soliton_pair,
    well_eigenstates,
)
from slowsound.numerics import Grid1D
from slowsound.params import REFERENCE
from slowsound.qutrit import spectrum


GRID = Grid1D(256, 60.0)


def mean_x2(field):
    return float(np.sum(field.grid.x ** 2 * field.density) * field.grid.dx)


def mean_p2(field):
    spec = np.fft.fft(field.psi)
    weight = np.abs(spec) ** 2
    return float(np.sum(weight * field.grid.k ** 2) / np.sum(weight))


def test_gaussian_packet_moments():
    packet = gaussian_packet(GRID, center=0.0, width=1.5)
    assert abs(packet.norm - 1.0) < 1e-12
    # minimum-uncertainty pair: <x^2> = w^2, <p^2> = 1/(4 w^2)
    assert abs(mean_x2(packet) - 2.25) < 1e-9
    assert abs(mean_p2(packet) - 1.0 / 9.0) < 1e-9


def test_tanh_pair_is_stationary():
    # each tanh notch is the standing dark soliton, so the pair solves the
    # stationary field equation -psi''/2 + (g11 |psi|^2 - 1) psi = 0 up to
    # the e^-L overlap of the tails; the residual is spectral roundoff
    # (4.5e-12), while a notch 0.1% too wide leaves 7.7e-4
    grid = Grid1D(512, 60.0)
    psi = soliton_pair(REFERENCE, grid).psi
    d2psi = np.fft.ifft(-grid.k ** 2 * np.fft.fft(psi))
    residual = -0.5 * d2psi + (REFERENCE.g11 * np.abs(psi) ** 2 - 1.0) * psi
    assert float(np.max(np.abs(residual))) < 1e-10 * math.sqrt(REFERENCE.density_xi)


def test_frozen_well_closed_form():
    nu, rm = 1.1, 1.4
    well = frozen_well(GRID, nu, rm, center=2.0)
    expected = -nu * (nu + 1.0) / (2.0 * rm) / np.cosh(GRID.x - 2.0) ** 2
    assert float(np.max(np.abs(well - expected))) == 0.0


def test_well_ladder_from_descent():
    grid = Grid1D(512, 60.0)
    report = well_eigenstates(REFERENCE, 2, grid=grid)
    ladder = spectrum(REFERENCE)
    assert report.bound.all()
    for n in range(2):
        assert abs(report.energies[n] - ladder.energies[n]) < 1e-3
        assert report.overlap_with_analytic(n) > 0.999
        assert report.residuals[n] < 1e-10
    # the eigensolve knows nothing of the closed-form ladder, so the
    # near-exact ground energy is a genuine cross-check
    assert abs(report.energies[0] - ladder.energies[0]) < 1e-9


def test_threshold_state_reported_not_raised():
    # at nu = 1 the first excited level sits exactly at the continuum
    # edge; the eigensolve must hand it back as a delocalized state
    # flagged unbound instead of raising
    grid = Grid1D(512, 60.0)
    report = well_eigenstates(REFERENCE, 2, grid=grid, nu=1.0)
    assert abs(report.energies[0] + 1.0 / (2.0 * REFERENCE.mass_ratio)) < 1e-6
    assert abs(report.energies[1]) < 0.01
    assert not report.bound[1]
    assert report.residuals[0] < 1e-12


def test_well_states_solve_fft_hamiltonian():
    # independent of the dense matrix the solver builds: apply H by FFT
    # to every returned state and check the eigen-equation and the
    # orthonormality the grid inner product promises
    grid = Grid1D(512, 60.0)
    report = well_eigenstates(REFERENCE, 3, grid=grid)
    well = frozen_well(grid, REFERENCE.nu, REFERENCE.mass_ratio)
    for energy, psi in zip(report.energies, report.states):
        h_psi = np.fft.ifft(
            grid.k ** 2 / (2.0 * REFERENCE.mass_ratio) * np.fft.fft(psi)
        ) + well * psi
        residual = math.sqrt(float(np.sum(np.abs(h_psi - energy * psi) ** 2) * grid.dx))
        assert residual < 1e-10
    gram = report.states.conj() @ report.states.T * grid.dx
    assert float(np.max(np.abs(gram - np.eye(3)))) < 1e-12


def test_well_state_signs_follow_the_ladder():
    # the odd state peaks equally at +-x; on this grid the eigensolver's
    # rounding puts the larger |psi| at -x, so a sign read over the whole
    # grid would flip it.  The ladder's shapes sech^nu x and
    # sech^(nu-1) x tanh x are both positive on x > 0.
    grid = Grid1D(1024, 80.0)
    report = well_eigenstates(REFERENCE, 2, grid=grid)
    core = (grid.x > 0.0) & (grid.x < 5.0)
    assert np.all(report.states[:, core] > 0.0)


def test_tanh_pair_recovered_without_impurity():
    """With no impurity the relaxation must hand back the seed profile;
    the fixed-point bias of the splitting is O(dtau^2), so a small step
    and a tight gate push the recovery below 1e-8."""
    grid = Grid1D(512, 60.0)
    params = dataclasses.replace(REFERENCE, impurity_number=1e-12)
    state = coupled_ground_state(
        params, grid, dtau=2.5e-4, max_steps=1000000, drift_tol=1e-13
    )
    assert state.deformation < 1e-8
    assert not state.strong_backreaction


def test_fixed_point_bias_is_second_order():
    grid = Grid1D(512, 60.0)
    params = dataclasses.replace(REFERENCE, impurity_number=1e-12)
    coarse = coupled_ground_state(params, grid, dtau=0.01, max_steps=400000)
    fine = coupled_ground_state(params, grid, dtau=0.005, max_steps=400000)
    assert 3.5 < coarse.deformation / fine.deformation < 4.5


def test_dilute_impurity_deformation_below_percent():
    grid = Grid1D(512, 60.0)
    params = dataclasses.replace(
        REFERENCE, impurity_number=0.01 * REFERENCE.density_xi
    )
    state = coupled_ground_state(params, grid)
    assert state.deformation < 0.01
    assert not state.strong_backreaction


def test_deformation_monotone_in_impurity_load():
    grid = Grid1D(512, 60.0)
    loads = [0.01, 0.1, 0.25, 0.5, 1.0]
    states = [
        coupled_ground_state(
            dataclasses.replace(REFERENCE, impurity_number=f * REFERENCE.density_xi),
            grid,
        )
        for f in loads
    ]
    deformations = [s.deformation for s in states]
    assert all(a < b for a, b in zip(deformations, deformations[1:]))
    # heavy loading pools the impurity in the notch and deepens it past
    # the 20% flag; moderate loading must stay unflagged
    assert not states[-2].strong_backreaction
    assert states[-1].strong_backreaction
    # impurity binds deeper as its own weight deepens the well
    energies = [s.impurity_energy for s in states]
    assert all(a > b for a, b in zip(energies, energies[1:]))
