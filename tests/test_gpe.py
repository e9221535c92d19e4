"""Split-step propagator and relaxation checks for the field solvers.

Real-time tests lean on exactly solvable limits (free flight, the
stationary tanh pair, two-level beats, a conserved energy functional);
the frozen-well eigensolve is compared against the closed-form ladder
and checked as an eigenproblem by an FFT-applied Hamiltonian, and the
imaginary-time relaxation of the coupled pair against the bare tanh pair
and its own step-size scaling.
"""
import dataclasses
import math

import numpy as np
import pytest

from slowsound.gpe import (
    Field1D,
    coupled_ground_state,
    evolve_condensate,
    evolve_coupled,
    evolve_impurity,
    frozen_well,
    gaussian_packet,
    soliton_pair,
    well_eigenstates,
)
from slowsound.numerics import Grid1D
from slowsound.params import REFERENCE
from slowsound.qutrit import poschl_teller_state, spectrum


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


def test_free_flight_matches_exact_propagator():
    # with the potential identically zero the split-step factors
    # commute, so the walker must agree with the one-shot Fourier
    # propagator to roundoff -- this pins the kinetic phase, the mass,
    # and the step-count bookkeeping all at once
    packet = gaussian_packet(GRID, center=0.0, width=1.5)
    t_final = 1.0
    moved = evolve_impurity(
        packet, REFERENCE, t_final, potential=np.zeros(GRID.npoints)
    )
    one_shot = np.fft.ifft(
        np.exp(-0.5j * t_final * GRID.k ** 2 / REFERENCE.mass_ratio)
        * np.fft.fft(packet.psi)
    )
    assert float(np.max(np.abs(moved.psi - one_shot))) < 1e-12

    # ballistic spreading: <x^2>(t) = <x^2>(0) + t^2 <p^2>(0) / m^2
    predicted = mean_x2(packet) + t_final ** 2 * mean_p2(packet) / REFERENCE.mass_ratio ** 2
    assert abs(mean_x2(moved) / predicted - 1.0) < 1e-9


def test_stationary_soliton_holds_shape():
    """The tanh pair is an exact standing solution; the only density
    drift left at finite dt is the bounded second-order splitting
    wobble, which a small enough step pushes below 1e-8 over t = 50."""
    soliton = soliton_pair(REFERENCE, GRID)
    out = evolve_condensate(soliton, REFERENCE, 50.0, dt=2.5e-4)
    drift = float(np.max(np.abs(out.density - soliton.density)) / REFERENCE.density_xi)
    assert drift < 1e-8


def test_soliton_wobble_scales_second_order():
    soliton = soliton_pair(REFERENCE, GRID)

    def drift(dt):
        out = evolve_condensate(soliton, REFERENCE, 50.0, dt=dt)
        return float(np.max(np.abs(out.density - soliton.density)) / REFERENCE.density_xi)

    coarse = drift(0.00549)
    fine = drift(0.001)
    assert fine < 1e-7
    # dt ratio 5.49 -> error ratio ~30 for a second-order scheme
    assert 20.0 < coarse / fine < 45.0


def test_frozen_well_closed_form():
    nu, rm = 1.1, 1.4
    well = frozen_well(GRID, nu, rm, center=2.0)
    expected = -nu * (nu + 1.0) / (2.0 * rm) / np.cosh(GRID.x - 2.0) ** 2
    assert float(np.max(np.abs(well - expected))) == 0.0


def test_two_level_beat_frequency():
    # a superposition of the lowest two well states slashes across the
    # well at the transition frequency; zero crossings of <x>(t) give a
    # propagator-independent readout of omega_0
    grid = Grid1D(256, 32.0)
    ladder = spectrum(REFERENCE)
    psi = np.zeros(grid.npoints, dtype=complex)
    for n in (0, 1):
        profile, _ = poschl_teller_state(n, REFERENCE.nu)
        sampled = profile(grid.x).astype(complex)
        sampled /= math.sqrt(float(np.sum(np.abs(sampled) ** 2) * grid.dx))
        psi += sampled
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))

    times, centers = [], []

    def watch(t, state):
        times.append(t)
        centers.append(float(np.sum(grid.x * np.abs(state) ** 2) * grid.dx))

    evolve_impurity(Field1D(grid, psi), REFERENCE, 40.0, observer=watch)
    signal = np.array(centers) - np.mean(centers)
    stamps = np.array(times)
    flips = np.where(np.sign(signal[:-1]) * np.sign(signal[1:]) < 0)[0]
    crossings = np.array(
        [
            stamps[i] + (stamps[i + 1] - stamps[i]) * signal[i] / (signal[i] - signal[i + 1])
            for i in flips
        ]
    )
    assert len(crossings) >= 5
    omega = math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    assert abs(omega / ladder.omega_0 - 1.0) < 0.02


def coupled_energy(grid, params, psi, chi):
    """Conserved functional of the two-field flow (spectral gradients)."""
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    dchi = np.fft.ifft(1j * grid.k * np.fft.fft(chi))
    dens_c = np.abs(psi) ** 2
    dens_i = np.abs(chi) ** 2
    density_part = 0.5 * np.abs(dpsi) ** 2 + 0.5 * params.g11 * dens_c ** 2 - dens_c
    impurity_part = params.impurity_norm * (
        np.abs(dchi) ** 2 / (2.0 * params.mass_ratio) + params.g12 * dens_c * dens_i
    )
    return float(np.sum(density_part + impurity_part) * grid.dx)


def test_coupled_energy_conservation():
    soliton = soliton_pair(REFERENCE, GRID)
    impurity = gaussian_packet(GRID, center=-GRID.length / 4.0, width=1.0)
    start = coupled_energy(GRID, REFERENCE, soliton.psi, impurity.psi)

    def drift(dt):
        t_final = 10000 * dt
        cond, imp = evolve_coupled(soliton, impurity, REFERENCE, t_final, dt=dt)
        return abs(coupled_energy(GRID, REFERENCE, cond.psi, imp.psi) / start - 1.0)

    coarse = drift(0.1 * GRID.dx ** 2)
    assert coarse < 1e-6
    # quartering dt must cut the conservation error ~16x
    fine = drift(0.025 * GRID.dx ** 2)
    assert 8.0 < coarse / fine < 25.0


def test_coupled_requires_matching_grids():
    soliton = soliton_pair(REFERENCE, GRID)
    other = gaussian_packet(Grid1D(128, 60.0), center=0.0)
    with pytest.raises(ValueError):
        evolve_coupled(soliton, other, REFERENCE, 1.0)


def test_dt_guard_rejects_coarse_steps():
    soliton = soliton_pair(REFERENCE, GRID)
    with pytest.raises(ValueError):
        evolve_condensate(soliton, REFERENCE, 1.0, dt=1.0)


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
