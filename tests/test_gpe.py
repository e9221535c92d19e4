"""Checks for the mean-field fields, the frozen-well eigensolve and the
coupled relaxation.

The tanh pair is checked against the stationary field equation with a
spectral second derivative; the frozen-well eigensolve is compared
against the closed-form ladder, checked as an eigenproblem by an
FFT-applied Hamiltonian and set against one eigh of the dense matrix
(dense_well_oracle), also by a property test over nu, grid and state
count; its parity blocks are set bit for bit against the gathered ones.
The imaginary-time relaxation of the coupled pair is checked against the
bare tanh pair and its own step-size scaling.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_well_oracle import dense_eigenstates, gathered_blocks
from slowsound.gpe import (
    _parity_block,
    CoupledGroundState,
    coupled_ground_state,
    frozen_well,
    gaussian_packet,
    soliton_pair,
    well_eigenstates,
)
from slowsound.numerics import Grid1D
from slowsound.params import REFERENCE
from slowsound.qutrit import QUTRIT_NU_MAX, QUTRIT_NU_MIN, bound_state_count, spectrum


GRID = Grid1D(256, 60.0)


def mean_x2(psi, grid):
    return float(np.sum(grid.x ** 2 * np.abs(psi) ** 2) * grid.dx)


def mean_p2(psi, grid):
    spec = np.fft.fft(psi)
    weight = np.abs(spec) ** 2
    return float(np.sum(weight * grid.k ** 2) / np.sum(weight))


def test_gaussian_packet_moments():
    packet = gaussian_packet(GRID, center=0.0, width=1.5)
    assert abs(float(np.sum(np.abs(packet) ** 2) * GRID.dx) - 1.0) < 1e-12
    # minimum-uncertainty pair: <x^2> = w^2, <p^2> = 1/(4 w^2)
    assert abs(mean_x2(packet, GRID) - 2.25) < 1e-9
    assert abs(mean_p2(packet, GRID) - 1.0 / 9.0) < 1e-9


def test_fields_are_complex_arrays_on_the_grid():
    for psi in (soliton_pair(REFERENCE, GRID), gaussian_packet(GRID, center=-5.0, width=1.0)):
        assert type(psi) is np.ndarray
        assert psi.dtype == np.complex128 and psi.shape == (GRID.npoints,)


def test_coupled_ground_state_keeps_only_what_is_read():
    names = [field.name for field in dataclasses.fields(CoupledGroundState)]
    assert names == ["deformation", "strong_backreaction", "impurity_energy"]


def test_tanh_pair_is_stationary():
    # each tanh notch is the standing dark soliton, so the pair solves the
    # stationary field equation -psi''/2 + (g11 |psi|^2 - 1) psi = 0 up to
    # the e^-L overlap of the tails; the residual is spectral roundoff
    # (4.5e-12), while a notch 0.1% too wide leaves 7.7e-4
    grid = Grid1D(512, 60.0)
    psi = soliton_pair(REFERENCE, grid)
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
    # independent of the parity blocks the solver diagonalizes: apply H
    # by FFT to every returned state, here with numpy's own transforms,
    # and check the eigen-equation and the orthonormality the grid inner
    # product promises
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
    # the odd state peaks exactly equally at +-x, with opposite signs, so
    # a sign read over the whole grid could land on either side; it is
    # read on x >= 0.  The ladder's shapes sech^nu x and
    # sech^(nu-1) x tanh x are both positive on x > 0.
    grid = Grid1D(1024, 80.0)
    report = well_eigenstates(REFERENCE, 2, grid=grid)
    core = (grid.x > 0.0) & (grid.x < 5.0)
    assert np.all(report.states[:, core] > 0.0)


@pytest.mark.parametrize("nu", [REFERENCE.nu, 2.6])
def test_well_states_have_exact_parity(nu):
    # the frozen well and the grid are both symmetric under x -> -x, which
    # maps index i to (N - i) % N; every state must be even or odd bit for
    # bit, and the ladder alternates even, odd, even
    grid = Grid1D(512, 80.0)
    report = well_eigenstates(REFERENCE, 3, grid=grid, nu=nu)
    mirror = (grid.npoints - np.arange(grid.npoints)) % grid.npoints
    for psi, sign in zip(report.states, (1.0, -1.0, 1.0)):
        assert np.array_equal(psi[mirror], sign * psi)


@pytest.mark.parametrize(
    "grid, nu",
    [
        (Grid1D(512, 80.0), REFERENCE.nu),
        (Grid1D(512, 80.0), 2.6),
        # the smallest legal grid, where the fixed points x = 0 and x = -L/2
        # carry real weight in every even state
        (Grid1D(16, 40.0), REFERENCE.nu),
    ],
    ids=["512-reference", "512-nu2.6", "16-reference"],
)
def test_folded_solve_matches_dense_oracle(grid, nu):
    report = well_eigenstates(REFERENCE, 3, grid=grid, nu=nu)
    energies, states = dense_eigenstates(grid, nu, REFERENCE.mass_ratio, 3)
    assert float(np.max(np.abs(report.energies - energies))) < 1e-12
    assert float(np.max(np.abs(report.states - states))) < 1e-9


@pytest.mark.parametrize("nu", [0.8, REFERENCE.nu, 2.6], ids=["0.8", "reference", "2.6"])
@pytest.mark.parametrize(
    "grid", [Grid1D(16, 40.0), Grid1D(512, 80.0), Grid1D(1024, 80.0)], ids=["16", "512", "1024"]
)
def test_view_built_blocks_equal_the_gathered_ones_bit_for_bit(grid, nu):
    # the odd block is built into the even block's buffer, as the solver does
    column, well, even, odd = gathered_blocks(grid, nu, REFERENCE.mass_ratio)
    buffer = np.empty(even.size)
    built_even = _parity_block(column, well, 0, buffer).copy()
    built_odd = _parity_block(column, well, 1, buffer)
    for built, gathered in ((built_even, even), (built_odd, odd)):
        assert built.shape == gathered.shape
        assert np.array_equal(built.view(np.uint64), gathered.view(np.uint64))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from([Grid1D(16, 40.0), Grid1D(64, 40.0), Grid1D(512, 60.0), Grid1D(512, 80.0)]),
    st.floats(0.5, 3.0),
    st.sampled_from([2, 3]),
)
# the eigvalsh shift leaves an exact zero pivot in the odd block's solve here
@example(Grid1D(16, 40.0), 2.246279975795777, 3)
# the first excited level sits at the continuum edge of a reflectionless
# well, where an even and an odd state lie 6e-15 apart
@example(Grid1D(512, 60.0), 1.0, 2)
@example(Grid1D(512, 60.0), 1.0, 3)
# two even states whose solves alone are 1.3e-12 from orthogonal
@example(Grid1D(512, 60.0), 0.5565443222175068, 2)
def test_inverse_iteration_matches_dense_oracle(grid, nu, n_states):
    report = well_eigenstates(REFERENCE, n_states, grid=grid, nu=nu)
    energies, states = dense_eigenstates(grid, nu, REFERENCE.mass_ratio, n_states)
    assert float(np.max(np.abs(report.energies - energies))) < 1e-12
    assert float(np.max(np.abs(report.states - states))) < 1e-9
    well = frozen_well(grid, nu, REFERENCE.mass_ratio)
    kinetic = grid.k ** 2 / (2.0 * REFERENCE.mass_ratio)
    applied = np.fft.ifft(kinetic * np.fft.fft(report.states, axis=1), axis=1) + well * report.states
    residual = np.abs(applied - report.energies[:, None] * report.states)
    assert float(np.max(np.sqrt(np.sum(residual ** 2, axis=1) * grid.dx))) < 1e-10
    gram = report.states @ report.states.T * grid.dx
    assert float(np.max(np.abs(gram - np.eye(n_states)))) < 1e-12
    mirror = (grid.npoints - np.arange(grid.npoints)) % grid.npoints
    for psi in report.states:
        assert np.array_equal(psi[mirror], psi) or np.array_equal(psi[mirror], -psi)


@pytest.mark.parametrize(
    "grid", [Grid1D(512, 80.0), Grid1D(512, 60.0), Grid1D(1024, 80.0)],
    ids=["512/80", "512/60", "1024/80"],
)
def test_degenerate_pair_at_integer_nu_comes_odd_state_first(grid):
    # at nu = 1 the reflectionless well's lowest box states are an even and
    # an odd one degenerate to roundoff; the odd one, the parity of the
    # n = 1 rung the pair continues from nu > 1, comes first, also when the
    # cut keeps only one of the two
    mirror = (grid.npoints - np.arange(grid.npoints)) % grid.npoints
    reports = [well_eigenstates(REFERENCE, n, grid=grid, nu=1.0) for n in (3, 2)]
    parities = [["even" if np.array_equal(psi[mirror], psi) else "odd" for psi in report.states]
                for report in reports]
    assert parities == [["even", "odd", "even"], ["even", "odd"]]
    pair = reports[0].energies[1:]
    assert 0.0 < pair[0] < 1e-3 and abs(pair[1] - pair[0]) < 1e-13


def test_frozen_well_bound_count_across_the_window():
    # the frozen well binds only n < nu: one state at the window's lower
    # edge, two at REFERENCE and just below its upper edge, while the
    # window level count is three at all three points
    below_top = QUTRIT_NU_MAX - 1e-6
    for nu, count in ((QUTRIT_NU_MIN, 1), (REFERENCE.nu, 2), (below_top, 2)):
        report = well_eigenstates(REFERENCE, 3, nu=nu)
        assert int(np.sum(report.bound)) == count, nu
        assert bound_state_count(nu) == 3, nu


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
