"""Mean-field fields on a periodic grid: the soliton pair and its well.

Fields are complex numpy arrays sampled on a numerics.Grid1D, which the
caller holds: soliton_pair and gaussian_packet return psi alone.  The
condensate obeys the reduced nonlinear field equation

    i dpsi/dt = [-1/2 d^2/dx^2 + g11 |psi|^2 - 1] psi

(chemical potential 1 subtracted so the uniform background is static),
whose standing dark soliton is the tanh notch of soliton_pair.  An
impurity of relative mass mass_ratio sees the notch as an attractive
well.  For spectral checks the impurity sits in the frozen saturated well

    V(x) = -nu (nu + 1) / (2 mass_ratio) sech^2 x,

the potential whose bound ladder is the analytic impurity spectrum; the
raw product g12 |psi_soliton|^2 is twice that deep, a tension kept
visible here by naming the two potentials separately rather than
blending them.  The frozen well is linear, so its eigenstates come from
a direct eigensolve of the Fourier-grid Hamiltonian, not from a
relaxation.  It is split into its even and odd blocks under x -> -x,
each built from strided Toeplitz and Hankel views of the kinetic column
with no gathers; each block's eigenvalues are computed in full, and
only the kept states get vectors, by inverse iteration with
Rayleigh-Ritz (a solve whose shift hits an exact zero pivot is retried
with the shift nudged down).  The states are checked by the operator
applied by FFT.  The coupled pair, with the raw mutual
terms, is used for backreaction estimates, not spectral checks; its
ground state, a nonlinear problem, is relaxed in imaginary time by
Strang-split FFT steps.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import Grid1D, NumericsError, fft, ifft
from .params import Params
from .qutrit import poschl_teller_state

__all__ = [
    "soliton_pair",
    "gaussian_packet",
    "frozen_well",
    "EigenstateReport",
    "well_eigenstates",
    "CoupledGroundState",
    "coupled_ground_state",
]

MIN_BOX = 40.0


def _require_box(grid: Grid1D):
    if grid.length < MIN_BOX:
        raise ValueError(
            f"box length {grid.length} too small; solitons need >= {MIN_BOX} healing "
            "lengths so their tails decouple from the periodic images"
        )


def soliton_pair(params: Params, grid: Grid1D):
    """Dark-soliton pair at -L/4 and +L/4 on the uniform background.

    The product of two tanh notches is compatible with the periodic box
    (the phase winds down and back up) and each notch is the standing
    dark soliton of the reduced field equation, stationary up to the
    exponentially small overlap of the tails.
    """
    _require_box(grid)
    amp = math.sqrt(params.density_xi)
    x = grid.x
    quarter = grid.length / 4.0
    return (-amp * np.tanh(x + quarter) * np.tanh(x - quarter)).astype(complex)


def gaussian_packet(grid: Grid1D, center=0.0, width=1.0):
    """Unit-norm complex Gaussian, the impurity seed of coupled_ground_state."""
    psi = np.exp(-((grid.x - center) ** 2) / (4.0 * width ** 2) + 0j)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))
    return psi


def frozen_well(grid: Grid1D, nu, mass_ratio, center=0.0):
    """The saturated soliton well with the analytic bound ladder."""
    return -nu * (nu + 1.0) / (2.0 * mass_ratio) / np.cosh(grid.x - center) ** 2


# ----------------------------------------------------------------------
# Frozen-well eigenstates
# ----------------------------------------------------------------------

@dataclass
class EigenstateReport:
    """Eigenstates of the frozen soliton well on the periodic grid."""

    grid: Grid1D
    nu: float
    energies: np.ndarray
    states: np.ndarray  # (n_states, npoints), unit norm
    bound: np.ndarray  # True where the state is localized in the well
    edge_fractions: np.ndarray
    residuals: np.ndarray  # per-state ||H psi - E psi|| on the grid

    def overlap_with_analytic(self, n):
        """|<numeric n | analytic n>| against the closed-form bound shape."""
        profile = poschl_teller_state(n, self.nu)
        sampled = profile(self.grid.x).astype(complex)
        sampled /= math.sqrt(float(np.sum(np.abs(sampled) ** 2) * self.grid.dx))
        return abs(complex(np.vdot(sampled, self.states[n]) * self.grid.dx))


def _parity_block(column, diagonal, odd, out):
    """The even or odd block of the frozen-well Hamiltonian, written into out.

    column is the circulant's first column c and diagonal the well on
    m = 0..h.  The fixed points' rows and columns of the even block are
    scaled by sqrt(1/2), their corners by its square, so the block equals
    the gathered one bit for bit.
    """
    h = len(diagonal) - 1
    near = sliding_window_view(np.concatenate([column[h:0:-1], column[: h + 1]]), h + 1)[::-1]
    far = sliding_window_view(np.concatenate([column, column[:1]]), h + 1)
    if odd:
        block = out[: (h - 1) ** 2].reshape(h - 1, h - 1)
        np.subtract(near[1:h, 1:h], far[1:h, 1:h], out=block)
        block.flat[:: h] += diagonal[1:h]
        return block
    block = out.reshape(h + 1, h + 1)
    np.add(near, far, out=block)
    half = math.sqrt(0.5)
    block[[0, h]] *= np.outer([half, half], np.r_[half, np.ones(h - 1), half])
    block[1:h, [0, h]] *= half
    block.flat[:: h + 2] += diagonal
    return block


def _kept_vectors(block, values, stage):
    """Orthonormal eigenvectors of the symmetric block at its eigenvalues values.

    One inverse-iteration solve (block - value) x = 1 per value, then
    Rayleigh-Ritz on the solves: a QR, and an eigh of the small projected
    matrix, whose ascending Ritz vectors pair with the ascending values
    (Ipsen, SIAM Rev. 39, 254 (1997)).  A shift that hits its eigenvalue
    to the last bit can leave an exact zero pivot; that solve is retried
    once with the shift nudged down by a few roundoffs of the diagonal.
    The start vector is constant: the low states are smooth and mostly of
    one sign on m >= 0, so it overlaps them well (a seeded Gaussian start
    left residuals up to 2.5e-10 on 512- and 1024-point grids, the
    constant one 1.4e-12).  The block's diagonal is shifted in place and
    restored.  A failure raises NumericsError naming stage.
    """
    diagonal = block.diagonal().copy()
    nudge = 4.0 * np.finfo(float).eps * float(np.max(np.abs(diagonal)))
    start = np.ones(len(diagonal))
    solves = np.empty((len(diagonal), len(values)))
    try:
        for j, value in enumerate(values):
            np.fill_diagonal(block, diagonal - value)
            try:
                solves[:, j] = np.linalg.solve(block, start)
            except np.linalg.LinAlgError:
                np.fill_diagonal(block, diagonal - (value - nudge))
                solves[:, j] = np.linalg.solve(block, start)
        np.fill_diagonal(block, diagonal)
        basis = np.linalg.qr(solves)[0]
        return basis @ np.linalg.eigh(basis.T @ block @ basis)[1]
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"{stage}: {exc}") from exc


def well_eigenstates(params: Params, n_states, grid: Grid1D = None, nu=None):
    """Lowest eigenstates of the frozen well, solved one parity at a time.

    The frozen well is linear, so its grid spectrum is that of the
    Fourier-grid Hamiltonian (Marston & Balint-Kurti, J. Chem. Phys. 91,
    3571 (1989)): the spectral kinetic operator k^2 / (2 mass_ratio) is
    the real symmetric circulant matrix whose first column c is
    ifft(k^2 / (2 mass_ratio)), and the well adds its diagonal.  That
    matrix is never built.  x -> -x maps grid index h+m to h-m (mod N),
    h = N/2, and commutes with c and the even well, so H splits into an
    even block c[|m-m'|] + c[(m+m') % N] on m = 0..h, scaled by sqrt(1/2)
    on the rows and columns of the fixed points m = 0 and h, and an odd
    block c[|m-m'|] - c[m+m'] on m = 1..h-1, each plus the well.  The
    Toeplitz term c[|m-m'|] and the Hankel term c[(m+m') % N] are strided
    views of c, and the blocks are built in turn in one buffer, with no
    gathers (_parity_block).  Only eigenvalues are computed in full, per
    block; the lowest n_states of both, merged by a stable sort on
    energy, are chosen once from them.  An even and an odd energy closer
    than eigvalsh's accuracy, 4 eps times the blocks' 2-norm (their
    largest |eigenvalue|), are a degenerate pair and are taken odd state
    first, before the cut: at integer nu the well is reflectionless, and
    on Grid1D(512, 80) at nu = 1 an even and an odd state near E = 5.2e-4
    lie 4.4e-15 apart, whose roundoff order would otherwise pick the
    columns.  Odd is the parity of the n = 1 rung the pair continues from
    nu > 1.  Only the chosen states get vectors: one
    inverse-iteration solve each, then Rayleigh-Ritz within the block,
    with a solve that hits an exact zero pivot retried at a shift nudged
    down (_kept_vectors).  The vectors unfold to psi[h+-m] = v_m / sqrt(2)
    (v_m at the fixed points) or +-v_m / sqrt(2), exactly even or odd.
    Residuals apply H by FFT to the unfolded states, which checks the
    fold and the inverse iteration.  Each state has unit grid norm and is
    positive where |psi| peaks on x >= 0, so reruns write identical
    files.  A failed solve raises NumericsError naming the stage (the
    frozen-well eigensolve), the parity block, nu and the grid size.

    States whose probability mass leaks to the outer half of the box
    (beyond |x| = L/4) are flagged unbound: in a periodic box the
    continuum also quantizes at slightly negative energies, so the energy
    alone cannot tell a shallow bound state from a box state, but
    localization can.
    """
    if grid is None:
        grid = Grid1D(512, 80.0)
    _require_box(grid)
    if nu is None:
        nu = params.nu
    n, h = grid.npoints, grid.npoints // 2
    kinetic = grid.k ** 2 / (2.0 * params.mass_ratio)
    column = np.real(ifft(kinetic))
    well = frozen_well(grid, nu, params.mass_ratio)
    m = np.arange(h + 1)
    # grid weight of an even basis vector on h+-m, whole at the fixed points
    unfold = np.where((m == 0) | (m == h), 1.0, math.sqrt(0.5))
    diagonal = well[(h + m) % n]
    buffer = np.empty((h + 1) ** 2)
    stages = [f"frozen-well eigensolve, {name} block, nu={nu!r}, N={n}" for name in ("even", "odd")]
    values = []
    for odd, stage in enumerate(stages):
        block = _parity_block(column, diagonal, odd, buffer)
        try:
            values.append(np.linalg.eigvalsh(block))
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"{stage}: {exc}") from exc
    energies = np.concatenate([values[0][:n_states], values[1][:n_states]])
    from_odd = np.arange(len(energies)) >= len(values[0][:n_states])
    tie = 4.0 * np.finfo(float).eps * max(float(np.max(np.abs(v[[0, -1]]))) for v in values)
    order = np.argsort(energies - tie * from_odd, kind="stable")[:n_states]
    even = ~from_odd[order]
    half = np.zeros((h + 1, len(order)))
    # the odd block is still in the buffer; the even block is built again over it
    half[1:h, ~even] = _kept_vectors(block, energies[order[~even]], stages[1]) * math.sqrt(0.5)
    block = _parity_block(column, diagonal, 0, buffer)
    half[:, even] = _kept_vectors(block, energies[order[even]], stages[0]) * unfold[:, None]
    energies = energies[order]
    vectors = np.empty((n, len(order)))
    vectors[(h + m) % n] = half
    vectors[h - m] = half * np.where(even, 1.0, -1.0)
    vectors = vectors.T
    # a unit vector is a unit grid state times sqrt(dx): its plain residual is the grid one
    applied = ifft(kinetic * fft(vectors)) + well * vectors
    residuals = np.linalg.norm(applied - energies[:, None] * vectors, axis=1)

    states = vectors / math.sqrt(grid.dx)
    # an odd state peaks equally at +-x, so its sign is read on x >= 0 only
    right = states[:, grid.x >= 0.0]
    peaks = right[np.arange(len(right)), np.argmax(np.abs(right), axis=1)]
    states *= np.sign(peaks)[:, None]
    outer = np.abs(grid.x) > grid.length / 4.0
    edge = np.sum(states[:, outer] ** 2, axis=1) * grid.dx
    return EigenstateReport(
        grid=grid,
        nu=nu,
        energies=energies,
        states=states,
        bound=edge < 0.05,
        edge_fractions=edge,
        residuals=residuals,
    )


# The former name of the well solver, still hooked by perfbench/tracing.py;
# it goes when the benchmark's tracer moves to well_eigenstates.
imaginary_time_eigenstates = well_eigenstates


# ----------------------------------------------------------------------
# Imaginary-time relaxation
# ----------------------------------------------------------------------

def _rayleigh(psi, grid: Grid1D, potential, inv_mass):
    dpsi = ifft(1j * grid.k * fft(psi))
    num = float(
        np.sum(0.5 * inv_mass * np.abs(dpsi) ** 2 + potential * np.abs(psi) ** 2) * grid.dx
    )
    return num / float(np.sum(np.abs(psi) ** 2) * grid.dx)


@dataclass
class CoupledGroundState:
    """Deformation summary of the relaxed condensate + impurity pair."""

    deformation: float  # max relative density change at fixed point
    strong_backreaction: bool
    impurity_energy: float


def coupled_ground_state(params: Params, grid: Grid1D = None, dtau=0.01, max_steps=40000, drift_tol=1e-10):
    """Relax the coupled pair in imaginary time, keeping the solitons.

    A free imaginary-time descent would melt the solitons (the true
    condensate ground state is uniform), so each step projects the
    condensate onto the sector odd under reflection about the soliton
    at +L/4 (x -> L/2 - x), which pins the nodes at +-L/4 while letting
    the notch shape relax.  The impurity relaxes in the instantaneous
    raw well g12 |psi|^2 around -L/4 and back-acts with its density
    weighted by the impurity number.
    """
    if grid is None:
        grid = Grid1D(2048, 80.0)
    _require_box(grid)
    n = grid.npoints
    mirror = (3 * n // 2 - np.arange(n)) % n

    # The chemical-potential term pins the background density on its own
    # (imaginary time contracts toward g11 |psi|^2 = 1), so no norm fixing
    # is applied to the condensate; only the impurity is renormalized.
    psi = soliton_pair(params, grid)
    bare = np.abs(psi) ** 2
    chi = gaussian_packet(grid, center=-grid.length / 4.0, width=1.0)

    inv_mass = 1.0 / params.mass_ratio
    kin_c = np.exp(-0.25 * dtau * grid.k ** 2)
    kin_i = np.exp(-0.25 * dtau * inv_mass * grid.k ** 2)
    g11, g12, n_imp = params.g11, params.g12, params.impurity_norm

    energy_prev = math.inf
    dens_prev = np.abs(psi) ** 2
    step = 0
    check_every = 25
    while step < max_steps:
        for _ in range(check_every):
            psi = ifft(kin_c * fft(psi))
            chi = ifft(kin_i * fft(chi))
            dens_c = np.abs(psi) ** 2
            dens_i = np.abs(chi) ** 2
            # The potential-only flow for the condensate density is a
            # logistic ODE, dn/dtau = a n - b n^2 with a = 2(1 - w) and
            # b = 2 g11 (w is the frozen impurity potential).  Using its
            # closed-form solution instead of freezing the density keeps
            # the splitting second order in imaginary time; the frozen
            # exponential would bias the fixed point at O(dtau).
            w = g12 * n_imp * dens_i
            s = 2.0 * dtau * (1.0 - w)
            small = np.abs(s) < 1e-12
            phi = np.where(
                small, 1.0, np.expm1(s) / np.where(small, 1.0, s)
            )
            growth = 2.0 * g11 * dens_c * dtau * phi
            psi *= np.sqrt(np.exp(s) / (1.0 + growth))
            # impurity sees the time-averaged condensate density of the
            # same logistic arc, exp(-g12 * integral n dtau)
            chi *= np.exp(-g12 * np.log1p(growth) / (2.0 * g11))
            psi = ifft(kin_c * fft(psi))
            chi = ifft(kin_i * fft(chi))
            psi = 0.5 * (psi - psi[mirror])
            chi /= math.sqrt(float(np.sum(np.abs(chi) ** 2)) * grid.dx)
            step += 1
        energy = _rayleigh(chi, grid, g12 * np.abs(psi) ** 2, inv_mass)
        dens_now = np.abs(psi) ** 2
        # both fields must settle: the impurity energy stabilizes long
        # before the condensate notch has finished responding to it
        cond_drift = float(np.max(np.abs(dens_now - dens_prev))) / (
            params.density_xi * check_every
        )
        dens_prev = dens_now
        if (
            abs(energy - energy_prev) / check_every < drift_tol
            and cond_drift < drift_tol
        ):
            break
        energy_prev = energy

    deformation = float(np.max(np.abs(np.abs(psi) ** 2 - bare)) / params.density_xi)
    return CoupledGroundState(
        deformation=deformation,
        strong_backreaction=deformation > 0.2,
        impurity_energy=energy,
    )
