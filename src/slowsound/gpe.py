"""Mean-field fields on a periodic grid: the soliton pair and its well.

The condensate obeys the reduced nonlinear field equation

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
a direct eigensolve of the Fourier-grid Hamiltonian, split into its
even and odd blocks under x -> -x and checked by the operator applied
by FFT, not from a relaxation.  The coupled pair, with the raw mutual
terms, is used for backreaction estimates, not spectral checks; its
ground state, a nonlinear problem, is relaxed in imaginary time by
Strang-split FFT steps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Grid1D, NumericsError, fft, ifft
from .params import Params
from .qutrit import poschl_teller_state

__all__ = [
    "Field1D",
    "soliton_pair",
    "gaussian_packet",
    "frozen_well",
    "EigenstateReport",
    "well_eigenstates",
    "CoupledGroundState",
    "coupled_ground_state",
]

MIN_BOX = 40.0


@dataclass
class Field1D:
    """A complex field sampled on a periodic grid."""

    grid: Grid1D
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.grid.npoints,):
            raise ValueError(
                f"field shape {self.psi.shape} does not match grid ({self.grid.npoints},)"
            )

    @property
    def density(self):
        return np.abs(self.psi) ** 2

    @property
    def norm(self):
        return float(np.sum(self.density) * self.grid.dx)


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
    return Field1D(grid, -amp * np.tanh(x + quarter) * np.tanh(x - quarter))


def gaussian_packet(grid: Grid1D, center=0.0, width=1.0, momentum=0.0):
    """Unit-norm Gaussian, the impurity seed of coupled_ground_state."""
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (4.0 * width ** 2) + 1j * momentum * x)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))
    return Field1D(grid, psi)


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
    block c[|m-m'|] - c[m+m'] on m = 1..h-1, each plus the well.  Their
    lowest states, merged by a stable sort on energy, unfold to
    psi[h+-m] = v_m / sqrt(2) (v_m at the fixed points) or +-v_m / sqrt(2),
    exactly even or odd.  Residuals apply H by FFT to the unfolded states,
    which also checks the fold.  Each state has unit grid norm and is
    positive where |psi| peaks on x >= 0, so reruns write identical files.

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
    near, far = column[np.abs(m[:, None] - m)], column[(m[:, None] + m) % n]
    diagonal = np.diag(well[(h + m) % n])
    even = (near + far) * np.outer(math.sqrt(0.5) / unfold, math.sqrt(0.5) / unfold) + diagonal
    odd = (near - far + diagonal)[1:h, 1:h]
    try:
        even_energies, even_vectors = np.linalg.eigh(even)
        odd_energies, odd_vectors = np.linalg.eigh(odd)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"frozen-well eigensolve failed: {exc}") from exc
    energies = np.concatenate([even_energies[:n_states], odd_energies[:n_states]])
    half = np.hstack([even_vectors[:, :n_states] * unfold[:, None],
                      np.pad(odd_vectors[:, :n_states], ((1, 1), (0, 0))) * math.sqrt(0.5)])
    parity = np.where(np.arange(len(energies)) < min(n_states, h + 1), 1.0, -1.0)
    vectors = np.empty((n, len(energies)))
    vectors[(h + m) % n] = half
    vectors[h - m] = half * parity
    order = np.argsort(energies, kind="stable")[:n_states]
    energies, vectors = energies[order], vectors[:, order].T
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
    """Relaxed condensate + impurity pair with a deformation summary."""

    condensate: Field1D
    impurity: Field1D
    bare_density: np.ndarray
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
    cond = soliton_pair(params, grid)
    bare = cond.density.copy()
    psi = cond.psi.copy()
    chi = gaussian_packet(grid, center=-grid.length / 4.0, width=1.0).psi.copy()

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

    relaxed = Field1D(grid, psi)
    deformation = float(np.max(np.abs(relaxed.density - bare)) / params.density_xi)
    return CoupledGroundState(
        condensate=relaxed,
        impurity=Field1D(grid, chi),
        bare_density=bare,
        deformation=deformation,
        strong_backreaction=deformation > 0.2,
        impurity_energy=energy,
    )
