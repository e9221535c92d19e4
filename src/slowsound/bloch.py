"""Driven three-level dynamics of the impurity qutrit.

The ground state |g> couples to the first excited state |e1> through the
weak acoustic probe (Rabi frequency Omega_p, detuning Delta_p) and |e1>
couples to |e2> through the strong control tone (Rabi frequency Omega_c).
In the frame rotating with both tones the Hamiltonian is

    H = [[      0, -Op/2,     0],
         [  -Op/2, -Dp,    Oc/2],
         [      0,  Oc/2,  -dlt]]

with dlt the two-photon detuning.  Two conventions for the control tone
are supported: "track" keeps the control on its own resonance
(Delta_c = 0, so dlt = Delta_p) while the probe is swept; "fixed" pins
the two-photon detuning at zero (dlt = 0) for every probe detuning.

Dissipation is phonon emission down the cascade: collapse operators
|g><e1| at rate gamma_0 and |e1><e2| at rate gamma_1.  In the weak-probe
limit the steady-state probe coherence has the closed form

    rho_e1g = i Omega_p / D,   D = (gamma_0 - 2i Delta_p)
                                   + Omega_c^2 / (gamma_1 - 2i dlt)

which weak_probe_coherences returns, and which the full 9x9 Liouvillian
steady state must reproduce as Omega_p -> 0 — the two routes share no
algebra, so their agreement is the master-equation cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayRates, decay_rates
from .numerics import NumericsError, rk4_evolve, solve_dense
from .params import Params

__all__ = [
    "DriveConfig",
    "drive_from_params",
    "weak_probe_coherences",
    "hamiltonian",
    "liouvillian",
    "steady_state_lindblad",
    "evolve_master_equation",
    "ground_projector",
    "trace_distance",
]

_DIM = 3


@dataclass(frozen=True)
class DriveConfig:
    """Probe/control drive strengths and the two-photon convention."""

    probe_rabi: float
    control_rabi: float
    delta_mode: str = "track"

    def __post_init__(self):
        if self.probe_rabi < 0 or self.control_rabi < 0:
            raise ValueError("Rabi frequencies must be >= 0")
        if self.delta_mode not in ("track", "fixed"):
            raise ValueError(f"delta_mode must be 'track' or 'fixed', got {self.delta_mode!r}")

    def two_photon_detuning(self, probe_detuning):
        return probe_detuning if self.delta_mode == "track" else 0.0


def drive_from_params(params: Params, rates: DecayRates = None):
    """Default drive: control at the configured multiple of gamma_0,
    probe at the configured fraction of the control."""
    if rates is None:
        rates = decay_rates(params)
    control = params.control_rabi_gamma0 * rates.gamma_0
    return DriveConfig(
        probe_rabi=params.probe_fraction * control,
        control_rabi=control,
        delta_mode=params.delta_mode,
    )


def weak_probe_coherences(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """Analytic weak-probe steady-state coherences (rho_e1g, rho_e2g).

    Valid to first order in Omega_p (population stays in the ground
    state).  probe_detuning may be an array.
    """
    dp = np.asarray(probe_detuning, dtype=float)
    dlt = dp if drive.delta_mode == "track" else np.zeros_like(dp)
    g0, g1 = rates.gamma_0, rates.gamma_1
    inner = g1 - 2j * dlt
    denom = (g0 - 2j * dp) + drive.control_rabi ** 2 / inner
    rho_e1g = 1j * drive.probe_rabi / denom
    rho_e2g = -1j * drive.control_rabi * rho_e1g / inner
    return rho_e1g, rho_e2g


def hamiltonian(drive: DriveConfig, probe_detuning):
    op, oc = drive.probe_rabi, drive.control_rabi
    dp = float(probe_detuning)
    dlt = drive.two_photon_detuning(dp)
    return np.array(
        [
            [0.0, -op / 2.0, 0.0],
            [-op / 2.0, -dp, oc / 2.0],
            [0.0, oc / 2.0, -dlt],
        ],
        dtype=complex,
    )


def _collapse_ops(rates: DecayRates):
    c0 = np.zeros((_DIM, _DIM), dtype=complex)
    c0[0, 1] = math.sqrt(rates.gamma_0)
    c1 = np.zeros((_DIM, _DIM), dtype=complex)
    c1[1, 2] = math.sqrt(rates.gamma_1)
    return c0, c1


def liouvillian(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """9x9 generator acting on the row-major vectorized density matrix."""
    h = hamiltonian(drive, probe_detuning)
    eye = np.eye(_DIM, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in _collapse_ops(rates):
        cdc = c.conj().T @ c
        lv += np.kron(c, c.conj())
        lv -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return lv


def ground_projector():
    rho = np.zeros((_DIM, _DIM), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _validate_state(rho, tol=1e-8):
    if abs(np.trace(rho) - 1.0) > tol:
        raise NumericsError(f"steady state trace {np.trace(rho)} is not 1")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise NumericsError("steady state is not hermitian")
    lowest = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if lowest < -tol:
        raise NumericsError(f"steady state has negative population {lowest}")
    return rho


def steady_state_lindblad(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """Exact steady state of the full master equation.

    Solves L vec(rho) = 0 with one row traded for the trace constraint,
    then validates trace, hermiticity, and positivity.  With no drive the
    unique fixed point is the ground projector; if decay rates vanish too
    the equation degenerates and the ground projector is returned by
    convention (every population distribution would be stationary).
    """
    if drive.probe_rabi == 0.0 and drive.control_rabi == 0.0:
        if rates.gamma_0 == 0.0 or rates.gamma_1 == 0.0:
            return ground_projector()
    lv = liouvillian(rates, drive, probe_detuning)
    mat = lv.copy()
    rhs = np.zeros(_DIM * _DIM, dtype=complex)
    mat[0, :] = 0.0
    mat[0, [0, 4, 8]] = 1.0
    rhs[0] = 1.0
    try:
        vec = solve_dense(mat, rhs)
    except NumericsError:
        # Singular beyond the trace freedom: dissipation-free degenerate
        # sector.  Fall back to the undriven rest state.
        return ground_projector()
    rho = vec.reshape(_DIM, _DIM)
    return _validate_state(rho)


def evolve_master_equation(
    rates: DecayRates, drive: DriveConfig, probe_detuning, rho0, times, max_step=None
):
    """Integrate the master equation from rho0; returns (len(times), 3, 3).

    max_step defaults to a tenth of the fastest Liouvillian timescale
    (estimated from the row-sum norm), which keeps the fixed-step RK4
    integrator's local error far below the validation tolerances.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (_DIM, _DIM):
        raise ValueError(f"rho0 must be 3x3, got {rho0.shape}")
    lv = liouvillian(rates, drive, probe_detuning)
    if max_step is None:
        scale = float(np.max(np.sum(np.abs(lv), axis=1)))
        max_step = 0.1 / max(scale, 1e-12)

    def rhs(_t, y):
        return lv @ y

    traj = rk4_evolve(rhs, rho0.ravel(), np.asarray(times, dtype=float), max_step=max_step)
    return traj.reshape(len(times), _DIM, _DIM)


def trace_distance(rho, sigma):
    """Half the sum of singular values of rho - sigma."""
    diff = np.asarray(rho) - np.asarray(sigma)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
