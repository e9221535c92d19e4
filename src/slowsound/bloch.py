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

which weak_probe_coherences builds in place (weak_probe_denominator also
writes D's slope in Delta_p, for v_g), and which the full 9x9 Liouvillian
steady state must reproduce as Omega_p -> 0 — the two routes share no
algebra, so their agreement is the master-equation cross-check.

H is affine in the probe detuning in both conventions, so the Liouvillian
is L(Delta) = L0 + Delta L1 exactly and a sweep's steady states are one
stacked solve of (n, 9, 9) systems.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decay import DecayRates
from .numerics import NumericsError, rk4_evolve, solve_dense
from .params import Params

__all__ = [
    "DriveConfig",
    "drive_from_params",
    "weak_probe_denominator",
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


def drive_from_params(params: Params, rates: DecayRates):
    """Default drive: control at the configured multiple of gamma_0,
    probe at the configured fraction of the control."""
    control = params.control_rabi_gamma0 * rates.gamma_0
    return DriveConfig(
        probe_rabi=params.probe_fraction * control,
        control_rabi=control,
        delta_mode=params.delta_mode,
    )


def weak_probe_denominator(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """(D, dD/dDelta_p) of the weak-probe coherence rho_e1g = i Omega_p / D.

    D = (gamma_0 - 2i Delta_p) + Omega_c^2/(gamma_1 - 2i dlt), so
    dD/dDelta_p = -2i + 2i Omega_c^2 (d dlt/d Delta_p) / (gamma_1 - 2i dlt)^2,
    where d dlt/d Delta_p is 1 tracking the control and 0 with the
    two-photon detuning pinned.  probe_detuning may be an array.
    """
    dp = np.asarray(probe_detuning, dtype=float)
    dlt_slope = 1.0 if drive.delta_mode == "track" else 0.0
    inner = rates.gamma_1 - 2j * dlt_slope * dp
    dressing = drive.control_rabi ** 2 / inner
    return (rates.gamma_0 - 2j * dp) + dressing, -2j + 2j * dlt_slope * dressing / inner


def weak_probe_coherences(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """Analytic weak-probe steady-state probe coherence rho_e1g = i Omega_p / D.

    Valid to first order in Omega_p (population stays in the ground
    state).  probe_detuning may be an array, and a scalar gives a scalar.
    D is built in place by weak_probe_denominator's operations in their
    order, so the two agree bit for bit, and its slope is not built.
    """
    dp = np.asarray(probe_detuning, dtype=float)
    dlt_slope = 1.0 if drive.delta_mode == "track" else 0.0
    # rho holds 2i dlt, gamma_1 - 2i dlt, the dressing, D, then i Omega_p / D
    rho = np.multiply(2j * dlt_slope, dp, out=np.empty(dp.shape, complex))
    np.subtract(rates.gamma_1, rho, out=rho)
    np.divide(drive.control_rabi ** 2, rho, out=rho)
    bare = np.multiply(2j, dp, out=np.empty_like(rho))
    rho += np.subtract(rates.gamma_0, bare, out=bare)
    return np.divide(1j * drive.probe_rabi, rho, out=rho)[()]


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

    def _kron(a, b):  # np.kron's products, without its Python overhead
        return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(_DIM ** 2, _DIM ** 2)

    h = hamiltonian(drive, probe_detuning)
    eye = np.eye(_DIM, dtype=complex)
    lv = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for c in _collapse_ops(rates):
        cdc = c.conj().T @ c
        lv += _kron(c, c.conj())
        lv -= 0.5 * (_kron(cdc, eye) + _kron(eye, cdc.T))
    return lv


def ground_projector():
    rho = np.zeros((_DIM, _DIM), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _validate_state(rho, tol=1e-8):
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    if np.any(trace_err > tol):
        raise NumericsError(f"steady state trace is off 1 by {np.max(trace_err):g}")
    rho_h = np.conj(np.swapaxes(rho, -2, -1))
    if np.max(np.abs(rho - rho_h)) > tol:
        raise NumericsError("steady state is not hermitian")
    lowest = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho_h))))
    if lowest < -tol:
        raise NumericsError(f"steady state has negative population {lowest}")
    return rho


def steady_state_lindblad(rates: DecayRates, drive: DriveConfig, probe_detuning):
    """Exact steady states of the full master equation, shape(probe_detuning) + (3, 3).

    Solves L vec(rho) = 0 with one row traded for the trace constraint, all
    detunings in one stacked solve, then validates trace, hermiticity, and
    positivity of every state.  A system that is singular beyond the trace
    freedom (no unique steady state) raises NumericsError from solve_dense.
    """
    shape = np.shape(probe_detuning) + (_DIM, _DIM)
    l0 = liouvillian(rates, drive, 0.0)
    mat = l0 + np.multiply.outer(probe_detuning, liouvillian(rates, drive, 1.0) - l0)
    rhs = np.eye(_DIM * _DIM, dtype=complex)[0]
    mat[..., 0, :] = 0.0
    mat[..., 0, [0, 4, 8]] = 1.0
    return _validate_state(solve_dense(mat, rhs).reshape(shape))


def evolve_master_equation(rates: DecayRates, drive: DriveConfig, probe_detuning, rho0, times):
    """Integrate the master equation from rho0; returns (len(times), 3, 3).

    The step is a tenth of the fastest Liouvillian timescale (estimated
    from the row-sum norm), which keeps the fixed-step RK4 integrator's
    local error far below the validation tolerances.  The Liouvillian is
    constant: rk4_evolve raises its RK4 step polynomial to the step count.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (_DIM, _DIM):
        raise ValueError(f"rho0 must be 3x3, got {rho0.shape}")
    lv = liouvillian(rates, drive, probe_detuning)
    scale = float(np.max(np.sum(np.abs(lv), axis=1)))
    max_step = 0.1 / max(scale, 1e-12)
    traj = rk4_evolve(lv, rho0.ravel(), np.asarray(times, dtype=float), max_step=max_step)
    return traj.reshape(len(times), _DIM, _DIM)


def trace_distance(rho, sigma):
    """Half the sum of singular values of rho - sigma."""
    diff = np.asarray(rho) - np.asarray(sigma)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
