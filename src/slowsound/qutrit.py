"""Impurity bound states in the dark-soliton well: spectrum and wavefunctions.

A heavy impurity sitting in the density notch of a dark soliton feels an
attractive sech^2 well.  Casting that well in Poschl-Teller form with
parameter nu (see params.nu_from_ratios), the bound-state ladder is

    E'_n = -(nu - n)^2 / (2 r_m)        (reduced units, n = 0, 1, ...)

with energies quoted relative to the flat-condensate mean-field offset.
The transition frequencies of the lowest three levels are

    omega_0 = (2 nu - 1) / (2 r_m),     omega_1 = |2 nu - 3| / (2 r_m),

where the magnitude in omega_1 reflects that a transition frequency is an
energy difference regardless of level ordering (for nu < 3/2 the formula's
"second excited" level lies below the first).  The three-level (qutrit)
regime is the exact half-open window 4/5 <= nu < 9/7.

Two wavefunction families are exposed:

* the closed-form ansatz family phi_0 = A0 sech^alpha, phi_1 = 2 A1 tanh
  phi_0, phi_2 = sqrt(2) A2 (1 - (1+3 alpha) tanh^2) phi_0 with exponent
  alpha = sqrt(2 r_g r_m) and normalization constants given both by their
  closed expressions (gamma / hypergeometric) and by quadrature — the
  quadrature value is authoritative, the closed value is retained for
  cross-check reporting;
* the exact eigenfunctions of the Poschl-Teller well itself
  (poschl_teller_state), the closed-form shapes the frozen-well
  eigensolve is compared against.

The ansatz phi_2 is not analytically orthogonal to phi_0 (the overlap is
O(0.1) for window exponents); when the measured overlap exceeds 1e-3 the
family is Gram-Schmidt orthogonalized and flagged in metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, gamma_fn, hyp2f1, integrate_line
from .params import Params, nu_from_ratios

__all__ = [
    "QUTRIT_NU_MIN",
    "QUTRIT_NU_MAX",
    "bound_state_count",
    "is_qutrit",
    "qutrit_window_in_coupling_ratio",
    "QutritSpectrum",
    "NotAQutrit",
    "spectrum",
    "ImpurityStates",
    "poschl_teller_state",
]

QUTRIT_NU_MIN = 4.0 / 5.0
QUTRIT_NU_MAX = 9.0 / 7.0


def bound_state_count(nu):
    """Window level count, floor(nu + 1 + sqrt(nu(1+nu))).

    This is the count that defines the three-level window: it is 3
    exactly on [4/5, 9/7).  It is not the number of bound states of the
    frozen well -nu(nu+1)/(2 r_m) sech^2 that gpe solves, which binds only
    the states n < nu: one for nu <= 1 and two above, never three on the
    window.  PAPER.md holds only the abstract and does not settle which
    count is the paper's; well_eigenstates follows the well.

    The floor argument is exactly integral at the rational window edges
    (3 at nu = 4/5, 4 at nu = 9/7), so a 1e-12 epsilon guards against the
    float evaluation landing just below the integer.
    """
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu!r}")
    return int(math.floor(nu + 1.0 + math.sqrt(nu * (1.0 + nu)) + 1e-12))


def is_qutrit(nu):
    """True when nu lies in the half-open three-level window [4/5, 9/7)."""
    if nu < 0:
        raise ValueError(f"nu must be >= 0, got {nu!r}")
    return QUTRIT_NU_MIN <= nu < QUTRIT_NU_MAX


def qutrit_window_in_coupling_ratio(mass_ratio):
    """The (g12/g11) interval realizing the qutrit window at fixed mass ratio."""
    lo = QUTRIT_NU_MIN * (QUTRIT_NU_MIN + 1.0) / mass_ratio
    hi = QUTRIT_NU_MAX * (QUTRIT_NU_MAX + 1.0) / mass_ratio
    return lo, hi


@dataclass(frozen=True)
class QutritSpectrum:
    """Three-level ladder of the soliton well (reduced units).

    energies holds the closed-form ladder values E'_n for n = 0, 1, 2;
    whether a given rung is actually bound in the well is the field
    simulation's question, not this container's.  omega_0 > omega_1 holds
    for nu > 1 but reverses below (both stay positive on the window).
    """

    nu: float
    energies: tuple
    omega_0: float
    omega_1: float
    n_bound: int


@dataclass(frozen=True)
class NotAQutrit:
    """Flagged result for parameters outside the three-level window."""

    nu: float
    n_bound: int
    reason: str


def spectrum(params: Params):
    """Bound-state spectrum for the given parameters.

    Returns QutritSpectrum inside the window, NotAQutrit outside.
    """
    nu = params.nu
    n_bound = bound_state_count(nu)
    if not is_qutrit(nu):
        side = "below" if nu < QUTRIT_NU_MIN else "above"
        return NotAQutrit(
            nu=nu,
            n_bound=n_bound,
            reason=f"nu={nu:.6g} lies {side} the qutrit window [4/5, 9/7)",
        )
    r_m = params.mass_ratio
    energies = tuple(-((nu - n) ** 2) / (2.0 * r_m) for n in range(3))
    omega_0 = (2.0 * nu - 1.0) / (2.0 * r_m)
    omega_1 = abs(2.0 * nu - 3.0) / (2.0 * r_m)
    return QutritSpectrum(
        nu=nu, energies=energies, omega_0=omega_0, omega_1=omega_1, n_bound=n_bound
    )


# ----------------------------------------------------------------------
# Wavefunction family
# ----------------------------------------------------------------------

def _closed_norm_constants(alpha):
    """Closed-form normalization constants A0, A1, A2 of the ansatz family.

    Transcribed as printed (gamma and 2F1 evaluated at argument -1).  A1's
    closed expression is known to disagree with the actual unit-norm
    constant (the quadrature route below is authoritative); it is computed
    anyway so the validation output can quantify the discrepancy.
    """
    a0 = (math.sqrt(math.pi) * gamma_fn(alpha) / gamma_fn((1.0 + 2.0 * alpha) / 2.0)) ** -0.5

    f1 = hyp2f1(alpha, 2.0 * (1.0 + alpha), 1.0 + alpha, -1.0)
    f2 = hyp2f1(1.0 + alpha, 2.0 * (1.0 + alpha), 2.0 + alpha, -1.0)
    f3 = hyp2f1(2.0 + alpha, 2.0 * (1.0 + alpha), 3.0 + alpha, -1.0)
    a1_bracket = f1 / alpha - f2 / (1.0 + alpha) + f3 / (2.0 + alpha)
    a1 = (2.0 ** (2.0 * (1.0 + alpha)) * a0 ** 2 * a1_bracket) ** -0.5

    g1 = hyp2f1(1.0 + alpha, 2.0 * (2.0 + alpha), 2.0 + alpha, -1.0)
    g2 = hyp2f1(2.0 + alpha, 2.0 * (2.0 + alpha), 3.0 + alpha, -1.0)
    g3 = hyp2f1(3.0 + alpha, 2.0 * (2.0 + alpha), 4.0 + alpha, -1.0)
    g4 = hyp2f1(4.0 + alpha, 2.0 * (2.0 + alpha), 5.0 + alpha, -1.0)
    a2_bracket = (
        9.0 * alpha / (2.0 * (1.0 + alpha))
        + 9.0 * alpha ** 2 / (4.0 * (1.0 + alpha))
        + 9.0
        * alpha ** 2
        * math.sqrt(math.pi)
        * (6.0 + 5.0 * alpha + alpha ** 2)
        * gamma_fn(alpha)
        / (16.0 * gamma_fn(2.5 + alpha))
        + 3.0 * 2.0 ** (2.0 * (1.0 + alpha)) * alpha * (2.0 + 3.0 * alpha) * g1 / (1.0 + alpha)
        + 4.0 ** (2.0 + alpha) * g2 / (2.0 + alpha)
        + 3.0 * 2.0 ** (2.0 * (2.0 + alpha)) * alpha * g2 / (2.0 + alpha)
        + 27.0 * 4.0 ** (1.0 + alpha) * alpha ** 2 * g2 / (2.0 * (2.0 + alpha))
        + 3.0 * 2.0 ** (3.0 + 2.0 * alpha) * alpha * g3 / (3.0 + alpha)
        + 9.0 * 2.0 ** (2.0 * (1.0 + alpha)) * alpha ** 2 * g3 / (3.0 + alpha)
        + 9.0 * 2.0 ** (2.0 * alpha) * alpha ** 2 * g4 / (4.0 + alpha)
    )
    a2 = (2.0 * a0 ** 2 * a1 ** 2 * a2_bracket) ** -0.5
    return a0, a1, a2


class ImpurityStates:
    """Normalized impurity wavefunctions phi_0, phi_1, phi_2 over x (in xi).

    The exponent is alpha = sqrt(2 r_g r_m), the ansatz family the
    coupling closed forms descend from.  The instances are callable
    containers: states[l] evaluates phi_l on scalar or array x.
    Quadrature normalization (absolute tolerance 1e-12) is authoritative;
    closed-form constants are retained in `closed_constants` with relative
    deviations in normalization_report().  phi_2 is Gram-Schmidt
    orthogonalized against phi_0 when their raw overlap exceeds 1e-3 (it
    always does for window exponents) and `orthogonalized` records it.
    """

    def __init__(self, params: Params):
        alpha = math.sqrt(2.0 * params.coupling_ratio * params.mass_ratio)
        self.exponent = alpha

        # Moments of sech powers: In = integral of sech^(2 alpha) tanh^(2m).
        def sech_moment(m):
            return integrate_line(
                lambda x: math.cosh(x) ** (-2.0 * alpha) * math.tanh(x) ** (2 * m),
                tol=1e-12,
            )

        i0 = sech_moment(0)
        i1 = sech_moment(1)
        i2 = sech_moment(2)

        a0q = i0 ** -0.5
        a1q = (4.0 * a0q ** 2 * i1) ** -0.5
        c2 = 1.0 + 3.0 * alpha
        # |phi2_raw|^2 = 2 A2^2 A0^2 * integral (1 - c2 tanh^2)^2 sech^(2 alpha)
        w2 = i0 - 2.0 * c2 * i1 + c2 ** 2 * i2
        a2q = (2.0 * a0q ** 2 * w2) ** -0.5

        self.constants = (a0q, a1q, a2q)
        try:
            self.closed_constants = _closed_norm_constants(alpha)
        except NumericsError:
            self.closed_constants = (math.nan, math.nan, math.nan)

        # Raw overlap <phi0|phi2> before orthogonalization (phi1 is odd, so
        # the other pairs vanish by parity).
        overlap_raw = (
            math.sqrt(2.0) * a2q * a0q ** 2 * (i0 - c2 * i1)
        )
        self.overlap_raw_02 = overlap_raw
        self.orthogonalized = abs(overlap_raw) > 1e-3

        a0, a1, a2 = a0q, a1q, a2q

        def phi0(x):
            x = np.asarray(x, dtype=float)
            return a0 * np.cosh(x) ** (-alpha)

        def phi1(x):
            x = np.asarray(x, dtype=float)
            return 2.0 * a1 * np.tanh(x) * phi0(x)

        def phi2_raw(x):
            x = np.asarray(x, dtype=float)
            return math.sqrt(2.0) * a2 * (1.0 - c2 * np.tanh(x) ** 2) * phi0(x)

        if self.orthogonalized:
            # phi2 <- (phi2 - phi0 <phi0|phi2>) / norm; the residual norm
            # follows from the quadrature moments already in hand.
            residual = math.sqrt(max(1.0 - overlap_raw ** 2, 1e-300))

            def phi2(x):
                return (phi2_raw(x) - overlap_raw * phi0(x)) / residual

        else:
            phi2 = phi2_raw

        self._profiles = (phi0, phi1, phi2)

    def __getitem__(self, l):
        return self._profiles[l]

    def __iter__(self):
        return iter(self._profiles)

    def normalization_report(self):
        """Closed-form vs quadrature constants and the raw phi0-phi2 overlap."""
        rows = []
        for j, (quad, closed) in enumerate(zip(self.constants, self.closed_constants)):
            rel = abs(closed - quad) / quad if math.isfinite(closed) else math.nan
            rows.append(
                {
                    "state": j,
                    "constant_quadrature": quad,
                    "constant_closed_form": closed,
                    "relative_deviation": rel,
                }
            )
        return {
            "exponent": self.exponent,
            "constants": rows,
            "overlap_raw_02": self.overlap_raw_02,
            "orthogonalized": self.orthogonalized,
        }


def _sech_moment(a):
    """integral of sech^(2a) x dx over the line = sqrt(pi) G(a)/G(a+1/2)."""
    return math.sqrt(math.pi) * gamma_fn(a) / gamma_fn(a + 0.5)


def poschl_teller_state(n, nu):
    """Exact normalized eigenfunction of the -nu(nu+1)/2 sech^2 well.

    Returns (profile, binding) where profile is a callable over x and
    binding is the dimensionless factor (nu - n)^2 entering
    E'_n = -binding/(2 r_m).  Only n = 0, 1, 2 are implemented:

        n = 0:  sech^nu(x)
        n = 1:  tanh(x) sech^(nu-1)(x)
        n = 2:  ((2 nu - 1) tanh^2(x) - 1) sech^(nu-2)(x)

    A state is square-integrable only for nu > n; requesting an unbound
    index raises ValueError so callers cannot silently treat a scattering
    state as bound.  Norms are evaluated through the gamma-function
    moments of sech (slowly decaying tails make these integrands
    awkward for quadrature but trivial in closed form).
    """
    if n not in (0, 1, 2):
        raise ValueError(f"only n in {{0, 1, 2}} supported, got {n!r}")
    if not nu > n:
        raise ValueError(
            f"Poschl-Teller state n={n} is unbound for nu={nu:.6g} (needs nu > n)"
        )

    if n == 0:
        shape = lambda x: np.cosh(x) ** (-nu)
        norm2 = _sech_moment(nu)
    elif n == 1:
        shape = lambda x: np.tanh(x) * np.cosh(x) ** (-(nu - 1.0))
        # tanh^2 sech^(2nu-2) = sech^(2nu-2) - sech^(2nu)
        norm2 = _sech_moment(nu - 1.0) - _sech_moment(nu)
    else:
        c = 2.0 * nu - 1.0
        shape = lambda x: (c * np.tanh(x) ** 2 - 1.0) * np.cosh(x) ** (-(nu - 2.0))
        # (c t^2 - 1)^2 sech^(2nu-4) with t^2 = 1 - sech^2 expands to
        # (c-1)^2 sech^(2nu-4) - 2c(c-1) sech^(2nu-2) + c^2 sech^(2nu)
        s0, s1, s2 = (_sech_moment(nu - 2.0), _sech_moment(nu - 1.0), _sech_moment(nu))
        norm2 = (c - 1.0) ** 2 * s0 - 2.0 * c * (c - 1.0) * s1 + c * c * s2

    scale = norm2 ** -0.5

    def profile(x):
        return scale * shape(np.asarray(x, dtype=float))

    return profile, (nu - n) ** 2
