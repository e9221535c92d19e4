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

ladder(), is_qutrit() and bound_state_count() are the one home of these
formulas; they work element by element on arrays, with the scalar bits,
and spectrum() is their scalar view in Python floats, ints and bools.

Two wavefunction families are exposed:

* the closed-form ansatz family phi_0 = A0 sech^alpha, phi_1 = 2 A1 tanh
  phi_0, phi_2 = sqrt(2) A2 (1 - (1+3 alpha) tanh^2) phi_0 with exponent
  alpha = sqrt(2 r_g r_m); the printed closed constants (gamma /
  hypergeometric) and a trapezoid sum are kept for cross-check reporting;
* the exact eigenfunctions of the Poschl-Teller well itself
  (poschl_teller_state), the closed-form shapes the frozen-well
  eigensolve is compared against.

Both families are sech^a(x) times a polynomial in tanh(x) (_profile), and
every norm and overlap is one contraction of the polynomials' product with
numerics.sech_moments(a, 0) (_inner), the moments that
coupling.g_quadrature contracts over k.

The ansatz phi_2 is not analytically orthogonal to phi_0 (the overlap is
O(0.1) for window exponents); when the measured overlap exceeds 1e-3 the
family is Gram-Schmidt orthogonalized and flagged in metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, hyp2f1, sech_moments
from .params import ConfigError, Params, coupling_ratio_for_nu, nu_from_ratios

__all__ = [
    "QUTRIT_NU_MIN",
    "QUTRIT_NU_MAX",
    "bound_state_count",
    "is_qutrit",
    "ladder",
    "qutrit_window_in_coupling_ratio",
    "QutritSpectrum",
    "NotAQutrit",
    "spectrum",
    "ImpurityStates",
    "poschl_teller_state",
]

QUTRIT_NU_MIN = 4.0 / 5.0
QUTRIT_NU_MAX = 9.0 / 7.0


def _check_nu(nu):
    """Raise ValueError where nu < 0, array or scalar."""
    negative = nu < 0
    # a scalar compares to a bool: np.any would cost microseconds for nothing
    if negative if isinstance(negative, (bool, np.bool_)) else np.any(negative):
        raise ValueError(f"nu must be >= 0, got {nu!r}")


def bound_state_count(nu):
    """Window level count, floor(nu + 1 + sqrt(nu(1+nu))).

    This is the count that defines the three-level window: it is 3
    exactly on [4/5, 9/7).  It is not the number of bound states of the
    frozen well -nu(nu+1)/(2 r_m) sech^2 that gpe solves, which binds only
    the states n < nu: one for nu <= 1 and two above, never three on the
    window.  On well_eigenstates' default Grid1D(512, 80) the well binds
    1 state at nu = 4/5, 2 at REFERENCE.nu = 1.2709 and 2 at 9/7 - 1e-6,
    where this count is 3 each time.  PAPER.md holds only the abstract
    and does not settle which count is the paper's; well_eigenstates
    follows the well.

    The floor argument is exactly integral at the rational window edges
    (3 at nu = 4/5, 4 at nu = 9/7), so a 1e-12 epsilon guards against the
    float evaluation landing just below the integer.  Works element by
    element on arrays and returns numpy integers.
    """
    _check_nu(nu)
    return np.floor(nu + 1.0 + np.sqrt(nu * (1.0 + nu)) + 1e-12).astype(int)


def is_qutrit(nu):
    """True where nu lies in the half-open three-level window [4/5, 9/7)."""
    _check_nu(nu)
    return (QUTRIT_NU_MIN <= nu) & (nu < QUTRIT_NU_MAX)


def ladder(nu, mass_ratio):
    """(omega_0, omega_1, (E'_0, E'_1, E'_2)) of the Poschl-Teller ladder.

    The squares use C pow: math.pow on a float, np.float_power, which
    costs microseconds a call, on an array.  An array's ** 2 is x * x,
    which differs in the last bit about once in 1000.
    """
    power = math.pow if isinstance(nu, float) else np.float_power
    omega_0 = (2.0 * nu - 1.0) / (2.0 * mass_ratio)
    omega_1 = abs(2.0 * nu - 3.0) / (2.0 * mass_ratio)
    energies = tuple(-power(nu - n, 2) / (2.0 * mass_ratio) for n in range(3))
    return omega_0, omega_1, energies


def qutrit_window_in_coupling_ratio(mass_ratio):
    """The (g12/g11) interval [lo, hi) realizing the qutrit window at fixed mass ratio.

    hi steps down by ulps while the float nu just below it rounds onto 9/7.
    A mass ratio so small that hi overflows is a ConfigError.
    """
    lo = coupling_ratio_for_nu(QUTRIT_NU_MIN, mass_ratio)
    hi = coupling_ratio_for_nu(QUTRIT_NU_MAX, mass_ratio)
    if not math.isfinite(hi):
        raise ConfigError(f"mass_ratio={mass_ratio!r} puts the qutrit window's upper edge "
                          f"out of float range (g12/g11 = {hi!r})")
    while not is_qutrit(nu_from_ratios(math.nextafter(hi, 0.0), mass_ratio)):
        hi = math.nextafter(hi, 0.0)
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

    Returns QutritSpectrum inside the window, NotAQutrit outside; a nu out
    of float range is a ConfigError.
    """
    nu = params.nu
    if not math.isfinite(nu):
        raise ConfigError(f"mass_ratio={params.mass_ratio!r} and coupling_ratio="
                          f"{params.coupling_ratio!r} put nu out of float range ({nu!r})")
    n_bound = int(bound_state_count(nu))
    if not is_qutrit(nu):
        side = "below" if nu < QUTRIT_NU_MIN else "above"
        return NotAQutrit(
            nu=nu,
            n_bound=n_bound,
            reason=f"nu={nu:.6g} lies {side} the qutrit window [4/5, 9/7)",
        )
    omega_0, omega_1, energies = ladder(nu, params.mass_ratio)
    energies = tuple(map(float, energies))
    return QutritSpectrum(
        nu=nu, energies=energies, omega_0=omega_0, omega_1=omega_1, n_bound=n_bound
    )


# ----------------------------------------------------------------------
# Wavefunction family
# ----------------------------------------------------------------------

def _closed_norm_constants(alpha):
    """Closed-form normalization constants A0, A1, A2 of the ansatz family.

    Transcribed as printed (gamma and 2F1 evaluated at argument -1).  A1's
    and A2's closed expressions are known to disagree with the actual
    unit-norm constants (the moments in ImpurityStates are authoritative);
    they are computed anyway so the validation output can quantify the
    discrepancy.
    """
    a0 = (math.sqrt(math.pi) * math.gamma(alpha) / math.gamma((1.0 + 2.0 * alpha) / 2.0)) ** -0.5

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
        * math.gamma(alpha)
        / (16.0 * math.gamma(2.5 + alpha))
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
    coupling closed forms descend from.  Each state is sech^alpha(x) times
    a polynomial in tanh(x): polynomials[l] holds its coefficients in
    ascending powers (A0; 2 A1 A0 tanh; phi_2 after Gram-Schmidt), the one
    place the constants live, so coupling.g_quadrature integrates the
    states exactly.  states[l] evaluates phi_l on scalar or array x.  The
    raw polynomials 1, tanh and 1 - (1 + 3 alpha) tanh^2 are normalized
    by _inner, a contraction of numerics.sech_moments at k = 0;
    normalization_report() sets the constants against the printed
    closed-form constants and a trapezoid sum.  phi_2 is Gram-Schmidt
    orthogonalized against phi_0 when their raw overlap exceeds 1e-3 (it
    always does for window exponents) and `orthogonalized` records it.
    """

    def __init__(self, params: Params):
        alpha = math.sqrt(2.0 * params.coupling_ratio * params.mass_ratio)
        self.exponent = alpha
        moments = sech_moments(alpha, 0.0)
        raw = ([1.0], [0.0, 1.0], [1.0, 0.0, -(1.0 + 3.0 * alpha)])
        p0, p1, p2 = (_normalized(p, moments) for p in raw)

        # Raw overlap <phi0|phi2> before orthogonalization (phi1 is odd, so
        # the other pairs vanish by parity).
        overlap_raw = _inner(p0, p2, moments)
        self.overlap_raw_02 = overlap_raw
        self.orthogonalized = abs(overlap_raw) > 1e-3
        if self.orthogonalized:
            # phi2 <- (phi2 - phi0 <phi0|phi2>) / norm
            p2[0] -= overlap_raw * p0[0]
            p2 = _normalized(p2, moments)
        self.polynomials = tuple(map(np.array, (p0, p1, p2)))

    def __getitem__(self, l):
        return _profile(self.polynomials[l], self.exponent)

    def overlap(self, l, lp):
        """Trapezoid sum of phi_l phi_l' over |x| <= 40 at step 0.05."""
        return _line_trapezoid(self[l](_LINE) * self[lp](_LINE))

    def normalization_report(self):
        """Closed-form vs trapezoid constants and the raw phi0-phi2 overlap.

        constant_quadrature normalizes each raw profile (sech^alpha, then
        phi_1 and phi_2 before their own constants, built on that A0) by a
        trapezoid sum over |x| <= 40 at step 0.05: a route independent of
        the gamma-function moments, which give the same A0 as the printed
        closed form.  The sech-type profiles are analytic in a strip about
        the real axis, so the sum converges geometrically in 1/step.
        """
        alpha = self.exponent
        sech = np.cosh(_LINE) ** -alpha
        tanh2 = np.tanh(_LINE) ** 2
        a0 = _line_trapezoid(sech ** 2) ** -0.5
        a1 = _line_trapezoid(4.0 * a0 ** 2 * tanh2 * sech ** 2) ** -0.5
        raw2 = 2.0 * a0 ** 2 * (1.0 - (1.0 + 3.0 * alpha) * tanh2) ** 2 * sech ** 2
        quadrature = (a0, a1, _line_trapezoid(raw2) ** -0.5)
        try:
            closed_constants = _closed_norm_constants(alpha)
        except NumericsError:
            closed_constants = (math.nan, math.nan, math.nan)
        # a nan closed constant gives a nan deviation
        rows = [
            {
                "state": j,
                "constant_quadrature": quad,
                "constant_closed_form": closed,
                "relative_deviation": abs(closed - quad) / quad,
            }
            for j, (quad, closed) in enumerate(zip(quadrature, closed_constants))
        ]
        return {
            "exponent": self.exponent,
            "constants": rows,
            "overlap_raw_02": self.overlap_raw_02,
            "orthogonalized": self.orthogonalized,
        }


# Uniform grid of ImpurityStates.overlap and normalization_report: step
# 0.05 on |x| <= 40, where the sech-type profiles have decayed to roundoff.
_LINE = 0.05 * np.arange(-800, 801)


def _line_trapezoid(y):
    return float(0.05 * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def _inner(p, q, moments):
    """integral of sech^(2a) P(tanh) Q(tanh) dx over the line.

    p and q hold the coefficients of P and Q in ascending powers of tanh
    (degree at most 7 together) and moments is sech_moments(a, 0), so
    the integral is sum_m conv(p, q)_m M_m.  The sums run on Python
    floats, since numpy's per-call cost is most of the work at this size.
    """
    conv = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            conv[i + j] += a * b
    return sum(c * moments[m].real for m, c in enumerate(conv))


def _normalized(p, moments):
    """p's coefficients scaled to unit norm under _inner, as a list."""
    norm = math.sqrt(_inner(p, p, moments))
    return [c / norm for c in p]


def _profile(coefficients, a):
    """x -> sech^a(x) P(tanh x), P's coefficients in ascending powers (Horner)."""

    def profile(x):
        x = np.asarray(x, dtype=float)
        t = np.tanh(x)
        value = 0.0
        for c in coefficients[::-1]:
            value = value * t + c
        return value * np.cosh(x) ** -a

    return profile


def poschl_teller_state(n, nu):
    """Exact normalized eigenfunction of the -nu(nu+1)/2 sech^2 well.

    Returns the profile, a callable over x; its energy is ladder()'s
    E'_n.  Only n = 0, 1, 2 are implemented, each sech^(nu-n)(x) times a
    polynomial in tanh(x):

        n = 0:  sech^nu(x)
        n = 1:  tanh(x) sech^(nu-1)(x)
        n = 2:  ((2 nu - 1) tanh^2(x) - 1) sech^(nu-2)(x)

    A state is square-integrable only for nu > n; requesting an unbound
    index raises ValueError so callers cannot silently treat a scattering
    state as bound.  Norms are contractions of the gamma-function moments
    of sech (_inner; slowly decaying tails make these integrands awkward
    for quadrature but trivial in closed form).
    """
    if n not in (0, 1, 2):
        raise ValueError(f"only n in {{0, 1, 2}} supported, got {n!r}")
    if not nu > n:
        raise ValueError(
            f"Poschl-Teller state n={n} is unbound for nu={nu:.6g} (needs nu > n)"
        )
    coefficients = ([1.0], [0.0, 1.0], [-1.0, 0.0, 2.0 * nu - 1.0])[n]
    return _profile(_normalized(coefficients, sech_moments(nu - n, 0.0)), nu - n)
