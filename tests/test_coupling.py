"""Impurity-phonon matrix elements: the exact overlap sum vs its oracles.

coupling.g_quadrature evaluates the overlap integrals as a finite sum of
Gamma-function moments.  Three oracles rebuild them from their raw
ingredients (bound states, tanh background, mode profiles) without that
sum: a dense 400 001-point trapezoid on a wider span; the batched
trapezoid sum with its h/2h guard in trapezoid_oracle (the route
g_quadrature used to take); and mpmath quadrature in the variable
t = tanh x, with its own normalization and Gram-Schmidt of the ansatz
family.  Agreement is a genuine cross-check of the sum.
"""

from functools import partial

import mpmath
import numpy as np
import pytest
from trapezoid_oracle import BogoliubovMode, trapezoid_coupling

from slowsound.coupling import g0_closed, g1_closed, g_quadrature
from slowsound.numerics import NumericsError
from slowsound.params import REFERENCE
from slowsound.qutrit import ImpurityStates

STATES = ImpurityStates(REFERENCE)
PAIRS = ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2))
ORACLE_KS = (1e-4, 0.3, 0.9, 12.0)


def trapezoid_element(l, lp, k, n=400001, span=60.0):
    """Overlap integral by brute force on a uniform grid."""
    x = np.linspace(-span, span, n)
    mode = BogoliubovMode(k)
    weight = np.sqrt(REFERENCE.density_xi) * np.tanh(x) * (mode.u(x) + mode.v(x))
    integrand = STATES[l](x) * STATES[lp](x) * weight
    return REFERENCE.g12 * np.trapezoid(integrand, x)


def mpmath_elements(l, lp, ks, params=REFERENCE):
    """Overlap integrals at each k of ks by mpmath quadrature over t = tanh x.

    dx = dt / (1 - t^2), sech^2 x = 1 - t^2 and e^{ikx} = e^{ik atanh t}
    on t in (-1, 1).  The states are normalized and orthogonalized here,
    by quadrature.
    """
    alpha = mpmath.sqrt(2 * mpmath.mpf(params.coupling_ratio) * params.mass_ratio)

    def line(f):
        return mpmath.quad(lambda t: f(t) * (1 - t * t) ** (alpha - 1), [-1, 0, 1])

    def phi2_raw(t):
        return 1 - (1 + 3 * alpha) * t * t

    overlap = line(phi2_raw) / line(lambda t: 1)
    shapes = (lambda t: 1, lambda t: t, lambda t: phi2_raw(t) - overlap)
    norm = mpmath.sqrt(line(lambda t: shapes[l](t) ** 2) * line(lambda t: shapes[lp](t) ** 2))

    def element(k):
        k = mpmath.mpf(k)
        eps = mpmath.sqrt(k * k * (k * k + 2))

        def integrand(t):
            u_plus_v = (k ** 3 + 2 * k * (1 - t * t) + 2j * k * k * t) / (
                2 * mpmath.sqrt(mpmath.pi) * eps
            )
            carrier = mpmath.expj(k * mpmath.atanh(t))
            weight = mpmath.sqrt(params.density_xi) * t * u_plus_v * carrier
            return shapes[l](t) * shapes[lp](t) / norm * weight

        return complex(params.g12 * line(integrand))

    return [element(k) for k in ks]


# -- the exact sum against its oracles ---------------------------------------

def test_quadrature_matches_trapezoid_oracle():
    for l, lp, k in ((0, 1, 0.9), (0, 1, 0.7), (1, 2, 0.5), (0, 0, 1.1)):
        q = g_quadrature(l, lp, k, REFERENCE)
        t = trapezoid_element(l, lp, k)
        assert q == pytest.approx(t, rel=1e-8), (l, lp, k)


def test_exact_sum_matches_dense_trapezoid_oracle():
    ks = np.array(ORACLE_KS)
    for l, lp in PAIRS:
        batch = g_quadrature(l, lp, ks, REFERENCE)
        assert batch.shape == ks.shape
        for k, g in zip(ks, batch):
            assert g == pytest.approx(trapezoid_element(l, lp, float(k)), rel=1e-8), (l, lp, k)


def test_exact_sum_matches_mpmath_oracle():
    ks = np.array(ORACLE_KS)
    with mpmath.workdps(20):
        for l, lp in PAIRS:
            batch = g_quadrature(l, lp, ks, REFERENCE)
            for k, g, ref in zip(ks, batch, mpmath_elements(l, lp, ORACLE_KS)):
                assert g == pytest.approx(ref, rel=1e-11), (l, lp, k)


def test_step_follows_largest_wavevector():
    # At k = 2 pi / 0.05 the carrier turns once per 0.05 step: a trapezoid
    # sum with that fixed step reads |g| = 3.8, and its 2h sum agrees with
    # it.  The overlap has in truth decayed to roundoff, like the csch
    # envelope: so says the exact sum, and so does the oracle, whose step
    # follows the largest k.
    k_alias = 2.0 * np.pi / 0.05
    assert abs(g_quadrature(0, 1, k_alias, REFERENCE)) < 1e-10
    batch = trapezoid_coupling(0, 1, np.array([0.9, k_alias]), REFERENCE)
    assert abs(batch[1]) < 1e-10
    assert batch[0] == pytest.approx(g_quadrature(0, 1, 0.9, REFERENCE), rel=1e-12)


def test_under_resolved_sum_raises():
    # the oracle refuses a coarse step that leaves the h and 2h sums apart,
    # naming the pair and k
    with pytest.raises(NumericsError, match=r"g_12 at k=0\.5 "):
        trapezoid_coupling(1, 2, np.array([0.5, 0.9]), REFERENCE, step=1.0)


def test_index_symmetry():
    a = g_quadrature(0, 1, 0.8, REFERENCE)
    b = g_quadrature(1, 0, 0.8, REFERENCE)
    assert a == pytest.approx(b, rel=1e-12)


def test_reality_classes_follow_parity():
    """Odd state pairs give real elements, even pairs imaginary ones.

    The weight tanh(x)(u+v) splits into real/imaginary parts of definite
    parity, so the product parity of the two bound states fixes which
    component survives the integral.
    """
    for l, lp in ((0, 1), (1, 2)):  # odd products
        g = g_quadrature(l, lp, 0.9, REFERENCE)
        assert abs(g.imag) < 1e-12 * max(abs(g), 1e-30), (l, lp)
    for l, lp in ((0, 0), (1, 1), (2, 2), (0, 2)):  # even products
        g = g_quadrature(l, lp, 0.9, REFERENCE)
        assert abs(g.real) < 1e-12 * max(abs(g), 1e-30), (l, lp)


# -- closed forms -----------------------------------------------------------

def test_closed_form_zero_at_k_two():
    assert g0_closed(2.0, REFERENCE) == 0


def test_closed_forms_finite_and_decaying():
    ks = np.geomspace(1e-3, 14.0, 60)
    g0 = np.array([abs(g0_closed(float(k), REFERENCE)) for k in ks])
    g1 = np.array([abs(g1_closed(float(k), REFERENCE)) for k in ks])
    assert np.all(np.isfinite(g0)) and np.all(np.isfinite(g1))
    # far past the peak both lines decay by orders of magnitude
    assert g0[-1] < 1e-3 * g0.max()
    assert g1[-1] < 1e-2 * g1.max()


def test_array_of_k_matches_one_k_at_a_time():
    ks = np.array([0.2, 0.9, 3.0])
    routes = [g0_closed, g1_closed] + [
        partial(g_quadrature, *pair) for pair in ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2))
    ]
    for route in routes:
        batch = route(ks, REFERENCE)
        assert batch.shape == ks.shape
        single = [route(float(k), REFERENCE) for k in ks]
        np.testing.assert_allclose(batch, single, rtol=1e-12)
    with pytest.raises(ValueError, match="k > 0"):
        g_quadrature(0, 1, np.array([0.5, 0.0]), REFERENCE)


def test_small_k_elements_stay_finite():
    # the soliton's translation mode keeps the density response finite at
    # the notch, so nothing blows up (or is forced to zero) as k -> 0
    for k in (1e-4, 1e-3, 1e-2):
        assert np.isfinite(abs(g0_closed(k, REFERENCE)))
        assert np.isfinite(abs(g_quadrature(0, 1, k, REFERENCE)))
    assert abs(g0_closed(1e-4, REFERENCE)) < 1.0
