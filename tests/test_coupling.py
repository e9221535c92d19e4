"""Impurity-phonon matrix elements: quadrature route vs closed forms.

Two oracles rebuild the overlap integral from its raw ingredients (bound
states, tanh background, mode profiles) one k at a time: a dense 400 001-
point trapezoid on a wider span, and numerics.integrate_line's adaptive
Simpson on the compactified line.  Neither shares g_quadrature's batched
trapezoid sum over the (k, x) grid or its choice of step, so agreement is
a genuine cross-check of it.
"""

from functools import partial

import numpy as np
import pytest

from slowsound import coupling
from slowsound.bogoliubov import BogoliubovMode
from slowsound.coupling import g0_closed, g1_closed, g_quadrature
from slowsound.numerics import NumericsError, integrate_line
from slowsound.params import REFERENCE
from slowsound.qutrit import ImpurityStates

STATES = ImpurityStates(REFERENCE)


def trapezoid_element(l, lp, k, n=400001, span=60.0):
    """Overlap integral by brute force on a uniform grid."""
    x = np.linspace(-span, span, n)
    mode = BogoliubovMode(k)
    weight = np.sqrt(REFERENCE.density_xi) * np.tanh(x) * (mode.u(x) + mode.v(x))
    integrand = STATES[l](x) * STATES[lp](x) * weight
    return REFERENCE.g12 * np.trapezoid(integrand, x)


def adaptive_element(l, lp, k):
    """Overlap integral by adaptive Simpson on the compactified line."""
    mode = BogoliubovMode(k)

    def integrand(x):
        weight = np.sqrt(REFERENCE.density_xi) * np.tanh(x) * (mode.u(x) + mode.v(x))
        return complex(STATES[l](x) * STATES[lp](x) * weight)

    return REFERENCE.g12 * integrate_line(integrand, tol=1e-12)


# -- quadrature route against the brute-force oracle -----------------------

def test_quadrature_matches_trapezoid_oracle():
    for l, lp, k in ((0, 1, 0.9), (0, 1, 0.7), (1, 2, 0.5), (0, 0, 1.1)):
        q = g_quadrature(l, lp, k, REFERENCE)
        t = trapezoid_element(l, lp, k)
        assert q == pytest.approx(t, rel=1e-8), (l, lp, k)


def test_batched_quadrature_matches_adaptive_oracle():
    ks = np.array([1e-4, 0.3, 0.9, 12.0])
    for l, lp in ((0, 1), (1, 2), (0, 0), (1, 1), (2, 2)):
        batch = g_quadrature(l, lp, ks, REFERENCE)
        assert batch.shape == ks.shape
        for k, g in zip(ks, batch):
            assert g == pytest.approx(adaptive_element(l, lp, float(k)), rel=1e-8), (l, lp, k)


def test_step_follows_largest_wavevector():
    # At k = 2 pi / 0.05 the carrier turns once per 0.05 step: a sum with
    # that fixed step reads |g| = 3.8, and its 2h sum agrees with it.  The
    # overlap has in truth decayed to roundoff, like the csch envelope.
    k_alias = 2.0 * np.pi / 0.05
    assert abs(g_quadrature(0, 1, k_alias, REFERENCE)) < 1e-10
    batch = g_quadrature(0, 1, np.array([0.9, k_alias]), REFERENCE)
    assert abs(batch[1]) < 1e-10
    assert batch[0] == pytest.approx(g_quadrature(0, 1, 0.9, REFERENCE), rel=1e-12)


def test_under_resolved_sum_raises(monkeypatch):
    # a coarse step leaves the h and 2h sums apart: refused, naming the pair and k
    monkeypatch.setattr(coupling, "_STEP", 1.0)
    with pytest.raises(NumericsError, match=r"g_12 at k=0\.5 "):
        g_quadrature(1, 2, np.array([0.5, 0.9]), REFERENCE)


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
