"""Checks of the numerics toolkit against closed forms and naive references.

Every routine here backs a physics module, so each is pinned either to an
exactly known value (log-gamma and 2F1 identities, integrals of sech
powers) or to a slow, obviously-correct reference implementation (O(N^2)
Fourier sum, dense trapezoid and mpmath quadrature, analytic Rabi
flopping).
"""

import ast
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import slowsound
from slowsound.numerics import (
    Grid1D,
    NumericsError,
    fft,
    find_root,
    hilbert_transform,
    hyp2f1,
    ifft,
    integrate_line,
    log_abs_gamma,
    rk4_evolve,
    sech_moments,
    solve_dense,
)


# -- reference implementations -------------------------------------------

def dense_trapezoid(f, a, b, n=200001):
    x = np.linspace(a, b, n)
    return float(np.trapezoid(f(x), x))


def naive_dft(values):
    """Direct O(N^2) Fourier sum with the numpy sign convention."""
    n = len(values)
    j = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return kernel @ np.asarray(values, dtype=complex)


def gamma_euler(z, cut=60.0, n=400001):
    """Euler-integral Gamma(z) for Re z > 0 by dense quadrature."""
    t = np.linspace(1e-12, cut, n)
    return float(np.trapezoid(t ** (z - 1.0) * np.exp(-t), t))


def hyp2f1_euler(a, b, c, z, n=200001):
    """Euler integral for 2F1, valid for c > b > 0 and z < 1."""
    t = np.linspace(1e-9, 1.0 - 1e-9, n)
    integrand = t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - z * t) ** (-a)
    coeff = gamma_euler(c) / (gamma_euler(b) * gamma_euler(c - b))
    return coeff * float(np.trapezoid(integrand, t))


# -- quadrature -----------------------------------------------------------

def test_integrate_line_sech_powers():
    # int sech^2 = 2 and int sech^4 = 4/3 exactly
    assert integrate_line(lambda x: 1.0 / np.cosh(x) ** 2) == pytest.approx(2.0, rel=1e-9)
    assert integrate_line(lambda x: 1.0 / np.cosh(x) ** 4) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_integrate_line_odd_integrand_vanishes():
    val = integrate_line(lambda x: x / np.cosh(x) ** 2)
    assert abs(val) < 1e-12


def test_integrate_line_oscillatory_against_trapezoid():
    """Oscillatory sech-weighted integral vs a dense trapezoid reference."""
    f = lambda x: np.cos(3.0 * x) / np.cosh(x) ** 2
    adaptive = integrate_line(f)
    reference = dense_trapezoid(f, -40.0, 40.0, n=400001)
    assert adaptive == pytest.approx(reference, abs=1e-9)


def test_integrate_line_finite_interval():
    assert integrate_line(np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-9)


def test_only_numerics_refers_to_integrate_line():
    # one integration rule in the package: the adaptive quadrature is kept
    # only as the tests' oracle, so no other module may name it
    users = []
    for path in sorted(Path(slowsound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # names, attributes, imports (and their aliases) and definitions
            keys = ("id", "attr", "name", "asname")
            if "integrate_line" in {getattr(node, key, None) for key in keys}:
                users.append(path.stem)
    assert set(users) == {"numerics"}


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency; mpmath and the rest are test-only
    foreign = []
    for path in sorted(Path(slowsound.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in {"numpy", "slowsound"} | sys.stdlib_module_names:
                    foreign.append(f"{path.stem}: {name}")
    assert not foreign


# -- special functions ----------------------------------------------------

def test_log_abs_gamma_on_the_real_axis_and_known_lines():
    for a in (0.3, 1.0, 2.4, 7.5, 30.0):
        assert log_abs_gamma(a, 0.0) == pytest.approx(math.lgamma(a), rel=1e-14, abs=1e-14)
    # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y), |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
    y = np.array([1e-6, 0.05, 0.7, 3.0, 12.0, 60.0])
    half = 0.5 * (math.log(math.pi) - np.log(np.cosh(np.pi * y)))
    one = 0.5 * (np.log(np.pi * y) - np.log(np.sinh(np.pi * y)))
    np.testing.assert_allclose(log_abs_gamma(0.5, y), half, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(log_abs_gamma(1.0, y), one, rtol=1e-14, atol=1e-14)
    assert log_abs_gamma(2.4, y).shape == y.shape
    with pytest.raises(NumericsError, match="a > 0"):
        log_abs_gamma(0.0, y)


@pytest.mark.parametrize("a", [0.3, 1.2, 2.4, 4.5])
def test_sech_moments_at_zero_match_mpmath_quadrature(a):
    # M_m = integral of tanh^m sech^(2a) over the line; the odd ones vanish
    moments = sech_moments(a, 0.0)
    assert len(moments) == 8
    with mpmath.workdps(30):
        for m, value in enumerate(moments):
            ref = float(mpmath.quad(lambda x: mpmath.tanh(x) ** m * mpmath.sech(x) ** (2 * a),
                                    [-mpmath.inf, 0, mpmath.inf]))
            if m % 2:
                assert value == 0.0 and abs(ref) < 1e-25
            else:
                assert value == pytest.approx(ref, rel=1e-13)


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;-1) = ln 2
    assert hyp2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_hyp2f1_at_zero_and_euler_integral():
    assert hyp2f1(0.7, 1.3, 2.1, 0.0) == pytest.approx(1.0, rel=1e-14)
    # parameters chosen so the Euler integrand is smooth at both endpoints
    # (b > 1 and c - b > 1) and the trapezoid reference is trustworthy
    got = hyp2f1(1.3, 2.0, 4.0, -1.0)
    ref = hyp2f1_euler(1.3, 2.0, 4.0, -1.0)
    assert got == pytest.approx(ref, rel=1e-7)


def test_hyp2f1_binomial_special_case():
    # 2F1(a, b; b; z) = (1-z)^(-a) for any b
    got = hyp2f1(1.5, 2.0, 2.0, -0.7)
    assert got == pytest.approx(1.7 ** -1.5, rel=1e-12)


# -- Fourier and grids ----------------------------------------------------

def test_fft_matches_naive_dft():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.allclose(fft(values), naive_dft(values), atol=1e-10)


def test_ifft_roundtrip():
    rng = np.random.default_rng(4)
    values = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.allclose(ifft(fft(values)), values, atol=1e-12)


def test_grid_spacing_and_wavenumbers():
    grid = Grid1D(256, 32.0)
    assert grid.dx == pytest.approx(32.0 / 256)
    assert np.allclose(np.diff(grid.x), grid.dx)
    # k must follow the fft ordering so exp(ik x) diagonalizes derivatives
    psi = np.exp(1j * grid.k[5] * grid.x)
    dpsi = ifft(1j * grid.k * fft(psi))
    assert np.allclose(dpsi, 1j * grid.k[5] * psi, atol=1e-9)


# -- root finding ---------------------------------------------------------

def test_find_root_cosine():
    assert find_root(math.cos, 0.0, 3.0) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_find_root_cubic_and_bad_bracket():
    f = lambda x: x ** 3 - 2.0 * x - 5.0
    root = find_root(f, 1.0, 3.0)
    assert abs(f(root)) < 1e-10
    with pytest.raises(NumericsError):
        find_root(lambda x: 1.0 + x ** 2, -1.0, 1.0)


# -- ODE integration ------------------------------------------------------

def _rabi_generator(omega):
    """Generator of the resonant two-level problem, dy/dt = L y."""
    return np.array([[0.0, -0.5j * omega], [-0.5j * omega, 0.0]])


def test_rk4_rabi_flopping():
    """Two-level Rabi problem against the exact sinusoid."""
    omega = 0.37
    times = np.linspace(0.0, 40.0, 81)
    traj = rk4_evolve(_rabi_generator(omega), np.array([1.0 + 0j, 0.0 + 0j]), times, max_step=0.01)
    p1 = np.abs(traj[:, 1]) ** 2
    assert np.allclose(p1, np.sin(0.5 * omega * times) ** 2, atol=1e-8)


def test_rk4_norm_preserved():
    omega = 1.1
    traj = rk4_evolve(_rabi_generator(omega), np.array([1.0 + 0j, 0.0j]), np.linspace(0, 10, 11),
                      max_step=0.005)
    norms = np.sum(np.abs(traj) ** 2, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-10)


def test_rk4_step_matrix_power_matches_step_loop_and_exact_exponential():
    """P^nsub against sequential RK4 steps and against exp(tL).

    Uneven sampling intervals give a different step size in each.  The
    exact bound: one step's error is ||exp(hL) - P|| <= (h l)^5/120 e^(h l)
    with l = ||L||_2, and nsub steps telescope to nsub (h l)^5/120 e^(t l).
    """
    rng = np.random.default_rng(17)
    gen = -0.3 * np.eye(4) + 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    times = np.array([0.0, 0.3, 1.1, 1.15, 2.6])
    max_step = 0.05
    traj = rk4_evolve(gen, y0, times, max_step=max_step)

    y, loop, bound = y0.copy(), [y0], 0.0
    ell = np.linalg.norm(gen, 2)
    for span in np.diff(times):
        nsub = max(1, math.ceil(span / max_step - 1e-12))
        h = span / nsub
        for _ in range(nsub):
            k1 = gen @ y
            k2 = gen @ (y + 0.5 * h * k1)
            k3 = gen @ (y + 0.5 * h * k2)
            k4 = gen @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        loop.append(y)
        bound += nsub * (h * ell) ** 5 / 120.0
    np.testing.assert_allclose(traj, np.array(loop), rtol=1e-12, atol=0)

    lam, vec = np.linalg.eig(gen)
    exact = np.array([vec @ (np.exp(lam * t) * np.linalg.solve(vec, y0)) for t in times])
    err = np.linalg.norm(traj - exact, axis=1)
    assert err[-1] > 0.0
    assert np.all(err <= bound * math.exp(times[-1] * ell) * np.linalg.norm(y0))


def test_rk4_rejects_bad_times_and_step():
    gen, y0 = _rabi_generator(1.0), np.array([1.0 + 0j, 0.0j])
    for times in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [[0.0, 1.0]], []):
        with pytest.raises(ValueError):
            rk4_evolve(gen, y0, np.array(times), max_step=0.1)
    for step in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            rk4_evolve(gen, y0, np.array([0.0, 1.0]), max_step=step)


# -- linear solves --------------------------------------------------------

def test_solve_dense_residual():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    x = solve_dense(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-9


def test_solve_dense_singular_raises():
    a = np.zeros((3, 3))
    with pytest.raises(NumericsError):
        solve_dense(a, np.ones(3))


def test_solve_dense_stack_marks_singular_system():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    b = rng.standard_normal(4)
    x = solve_dense(a, b)
    assert x.shape == (3, 4)
    for a_i, x_i in zip(a, x):
        assert np.array_equal(x_i, solve_dense(a_i, b))
    # singular, although x = b would solve it exactly
    a[1] = np.diag([1.0, 1.0, 1.0, 0.0])
    rhs = np.stack([b, np.eye(4)[0], b])
    with pytest.raises(NumericsError, match="1 of 3 dense solves"):
        solve_dense(a, rhs)


def test_solve_dense_looks_for_singular_systems_only_after_a_failed_solve(monkeypatch):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 4, 4))
    b = rng.standard_normal(4)
    expected = np.linalg.solve(a, np.broadcast_to(b, (3, 4))[..., None])[..., 0]
    passes = []
    slogdet = np.linalg.slogdet

    def counted_slogdet(matrix):
        passes.append(matrix.shape)
        return slogdet(matrix)

    monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
    assert np.array_equal(solve_dense(a, b), expected)
    assert passes == []
    a[2] = 0.0
    with pytest.raises(NumericsError, match="1 of 3 dense solves"):
        solve_dense(a, b)
    assert passes == [(3, 4, 4)]


# -- Hilbert transform ----------------------------------------------------

def test_hilbert_on_lorentzian_pair():
    """Dispersion relations of a single pole, exact in closed form.

    A causal decaying response has chi(D) = -1 / (D + i gamma/2), whose
    parts are Im = (gamma/2)/(D^2 + gamma^2/4) (positive absorption) and
    Re = -D/(D^2 + gamma^2/4); the principal-value pairing then reads
    Re = -H[Im] and Im = +H[Re] for this kernel.  The grid extends far
    past the pole so the truncated transform converges on the central
    band.
    """
    gamma = 1.0
    n = 1 << 14
    span = 400.0
    d = span * (2.0 * np.arange(n) / n - 1.0)
    im = 0.5 * gamma / (d ** 2 + 0.25 * gamma ** 2)
    re = -d / (d ** 2 + 0.25 * gamma ** 2)
    core = np.abs(d) < 20.0

    re_rec = -hilbert_transform(im)
    im_rec = hilbert_transform(re)
    assert np.max(np.abs(re_rec[core] - re[core])) < 2e-3 * np.max(np.abs(re))
    assert np.max(np.abs(im_rec[core] - im[core])) < 2e-3 * np.max(np.abs(im))


def full_spectrum_hilbert(values):
    """The multiplier -i sgn(frequency) on the full complex spectrum, as
    hilbert_transform applied it before it took the one-sided spectrum."""
    n = len(values)
    kernel = np.zeros(n)
    kernel[1 : n // 2] = 1.0
    kernel[n // 2 + 1 :] = -1.0
    return np.real(np.fft.ifft(-1j * kernel * np.fft.fft(values)))


@pytest.mark.parametrize("log2n", range(10, 16))
def test_hilbert_matches_the_full_spectrum_multiplier(log2n):
    rng = np.random.default_rng(log2n)
    values = rng.standard_normal(1 << log2n)
    oracle = full_spectrum_hilbert(values)
    assert np.max(np.abs(hilbert_transform(values) - oracle)) < 2e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [1000, 3 << 10, 1 << 15 | 1])
def test_hilbert_refuses_a_length_not_a_power_of_two(n):
    with pytest.raises(NumericsError, match="power of two"):
        hilbert_transform(np.ones(n))


def test_hilbert_annihilates_constants_up_to_truncation():
    values = np.ones(4096)
    out = hilbert_transform(values)
    # the transform of a constant vanishes in principal value
    assert np.max(np.abs(out[1024:3072])) < 0.05
