"""Shared numerical kernels: special functions, FFT, dense solves, RK4.

No integral of the chain goes through this module: state norms and mode
overlaps are closed forms in Gamma-function moments (qutrit and coupling,
with gamma_fn, hyp2f1 and log_abs_gamma from here), and the decay rates
are golden-rule closed forms.  What is here serves the routes that need a
grid or a solver: FFTs for the frozen-well eigensolve and the coupled
ground state (gpe) and for pulse propagation (response), dense solves and
RK4 for the driven Lindblad dynamics (bloch), and the Hilbert transform
for validate's Kramers-Kronig check.  integrate_line (adaptive Simpson on
the line compactified by x = 2 atanh(t)) and find_root (Brent) have no
caller in the package; the tests check them and the profiling harness
hooks them by name.

Conventions
-----------
* Integrands may return complex values; all routines propagate complex.
* FFTs require power-of-two lengths (keeps radix behaviour predictable
  and makes accidental odd-length grids fail loudly instead of silently
  losing accuracy).
"""

import math

import numpy as np

__all__ = [
    "NumericsError",
    "Grid1D",
    "integrate_line",
    "gamma_fn",
    "log_abs_gamma",
    "hyp2f1",
    "find_root",
    "fft",
    "ifft",
    "hilbert_transform",
    "solve_dense",
    "rk4_evolve",
]


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""

    failed = None  # set by solve_dense: which systems of the stack failed


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


class Grid1D:
    """Uniform periodic spatial grid on [-length/2, length/2).

    Parameters
    ----------
    npoints : int
        Number of samples; must be a power of two, at least 16.
    length : float
        Box size in healing lengths.
    """

    def __init__(self, npoints, length):
        if not isinstance(npoints, int) or not _is_power_of_two(npoints) or npoints < 16:
            raise ValueError(f"npoints must be a power of two >= 16, got {npoints!r}")
        if not (length > 0):
            raise ValueError(f"length must be positive, got {length!r}")
        self.npoints = npoints
        self.length = float(length)
        self.dx = self.length / npoints
        self.x = (np.arange(npoints) - npoints // 2) * self.dx
        # FFT-ordered wavenumbers matching numpy's transform layout.
        self.k = 2.0 * np.pi * np.fft.fftfreq(npoints, d=self.dx)

    def __repr__(self):
        return f"Grid1D(npoints={self.npoints}, length={self.length:g})"


# ----------------------------------------------------------------------
# Adaptive quadrature
# ----------------------------------------------------------------------

def _adaptive_simpson(f, a, b, tol, max_depth):
    """Recursive Simpson with Richardson error control on [a, b]."""

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = left + right - whole
        if abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        if depth <= 0:
            raise NumericsError(
                f"quadrature failed to reach tol={tol:g} on "
                f"[{a:g}, {b:g}] (stalled near [{lo:g}, {hi:g}])"
            )
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth - 1
        )

    fa = f(a)
    fb = f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def integrate_line(f, a=-math.inf, b=math.inf, tol=1e-10, max_depth=52):
    """Integrate f over [a, b]; either limit may be infinite.

    Infinite ranges are mapped to the open interval (-1, 1) through
    x = 2 atanh(t) (full line) or x = a + 2 atanh((1+t)/2) (half line),
    after which an adaptive Simpson rule drives the Richardson error
    estimate below ``tol`` (absolute).  The map assumes the integrand
    decays at infinity; beyond |x| ~ 36 (where 1-t^2 underflows the
    guard) it is treated as zero.

    Returns a float, or complex when f returns complex values.

    No module of the package calls it: the package integrates in closed
    form (coupling.g_quadrature) or by uniform trapezoid sums
    (qutrit.ImpurityStates.overlap), and the tests keep this routine as an
    independent oracle.

    Raises
    ------
    NumericsError
        If the recursion depth is exhausted before the tolerance is met.
    """
    if not (b > a):
        if a == b:
            return 0.0
        raise ValueError("integration limits must satisfy a < b")

    a_inf = math.isinf(a)
    b_inf = math.isinf(b)

    if not a_inf and not b_inf:
        return _adaptive_simpson(f, a, b, tol, max_depth)

    if a_inf and b_inf:
        def g(t):
            s = 1.0 - t * t
            if s <= 1e-15:
                return 0.0
            return f(2.0 * math.atanh(t)) * 2.0 / s

        return _adaptive_simpson(g, -1.0, 1.0, tol, max_depth)

    if a_inf:
        # fold (-inf, b] onto [-b, inf) by reflection
        return integrate_line(lambda x: f(-x), -b, math.inf, tol=tol, max_depth=max_depth)

    def g(t):
        u = 0.5 * (1.0 + t)
        s = 1.0 - u * u
        if s <= 1e-15 or u >= 1.0:
            return 0.0
        return f(a + 2.0 * math.atanh(u)) / s

    return _adaptive_simpson(g, -1.0, 1.0, tol, max_depth)


# ----------------------------------------------------------------------
# Special functions
# ----------------------------------------------------------------------

def gamma_fn(z):
    """Gamma function for real z > 0.

    Thin wrapper over the C library implementation; the positive-real
    domain restriction is all this package needs and keeps pole handling
    out of callers.
    """
    if not (z > 0):
        raise NumericsError(f"gamma_fn requires z > 0, got {z!r}")
    return math.gamma(z)


# Stirling coefficients B_2n / (2n (2n - 1)), n = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def log_abs_gamma(a, y):
    """ln|Gamma(a + iy)| = Re ln Gamma(a + iy) for real a > 0 and an array of y.

    Gamma(z) = Gamma(z + 8) / (z (z+1) ... (z+7)) moves the argument to
    w = z + 8, where Stirling's series through w^-13 (Abramowitz & Stegun
    6.1.40) is accurate to about 1e-15 absolute, since |w| > 8.
    """
    if not (a > 0):
        raise NumericsError(f"log_abs_gamma requires a > 0, got {a!r}")
    y = np.asarray(y, dtype=float)
    w = (a + 8.0) + 1j * y
    inv2 = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    stirling = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series / w
    shift = np.log(np.square(a + np.arange(8.0)) + (y * y)[..., None]).sum(axis=-1)
    return stirling.real - 0.5 * shift


def _hyp_series(a, b, c, z, tol, max_terms):
    """Power series sum_n (a)_n (b)_n / (c)_n z^n / n! for |z| <= 1/2."""
    term = 1.0
    total = 1.0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) <= tol * (abs(total) + 1.0):
            return total
    raise NumericsError(f"hypergeometric series did not converge (z={z:g})")


def hyp2f1(a, b, c, z, tol=1e-15, max_terms=600):
    """Gauss hypergeometric function 2F1(a, b; c; z) for real arguments.

    Supports z <= 1/2, which covers this package's uses (normalization
    constants evaluated at z = -1).  Negative arguments go through the
    Pfaff transformation 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)),
    whose transformed argument lies in [0, 1/2) where the defining series
    converges geometrically.
    """
    if c <= 0 and c == int(c):
        raise NumericsError(f"hyp2f1 undefined for non-positive integer c={c!r}")
    if z == 0:
        return 1.0
    if z < 0:
        w = z / (z - 1.0)
        return (1.0 - z) ** (-a) * _hyp_series(a, c - b, c, w, tol, max_terms)
    if z <= 0.5:
        return _hyp_series(a, b, c, z, tol, max_terms)
    raise NumericsError(f"hyp2f1 supports z <= 1/2, got z={z!r}")


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def find_root(f, lo, hi, tol=1e-12, max_iter=200):
    """Find a root of f on the bracket [lo, hi] (Brent's method).

    The bracket must be sign-changing.  Converges to |interval| <= tol
    (plus floating-point granularity); falls back to bisection whenever
    the interpolation step misbehaves, so it cannot escape the bracket.
    """
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise NumericsError(f"root not bracketed: f({lo:g})={fa:g}, f({hi:g})={fb:g}")

    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, xm))
        fb = f(b)
    raise NumericsError("root refinement did not converge")


# ----------------------------------------------------------------------
# FFT and dense linear algebra (delegated to numpy behind guarded wrappers)
# ----------------------------------------------------------------------

def fft(values):
    """Forward DFT (numpy backend); length must be a power of two."""
    values = np.asarray(values)
    if not _is_power_of_two(values.shape[-1]):
        raise NumericsError(f"fft length must be a power of two, got {values.shape[-1]}")
    return np.fft.fft(values)


def ifft(values):
    """Inverse DFT (numpy backend); length must be a power of two."""
    values = np.asarray(values)
    if not _is_power_of_two(values.shape[-1]):
        raise NumericsError(f"ifft length must be a power of two, got {values.shape[-1]}")
    return np.fft.ifft(values)


def hilbert_transform(values):
    """Discrete Hilbert transform of a real uniformly sampled signal.

    Returns H[f](x) = (1/pi) P-integral of f(x')/(x - x') dx', computed
    through the FFT multiplier -i sgn(frequency).  The signal is treated
    as periodic, so the samples should decay toward both ends of the
    grid; residual wraparound scales with the tail amplitude.  Length
    must be a power of two.
    """
    values = np.asarray(values, dtype=float)
    spectrum = fft(values)
    n = len(values)
    kernel = np.zeros(n)
    kernel[1 : n // 2] = 1.0
    kernel[n // 2 + 1 :] = -1.0
    return np.real(ifft(-1j * kernel * spectrum))


def solve_dense(matrix, rhs, residual_tol=1e-10):
    """Solve the small dense systems matrix @ x = rhs (n <= 16), one or a stack.

    matrix is (n, n) or a (..., n, n) stack, rhs one length-n vector or one
    per system.  Delegates to LAPACK's partial-pivot LU via numpy and
    enforces the residual bound ||Ax - b|| <= residual_tol * max(1, ||b||)
    on every system, raising NumericsError (failed marks which) on singular
    or ill-conditioned systems instead of returning junk.
    """
    a = np.asarray(matrix)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NumericsError(f"solve_dense needs square matrices, got shape {a.shape}")
    if a.shape[-1] > 16:
        raise NumericsError(f"solve_dense is for small systems (n <= 16), got n={a.shape[-1]}")
    b = np.broadcast_to(rhs, a.shape[:-1])
    singular = np.linalg.slogdet(a)[0] == 0  # an exact zero pivot; the identity stands in
    x = np.linalg.solve(np.where(singular[..., None, None], np.eye(a.shape[-1]), a), b[..., None])
    residual = np.linalg.norm(a @ x - b[..., None], axis=(-2, -1))
    failed = singular | ~(residual <= residual_tol * np.maximum(1.0, np.linalg.norm(b, axis=-1)))
    if np.any(failed):
        err = NumericsError(f"{np.count_nonzero(failed)} of {failed.size} dense solves"
                            f" singular or above residual {residual_tol:g}")
        err.failed = failed
        raise err
    return x[..., 0]


# ----------------------------------------------------------------------
# Fixed-step ODE integration
# ----------------------------------------------------------------------

def rk4_evolve(rhs, y0, times, max_step):
    """Classical fourth-order Runge-Kutta sampled at the given times.

    Parameters
    ----------
    rhs : callable(t, y) -> dy/dt
        May return real or complex arrays of y's shape.
    y0 : array_like
        Initial state at times[0].
    times : array_like
        Strictly increasing sample instants.
    max_step : float
        Upper bound on the internal step; each sampling interval is
        subdivided uniformly so samples are hit exactly.

    Returns
    -------
    ndarray with shape (len(times),) + y0.shape, complex.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("times must be a 1-D array with at least one entry")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not (max_step > 0):
        raise ValueError("max_step must be positive")

    y = np.array(y0, dtype=complex)
    out = np.empty((len(times),) + y.shape, dtype=complex)
    out[0] = y
    t = times[0]
    for i in range(1, len(times)):
        span = times[i] - t
        nsub = max(1, math.ceil(span / max_step - 1e-12))
        h = span / nsub
        for _ in range(nsub):
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(t + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = times[i]
        out[i] = y
    return out
