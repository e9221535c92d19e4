"""Impurity spectrum in the soliton well: window, ladder, wavefunctions.

The quadrature oracle here is a dense trapezoid on a wide interval; the
bound shapes decay like sech(x)^(nu-n) times polynomials, so +-60 healing
lengths is far past any support that matters at these tolerances.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from slowsound.params import REFERENCE, coupling_ratio_for_nu, nu_from_ratios
from slowsound.qutrit import (
    QUTRIT_NU_MAX,
    QUTRIT_NU_MIN,
    ImpurityStates,
    NotAQutrit,
    QutritSpectrum,
    bound_state_count,
    is_qutrit,
    ladder,
    poschl_teller_state,
    qutrit_window_in_coupling_ratio,
    spectrum,
)
from slowsound.scenarios import scenario_spectrum

X = np.linspace(-60.0, 60.0, 240001)
DX = X[1] - X[0]


def overlap(f, g):
    return float(np.trapezoid(f(X) * g(X), X))


# -- window arithmetic ----------------------------------------------------

def test_window_boundaries_exact():
    assert QUTRIT_NU_MIN == pytest.approx(4.0 / 5.0, abs=0.0)
    assert QUTRIT_NU_MAX == pytest.approx(9.0 / 7.0, abs=0.0)
    assert bound_state_count(4.0 / 5.0) == 3
    assert bound_state_count(9.0 / 7.0) == 4
    assert is_qutrit(4.0 / 5.0)
    assert not is_qutrit(9.0 / 7.0)


def test_window_interior_and_exterior():
    rng = np.random.default_rng(42)
    for nu in rng.uniform(4.0 / 5.0, 9.0 / 7.0, size=100):
        if nu < 9.0 / 7.0:
            assert is_qutrit(nu), nu
            assert bound_state_count(nu) == 3, nu
    assert not is_qutrit(0.79)
    assert not is_qutrit(1.30)
    assert bound_state_count(0.5) < 3
    assert bound_state_count(1.9) > 3


def test_window_in_coupling_ratio_roundtrip():
    lo, hi = qutrit_window_in_coupling_ratio(1.56)
    # the edges must map back onto the rational nu boundaries
    from slowsound.params import nu_from_ratios

    assert nu_from_ratios(lo, 1.56) == pytest.approx(4.0 / 5.0, rel=1e-12)
    assert nu_from_ratios(hi, 1.56) == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert lo < REFERENCE.coupling_ratio < hi


def test_every_ratio_in_the_window_interval_is_a_qutrit():
    """Every ratio in [lo, hi) is a qutrit: at REFERENCE's mass ratio the
    float nu of the ratio just below the closed-form edge rounds onto 9/7."""
    from slowsound.params import nu_from_ratios

    for mass_ratio in [*np.linspace(1.0, 2.0, 101), REFERENCE.mass_ratio]:
        lo, hi = qutrit_window_in_coupling_ratio(mass_ratio)
        assert is_qutrit(nu_from_ratios(lo, mass_ratio)), mass_ratio
        assert is_qutrit(nu_from_ratios(math.nextafter(hi, 0.0), mass_ratio)), mass_ratio


# -- energy ladder --------------------------------------------------------

def test_spectrum_ladder_arithmetic():
    """Transition frequencies recomputed from the energy ladder itself."""
    spec = spectrum(REFERENCE)
    assert isinstance(spec, QutritSpectrum)
    nu, rm = spec.nu, REFERENCE.mass_ratio
    energies = [-((nu - n) ** 2) / (2.0 * rm) for n in range(3)]
    assert np.allclose(spec.energies, energies, rtol=1e-13)
    # omega_0 is the 0->1 gap; omega_1 the magnitude of the 1->2 gap
    assert spec.omega_0 == pytest.approx(energies[1] - energies[0], rel=1e-13)
    assert spec.omega_0 == pytest.approx((2.0 * nu - 1.0) / (2.0 * rm), rel=1e-13)
    assert spec.omega_1 == pytest.approx(abs(2.0 * nu - 3.0) / (2.0 * rm), rel=1e-13)
    assert spec.n_bound == 3


def test_spectrum_outside_window():
    res = spectrum(replace(REFERENCE, coupling_ratio=0.5))
    assert isinstance(res, NotAQutrit)
    assert res.n_bound != 3
    res_hi = spectrum(replace(REFERENCE, coupling_ratio=3.0))
    assert isinstance(res_hi, NotAQutrit)


def test_spectrum_at_window_edges_in_coupling_ratio():
    lo, hi = qutrit_window_in_coupling_ratio(REFERENCE.mass_ratio)
    assert isinstance(spectrum(replace(REFERENCE, coupling_ratio=lo)), QutritSpectrum)
    assert isinstance(spectrum(replace(REFERENCE, coupling_ratio=hi)), NotAQutrit)


# nu across [0, 3]: a grid, the window's edges, the float just below 9/7,
# and full-mantissa draws, among which an array's x * x and C pow(x, 2)
# differ in the last bit about once in a thousand squares
LADDER_NUS = np.concatenate([
    np.linspace(0.0, 3.0, 301),
    [QUTRIT_NU_MIN, QUTRIT_NU_MAX, math.nextafter(QUTRIT_NU_MAX, 0.0)],
    np.random.default_rng(11).uniform(0.0, 3.0, 3000),
])


def bits(value):
    return float(value).hex()


@pytest.mark.parametrize("mass_ratio", [1.0, 1.56])
def test_ladder_functions_on_arrays_equal_scalar_calls_bit_for_bit(mass_ratio):
    """Each array entry equals the scalar call at its nu, and the scalar call
    equals the Python-float formula of the ladder."""
    omega_0, omega_1, energies = ladder(LADDER_NUS, mass_ratio)
    counts, inside = bound_state_count(LADDER_NUS), is_qutrit(LADDER_NUS)
    ratios = LADDER_NUS * (LADDER_NUS + 1.0) / mass_ratio
    nus = nu_from_ratios(ratios, mass_ratio)
    for i, nu in enumerate(LADDER_NUS.tolist()):
        w0, w1, e = ladder(nu, mass_ratio)
        assert [bits(omega_0[i]), bits(omega_1[i])] == [bits(w0), bits(w1)], nu
        assert [bits(level[i]) for level in energies] == list(map(bits, e)), nu
        assert counts[i] == bound_state_count(nu) and inside[i] == is_qutrit(nu), nu
        ratio = float(ratios[i])
        assert bits(nus[i]) == bits(nu_from_ratios(ratio, mass_ratio)), ratio

        assert bits(w0) == bits((2.0 * nu - 1.0) / (2.0 * mass_ratio))
        assert bits(w1) == bits(abs(2.0 * nu - 3.0) / (2.0 * mass_ratio))
        assert list(map(bits, e)) == [bits(-((nu - n) ** 2) / (2.0 * mass_ratio)) for n in range(3)]
        assert bound_state_count(nu) == math.floor(nu + 1.0 + math.sqrt(nu * (1.0 + nu)) + 1e-12)
        assert is_qutrit(nu) == (4.0 / 5.0 <= nu < 9.0 / 7.0)
        root = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * ratio * mass_ratio))
        assert bits(nu_from_ratios(ratio, mass_ratio)) == bits(root)
    assert {False, True} <= set(inside.tolist())


def test_spectrum_fields_are_python_types():
    assert type(REFERENCE.nu) is float
    spec = spectrum(REFERENCE)
    assert isinstance(spec, QutritSpectrum)
    assert [type(v) for v in (spec.nu, spec.omega_0, spec.omega_1, *spec.energies)] == [float] * 6
    assert type(spec.n_bound) is int and type(spec.energies) is tuple
    outside = spectrum(replace(REFERENCE, coupling_ratio=0.5))
    assert isinstance(outside, NotAQutrit)
    assert (type(outside.nu), type(outside.n_bound)) == (float, int)


class RowSink:
    """Stands in for an OutputSink: keeps the tables and plotted series."""

    def __init__(self):
        self.tables = {}
        self.series = {}

    def csv(self, name, columns, rows):
        self.tables[name] = (columns, list(rows))

    def json(self, name, payload):
        pass

    def svg(self, name, x, series, **labels):
        self.series[name] = dict(series)


def exact(value):
    """A cell's type and, for a float, its bits (every NaN reads 'nan')."""
    return type(value), value.hex() if isinstance(value, float) else value


def test_spectrum_sweep_matches_scalar_spectrum_bit_for_bit():
    """scenario_spectrum's array sweep against spectrum() at each of its points."""
    edges = set()
    for mass_ratio in (1.0, 1.31, 1.56, 2.0):
        params = replace(REFERENCE, mass_ratio=mass_ratio)
        sink = RowSink()
        scenario_spectrum(params, sink)
        columns, rows = sink.tables["spectrum.csv"]
        assert len(rows) == 201
        window = [*qutrit_window_in_coupling_ratio(mass_ratio)]
        inside = []
        for row in rows:
            spec = spectrum(replace(params, coupling_ratio=row[0]))
            qutrit = isinstance(spec, QutritSpectrum)
            levels = [spec.omega_0, spec.omega_1, *spec.energies] if qutrit else [math.nan] * 5
            expected = [spec.nu, spec.n_bound, qutrit, *levels, *window]
            assert list(map(exact, row[1:])) == list(map(exact, expected)), row[0]
            inside.append(qutrit)
        for before, after in zip(inside, inside[1:]):
            edges.add({(False, True): "lower", (True, False): "upper"}.get((before, after)))
        plotted = sink.series["spectrum.svg"]
        for name in ("omega_0", "omega_1"):
            column = [row[columns.index(name)] for row in rows]
            assert list(map(exact, plotted[name].tolist())) == list(map(exact, column))
    assert {"lower", "upper"} <= edges


# -- bound-state shapes ---------------------------------------------------

def test_poschl_teller_states_normalized():
    nu = REFERENCE.nu
    for n in (0, 1):
        profile = poschl_teller_state(n, nu)
        assert overlap(profile, profile) == pytest.approx(1.0, rel=1e-8)


def test_poschl_teller_parity():
    nu = REFERENCE.nu
    even = poschl_teller_state(0, nu)
    odd = poschl_teller_state(1, nu)
    assert np.allclose(even(X), even(-X), atol=1e-12)
    assert np.allclose(odd(X), -odd(-X), atol=1e-12)
    assert odd(0.0) == pytest.approx(0.0, abs=1e-12)


def test_poschl_teller_requires_bound_nu():
    with pytest.raises(ValueError):
        poschl_teller_state(2, 1.2)  # nu <= n: no normalizable shape
    with pytest.raises(ValueError):
        poschl_teller_state(1, 0.9999)


def test_poschl_teller_solves_schroedinger():
    """Rayleigh quotient of the closed-form shape against its own ladder.

    Second derivative by central differences on a fine grid; the state
    solves -psi''/(2 r_m) - nu(nu+1)/(2 r_m) sech^2 psi = E psi.
    """
    nu, rm = 1.22, 1.56
    for n in (0, 1):
        profile = poschl_teller_state(n, nu)
        x = np.linspace(-45.0, 45.0, 90001)
        h = x[1] - x[0]
        psi = profile(x)
        d2 = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h ** 2
        v = -nu * (nu + 1.0) / (2.0 * rm) / np.cosh(x[1:-1]) ** 2
        h_psi = -d2 / (2.0 * rm) + v * psi[1:-1]
        e_rayleigh = np.trapezoid(psi[1:-1] * h_psi, x[1:-1])
        e_expected = -((nu - n) ** 2) / (2.0 * rm)
        # tolerance set by the O(h^2) central-difference truncation and the
        # slowly decaying sech^(nu-1) tail of the odd state
        assert e_rayleigh == pytest.approx(e_expected, rel=1e-5)


# -- assembled state family ------------------------------------------------

def test_wavefunctions_orthonormal():
    states = ImpurityStates(REFERENCE)
    gram = np.array([[overlap(states[i], states[j]) for j in range(3)] for i in range(3)])
    assert np.allclose(gram, np.eye(3), atol=1e-7)


def test_wavefunctions_parity():
    states = ImpurityStates(REFERENCE)
    assert np.allclose(states[0](X), states[0](-X), atol=1e-10)
    assert np.allclose(states[1](X), -states[1](-X), atol=1e-10)
    assert np.allclose(states[2](X), states[2](-X), atol=1e-10)


def test_normalization_report_structure():
    """The printed closed-form constants against a trapezoid sum of the raw
    profiles: A0 agrees, A1 and A2 are recorded with their disagreement."""
    report = ImpurityStates(REFERENCE).normalization_report()
    consts = {row["state"]: row for row in report["constants"]}
    assert consts[0]["relative_deviation"] < 1e-8
    # states 1 and 2 carry known closed-form/quadrature disagreements;
    # the report must expose them rather than hide them
    assert consts[1]["relative_deviation"] > 0.01
    assert consts[2]["relative_deviation"] > 0.01
    assert report["orthogonalized"] is True
    assert abs(report["overlap_raw_02"]) > 0.01


def test_wavefunctions_localized():
    states = ImpurityStates(REFERENCE)
    for n in range(3):
        tail = abs(states[n](25.0))
        core = abs(states[n](0.0)) + abs(states[n](0.7))
        assert tail < 1e-4 * core
