"""validate as an ordered tuple of check functions over one rates resolution.

The golden check pins validate's (check, status) pairs in track mode; the
pairs in fixed mode, one check run on its own, and the number of overlap
evaluations, rates resolutions and default detuning grids behind validate
and susceptibility are pinned here, and so is the traced peak memory of
the Kramers-Kronig check.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slowsound import coupling, decay, numerics, qutrit, response, scenarios
from slowsound.decay import decay_rates
from slowsound.params import REFERENCE
from test_qutrit import RowSink

P, F, R = "PASS", "FAIL", "REPORT"
FIXED_MODE_ROWS = [
    ("window_boundary_counts", P),
    ("resonance_inversion_roundtrip", P),
    ("normalization_constant_0", P),
    ("normalization_constants_1_2", R),
    ("raw_overlap_phi0_phi2", R),
    ("orthogonality_after_projection", P),
    ("parity_structure", P),
    ("coupling_index_symmetry", P),
    ("closed_form_zero_at_k2", P),
    ("exponential_tail_at_k12", F),
    ("extremum_location_agreement", F),
    ("resonant_amplitude_ratio", R),
    ("interband_dominance", F),
    ("decay_route_agreement", P),
    ("cascade_norm_conservation", P),
    ("first_line_width", P),
    ("steady_state_route_agreement", P),
    ("lindblad_state_quality", P),
    ("weak_probe_convergence", P),
    ("relaxation_to_steady_state", P),
    ("transparency_contrast", P),
    ("dip_transition", F),
    ("autler_townes_separation", F),
    ("group_velocity_minimum", F),
    ("dispersion_branch_merge", P),
    ("pulse_delay_consistency", F),
    ("kramers_kronig_consistency", P),
]


def counted(monkeypatch, name):
    """Wrap scenarios.<name> and return the list its calls are recorded in."""
    calls = []
    original = getattr(scenarios, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, name, wrapper)
    return calls


def counted_rates(monkeypatch):
    """Wrap decay_rates where scenarios, response and decay call it, and
    return the list its calls are recorded in."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return decay_rates(*args, **kwargs)

    for module in (scenarios, response, decay):
        monkeypatch.setattr(module, "decay_rates", wrapper)
    return calls


def test_fixed_mode_rows_in_order():
    summary = scenarios.scenario_validate(replace(REFERENCE, delta_mode="fixed"), RowSink())
    assert [(row["check"], row["status"]) for row in summary["rows"]] == FIXED_MODE_ROWS
    assert (summary["n_pass"], summary["n_fail"], summary["n_report"]) == (17, 7, 3)


@pytest.fixture(scope="module")
def full_rows():
    return scenarios.scenario_validate(REFERENCE, RowSink())["rows"]


@pytest.mark.parametrize("check", scenarios.CHECKS, ids=lambda check: check.__name__)
def test_one_check_alone_gives_its_rows_of_the_full_run(check, full_rows):
    alone = list(check(REFERENCE, decay_rates(REFERENCE)))
    names = [row["check"] for row in alone]
    assert alone == [row for row in full_rows if row["check"] in names]


def test_validate_evaluates_each_overlap_curve_once(monkeypatch):
    # four interband curves share one k array, the three intraband curves
    # another; each family is one g_quadratures call over its pairs, and
    # g_10 at k = 0.9 is the index-symmetry check's own g_quadrature call
    families = counted(monkeypatch, "g_quadratures")
    singles = counted(monkeypatch, "g_quadrature")
    scenarios.scenario_validate(REFERENCE, RowSink())
    assert [args[0] for args, _ in families] == [((0, 1), (1, 2)), ((0, 0), (1, 1), (2, 2))]
    assert [args[:3] for args, _ in singles] == [(1, 0, 0.9)]


def test_validate_work_counts(monkeypatch):
    # sech_moments: one k = 0 evaluation for each of the four ImpurityStates
    # (check_states' and one per coupling call) and one per coupling call's
    # k: the 7-point intraband array, the 4811-point interband one and the
    # index-symmetry check's k = 0.9; no dense solve fails, so no slogdet
    # pass runs
    evaluations = []
    original = numerics.sech_moments

    def sech_moments(alpha, k):
        evaluations.append(np.shape(k))
        return original(alpha, k)

    for module in (qutrit, coupling):
        monkeypatch.setattr(module, "sech_moments", sech_moments)

    def slogdet(*args, **kwargs):
        raise AssertionError("slogdet called")

    monkeypatch.setattr(np.linalg, "slogdet", slogdet)
    scenarios.scenario_validate(REFERENCE, RowSink())
    assert sorted(evaluations) == [(), (), (), (), (), (7,), (4811,)]


def test_validate_resolves_the_rates_once_besides_the_route_check(monkeypatch):
    # one resolution at params, handed to every check; the decay route
    # check resolves its own at each of its ten window points
    calls = counted_rates(monkeypatch)
    scenarios.scenario_validate(REFERENCE, RowSink())
    resolved = [args[0] for args, _ in calls]
    assert len(resolved) == 11
    assert resolved.count(REFERENCE) == 1
    assert len(set(resolved)) == 11


def test_susceptibility_builds_each_control_sweep_once(monkeypatch):
    # the rates are resolved for the configured coupling ratio and for the
    # comparison family's two; the control scans and the Autler-Townes
    # sweep reuse the first
    calls = counted_rates(monkeypatch)
    grids = []
    original = response._default_detunings

    def default_detunings(rates, drive):
        grids.append((rates, drive.control_rabi, drive.probe_rabi, drive.delta_mode))
        return original(rates, drive)

    monkeypatch.setattr(response, "_default_detunings", default_detunings)
    scenarios.scenario_susceptibility(REFERENCE, RowSink())
    assert [args[0].coupling_ratio for args, _ in calls] == [REFERENCE.coupling_ratio, 1.1, 1.85]
    # the configured control, nine distinct scan controls and the
    # Autler-Townes control, all at the configured rates
    assert len(grids) == 11
    assert len({grid[1:] for grid in grids}) == 11
    assert all(grid[0] == decay_rates(REFERENCE) for grid in grids)


def test_kramers_kronig_check_peaks_below_seven_grid_arrays():
    """The 2**15-point Kramers-Kronig sweep sets validate's peak memory: the
    traced peak of check_transparency stays below seven float64 arrays of
    that grid (it was 9.7 with the slope built and chi held through the
    transform, and is 6.25 with one complex buffer per sweep)."""
    rates = decay_rates(REFERENCE)
    list(scenarios.check_transparency(REFERENCE, rates))  # first-call imports out of the count
    tracemalloc.start()
    try:
        list(scenarios.check_transparency(REFERENCE, rates))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_array = 8 * (1 << 15)
    assert peak < 7 * grid_array, peak / grid_array
