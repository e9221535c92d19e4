"""Parameter container, derived quantities, and config-text plumbing."""

import math
from dataclasses import replace

import pytest

from slowsound.params import (
    REFERENCE,
    ConfigError,
    Params,
    apply_overrides,
    coupling_ratio_for_nu,
    nu_from_ratios,
    params_from_mapping,
    parse_config_text,
)


def test_nu_solves_defining_quadratic():
    # nu is defined through nu (nu + 1) = r_g r_m; check the root directly
    for rg, rm in ((1.85, 1.56), (1.2, 1.56), (1.85, 1.1)):
        nu = nu_from_ratios(rg, rm)
        assert nu > 0
        assert nu * (nu + 1.0) == pytest.approx(rg * rm, rel=1e-14)


def test_coupling_ratio_roundtrip():
    for nu in (0.8, 1.0, 1.2708754896942924, 9.0 / 7.0):
        rg = coupling_ratio_for_nu(nu, 1.56)
        assert nu_from_ratios(rg, 1.56) == pytest.approx(nu, rel=1e-13)


def test_reference_derived_quantities():
    p = REFERENCE
    assert p.g11 == pytest.approx(1.0 / p.density_xi)
    assert p.g12 == pytest.approx(p.coupling_ratio * p.g11)
    assert p.box_length_xi == pytest.approx(100.0 / 0.7)
    # nu(nu+1) = r_g r_m for the resolved reference point
    assert p.nu * (p.nu + 1.0) == pytest.approx(p.coupling_ratio * p.mass_ratio, rel=1e-14)


def test_physical_restoration():
    """Unit anchors: healing length 0.7 um and sound speed 1 mm/s."""
    p = REFERENCE
    # a velocity of c_s maps to 1 mm/s = 1000 um/s
    assert p.velocity_um_per_s(1.0) == pytest.approx(1000.0)
    # one reduced time unit is sqrt(2) xi / c_s = sqrt(2) * 0.7 um / (1 mm/s),
    # which is sqrt(2) * 0.7 ms
    assert p.time_ms(1.0) == pytest.approx(math.sqrt(2.0) * 0.7, rel=1e-12)


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        params_from_mapping({"mass_ratio": -2.0})
    with pytest.raises(ConfigError):
        params_from_mapping({"density_xi": 0.0})
    with pytest.raises(ConfigError):
        params_from_mapping({"delta_mode": "sideways"})
    with pytest.raises(ConfigError, match="unknown config key 'coupling_mode'"):
        parse_config_text("coupling_mode = closed")
    with pytest.raises(ConfigError):
        params_from_mapping({"no_such_key": 1.0})


@pytest.mark.parametrize(
    "name",
    [
        "mass_ratio",
        "coupling_ratio",
        "density_xi",
        "soliton_concentration",
        "box_length_xi",
        "impurity_number",
        "healing_length_um",
        "sound_speed_mm_s",
        "control_rabi_gamma0",
        "probe_fraction",
    ],
)
def test_validation_rejects_infinity(name):
    # float("inf") parses, and inf passes every "> 0" check
    with pytest.raises(ConfigError, match="finite"):
        params_from_mapping(apply_overrides({}, [f"{name}=inf"]))


def test_parse_config_text():
    text = """
    # reference-like setup
    mass_ratio = 1.6

    coupling_ratio = 1.2   # inline comment
    delta_mode = fixed
    """
    mapping = parse_config_text(text)
    assert mapping["mass_ratio"] == 1.6
    assert mapping["coupling_ratio"] == 1.2
    assert mapping["delta_mode"] == "fixed"


def test_parse_config_text_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("mass_ratio 1.6")


def test_apply_overrides_precedence_and_errors():
    base = {"mass_ratio": 1.56}
    out = apply_overrides(base, ["mass_ratio=1.7", "probe_fraction=0.02"])
    assert out["mass_ratio"] == 1.7
    assert out["probe_fraction"] == 0.02
    assert base == {"mass_ratio": 1.56}  # input untouched
    with pytest.raises(ConfigError):
        apply_overrides(base, ["mass_ratio"])


def test_params_frozen_against_mutation():
    with pytest.raises(Exception):
        REFERENCE.mass_ratio = 2.0


def test_impurity_norm_default_and_override():
    assert REFERENCE.impurity_norm == REFERENCE.density_xi
    p = replace(REFERENCE, impurity_number=0.5)
    assert p.impurity_norm == 0.5


def test_params_from_mapping_defaults_to_reference():
    p = params_from_mapping({})
    assert p == REFERENCE
    q = params_from_mapping({"coupling_ratio": 1.2})
    assert q.coupling_ratio == 1.2
    assert q.mass_ratio == REFERENCE.mass_ratio


def test_window_membership_of_reference():
    # the reference point must sit strictly inside the three-level window
    assert 0.8 < REFERENCE.nu < 9.0 / 7.0
