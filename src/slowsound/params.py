"""Model parameters and unit bookkeeping.

The library works in reduced units throughout: hbar = 1, condensate atom
mass m1 = 1, healing length xi = 1, chemical potential mu = 1.  In these
units the condensate coupling is g11 = 1/(n0 xi) for line density n0, the
impurity-condensate coupling is g12 = r_g * g11, energies and angular
frequencies are measured in mu (= mu/hbar), lengths in xi, and times in
hbar/mu.  The long-wavelength phonon slope of the condensate dispersion
equals sqrt(2) in these units and corresponds to the physical sound speed,
which is what the two physical anchor fields (healing length in microns,
sound speed in mm/s) restore for reporting.

A single frozen dataclass carries the physics ratios, the medium geometry,
and the drive settings used by the three-level response calculations, so a
scenario run is reproducible from one flat key=value mapping (the config
file format used by the command line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "ConfigError",
    "Params",
    "REFERENCE",
    "nu_from_ratios",
    "coupling_ratio_for_nu",
    "parse_config_text",
    "read_config",
    "apply_overrides",
    "params_from_mapping",
]


class ConfigError(ValueError):
    """Bad configuration input (unknown key, wrong type, out of range)."""


def nu_from_ratios(coupling_ratio, mass_ratio):
    """Well parameter nu from the coupling ratio g12/g11 and mass ratio m2/m1.

    nu = (-1 + sqrt(1 + 4 r_g r_m)) / 2; the impurity bound in the soliton
    notch sees a sech^2 well whose depth enters only through this combination.
    Works element by element on arrays; a scalar gives a numpy float64.
    """
    if np.any(coupling_ratio < 0) or np.any(mass_ratio <= 0):
        raise ConfigError("coupling_ratio must be >= 0 and mass_ratio > 0")
    return 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * coupling_ratio * mass_ratio))


def coupling_ratio_for_nu(nu, mass_ratio):
    """Inverse of nu_from_ratios: the g12/g11 that realizes a given nu."""
    if nu < 0 or mass_ratio <= 0:
        raise ConfigError("nu must be >= 0 and mass_ratio > 0")
    return nu * (nu + 1.0) / mass_ratio


@dataclass(frozen=True)
class Params:
    """Physics ratios, medium geometry, and drive settings (reduced units).

    Attributes
    ----------
    mass_ratio : impurity-to-condensate mass ratio m2/m1.
    coupling_ratio : interspecies over intraspecies coupling g12/g11.
    density_xi : condensate line density times healing length, n0*xi.
    soliton_concentration : solitons per healing length, N*xi = xi/d for
        mean intersoliton distance d.
    box_length_xi : quantization box L/xi used for propagation distances.
    impurity_number : impurities per soliton site entering the emission
        normalization; None means n0*xi (one "condensate slot" per site).
    healing_length_um, sound_speed_mm_s : physical anchors for unit
        restoration in reports; they never enter reduced-unit results.
    control_rabi_gamma0 : control Rabi frequency in units of the probe
        transition linewidth gamma0.
    probe_fraction : probe-to-control Rabi ratio (weak-probe regime).
    delta_mode : "track" keeps the control on resonance so the two-photon
        detuning follows the probe detuning; "fixed" pins it to zero.
    """

    mass_ratio: float = 1.56
    coupling_ratio: float = 1.85
    density_xi: float = 50.0
    soliton_concentration: float = 0.2
    box_length_xi: float = 100.0 / 0.7
    impurity_number: float | None = None
    healing_length_um: float = 0.7
    sound_speed_mm_s: float = 1.0
    control_rabi_gamma0: float = 4.5
    probe_fraction: float = 0.01
    delta_mode: str = "track"

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name in (
            "mass_ratio",
            "coupling_ratio",
            "density_xi",
            "box_length_xi",
            "healing_length_um",
            "sound_speed_mm_s",
            "control_rabi_gamma0",
        ):
            if not (getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not (0.0 < self.soliton_concentration < 1.0):
            raise ConfigError(
                "soliton_concentration must lie in (0, 1); solitons are dilute "
                f"(got {self.soliton_concentration!r})"
            )
        if self.impurity_number is not None and not (self.impurity_number > 0):
            raise ConfigError("impurity_number must be positive or omitted")
        if not (0.0 < self.probe_fraction <= 0.2):
            raise ConfigError("probe_fraction must lie in (0, 0.2] (weak probe)")
        if self.delta_mode not in ("track", "fixed"):
            raise ConfigError(f"delta_mode must be 'track' or 'fixed', got {self.delta_mode!r}")

    # -- derived reduced-unit quantities ---------------------------------

    @property
    def g11(self):
        """Condensate self-coupling, 1/(n0 xi)."""
        return 1.0 / self.density_xi

    @property
    def g12(self):
        """Impurity-condensate coupling, r_g/(n0 xi)."""
        return self.coupling_ratio / self.density_xi

    @property
    def nu(self):
        """Soliton-well parameter for these ratios, a Python float."""
        return float(nu_from_ratios(self.coupling_ratio, self.mass_ratio))

    @property
    def impurity_norm(self):
        """Resolved impurity normalization N0 (defaults to n0 xi)."""
        return self.density_xi if self.impurity_number is None else self.impurity_number

    # -- physical restoration --------------------------------------------

    def velocity_um_per_s(self, v_over_cs):
        """Convert a velocity expressed as a fraction of the sound speed."""
        return v_over_cs * self.sound_speed_mm_s * 1e3

    def time_ms(self, t_reduced):
        """Convert a reduced time to milliseconds.

        The reduced time unit is hbar/mu; anchoring the phonon slope
        sqrt(2) (reduced) to the physical sound speed gives
        hbar/mu = sqrt(2) * xi / c_s.
        """
        unit_s = math.sqrt(2.0) * self.healing_length_um * 1e-6 / (self.sound_speed_mm_s * 1e-3)
        return t_reduced * unit_s * 1e3


REFERENCE = Params()


# ----------------------------------------------------------------------
# Flat key = value configuration handling
# ----------------------------------------------------------------------

_FIELD_TYPES = {f.name: f.type for f in fields(Params)}


def _coerce(key, raw):
    """Coerce the string value of a config entry to its field's type."""
    if key not in _FIELD_TYPES:
        known = ", ".join(sorted(_FIELD_TYPES))
        raise ConfigError(f"unknown config key {key!r} (known keys: {known})")
    raw = raw.strip()
    if key == "delta_mode":
        return raw
    if key == "impurity_number" and raw.lower() in ("none", ""):
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects a number, got {raw!r}") from None


def parse_config_text(text):
    """Parse 'key = value' lines into a mapping; '#' starts a comment.

    Blank lines are skipped.  Values are type-coerced per field; unknown
    keys raise ConfigError so typos fail loudly.
    """
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        mapping[key] = _coerce(key, raw)
    return mapping


def read_config(path):
    """Parse the configuration file at path; an unreadable file is a ConfigError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config_text(text)


def apply_overrides(mapping, assignments):
    """Overlay 'key=value' strings (command-line --set) onto a mapping."""
    out = dict(mapping)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        out[key] = _coerce(key, raw)
    return out


def params_from_mapping(mapping):
    """Build Params from a parsed mapping, validating ranges."""
    try:
        return replace(REFERENCE, **mapping)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
