"""Physical constants and runtime configuration.

Internal unit system: lengths in micrometres, energies in eV.  The CLI
accepts polarizabilities in nm^3 and converts on entry.
"""

from __future__ import annotations

import math
import os

from .errors import DomainError
from .record import Record

# CODATA 2018 values.
HBAR_C_EV_NM = 197.3269804        # eV nm
K_B_EV_PER_K = 8.617333262e-5     # eV / K

DEFAULT_THETA = 100.0

# config file keys accepted via CPWALL_CONFIG
_CONFIG_KEYS = ("hbar_c_ev_nm", "k_b_ev_per_k", "default_theta")


class PhysicalConstants(Record):
    """Constants entering unit conversions.

    hbar_c is stored in eV nm, k_B in eV/K, matching the tabulated CODATA
    values; helpers convert to the internal micrometre scale.
    """

    __slots__ = ("hbar_c", "k_B", "default_theta")
    _defaults = {
        "hbar_c": HBAR_C_EV_NM,
        "k_B": K_B_EV_PER_K,
        "default_theta": DEFAULT_THETA,
    }

    def _check(self) -> None:
        for name in self.__slots__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive and finite, got {value}")

    @property
    def hbar_c_ev_um(self) -> float:
        return self.hbar_c * 1e-3

    def thermal_wavelength_um(self, temperature_K: float) -> float:
        """lambda_T = hbar c / (k_B T), in micrometres."""
        if temperature_K <= 0.0:
            raise DomainError(f"temperature must be positive, got {temperature_K}")
        k_t = self.k_B * temperature_K
        lam = self.hbar_c_ev_um / k_t if k_t > 0.0 else math.inf
        if not math.isfinite(lam):
            raise DomainError(
                f"thermal wavelength at T = {temperature_K} K is not a finite number"
            )
        return lam


def _parse_config_text(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError as exc:
            raise DomainError(f"config line {lineno}: bad float {val.strip()!r}") from exc
    return values


def load_constants(env: dict[str, str] | None = None) -> PhysicalConstants:
    """Build PhysicalConstants, honouring the CPWALL_CONFIG file if set.

    Unknown keys and malformed lines raise DomainError rather than being
    ignored, so a typo in a config file cannot silently change physics.
    """
    environ = os.environ if env is None else env
    path = environ.get("CPWALL_CONFIG")
    if not path:
        return PhysicalConstants()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read CPWALL_CONFIG file {path!r}: {exc}") from exc
    values = _parse_config_text(text)
    return PhysicalConstants(
        hbar_c=values.get("hbar_c_ev_nm", HBAR_C_EV_NM),
        k_B=values.get("k_b_ev_per_k", K_B_EV_PER_K),
        default_theta=values.get("default_theta", DEFAULT_THETA),
    )
