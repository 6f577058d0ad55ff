"""JSON configuration for a finger mechanism.

The document carries the linkage geometry (lengths in mm, angles in
degrees) and optionally the finger-simulation extensions: phalanx lengths,
orientation range, tendon model, and the fixed-thumb contact segment.
Degrees appear only at this boundary; everything downstream is radians.
Unknown keys are rejected outright so typos cannot silently change runs.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, finite_number, load_json
from .geometry import FingerGeometry, LinkageGeometry, TendonModel

GEOMETRY_KEYS = {
    "v", "sigma_deg", "rho_deg", "theta4_deg", "theta8_deg", "theta1_range_deg",
}
FINGER_KEYS = {
    "phalanx_mm", "psi_range_deg", "base_offset_mm", "tendon", "thumb_line_mm",
}
TENDON_KEYS = {
    "kind", "arms_mm", "spring_nmm_per_rad", "preload_nmm", "max_tension_n",
}


class FingerConfig(NamedTuple):
    """Parsed configuration plus its source bytes."""

    geometry: LinkageGeometry
    finger: FingerGeometry | None
    tendon: TendonModel | None
    thumb_line: tuple[tuple[float, float], tuple[float, float]] | None
    source: bytes

    @property
    def sha256(self) -> str:
        """Hex SHA-256 of the source bytes; ``hashlib`` (OpenSSL) loads on
        the first read, so commands that emit no file never load it."""
        import hashlib

        return hashlib.sha256(self.source).hexdigest()

    def require_finger(self) -> FingerGeometry:
        if self.finger is None:
            raise ConfigError(
                "config lacks finger keys (phalanx_mm, psi_range_deg)"
            )
        return self.finger

    def require_tendon(self) -> TendonModel:
        if self.tendon is None:
            raise ConfigError("config lacks a tendon block")
        return self.tendon

    def require_thumb_line(self) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.thumb_line is None:
            raise ConfigError("config lacks thumb_line_mm")
        return self.thumb_line


def _finite(value, key: str) -> float:
    return finite_number(value, f"config key {key!r} takes finite numbers only")


def _number(doc: dict, key: str, default=None) -> float:
    if key not in doc:
        if default is None:
            raise ConfigError(f"config missing required key {key!r}")
        return float(default)
    return _finite(doc[key], key)


def _number_list(doc: dict, key: str, length: int) -> list[float]:
    if key not in doc:
        raise ConfigError(f"config missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(f"config key {key!r} must be a list of {length} numbers")
    return [_finite(item, key) for item in value]


def _parse_geometry(doc: dict) -> LinkageGeometry:
    v = _number_list(doc, "v", 8)
    sigma = math.radians(_number(doc, "sigma_deg"))
    rho = math.radians(_number(doc, "rho_deg"))
    theta4 = math.radians(_number(doc, "theta4_deg", default=90.0))
    theta8 = math.radians(_number(doc, "theta8_deg", default=90.0))
    lo_deg, hi_deg = _number_list(doc, "theta1_range_deg", 2)
    try:
        return LinkageGeometry(
            v=tuple(v),
            sigma=sigma,
            rho=rho,
            theta4_fixed=theta4,
            theta8_fixed=theta8,
            theta1_range=(math.radians(lo_deg), math.radians(hi_deg)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid geometry: {exc}") from exc


def _parse_tendon(block) -> TendonModel:
    if not isinstance(block, dict):
        raise ConfigError("config key 'tendon' must be an object")
    unknown = set(block) - TENDON_KEYS
    if unknown:
        raise ConfigError(f"unknown tendon keys: {sorted(unknown)}")
    arms = _number_list(block, "arms_mm", 3)
    try:
        return TendonModel(
            kind=block.get("kind"),
            moment_arms=tuple(arms),
            spring_stiffness=_number(block, "spring_nmm_per_rad", default=0.0),
            spring_preload=_number(block, "preload_nmm", default=0.0),
            max_tension=_number(block, "max_tension_n"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid tendon model: {exc}") from exc


def _parse_thumb_line(doc: dict):
    value = doc["thumb_line_mm"]
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(not isinstance(p, list) or len(p) != 2 for p in value)
    ):
        raise ConfigError("thumb_line_mm must be [[x1, y1], [x2, y2]]")
    return tuple(tuple(_finite(c, "thumb_line_mm") for c in point)
                 for point in value)


def parse_config(text: str | bytes) -> FingerConfig:
    """Parse and validate a config document from its raw bytes/text."""
    raw = text.encode("utf-8") if isinstance(text, str) else text
    doc = load_json(raw, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - GEOMETRY_KEYS - FINGER_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    geometry = _parse_geometry(doc)

    finger = None
    if "phalanx_mm" in doc or "psi_range_deg" in doc:
        phalanx = _number_list(doc, "phalanx_mm", 3)
        psi_lo, psi_hi = _number_list(doc, "psi_range_deg", 2)
        base = (
            _number_list(doc, "base_offset_mm", 2)
            if "base_offset_mm" in doc
            else [0.0, 0.0]
        )
        try:
            finger = FingerGeometry(
                phalanx_lengths=tuple(phalanx),
                base_offset=tuple(base),
                orientation_range=(math.radians(psi_lo), math.radians(psi_hi)),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid finger geometry: {exc}") from exc

    tendon = _parse_tendon(doc["tendon"]) if "tendon" in doc else None
    thumb_line = _parse_thumb_line(doc) if "thumb_line_mm" in doc else None

    return FingerConfig(
        geometry=geometry,
        finger=finger,
        tendon=tendon,
        thumb_line=thumb_line,
        source=raw,
    )


def load_config(path: str | Path) -> FingerConfig:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(raw)


def default_config() -> FingerConfig:
    """The shipped demonstration finger configuration."""
    return load_config(default_config_path())


def default_config_path() -> Path:
    """Filesystem path of the shipped config (for CLI default)."""
    return Path(str(resources.files("fingerkit").joinpath("data/default_finger.json")))
