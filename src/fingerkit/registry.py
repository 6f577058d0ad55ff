"""Registry of published reference constants with consistency rules.

Every measured constant the toolkit relies on (force envelopes, grasp
diameter bounds, manipulator stroke, trial outcomes) lives here with its
provenance label, instead of being scattered through the code.  The
consistency rules (ordering relations, success-rate arithmetic, fixed key
values, unit/key-suffix agreement) are code, and all of them run on any
registry.  The shipped ``data/reference_registry.json`` holds only the
constants; :func:`default_registry` loads and validates it, and
:meth:`ReferenceRegistry.to_json` writes it back byte for byte.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, RuleViolationError, finite_number, validated

# key suffix -> required unit string; longest suffixes first so that e.g.
# "_mm_kg" is not shadowed by "_mm" or "_kg"
UNIT_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("_mm_kg", "mm/kg"),
    ("_rad_s", "rad/s"),
    ("_m_s", "m/s"),
    ("_count", "count"),
    ("_pct", "%"),
    ("_nm", "Nm"),
    ("_mm", "mm"),
    ("_kg", "kg"),
    ("_n", "N"),
    ("_m", "m"),
    ("_g", "g"),
    ("_s", "s"),
)


class RegistryEntry(NamedTuple):
    key: str
    value: float | int
    unit: str
    source: str
    quote: str


class RuleResult(NamedTuple):
    rule_id: str
    passed: bool
    detail: str


@validated
class ReferenceRegistry(NamedTuple):
    """Immutable collection of reference entries."""

    entries: tuple[RegistryEntry, ...]

    def _check(self) -> "ReferenceRegistry":
        seen: set[str] = set()
        for entry in self.entries:
            if entry.key in seen:
                raise ConfigError(f"duplicate registry key: {entry.key}")
            seen.add(entry.key)
            if not entry.source:
                raise ConfigError(f"registry entry {entry.key} lacks a source")
            finite_number(entry.value,
                          f"registry entry {entry.key} value must be a number")
        return self

    def value(self, key: str) -> float:
        return float(self.entry(key).value)

    def entry(self, key: str) -> RegistryEntry:
        for entry in self.entries:
            if entry.key == key:
                return entry
        raise KeyError(f"registry has no entry {key!r}")

    def has(self, key: str) -> bool:
        return any(entry.key == key for entry in self.entries)

    def to_json(self) -> str:
        doc = {"entries": [e._asdict() for e in self.entries]}
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str | bytes) -> "ReferenceRegistry":
        """Parse a ``{"entries": [...]}`` document without running the
        consistency rules (:meth:`validate` runs them)."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"registry is not valid JSON: {exc}") from exc
        if not (isinstance(doc, dict) and list(doc) == ["entries"]
                and isinstance(doc["entries"], list)):
            raise ConfigError(
                'registry root must be {"entries": [...]} with no other key')
        try:
            entries = tuple(
                RegistryEntry(
                    key=str(e["key"]),
                    value=e["value"],
                    unit=str(e["unit"]),
                    source=str(e["source"]),
                    quote=str(e["quote"]),
                )
                for e in doc["entries"]
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed registry document: {exc}") from exc
        return cls(entries=entries)

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceRegistry":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read registry {path}: {exc}") from exc
        return cls.loads(raw)

    def validate(self) -> None:
        """Raise RuleViolationError if any consistency rule fails."""
        failures = [r for r in registry_verify(self) if not r.passed]
        if failures:
            names = [f.rule_id for f in failures]
            details = "; ".join(f"{f.rule_id}: {f.detail}" for f in failures)
            raise RuleViolationError(
                f"registry consistency rules failed: {details}", rules=names
            )


def _check_pinch_ordering(registry: ReferenceRegistry) -> tuple[bool, str]:
    """Single-tendon pinch force stays below the double-tendon table value
    (pinch_force_double_n, not the bench average)."""
    single = registry.value("pinch_force_single_n")
    double = registry.value("pinch_force_double_n")
    ok = single < double
    return ok, f"single {single:g} N {'<' if ok else '>='} double {double:g} N"


def _check_success_rates(registry: ReferenceRegistry) -> tuple[bool, str]:
    """Every (trials, successes, rate) triple has successes/trials == rate."""
    problems = []
    checked = 0
    for entry in registry.entries:
        if not entry.key.endswith("_trials_count"):
            continue
        stem = entry.key[: -len("_trials_count")]
        succ_key = f"{stem}_successes_count"
        rate_key = f"{stem}_success_rate_pct"
        if not (registry.has(succ_key) and registry.has(rate_key)):
            problems.append(f"{stem}: incomplete trial triple")
            continue
        trials = registry.value(entry.key)
        successes = registry.value(succ_key)
        rate = registry.value(rate_key)
        checked += 1
        # exact integer arithmetic: successes * 100 == rate * trials
        if successes * 100.0 != rate * trials:
            problems.append(
                f"{stem}: {successes:g}/{trials:g} trials is not {rate:g}%"
            )
    if problems:
        return False, "; ".join(problems)
    return True, f"{checked} trial triples consistent"


def _check_gripper_weight(registry: ReferenceRegistry) -> tuple[bool, str]:
    """gripper_weight_g equals 235."""
    weight = registry.value("gripper_weight_g")
    return weight == 235, f"gripper_weight_g = {weight:g} (expected 235)"


def _unit_for_key(key: str) -> str | None:
    for suffix, unit in UNIT_SUFFIXES:
        if key.endswith(suffix):
            return unit
    return None


def _check_unit_suffixes(registry: ReferenceRegistry) -> tuple[bool, str]:
    """Every key carries a dimension suffix matching its unit field."""
    problems = []
    for entry in registry.entries:
        expected = _unit_for_key(entry.key)
        if expected is None:
            problems.append(f"{entry.key}: no dimension suffix")
        elif entry.unit != expected:
            problems.append(
                f"{entry.key}: unit {entry.unit!r} does not match suffix "
                f"({expected!r})"
            )
    if problems:
        return False, "; ".join(problems)
    return True, f"{len(registry.entries)} entries dimensioned"


# every rule, in report order; a checker returns (passed, detail)
_RULE_CHECKS = {
    "pinch-ordering": _check_pinch_ordering,
    "success-rates": _check_success_rates,
    "gripper-weight": _check_gripper_weight,
    "unit-suffixes": _check_unit_suffixes,
}


def registry_verify(registry: ReferenceRegistry) -> list[RuleResult]:
    """Evaluate every consistency rule, in order; never raises on failure."""
    report = []
    for rule_id, check in _RULE_CHECKS.items():
        try:
            passed, detail = check(registry)
        except KeyError as exc:
            passed, detail = False, f"missing entry: {exc}"
        report.append(RuleResult(rule_id, passed, detail))
    return report


def default_registry() -> ReferenceRegistry:
    """Load the shipped registry file and validate it."""
    text = (
        resources.files("fingerkit").joinpath("data/reference_registry.json")
        .read_text(encoding="utf-8")
    )
    registry = ReferenceRegistry.loads(text)
    registry.validate()
    return registry
