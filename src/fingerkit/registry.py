"""Registry of published reference constants with consistency rules.

Every measured constant the toolkit relies on (force envelopes, grasp
diameter bounds, manipulator stroke, trial outcomes) lives here with its
provenance label, instead of being scattered through the code.  A small
rule engine cross-checks the registry at load time: ordering relations,
success-rate arithmetic, fixed key values, and unit/key-suffix agreement.

The shipped ``data/reference_registry.json`` is the single source of these
constants; :func:`default_registry` loads and validates it, and
:meth:`ReferenceRegistry.to_json` writes it back byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, RuleViolationError, finite_number

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


@dataclass(frozen=True)
class RegistryEntry:
    key: str
    value: float | int
    unit: str
    source: str
    quote: str


@dataclass(frozen=True)
class RegistryRule:
    rule_id: str
    description: str


@dataclass(frozen=True)
class RuleResult:
    rule_id: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ReferenceRegistry:
    """Immutable collection of reference entries plus consistency rules."""

    entries: tuple[RegistryEntry, ...]
    rules: tuple[RegistryRule, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.key in seen:
                raise ConfigError(f"duplicate registry key: {entry.key}")
            seen.add(entry.key)
            if not entry.source:
                raise ConfigError(f"registry entry {entry.key} lacks a source")
            finite_number(entry.value,
                          f"registry entry {entry.key} value must be a number")

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
        doc = {
            "entries": [
                {
                    "key": e.key,
                    "value": e.value,
                    "unit": e.unit,
                    "source": e.source,
                    "quote": e.quote,
                }
                for e in self.entries
            ],
            "rules": [
                {"id": r.rule_id, "description": r.description}
                for r in self.rules
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict, validate: bool = True) -> "ReferenceRegistry":
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
            rules = tuple(
                RegistryRule(rule_id=str(r["id"]), description=str(r["description"]))
                for r in doc["rules"]
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed registry document: {exc}") from exc
        registry = cls(entries=entries, rules=rules)
        if validate:
            registry.validate()
        return registry

    @classmethod
    def loads(cls, text: str, validate: bool = True) -> "ReferenceRegistry":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"registry is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, validate=validate)

    @classmethod
    def load(cls, path: str | Path, validate: bool = True) -> "ReferenceRegistry":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read registry {path}: {exc}") from exc
        return cls.loads(text, validate=validate)

    def validate(self) -> None:
        """Raise RuleViolationError if any consistency rule fails."""
        failures = [r for r in registry_verify(self) if not r.passed]
        if failures:
            names = [f.rule_id for f in failures]
            details = "; ".join(f"{f.rule_id}: {f.detail}" for f in failures)
            raise RuleViolationError(
                f"registry consistency rules failed: {details}", rules=names
            )


def _check_pinch_ordering(registry: ReferenceRegistry) -> RuleResult:
    single = registry.value("pinch_force_single_n")
    double = registry.value("pinch_force_double_n")
    ok = single < double
    return RuleResult(
        rule_id="pinch-ordering",
        passed=ok,
        detail=f"single {single:g} N {'<' if ok else '>='} double {double:g} N",
    )


def _check_success_rates(registry: ReferenceRegistry) -> RuleResult:
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
        return RuleResult("success-rates", False, "; ".join(problems))
    return RuleResult(
        "success-rates", True, f"{checked} trial triples consistent"
    )


def _check_gripper_weight(registry: ReferenceRegistry) -> RuleResult:
    weight = registry.value("gripper_weight_g")
    ok = weight == 235
    return RuleResult(
        rule_id="gripper-weight",
        passed=ok,
        detail=f"gripper_weight_g = {weight:g} (expected 235)",
    )


def _unit_for_key(key: str) -> str | None:
    for suffix, unit in UNIT_SUFFIXES:
        if key.endswith(suffix):
            return unit
    return None


def _check_unit_suffixes(registry: ReferenceRegistry) -> RuleResult:
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
        return RuleResult("unit-suffixes", False, "; ".join(problems))
    return RuleResult(
        "unit-suffixes", True, f"{len(registry.entries)} entries dimensioned"
    )


_RULE_CHECKS = {
    "pinch-ordering": _check_pinch_ordering,
    "success-rates": _check_success_rates,
    "gripper-weight": _check_gripper_weight,
    "unit-suffixes": _check_unit_suffixes,
}


def registry_verify(registry: ReferenceRegistry) -> list[RuleResult]:
    """Evaluate every declared consistency rule; never raises on failure."""
    report = []
    for rule in registry.rules:
        check = _RULE_CHECKS.get(rule.rule_id)
        if check is None:
            report.append(
                RuleResult(rule.rule_id, False, "no checker registered for rule")
            )
            continue
        try:
            report.append(check(registry))
        except KeyError as exc:
            report.append(RuleResult(rule.rule_id, False, f"missing entry: {exc}"))
    return report


def default_registry() -> ReferenceRegistry:
    """Load the shipped registry file (validated)."""
    text = (
        resources.files("fingerkit").joinpath("data/reference_registry.json")
        .read_text(encoding="utf-8")
    )
    return ReferenceRegistry.loads(text)
