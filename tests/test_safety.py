"""Safety checks and the reference registry: verdict arithmetic, rule
evaluation, fault injection, and the shipped file's canonical form."""

import json
import math
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fingerkit as fk
from fingerkit.registry import (
    RegistryEntry,
    ReferenceRegistry,
    default_registry,
    registry_verify,
)
from fingerkit.safety import clearance_check, iso_contact_check, stroke_check

# every argument of a safety check rejects these, as it rejects a negative
NON_FINITE = (math.nan, math.inf, -math.inf)
RULE_IDS = ["pinch-ordering", "success-rates", "gripper-weight", "unit-suffixes"]


def registry_json(registry: ReferenceRegistry) -> str:
    """A registry as the shipped file's text: its entries, two-space indent."""
    doc = {"entries": [e._asdict() for e in registry.entries]}
    return json.dumps(doc, indent=2) + "\n"


@pytest.fixture(scope="module")
def limit(registry) -> float:
    return registry.value("iso_contact_force_limit_thigh_knee_n")


class TestIsoContactCheck:
    def test_fingertip_force_passes_with_wide_margin(self, limit):
        verdict = iso_contact_check(7.8, limit)
        assert verdict.passed
        assert verdict.applied_limit_n == 220.0
        assert verdict.margin_ratio == pytest.approx(220.0 / 7.8)

    def test_boundary_inclusive(self, limit):
        assert iso_contact_check(220.0, limit).passed

    def test_over_limit_fails(self, limit):
        verdict = iso_contact_check(221.0, limit)
        assert not verdict.passed
        assert verdict.margin_ratio < 1.0

    def test_zero_force_infinite_margin(self, limit):
        assert iso_contact_check(0.0, limit).margin_ratio == math.inf
        # limit/force overflows long before the force reaches zero
        assert iso_contact_check(5e-324, limit).margin_ratio == math.inf

    def test_negative_force_rejected(self, limit):
        for bad in (-1.0, *NON_FINITE):
            with pytest.raises(ValueError):
                iso_contact_check(bad, limit)
            with pytest.raises(ValueError):
                iso_contact_check(10.0, bad)

    @given(st.floats(0.0, 500.0))
    def test_verdict_is_the_comparison(self, force):
        verdict = iso_contact_check(force, 220.0)
        assert verdict.passed == (force <= 220.0)


class TestClearanceCheck:
    def test_toilet_scenario_secondary_fits(self):
        result = clearance_check(800.0, 460.0, 75.0)
        assert result.per_side_clearance_mm == 170.0
        assert result.fits

    def test_primary_arm_does_not_fit(self):
        result = clearance_check(800.0, 460.0, 175.0)
        assert result.per_side_clearance_mm == 170.0
        assert not result.fits

    def test_body_fills_space(self):
        result = clearance_check(500.0, 500.0, 1.0)
        assert result.per_side_clearance_mm == 0.0
        assert not result.fits

    def test_body_wider_than_space(self):
        result = clearance_check(400.0, 500.0, 10.0)
        assert result.per_side_clearance_mm == -50.0
        assert not result.fits

    def test_nonpositive_rejected(self):
        for bad in (0.0, *NON_FINITE):
            for args in ((bad, 460.0, 75.0), (800.0, bad, 75.0),
                         (800.0, 460.0, bad)):
                with pytest.raises(ValueError):
                    clearance_check(*args)

    @given(
        st.floats(1.0, 5000.0), st.floats(1.0, 5000.0), st.floats(1.0, 5000.0)
    )
    def test_verdict_is_the_arithmetic(self, space, body, device):
        result = clearance_check(space, body, device)
        assert result.per_side_clearance_mm == (space - body) / 2.0
        assert result.fits == (device <= (space - body) / 2.0)


class TestStrokeCheck:
    @pytest.mark.parametrize("required,available,passed,slack", [
        (160.0, 180.0, True, 20.0),
        (170.0, 180.0, True, 10.0),
        (190.0, 180.0, False, -10.0),
    ])
    def test_examples(self, required, available, passed, slack):
        result = stroke_check(required, available)
        assert result.passed is passed
        assert result.slack_mm == pytest.approx(slack)

    def test_negative_rejected(self):
        for bad in (-1.0, *NON_FINITE):
            with pytest.raises(ValueError):
                stroke_check(bad, 100.0)
            with pytest.raises(ValueError):
                stroke_check(170.0, bad)

    @given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))
    def test_verdict_is_the_comparison(self, required, available):
        result = stroke_check(required, available)
        assert result.passed == (available >= required)
        assert result.slack_mm == available - required


class TestRegistry:
    def test_shipped_rules_all_pass(self, registry):
        report = registry_verify(registry)
        assert len(report) == 4
        assert all(r.passed for r in report)

    @given(st.data())
    def test_every_rule_runs_on_any_registry(self, data):
        shipped = default_registry().entries
        picked = data.draw(st.lists(st.sampled_from(shipped),
                                    unique_by=lambda e: e.key))
        values = [data.draw(st.integers(-300, 300) | st.floats(-1e9, 1e9))
                  for _ in picked]
        registry = ReferenceRegistry(entries=tuple(
            e._replace(value=v) for e, v in zip(picked, values)))
        assert [r.rule_id for r in registry_verify(registry)] == RULE_IDS

    def test_empty_registry_fails_entry_rules(self):
        report = {r.rule_id: r
                  for r in registry_verify(ReferenceRegistry(entries=()))}
        assert report["gripper-weight"].detail == (
            "missing entry: \"registry has no entry 'gripper_weight_g'\"")
        assert not report["pinch-ordering"].passed

    def test_shipped_file_is_canonical(self, registry):
        shipped = (
            resources.files("fingerkit")
            .joinpath("data/reference_registry.json")
            .read_text(encoding="utf-8")
        )
        assert shipped == registry_json(default_registry())

    def test_key_lookup(self, registry):
        assert registry.value("secondary_extension_mm") == 180.0
        assert registry.entry("gripper_weight_g").source == "table3"
        with pytest.raises(KeyError):
            registry.value("warp_core_output_gw")

    def test_table5_readback(self, registry):
        assert registry.value("dressing_prior_successes_count") == 9
        assert registry.value("dressing_prior_trials_count") == 10
        assert registry.value("dressing_prior_success_rate_pct") == 90
        assert registry.value("undressing_prior_successes_count") == 0
        assert registry.value("undressing_prior_trials_count") == 7
        assert registry.value("undressing_prior_success_rate_pct") == 0
        assert registry.value("dressing_system_success_rate_pct") == 100
        assert registry.value("undressing_system_success_rate_pct") == 100

    def test_frozen(self, registry):
        with pytest.raises(AttributeError):
            registry.entries = ()

    def test_duplicate_key_rejected(self):
        entry = RegistryEntry("x_mm", 1, "mm", "table1", "x")
        with pytest.raises(fk.ConfigError):
            ReferenceRegistry(entries=(entry, entry))

    def test_missing_source_rejected(self):
        entry = RegistryEntry("x_mm", 1, "mm", "", "x")
        with pytest.raises(fk.ConfigError):
            ReferenceRegistry(entries=(entry,))


def _edit(registry: ReferenceRegistry, key: str, value) -> ReferenceRegistry:
    entries = tuple(
        RegistryEntry(e.key, value, e.unit, e.source, e.quote)
        if e.key == key else e
        for e in registry.entries
    )
    return ReferenceRegistry(entries=entries)


def _edit_unit(registry: ReferenceRegistry, key: str, unit) -> ReferenceRegistry:
    entries = tuple(
        RegistryEntry(e.key, e.value, unit, e.source, e.quote)
        if e.key == key else e
        for e in registry.entries
    )
    return ReferenceRegistry(entries=entries)


class TestRegistryFaultInjection:
    def test_pinch_ordering_fault(self):
        bad = _edit(default_registry(), "pinch_force_single_n", 12.0)
        report = {r.rule_id: r for r in registry_verify(bad)}
        assert not report["pinch-ordering"].passed
        with pytest.raises(fk.RuleViolationError) as exc_info:
            bad.validate()
        assert "pinch-ordering" in exc_info.value.rules

    def test_success_rate_fault(self):
        bad = _edit(default_registry(), "dressing_prior_success_rate_pct", 80)
        report = {r.rule_id: r for r in registry_verify(bad)}
        assert not report["success-rates"].passed
        assert "dressing_prior" in report["success-rates"].detail

    def test_weight_fault(self):
        bad = _edit(default_registry(), "gripper_weight_g", 234)
        report = {r.rule_id: r for r in registry_verify(bad)}
        assert not report["gripper-weight"].passed

    def test_unit_fault(self):
        bad = _edit_unit(default_registry(), "toilet_width_mm", "inch")
        report = {r.rule_id: r for r in registry_verify(bad)}
        assert not report["unit-suffixes"].passed

    def test_loads_with_validation_raises(self):
        bad = _edit(default_registry(), "pinch_force_single_n", 12.0)
        # loads parses the faulted document; validate runs the rules
        parsed = ReferenceRegistry.loads(registry_json(bad))
        assert parsed.value("pinch_force_single_n") == 12.0
        with pytest.raises(fk.RuleViolationError):
            parsed.validate()
