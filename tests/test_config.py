"""Config document parsing: schema enforcement, unit conversion, defaults,
and the checks that every validated record runs on construction."""

import hashlib
import json
import math

import pytest

import fingerkit as fk
from fingerkit.cli import main
from fingerkit.config import (
    default_config,
    default_config_path,
    load_config,
    parse_config,
)
from fingerkit.registry import RegistryEntry

GOOD = {
    "v": [8.0, 68.0, 62.5, 13.5, 6.0, 64.0, 64.5, 5.5],
    "sigma_deg": 102.0,
    "rho_deg": 100.0,
    "theta4_deg": 90.0,
    "theta8_deg": 90.0,
    "theta1_range_deg": [30.0, 105.0],
    "phalanx_mm": [45.0, 25.0, 20.0],
    "psi_range_deg": [-45.0, 45.0],
    "tendon": {
        "kind": "single",
        "arms_mm": [10.0, 8.0, 6.0],
        "spring_nmm_per_rad": 100.0,
        "preload_nmm": 200.0,
        "max_tension_n": 38.0,
    },
    "thumb_line_mm": [[-20.0, -85.0], [80.0, -85.0]],
}


def parse(doc) -> fk.FingerConfig:
    return parse_config(json.dumps(doc))


class TestParsing:
    def test_full_document(self):
        cfg = parse(GOOD)
        assert cfg.geometry.v == tuple(GOOD["v"])
        assert cfg.geometry.sigma == pytest.approx(math.radians(102.0))
        assert cfg.geometry.theta1_range[1] == pytest.approx(math.radians(105.0))
        assert cfg.require_finger().phalanx_lengths == (45.0, 25.0, 20.0)
        assert cfg.require_tendon().kind == "single"
        assert cfg.require_thumb_line() == ((-20.0, -85.0), (80.0, -85.0))
        assert len(cfg.sha256) == 64

    def test_geometry_only_document(self):
        doc = {k: GOOD[k] for k in
               ("v", "sigma_deg", "rho_deg", "theta1_range_deg")}
        cfg = parse(doc)
        # fixed angles default to vertical
        assert cfg.geometry.theta4_fixed == pytest.approx(math.pi / 2.0)
        assert cfg.geometry.theta8_fixed == pytest.approx(math.pi / 2.0)
        assert cfg.finger is None
        with pytest.raises(fk.ConfigError):
            cfg.require_finger()
        with pytest.raises(fk.ConfigError):
            cfg.require_tendon()
        with pytest.raises(fk.ConfigError):
            cfg.require_thumb_line()

    def test_base_offset_optional(self):
        doc = dict(GOOD)
        doc["base_offset_mm"] = [3.0, -2.0]
        assert parse(doc).require_finger().base_offset == (3.0, -2.0)
        assert parse(GOOD).require_finger().base_offset == (0.0, 0.0)

    def test_degrees_to_radians(self):
        cfg = parse(GOOD)
        lo, hi = cfg.require_finger().orientation_range
        assert lo == pytest.approx(math.radians(-45.0))
        assert hi == pytest.approx(math.radians(45.0))

    def test_hash_tracks_content(self):
        a = parse(GOOD)
        changed = dict(GOOD)
        changed["sigma_deg"] = 101.0
        b = parse(changed)
        assert a.sha256 != b.sha256
        assert parse(GOOD).sha256 == a.sha256

    def test_hash_is_the_file_hash(self):
        path = default_config_path()
        cfg = load_config(path)
        assert cfg.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


class TestRejection:
    def test_unknown_top_level_key(self):
        doc = dict(GOOD)
        doc["paint_color"] = "red"
        with pytest.raises(fk.ConfigError, match="unknown config keys"):
            parse(doc)

    def test_unknown_tendon_key(self):
        doc = dict(GOOD)
        doc["tendon"] = dict(GOOD["tendon"], lubricant="ptfe")
        with pytest.raises(fk.ConfigError, match="unknown tendon keys"):
            parse(doc)

    def test_missing_required_key(self):
        doc = {k: v for k, v in GOOD.items() if k != "sigma_deg"}
        with pytest.raises(fk.ConfigError, match="sigma_deg"):
            parse(doc)

    def test_wrong_length_vector(self):
        doc = dict(GOOD)
        doc["v"] = [1, 2, 3]
        with pytest.raises(fk.ConfigError):
            parse(doc)

    def test_nonfinite_rejected(self):
        text = json.dumps(GOOD).replace("102.0", "Infinity")
        with pytest.raises(fk.ConfigError):
            parse_config(text)

    def test_non_numeric_rejected(self):
        doc = dict(GOOD)
        doc["rho_deg"] = "a lot"
        with pytest.raises(fk.ConfigError):
            parse(doc)

    def test_booleans_are_not_numbers(self):
        doc = dict(GOOD)
        doc["sigma_deg"] = True
        with pytest.raises(fk.ConfigError):
            parse(doc)

    def test_malformed_json(self):
        with pytest.raises(fk.ConfigError):
            parse_config("{not json")

    def test_non_object_root(self):
        with pytest.raises(fk.ConfigError):
            parse_config("[1, 2, 3]")

    def test_missing_file(self, tmp_path):
        with pytest.raises(fk.ConfigError):
            load_config(tmp_path / "nope.json")

    def test_zero_length_link(self):
        doc = dict(GOOD)
        doc["v"] = [0.0] + GOOD["v"][1:]
        with pytest.raises(fk.ConfigError, match="invalid geometry"):
            parse(doc)

    def test_single_without_spring(self):
        doc = dict(GOOD)
        doc["tendon"] = dict(GOOD["tendon"], spring_nmm_per_rad=0.0)
        with pytest.raises(fk.ConfigError, match="invalid tendon"):
            parse(doc)

    def test_double_with_spring(self):
        doc = dict(GOOD)
        doc["tendon"] = dict(GOOD["tendon"], kind="double")
        with pytest.raises(fk.ConfigError, match="invalid tendon"):
            parse(doc)

    @pytest.mark.parametrize("text", [
        "[[0.0, 0.0]]",
        "[[true, -85], [80, -85]]",
        '[["-20", -85], [80, -85]]',
        '[["nan", -85], [80, -85]]',
        "[[1e999, -85], [80, -85]]",
        "[[-20, -85], [80, 1%s]]" % ("0" * 400),
        "[[-20, -85], [80, null]]",
    ], ids=["one-point", "bool", "string", "nan-string", "overflow",
            "huge-integer", "null"])
    def test_bad_thumb_line(self, text, tmp_path, capsys):
        doc = json.dumps(dict(GOOD, thumb_line_mm=None)).replace(
            '"thumb_line_mm": null', f'"thumb_line_mm": {text}')
        with pytest.raises(fk.ConfigError):
            parse_config(doc)
        path = tmp_path / "finger.json"
        path.write_text(doc, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["workspace", "--config", str(path), "--samples", "3",
                     "--psi-samples", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()


class TestDefaultConfig:
    def test_loads_and_solves(self):
        cfg = default_config()
        lo, hi = cfg.geometry.theta1_range
        state = fk.solve_chain(cfg.geometry, 0.5 * (lo + hi))
        assert math.isfinite(state.theta6)
        assert cfg.require_tendon().kind == "single"

    def test_default_closes_over_entire_range(self):
        import numpy as np

        cfg = default_config()
        lo, hi = cfg.geometry.theta1_range
        sweep = fk.sweep_chain(cfg.geometry, np.linspace(lo, hi, 501))
        assert np.all(np.isfinite(sweep.theta2))
        assert np.all(np.isfinite(sweep.theta6))


_ENTRY = RegistryEntry("x_mm", 1, "mm", "table1", "x")


class TestValidatedRecords:
    """A bad value fails on every way to build a validated record: the
    call, ``_make`` and ``_replace``, with the same error type and text."""

    @pytest.mark.parametrize("cls, good, field, bad, error, message", [
        pytest.param(fk.LinkageGeometry, dict(v=(1.0,) * 8, sigma=0.0, rho=0.0),
                     "v", (1.0, 0.0) + (1.0,) * 6, ValueError,
                     "link length v2 must be finite and > 0", id="linkage"),
        pytest.param(fk.FingerGeometry, dict(phalanx_lengths=(45.0, 25.0, 20.0)),
                     "phalanx_lengths", (45.0, math.nan, 20.0), ValueError,
                     "phalanx length 1 must be finite and > 0", id="finger"),
        pytest.param(fk.TendonModel,
                     dict(kind="single", moment_arms=(10.0, 8.0, 6.0),
                          spring_stiffness=100.0, max_tension=38.0),
                     "max_tension", math.inf, ValueError,
                     "max_tension must be finite and > 0", id="tendon"),
        pytest.param(fk.ReferenceRegistry, dict(entries=(_ENTRY,)),
                     "entries", (_ENTRY, _ENTRY), fk.ConfigError,
                     "duplicate registry key: x_mm", id="registry"),
    ])
    def test_bad_value_raises(self, cls, good, field, bad, error, message):
        record = cls(**good)
        bad_fields = dict(record._asdict(), **{field: bad})
        for build in (lambda: cls(**bad_fields),
                      lambda: cls._make(bad_fields.values()),
                      lambda: record._replace(**{field: bad})):
            with pytest.raises(error) as caught:
                build()
            assert str(caught.value) == message

    def test_link_lengths_become_floats(self):
        geometry = fk.LinkageGeometry(v=(1,) * 8, sigma=0.0, rho=0.0)
        for built in (geometry, fk.LinkageGeometry._make(geometry),
                      geometry._replace(v=(2,) * 8)):
            assert [type(x) for x in built.v] == [float] * 8
