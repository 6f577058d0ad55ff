"""Deterministic SVG rendering."""

import math
import re
from xml.etree import ElementTree

import numpy as np
import pytest

import fingerkit as fk
from fingerkit.svgplot import Series, render_svg


def polylines(svg: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', svg)


class TestRenderSvg:
    def test_single_two_point_series(self):
        svg = render_svg([Series("a", [0.0, 1.0], [0.0, 2.0])], "x", "y")
        lines = polylines(svg)
        assert len(lines) == 1
        assert len(lines[0].split(" ")) == 2

    def test_identical_input_identical_bytes(self):
        series = [Series("a", [0.0, 0.5, 1.0], [1.0, -1.0, 2.0])]
        assert render_svg(series, "x", "y", "t") == render_svg(series, "x", "y", "t")

    def test_empty_series_set_rejected(self):
        with pytest.raises(ValueError):
            render_svg([], "x", "y")

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_svg([Series("a", [], [])], "x", "y")

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            render_svg([Series("a", [1.0], [1.0, 2.0])], "x", "y")

    def test_standalone_document(self):
        svg = render_svg([Series("a", [0.0, 1.0], [0.0, 1.0])], "x", "y")
        assert svg.startswith('<?xml version="1.0"')
        assert "</svg>" in svg
        assert "href" not in svg  # no external references

    def test_joint_angle_sweep_curves_are_smooth(self, geometry):
        lo, hi = geometry.theta1_range
        grid = np.linspace(lo, hi, 80)
        sweep = fk.sweep_chain(geometry, grid)
        t1 = [math.degrees(v) for v in sweep.theta1]
        svg = render_svg(
            [
                Series("theta2", t1, [math.degrees(v) for v in sweep.theta2]),
                Series("theta6", t1, [math.degrees(v) for v in sweep.theta6]),
            ],
            "theta1 (deg)", "angle (deg)",
        )
        lines = polylines(svg)
        assert len(lines) == 2
        for line in lines:
            xs = [float(pair.split(",")[0]) for pair in line.split(" ")]
            # monotone input axis renders as monotone pixel coordinates
            assert all(b > a for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("y", [
        pytest.param([1.0, 1.0 + 2**-52], id="step-below-ulp"),
        pytest.param([1e18, 1e18], id="constant-beyond-2**53"),
        pytest.param([0.0, 5e-324], id="subnormal-span"),
        pytest.param([0.0, 1e-323, 2e-323], id="subnormal-step"),
    ])
    def test_extreme_axes_render(self, y, deadline):
        with deadline(3):
            svg = render_svg([Series("a", range(len(y)), y)], "x", "y")
        ElementTree.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg

    def test_overflowing_span_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            render_svg([Series("a", [0.0, 1.0], [-1e308, 1e308])], "x", "y")

    def test_labels_present(self):
        svg = render_svg([Series("curve", [0, 1], [0, 1])],
                         "input (deg)", "output (mm)", "demo")
        assert "input (deg)" in svg
        assert "output (mm)" in svg
        assert "demo" in svg
        assert "curve" in svg
