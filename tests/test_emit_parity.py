"""Byte parity of the columnar emit path.

The emitting commands format whole arrays at once and compute the force
profile in one batch; none of that may change a byte.  These tests pin the
stdout and emitted files of every benchmark reference invocation to the
recorded hashes, the batch columns to the scalar API, the vectorized
continuity sweep to a sequential loop, and the bulk writers and their
number kernels (``%.9g``, ``%r`` and ``%.3f``) to per-value formatting.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fingerkit as fk
from fingerkit import _array_cli, _kernels, _numfmt
from fingerkit.cli import main
from fingerkit.svgplot import Series
from test_linkage import negative_root

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import references  # noqa: E402

RECORDED = json.loads(references.PATH.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "invocation",
    [inv for invocations in references.REFERENCES.values() for inv in invocations],
    ids=lambda inv: inv.key())
def test_reference_invocation_bytes(invocation, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(invocation.argv(out)) == 0
    recorded = RECORDED[invocation.key()]
    assert _sha256(capsys.readouterr().out.encode()) == recorded["stdout_sha256"]
    emitted = ({p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())}
               if out.exists() else {})
    assert emitted == recorded["files"]


class TestForceBatchMatchesScalar:
    @pytest.mark.parametrize("kind", ["single", "double"])
    @pytest.mark.parametrize("samples", [2, 7, 64, 301])
    def test_columns_equal_scalar_calls(self, cfg, geometry, finger, kind,
                                        samples):
        tendon = cfg.require_tendon()
        if kind == "double":
            tendon = tendon.as_double()
        tension = 0.6 * tendon.max_tension
        grid = np.linspace(*geometry.theta1_range, samples)
        profile = fk.force_profile(tendon, geometry, finger, grid, tension)
        assert profile.dtype == fk.FORCE_DTYPE
        start = fk.solve_chain(geometry, geometry.theta1_range[0])
        for row, theta1 in zip(profile, grid.tolist()):
            state = fk.solve_chain(geometry, theta1)
            derivatives = fk.chain_derivatives(geometry, state)
            excursion, d_excursion = fk.tendon_excursion(tendon, state, start,
                                                         derivatives)
            vx, vy = fk.tip_velocity(finger, state, derivatives)
            assert row["theta1"] == theta1
            assert row["excursion"] == excursion
            assert row["d_excursion"] == d_excursion
            assert row["tip_speed"] == math.hypot(vx, vy)
            assert row["force"] == fk.static_tip_force(
                tendon, geometry, finger, theta1, tension)

    def test_chain_batch_equals_solve_chain(self, geometry, rng):
        theta1 = rng.uniform(*geometry.theta1_range, 200)  # unsorted on purpose
        chain = fk.solve_chain(geometry, theta1)
        for i, t in enumerate(theta1.tolist()):
            state = fk.solve_chain(geometry, t)
            for name in ("theta1", "theta2", "theta3", "theta5", "theta6",
                         "theta7", "theta_mcp", "theta_pip", "theta_dip"):
                assert getattr(chain, name)[i] == getattr(state, name), name

    def test_chain_batch_raises_the_scalar_error(self, geometry):
        lo, hi = geometry.theta1_range
        with pytest.raises(fk.OutOfRangeError, match="outside admissible range"):
            fk.solve_chain(geometry, [lo, hi + 0.1])
        g = fk.LinkageGeometry(
            v=(25, 40, 45, 10, 25, 40, 45, 10), sigma=0.0, rho=0.0,
            theta1_range=(0.0, math.radians(75.0)))
        with pytest.raises(fk.NoClosureError, match="theta1=0 rad") as exc_info:
            fk.solve_chain(g, np.linspace(0.0, 1.0, 5))
        assert exc_info.value.loop == 1

    def test_tension_and_tip_speed_guards_hold(self, cfg, geometry, finger):
        tendon = cfg.require_tendon()
        grid = np.linspace(*geometry.theta1_range, 5)
        with pytest.raises(fk.OutOfRangeError, match="outside"):
            fk.force_profile(tendon, geometry, finger, grid, 50.0)
        tiny = fk.FingerGeometry(phalanx_lengths=(1e-12, 1e-12, 1e-12))
        with pytest.raises(fk.DegenerateGeometryError, match="tip Jacobian"):
            fk.force_profile(tendon, geometry, tiny, grid, 10.0)


def _sequential_continuity(k1, k2, k3, phi, fixed_angle):
    """The per-sample loop the vectorized continuity sweep replaces; the
    first closing sample, measured from its own positive root, takes it."""
    pos = _kernels.loop_solve_batch(k1, k2, k3, phi, fixed_angle)
    neg = negative_root(k1, k2, k3, phi, fixed_angle)
    ok = ~np.isnan(pos)

    def wrap(angle):
        wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
        if wrapped <= 0.0:
            wrapped += 2.0 * math.pi
        return wrapped - math.pi

    out = np.full(len(phi), np.nan)
    prev = pos[np.argmax(ok)] if ok.any() else math.nan
    for i in range(len(phi)):
        if not ok[i]:
            continue
        d_pos = abs(wrap(pos[i] - prev))
        d_neg = abs(wrap(neg[i] - prev))
        out[i] = pos[i] if d_pos <= d_neg else neg[i]
        prev = out[i]
    return ok, out


def test_vectorized_continuity_matches_sequential_loop():
    rng = np.random.default_rng(20240611)
    closing_some, flipping = 0, 0
    for case in range(300):
        k1, k2, k3 = rng.uniform(0.05, 2.5, 3)
        n = int(rng.integers(0, 120))
        if case % 3 == 0:
            phi = rng.uniform(-4.0, 4.0, n)  # unsorted
        elif case % 3 == 1:
            phi = np.sort(rng.uniform(-math.pi, math.pi, n))
        else:
            phi = np.linspace(rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0), n)
        fixed = float(rng.uniform(-2.0, 2.0))
        # a first sample anywhere sets the reference the sweep starts from
        phi = np.concatenate(([rng.uniform(-4.0, 4.0)], phi))
        theta = _kernels.loop_sweep_continuity(k1, k2, k3, phi, fixed)
        ok = ~np.isnan(theta)
        ok_ref, theta_ref = _sequential_continuity(k1, k2, k3, phi, fixed)
        assert np.array_equal(ok, ok_ref)
        assert np.array_equal(theta, theta_ref, equal_nan=True)
        closing_some += 0 < ok.sum() < phi.size
        pos = _kernels.loop_solve_batch(k1, k2, k3, phi, fixed)
        flipping += bool(np.any(ok & (theta != pos)))
    # the cases exercise partly closing inputs and negative-branch picks
    assert closing_some > 20 and flipping > 20


EDGE_TABLE = np.array([
    [-0.0, 0.0, 1e-300, -1e-300, 1e300],
    [1.0, -2.0, 3.0, 100.0, 12345678901.0],
    [0.1, 1.0 / 3.0, -2.5e-8, 6.02214076e23, math.pi],
    [5e-324, -1.7976931348623157e308, 1e16, 123456789.0, -7.0],
])
HEADER = ["a", "b", "c", "d", "e"]


# the formatting properties run 300 examples, or the profile's count where
# that is larger (the ci profile of tests/conftest.py)
FORMAT_EXAMPLES = max(300, settings().max_examples)


@pytest.fixture(params=[4096, 15, 1])
def block_values(request, monkeypatch):
    """Blocks below the shipped size, for all three kernels, which each read
    ``_numfmt.BLOCK_VALUES``: of 4096 values, and of 15 and 1, a seam every
    few rows and every row."""
    monkeypatch.setattr(_numfmt, "BLOCK_VALUES", request.param)
    return request.param


def percent_csv(table: np.ndarray) -> str:
    return "".join(",".join("%.9g" % x for x in row) + "\n"
                   for row in table.tolist())


def _neighbours(x: float, n: int) -> list[float]:
    """``x`` and the ``n`` floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def csv_edge_values() -> np.ndarray:
    """Values where a 9-digit formatter can go wrong, with both signs."""
    values = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300,
              1.7976931348623157e308]
    # decades, where log10 can be off by one, and the bounds of the
    # kernel's range
    for k in range(-5, 11):
        values += _neighbours(10.0**k, 3)
    for x in (1e7, 1e9, 0.9999999995, 99999999.95, 999999999.5):
        values += _neighbours(x, 3)
    # just below 1e-4, where %.9g writes 0.0001 from its 9-digit tie
    # 9.999999995e-05 up, and an exponent below it (9.99999996e-05, which a
    # scale to 8 digits would round up too)
    for x in (9.9999999995e-05, 9.99999999949e-05, 9.999999995e-05, 9.99999996e-05):
        values += _neighbours(x, 3)
    # 9-digit rounding ties, most of them inexact in binary, so that the
    # scaled value rounds onto or across the tie
    rng = np.random.default_rng(13)
    for k in range(-4, 10):
        for m in [100_000_000, 999_999_999, *rng.integers(10**8, 10**9, 40).tolist()]:
            values += _neighbours((m + 0.5) * 10.0 ** (k - 8), 1)
    values = np.array(values)
    return np.concatenate([values, -values])


def test_csv_matches_per_value_format(block_values):
    expected = "\n".join(
        ["# config_sha256=abc", ",".join(HEADER)]
        + [",".join(f"{x:.9g}" for x in row) for row in EDGE_TABLE.tolist()]
    ) + "\n"
    assert "".join(_array_cli._csv(HEADER, EDGE_TABLE, "abc")) == expected


def test_csv_kernel_edge_values(block_values):
    values = csv_edge_values()
    table = np.resize(values, (-(-len(values) // 7), 7))
    assert "".join(_numfmt.format_csv(table)) == percent_csv(table)


@settings(max_examples=FORMAT_EXAMPLES, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.floats(-2e9, 2e9) | st.floats(-1.0, 1.0)))
def test_csv_kernel_matches_percent_format(table):
    assert "".join(_numfmt.format_csv(table)) == percent_csv(table)


@pytest.mark.parametrize("tension_n", [5.0, 20.0])
def test_csv_kernel_spells_single_tendon_force(cfg, tension_n):
    """Fewer than 2% of the values of the single-tendon force table (at
    the benchmark's 6200 samples) go to ``%``, though its force column is
    below 1 N over much of the range."""
    args = argparse.Namespace(samples=6200, tendon="single", tension_n=tension_n)
    ((_, _, table, _),), _, _ = _array_cli._cmd_force(cfg, args)
    assert (np.abs(table) < 1.0).mean() > 0.1
    with np.errstate(all="ignore"):
        ok = _numfmt._csv_digits(np.abs(table))[2]
    assert 1.0 - ok.mean() < 0.02
    assert "".join(_numfmt.format_csv(table)) == percent_csv(table)


def json_dumps_table(rows: np.ndarray, extra: dict) -> str:
    doc = {"config_sha256": "abc", "columns": HEADER[:rows.shape[1]],
           "rows": rows.tolist(), **extra}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_table(rows: np.ndarray, extra: dict) -> str:
    return "".join(_array_cli._json_table(HEADER[:rows.shape[1]], rows, "abc",
                                          extra))


@pytest.mark.parametrize("rows", [EDGE_TABLE, EDGE_TABLE[:0]])
def test_json_matches_json_dumps(block_values, rows):
    extra = {"tendon": "double", "tension_n": 38.0}
    assert json_table(rows, extra) == json_dumps_table(rows, extra)


def test_json_blocks_hold_at_most_json_block_values():
    rows = np.random.default_rng(5).normal(0.0, 100.0, (5000, 5))
    per_block = _numfmt.BLOCK_VALUES // 5
    assert len(list(_numfmt.format_json_rows(rows))) == -(-5000 // per_block) > 1
    assert json_table(rows, {}) == json_dumps_table(rows, {})


def _equidistant_candidates(e: int, count: int, rng) -> list[float]:
    """Floats in decade ``e`` whose two nearest 16-digit neighbours are
    equally near and both read back: ``x * 10**(16 - e)`` is an integer
    ending in 5, and half the float spacing spans more than 5 of its units.

    ``repr`` takes the even last digit there.  Such ``x`` are odd multiples
    of ``2**(e - 16)`` in the decade's top binade, which starts above 4.5
    times the decade.
    """
    top = 2.0 ** (math.ceil(math.log2(10.0 ** (e + 1))) - 1)
    assert top >= 4.5 * 10.0**e and math.ulp(top) <= 2.0 ** (e - 16)
    odd = rng.integers(top * 2.0 ** (16 - e) // 2, 10.0 ** (e + 1) * 2.0 ** (16 - e) // 2,
                       count)
    return [math.ldexp(2 * n + 1, e - 16) for n in odd.tolist()]


def json_edge_values() -> np.ndarray:
    """Values where a shortest-digit formatter can go wrong, with both
    signs."""
    values = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    # decades, where log10 can be off by one, and values just below them
    # that a carry would round up; the bounds 1e-4 and 1e16 of the
    # positional range among them
    for k in range(-5, 18):
        values += _neighbours(10.0**k, 3)
    # powers of two, whose interval below is half the one above
    values += [2.0**k for k in range(-14, 54)]
    rng = np.random.default_rng(14)
    for e in range(-4, 16):
        # 17-digit ties: x * 10**(16 - e) = n + 1/2 exactly, for odd
        # multiples x of 2**(e - 17) that are floats
        for n in rng.integers(10**16, 10**17, 20).tolist():
            values.append(math.ldexp(round(n * 10.0 ** (e - 16) * 2.0 ** (17 - e)) | 1,
                                     e - 17))
    for e in range(-4, 15):
        values += _equidistant_candidates(e, 20, rng)
    values = np.array(values)
    return np.concatenate([values, -values])


def test_json_edge_values_match_repr(block_values):
    values = json_edge_values()
    table = np.resize(values, (-(-len(values) // 7), 7))
    assert json_table(table, {}) == json_dumps_table(table, {})


def test_json_edge_values_are_what_they_claim():
    """The edge list holds the cases where ``repr`` rounds half to even:
    exact 17-digit ties, and equidistant 16-digit candidates that both
    read back."""
    from fractions import Fraction

    values = json_edge_values()
    ties = equidistant = 0
    for x in values[values > 0].tolist():
        e = math.floor(math.log10(x))
        if -4 <= e <= 15:
            v = Fraction(x) * 10 ** (16 - e)
            ties += v.denominator == 2
            equidistant += (v.denominator == 1 and v % 10 == 5
                            and math.ulp(x) / 2 * 10.0 ** (16 - e) > 5)
    assert ties >= 300 and equidistant >= 300


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=FORMAT_EXAMPLES, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                  elements=FINITE | st.floats(-1e17, 1e17)))
def test_json_kernel_matches_json_dumps(table):
    assert json_table(table, {}) == json_dumps_table(table, {})


def percent_points(x: np.ndarray, y: np.ndarray) -> str:
    return " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(x.tolist(), y.tolist()))


def test_svg_points_match_per_value_format(block_values):
    x, y = EDGE_TABLE[:, 2] * 1e-290, EDGE_TABLE[:, 0]
    x = np.concatenate([x, [-0.0004, 0.0005, 1.0625, 2.5]])
    y = np.concatenate([y, [0.0, -0.0, 7.0, -1e-9]])
    # 3-decimal ties and their neighbours, signed values that round to
    # zero, and the bounds of the kernel's range |x| * 1000 < 1e8
    edge = [0.0005, 0.0004, 0.0015, 1.0625, 2.0005, 123.4565, 99999.9995,
            99999.999, 100000.0, 1e6]
    # values that round into the next digit count: the ties 10**k - 0.0005
    # (0.0005 to 9999.9995) and 0.0009995, 0.009995 and 0.09995
    edge += [10.0**k - 5e-4 for k in range(-3, 5)]
    edge += [10.0**k * (1.0 - 5e-4) for k in range(-3, 0)]
    edge += (np.arange(1, 2000, 10) / 2000.0 + 512.0).tolist()
    edge = np.array([v for x0 in edge for v in _neighbours(x0, 2)])
    edge = np.concatenate([edge, -edge])
    assert _numfmt.format_points(x, y) == percent_points(x, y)
    assert _numfmt.format_points(edge, edge[::-1]) == percent_points(edge, edge[::-1])
    assert _numfmt.format_points(np.array([-0.0004, -0.0005]),
                                 np.array([-0.0, 0.0])) == "-0.000,-0.000 -0.001,0.000"


@settings(max_examples=FORMAT_EXAMPLES, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(2)),
                  elements=FINITE | st.floats(-2e5, 2e5)))
def test_svg_points_kernel_matches_percent_format(points):
    x, y = points[:, 0], points[:, 1]
    assert _numfmt.format_points(x, y) == percent_points(x, y)


# a finite table and a plot that _emit can always write
SMALL_TABLE = EDGE_TABLE[1:2]
PLOT = ("p.svg", [Series("a", [0.0, 1.0], [0.0, 2.0])], "x", "y", "Plot")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_table_writer_rejects_non_finite(tmp_path, bad, fmt):
    """``_emit`` checks every table before it opens a file: a non-finite
    value in the second table leaves no file of the first."""
    table = EDGE_TABLE.copy()
    table[2, 3] = bad
    tables = [("first", HEADER, EDGE_TABLE, {}), ("t", HEADER, table, {})]
    out = tmp_path / "out"
    with pytest.raises(fk.FingerkitError,
                       match="^t has non-finite values; nothing written$"):
        _array_cli._emit(out, fmt, "abc", tables, docs=[("d.json", {"v": 1.0})],
                         plots=[PLOT])
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_emit_rejects_non_finite_document(tmp_path, fmt):
    docs = [("ok.json", {"v": 1.0}), ("d.json", {"v": math.inf})]
    out = tmp_path / "out"
    with pytest.raises(fk.FingerkitError, match="non-finite value in JSON output"):
        _array_cli._emit(out, fmt, "abc", [("t", HEADER, SMALL_TABLE, {})],
                         docs=docs, plots=[PLOT])
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_emit_renders_plots_for_svg_only(tmp_path, fmt):
    """A plot whose axis span overflows fails the svg format with no file
    written; csv and json never render it."""
    plots = [PLOT, ("q.svg", [Series("a", [0.0, 1.0], [-1e308, 1e308])],
                    "x", "y", "Wide span")]
    tables = [("t", HEADER, SMALL_TABLE, {})]
    out = tmp_path / "out"
    if fmt == "svg":
        with pytest.raises(
                fk.FingerkitError,
                match="^cannot plot wide span: axis span overflows float64$"):
            _array_cli._emit(out, fmt, "abc", tables, plots=plots)
        assert not out.exists()
    else:
        _array_cli._emit(out, fmt, "abc", tables, plots=plots)
        assert sorted(p.name for p in out.iterdir()) == [f"t.{fmt}"]
