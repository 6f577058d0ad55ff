"""Tests of the benchmark's own logic: spans, tail rule, checks, workloads."""

import json
import sys
import types
from pathlib import Path

import pytest

from fingerkit.cli import _build_parser, main
from fingerkit.config import default_config_path

from perfbench import stats
from perfbench.checks import check_invocation, file_hashes, sha256_hex
from perfbench.references import REFERENCES
from perfbench.spans import Span, Tracer, covered, self_times, summarize
from perfbench.workloads import WORKLOADS, plan_round, sweep

CONFIG_SHA = sha256_hex(default_config_path().read_bytes())


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            Span("root", 0.0, 10.0, -1, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("b", 5.0, 6.0, 0, 0),
            Span("a.child", 2.0, 3.5, 1, 0),
        ]
        assert self_times(spans) == pytest.approx([6.0, 1.5, 1.0, 1.5])

    def test_overlapping_children_count_once(self):
        assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0)]) == 6.0

    def test_summarize_sums_per_name(self):
        spans = [
            Span("run", 0.0, 4.0, -1, 7),
            Span("kernel", 0.5, 1.5, 0, 7, (100,)),
            Span("kernel", 2.0, 2.5, 0, 7, (50,)),
        ]
        summary = summarize(spans)
        assert summary["run"].self_s == pytest.approx(2.5)
        assert summary["kernel"].calls == 2
        assert summary["kernel"].work == (150,)
        assert summary["kernel"].invocations == {7}


class TestTracer:
    def test_wraps_every_binding_and_restores(self, monkeypatch):
        home = types.ModuleType("pbfake.home")
        caller = types.ModuleType("pbfake.caller")

        def leaf(x):
            return x + 1

        def outer(x):
            return home.leaf(x) * 2

        home.leaf, home.outer = leaf, outer
        caller.leaf = leaf
        monkeypatch.setitem(sys.modules, "pbfake.home", home)
        monkeypatch.setitem(sys.modules, "pbfake.caller", caller)

        tracer = Tracer("pbfake")
        tracer.install([("home.leaf", "pbfake.home", "leaf", None),
                        ("home.outer", "pbfake.home", "outer",
                         lambda args, kwargs, result: (result,))])
        tracer.invocation = 3
        assert home.outer(1) == 4 and caller.leaf(1) == 2
        tracer.uninstall()
        assert home.leaf is leaf and caller.leaf is leaf and home.outer is outer

        names = [(s.name, s.parent, s.invocation, s.work) for s in tracer.spans]
        assert names == [("home.outer", -1, 3, (4,)), ("home.leaf", 0, 3, ()),
                         ("home.leaf", -1, 3, ())]


class TestTail:
    @pytest.mark.parametrize("n, percentile", [
        (10, 50.0), (19, 50.0), (20, 50.0), (36, 72.2222), (40, 75.0),
        (150, 93.3333), (1000, 99.0), (10000, 99.9),
    ])
    def test_highest_percentile_with_ten_beyond(self, n, percentile):
        chosen, value, beyond = stats.tail(range(1, n + 1))
        assert chosen == pytest.approx(percentile, abs=1e-4)
        assert beyond == n - value
        if n >= 2 * stats.TAIL_MIN_BEYOND:
            assert beyond == stats.TAIL_MIN_BEYOND

    def test_nearest_rank(self):
        assert stats.nearest_rank([5, 1, 4, 2, 3], 50.0) == (3, 2)
        assert stats.nearest_rank(list(range(1, 101)), 90.0) == (90, 10)


def _run_in_process(inv, out_dir, capsys):
    code = main(inv.argv(out_dir))
    return code, capsys.readouterr().out.encode("utf-8")


class TestChecks:
    def test_valid_sweep_passes(self, tmp_path, capsys):
        inv = sweep(40, "5.000", "svg")
        code, stdout = _run_in_process(inv, tmp_path, capsys)
        problems, _ = check_invocation(inv, code, stdout, tmp_path, CONFIG_SHA)
        assert problems == []

    def test_tampered_file_is_rejected(self, tmp_path, capsys):
        inv = sweep(40, "5.000", "csv")
        code, stdout = _run_in_process(inv, tmp_path, capsys)
        reference = {"stdout_sha256": sha256_hex(stdout), "files": file_hashes(tmp_path)}
        assert check_invocation(inv, code, stdout, tmp_path, CONFIG_SHA, reference)[0] == []

        path = tmp_path / "tip_trace.csv"
        text = path.read_text()
        tampered = text.replace("\n30,", "\n31,", 1)
        assert tampered != text
        path.write_text(tampered)
        problems, _ = check_invocation(inv, code, stdout, tmp_path, CONFIG_SHA, reference)
        assert "tip_trace.csv differs from the recorded reference" in problems

    def test_missing_row_and_wrong_hash_are_rejected(self, tmp_path, capsys):
        inv = sweep(40, "5.000", "csv")
        code, stdout = _run_in_process(inv, tmp_path, capsys)
        path = tmp_path / "joint_angles.csv"
        lines = path.read_text().split("\n")
        lines[0] = "# config_sha256=" + "0" * 64
        path.write_text("\n".join(lines[:-2] + [""]))
        problems, _ = check_invocation(inv, code, stdout, tmp_path, CONFIG_SHA)
        assert any("config line" in p for p in problems)
        assert "csv has 39 rows, expected 40" in problems

    def test_non_rfc_json_is_rejected(self, tmp_path, capsys):
        inv = sweep(20, "0.000", "json")
        code, stdout = _run_in_process(inv, tmp_path, capsys)
        path = tmp_path / "tip_trace.json"
        doc = json.loads(path.read_text())
        doc["rows"][0][2] = float("nan")
        path.write_text(json.dumps(doc))
        problems, _ = check_invocation(inv, code, stdout, tmp_path, CONFIG_SHA)
        assert any("not strict JSON" in p for p in problems)


class TestWorkloads:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_seeded_and_valid(self, workload):
        plan = plan_round(workload, 5)
        assert [i.key() for i in plan] == [i.key() for i in plan_round(workload, 5)]
        assert [i.key() for i in plan] != [i.key() for i in plan_round(workload, 6)]
        parser = _build_parser()
        for inv in plan + REFERENCES[workload]:
            args = parser.parse_args(inv.argv("out"))
            tension = getattr(args, "tension_n", None)
            assert tension is None or 0.0 < tension <= 38.0

    def test_emit_round_has_both_tendons(self):
        for seed in range(5):
            tendons = {i.options[3] for i in plan_round("emit", seed) if i.command == "force"}
            assert tendons == {"single", "double"}

    def test_benchmark_json_names_every_workload(self):
        doc = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
        assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
