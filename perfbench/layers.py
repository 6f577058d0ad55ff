"""The traced layers: which functions get spans, and the per-layer metrics.

Layers are fingerkit's modules.  Each target names the function where it is
defined; the tracer patches every module that binds it under that name.
"""

from __future__ import annotations

from .spans import LayerStats

SCAN_BYTES_PER_EVAL = 8  # one float64 residual per dense-scan grid point


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _samples(args, kwargs, result):
    return (len(_arg(args, kwargs, 3, "phi")),)


def _bisect_work(args, kwargs, result):
    """Samples, and residual evaluations of the dense scan: n * (n_scan + 1).

    The 60 bisection steps per bracketed root are not counted.
    """
    n = len(_arg(args, kwargs, 3, "phi"))
    return (n, n * (int(_arg(args, kwargs, 7, "n_scan")) + 1))


def _text_bytes(args, kwargs, result):
    return (len(result.encode("utf-8")),)


TARGETS = (
    ("config.load_config", "fingerkit.config", "load_config", None),
    ("registry.default_registry", "fingerkit.registry", "default_registry", None),
    ("registry.registry_verify", "fingerkit.registry", "registry_verify", None),
    ("kernels.loop_solve_batch", "fingerkit._kernels", "loop_solve_batch", _samples),
    ("kernels.loop_sweep_continuity", "fingerkit._kernels", "loop_sweep_continuity",
     _samples),
    ("kernels.loop_bisect_batch", "fingerkit._kernels", "loop_bisect_batch",
     _bisect_work),
    ("linkage.sweep_chain", "fingerkit.linkage", "sweep_chain", None),
    ("linkage.solve_chain", "fingerkit.linkage", "solve_chain", None),
    ("linkage.chain_derivatives", "fingerkit.linkage", "chain_derivatives", None),
    ("finger.tip_trace", "fingerkit.finger", "tip_trace", None),
    ("finger.workspace", "fingerkit.finger", "workspace", None),
    ("finger.static_tip_force", "fingerkit.finger", "static_tip_force", None),
    ("finger.tendon_excursion", "fingerkit.finger", "tendon_excursion", None),
    ("finger.tip_velocity", "fingerkit.finger", "tip_velocity", None),
    ("finger.grasp_assess", "fingerkit.finger", "grasp_assess", None),
    ("safety.iso_contact_check", "fingerkit.safety", "iso_contact_check", None),
    ("safety.clearance_check", "fingerkit.safety", "clearance_check", None),
    ("safety.stroke_check", "fingerkit.safety", "stroke_check", None),
    ("svgplot.render_svg", "fingerkit.svgplot", "render_svg", _text_bytes),
    ("cli.run", "fingerkit.cli", "run", None),
)

SAFETY_CHECKS = ("safety.iso_contact_check", "safety.clearance_check",
                 "safety.stroke_check")

_NONE = LayerStats(0.0, 0, (), frozenset())


def layer_metrics(summary: dict[str, LayerStats], rows_by_invocation: dict[int, int],
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but import and trace.*).

    ``rows_by_invocation`` maps each traced invocation id to the data rows
    it emitted per table; ``bytes_written`` is what the round wrote to disk.
    """
    def stats(name: str) -> LayerStats:
        return summary.get(name, _NONE)

    def work(name: str, k: int) -> int:
        w = stats(name).work
        return w[k] if len(w) > k else 0

    def per_row(name: str) -> float:
        st = stats(name)
        rows = sum(rows_by_invocation.get(i, 0) for i in st.invocations)
        return st.calls / rows if rows else 0.0

    m: dict[str, float] = {}
    for name in ("config.load_config", "registry.default_registry",
                 "registry.registry_verify", "finger.tip_trace", "finger.workspace",
                 "finger.static_tip_force", "finger.tendon_excursion",
                 "finger.tip_velocity", "finger.grasp_assess", "svgplot.render_svg",
                 "cli.run"):
        m[f"{name}.self_s"] = stats(name).self_s
    for name in ("kernels.loop_sweep_continuity", "kernels.loop_solve_batch",
                 "kernels.loop_bisect_batch", "linkage.sweep_chain",
                 "linkage.solve_chain", "linkage.chain_derivatives"):
        m[f"{name}.self_s"] = stats(name).self_s
        m[f"{name}.calls"] = stats(name).calls
    for name in ("kernels.loop_sweep_continuity", "kernels.loop_solve_batch",
                 "kernels.loop_bisect_batch"):
        m[f"{name}.samples"] = work(name, 0)
    evals = work("kernels.loop_bisect_batch", 1)
    m["kernels.loop_bisect_batch.scan_evals"] = evals
    m["kernels.loop_bisect_batch.scan_bytes"] = evals * SCAN_BYTES_PER_EVAL
    sweeps = stats("linkage.sweep_chain")
    m["linkage.sweep_chain.calls_per_invocation"] = (
        sweeps.calls / len(sweeps.invocations) if sweeps.invocations else 0.0)
    m["linkage.solve_chain.calls_per_row"] = per_row("linkage.solve_chain")
    m["linkage.chain_derivatives.calls_per_row"] = per_row("linkage.chain_derivatives")
    m["safety.checks.self_s"] = sum(stats(n).self_s for n in SAFETY_CHECKS)
    m["svgplot.render_svg.bytes"] = work("svgplot.render_svg", 0)
    m["cli.bytes_written"] = bytes_written
    run_self = m["cli.run.self_s"]
    m["cli.emit_mb_per_s"] = bytes_written / 1e6 / run_self if run_self > 0 else 0.0
    return m
