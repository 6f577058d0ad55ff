"""Kinematics and static-force toolkit for a tendon-driven linkage finger.

The names below are exported lazily (PEP 562): ``import fingerkit`` loads
no submodule, and the first use of a name imports the module defining it,
so code that needs no arrays never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {
    "config": ("FingerConfig", "default_config", "load_config", "parse_config"),
    "errors": ("ConfigError", "DegenerateGeometryError", "FingerkitError",
               "NoClosureError", "OutOfRangeError", "RuleViolationError"),
    "finger": ("FORCE_DTYPE", "TIP_DTYPE", "CylinderObject", "FlatObject",
               "GraspReport", "WorkspaceResult", "force_profile", "grasp_assess",
               "static_tip_force", "tendon_excursion", "tip_trace",
               "tip_velocity", "workspace"),
    "geometry": ("FingerGeometry", "LinkageGeometry", "LoopCoefficients",
                 "TendonModel", "compute_mobility", "count_loops",
                 "loop_coefficients"),
    "linkage": ("JointState", "chain_derivatives", "solve_chain", "sweep_chain"),
    "registry": ("ReferenceRegistry", "default_registry", "registry_verify"),
    "safety": ("ClearanceResult", "SafetyVerdict", "StrokeResult",
               "clearance_check", "iso_contact_check", "stroke_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
