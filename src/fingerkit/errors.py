"""Exception hierarchy shared across the toolkit, and the rules for numbers
crossing its boundary: read from a JSON document or a command-line flag,
or written as JSON."""

import json
import math


class FingerkitError(Exception):
    """Base class for domain errors raised by this package."""


class DegenerateGeometryError(FingerkitError):
    """A geometric quantity that must be nonzero vanished (zero link length,
    indeterminate loop equation, singular transmission Jacobian)."""


class NoClosureError(FingerkitError):
    """The mechanism cannot assemble at the requested input angle."""

    def __init__(self, message: str, loop: int | None = None,
                 theta_in: float | None = None):
        super().__init__(message)
        self.loop = loop
        self.theta_in = theta_in


class OutOfRangeError(FingerkitError):
    """An input value lies outside its admissible interval."""


class RuleViolationError(FingerkitError):
    """A reference-registry consistency rule failed.

    Carries the identifiers of the failing rules and the entries involved.
    """

    def __init__(self, message: str, rules: list[str] | None = None):
        super().__init__(message)
        self.rules = rules or []


class ConfigError(FingerkitError):
    """A configuration document is missing, malformed, or violates the schema."""


def validated(cls):
    """Class decorator for a ``NamedTuple`` record with a ``_check`` method:
    every construction, ``_make`` and ``_replace`` included, returns
    ``record._check()``, which raises for a bad value and returns the
    record, normalised where the class needs it."""
    new, make = cls.__new__, cls._make
    cls.__new__ = staticmethod(lambda klass, *a, **k: new(klass, *a, **k)._check())
    cls._make = classmethod(lambda klass, iterable: make(iterable)._check())
    return cls


def finite_number(value, message: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool),
    else :class:`ConfigError` with ``message``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(message)


def require_finite(value: float, flag: str, minimum: float | None = None,
                   strict: bool = True) -> float:
    """CLI boundary check: a finite number, optionally bounded below."""
    if math.isfinite(value) and (
        minimum is None or value > minimum or (not strict and value == minimum)
    ):
        return value
    bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum:g}"
    raise ConfigError(f"{flag} must be a finite number{bound}, got {value!r}")


def strict_json(doc: dict) -> str:
    """RFC 8259 JSON text: a non-finite number is an error, never ``NaN``."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FingerkitError(f"non-finite value in JSON output: {exc}") from exc
