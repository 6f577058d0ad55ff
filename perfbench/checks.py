"""Correctness checks applied to every benchmarked invocation.

Each check returns a list of problems; an empty list means the invocation
passed.  ``digest`` condenses stdout and every emitted file so repeated
invocations can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .workloads import Invocation

MAX_DEVIATION_RAD = 1e-9

_DEVIATION = re.compile(r"^max deviation = (\S+) rad$", re.MULTILINE)
_RULES = re.compile(r"^(\d+)/(\d+) rules passed$", re.MULTILINE)


def _reject_constant(token: str):
    raise ValueError(f"non-RFC 8259 JSON constant {token}")


def _reject_duplicates(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate JSON key {key!r}")
        doc[key] = value
    return doc


def strict_json(text: str):
    """Parse RFC 8259 JSON: no NaN/Infinity, no duplicate keys."""
    return json.loads(text, parse_constant=_reject_constant,
                      object_pairs_hook=_reject_duplicates)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_hashes(out_dir: Path | None) -> dict[str, str]:
    if out_dir is None or not out_dir.is_dir():
        return {}
    return {p.name: sha256_hex(p.read_bytes())
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def digest(stdout: bytes, hashes: dict[str, str]) -> str:
    h = hashlib.sha256(stdout)
    for name in sorted(hashes):
        h.update(f"\0{name}\0{hashes[name]}".encode())
    return h.hexdigest()


def check_csv(text: str, rows: int, config_sha: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] != "":
        return ["csv does not end with a newline"]
    problems = []
    if lines[0] != f"# config_sha256={config_sha}":
        problems.append(f"csv config line is {lines[0][:80]!r}")
    data = lines[2:-1]
    if len(data) != rows:
        problems.append(f"csv has {len(data)} rows, expected {rows}")
    commas = lines[1].count(",") if len(lines) > 1 else -1
    if any(line.count(",") != commas for line in data):
        problems.append("csv rows do not match the header width")
    if "nan" in text or "inf" in text:
        problems.append("csv holds a non-finite number")
    return problems


def check_json_doc(doc, rows: int | None, config_sha: str) -> list[str]:
    if not isinstance(doc, dict):
        return ["json root is not an object"]
    problems = []
    if doc.get("config_sha256") != config_sha:
        problems.append(f"json config_sha256 is {doc.get('config_sha256')!r}")
    if rows is not None:
        table = doc.get("rows")
        width = len(doc.get("columns", ()))
        if not isinstance(table, list) or len(table) != rows:
            problems.append(f"json has {len(table) if isinstance(table, list) else 'no'} "
                            f"rows, expected {rows}")
        elif any(len(row) != width for row in table):
            problems.append("json rows do not match the column count")
    return problems


def check_svg(text: str) -> list[str]:
    if not text.startswith("<?xml") or not text.endswith("</svg>\n"):
        return ["svg is not a complete document"]
    return []


def check_file(path: Path, rows: int | None, config_sha: str) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return check_csv(text, rows, config_sha)
    if path.suffix == ".svg":
        return check_svg(text)
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"{path.name} is not strict JSON: {exc}"]
    return check_json_doc(doc, rows, config_sha)


def check_stdout(inv: Invocation, stdout: str) -> list[str]:
    if inv.command == "analyze":
        return [] if stdout.startswith("M=1, loops=2\n") else ["analyze: wrong mobility line"]
    if inv.command == "registry":
        m = _RULES.search(stdout)
        if not m or m.group(1) != m.group(2):
            return ["registry: not every rule passed"]
        return []
    if inv.command == "validate":
        samples = inv.options[inv.options.index("--samples") + 1]
        m = _DEVIATION.search(stdout)
        if f"samples={samples}\n" not in stdout or not m:
            return ["validate: report lines missing"]
        if not float(m.group(1)) <= MAX_DEVIATION_RAD:
            return [f"validate: max deviation {m.group(1)} rad > {MAX_DEVIATION_RAD}"]
        return []
    if inv.command in ("grasp", "safety"):
        try:
            doc = strict_json(stdout)
        except ValueError as exc:
            return [f"{inv.command}: stdout is not strict JSON: {exc}"]
        if inv.feasible is not None and doc.get("feasible") is not inv.feasible:
            return [f"grasp: feasible is {doc.get('feasible')!r}, expected {inv.feasible}"]
        return []
    return [] if stdout == "" else [f"{inv.command}: unexpected stdout"]


def check_invocation(inv: Invocation, returncode: int, stdout: bytes,
                     out_dir: Path | None, config_sha: str,
                     reference: dict | None = None) -> tuple[list[str], str]:
    """Problems found in one invocation's outcome, and its output digest.

    ``reference`` holds recorded SHA-256 hashes of stdout and each emitted
    file; when given, the outcome must match it byte for byte.
    """
    hashes = file_hashes(out_dir)
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}, expected 0")
    problems += check_stdout(inv, stdout.decode("utf-8", "replace"))
    expected = inv.expected_files()
    if set(hashes) != set(expected):
        problems.append(f"emitted {sorted(hashes)}, expected {sorted(expected)}")
    for name, rows in expected.items():
        if name in hashes:
            problems += check_file(out_dir / name, rows, config_sha)
    if reference is not None:
        if sha256_hex(stdout) != reference["stdout_sha256"]:
            problems.append("stdout differs from the recorded reference")
        for name, sha in reference["files"].items():
            if hashes.get(name) != sha:
                problems.append(f"{name} differs from the recorded reference")
    return problems, digest(stdout, hashes)
