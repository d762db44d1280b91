"""Guard for the emulator's one tier selector.

``Emulator.run(tier=)`` and ``Emulator.trace(tier=)`` are the only ways
to run more than one instruction, and ``Emulator._select_tier`` is the
only place that decides which tier can.  The per-tier entry points and
eligibility checks they replaced must not come back under another
caller, and ``Emulator.codegen_trace`` — kept as a named seam so the
tier-3 batch stream can be wrapped — is reached from ``trace`` alone.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SCANNED = [REPO_ROOT / name for name in ("src", "tests", "examples")]
EMULATOR = REPO_ROOT / "src" / "repro" / "sim" / "emulator.py"

#: the retired entry points and eligibility checks, spelled as a
#: pattern so a plain-text search for them comes up empty
RETIRED = re.compile(r"run_(?:fast|codegen)|(?:fast)_trace"
                     r"|_(?:fast|tier3)_eligible")


def _sources():
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _identifiers(tree):
    """(line, identifier) for every name the module binds or uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value     # getattr(emulator, "...")


def test_no_retired_tier_entry_point_is_named():
    offenders = sorted(
        f"{path.relative_to(REPO_ROOT)}:{line} {name}"
        for path, tree in _sources()
        for line, name in _identifiers(tree) if RETIRED.fullmatch(name))
    assert not offenders, offenders


def _calls_to(tree, attr):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr]


def _enclosing_method(tree, target):
    """``Class.method`` whose body holds *target*."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef)
                    and any(node is target for node in ast.walk(method))):
                return f"{cls.name}.{method.name}"
    return None


def test_codegen_trace_is_called_only_from_emulator_trace():
    callers = sorted(
        f"{path.relative_to(REPO_ROOT)}:{call.lineno} "
        f"{_enclosing_method(tree, call)}"
        for path, tree in _sources()
        for call in _calls_to(tree, "codegen_trace"))
    assert len(callers) == 1, callers
    (caller,) = callers
    location, method = caller.split(" ")
    assert location.startswith(str(EMULATOR.relative_to(REPO_ROOT)) + ":")
    assert method == "Emulator.trace"
