"""Freeze guard for the timing oracle.

``repro.uarch.refmodel`` is the frozen reference the fast-path timing
model is equivalence-tested against, and ``golden_stats.json`` is its
committed output.  Neither may drift silently: a change to either file
must consciously update ``frozen_hashes.json`` in the same commit,
with the equivalence suite re-run.  This test turns any accidental
edit into a loud, named failure instead of a quietly re-baselined
oracle.
"""

import ast
import hashlib
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FROZEN = Path(__file__).with_name("frozen_hashes.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_frozen_hashes_file_exists():
    assert FROZEN.exists(), (
        "tests/uarch/frozen_hashes.json is missing; regenerate it from "
        "the current oracle files and commit it")


def test_oracle_files_unchanged():
    frozen = json.loads(FROZEN.read_text())
    assert frozen, "frozen_hashes.json is empty"
    mismatches = []
    for rel, expected in sorted(frozen.items()):
        path = REPO_ROOT / rel
        assert path.exists(), f"frozen oracle file {rel} was deleted"
        actual = _sha256(path)
        if actual != expected:
            mismatches.append(f"{rel}: {actual} != frozen {expected}")
    assert not mismatches, (
        "timing-oracle files changed without updating the freeze "
        "record. If the change is intentional, re-run the fast-path "
        "equivalence suite and update tests/uarch/frozen_hashes.json "
        "in the same commit:\n  " + "\n  ".join(mismatches))


def test_freeze_covers_refmodel_and_golden_stats():
    frozen = json.loads(FROZEN.read_text())
    assert "src/repro/uarch/refmodel.py" in frozen
    assert "tests/uarch/golden_stats.json" in frozen


# -- the oracle stays an oracle ---------------------------------------------

SRC = REPO_ROOT / "src" / "repro"
REFMODEL = SRC / "uarch" / "refmodel.py"
#: the reference model's per-stage seam; nothing else may step it
STAGE_METHODS = {"_frontend", "_dispatch", "_execute", "_retire",
                 "_resolve_control"}


def _imports_refmodel(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name
                                           for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "refmodel" for name in names):
            return True
    return False


def test_only_the_oracle_bench_imports_the_reference_model():
    importers = {
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if path != REFMODEL
        and _imports_refmodel(ast.parse(path.read_text()))}
    assert importers == {"harness/layerbench.py"}


def test_nothing_steps_the_reference_models_stages():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}"
        for path in SRC.rglob("*.py") if path != REFMODEL
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in STAGE_METHODS)
    assert not offenders, offenders
