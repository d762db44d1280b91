"""Result digests and the committed ``expected.json``.

Every op of every workload has one expected digest.  A digest is the
sha256 of the canonical JSON of the op's *simulated* result — for a
timed run ``CoreStats.as_comparable()``, so the benchmark's notion of
"the same answer" is the repo's own timing-equivalence contract.  An
op whose digest differs is a failed op.

Ops that run a bundled program on the stock ``xt910`` also name that
program (``golden``); on load their digests are recomputed from
``tests/uarch/golden_stats.json`` and must match, and together they
must cover every program in that file but the ones ``NOT_RUN`` lists.
``expected.json`` therefore cannot drift from the oracle the tier-1
tests use.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
GOLDEN_PATH = os.path.join(ROOT, "tests", "uarch", "golden_stats.json")

SCHEMA = 1

#: Golden programs no workload runs at their bundled size, and why.
NOT_RUN = {
    "specint-like": "1.5 s an op at the bundled size, which the run "
                    "budget has no room for; timed-memory runs the same "
                    "kernel at a third of the steps",
}


class ExpectedError(RuntimeError):
    """``expected.json`` is missing, malformed or contradicts the oracle."""


def digest(payload: Any) -> str:
    """sha256 over the canonical JSON form of a simulated result."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden() -> dict[str, dict[str, int]]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def load_expected(path: str = EXPECTED_PATH) -> dict[str, dict[str, dict]]:
    """Read ``expected.json`` and check it against the golden stats.

    Returns ``{workload: {op name: {"digest": ..., "golden": ...}}}``.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExpectedError(f"cannot read {path}: {exc}") from exc
    if document.get("schema") != SCHEMA:
        raise ExpectedError(f"{path}: schema {document.get('schema')!r}, "
                            f"this benchmark reads schema {SCHEMA}")
    workloads = document["workloads"]
    check_against_golden(workloads, load_golden())
    return workloads


def check_against_golden(workloads: dict[str, dict[str, dict]],
                         golden: dict[str, dict[str, int]]) -> None:
    """Raise unless every ``golden`` op equals the oracle and the ops
    cover every program the oracle holds (``NOT_RUN`` excepted)."""
    covered = set()
    for workload, ops in workloads.items():
        for op, entry in ops.items():
            name = entry.get("golden")
            if name is None:
                continue
            if name not in golden:
                raise ExpectedError(f"{workload}/{op}: names golden "
                                    f"program {name!r}, which "
                                    f"golden_stats.json does not hold")
            if entry["digest"] != digest(golden[name]):
                raise ExpectedError(
                    f"{workload}/{op}: expected digest differs from "
                    f"tests/uarch/golden_stats.json[{name!r}]")
            covered.add(name)
    missing = sorted(set(golden) - covered - set(NOT_RUN))
    if missing:
        raise ExpectedError(f"expected.json covers {len(covered)} of "
                            f"{len(golden)} golden programs; missing: "
                            f"{', '.join(missing)}")


def save_expected(workloads: dict[str, dict[str, dict]],
                  path: str = EXPECTED_PATH) -> None:
    with open(path, "w") as handle:
        json.dump({"schema": SCHEMA, "workloads": workloads}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
