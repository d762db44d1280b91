"""Lint driver: run the checker suite and diff against a baseline.

The committed baseline (``lint_baseline.json`` next to this module)
records the accepted findings per workload as stable keys.  CI runs
``python -m repro lint --workloads`` and fails when a finding appears
that the baseline does not carry — the workflow for an intentional
finding (e.g. the widening-MAC vector reconfiguration idiom) is to
re-run with ``--update-baseline`` and commit the diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..asm import assemble
from ..asm.program import Program
from .cfg import CFG, build_cfg
from .checks import Finding, run_checks

#: baseline shipped with the analyzer package
DEFAULT_BASELINE = Path(__file__).with_name("lint_baseline.json")


@dataclass
class LintReport:
    """Lint results for one program."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    blocks: int = 0
    functions: int = 0
    instructions: int = 0

    @property
    def keys(self) -> list[str]:
        return sorted({f.key for f in self.findings})

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "blocks": self.blocks,
            "functions": self.functions,
            "instructions": self.instructions,
            "findings": [finding_dict(f) for f in self.findings],
        }


def finding_dict(finding: Finding) -> dict:
    return {
        "check": finding.check,
        "severity": finding.severity,
        "function": finding.function,
        "addr": finding.addr,
        "line": finding.line,
        "message": finding.message,
        "extra": finding.extra,
        "source": finding.source,
        "key": finding.key,
    }


def lint_program(program: Program, name: str = "program",
                 cfg: CFG | None = None) -> LintReport:
    """Run every checker over an assembled program."""
    if cfg is None:
        cfg = build_cfg(program)
    report = LintReport(
        name=name,
        findings=run_checks(cfg),
        blocks=len(cfg.blocks),
        functions=len(cfg.functions),
        instructions=sum(len(b.insts) for b in cfg.blocks.values()),
    )
    return report


def lint_source(source: str, name: str = "program",
                compress: bool = True) -> LintReport:
    """Assemble *source* and lint the result."""
    return lint_program(assemble(source, compress=compress), name=name)


def lint_workloads() -> list[LintReport]:
    """Lint every bundled workload, in registry order."""
    from ..workloads import all_workloads

    reports = []
    for workload in all_workloads():
        reports.append(lint_program(workload.program(),
                                    name=workload.name))
    return reports


# -- baseline workflow ------------------------------------------------------

def load_baseline(path: Path | str = DEFAULT_BASELINE) -> dict[str, list[str]]:
    """Accepted finding keys per program name; {} when absent."""
    path = Path(path)
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    if payload.get("version") != 1:
        raise ValueError(f"unsupported lint baseline version in {path}")
    return {name: list(keys)
            for name, keys in payload.get("programs", {}).items()}


def save_baseline(reports: list[LintReport],
                  path: Path | str = DEFAULT_BASELINE) -> None:
    payload = {
        "version": 1,
        "programs": {r.name: r.keys for r in reports if r.keys},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def compare_to_baseline(
    reports: list[LintReport],
    baseline: dict[str, list[str]],
) -> tuple[list[tuple[str, Finding]], list[tuple[str, str]]]:
    """Diff reports against the accepted baseline.

    Returns ``(new, stale)``: findings the baseline does not cover
    (these fail CI) and baseline keys no longer produced (safe to
    prune with ``--update-baseline``).
    """
    new: list[tuple[str, Finding]] = []
    stale: list[tuple[str, str]] = []
    seen_programs = set()
    for report in reports:
        seen_programs.add(report.name)
        accepted = set(baseline.get(report.name, ()))
        produced = set()
        for finding in report.findings:
            produced.add(finding.key)
            if finding.key not in accepted:
                new.append((report.name, finding))
        for key in sorted(accepted - produced):
            stale.append((report.name, key))
    for name in sorted(set(baseline) - seen_programs):
        for key in baseline[name]:
            stale.append((name, key))
    return new, stale
