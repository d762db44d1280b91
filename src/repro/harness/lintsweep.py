"""CI sweep: static lint + runtime sanitizer over every workload.

Not a paper figure — this is the guest-program QA gate the lint
baseline workflow hangs off.  Each workload is statically analyzed
(CFG + checker suite, diffed against the committed baseline) and then
run to completion under the runtime sanitizer; either a new finding or
a runtime violation fails the experiment, which is what the
``lint-guests`` CI job keys on.
"""

from __future__ import annotations

from ..analysis import Sanitizer, SanitizerViolation
from ..analysis.lint import (
    compare_to_baseline,
    lint_program,
    load_baseline,
)
from ..sim.emulator import Emulator
from ..workloads import all_workloads
from .report import ExperimentResult


def run_lint(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment="lint",
        title="guest static analysis + runtime sanitizer sweep")
    reports = []
    sanitize_failures = 0
    blocks_checked = 0
    for workload in all_workloads():
        program = workload.program()
        report = lint_program(program, name=workload.name)
        reports.append(report)

        emulator = Emulator(program)
        emulator.sanitizer = Sanitizer(program)
        try:
            exit_code = emulator.run(tier=2)
        except SanitizerViolation as exc:
            sanitize_failures += 1
            result.notes.append(
                f"{workload.name}: sanitizer violation: "
                f"{exc.violation.render()}")
            exit_code = -1
        blocks_checked += emulator.sanitizer.blocks_checked
        if exit_code != 0:
            sanitize_failures += 1
            result.notes.append(
                f"{workload.name}: sanitized run exited {exit_code}")

    baseline = load_baseline()
    new, stale = compare_to_baseline(reports, baseline)
    total_findings = sum(len(r.findings) for r in reports)
    result.add("workloads analyzed", None, len(reports))
    result.add("instructions decoded", None,
               sum(r.instructions for r in reports))
    result.add("basic blocks", None, sum(r.blocks for r in reports))
    result.add("findings (baselined)", None, total_findings - len(new))
    result.add("findings (new)", 0, len(new), note="gates CI")
    result.add("stale baseline keys", 0, len(stale))
    result.add("sanitized blocks", None, blocks_checked)
    result.add("sanitizer failures", 0, sanitize_failures,
               note="gates CI")
    for name, finding in new:
        result.notes.append(f"NEW {name}: {finding.render()}")
    for name, key in stale:
        result.notes.append(f"stale: {name}: {key}")
    result.raw = {
        "new": len(new),
        "stale": len(stale),
        "sanitize_failures": sanitize_failures,
        "ok": not new and not stale and not sanitize_failures,
    }
    result.metric("workloads_analyzed", len(reports))
    result.metric("instructions_decoded",
                  sum(r.instructions for r in reports))
    result.metric("basic_blocks", sum(r.blocks for r in reports))
    result.metric("findings_baselined", total_findings - len(new))
    result.metric("findings_new", len(new))
    result.metric("stale_baseline_keys", len(stale))
    result.metric("sanitized_blocks", blocks_checked)
    result.metric("sanitize_failures", sanitize_failures)
    result.metric("ok", result.raw["ok"])
    return result
