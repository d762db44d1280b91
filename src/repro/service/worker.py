"""What runs inside one crash-isolated worker: vet, execute, classify.

``execute_job`` is the pool task function for the job service.  It is
deliberately *total* over the domain of hostile inputs: every job
either returns a terminal :class:`~repro.service.job.JobResult` dict
or dies in a way the supervisor classifies (crash / wall timeout) —
it never raises for guest-program problems.

The execution ladder for ``mode="auto"`` (the default):

1. **tier 3** — the specializing translator (per-block compiled
   Python) feeding the timing model,
2. **tier 2 (fast)** — the block-translation cache; entered when the
   tier-3 rung fails for *any* reason — a codegen fault, an injected
   :class:`~repro.service.errors.DivergenceDetected`, an unexpected
   exception,
3. **tier 1 (precise)** — the per-step interpreter; the last rung.
   Success on a lower rung records ``downgraded=True`` plus the chain
   of per-rung reasons in the result metadata instead of failing the
   job; a failure that survives the precise rung is classified into
   the error taxonomy and becomes the job's terminal error.

``mode="tier3"/"fast"/"precise"`` pin a single rung: a failure there
is terminal, never silently downgraded.

The instruction watchdog is *not* on the ladder: an expired budget is
deterministic (precise mode would burn the same budget), so it
terminates the job as ``TIMEOUT`` — with the partial statistics
snapshot the watchdog now carries, so bounded jobs still return data.

Chaos injection (``JobSpec.chaos``) is honoured only here, at the
worker boundary, from the spec's own plan — nothing is random inside
the worker, so a seeded campaign replays exactly:

* ``crash_attempts: [n, ...]`` — ``os._exit`` before doing any work on
  those attempt numbers (a worker crash the supervisor must reap),
* ``hang_attempts: [n, ...]``  — spin forever (the supervisor's
  wall-clock watchdog must SIGKILL the worker),
* ``error_attempts: [n, ...]`` — raise a raw exception (an internal
  worker bug the pool must serialize and contain),
* ``fast_fault: true``         — the block-cache machinery fails
  (tiers 3 and 2 both depend on it, so the ladder must ride all the
  way down to precise),
* ``tier3_fault: true``        — only the tier-3 translator fails
  (the ladder must stop one rung down, at fast),
* ``divergence: true``         — divergence is detected after a
  translated run (fails tiers 3 and 2; precise cannot diverge from
  itself).
"""

from __future__ import annotations

import os
import time
from typing import Any, NoReturn

from ..analysis import Sanitizer, SanitizerViolation, lint_program
from ..analysis.checks import SEV_ERROR
from ..asm import assemble
from ..asm.program import Program
from ..harness.runner import RunResult, run_on_core
from ..sim.emulator import Emulator, EmulatorError, WatchdogExpired
from ..uarch.config import CoreConfig
from ..uarch.uconfig import UconfigError
from .errors import (
    DivergenceDetected,
    GuestFault,
    ResourceExhausted,
    ServiceError,
    WatchdogTimeout,
)
from .job import JobResult, JobSpec, JobState

#: admission caps: reject before burning worker time on absurd inputs
MAX_SOURCE_BYTES = 1 << 20      # 1 MiB of assembly source
MAX_TEXT_BYTES = 1 << 18        # 256 KiB of encoded text section
#: stdout kept per result (the service is not a log store)
MAX_STDOUT_CHARS = 4096


def execute_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool task function: one attempt of one job, start to terminal."""
    spec = JobSpec.from_dict(payload["spec"])
    attempt = int(payload.get("attempt", 1))
    _apply_chaos(spec.chaos, attempt)
    try:
        program, core = _admit(spec)
    except ServiceError as exc:
        return _error_result(spec, JobState.REJECTED, exc)
    try:
        if core is None:
            result = _run_functional(spec, program)
        else:
            result = _run_timed(spec, program, core)
    except ServiceError as exc:
        return _error_result(spec, JobState.FAILED, exc)
    except Exception as exc:  # simulator bug: still a definitive state
        internal = ServiceError(
            f"internal execution failure: {type(exc).__name__}: {exc}")
        internal.__cause__ = exc
        return _error_result(spec, JobState.FAILED, internal)
    return result.to_dict()


# -- chaos ------------------------------------------------------------------


def _apply_chaos(chaos: dict[str, Any], attempt: int) -> None:
    if not chaos:
        return
    if attempt in chaos.get("crash_attempts", ()):
        os._exit(86)                      # simulated hard worker death
    if attempt in chaos.get("hang_attempts", ()):
        while True:                       # simulated wedged guest/worker;
            time.sleep(0.05)              # only SIGKILL gets us out
    if attempt in chaos.get("error_attempts", ()):
        raise RuntimeError(f"chaos: injected worker exception "
                           f"(attempt {attempt})")


# -- admission --------------------------------------------------------------


def _admit(spec: JobSpec) -> tuple[Program, CoreConfig | None]:
    """Vet an untrusted job before it reaches the execution engine;
    returns the assembled program and the resolved timing core (None
    for a functional job), each built exactly once.

    Raises :class:`ResourceExhausted` for size-cap violations and
    :class:`GuestFault` for programs that fail to assemble, crash the
    static analyzer, carry error-severity lint findings, or name a
    core that does not resolve (unknown preset, unreadable document
    path, or a document that fails schema validation).
    """
    try:
        core = spec.resolve_core()
    except (UconfigError, OSError) as exc:
        raise GuestFault(
            f"invalid uarch config: {exc}",
            detail={"stage": "admission",
                    "problems": list(getattr(exc, "problems", ()))},
            retryable=False) from exc
    raw = len(spec.source.encode())
    if raw > MAX_SOURCE_BYTES:
        raise ResourceExhausted(
            f"source is {raw} bytes; admission cap is "
            f"{MAX_SOURCE_BYTES}",
            detail={"stage": "admission", "source_bytes": raw,
                    "cap": MAX_SOURCE_BYTES})
    try:
        program = assemble(spec.source, compress=spec.compress)
    except Exception as exc:
        raise GuestFault("assembly failed",
                         detail={"stage": "admission"}) from exc
    if len(program.text) > MAX_TEXT_BYTES:
        raise ResourceExhausted(
            f"text section is {len(program.text)} bytes; admission cap "
            f"is {MAX_TEXT_BYTES}",
            detail={"stage": "admission",
                    "text_bytes": len(program.text),
                    "cap": MAX_TEXT_BYTES})
    if spec.vet:
        try:
            report = lint_program(program, name=spec.name)
        except Exception as exc:
            raise GuestFault("static analysis failed during admission",
                             detail={"stage": "admission"}) from exc
        errors = [f for f in report.findings if f.severity == SEV_ERROR]
        if errors:
            raise GuestFault(
                f"admission lint: {len(errors)} error-severity "
                f"finding(s)",
                detail={"stage": "admission",
                        "findings": sorted(f.key for f in errors)})
    return program, core


# -- execution --------------------------------------------------------------


def _ladder(mode: str) -> tuple[int, ...]:
    """Tier rungs for *mode*; single-rung modes never downgrade."""
    return {"auto": (3, 2, 1), "tier3": (3,), "fast": (2,),
            "precise": (1,)}[mode]


def _chaos_tier_fault(chaos: dict[str, Any], tier: int) -> None:
    """Honour the per-tier chaos injection keys for one rung."""
    if tier == 3 and chaos.get("tier3_fault"):
        raise RuntimeError("chaos: injected tier-3 codegen fault")
    if tier in (2, 3) and chaos.get("fast_fault"):
        raise RuntimeError("chaos: injected fast-path fault")


def _run_timed(spec: JobSpec, program: Program,
               core: CoreConfig) -> JobResult:
    """Emulator + 12-stage timing model, with the degradation ladder."""
    rungs = _ladder(spec.mode)
    reasons: list[str] = []
    for index, tier in enumerate(rungs):
        last = index == len(rungs) - 1
        try:
            _chaos_tier_fault(spec.chaos, tier)
            run = run_on_core(program, core, tier=tier,
                              max_insts=spec.max_insts,
                              partial_on_watchdog=True)
            if tier != 1 and spec.chaos.get("divergence"):
                raise DivergenceDetected(
                    "chaos: injected translated/precise divergence",
                    detail={"injected": True, "tier": tier})
            return _timed_result(
                spec, run, downgrade_reason="; ".join(reasons) or None)
        except Exception as exc:
            if last:
                _raise_classified(exc)
            reasons.append(f"tier{tier}: {type(exc).__name__}: {exc}")
    raise AssertionError("unreachable: ladder exhausted without raising")


def _timed_result(spec: JobSpec, run: RunResult,
                  downgrade_reason: str | None) -> JobResult:
    stats = run.stats
    metrics: dict[str, Any] = {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ipc": round(stats.ipc, 6),
        "tier": stats.extra["tier"],
        "stats": stats.as_comparable(),
    }
    if "tier_reason" in stats.extra:
        metrics["tier_reason"] = stats.extra["tier_reason"]
    if run.watchdog is not None:
        return JobResult(
            name=spec.name, state=JobState.TIMEOUT,
            error=_watchdog_error(spec, run.watchdog), metrics=metrics,
            stdout=run.stdout[:MAX_STDOUT_CHARS], partial=True,
            downgraded=downgrade_reason is not None,
            downgrade_reason=downgrade_reason,
            program_hash=spec.program_hash)
    return JobResult(
        name=spec.name, state=JobState.COMPLETED,
        exit_code=run.exit_code, metrics=metrics,
        stdout=run.stdout[:MAX_STDOUT_CHARS],
        downgraded=downgrade_reason is not None,
        downgrade_reason=downgrade_reason,
        program_hash=spec.program_hash)


def _run_functional(spec: JobSpec, program: Program) -> JobResult:
    """Emulator-only execution; the exit code is data, not a fault."""
    rungs = _ladder(spec.mode)
    reasons: list[str] = []
    for index, tier in enumerate(rungs):
        last = index == len(rungs) - 1
        try:
            _chaos_tier_fault(spec.chaos, tier)
            return _functional_attempt(
                spec, program, tier=tier,
                downgrade_reason="; ".join(reasons) or None)
        except WatchdogExpired as exc:
            # Deterministic across tiers: not a ladder rung.
            return _functional_timeout(
                spec, exc, downgraded=bool(reasons),
                downgrade_reason="; ".join(reasons) or None)
        except SanitizerViolation as exc:
            # A vetting hit is a property of the guest, not the tier.
            raise GuestFault(
                f"sanitizer: {exc.violation.render()}",
                detail={"stage": "runtime"}) from exc
        except Exception as exc:
            if last:
                _raise_classified(exc)
            reasons.append(f"tier{tier}: {type(exc).__name__}: {exc}")
    raise AssertionError("unreachable: ladder exhausted without raising")


def _functional_attempt(spec: JobSpec, program: Program, tier: int,
                        downgrade_reason: str | None) -> JobResult:
    emulator = Emulator(program, instruction_limit=spec.max_insts)
    if tier != 1 and spec.vet:
        # Runtime arm of the vetting layer: the static summaries ride
        # along as shadow state on the block-cache path.
        emulator.sanitizer = Sanitizer(program)
    code = emulator.run(tier=tier)
    metrics: dict[str, Any] = {
        "instret": emulator.state.instret,
        "exit_code": code,
        "tier": emulator.tier,
    }
    if emulator.tier_reason is not None:
        metrics["tier_reason"] = emulator.tier_reason
    metrics.update(emulator.counters())
    return JobResult(
        name=spec.name, state=JobState.COMPLETED, exit_code=code,
        metrics=metrics, stdout=emulator.stdout[:MAX_STDOUT_CHARS],
        downgraded=downgrade_reason is not None,
        downgrade_reason=downgrade_reason,
        program_hash=spec.program_hash)


def _functional_timeout(spec: JobSpec, exc: WatchdogExpired,
                        downgraded: bool,
                        downgrade_reason: str | None = None) -> JobResult:
    metrics: dict[str, Any] = {
        "instret": exc.partial.get("instret", 0),
    }
    metrics.update(exc.partial.get("counters", {}))
    return JobResult(
        name=spec.name, state=JobState.TIMEOUT,
        error=_watchdog_error(spec, exc),
        metrics=metrics, partial=True, downgraded=downgraded,
        downgrade_reason=downgrade_reason,
        program_hash=spec.program_hash)


def _watchdog_error(spec: JobSpec, exc: WatchdogExpired) -> dict[str, Any]:
    limit = (spec.max_insts if spec.max_insts is not None
             else Emulator.DEFAULT_INSTRUCTION_LIMIT)
    return WatchdogTimeout(
        f"instruction watchdog: limit {limit} expired",
        detail={"watchdog": "instructions",
                "instret": exc.partial.get("instret"), "limit": limit},
        retryable=False).to_dict()


# -- classification ---------------------------------------------------------


def _raise_classified(exc: BaseException) -> NoReturn:
    """Re-raise *exc* in taxonomy form, chaining unless it already is."""
    classified = _classify(exc)
    if classified is exc:
        raise classified
    raise classified from exc


def _classify(exc: BaseException) -> ServiceError:
    """Map an execution-time exception into the error taxonomy."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, MemoryError):
        return ResourceExhausted("memory exhausted during execution")
    if isinstance(exc, EmulatorError):
        return GuestFault(f"runtime fault: {exc}",
                          detail={"stage": "runtime"})
    if isinstance(exc, RuntimeError):
        # run_on_core raises RuntimeError for a nonzero guest exit on a
        # timed run; blockcache internals use it for translation faults.
        return GuestFault(str(exc), detail={"stage": "runtime"})
    return ServiceError(
        f"unclassified execution failure: {type(exc).__name__}: {exc}")


def _error_result(spec: JobSpec, state: JobState,
                  error: ServiceError) -> dict[str, Any]:
    return JobResult(
        name=spec.name, state=state, error=error.to_dict(),
        program_hash=spec.program_hash).to_dict()


__all__ = ["execute_job", "MAX_SOURCE_BYTES", "MAX_TEXT_BYTES"]
