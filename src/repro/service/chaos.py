"""Deterministic chaos harness for the job service.

Generates a seeded mix of healthy jobs, poison guest programs and
injected infrastructure faults (worker crashes, hangs, internal
exceptions, fast-path faults), drives them through a real
:class:`~repro.service.core.JobService` with process isolation, and
audits the invariant the service exists to provide:

    **every submitted job terminates in a definitive terminal state,
    with a structured serializable error chain when it did not
    complete — zero silent losses.**

Reporting follows the RAS campaign's discipline (corrected / detected
/ silent): a fault the service *recovered from* (retry, fallback,
cache) is the analogue of an ECC correction, a fault that terminated a
job *with a classified error* is a detection, and a job that vanished,
ended non-terminal, mis-stated, or failed without a structured error
is **silent** — the number CI gates at zero.

Everything is seeded: the plan (job kinds, poison payloads, injected
fault schedules) comes from one ``random.Random(seed)``, the service's
backoff jitter is seeded separately, and workers inject faults only
from their spec's own plan, so a campaign replays exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random
from typing import Any

from ..harness.report import ExperimentResult
from .core import JobService
from .errors import error_from_dict
from .job import JobResult, JobSpec, JobState
from .retry import RetryPolicy
from .worker import MAX_SOURCE_BYTES

#: wall-clock budget for jobs whose chaos plan includes a hang; the
#: budget must comfortably cover a *clean* retry attempt on a loaded
#: CI machine, or the retry itself gets reaped and the job flakes.
HANG_WALL_TIMEOUT_S = 3.0


# -- guest program generators ------------------------------------------------


def clean_source(variant: int) -> str:
    """A tiny verified kernel; ``variant`` makes the hash unique."""
    n = 40 + (variant % 37)
    return f"""
    .data
result: .dword 0
    .text
_start:                     # chaos-clean variant {variant}
    li t0, {n}
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    la t2, result
    sd t1, 0(t2)
    li a0, 0
    li a7, 93
    ecall
"""


def loop_source(variant: int = 0) -> str:
    """An infinite loop: only the instruction watchdog ends it."""
    return f"""
    .text
_start:                     # chaos-loop variant {variant}
loop:
    j loop
"""


def wild_jump_source(variant: int = 0) -> str:
    """Register-indirect jump to unmapped memory: a runtime fetch
    fault static vetting cannot see."""
    return f"""
    .text
_start:                     # chaos-wild-jump variant {variant}
    li t0, {0x4000_0000 + 16 * (variant % 7)}
    jr t0
"""


def decode_bomb_source(variant: int = 0) -> str:
    """Jump into the data section: garbage bytes reach the decoder."""
    return f"""
    .data
bomb:
    .dword 0xffffffffffffffff
    .dword {0xdeadbeefcafe0000 + (variant % 13)}
    .text
_start:                     # chaos-decode-bomb variant {variant}
    la t0, bomb
    jr t0
"""


def stack_smash_source(variant: int = 0) -> str:
    """Overwrite the saved return address, then return through it."""
    return f"""
    .text
_start:                     # chaos-stack-smash variant {variant}
    addi sp, sp, -16
    sd ra, 8(sp)
    li t0, {0x6660_0000 + 8 * (variant % 5)}
    sd t0, 8(sp)
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
"""


def wild_store_source(variant: int = 0) -> str:
    """Store through a small constant address: the ``mem-wild``
    checker rejects this at admission when vetting is on."""
    return f"""
    .text
_start:                     # chaos-wild-store variant {variant}
    li t0, {120 + 8 * (variant % 3)}
    sd zero, 0(t0)
    li a0, 0
    li a7, 93
    ecall
"""


def oversized_source(variant: int = 0) -> str:
    """Source text past the admission cap."""
    filler = f"# chaos-oversized variant {variant} " + "x" * 120 + "\n"
    body = filler * (MAX_SOURCE_BYTES // len(filler) + 2)
    return body + loop_source(variant)


# -- plan generation ---------------------------------------------------------


@dataclass
class PlannedJob:
    """One campaign entry: the spec plus what must happen to it."""

    kind: str
    spec: JobSpec
    expected_states: frozenset[JobState]
    faults: int                       # injected faults this job carries
    expect_retry: bool = False
    expect_downgrade: bool = False


#: (kind, weight) — the mixed main-batch distribution
_KIND_WEIGHTS: tuple[tuple[str, int], ...] = (
    ("clean-functional", 4),
    ("clean-timed", 2),
    ("poison-loop", 3),
    ("poison-wild-jump", 2),
    ("poison-decode-bomb", 2),
    ("poison-stack-smash", 2),
    ("poison-wild-store", 2),
    ("poison-oversized", 1),
    ("crash-once", 3),
    ("crash-always", 2),
    ("hang-once", 2),
    ("error-once", 2),
    ("fast-fault", 2),
    ("tier3-fault", 2),
    ("divergence", 2),
)


def _plan_job(kind: str, variant: int) -> PlannedJob:
    completed = frozenset({JobState.COMPLETED})
    if kind == "clean-functional":
        spec = JobSpec(source=clean_source(variant), core=None,
                       name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, completed, faults=0)
    if kind == "clean-timed":
        spec = JobSpec(source=clean_source(variant), core="xt910",
                       name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, completed, faults=0)
    if kind == "poison-loop":
        spec = JobSpec(source=loop_source(variant), core=None,
                       max_insts=20_000, name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.TIMEOUT}),
                          faults=1)
    if kind == "poison-wild-jump":
        spec = JobSpec(source=wild_jump_source(variant), core=None,
                       name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.FAILED}),
                          faults=1)
    if kind == "poison-decode-bomb":
        spec = JobSpec(source=decode_bomb_source(variant), core=None,
                       name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.FAILED}),
                          faults=1)
    if kind == "poison-stack-smash":
        spec = JobSpec(source=stack_smash_source(variant), core=None,
                       vet=False, name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.FAILED}),
                          faults=1)
    if kind == "poison-wild-store":
        spec = JobSpec(source=wild_store_source(variant), core=None,
                       vet=True, name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.REJECTED}),
                          faults=1)
    if kind == "poison-oversized":
        spec = JobSpec(source=oversized_source(variant), core=None,
                       name=f"{kind}-{variant}")
        return PlannedJob(kind, spec, frozenset({JobState.REJECTED}),
                          faults=1)
    if kind == "crash-once":
        spec = JobSpec(source=clean_source(variant), core=None,
                       name=f"{kind}-{variant}",
                       chaos={"crash_attempts": [1]})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_retry=True)
    if kind == "crash-always":
        spec = JobSpec(source=clean_source(variant), core=None,
                       name=f"{kind}-{variant}",
                       chaos={"crash_attempts": [1, 2, 3]})
        return PlannedJob(kind, spec, frozenset({JobState.FAILED}),
                          faults=3, expect_retry=True)
    if kind == "hang-once":
        spec = JobSpec(source=clean_source(variant), core=None,
                       name=f"{kind}-{variant}",
                       wall_timeout_s=HANG_WALL_TIMEOUT_S,
                       chaos={"hang_attempts": [1]})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_retry=True)
    if kind == "error-once":
        spec = JobSpec(source=clean_source(variant), core=None,
                       name=f"{kind}-{variant}",
                       chaos={"error_attempts": [1]})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_retry=True)
    if kind == "fast-fault":
        spec = JobSpec(source=clean_source(variant), core="xt910",
                       name=f"{kind}-{variant}",
                       chaos={"fast_fault": True})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_downgrade=True)
    if kind == "tier3-fault":
        # Only the specializing translator fails; the ladder must stop
        # one rung down, on the block-cache tier, and still complete.
        spec = JobSpec(source=clean_source(variant), core="xt910",
                       name=f"{kind}-{variant}",
                       chaos={"tier3_fault": True})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_downgrade=True)
    if kind == "divergence":
        spec = JobSpec(source=clean_source(variant), core="xt910",
                       name=f"{kind}-{variant}",
                       chaos={"divergence": True})
        return PlannedJob(kind, spec, completed, faults=1,
                          expect_downgrade=True)
    raise ValueError(f"unknown chaos job kind: {kind}")


def generate_plan(target_faults: int, seed: int) -> list[PlannedJob]:
    """Seeded mixed-batch plan carrying >= ``target_faults`` faults."""
    rng = Random(seed)
    kinds = [kind for kind, weight in _KIND_WEIGHTS for _ in range(weight)]
    plan: list[PlannedJob] = []
    faults = 0
    variant = 0
    while faults < target_faults:
        kind = rng.choice(kinds)
        job = _plan_job(kind, variant)
        plan.append(job)
        faults += job.faults
        variant += 1
    return plan


# -- campaign ----------------------------------------------------------------


@dataclass
class ChaosReport:
    """Audited outcome of one chaos campaign."""

    jobs: int = 0
    faults_injected: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    #: jobs whose terminal state was not the planned one
    unexpected: list[str] = field(default_factory=list)
    #: the gate: missing / non-terminal / unserializable / unclassified
    silent: list[str] = field(default_factory=list)
    service_counters: dict[str, Any] = field(default_factory=dict)

    def bump(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    @property
    def definitive(self) -> int:
        """Jobs that reached an audited definitive terminal state."""
        return self.jobs - len(self.silent)


def _audit(job: PlannedJob, result: JobResult | None,
           report: ChaosReport) -> None:
    """Classify one campaign result; silent findings are the gate."""
    label = job.spec.name
    if result is None:
        report.silent.append(f"{label}: no result returned")
        return
    if not result.terminal:
        report.silent.append(f"{label}: non-terminal state "
                             f"{result.state.value}")
        return
    # Definitive also means *reportable*: the result must survive JSON
    # and a failed job must carry a reconstructible error chain.
    try:
        payload = json.dumps(result.to_dict())
        JobResult.from_dict(json.loads(payload))
        if result.error is not None:
            error_from_dict(result.error).render()
    except Exception as exc:
        report.silent.append(f"{label}: unserializable result "
                             f"({type(exc).__name__}: {exc})")
        return
    if result.state is not JobState.COMPLETED and result.error is None:
        report.silent.append(f"{label}: {result.state.value} without a "
                             f"structured error")
        return
    if result.state not in job.expected_states:
        report.unexpected.append(
            f"{label}: expected "
            f"{sorted(s.value for s in job.expected_states)}, got "
            f"{result.state.value}")
    if result.state is JobState.COMPLETED:
        if result.cache_hit:
            report.bump("recovered-cache")
        elif result.downgraded:
            report.bump("recovered-fallback")
        elif result.attempts > 1:
            report.bump("recovered-retry")
        else:
            report.bump("completed-clean")
        if job.expect_downgrade and not result.downgraded \
                and not result.cache_hit:
            report.unexpected.append(f"{label}: planned fallback did "
                                     f"not engage")
        if job.expect_retry and result.attempts <= 1 \
                and not result.cache_hit:
            report.unexpected.append(f"{label}: planned retry did not "
                                     f"engage")
    else:
        report.bump(f"detected-{result.state.value}")


def run_chaos(target_faults: int = 100, seed: int = 2020,
              workers: int | None = None,
              toxic_submissions: int = 5,
              breaker_threshold: int = 3) -> ChaosReport:
    """Run one full campaign; every gate lives in the returned report."""
    report = ChaosReport()
    with JobService(
            workers=workers, seed=seed + 1,
            breaker_threshold=breaker_threshold,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.02,
                              backoff_cap_s=0.25, jitter=0.5)) as service:
        _campaign(service, report, generate_plan(target_faults, seed),
                  toxic_submissions, breaker_threshold)
        report.service_counters = service.counters()
    return report


def _campaign(service: JobService, report: ChaosReport,
              plan: list[PlannedJob], toxic_submissions: int,
              breaker_threshold: int) -> None:
    """The three arms of a campaign, on one long-lived service."""
    results = service.run([job.spec for job in plan])
    for job, result in zip(plan, results):
        report.bump(f"kind-{job.kind}")
        _audit(job, result, report)
    report.jobs += len(plan)
    report.faults_injected += sum(job.faults for job in plan)

    # Breaker arm: one toxic program (crashes every attempt) submitted
    # repeatedly in separate batches — the first ``threshold``
    # submissions fail through retries, the rest must short-circuit to
    # QUARANTINED without touching the pool.
    toxic = _plan_job("crash-always", variant=1_000_003)
    for round_no in range(toxic_submissions):
        expected = (frozenset({JobState.FAILED})
                    if round_no < breaker_threshold
                    else frozenset({JobState.QUARANTINED}))
        planned = PlannedJob("toxic-repeat", toxic.spec, expected,
                             faults=3 if round_no < breaker_threshold
                             else 0, expect_retry=True)
        result = service.submit(planned.spec)
        report.bump("kind-toxic-repeat")
        if result.state is JobState.QUARANTINED:
            planned = PlannedJob("toxic-repeat", toxic.spec, expected,
                                 faults=0)
        _audit(planned, result, report)
        report.jobs += 1
        report.faults_injected += planned.faults

    # Cache arm: resubmit a clean job twice — the second must be free.
    cached = _plan_job("clean-functional", variant=2_000_003)
    first = service.submit(cached.spec)
    second = service.submit(cached.spec)
    for result in (first, second):
        report.bump("kind-cache-repeat")
        _audit(cached, result, report)
        report.jobs += 1
    if not second.cache_hit:
        report.unexpected.append("cache-repeat: second submission "
                                 "missed the result cache")


# -- harness integration -----------------------------------------------------


def run_service(quick: bool = True,
                jobs: int | None = None) -> ExperimentResult:
    """Harness entry point: the chaos-campaign robustness experiment."""
    target = 100 if quick else 400
    campaign = run_chaos(target_faults=target, workers=jobs)
    result = ExperimentResult(
        experiment="service",
        title=f"chaos campaign, >= {target} injected faults on the "
              f"job service")
    result.add("jobs", None, campaign.jobs)
    result.add("faults injected", f">={target}", campaign.faults_injected)
    result.add("definitive terminal states", campaign.jobs,
               campaign.definitive)
    result.add("silent losses", 0, len(campaign.silent))
    result.add("unexpected outcomes", 0, len(campaign.unexpected))
    for outcome in sorted(campaign.outcomes):
        if not outcome.startswith("kind-"):
            result.add(outcome, None, campaign.outcomes[outcome])
    counters = campaign.service_counters
    for key in ("retries", "fallbacks", "worker_crashes", "wall_timeouts",
                "breaker_trips", "cache_hits"):
        result.add(f"service.{key}", None, counters.get(key, 0))
    result.notes.append(
        "recovered-* = the service absorbed an injected fault (retry / "
        "precise fallback / cache); detected-* = definitive classified "
        "failure; silent is the invariant and must be 0")
    result.raw = {
        "jobs": campaign.jobs,
        "faults": campaign.faults_injected,
        "silent": len(campaign.silent),
        "silent_detail": list(campaign.silent),
        "unexpected": len(campaign.unexpected),
        "unexpected_detail": list(campaign.unexpected),
        "outcomes": dict(campaign.outcomes),
        "ok": not campaign.silent and not campaign.unexpected
        and campaign.faults_injected >= target,
    }
    result.metric("jobs", campaign.jobs)
    result.metric("faults_injected", campaign.faults_injected)
    result.metric("silent", len(campaign.silent))
    result.metric("unexpected", len(campaign.unexpected))
    result.metric("definitive", campaign.definitive)
    for outcome, count in sorted(campaign.outcomes.items()):
        result.metric(f"outcomes.{outcome}", count)
    for key, value in sorted(counters.items()):
        if isinstance(value, (int, float)):
            result.metric(f"pool.{key}", value)
    return result


__all__ = [
    "ChaosReport",
    "PlannedJob",
    "generate_plan",
    "run_chaos",
    "run_service",
]
