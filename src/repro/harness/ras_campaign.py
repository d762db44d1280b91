"""RAS fault-injection campaign over the CoreMark kernels.

Sweeps N deterministic seeded bit flips across architectural registers,
the PC, cache data/tag arrays, and TLB entries while a CoreMark kernel
runs, and classifies every injection:

* ``corrected``          — SEC-DED repaired a single data bit,
* ``detected-parity``    — tag/TLB parity caught it; line purged and
                           refetched (transparent recovery),
* ``detected-mcheck``    — uncorrectable: banked in the mcerr CSRs and
                           delivered as a machine-check trap,
* ``detected-lockstep``  — the golden shadow emulator diffed state,
* ``detected-crash``     — a structured EmulatorError/WatchdogExpired
                           (e.g. a PC flip fetching garbage),
* ``masked``             — applied but provably harmless (checksum ok),
* ``vanished``           — never latched (empty array / line evicted
                           clean — discarded faults cannot corrupt),
* ``silent``             — checksum wrong and nothing flagged it: the
                           number this whole subsystem exists to drive
                           to zero.

A control arm runs the same architectural faults *without* the lockstep
checker to show what the unprotected emulator would have reported.
Everything is seeded: rerunning a campaign reproduces every fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.csr import MCERR_SOURCES
from ..isa.instructions import InstrClass
from ..mem.hierarchy import MemoryHierarchy
from ..ras.injector import (
    ARCH_TARGETS,
    ARRAY_TARGETS,
    FaultInjector,
    FaultRecord,
)
from ..ras.lockstep import LockstepChecker
from ..sim.emulator import Emulator, EmulatorError, MachineCheckError
from ..workloads import coremark_suite
from .parallel import run_cells
from .report import ExperimentResult

DETECTED = ("detected-parity", "detected-mcheck", "detected-lockstep",
            "detected-crash", "detected-exit")
SAFE = ("corrected", "masked", "vanished") + DETECTED

_WRITE_CLASSES = (InstrClass.STORE, InstrClass.VSTORE, InstrClass.AMO)


@dataclass
class Injection:
    """One seeded fault and its classified outcome."""

    seed: int
    target: str
    outcome: str
    detail: str = ""
    divergence_pc: int | None = None


@dataclass
class CampaignResult:
    """Aggregate of one injection sweep."""

    workload: str
    injections: list[Injection] = field(default_factory=list)
    control: list[Injection] = field(default_factory=list)
    unhandled: int = 0          # raw Python exceptions (must stay 0)

    def count(self, outcome: str, control: bool = False) -> int:
        pool = self.control if control else self.injections
        return sum(1 for i in pool if i.outcome == outcome)

    @property
    def total(self) -> int:
        return len(self.injections)

    @property
    def coverage(self) -> float:
        """Fraction of injections that were corrected or detected."""
        if not self.injections:
            return 1.0
        safe = sum(1 for i in self.injections if i.outcome in SAFE)
        return safe / len(self.injections)

    @property
    def silent(self) -> int:
        return self.count("silent")


def _golden(workload) -> tuple[int, int, int]:
    """(instret, checksum, result_addr) of a clean reference run."""
    program = workload.program()
    emulator = Emulator(program)
    emulator.run()
    addr = program.symbol(workload.result_symbol)
    return (emulator.state.instret,
            emulator.state.memory.load_int(addr, 8), addr)


def _checksum(emulator: Emulator, addr: int) -> int:
    return emulator.state.memory.load_int(addr, 8)


def _arch_injection(workload, seed: int, window: int, golden_sum: int,
                    result_addr: int, lockstep: bool) -> Injection:
    """One architectural (register/PC) fault, with or without lockstep."""
    program = workload.program()
    injector = FaultInjector(seed=seed)
    plan = injector.plan_random(1, window, targets=ARCH_TARGETS)[0]
    primary = Emulator(program, fault_injector=injector,
                       instruction_limit=window * 4 + 10_000)
    target = plan.target.value
    if lockstep:
        checker = LockstepChecker(program, primary=primary)
        result = checker.run()
        if result.divergence is not None:
            reason = result.divergence.reason
            outcome = ("detected-crash" if reason.startswith("primary-crash")
                       else "detected-lockstep")
            return Injection(seed, target, outcome, reason,
                             divergence_pc=result.divergence.pc)
        if primary.halted and _checksum(primary, result_addr) == golden_sum:
            return Injection(seed, target, "masked", "no state divergence")
        return Injection(seed, target, "silent", "lockstep missed it")
    # Control arm: no checker, only the program's own behaviour.
    try:
        code = primary.run()
    except EmulatorError as exc:
        return Injection(seed, target, "detected-crash", type(exc).__name__)
    if code != 0:
        return Injection(seed, target, "detected-exit", f"exit {code}")
    if _checksum(primary, result_addr) != golden_sum:
        return Injection(seed, target, "silent", "checksum mismatch")
    return Injection(seed, target, "masked", "clean exit, checksum ok")


def _array_injection(workload, seed: int, window: int, golden_sum: int,
                     result_addr: int,
                     double_bit_rate: float) -> Injection:
    """One cache/TLB array fault, driven through the memory hierarchy."""
    program = workload.program()
    injector = FaultInjector(seed=seed)
    plan = injector.plan_random(1, window, targets=ARRAY_TARGETS,
                                double_bit_rate=double_bit_rate)[0]
    hierarchy = MemoryHierarchy()
    emulator = Emulator(program, fault_injector=injector,
                        instruction_limit=window * 4 + 10_000)
    injector.attach_cache(hierarchy.l1d)
    injector.attach_cache(hierarchy.l1i)
    injector.attach_cache(hierarchy.l2)
    injector.attach_tlb(hierarchy.tlb)
    hierarchy.on_uncorrectable = (
        lambda addr, src: emulator.post_machine_check(
            addr, MCERR_SOURCES.get(src, 0)))
    hierarchy.on_corrected = (
        lambda addr, src: emulator.report_corrected(addr))
    target = plan.target.value
    mcheck: MachineCheckError | None = None
    try:
        for (dyn,) in emulator.trace():
            cycle = dyn.seq
            hierarchy.access_inst(dyn.pc, cycle)
            if dyn.mem_addr:
                hierarchy.access_data(
                    dyn.mem_addr, cycle,
                    is_write=dyn.inst.iclass in _WRITE_CLASSES,
                    size=dyn.mem_size or 8)
    except MachineCheckError as exc:
        mcheck = exc
    except EmulatorError as exc:
        return Injection(seed, target, "detected-crash", type(exc).__name__)
    hierarchy.scrub()           # resolve latent faults still resident
    summary = hierarchy.ras_summary()
    if mcheck is not None:
        return Injection(seed, target, "detected-mcheck",
                         f"machine check addr={mcheck.addr:#x}")
    if summary["ecc_uncorrectable"]:
        return Injection(seed, target, "detected-mcheck",
                         "uncorrectable found by scrub")
    if summary["parity_errors"]:
        return Injection(seed, target, "detected-parity",
                         f"{summary['parity_errors']} parity purges")
    if summary["ecc_corrected"]:
        return Injection(seed, target, "corrected",
                         f"{summary['ecc_corrected']} SEC-DED corrections")
    if emulator.halted and _checksum(emulator, result_addr) != golden_sum:
        return Injection(seed, target, "silent", "checksum mismatch")
    if injector.applied_count == 0:
        return Injection(seed, target, "vanished", "nothing resident")
    return Injection(seed, target, "vanished", "fault evicted clean")


def _campaign_cell(kind: str, workload_name: str, inj_seed: int,
                   window: int, golden_sum: int, result_addr: int,
                   double_bit_rate: float) -> Injection:
    """One seeded injection as a picklable parallel cell.

    Exceptions are contained here (not in the executor) because an
    unhandled raw exception is itself a campaign outcome to count.
    """
    workload = next(w for w in coremark_suite() if w.name == workload_name)
    try:
        if kind == "arch":
            return _arch_injection(workload, inj_seed, window, golden_sum,
                                   result_addr, lockstep=True)
        if kind == "array":
            return _array_injection(workload, inj_seed, window, golden_sum,
                                    result_addr, double_bit_rate)
        return _arch_injection(workload, inj_seed, window, golden_sum,
                               result_addr, lockstep=False)
    except Exception as exc:  # the campaign's own acceptance metric
        return Injection(inj_seed, "?", "unhandled",
                         f"{type(exc).__name__}: {exc}")


def run_campaign(n: int = 100, seed: int = 2020,
                 workload_name: str = "coremark-list",
                 double_bit_rate: float = 0.15,
                 control_n: int | None = None,
                 jobs: int | None = None) -> CampaignResult:
    """Sweep *n* seeded injections; returns the classified results.

    Each flip is an independent seeded run, so the sweep fans out over
    the shared :func:`repro.harness.parallel.run_cells` executor;
    ``jobs=None`` keeps the historical serial order bit-for-bit.
    """
    workload = next(w for w in coremark_suite() if w.name == workload_name)
    window, golden_sum, result_addr = _golden(workload)
    result = CampaignResult(workload=workload.name)
    # Alternate arch and array faults so both halves get even coverage.
    cells = [("arch" if i % 2 == 0 else "array", workload.name,
              seed * 1_000_003 + i, window, golden_sum, result_addr,
              double_bit_rate)
             for i in range(n)]
    # Control arm: the same architectural faults without the checker.
    control_n = control_n if control_n is not None else max(4, n // 10)
    cells += [("control", workload.name, seed * 1_000_003 + i * 2,
               window, golden_sum, result_addr, double_bit_rate)
              for i in range(control_n)]
    outcomes = run_cells(_campaign_cell, cells, jobs)
    result.injections = outcomes[:n]
    result.control = outcomes[n:]
    result.unhandled = sum(1 for inj in outcomes
                           if inj.outcome == "unhandled")
    return result


def run_ras(quick: bool = True, jobs: int | None = None) -> ExperimentResult:
    """Harness entry point: the RAS injection-coverage experiment."""
    n = 40 if quick else 120
    campaign = run_campaign(n=n, jobs=jobs)
    result = ExperimentResult(
        experiment="ras",
        title=f"fault-injection coverage, {n} seeded flips "
              f"on {campaign.workload}")
    result.add("injections", None, campaign.total)
    for outcome in ("corrected",) + DETECTED + ("masked", "vanished"):
        count = campaign.count(outcome)
        if count:
            result.add(outcome, None, count)
    result.add("silent corruption", 0, campaign.silent)
    result.add("unhandled exceptions", 0, campaign.unhandled)
    result.add("corrected-or-detected", ">=95%",
               f"{100 * campaign.coverage:.1f}%")
    control_silent = campaign.count("silent", control=True)
    result.add("control-arm silent (no lockstep)", None,
               f"{control_silent}/{len(campaign.control)}")
    result.notes.append(
        "control arm reruns the architectural faults without the golden "
        "checker: silent corruptions there are what lockstep eliminates")
    result.raw = {
        "coverage": campaign.coverage,
        "silent": campaign.silent,
        "unhandled": campaign.unhandled,
        "outcomes": {o: campaign.count(o) for o in SAFE + ("silent",)},
    }
    result.metric("injections", campaign.total)
    result.metric("coverage", campaign.coverage)
    result.metric("silent", campaign.silent)
    result.metric("unhandled", campaign.unhandled)
    for outcome in SAFE + ("silent",):
        result.metric(f"outcomes.{outcome}", campaign.count(outcome))
    result.metric("control.silent", control_silent)
    result.metric("control.total", len(campaign.control))
    return result
