"""The five workloads: what one *op* is and how its result is read.

An op is one simulation request through the workload's entry point.
``Op.run`` is the timed call and nothing else; ``Op.read`` turns what
it returned into the simulated counts and the payload that is digested
and compared with ``expected.json`` — outside the timed region.

Why these five (the layer each one loads is measured in README.md):

``timed-scalar``
    ``run_on_core(program, "xt910", tier=3)`` over the 21 cache-resident
    scalar programs.  The timing model is ~82 % of host time here, so
    this is where columnar-trace / batched-L1-hit work must show.
``timed-memory``
    The same entry point over cold streaming kernels and a pointer
    chase: ~32 hierarchy slow-path calls per kilo-instruction against
    ~0.5.  A hierarchy / prefetch / TLB optimisation shows here and
    predicts no change on ``timed-scalar``; an L1-hit batching pass the
    reverse.
``functional-mix``
    ``Emulator(program).run(tier=3)`` only, on scaled-up scalar programs
    and the nine vector kernels.  The timing model and hierarchy are not
    on the path: the bypass workload for every timing-model change.
``smp-cluster``
    ``run_smp_timing`` on 1, 2 and 4 harts — the only consumer of
    tier-1 ``step()``, staged ``PipelineModel.feed()`` and the
    write-invalidate hierarchy.
``job-path``
    The "program + uarch document in, CoreStats out" path by both of its
    routes: isolated ``JobService.submit`` and ``run_sweep`` cells, on
    tiny programs where assemble, lint, config build, fork and
    serialise are over a third of an op.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.asm import assemble
from repro.harness.explore import ExploreStore, SweepAxis, SweepSpec, run_sweep
from repro.harness.report import geomean
from repro.harness.runner import run_on_core
from repro.service import JobService
from repro.service.job import JobSpec, JobState
from repro.service.worker import execute_job
from repro.sim.emulator import Emulator
from repro.smp.timing import run_smp_timing
from repro.workloads import (
    blockchain_kernel,
    coremark_suite,
    dhrystone,
    eembc_suite,
    nbench_suite,
    scalar_mac16,
    specint_workload,
    stream_kernel,
    stream_suite,
    strlen_base,
    strlen_xt,
    vec_axpy_f32,
    vec_axpy_f64,
    vec_fp16_axpy,
    vec_gather,
    vec_mac16,
    vec_memcpy,
    vec_stencil32,
    vec_strcmp,
    vector_suite,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CORE = "xt910"

#: The one swept value of the ``job-path`` cells.  It differs from the
#: preset's 200 so a cell is never the same point as a job; it is fixed,
#: not drawn from the seed, because simulated counts must repeat exactly
#: for any seed.
SWEEP_DRAM_LATENCY = 240

#: Paper figures the accuracy metric is stated against.
PAPER_XT910_OVER_U74 = 1.40        # Fig. 17, CoreMark/MHz 7.1 vs 5.1
PAPER_XT910_OVER_A73 = 6.11 / 6.75  # section X, SPECInt/GHz


class OpFailed(Exception):
    """The op returned, but not with a usable result."""


@dataclass
class Outcome:
    """The simulated side of one op: what is digested and counted."""

    payload: Any
    insts: int
    cycles: int = 0
    extra: dict[str, int] = field(default_factory=dict)


@dataclass
class Env:
    """Per-round state the ops run against."""

    tmpdir: str
    round_index: int = 0
    tracer: Any = None                 # spans.Tracer in a traced round
    emulator_class: type = Emulator    # the traced subclass when tracing
    service: JobService | None = None
    store: ExploreStore | None = None


@dataclass
class Op:
    name: str
    kind: str                          # timed|functional|smp|job|cell
    run: Callable[[Env], Any]
    read: Callable[[Any], Outcome]
    #: bundled program this op repeats on the stock xt910, if any
    golden: str | None = None
    #: ops of a later phase run after every op of an earlier one
    phase: int = 0
    #: False for the cache-hit repeats: checked, but not an end-to-end op
    measured: bool = True
    #: layer charged with the op span's own (non-child) time when traced
    root_layer: str = "host.unattributed_s"
    #: extra traced work after the op (``job-path`` inline execution)
    trace_extra: Callable[[Env], None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    begin_round: Callable[[Env], None] | None = None
    #: what the accuracy metric is stated against, or None where the
    #: paper gives no ratio for this kind of program
    paper: "PaperRatio | None" = None


@dataclass
class PaperRatio:
    """XT-910 over a reference core on some of the workload's ops."""

    expected: float
    reference_core: str
    programs: dict[str, Any]           # op name -> assembled program

    def error_pct(self, xt910_ipc: dict[str, float]) -> float:
        """Signed error of the modelled ratio against the paper's."""
        modelled = geomean([
            xt910_ipc[name]
            / run_on_core(program, self.reference_core, tier=3).ipc
            for name, program in self.programs.items()])
        return 100.0 * (modelled / self.expected - 1.0)


# -- op constructors ---------------------------------------------------------


def _timed_op(name: str, program: Any, golden: str | None = None) -> Op:
    def run(env: Env) -> Any:
        return run_on_core(program, CORE, tier=3)

    def read(result: Any) -> Outcome:
        stats = result.stats
        return Outcome(stats.as_comparable(), stats.instructions,
                       stats.cycles)

    return Op(name, "timed", run, read, golden=golden)


def _functional_op(workload: Any) -> Op:
    program = workload.program()
    result_addr = program.symbol(workload.result_symbol)

    def run(env: Env) -> Any:
        emulator = env.emulator_class(program)
        emulator.run(tier=3)
        return emulator

    def read(emulator: Any) -> Outcome:
        if emulator.exit_code != 0:
            raise OpFailed(f"guest exited with {emulator.exit_code}")
        payload = {
            "instret": emulator.state.instret,
            "exit_code": emulator.exit_code,
            "checksum": emulator.state.memory.load_int(result_addr, 8),
        }
        return Outcome(payload, emulator.state.instret)

    return Op(workload.name, "functional", run, read)


def _smp_op(guest: str, program: Any, cores: int) -> Op:
    def run(env: Env) -> Any:
        return run_smp_timing(program, cores=cores)

    def read(result: Any) -> Outcome:
        if any(code != 0 for code in result.exit_codes):
            raise OpFailed(f"hart exit codes {result.exit_codes}")
        payload = {
            "per_core": [stats.as_comparable() for stats in result.per_core],
            "coherence": result.coherence.counters(),
            "exit_codes": result.exit_codes,
        }
        return Outcome(payload, result.total_instructions,
                       extra={"makespan": result.makespan,
                              "coherence_msgs":
                              result.coherence.sharing_invalidations})

    return Op(f"{guest}-x{cores}", "smp", run, read, root_layer="smp.run_s")


def _job_ops(workload: Any) -> list[Op]:
    spec = JobSpec(source=workload.source, name=workload.name, core=CORE,
                   compress=workload.compress)

    def run(env: Env) -> Any:
        assert env.service is not None
        return env.service.submit(spec)

    def read_with(cache_hit: bool) -> Callable[[Any], Outcome]:
        def read(result: Any) -> Outcome:
            if result.state is not JobState.COMPLETED:
                raise OpFailed(f"job ended {result.state.value}: "
                               f"{(result.error or {}).get('message')}")
            if result.cache_hit != cache_hit or result.downgraded:
                raise OpFailed(f"job cache_hit={result.cache_hit} "
                               f"downgraded={result.downgraded}")
            metrics = result.metrics
            return Outcome(metrics["stats"], metrics["instructions"],
                           metrics["cycles"])
        return read

    def inline(env: Env) -> None:
        # The same job in this process, where the layer spans can see
        # it: isolated latency minus this is fork + pipe + serialise +
        # supervise.
        tracer = env.tracer
        before = sum(tracer.self_s.values())
        with tracer.span("service.execute_s"):
            execute_job({"spec": spec.to_dict(), "attempt": 1})
        inline_s = sum(tracer.self_s.values()) - before
        tracer.self_s["service.overhead_s"] -= inline_s

    cold = Op(f"job:{workload.name}", "job", run, read_with(False),
              golden=workload.name, root_layer="service.overhead_s",
              trace_extra=inline)
    hit = Op(f"job-hit:{workload.name}", "job", run, read_with(True),
             golden=workload.name, phase=1, measured=False,
             root_layer="service.overhead_s")
    return [cold, hit]


def _cell_ops(workload: Any) -> list[Op]:
    spec = SweepSpec(
        base=CORE, workloads=[workload.name], tier=3,
        axes=[SweepAxis.single("mem.dram.latency", [SWEEP_DRAM_LATENCY])],
        name=f"cell-{workload.name}")

    def run(env: Env) -> Any:
        return run_sweep(spec, jobs=1, store=env.store)

    def read_with(cached: bool) -> Callable[[Any], Outcome]:
        def read(report: Any) -> Outcome:
            (cell,) = report.results
            record = cell.record
            if cell.cached != cached:
                raise OpFailed(f"cell cached={cell.cached}")
            if record["exit_code"] != 0 or record["watchdog_expired"]:
                raise OpFailed(f"cell exit {record['exit_code']}, "
                               f"watchdog {record['watchdog_expired']}")
            return Outcome(record["stats"], record["instructions"],
                           record["cycles"],
                           extra={"simulated": report.simulated,
                                  "cache_hits": report.cache_hits})
        return read

    cold = Op(f"cell:{workload.name}", "cell", run, read_with(False),
              root_layer="explore.self_s")
    hit = Op(f"cell-hit:{workload.name}", "cell", run, read_with(True),
             phase=1, measured=False, root_layer="explore.self_s")
    return [cold, hit]


# -- the workloads -----------------------------------------------------------


def timed_scalar() -> Workload:
    suite = (coremark_suite() + eembc_suite() + nbench_suite()
             + [dhrystone()])
    ops = [_timed_op(w.name, w.program(), golden=w.name) for w in suite]
    coremark = {w.name: w.program() for w in coremark_suite()}
    return Workload("timed-scalar", ops,
                    paper=PaperRatio(PAPER_XT910_OVER_U74, "u74", coremark))


def timed_memory() -> Workload:
    ops = []
    for elems in (512, 1024, 2048):
        for workload in stream_suite(elems=elems):
            # elems=2048 is the bundled size: those four are golden.
            ops.append(_timed_op(
                f"{workload.name}@{elems}", workload.program(),
                golden=workload.name if elems == 2048 else None))
    # The bundled specint-like is 1.5 s an op, mostly initialising its
    # 256 KiB chase region; this is the same kernel with half the nodes
    # (128 KiB, still twice the L1D) and a quarter of the scan.
    specint = specint_workload(chase_nodes=2048, scan_elems=2048,
                               chase_steps=2000, scan_passes=1,
                               hash_ops=1000)
    ops.append(_timed_op("specint-like@small", specint.program()))
    return Workload("timed-memory", ops, paper=PaperRatio(
        PAPER_XT910_OVER_A73, "cortex-a73",
        {"specint-like@small": specint.program()}))


def functional_programs() -> list[Any]:
    """Scaled-up bundled kernels, each >= 0.1 s of tier-3 emulation."""
    return [
        dhrystone(iterations=2600),
        stream_kernel("triad", elems=2048, passes=36),
        blockchain_kernel(xt=True, blocks=380),
        scalar_mac16(n=512, unroll_passes=140),
        vec_mac16(n=512, unroll_passes=140),
        vec_fp16_axpy(n=192, passes=1500),
        vec_axpy_f32(n=128, passes=1350),
        vec_axpy_f64(n=128, passes=750),
        vec_stencil32(n=128, passes=1200),
        vec_gather(n=128, passes=600),
        vec_memcpy(n=250, passes=3000),
        vec_strcmp(n=192, passes=1950),
    ]


def functional_mix() -> Workload:
    return Workload("functional-mix",
                    [_functional_op(w) for w in functional_programs()])


def smp_cluster() -> Workload:
    ops = []
    for guest in ("private", "false_sharing", "lrsc_counter"):
        with open(os.path.join(HERE, "guests", f"{guest}.s")) as handle:
            program = assemble(handle.read(), compress=True)
        for cores in (1, 2, 4):
            ops.append(_smp_op(guest, program, cores))
    return Workload("smp-cluster", ops)


def job_programs() -> list[Any]:
    """The 13 tiny bundled programs no other workload runs."""
    return (vector_suite()
            + [blockchain_kernel(xt=False, blocks=4),
               blockchain_kernel(xt=True, blocks=4),
               strlen_base(), strlen_xt()])


def job_path() -> Workload:
    ops: list[Op] = []
    for workload in job_programs():
        ops += _job_ops(workload)
        ops += _cell_ops(workload)

    def begin_round(env: Env) -> None:
        # Fresh result cache and fresh store: every phase-0 op is cold.
        env.service = JobService(workers=1, isolation=True)
        env.store = ExploreStore(
            os.path.join(env.tmpdir, f"store-{env.round_index}"))

    return Workload("job-path", ops, begin_round=begin_round)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "timed-scalar": timed_scalar,
    "timed-memory": timed_memory,
    "functional-mix": functional_mix,
    "smp-cluster": smp_cluster,
    "job-path": job_path,
}
