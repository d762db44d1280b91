"""The measuring loop and the metric arithmetic.

One run = set-up (a cold pass that fills the tier-3 code cache, then a
warm-up round), then closed-loop rounds for ``--seconds`` seconds.  A
round executes every op of the workload once, in an order the seed
shuffles, with one :func:`calibrate.calibrate` call before each op and
one after the last; an op's latency is scaled by the calls nearest it.  Every op's result is read and its digest compared
with ``expected.json``; a raise, a non-COMPLETED job or a differing
digest is a failed op.

With ``--trace 1`` every other round runs under :func:`spans.tracing`;
the untraced rounds of the same run give the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import random
import resource
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any

from calibrate import calibrate, op_scales
from digests import digest
from ops import Env, Op, OpFailed, Outcome, Workload
from repro.sim.emulator import Emulator
from spans import Tracer, tracing

#: name -> unit; BENCHMARK.json repeats these (bench/test_bench.py
#: checks the two agree).
END_TO_END_UNITS = {
    "sim_kips_norm": "kinst/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "asm.assemble_s": "s", "asm.calls": "count",
    "analysis.lint_s": "s", "analysis.calls": "count",
    "sim.emulate_s": "s", "sim.construct_s": "s", "sim.insts": "count",
    "sim.kips": "kinst/s", "sim.codegen_compiled": "count",
    "sim.codegen_disk_hits": "count", "sim.vector_batched_ops": "count",
    "sim.vector_fallback_ops": "count",
    "uarch.run_s": "s", "uarch.build_s": "s", "uarch.kips": "kinst/s",
    "uarch.cycles": "count", "uarch.ipc": "inst/cycle",
    "uarch.paper_ratio_err_pct": "%",
    "mem.slow_s": "s", "mem.data_calls": "count", "mem.inst_calls": "count",
    "mem.calls_per_kinst": "1/kinst", "mem.l1d_misses": "count",
    "mem.l2_misses": "count", "mem.prefetch_issued": "count",
    "smp.run_s": "s", "smp.kips": "kinst/s",
    "smp.makespan_cycles": "count", "smp.coherence_msgs": "count",
    "service.execute_s": "s", "service.overhead_s": "s",
    "service.overhead_ms_p50": "ms", "service.cache_hit_ms": "ms",
    "service.workers_launched": "count", "service.retries": "count",
    "explore.self_s": "s", "explore.cold_cell_ms_p50": "ms",
    "explore.store_hit_ms_p50": "ms", "explore.simulated": "count",
    "explore.cache_hits": "count",
    "host.sim_kips_raw": "kinst/s", "host.calib_ms_p50": "ms",
    "host.calib_spread": "ratio", "host.traced_op_s": "s",
    "host.unattributed_pct": "%", "host.trace_overhead_pct": "%",
}

#: layers whose self times partition a traced op's wall time
SELF_TIME_LAYERS = (
    "asm.assemble_s", "analysis.lint_s", "sim.emulate_s",
    "sim.construct_s", "uarch.run_s", "uarch.build_s", "mem.slow_s",
    "smp.run_s", "service.execute_s", "service.overhead_s",
    "explore.self_s", "host.unattributed_s",
)


@dataclass
class Sample:
    """One execution of one op."""

    op: Op
    seconds: float                     # raw wall time of Op.run
    outcome: Outcome | None
    error: str | None
    record: dict[str, Any] | None      # the tracer's per-op record
    #: from calibrate.op_scales: nominal over nearby calibration time
    scale: float = 1.0


@dataclass
class Round:
    index: int
    traced: bool
    samples: list[Sample]
    #: one calibration before each op and one after the last
    calibration_s: list[float]
    service_counters: dict[str, Any] = field(default_factory=dict)

    def measured(self) -> list[Sample]:
        return [s for s in self.samples if s.op.measured]


def op_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """Shuffle within each phase; phases stay in order."""
    ordered: list[Op] = []
    for phase in sorted({op.phase for op in ops}):
        group = [op for op in ops if op.phase == phase]
        rng.shuffle(group)
        ordered += group
    return ordered


def run_op(op: Op, env: Env, expected: dict[str, dict]) -> Sample:
    """Execute, time, read and check one op.  Never raises for the op."""
    tracer: Tracer | None = env.tracer
    if tracer is not None:
        tracer.begin_op()
    raw = None
    error = None
    start = perf_counter()
    try:
        if tracer is not None:
            with tracer.span(op.root_layer):
                raw = op.run(env)
        else:
            raw = op.run(env)
    except Exception as exc:  # the op boundary: a raise is a failed op
        error = f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    outcome = None
    if error is None:
        try:
            outcome = op.read(raw)
        except OpFailed as exc:
            error = str(exc)
    if outcome is not None \
            and digest(outcome.payload) != expected[op.name]["digest"]:
        error = "result digest differs from expected.json"
    record = None
    if tracer is not None:
        if error is None and op.trace_extra is not None:
            op.trace_extra(env)
        record = tracer.end_op(op.name, env.round_index, start, end)
    return Sample(op, end - start, outcome, error, record)


def run_round(workload: Workload, expected: dict[str, dict], env: Env,
              rng: random.Random, index: int,
              tracer: Tracer | None = None) -> Round:
    """One pass over every op of *workload*."""
    env.round_index = index
    env.tracer = tracer
    gc.collect()    # a round starts from the same collector state
    if workload.begin_round is not None:
        workload.begin_round(env)
    samples = []
    calibration = []
    for op in op_order(workload.ops, rng):
        calibration.append(calibrate())
        samples.append(run_op(op, env, expected))
    calibration.append(calibrate())
    for sample, scale in zip(samples, op_scales(calibration)):
        sample.scale = scale
    counters = env.service.counters() if env.service is not None else {}
    return Round(index, tracer is not None, samples, calibration, counters)


def run_traced_round(workload: Workload, expected: dict[str, dict],
                     env: Env, rng: random.Random, index: int,
                     tracer: Tracer) -> Round:
    with tracing(tracer) as emulator_class:
        env.emulator_class = emulator_class
        try:
            return run_round(workload, expected, env, rng, index, tracer)
        finally:
            env.emulator_class = Emulator


# -- arithmetic --------------------------------------------------------------
#
# Host noise on the shared box is bursty and one-sided, so every time
# metric starts from the same robust reduction: each distinct op's
# median calibrated latency over the rounds.  A burst has to hit the
# same op in half the rounds to move it.


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def op_medians(rounds: list[Round], calibrated: bool = True
               ) -> dict[str, float]:
    """Median latency (seconds) of every measured op over *rounds*."""
    latencies: dict[str, list[float]] = {}
    for rnd in rounds:
        for sample in rnd.measured():
            latencies.setdefault(sample.op.name, []).append(
                sample.seconds * (sample.scale if calibrated else 1.0))
    return {name: median(values) for name, values in latencies.items()}


def round_insts(rnd: Round) -> int:
    """Simulated instructions of one round's measured ops."""
    return sum(s.outcome.insts for s in rnd.measured()
               if s.outcome is not None)


def kips(rounds: list[Round], calibrated: bool = True) -> float:
    """Simulated kilo-instructions of a round per second of op time."""
    seconds = sum(op_medians(rounds, calibrated).values())
    return round_insts(rounds[0]) / seconds / 1e3


def peak_rss_mb() -> float:
    """Max resident set of this process or any waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    """The five end-to-end metrics of one untraced run."""
    medians_ms = [seconds * 1e3 for seconds in op_medians(rounds).values()]
    return {
        "sim_kips_norm": kips(rounds),
        "op_p50_ms": median(medians_ms),
        "op_p90_ms": percentile(medians_ms, 90.0),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def _layer_sums(rnd: Round, key: str, calibrated: bool = False
                ) -> dict[str, float]:
    """Sum one field of the tracer records over a round's measured ops."""
    totals: dict[str, float] = {}
    for sample in rnd.measured():
        if sample.record is None:
            continue
        scale = sample.scale if calibrated else 1.0
        for name, value in sample.record[key].items():
            totals[name] = totals.get(name, 0.0) + value * scale
    return totals


def _kind_latencies_ms(rounds: list[Round], kind: str,
                       measured: bool) -> list[float]:
    return [s.seconds * s.scale * 1e3 for rnd in rounds
            for s in rnd.samples
            if s.op.kind == kind and s.op.measured == measured]


def _median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


def per_layer(rounds: list[Round], paper_ratio_err_pct: float
              ) -> dict[str, float]:
    """Every per-layer metric from one ``--trace 1`` run.

    Times are calibrated seconds per round (median over the traced
    rounds); counts are per round and repeat exactly.
    """
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced] or traced
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    sums = [_layer_sums(rnd, "self_s", calibrated=True) for rnd in traced]
    self_s = {layer: median(s.get(layer, 0.0) for s in sums)
              for layer in SELF_TIME_LAYERS}
    for layer in SELF_TIME_LAYERS:
        if layer in metrics:
            metrics[layer] = self_s[layer]
    calls = _layer_sums(traced[0], "calls")
    counts = _layer_sums(traced[0], "counts")
    metrics["asm.calls"] = calls.get("asm.assemble_s", 0)
    metrics["analysis.calls"] = calls.get("analysis.lint_s", 0)
    for name in ("sim.codegen_compiled", "sim.codegen_disk_hits",
                 "sim.vector_batched_ops", "sim.vector_fallback_ops",
                 "mem.data_calls", "mem.inst_calls", "mem.l1d_misses",
                 "mem.l2_misses", "mem.prefetch_issued"):
        metrics[name] = counts.get(name, 0)

    outcomes = [s.outcome for s in traced[0].measured()
                if s.outcome is not None]
    insts = sum(o.insts for o in outcomes)
    timed_insts = sum(o.insts for o in outcomes if o.cycles)
    cycles = sum(o.cycles for o in outcomes)
    metrics["sim.insts"] = insts
    if self_s["sim.emulate_s"]:
        metrics["sim.kips"] = insts / self_s["sim.emulate_s"] / 1e3
    if self_s["uarch.run_s"]:
        metrics["uarch.kips"] = timed_insts / self_s["uarch.run_s"] / 1e3
    metrics["uarch.cycles"] = cycles
    metrics["uarch.ipc"] = timed_insts / cycles if cycles else 0.0
    metrics["uarch.paper_ratio_err_pct"] = paper_ratio_err_pct
    if insts:
        metrics["mem.calls_per_kinst"] = (
            (metrics["mem.data_calls"] + metrics["mem.inst_calls"])
            / (insts / 1e3))
    if self_s["smp.run_s"]:
        metrics["smp.kips"] = insts / self_s["smp.run_s"] / 1e3
    metrics["smp.makespan_cycles"] = sum(
        o.extra.get("makespan", 0) for o in outcomes)
    metrics["smp.coherence_msgs"] = sum(
        o.extra.get("coherence_msgs", 0) for o in outcomes)

    metrics["service.overhead_ms_p50"] = _median_or_zero([
        s.record["self_s"]["service.overhead_s"] * s.scale * 1e3
        for rnd in traced for s in rnd.measured()
        if s.record is not None
        and "service.overhead_s" in s.record["self_s"]])
    metrics["service.cache_hit_ms"] = _median_or_zero(
        _kind_latencies_ms(plain, "job", measured=False))
    metrics["service.workers_launched"] = plain[0].service_counters.get(
        "workers_launched", 0)
    metrics["service.retries"] = plain[0].service_counters.get("retries", 0)
    metrics["explore.cold_cell_ms_p50"] = _median_or_zero(
        _kind_latencies_ms(plain, "cell", measured=True))
    metrics["explore.store_hit_ms_p50"] = _median_or_zero(
        _kind_latencies_ms(plain, "cell", measured=False))
    every = [s.outcome for s in plain[0].samples if s.outcome is not None]
    metrics["explore.simulated"] = sum(
        o.extra.get("simulated", 0) for o in every)
    metrics["explore.cache_hits"] = sum(
        o.extra.get("cache_hits", 0) for o in every)

    calibration_ms = [c * 1e3 for rnd in rounds for c in rnd.calibration_s]
    metrics["host.sim_kips_raw"] = kips(plain, calibrated=False)
    metrics["host.calib_ms_p50"] = median(calibration_ms)
    metrics["host.calib_spread"] = (percentile(calibration_ms, 90.0)
                                    / percentile(calibration_ms, 10.0))
    traced_op_s = median(sum(s.seconds * s.scale for s in rnd.measured())
                         for rnd in traced)
    metrics["host.traced_op_s"] = traced_op_s
    metrics["host.unattributed_pct"] = (
        100.0 * self_s["host.unattributed_s"] / traced_op_s)
    metrics["host.trace_overhead_pct"] = (
        100.0 * (kips(plain) / kips(traced) - 1.0))
    return metrics
