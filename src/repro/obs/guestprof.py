"""Guest profiler: one pass of the timing loop, two views by PC.

:class:`GuestProfiler` is the second timing-model hook (``PipelineModel
.profiler``, None-guarded like the tracer).  ``repro top`` attributes
by completion progress: each instruction that advances the maximum
completion cycle is charged the delta, binned by its PC — the sum of
all bins equals the final completion clock, which is within a retire
skew of ``CoreStats.cycles``, so a whole run's cycles decompose over
the static code.  ``repro profile`` (the paper's CDS profiler, section
IX, Fig. 15/16) reads the loop's own dispatch and issue cycles beside
it: per-PC executions, issue stalls and load memory stalls.

Function roll-up reuses ``repro.analysis.cfg``'s function partitioning
(blocks → owning function entry).  Cumulative time is tracked with a
dynamic call stack driven by the model's control classes (calls push
the callee entry, returns pop and charge the call period), with a
recursion guard so self-recursive functions are not double-counted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..isa.classify import iter_parcels
from ..isa.disasm import disassemble

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..asm.program import Program
    from ..uarch.stats import CoreStats

# Control classes from repro.uarch.core (kept numeric: the hot loop
# passes TimingInfo.ctrl straight through).
_CTRL_JAL_CALL = 2
_CTRL_RETURN = 4
_CTRL_IND_CALL = 5


@dataclass(slots=True)
class FunctionRow:
    """One recovered function's share of the run."""

    name: str
    entry: int
    self_cycles: int
    cum_cycles: int
    hot_pc: int
    hot_cycles: int
    hot_line: str


@dataclass
class ProfileReport:
    """Function-level attribution of one profiled run."""

    total_cycles: int
    attributed_cycles: int
    rows: list[FunctionRow]
    #: pc -> cycles that landed outside every recovered function
    unattributed: dict[int, int]

    @property
    def coverage(self) -> float:
        """Fraction of cycles attributed to recovered functions."""
        if not self.total_cycles:
            return 1.0
        return self.attributed_cycles / self.total_cycles

    def render(self, top: int = 20, cumulative: bool = False) -> str:
        key = (lambda r: r.cum_cycles) if cumulative \
            else (lambda r: r.self_cycles)
        rows = sorted(self.rows, key=key, reverse=True)[:top]
        total = self.total_cycles or 1
        width = max((len(r.name) for r in rows), default=8) + 2
        mode = "cumulative" if cumulative else "flat"
        lines = [
            f"guest profile ({mode}): {self.total_cycles} cycles, "
            f"{self.coverage:.1%} attributed to "
            f"{len(self.rows)} function(s)",
            f"{'function':<{width}}{'self':>12}{'self%':>8}"
            f"{'cum':>12}{'cum%':>8}  hottest line",
        ]
        for row in rows:
            hot = f"{row.hot_pc:#x}"
            if row.hot_line:
                hot += f": {row.hot_line}"
            lines.append(
                f"{row.name:<{width}}{row.self_cycles:>12}"
                f"{row.self_cycles / total:>8.1%}"
                f"{row.cum_cycles:>12}{row.cum_cycles / total:>8.1%}"
                f"  {hot}")
        return "\n".join(lines)


@dataclass(slots=True)
class PcSample:
    """Aggregated behaviour of one static instruction (or, summed, of
    one symbol region)."""

    executions: int = 0
    issue_stall_cycles: int = 0   # issue - earliest-possible-issue
    mem_stall_cycles: int = 0     # completion beyond the best-case latency

    @property
    def total_stalls(self) -> int:
        return self.issue_stall_cycles + self.mem_stall_cycles


class GuestProfiler:
    """Per-PC cycle bins and stall samples, plus a dynamic call stack
    for cumulative time."""

    def __init__(self) -> None:
        self._bins: dict[int, int] = {}
        #: in order of first execution, which is how ties are reported
        self.samples: dict[int, PcSample] = {}
        self._clock = 0                 # monotonic max completion cycle
        self.recorded = 0
        self._stack: list[tuple[int, int]] = []  # (callee entry, clock)
        self._depth: dict[int, int] = {}         # recursion guard
        self._cum: dict[int, int] = {}

    def record(self, pc: int, complete: int, ctrl: int, target: int,
               dispatch: int, issue: int, mem_stall: int) -> None:
        """Hot-loop hook: charge completion progress and stalls to *pc*.

        ``mem_stall`` is a load's completion beyond its best-case
        latency (may be negative; 0 for everything that is not a load).
        """
        self.recorded += 1
        sample = self.samples.get(pc)
        if sample is None:
            sample = self.samples[pc] = PcSample()
        sample.executions += 1
        if issue > dispatch + 1:
            sample.issue_stall_cycles += issue - dispatch - 1
        if mem_stall > 0:
            sample.mem_stall_cycles += mem_stall
        clock = self._clock
        if complete > clock:
            bins = self._bins
            bins[pc] = bins.get(pc, 0) + (complete - clock)
            self._clock = complete
        if ctrl == _CTRL_JAL_CALL or ctrl == _CTRL_IND_CALL:
            self._stack.append((target, self._clock))
            self._depth[target] = self._depth.get(target, 0) + 1
        elif ctrl == _CTRL_RETURN and self._stack:
            entry, start = self._stack.pop()
            depth = self._depth.get(entry, 1) - 1
            self._depth[entry] = depth
            if depth == 0:
                self._cum[entry] = self._cum.get(entry, 0) \
                    + (self._clock - start)

    def bins(self) -> dict[int, int]:
        return dict(self._bins)

    def regions(self, program: "Program") -> dict[str, PcSample]:
        """The samples summed per text symbol (each runs to the next),
        in address order."""
        symbols = sorted(
            (addr, name) for name, addr in program.symbols.items()
            if program.text_base <= addr < program.text_end)
        starts = [addr for addr, _name in symbols]
        regions = {name: PcSample() for _addr, name in symbols}
        for pc, sample in self.samples.items():
            i = bisect.bisect_right(starts, pc) - 1
            if i >= 0 and pc < program.text_end:
                region = regions[symbols[i][1]]
                region.executions += sample.executions
                region.issue_stall_cycles += sample.issue_stall_cycles
                region.mem_stall_cycles += sample.mem_stall_cycles
        return regions

    def hotspots(self, program: "Program", stats: "CoreStats",
                 top: int = 10) -> str:
        """The ``repro profile`` report: the *top* instructions by
        attributed stall cycles, then every executed symbol region."""
        hottest = sorted(self.samples.items(),
                         key=lambda item: item[1].total_stalls,
                         reverse=True)[:top]
        wanted = dict(hottest)
        text = {addr: disassemble(inst, pc=addr)
                for addr, inst, _half in iter_parcels(program)
                if addr in wanted and inst is not None}
        lines = [
            f"cycles {stats.cycles}  instructions "
            f"{stats.instructions}  IPC {stats.ipc:.3f}",
            "",
            "hottest instructions (by attributed stall cycles):",
            f"{'pc':>10} {'execs':>8} {'stalls':>8}  instruction",
        ]
        for pc, sample in hottest:
            lines.append(f"{pc:#10x} {sample.executions:8d} "
                         f"{sample.total_stalls:8d}  {text.get(pc, '?')}")
        regions = self.regions(program)
        if regions:
            lines += ["", "by symbol region:"]
            for name, region in sorted(
                    regions.items(), key=lambda item: item[1].total_stalls,
                    reverse=True):
                if region.executions:
                    lines.append(
                        f"  {name:24s} execs={region.executions:8d} "
                        f"stalls={region.total_stalls:8d}")
        return "\n".join(lines)

    @property
    def total_cycles(self) -> int:
        return self._clock

    def attribute(self, program: "Program") -> ProfileReport:
        """Roll the PC bins up to ``analysis.cfg``'s functions."""
        from ..analysis.cfg import build_cfg

        cfg = build_cfg(program)
        starts = cfg.order
        ends = [cfg.blocks[s].end for s in starts]

        func_self: dict[int, int] = {}
        func_hot: dict[int, tuple[int, int]] = {}
        unattributed: dict[int, int] = {}
        attributed = 0
        for pc, cycles in self._bins.items():
            i = bisect.bisect_right(starts, pc) - 1
            entry = None
            if i >= 0 and pc < ends[i]:
                entry = cfg.block_func.get(starts[i])
            if entry is None or entry not in cfg.functions:
                unattributed[pc] = cycles
                continue
            attributed += cycles
            func_self[entry] = func_self.get(entry, 0) + cycles
            hot = func_hot.get(entry)
            if hot is None or cycles > hot[1]:
                func_hot[entry] = (pc, cycles)

        # Close out calls still on the stack at end of run (oldest
        # frame wins per function, matching the recursion guard).
        cum = dict(self._cum)
        open_seen: set[int] = set()
        for entry, start in self._stack:
            if entry not in open_seen:
                cum[entry] = cum.get(entry, 0) + (self._clock - start)
                open_seen.add(entry)

        rows: list[FunctionRow] = []
        for entry, self_cycles in func_self.items():
            func = cfg.functions[entry]
            # A function's span covers at least its own cycles; the
            # program's root function was never called, so its span is
            # the whole run.
            cum_cycles = max(cum.get(entry, 0), self_cycles)
            if entry == cfg.entry:
                cum_cycles = self._clock
            hot_pc, hot_cycles = func_hot[entry]
            rows.append(FunctionRow(
                name=func.name, entry=entry, self_cycles=self_cycles,
                cum_cycles=cum_cycles, hot_pc=hot_pc,
                hot_cycles=hot_cycles,
                hot_line=program.source_line(hot_pc)))
        rows.sort(key=lambda r: r.self_cycles, reverse=True)
        return ProfileReport(
            total_cycles=self._clock, attributed_cycles=attributed,
            rows=rows, unattributed=unattributed)
