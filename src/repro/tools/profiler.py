"""Per-PC cycle profiler (the paper's CDS profiling tool, Fig. 15/16).

The CDS IDE ships a graphical profiler over the instruction-accurate
simulator; this is its textual equivalent over our cycle model.  It
attributes retired instructions and *approximate* stall cycles to
static PCs, aggregates them into source regions (symbols), and renders
a hot-spot report annotated with disassembly.

Usage::

    profile = Profiler(config).run(program)
    print(profile.report(top=10))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import Program
from ..isa.disasm import disassemble
from ..sim.emulator import Emulator
from ..uarch.config import CoreConfig
from ..uarch.presets import get_preset
from ..uarch.refmodel import ReferencePipelineModel
from ..uarch.stats import CoreStats


@dataclass
class PcSample:
    """Aggregated behaviour of one static instruction."""

    pc: int
    text: str = ""
    executions: int = 0
    issue_stall_cycles: int = 0   # issue - earliest-possible-issue
    mem_stall_cycles: int = 0     # completion beyond the best-case latency
    mispredicts: int = 0

    @property
    def total_stalls(self) -> int:
        return self.issue_stall_cycles + self.mem_stall_cycles


@dataclass
class SymbolRegion:
    name: str
    start: int
    end: int
    executions: int = 0
    stalls: int = 0


@dataclass
class Profile:
    """The result of one profiling run."""

    stats: CoreStats
    samples: dict[int, PcSample] = field(default_factory=dict)
    regions: list[SymbolRegion] = field(default_factory=list)

    def hottest(self, count: int = 10) -> list[PcSample]:
        return sorted(self.samples.values(),
                      key=lambda s: s.total_stalls, reverse=True)[:count]

    def most_executed(self, count: int = 10) -> list[PcSample]:
        return sorted(self.samples.values(),
                      key=lambda s: s.executions, reverse=True)[:count]

    def report(self, top: int = 10) -> str:
        lines = [
            f"cycles {self.stats.cycles}  instructions "
            f"{self.stats.instructions}  IPC {self.stats.ipc:.3f}",
            "",
            "hottest instructions (by attributed stall cycles):",
            f"{'pc':>10} {'execs':>8} {'stalls':>8}  instruction",
        ]
        for sample in self.hottest(top):
            lines.append(
                f"{sample.pc:#10x} {sample.executions:8d} "
                f"{sample.total_stalls:8d}  {sample.text}")
        if self.regions:
            lines.append("")
            lines.append("by symbol region:")
            for region in sorted(self.regions, key=lambda r: r.stalls,
                                 reverse=True):
                if not region.executions:
                    continue
                lines.append(
                    f"  {region.name:24s} execs={region.executions:8d} "
                    f"stalls={region.stalls:8d}")
        return "\n".join(lines)


class Profiler:
    """Steps the reference pipeline model stage by stage (the stream
    loop has no per-stage seam) and attributes the gaps to PCs."""

    def __init__(self, config: CoreConfig | str = "xt910"):
        self.config = get_preset(config) if isinstance(config, str) \
            else config

    def run(self, program: Program,
            max_steps: int | None = None) -> Profile:
        emulator = Emulator(program)
        pipeline = ReferencePipelineModel(self.config)
        samples: dict[int, PcSample] = {}
        load_best = self.config.lsu.load_to_use + 1

        for dyn in emulator.trace(max_steps):
            pipeline.stats.instructions += 1
            fetch = pipeline._frontend(dyn)
            dispatch = pipeline._dispatch(dyn, fetch)
            issue, complete = pipeline._execute(dyn, dispatch)
            pipeline._retire(dyn, dispatch, complete)
            before = pipeline.stats.direction_mispredicts \
                + pipeline.stats.ras_mispredicts \
                + pipeline.stats.indirect_mispredicts
            pipeline._resolve_control(dyn, fetch, complete)
            after = pipeline.stats.direction_mispredicts \
                + pipeline.stats.ras_mispredicts \
                + pipeline.stats.indirect_mispredicts

            sample = samples.get(dyn.pc)
            if sample is None:
                sample = PcSample(pc=dyn.pc,
                                  text=disassemble(dyn.inst, pc=dyn.pc))
                samples[dyn.pc] = sample
            sample.executions += 1
            sample.issue_stall_cycles += max(0, issue - (dispatch + 1))
            if dyn.is_load:
                sample.mem_stall_cycles += max(
                    0, (complete - issue) - load_best)
            sample.mispredicts += after - before
        pipeline._drain()

        profile = Profile(stats=pipeline.stats, samples=samples)
        profile.regions = self._regions(program, samples)
        return profile

    @staticmethod
    def _regions(program: Program,
                 samples: dict[int, PcSample]) -> list[SymbolRegion]:
        text_symbols = sorted(
            (addr, name) for name, addr in program.symbols.items()
            if program.text_base <= addr < program.text_end)
        regions: list[SymbolRegion] = []
        for index, (addr, name) in enumerate(text_symbols):
            end = text_symbols[index + 1][0] if index + 1 < len(text_symbols) \
                else program.text_end
            regions.append(SymbolRegion(name=name, start=addr, end=end))
        for sample in samples.values():
            for region in regions:
                if region.start <= sample.pc < region.end:
                    region.executions += sample.executions
                    region.stalls += sample.total_stalls
                    break
        return regions


def profile_program(program: Program, core: CoreConfig | str = "xt910",
                    max_steps: int | None = None) -> Profile:
    """Convenience one-shot profiling."""
    return Profiler(core).run(program, max_steps)
