"""Fig. 21: prefetch impact on STREAM (the memory-subsystem ablation).

The paper's five scenarios, all with memory latency pinned to ~200 CPU
cycles ("the CPU issues a read request and obtains the data from the
bus after 200 CPU cycles"):

  a) all prefetches off                                   -> 1.0x
  b) L1 prefetch on, small distance                       -> 3.8x
  c) L1 + L2 + TLB prefetch on, small distance            -> 4.9x
  d) L1 + L2 + TLB prefetch on, large distance            -> 5.4x (max)
  e) L1 + L2 on, TLB prefetch off, large distance         -> d - ~2.4%

Performance is 1 / cycles of the STREAM suite, normalized to scenario a.
"""

from __future__ import annotations

from dataclasses import replace

from ..mem.dram import DramConfig
from ..mem.hierarchy import MemHierConfig
from ..mem.prefetch import PrefetchConfig
from ..uarch.presets import xt910
from ..workloads.stream import stream_suite
from .explore import time_cells
from .report import ExperimentResult

PAPER = {"a": 1.0, "b": 3.8, "c": 4.9, "d": 5.4, "e": 5.4 * (1 - 0.024)}

SMALL_DISTANCE = 4
LARGE_DISTANCE = 20


def _scenario_mem(scenario: str) -> MemHierConfig:
    """Memory-hierarchy config for one Fig. 21 scenario."""
    off = PrefetchConfig.disabled()
    small_l1 = PrefetchConfig(distance=SMALL_DISTANCE, max_depth=32)
    large_l1 = PrefetchConfig(distance=LARGE_DISTANCE, max_depth=32)
    small_l2 = PrefetchConfig(distance=SMALL_DISTANCE, max_depth=64)
    large_l2 = PrefetchConfig(distance=LARGE_DISTANCE * 2, max_depth=64)
    table = {
        # (l1, l2, tlb_prefetch)
        "a": (off, off, False),
        "b": (small_l1, off, False),
        "c": (small_l1, small_l2, True),
        "d": (large_l1, large_l2, True),
        "e": (large_l1, large_l2, False),
    }
    l1_pf, l2_pf, tlb_pf = table[scenario]
    return MemHierConfig(
        l2_size=256 << 10,               # arrays overflow the L2
        dram=DramConfig(latency=200),    # the paper's testbed latency
        l1_prefetch=l1_pf, l2_prefetch=l2_pf,
        tlb_prefetch=tlb_pf, model_tlb=True)


def run_fig21(quick: bool = False, elems: int | None = None,
              jobs: int | None = None) -> ExperimentResult:
    elems = elems if elems is not None else (16384 if quick else 24576)
    kernels = ("triad",) if quick else ("copy", "triad")
    result = ExperimentResult(
        experiment="fig21",
        title="prefetch ablation on STREAM (200-cycle DRAM)")
    suite = [w for w in stream_suite(elems=elems)
             if w.name.split("-", 1)[1] in kernels]
    stats = time_cells({(s, w.name): (w, replace(xt910(),
                                                 mem=_scenario_mem(s)))
                        for s in "abcde" for w in suite}, jobs)
    cycles = {s: sum(stats[s, w.name]["cycles"] for w in suite)
              for s in "abcde"}
    base = cycles["a"]
    for scenario in "abcde":
        speedup = base / cycles[scenario]
        result.add(f"scenario {scenario}", round(PAPER[scenario], 2),
                   round(speedup, 2), "x vs a",
                   note=f"{cycles[scenario]} cycles")
        result.metric(f"cycles.{scenario}", cycles[scenario])
        result.metric(f"speedup.{scenario}", speedup)
    drop = (cycles["e"] - cycles["d"]) / cycles["d"] * 100 \
        if cycles["d"] else 0.0
    result.add("e vs d slowdown", 2.4, round(drop, 2), "%",
               note="cost of disabling TLB prefetch")
    result.raw = {"cycles": cycles}
    result.metric("e_vs_d_slowdown_pct", drop)
    return result
