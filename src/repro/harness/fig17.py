"""Fig. 17: CoreMark scores across the embedded-core field.

The paper reports CoreMark/MHz: XT-910 at 7.1, "40% faster than SiFive
U74" (5.1, itself on par with Cortex-A55), with SweRV at 5.0 and the
single-issue cores (U54, A53-class) well below.

Our absolute unit is IPC on the CoreMark-like suite; to present the
figure on the paper's axis we scale model IPC by a single constant
chosen so XT-910 lands on 7.1 CoreMark/MHz (the standard way to compare
a model's *relative* accuracy against published scores).  What must
reproduce is the ladder: the ordering and the ratios between cores.
"""

from __future__ import annotations

from ..workloads.coremark import coremark_suite
from .explore import ipc, time_cells
from .report import ExperimentResult, geomean

# Fig. 17 values as printed in the paper (CoreMark/MHz).
PAPER_SCORES = {
    "xt910": 7.1,
    "u74": 5.1,
    "cortex-a55": 5.1,
    "swerv": 5.0,
    "cortex-a53": 3.2,
    "u54": 2.8,
}

DEFAULT_CORES = ["xt910", "u74", "cortex-a55", "swerv", "cortex-a53", "u54"]


def run_fig17(cores: list[str] | None = None, quick: bool = False,
              jobs: int | None = None) -> ExperimentResult:
    cores = cores if cores is not None else DEFAULT_CORES
    if "xt910" not in cores:
        raise ValueError(f"fig17 is scaled to xt910 = "
                         f"{PAPER_SCORES['xt910']} CoreMark/MHz, so its "
                         f"cores must include xt910 (got {cores})")
    result = ExperimentResult(
        experiment="fig17",
        title="CoreMark/MHz across embedded cores")
    suite = coremark_suite()
    stats = time_cells({(core, w.name): (w, core)
                        for core in cores for w in suite}, jobs)
    ipcs = {core: geomean([ipc(stats[core, w.name]) for w in suite])
            for core in cores}
    scale = PAPER_SCORES["xt910"] / ipcs["xt910"]
    for core in cores:
        result.add(core, PAPER_SCORES.get(core),
                   round(ipcs[core] * scale, 2), "CoreMark/MHz",
                   note=f"model IPC {ipcs[core]:.3f}")
    if "u74" in ipcs:
        ratio = ipcs["xt910"] / ipcs["u74"]
        result.add("xt910 / u74 speedup", 1.40, round(ratio, 2), "x",
                   note="the paper's '40% faster than U74'")
    result.notes.append(
        "model IPC scaled so xt910 = 7.1 CoreMark/MHz; the ladder "
        "ordering and ratios are the reproduced quantity")
    result.raw = {"ipc": ipcs, "scale": scale}
    result.metric("scale", scale)
    for core in cores:
        result.metric(f"ipc.{core}", ipcs[core])
        result.metric(f"coremark_per_mhz.{core}", ipcs[core] * scale)
    if "u74" in ipcs:
        result.metric("speedup_vs_u74", ipcs["xt910"] / ipcs["u74"])
    return result
