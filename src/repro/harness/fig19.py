"""Fig. 19: NBench performance normalized to Cortex-A73.

"Overall, the performance of XT-910 is on par with the ARM Cortex-A73"
— same methodology as Fig. 18 on the NBench-like suite.
"""

from __future__ import annotations

from ..workloads.nbench import nbench_suite
from .explore import ipc, time_cells
from .report import ExperimentResult, geomean


def run_fig19(quick: bool = False,
              jobs: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig19",
        title="NBench-like kernels, XT-910 normalized to Cortex-A73")
    suite = nbench_suite()
    stats = time_cells({(w.name, core): (w, core) for w in suite
                        for core in ("xt910", "cortex-a73")}, jobs)
    ratios = []
    for name in (w.name for w in suite):
        xt_ipc = ipc(stats[name, "xt910"])
        a73_ipc = ipc(stats[name, "cortex-a73"])
        ratio = xt_ipc / a73_ipc
        ratios.append(ratio)
        result.add(name, None, round(ratio, 3), "x A73",
                   note=f"IPC {xt_ipc:.2f} vs {a73_ipc:.2f}")
        result.metric(f"ratio.{name}", ratio)
    result.add("geometric mean", 1.0, round(geomean(ratios), 3), "x A73",
               note="paper: 'on par with the ARM Cortex-A73'")
    result.raw = {"ratios": ratios}
    result.metric("geomean", geomean(ratios))
    return result
