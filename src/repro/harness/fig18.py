"""Fig. 18: EEMBC performance normalized to Cortex-A73.

The paper plots per-kernel EEMBC scores normalized to the A73 and
concludes XT-910 is broadly on par (per-kernel ratios scattered around
1.0).  We run the EEMBC-like suite on both presets and report the
normalized-per-MHz ratio per kernel plus the geometric mean.
"""

from __future__ import annotations

from ..workloads.eembc import eembc_suite
from .explore import ipc, time_cells
from .report import ExperimentResult, geomean


def run_fig18(quick: bool = False,
              jobs: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig18",
        title="EEMBC-like kernels, XT-910 normalized to Cortex-A73")
    suite = eembc_suite()
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
