"""SPECint2006-class comparison (paper section X, text result).

"The performance of XT-910 is 6.11 SPECInt/GHz, which is 10% lower
than the 6.75 SPECInt/GHz delivered by Cortex-A73."

SPECInt/GHz is per-clock performance on a large-footprint workload, so
the model quantity is IPC on the SPECint-like kernel (which "factors in
core performance, cache size, cache miss, DDR latency").  As with
Fig. 17 we scale to the paper's axis with one constant (A73 pinned to
6.75) and reproduce the *ratio*.
"""

from __future__ import annotations

from ..workloads.specint import specint_workload
from .explore import ipc, time_cells
from .report import ExperimentResult

PAPER_XT910 = 6.11
PAPER_A73 = 6.75


def run_spec(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment="spec", title="SPECint-like large-footprint comparison")
    if quick:
        # The chase region must still overflow the 2 MB L2 (49152
        # line-sized nodes = 3 MiB).
        workload = specint_workload(chase_nodes=49152, scan_elems=32768,
                                    chase_steps=12000, hash_ops=4000)
    else:
        workload = specint_workload()
    stats = time_cells({(workload.name, core): (workload, core)
                        for core in ("xt910", "cortex-a73")})
    xt_ipc = ipc(stats[workload.name, "xt910"])
    a73_ipc = ipc(stats[workload.name, "cortex-a73"])
    scale = PAPER_A73 / a73_ipc
    result.add("cortex-a73", PAPER_A73, round(a73_ipc * scale, 2),
               "SPECInt/GHz", note=f"model IPC {a73_ipc:.3f} (anchor)")
    result.add("xt910", PAPER_XT910, round(xt_ipc * scale, 2),
               "SPECInt/GHz", note=f"model IPC {xt_ipc:.3f}")
    result.add("xt910 / a73", PAPER_XT910 / PAPER_A73,
               round(xt_ipc / a73_ipc, 3), "x",
               note="paper: '10% lower than Cortex-A73'")
    result.raw = {"xt_ipc": xt_ipc, "a73_ipc": a73_ipc}
    return result
