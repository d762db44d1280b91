"""Fig. 20: extensions + optimized compiler vs native ISA + compiler.

"Compared with the native RISC-V ISA and compiler, the performance of
XT-910 with instruction extensions and optimized compiler has been
improved by about 20%."

Both compiler personalities come from :mod:`repro.toolchain`; both
binaries run on the same XT-910 timing model; the per-kernel speedup
is cycles(base) / cycles(optimized).
"""

from __future__ import annotations

from ..toolchain import CodegenOptions, compile_function, fig20_kernels
from ..workloads import Workload
from .explore import time_cells
from .report import ExperimentResult, geomean

#: the two compiler personalities, by cell label
PERSONALITIES = {"base": CodegenOptions.base(),
                 "optimized": CodegenOptions.optimized()}


def run_fig20(quick: bool = False,
              jobs: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="fig20",
        title="instruction extensions + optimized compiler speedup")
    kernels = fig20_kernels()
    stats = time_cells({
        (kernel.name, personality): (
            Workload(f"{kernel.name}-{personality}",
                     compile_function(kernel, options)), "xt910")
        for kernel in kernels
        for personality, options in PERSONALITIES.items()}, jobs)
    speedups = []
    for name in (kernel.name for kernel in kernels):
        base_cycles = stats[name, "base"]["cycles"]
        opt_cycles = stats[name, "optimized"]["cycles"]
        speedup = base_cycles / opt_cycles
        speedups.append(speedup)
        result.add(name, None, round(speedup, 3), "x",
                   note=f"{base_cycles} -> {opt_cycles} cycles")
        result.metric(f"speedup.{name}", speedup)
        result.metric(f"cycles_base.{name}", base_cycles)
        result.metric(f"cycles_optimized.{name}", opt_cycles)
    result.add("geometric mean", 1.20, round(geomean(speedups), 3), "x",
               note="paper: 'improved by about 20%'")
    result.raw = {"speedups": speedups}
    result.metric("geomean", geomean(speedups))
    return result
