"""Profiling a workload with the CDS-style profiler (section IX).

The paper's toolchain ships a graphical profiler over its simulator
(Fig. 15/16); this example runs its textual equivalent over the
CoreMark matrix kernel and prints the hot spots.

    python examples/profile_hotspots.py
"""

from repro.harness.runner import run_on_core
from repro.obs import GuestProfiler
from repro.workloads.coremark import matrix_kernel


def main() -> None:
    workload = matrix_kernel()
    print(f"profiling {workload.name} on xt910...\n")
    program = workload.program()
    profiler = GuestProfiler()
    result = run_on_core(program, "xt910", profiler=profiler)
    print(profiler.hotspots(program, result.stats, top=12))


if __name__ == "__main__":
    main()
