"""Table I: supported core configurations.

The table enumerates the configuration space: 1/2/4 cores per cluster,
32/64 KB L1 caches, 256 KB - 8 MB L2, vector unit optional.  The
reproduction builds every corner's core configuration, checks it comes
out with the advertised geometry, and smoke-runs a kernel on it: as a
single-core figure cell, and on 2 and 4 harts of the timed cluster
(:func:`~repro.smp.timing.run_smp_timing`).  Quick mode smoke-runs only
the 64 KB L1 / 2 MB L2 corners.
"""

from __future__ import annotations

from ..smp import run_smp_timing
from ..uarch.presets import xt910
from ..workloads import Workload
from .explore import time_cells
from .report import ExperimentResult

CORES_PER_CLUSTER = (1, 2, 4)
L1_SIZES_KB = (32, 64)
L2_SIZES_KB = (256, 512, 1024, 2048, 4096, 8192)
VECTOR_OPTIONS = (True, False)

_SMOKE = Workload("table1-smoke", """
_start:
    li t0, 100
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
""", compress=False)


def enumerate_configs():
    """Yield (cores, l1_kb, l2_kb, vector) over the Table I space."""
    for cores in CORES_PER_CLUSTER:
        for l1 in L1_SIZES_KB:
            for l2 in L2_SIZES_KB:
                for vector in VECTOR_OPTIONS:
                    yield cores, l1, l2, vector


def run_table1(quick: bool = False,
               jobs: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        experiment="table1", title="XT-910 core configurations")
    smoke = {}
    clusters = []
    built = 0
    for cores, l1, l2, vector in enumerate_configs():
        config = xt910(l1_kb=l1, l2_kb=l2, vector=vector)
        assert config.mem.l1d_size == l1 << 10
        assert config.mem.l2_size == l2 << 10
        built += 1
        if not quick or (l1 == 64 and l2 == 2048):
            if cores == 1:
                smoke[l1, l2, vector] = (_SMOKE, config)
            else:
                clusters.append((cores, l1, l2, vector, config))
    # A smoke run that does not exit 0 fails its cell.
    time_cells(smoke, jobs)
    smoked = len(smoke)
    program = _SMOKE.program()
    for cores, l1, l2, vector, config in clusters:
        codes = run_smp_timing(program, cores=cores, config=config).exit_codes
        if any(codes):
            raise RuntimeError(
                f"table1: {cores}-core cluster at L1 {l1} KB / L2 {l2} KB"
                f" / vector {vector}: hart exit codes {codes}")
    result.add("configurations built", 72, built, "",
               note="3 core counts x 2 L1 x 6 L2 x vec on/off")
    result.add("single-core smoke runs", None, smoked, "")
    result.add("cluster smoke runs", None, len(clusters), "",
               note="2 and 4 harts on the timed cluster")
    result.add("cores per cluster", "1, 2, 4",
               "/".join(map(str, CORES_PER_CLUSTER)), "")
    result.add("L1 sizes", "32KB, 64KB",
               "/".join(f"{s}KB" for s in L1_SIZES_KB), "")
    result.add("L2 range", "256KB ~ 8MB",
               f"{L2_SIZES_KB[0]}KB ~ {L2_SIZES_KB[-1] // 1024}MB", "")
    result.raw = {"built": built, "smoked": smoked}
    result.metric("configurations_built", built)
    result.metric("smoke_runs", smoked)
    return result
