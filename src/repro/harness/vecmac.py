"""Section VII claims: vector MAC throughput and latencies.

* "the Cortex-A73 supports 8X 16-bit-MAC operation, and the computing
  power of XT-910 is 16X 16-bit MACs, so theoretically XT-910 has a 1X
  [i.e. 2x] performance improvement" — the peak comes straight from the
  slice datapath (2 slices x 128 result bits per cycle / 16 bits), and
  the measured value from the vwmacc dot-product kernel.
* "Most vector operations can be completed within 3-4 clock cycles.
  Multiplying ... floating point vectors takes 5 clock cycles. Integer
  division and floating-point division take 6 to 25 clock cycles." —
  checked against the timing-model configuration.
* XT-910 supports half-precision, which A73's NEON does not: the fp16
  kernel runs on xt910 and has no NEON equivalent.
"""

from __future__ import annotations

from ..uarch.presets import xt910
from ..workloads.vector import scalar_mac16, vec_mac16
from .explore import time_cells
from .report import ExperimentResult

A73_NEON_MACS_PER_CYCLE = 8


def theoretical_macs_per_cycle(sew: int = 16) -> int:
    config = xt910()
    return config.fu.vec_slices * 128 // sew


def run_vecmac(quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment="vecmac", title="16-bit MAC throughput (section VII)")
    peak = theoretical_macs_per_cycle()
    result.add("peak 16-bit MACs/cycle", 16, peak, "",
               note="2 slices x 128 bits / 16")
    result.add("vs A73 NEON peak", 2.0, peak / A73_NEON_MACS_PER_CYCLE, "x",
               note="the paper's 2x AI advantage")

    n, passes = (512, 6) if quick else (512, 16)
    vec = vec_mac16(n=n, unroll_passes=passes)
    scalar = scalar_mac16(n=n, unroll_passes=passes)
    stats = time_cells({(w.name, "xt910"): (w, "xt910")
                        for w in (vec, scalar)})
    vec_cycles = stats[vec.name, "xt910"]["cycles"]
    total_macs = n * passes
    result.add("measured vector MACs/cycle", None,
               round(total_macs / vec_cycles, 2), "",
               note="dot product is load-port bound: 2 operand loads "
                    "per 8 MACs caps it near 4/cycle warm")
    result.add("vector vs scalar MAC speedup", None,
               round(stats[scalar.name, "xt910"]["cycles"] / vec_cycles, 2),
               "x")

    fu = xt910().fu
    result.add("vector ALU latency", "3-4", fu.valu_latency, "cycles")
    result.add("vector FP mul latency", 5, fu.vfmul_latency, "cycles")
    result.add("vector divide latency", "6-25", fu.vdiv_latency, "cycles")
    return result
