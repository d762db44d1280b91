"""Analytical area / frequency / power model (paper Table II).

Silicon cannot be measured from Python; this model reproduces Table II
the only defensible way — as an analytical model whose per-structure
coefficients are calibrated against the paper's published data points:

* 0.8 mm^2 per core with the vector unit, 0.6 mm^2 without (12nm,
  excluding L2),
* 2.0 GHz at 0.8 V with LVT cells / 2.5 GHz at 1.0 V with 30% ULVT
  cells (TT, 85C), 2.8 GHz in 7nm,
* ~100 uW/MHz dynamic power (32/64K L1, 256/512K L2, no VEC).

The model exposes how each microarchitectural structure contributes,
so configuration sweeps (Table I) produce physically-plausible trends:
bigger caches cost SRAM area, wider issue costs wiring-dominated logic
area, voltage scales frequency roughly linearly in this regime and
power quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..uarch.config import CoreConfig


@dataclass
class ProcessNode:
    """Technology node scaling anchors."""

    name: str
    density_scale: float   # area multiplier vs 12nm
    speed_scale: float     # frequency multiplier vs 12nm

    @classmethod
    def tsmc12(cls) -> "ProcessNode":
        return cls("TSMC 12nm FinFET", 1.0, 1.0)

    @classmethod
    def tsmc7(cls) -> "ProcessNode":
        # Calibrated to the paper's 7nm data point: 2.8 GHz vs 2.5 GHz.
        return cls("TSMC 7nm FinFET", 0.55, 1.12)


@dataclass
class OperatingPoint:
    """Voltage / cell-library corner (Table II footnotes a, b)."""

    vdd: float = 0.8
    ulvt_fraction: float = 0.0   # fraction of ULVT standard cells

    @classmethod
    def nominal(cls) -> "OperatingPoint":
        """0.8V, LVT cells, ULVT SRAM: the 2.0 GHz corner."""
        return cls(vdd=0.8, ulvt_fraction=0.0)

    @classmethod
    def boost(cls) -> "OperatingPoint":
        """1.0V, 30% ULVT cells: the 2.5 GHz voltage-boost corner."""
        return cls(vdd=1.0, ulvt_fraction=0.30)


# Area coefficients, mm^2 in 12nm.  SRAM density ~0.55 mm^2 per MB for
# dense arrays; logic terms calibrated so the XT-910 configuration
# lands on the published 0.6/0.8 mm^2 split.
_SRAM_MM2_PER_KB = 0.00135
_FRONTEND_BASE = 0.045          # fetch + predictors at reference sizes
_DECODE_PER_WIDTH = 0.011
_RENAME_PER_WIDTH = 0.008
_ROB_PER_ENTRY = 0.00022
_IQ_PER_ENTRY = 0.0006
_ALU_EACH = 0.012
_FPU_EACH = 0.030
_LSU_BASE = 0.050
_LSU_DUAL_EXTRA = 0.022
_VEC_SLICE_EACH = 0.100         # the with/without-VEC delta is 0.2 mm^2
_BTB_PER_KENTRY = 0.008
_MISC_BASE = 0.082              # CLINT/PLIC/debug/PMP/MMU

# Frequency: pipeline-depth-normalized; calibrated at depth 12.
_BASE_GHZ_12NM = 2.00           # 0.8V LVT
_VDD_SLOPE = 1.9                # GHz per volt around the calibration point
_ULVT_SPEEDUP_FULL = 0.165    # +16.5% if the whole library were ULVT

# Power: uW/MHz contributions; calibrated to ~100 uW/MHz total for the
# no-VEC reference configuration at 0.8V.
_PWR_LOGIC_BASE = 25.5
_PWR_PER_ISSUE = 3.2
_PWR_PER_ROB_ENTRY = 0.055
_PWR_SRAM_PER_KB = 0.30
_PWR_VEC_SLICE = 11.0


@dataclass
class PhysicalEstimate:
    area_mm2: float
    frequency_ghz: float
    dynamic_uw_per_mhz: float


class PhysicalModel:
    """Estimates Table II quantities for a :class:`CoreConfig`."""

    def __init__(self, node: ProcessNode | None = None):
        self.node = node if node is not None else ProcessNode.tsmc12()

    # -- area ------------------------------------------------------------------

    def area_mm2(self, config: CoreConfig, include_l2: bool = False) -> float:
        """Core area in mm^2 (paper reports it excluding the L2)."""
        mem = config.mem
        sram_kb = (mem.l1i_size + mem.l1d_size) / 1024
        if include_l2:
            sram_kb += mem.l2_size / 1024
        area = (
            _FRONTEND_BASE
            + _DECODE_PER_WIDTH * config.decode_width
            + _RENAME_PER_WIDTH * config.rename_width
            + _ROB_PER_ENTRY * config.rob_entries
            + _IQ_PER_ENTRY * config.iq_entries
            + _ALU_EACH * config.fu.alu_count
            + _FPU_EACH * config.fu.fpu_count
            + _LSU_BASE
            + (_LSU_DUAL_EXTRA if config.lsu.dual_issue else 0.0)
            + _BTB_PER_KENTRY * config.frontend.btb.l1_entries / 1024
            + _MISC_BASE
            + _SRAM_MM2_PER_KB * sram_kb
        )
        if config.vector_enabled:
            area += _VEC_SLICE_EACH * config.fu.vec_slices
        return area * self.node.density_scale

    # -- frequency ------------------------------------------------------------------

    def frequency_ghz(self, config: CoreConfig,
                      op: OperatingPoint | None = None) -> float:
        """Maximum frequency at the given operating point (TT 85C)."""
        op = op if op is not None else OperatingPoint.nominal()
        base = _BASE_GHZ_12NM + _VDD_SLOPE * (op.vdd - 0.8)
        base *= 1.0 + _ULVT_SPEEDUP_FULL * op.ulvt_fraction
        # Deeper pipelines clock higher: stage delay ~ 1/depth with
        # diminishing returns (latch overhead).
        depth = config.frontend.depth + 5   # frontend + backend stages
        depth_factor = (depth / 12.0) ** 0.6
        return base * depth_factor * self.node.speed_scale

    # -- power -----------------------------------------------------------------------

    def dynamic_uw_per_mhz(self, config: CoreConfig,
                           op: OperatingPoint | None = None) -> float:
        """Dynamic power per MHz (the paper's ~100 uW/MHz metric)."""
        op = op if op is not None else OperatingPoint.nominal()
        mem = config.mem
        sram_kb = (mem.l1i_size + mem.l1d_size) / 1024
        power = (
            _PWR_LOGIC_BASE
            + _PWR_PER_ISSUE * config.issue_width
            + _PWR_PER_ROB_ENTRY * config.rob_entries
            + _PWR_SRAM_PER_KB * sram_kb
        )
        if config.vector_enabled:
            power += _PWR_VEC_SLICE * config.fu.vec_slices
        # CV^2f: normalize to the 0.8V calibration point.
        power *= (op.vdd / 0.8) ** 2
        return power

    def estimate(self, config: CoreConfig,
                 op: OperatingPoint | None = None) -> PhysicalEstimate:
        return PhysicalEstimate(
            area_mm2=self.area_mm2(config),
            frequency_ghz=self.frequency_ghz(config, op),
            dynamic_uw_per_mhz=self.dynamic_uw_per_mhz(config, op))


def table2_rows() -> dict[str, dict[str, float]]:
    """Regenerate Table II: paper value vs model value."""
    from ..uarch.presets import xt910

    model = PhysicalModel()
    with_vec = xt910(vector=True)
    without_vec = xt910(vector=False)
    # The power config from footnote c: 32/64K L1, no VEC.
    return {
        "frequency_nominal_ghz": {
            "paper": 2.0,
            "model": round(model.frequency_ghz(with_vec,
                                               OperatingPoint.nominal()), 3)},
        "frequency_boost_ghz": {
            "paper": 2.5,
            "model": round(model.frequency_ghz(with_vec,
                                               OperatingPoint.boost()), 3)},
        "frequency_7nm_ghz": {
            "paper": 2.8,
            "model": round(PhysicalModel(ProcessNode.tsmc7())
                           .frequency_ghz(with_vec, OperatingPoint.boost()),
                           3)},
        "area_with_vec_mm2": {
            "paper": 0.8,
            "model": round(model.area_mm2(with_vec), 3)},
        "area_without_vec_mm2": {
            "paper": 0.6,
            "model": round(model.area_mm2(without_vec), 3)},
        "dynamic_uw_per_mhz": {
            "paper": 100.0,
            "model": round(model.dynamic_uw_per_mhz(without_vec), 1)},
    }
