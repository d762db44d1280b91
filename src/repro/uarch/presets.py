"""Core presets: the XT-910 and the comparison cores of Figs. 17-19.

Each preset instantiates the same pipeline model with that core's
published microarchitecture parameters (issue width, pipeline depth,
orderedness, predictor and cache sizes).  Absolute scores are not
comparable with hardware, but ratios between presets on the same
binary reproduce the shape of the paper's cross-core comparisons.

Parameters are from the paper (XT-910), vendor documentation and the
usual public microarchitecture references for the others.
"""

from __future__ import annotations

from dataclasses import replace

from ..mem.dram import DramConfig
from ..mem.hierarchy import MemHierConfig
from ..mem.prefetch import PrefetchConfig
from .branch import DirectionConfig
from .btb import BtbConfig
from .config import CoreConfig, FrontendConfig, FuConfig, LsuConfig
from .loopbuf import LoopBufferConfig


def _mem(l1_kb: int = 64, l2_kb: int = 2048, dram_latency: int = 160,
         prefetch: bool = True, pf_distance: int = 8,
         mshrs: int = 4) -> MemHierConfig:
    pf = PrefetchConfig(distance=pf_distance) if prefetch \
        else PrefetchConfig.disabled()
    l2pf = PrefetchConfig(distance=pf_distance * 2, max_depth=64) \
        if prefetch else PrefetchConfig.disabled()
    return MemHierConfig(
        l1i_size=l1_kb << 10, l1d_size=l1_kb << 10,
        l2_size=l2_kb << 10,
        dram=DramConfig(latency=dram_latency),
        l1_prefetch=pf, l2_prefetch=l2pf, mshrs=mshrs)


def xt910(l1_kb: int = 64, l2_kb: int = 2048,
          vector: bool = True, dram_latency: int = 160) -> CoreConfig:
    """The XT-910: 12-stage, 3-decode, 8-issue OoO, RV64GCV (+custom).

    The custom extensions are not a core knob: Fig. 20 switches them
    off in the compiler personality (``toolchain.CodegenOptions``).
    """
    return CoreConfig(
        name="xt910" + ("" if vector else "-novec"),
        out_of_order=True,
        decode_width=3, rename_width=4, issue_width=8, retire_width=4,
        rob_entries=192, iq_entries=48,
        frontend=FrontendConfig(),
        fu=FuConfig(),
        lsu=LsuConfig(),
        mem=_mem(l1_kb, l2_kb, dram_latency),
        vector_enabled=vector,
    )


def u74(l1_kb: int = 32, l2_kb: int = 2048) -> CoreConfig:
    """SiFive U74-like: dual-issue in-order, 8-stage (Fig. 17 reference:
    'by far the highest performance RISC-V processor available')."""
    return CoreConfig(
        name="u74",
        out_of_order=False,
        decode_width=2, rename_width=2, issue_width=2, retire_width=2,
        rob_entries=8, iq_entries=8,
        frontend=FrontendConfig(
            fetch_bytes=8, fetch_insts=4, ibuf_entries=8, depth=5,
            direction=DirectionConfig(bimodal_bits=10, gshare_bits=10,
                                      history_bits=10, chooser_bits=10),
            btb=BtbConfig(l0_entries=0, l1_entries=256, l1_ways=2),
            ras_entries=6, indirect_entries=64,
            loop_buffer=LoopBufferConfig(enabled=False),
            taken_bubble_l1=1, taken_bubble_miss=2, mispredict_extra=1),
        fu=FuConfig(alu_count=2, fpu_count=1, mul_latency=3,
                    div_latency_min=6, div_latency_max=34),
        lsu=LsuConfig(sq_entries=4, dual_issue=False,
                      pseudo_dual_store=False, memdep_predictor=False,
                      load_to_use=2),
        mem=_mem(l1_kb, l2_kb, prefetch=True, pf_distance=4),
        vector_enabled=False,
    )


def u54(l1_kb: int = 32, l2_kb: int = 2048) -> CoreConfig:
    """SiFive U54-like: single-issue in-order 5-stage."""
    cfg = u74(l1_kb, l2_kb)
    return replace(
        cfg, name="u54", decode_width=1, rename_width=1, issue_width=1,
        retire_width=1,
        frontend=replace(cfg.frontend, depth=3, fetch_bytes=4, fetch_insts=2,
                         direction=DirectionConfig(bimodal_bits=8,
                                                   gshare_bits=8,
                                                   history_bits=6,
                                                   chooser_bits=8),
                         btb=BtbConfig(l0_entries=0, l1_entries=64,
                                       l1_ways=2),
                         taken_bubble_l1=2, taken_bubble_miss=3),
        fu=FuConfig(alu_count=1, fpu_count=1, bju_count=1, mul_latency=5,
                    div_latency_min=8, div_latency_max=64),
        lsu=replace(cfg.lsu, load_to_use=3),
    )


def cortex_a73(l1_kb: int = 64, l2_kb: int = 2048) -> CoreConfig:
    """Cortex-A73-like: 2-decode out-of-order, 11-stage, strong memory
    system (the paper's primary non-RISC-V reference, section X)."""
    return CoreConfig(
        name="cortex-a73",
        out_of_order=True,
        decode_width=2, rename_width=4, issue_width=7, retire_width=4,
        rob_entries=64, iq_entries=40,
        frontend=FrontendConfig(
            fetch_bytes=16, fetch_insts=4, ibuf_entries=24, depth=6,
            direction=DirectionConfig(bimodal_bits=13, gshare_bits=13,
                                      history_bits=13, chooser_bits=13),
            btb=BtbConfig(l0_entries=8, l1_entries=2048, l1_ways=4),
            ras_entries=16, indirect_entries=1024,
            loop_buffer=LoopBufferConfig(enabled=True, entries=32),
            mispredict_extra=3),
        fu=FuConfig(alu_count=2, fpu_count=2, mul_latency=3,
                    div_latency_min=4, div_latency_max=20,
                    fp_latency=3, fmul_latency=4),
        lsu=LsuConfig(sq_entries=16, dual_issue=True,
                      pseudo_dual_store=False, memdep_predictor=True,
                      load_to_use=3),
        # The Kirin-970 testbed's mature mobile memory path: lower
        # effective DRAM latency and the A73's 8-entry linefill buffer.
        mem=_mem(l1_kb, l2_kb, dram_latency=135, pf_distance=12, mshrs=8),
        vector_enabled=False,
    )


def cortex_a55(l1_kb: int = 64, l2_kb: int = 512) -> CoreConfig:
    """Cortex-A55-like: dual-issue in-order, 8-stage."""
    cfg = u74(l1_kb, l2_kb)
    return replace(
        cfg, name="cortex-a55",
        frontend=replace(cfg.frontend, depth=5,
                         btb=BtbConfig(l0_entries=8, l1_entries=512,
                                       l1_ways=2)),
        lsu=replace(cfg.lsu, load_to_use=3, dual_issue=True),
        mem=_mem(l1_kb, l2_kb, pf_distance=6),
    )


def swerv(l1_kb: int = 32, l2_kb: int = 256) -> CoreConfig:
    """Western Digital SweRV-like: 2-way superscalar 9-stage in-order."""
    cfg = u74(l1_kb, l2_kb)
    return replace(
        cfg, name="swerv",
        frontend=replace(cfg.frontend, depth=6, mispredict_extra=2),
        mem=_mem(l1_kb, l2_kb, prefetch=False),
    )


def cortex_a53(l1_kb: int = 32, l2_kb: int = 1024) -> CoreConfig:
    """Cortex-A53-like: dual-issue in-order 8-stage, weaker frontend."""
    cfg = u74(l1_kb, l2_kb)
    return replace(
        cfg, name="cortex-a53",
        frontend=replace(
            cfg.frontend, depth=5, fetch_bytes=8,
            direction=DirectionConfig(bimodal_bits=9, gshare_bits=9,
                                      history_bits=8, chooser_bits=9),
            btb=BtbConfig(l0_entries=0, l1_entries=256, l1_ways=2),
            taken_bubble_l1=2),
        # A53's dual-issue has restrictive pairing rules; one full-rate
        # ALU plus the BJU approximates its sustainable mix.
        fu=FuConfig(alu_count=1, fpu_count=1, mul_latency=4,
                    div_latency_min=4, div_latency_max=34),
        lsu=replace(cfg.lsu, load_to_use=3),
        mem=_mem(l1_kb, l2_kb, pf_distance=4),
    )


def rocket(l1_kb: int = 16, l2_kb: int = 512) -> CoreConfig:
    """Berkeley Rocket-like: single-issue in-order 5-stage (the academic
    baseline the paper's related work opens with)."""
    cfg = u54(l1_kb, l2_kb)
    return replace(
        cfg, name="rocket",
        frontend=replace(cfg.frontend,
                         direction=DirectionConfig(bimodal_bits=9,
                                                   gshare_bits=9,
                                                   history_bits=7,
                                                   chooser_bits=9),
                         btb=BtbConfig(l0_entries=0, l1_entries=64,
                                       l1_ways=2),
                         ras_entries=2),
        mem=_mem(l1_kb, l2_kb, prefetch=False),
    )


PRESETS = {
    "xt910": xt910,
    "xt910-novec": lambda **kw: xt910(vector=False, **kw),
    "u74": u74,
    "u54": u54,
    "cortex-a73": cortex_a73,
    "cortex-a55": cortex_a55,
    "cortex-a53": cortex_a53,
    "swerv": swerv,
    "rocket": rocket,
}


def get_preset(name: str, **kw) -> CoreConfig:
    try:
        return PRESETS[name](**kw)
    except KeyError:
        raise KeyError(
            f"unknown core preset {name!r}; have {sorted(PRESETS)}") from None
