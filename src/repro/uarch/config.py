"""Core configuration: every microarchitecture knob in one place.

``CoreConfig`` parameterizes the pipeline model enough to describe both
the XT-910 and the comparison cores of Fig. 17-19 (SiFive U74/U54,
ARM Cortex-A73/A55, SweRV) — same simulator, different knobs, which is
how the reproduction preserves the paper's cross-core comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mem.hierarchy import MemHierConfig
from .branch import DirectionConfig
from .btb import BtbConfig
from .loopbuf import LoopBufferConfig


@dataclass
class FrontendConfig:
    """IFU parameters (sections II, III)."""

    fetch_bytes: int = 16          # 128-bit fetch line per cycle
    fetch_insts: int = 8           # up to 8 (compressed) instructions
    ibuf_entries: int = 32         # instruction buffer depth
    # Frontend stage count (IF..RF), read only by the physical model and
    # the explore depth axis.  The timing model does not read it: its
    # fetch->decode (3) and decode->issue (2) gaps are fixed, and a
    # redirect costs ``mispredict_extra`` and the taken bubbles below.
    depth: int = 7
    direction: DirectionConfig = field(default_factory=DirectionConfig)
    btb: BtbConfig = field(default_factory=BtbConfig)
    ras_entries: int = 16
    indirect_entries: int = 512
    loop_buffer: LoopBufferConfig = field(default_factory=LoopBufferConfig)
    # Bubbles by redirect point (paper section III.B):
    taken_bubble_l0: int = 0       # jump executed at IF
    taken_bubble_l1: int = 1       # jump executed at IP
    taken_bubble_miss: int = 2     # corrected at IB
    mispredict_extra: int = 2      # flush/refill overhead beyond resolve


@dataclass
class FuConfig:
    """Execution-unit counts and latencies (section II, IV, VII)."""

    alu_count: int = 2             # two single-cycle ALUs
    bju_count: int = 1             # one branch/jump unit
    fpu_count: int = 2             # two scalar FP units
    vec_slices: int = 2            # two 64-bit vector slices
    mul_latency: int = 3           # shares the ALU pipe
    div_latency_min: int = 6
    div_latency_max: int = 20      # multi-cycle ALU/divider pipe
    fp_latency: int = 3
    fmul_latency: int = 4
    fdiv_latency: int = 12
    # Vector latencies (section VII): most ops 3-4 cycles, FP multiply
    # 5 cycles, divides 6-25 cycles.
    valu_latency: int = 3
    vmul_latency: int = 4
    vfp_latency: int = 4
    vfmul_latency: int = 5
    vdiv_latency: int = 16
    vperm_latency: int = 4         # cross-slice data exchange
    vreduce_latency: int = 5


@dataclass
class LsuConfig:
    """Load-store unit (section V.A, V.B)."""

    sq_entries: int = 24
    dual_issue: bool = True        # dedicated load pipe + store pipe
    pseudo_dual_store: bool = True  # st.addr / st.data uop split
    memdep_predictor: bool = True
    memdep_entries: int = 256
    load_to_use: int = 3           # AG/DC/DA/WB pipeline depth
    forward_latency: int = 1       # store-to-load forwarding
    violation_flush_penalty: int = 12  # global flush on ordering violation


@dataclass
class CoreConfig:
    """One core's complete microarchitecture description."""

    name: str = "xt910"
    out_of_order: bool = True
    decode_width: int = 3
    rename_width: int = 4
    issue_width: int = 8           # 8 shared instruction slots
    retire_width: int = 4
    rob_entries: int = 192
    iq_entries: int = 48
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    fu: FuConfig = field(default_factory=FuConfig)
    lsu: LsuConfig = field(default_factory=LsuConfig)
    mem: MemHierConfig = field(default_factory=MemHierConfig)
    vector_enabled: bool = True
    vlen: int = 128
