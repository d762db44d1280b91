"""Timing probes: recover structural knobs from the model's own cycles.

The knob census proves every knob is read, and the reference model
proves the timing loop agrees with a second copy of the same semantics;
neither shows that a knob's *value* reaches the model with the meaning
its comment gives it.  Each probe here is a classic microbenchmark
whose cycles per iteration have a slope or a knee at one knob: it runs
the guest at two sizes (or across a window), recovers the knob from the
difference, and asserts the recovered value equals the preset's.

A probe that stops recovering its knob is a finding about the model or
about the knob's documented meaning, not a tolerance to widen.
"""

from __future__ import annotations

from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.uarch import uconfig
from repro.uarch.presets import get_preset

CORE = "xt910"

EXIT = """
    li a0, 0
    li a7, 93
    ecall
"""

#: sixteen registers the filler instructions write, none of which the
#: probes' loop control or pointers use
FILLER = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "a2",
          "a3", "a4", "a5", "a6", "s3", "s4", "s5", "s8")


#: The xt910 preset with address translation and both stream
#: prefetchers off: what is left of a load miss is the cache ladder.
NO_TLB_NO_PREFETCH = {"mem.model_tlb": False,
                      "mem.l1_prefetch.enabled": False,
                      "mem.l2_prefetch.enabled": False}


def _config(overrides=None):
    if not overrides:
        return get_preset(CORE)
    doc = uconfig.config_to_doc(get_preset(CORE))
    return uconfig.config_from_doc(uconfig.apply_overrides(doc, overrides))


def _cycles(source: str, overrides=None) -> int:
    return run_on_core(assemble(source), _config(overrides), tier=3).cycles


def _per_iteration(guest, small: int = 20, large: int = 40,
                   overrides=None) -> float:
    """Cycles per loop iteration, from two trip counts: the fixed cost
    of start-up and drain cancels in the difference.  Both counts are
    past warm-up (the pointer chase reaches its steady state within 15
    iterations, once the cold instruction fetches are behind it)."""
    return (_cycles(guest(large), overrides)
            - _cycles(guest(small), overrides)) / (large - small)


def _fillers(count: int) -> str:
    return "".join(f"    addi {FILLER[i % len(FILLER)]}, zero, {i}\n"
                   for i in range(count))


def _pointer_chase(iterations: int) -> str:
    """16 dependent loads per iteration from one self-pointing dword:
    every load after the first is an L1D hit whose address is the
    previous load's data."""
    chase = "    ld a0, 0(a0)\n" * 16
    return f"""
    .data
    .align 6
node: .dword 0
    .text
_start:
    la a0, node
    sd a0, 0(a0)
    li s2, {iterations}
loop:
{chase}    addi s2, s2, -1
    bnez s2, loop
{EXIT}"""


def _ring_chase(lines: int):
    """16 dependent loads per iteration round a ring of *lines*
    sequential cache lines, each holding the address of the next.  The
    loop that builds the ring stores to every line, so the chase starts
    with the whole ring in the L2 and the L1D holding only its tail."""
    def guest(iterations: int) -> str:
        chase = "    ld a0, 0(a0)\n" * 16
        return f"""
    .text
_start:
    li s1, 0x1000000
    li s7, {lines}
    mv t0, s1
build:
    addi t1, t0, 64
    sd t1, 0(t0)
    mv t0, t1
    addi s7, s7, -1
    bnez s7, build
    sd s1, -64(t0)
    mv a0, s1
    li s2, {iterations}
loop:
{chase}    addi s2, s2, -1
    bnez s2, loop
{EXIT}"""
    return guest


def _independent_alu(iterations: int) -> str:
    """64 independent ALU instructions per iteration (63 fillers and the
    trip-count decrement) plus the loop branch, which issues on the
    branch unit."""
    return f"""
    .text
_start:
    li s2, {iterations}
loop:
{_fillers(63)}    addi s2, s2, -1
    bnez s2, loop
{EXIT}"""


def _miss_pair(gap: int):
    """Two independent cold-miss loads per iteration, *gap* independent
    fillers apart.  Both addresses of the next iteration depend on the
    second load's data (a zero), so iterations do not overlap each
    other; the pair overlaps only while the ROB holds the first load,
    the fillers and the second load at once.  The 37-line stride keeps
    every line cold and out of the stream prefetchers' reach."""
    def guest(iterations: int) -> str:
        return f"""
    .text
_start:
    li s1, 0x1000000
    li s6, 0x4000000
    li s7, {64 * 37}
    li s2, {iterations}
loop:
    ld a0, 0(s1)
{_fillers(gap)}    ld a1, 0(s6)
    add s1, s1, a1
    add s6, s6, a1
    add s1, s1, s7
    add s6, s6, s7
    addi s2, s2, -1
    bnez s2, loop
{EXIT}"""
    return guest


def test_l1_pointer_chase_recovers_load_to_use():
    """An L1-resident pointer chase costs the load-to-use pipeline
    depth plus the L1 array latency per load (``mem.l1_latency`` is
    the part beyond the pipelined stages)."""
    config = get_preset(CORE)
    per_load = _per_iteration(_pointer_chase) / 16
    assert per_load == config.lsu.load_to_use + config.mem.l1_latency


def test_l2_pointer_chase_recovers_l2_latency():
    """A pointer chase round 2,048 sequential lines (eight per L1D set,
    twice the L1D's ways, and a sixteenth of the L2) misses the LRU
    L1D on every load and hits the L2: with the TLB and the
    prefetchers off, each load costs the L1 rung plus
    ``mem.l2_latency``.  Both trip counts (320 and 640 loads) stay on
    the first half of the ring, which the L1D no longer holds."""
    config = _config(NO_TLB_NO_PREFETCH)
    lines = 2048
    assert lines * config.mem.line_size == 2 * config.mem.l1d_size
    assert lines * config.mem.line_size < config.mem.l2_size
    per_load = _per_iteration(_ring_chase(lines),
                              overrides=NO_TLB_NO_PREFETCH) / 16
    assert per_load == (config.lsu.load_to_use + config.mem.l1_latency
                        + config.mem.l2_latency)


def test_independent_addis_recover_alu_count():
    """With no dependences and the frontend wider than the ALUs, 64
    ALU instructions take 64 / ``fu.alu_count`` cycles; the loop branch
    rides along on the branch unit."""
    config = get_preset(CORE)
    per_iteration = _per_iteration(_independent_alu)
    assert 65 / per_iteration > config.fu.alu_count   # the branch is free
    assert 64 / per_iteration == config.fu.alu_count


def test_miss_pair_knee_recovers_rob_entries():
    """Cycles per iteration step up by about one memory latency at the
    first gap where the two misses no longer fit in the ROB together:
    the last overlapping gap is ``rob_entries`` - 2 (the two loads take
    the other two entries)."""
    config = get_preset(CORE)
    rob = config.rob_entries
    gaps = range(rob - 6, rob + 3)
    cpi = {gap: _per_iteration(_miss_pair(gap)) for gap in gaps}
    steps = {gap: cpi[gap + 1] - cpi[gap] for gap in gaps[:-1]}
    knee = max(steps, key=steps.get)
    assert knee + 2 == rob
    # the knee is a whole miss, every other step a filler or two
    assert steps[knee] > config.mem.dram.latency / 2
    assert all(step < 4 for gap, step in steps.items() if gap != knee)
