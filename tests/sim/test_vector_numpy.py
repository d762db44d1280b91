"""Differential tests: numpy-batched vector engine vs the per-element
reference engine.

The batched engine (``repro.sim.exec_vector``, the default) is only
allowed to exist because it is bit-identical to the per-element
reference interpreter.  These tests pin that down three ways:

1. a hypothesis differential — random SEW/LMUL/vl/mask/data integer
   programs run under both engines must leave identical vector
   register files, memory and exit codes;
2. deterministic edge cases that force the batched engine's guarded
   fallback paths (cross-page accesses, non-positive strides,
   overlapping scatter indices, wrapped register groups, vl=0);
3. tier equivalence — the same workload across tiers 1/2/3 under both
   engines produces one unique fingerprint.

Plus the plumbing: engine selection, tier-3 SEW/LMUL specialization,
and the ``sim.vector.*`` metrics namespace.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.obs.metrics import collect_run
from repro.sim import Emulator
from repro.sim import exec_vector
from repro.workloads import vec_gather, vec_mac16, vec_memcpy

EXIT = """
    li a0, 0
    li a7, 93
    ecall
"""

#: element-wise .vv ops safe on arbitrary bit patterns (shifts mask
#: their amount with ``& (sew-1)`` in both engines; div/rem excluded —
#: they share the reference implementation by construction).
INT_OPS = ["vadd.vv", "vsub.vv", "vand.vv", "vor.vv", "vxor.vv",
           "vmul.vv", "vmin.vv", "vmax.vv", "vminu.vv", "vmaxu.vv",
           "vsll.vv", "vsrl.vv", "vsra.vv", "vmseq.vv", "vmsltu.vv",
           "vrgather.vv", "vmerge.vvm"]


@pytest.fixture(autouse=True)
def _numpy_engine():
    """Every test starts and ends on the default batched engine."""
    exec_vector.select_engine("numpy")
    yield
    exec_vector.select_engine("numpy")


def _run_engine(source: str, engine: str, max_steps: int = 500_000):
    """Assemble and run under *engine*; restore the numpy engine."""
    exec_vector.select_engine(engine)
    try:
        emulator = Emulator(assemble(source, compress=False))
        emulator.run(max_steps)
    finally:
        exec_vector.select_engine("numpy")
    return emulator


def _state_fingerprint(emulator) -> tuple:
    """Vector register file + data memory + exit code."""
    program = emulator.program
    data_len = max(len(program.data), 8) + 256
    mem = emulator.state.memory.load_bytes(program.data_base, data_len)
    return (bytes(emulator.state.vbuf),
            hashlib.sha256(bytes(mem)).hexdigest(),
            emulator.exit_code or 0)


def _differential(source: str) -> None:
    ref = _state_fingerprint(_run_engine(source, "ref"))
    np_ = _state_fingerprint(_run_engine(source, "numpy"))
    assert np_ == ref


# -- hypothesis differential -------------------------------------------------

def _vector_program(op: str, sew: int, lmul: int, avl: int,
                    masked: bool, data: bytes, mask: bytes) -> str:
    """One random vector op: load mask + operands + a dst preload (so
    tail-undisturbed lanes are visible), apply, store, exit."""
    group = 16 * lmul
    d = ", ".join(str(v) for v in data)
    mk = ", ".join(str(v) for v in mask)
    if op == "vmerge.vvm":
        # vmerge's encoding uses the mask register as the selector
        apply = "vmerge.vvm v24, v8, v16, v0"
    else:
        apply = f"{op} v24, v8, v16" + (", v0.t" if masked else "")
    return f"""
    .data
    .align 3
vdata: .byte {d}
maskd: .byte {mk}
out:   .zero {group}
    .text
_start:
    li t0, 16
    vsetvli t3, t0, e8, m1
    la t2, maskd
    vle8.v v0, (t2)
    li t0, {avl}
    vsetvli t3, t0, e{sew}, m{lmul}
    la t1, vdata
    vle{sew}.v v8, (t1)
    addi t1, t1, {group}
    vle{sew}.v v16, (t1)
    addi t1, t1, {group}
    vle{sew}.v v24, (t1)
    {apply}
    la t4, out
    vse{sew}.v v24, (t4)
{EXIT}"""


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(INT_OPS),
       sew=st.sampled_from([8, 16, 32, 64]),
       lmul=st.sampled_from([1, 2, 4, 8]),
       avl=st.integers(min_value=0, max_value=160),
       masked=st.booleans(),
       data=st.binary(min_size=384, max_size=384),
       mask=st.binary(min_size=16, max_size=16))
def test_random_int_ops_bit_identical(op, sew, lmul, avl, masked,
                                      data, mask):
    _differential(_vector_program(op, sew, lmul, avl, masked,
                                  data, mask))


@settings(max_examples=20, deadline=None)
@given(op=st.sampled_from(["vfadd.vv", "vfsub.vv", "vfmul.vv",
                           "vfmin.vv", "vfmax.vv", "vfmacc.vv"]),
       sew=st.sampled_from([32, 64]),
       lanes=st.lists(st.integers(min_value=-512, max_value=512),
                      min_size=48, max_size=48),
       avl=st.integers(min_value=0, max_value=40),
       masked=st.booleans(),
       mask=st.binary(min_size=16, max_size=16))
def test_random_fp_ops_bit_identical(op, sew, lanes, avl, masked, mask):
    """FP differential on exactly-representable small values (the
    workload suite covers rounding; NaN payloads are out of scope)."""
    import struct
    fmt = "<f" if sew == 32 else "<d"
    raw = b"".join(struct.pack(fmt, float(v) / 8.0) for v in lanes)
    data = (raw * ((384 // len(raw)) + 1))[:384]
    _differential(_vector_program(op, sew, 2, avl, masked, data, mask))


# -- unit-stride load/store differential -------------------------------------

#: never touched by a program's image, stack or heap: loads from here
#: must read zeros without allocating, stores allocate what they write
UNTOUCHED = 0x00C0_0000


def _mem_program(width: int, sew: int, lmul: int, avl: int, masked: bool,
                 rd: int, rs3: int, load_addr: str, store_addr: str,
                 data: bytes, mask: bytes) -> str:
    """Fill the whole register file, then one ``vle``/``vse`` pair.

    ``load_addr``/``store_addr`` are assembly expressions for t1/t4.
    ``src`` is two data pages; ``dst`` two more, pre-patterned so an
    unwritten byte is distinguishable from a written one.
    """
    suffix = ", v0.t" if masked else ""
    src = ", ".join(str(v) for v in data)
    dst = ", ".join(str((k * 7 + 3) & 0xFF) for k in range(8192))
    mk = ", ".join(str(v) for v in mask)
    return f"""
    .data
    .align 12
src:   .byte {src}
dst:   .byte {dst}
maskd: .byte {mk}
    .text
_start:
    li t0, 128
    vsetvli t3, t0, e8, m8
    la t1, src
    vle8.v v0, (t1)
    addi t1, t1, 128
    vle8.v v8, (t1)
    addi t1, t1, 128
    vle8.v v16, (t1)
    addi t1, t1, 128
    vle8.v v24, (t1)
    li t0, 16
    vsetvli t3, t0, e8, m1
    la t2, maskd
    vle8.v v0, (t2)
    li t0, {avl}
    vsetvli t3, t0, e{sew}, m{lmul}
    {load_addr}
    vle{width}.v v{rd}, (t1){suffix}
    {store_addr}
    vse{width}.v v{rs3}, (t4){suffix}
{EXIT}"""


def _mem_fingerprint(program, engine: str) -> tuple:
    """Register file, both pattern regions (read without allocating),
    allocated bytes, exit code and every record's memory footprint."""
    exec_vector.select_engine(engine)
    try:
        emulator = Emulator(program)
        records = [(r.pc, r.mem_addr, r.mem_size)
                   for (r,) in emulator.trace(10_000)]
    finally:
        exec_vector.select_engine("numpy")
    memory = emulator.state.memory
    src = emulator.program.symbol("src")
    return (bytes(emulator.state.vbuf),
            memory.load_bytes(src, 4 * 4096),
            memory.load_bytes(UNTOUCHED, 2 * 4096),
            memory.allocated_bytes, emulator.exit_code, records)


def _place(reg: str, region: str, offset: int) -> str:
    if region == "untouched":
        return f"li {reg}, {UNTOUCHED + offset}"
    return f"la {reg}, {region}\n    li t5, {offset}\n    add {reg}, {reg}, t5"


#: page offsets biased towards spans that straddle the page boundary
_OFFSETS = st.one_of(st.integers(min_value=3000, max_value=4095),
                     st.integers(min_value=0, max_value=7000))
#: where a group sits: anywhere, ending exactly at v31, or wrapping past
_PLACEMENT = st.sampled_from(["any", "ends-at-v31", "wraps"])


def _group_start(placement: str, any_reg: int, vl: int, eew: int) -> int:
    # registers the access spans; EEW 64 over SEW 8 at LMUL 8 can ask for
    # more than the 32 the file holds
    count = min(32, max(1, -(-vl * eew // 128)))
    if placement == "ends-at-v31":
        return 32 - count
    if placement == "wraps" and count > 1:
        return 33 - count
    return any_reg


@settings(max_examples=80, deadline=None)
@given(width=st.sampled_from([8, 16, 32, 64]),
       sew=st.sampled_from([8, 16, 32, 64]),
       lmul=st.sampled_from([1, 2, 4, 8]),
       avl=st.integers(min_value=0, max_value=160),
       masked=st.booleans(),
       rd_at=_PLACEMENT, rs3_at=_PLACEMENT,
       rd=st.integers(min_value=0, max_value=31),
       rs3=st.integers(min_value=0, max_value=31),
       load_from=st.sampled_from(["src", "untouched"]),
       store_to=st.sampled_from(["dst", "untouched"]),
       load_off=_OFFSETS, store_off=_OFFSETS,
       seed=st.binary(min_size=256, max_size=256),
       mask=st.binary(min_size=16, max_size=16))
def test_unit_stride_load_store_bit_identical(
        width, sew, lmul, avl, masked, rd_at, rs3_at, rd, rs3,
        load_from, store_to, load_off, store_off, seed, mask):
    """``vle``/``vse`` over every shape the byte-copy branch and the
    general path split: SEW x EEW x LMUL x avl (0 included), masked or
    not, page-crossing and misaligned bases, a never-touched page, and
    register groups ending at v31 or wrapping past it."""
    # every byte differs from its neighbours whatever the seed, so a lane
    # loaded from the wrong place (or not at all) shows
    data = bytes((seed[k & 255] + 37 * k + (k >> 8)) & 0xFF
                 for k in range(8192))
    vl = min(avl, 128 * lmul // sew)
    program = assemble(_mem_program(
        width, sew, lmul, avl, masked,
        _group_start(rd_at, rd, vl, width),
        _group_start(rs3_at, rs3, vl, width),
        _place("t1", load_from, load_off),
        _place("t4", store_to, store_off), data, mask), compress=False)
    assert (_mem_fingerprint(program, "numpy")
            == _mem_fingerprint(program, "ref"))


@pytest.mark.parametrize("offset", [64, 4096 - 24])
def test_load_from_untouched_page_allocates_nothing(offset):
    """The byte-copy branch needs a page to copy from; an untouched one
    (or two, across the boundary) falls through to the general path,
    which reads zeros without allocating: the run allocates exactly
    what the same program loading from its own data does."""
    def fingerprint(load_from: str) -> tuple:
        program = assemble(_mem_program(
            64, 64, 2, 4, False, 8, 8, _place("t1", load_from, offset),
            _place("t4", "dst", 0), bytes(range(256)) * 32, bytes(16)),
            compress=False)
        numpy = _mem_fingerprint(program, "numpy")
        assert numpy == _mem_fingerprint(program, "ref")
        return numpy

    untouched, src = fingerprint("untouched"), fingerprint("src")
    assert untouched[0][8 * 16:10 * 16] == bytes(32)  # v8/v9 read zeros
    assert untouched[3] == src[3]                      # allocated_bytes


# -- vec_counters pin --------------------------------------------------------

#: the twelve ``functional-mix`` programs of the repo benchmark
#: (``bench/ops.py::functional_programs``)
FUNCTIONAL_MIX = [
    workloads.dhrystone(iterations=2600),
    workloads.stream_kernel("triad", elems=2048, passes=36),
    workloads.blockchain_kernel(xt=True, blocks=380),
    workloads.scalar_mac16(n=512, unroll_passes=140),
    workloads.vec_mac16(n=512, unroll_passes=140),
    workloads.vec_fp16_axpy(n=192, passes=1500),
    workloads.vec_axpy_f32(n=128, passes=1350),
    workloads.vec_axpy_f64(n=128, passes=750),
    workloads.vec_stencil32(n=128, passes=1200),
    workloads.vec_gather(n=128, passes=600),
    workloads.vec_memcpy(n=250, passes=3000),
    workloads.vec_strcmp(n=192, passes=1950),
]

with open(Path(__file__).with_name("vector_counters.json")) as _handle:
    PINNED_COUNTERS = json.load(_handle)

_COUNTER_CASES = (
    [(f"functional-mix/{w.name}", w) for w in FUNCTIONAL_MIX]
    + [(f"vector-suite/{w.name}", w) for w in workloads.vector_suite()])


@pytest.mark.parametrize("key,workload", _COUNTER_CASES,
                         ids=[key for key, _ in _COUNTER_CASES])
def test_vec_counters_pinned(key, workload):
    """``sim.vector.*`` is a per-op count, not a speed: a faster path
    must bump it exactly as the one it replaces did (tier 3, the tier
    the benchmark runs)."""
    emulator = Emulator(workload.program())
    emulator.run(tier=3)
    assert emulator.exit_code == 0
    assert emulator.state.vec_counters == PINNED_COUNTERS[key]


def test_set_vtype_matches_decode_vtype():
    from repro.asm.assembler import decode_vtype
    from repro.sim.state import MachineState

    state = MachineState()
    for vtype in range(32):
        state.set_vtype(vtype, 1 << 20)
        assert (state.sew, state.lmul) == decode_vtype(vtype)
        assert state.vl == state.vlmax


# -- deterministic fallback edges --------------------------------------------

def test_cross_page_load_store():
    """Unit-stride access straddling a page boundary takes the batched
    engine's span fallback; results must still match the reference."""
    src = f"""
    .data
    .align 3
vdata: .byte {", ".join(str((i * 37) & 0xFF) for i in range(64))}
big:   .zero 8192
out:   .zero 64
    .text
_start:
    la t1, big
    li t2, 8191
    add t1, t1, t2
    li t2, -4096
    and t1, t1, t2             # t1 = page-aligned address inside big
    addi t1, t1, -20           # store will straddle the boundary
    li t0, 64
    vsetvli t3, t0, e8, m4
    la t2, vdata
    vle8.v v8, (t2)
    vse8.v v8, (t1)            # cross-page store
    vle8.v v16, (t1)           # cross-page load back
    la t4, out
    vse8.v v16, (t4)
{EXIT}"""
    _differential(src)


def test_misaligned_base():
    src = f"""
    .data
    .align 3
vdata: .byte {", ".join(str((i * 11) & 0xFF) for i in range(68))}
out:   .zero 64
    .text
_start:
    li t0, 16
    vsetvli t3, t0, e32, m4
    la t1, vdata
    addi t1, t1, 1             # deliberately misaligned e32 base
    vle32.v v8, (t1)
    la t4, out
    vse32.v v8, (t4)
{EXIT}"""
    _differential(src)


@pytest.mark.parametrize("stride", [0, -8, 4])
def test_strided_load_edge_strides(stride):
    """stride<=0 forces the per-element path; stride<width overlaps."""
    src = f"""
    .data
    .align 3
vdata: .byte {", ".join(str((i * 13) & 0xFF) for i in range(128))}
out:   .zero 32
    .text
_start:
    li t0, 4
    vsetvli t3, t0, e64, m1
    la t1, vdata
    addi t1, t1, 64            # room for negative strides
    li t2, {stride}
    vlse64.v v8, (t1), t2
    la t4, out
    vse64.v v8, (t4)
{EXIT}"""
    _differential(src)


def test_scatter_duplicate_indices():
    """Overlapping scatter lanes must apply in element order (the
    batched engine's disjointness guard falls back to the exact
    sequential path)."""
    src = f"""
    .data
    .align 3
g_idx: .word 0, 4, 0, 4        # two pairs collide
g_val: .word 111, 222, 333, 444
g_out: .zero 16
result: .dword 0
    .text
_start:
    li t0, 4
    vsetvli t3, t0, e32, m1
    la t1, g_idx
    vle32.v v1, (t1)
    la t1, g_val
    vle32.v v2, (t1)
    la t1, g_out
    vsxei32.v v2, (t1), v1
    lwu t5, 0(t1)              # must be 333 (last write wins)
    lwu t6, 4(t1)              # must be 444
    la t4, result
    sd t5, 0(t4)
    sd t6, 8(t4)
{EXIT}"""
    _differential(src)
    emulator = _run_engine(src, "numpy")
    base = emulator.program.symbol("result")
    assert emulator.state.memory.load_int(base, 8) == 333
    assert emulator.state.memory.load_int(base + 8, 8) == 444


def test_indexed_gather_matches_reference():
    src = f"""
    .data
    .align 3
g_tab: .word {", ".join(str((i * 97) & 0xFFFF) for i in range(32))}
g_idx: .word {", ".join(str(((i * 7) % 32) * 4) for i in range(32))}
out:   .zero 128
    .text
_start:
    li t0, 32
    vsetvli t3, t0, e32, m8
    la t1, g_idx
    vle32.v v8, (t1)
    la t1, g_tab
    vlxei32.v v16, (t1), v8
    la t4, out
    vse32.v v16, (t4)
{EXIT}"""
    _differential(src)


def test_vl_zero_is_a_noop_on_lanes():
    src = f"""
    .data
    .align 3
vdata: .byte {", ".join(str(i) for i in range(64))}
out:   .byte {", ".join("170" for _ in range(16))}
    .text
_start:
    li t0, 16
    vsetvli t3, t0, e32, m1
    la t1, vdata
    vle32.v v8, (t1)
    li t0, 0
    vsetvli t3, t0, e32, m1    # vl = 0
    vadd.vv v8, v8, v8
    la t4, out
    vse32.v v8, (t4)           # stores nothing
{EXIT}"""
    _differential(src)
    emulator = _run_engine(src, "numpy")
    base = emulator.program.symbol("out")
    assert emulator.state.memory.load_bytes(base, 16) == b"\xaa" * 16


def test_wrapped_register_group_falls_back():
    """An m4 group starting at v30 wraps past v31; the batched engine
    must delegate to the reference handler and still agree with it."""
    src = f"""
    .data
    .align 3
vdata: .byte {", ".join(str((i * 5) & 0xFF) for i in range(128))}
    .text
_start:
    li t0, 16
    vsetvli t3, t0, e32, m4
    la t1, vdata
    vle32.v v8, (t1)
    addi t1, t1, 64
    vle32.v v12, (t1)
    vadd.vv v30, v8, v12       # dst group v30..v33 wraps to v0/v1
{EXIT}"""
    _differential(src)
    emulator = _run_engine(src, "numpy")
    assert emulator.state.vec_counters["fallback_ops"] >= 1


# -- tier equivalence --------------------------------------------------------

@pytest.mark.parametrize("workload_fn", [
    lambda: vec_memcpy(n=40, passes=2),
    lambda: vec_gather(n=32, passes=2),
])
def test_tiers_and_engines_one_fingerprint(workload_fn):
    """tiers 1/2/3 x engines {ref, numpy} -> a single fingerprint."""
    workload = workload_fn()
    prints = set()
    for engine in ("ref", "numpy"):
        for tier in (1, 2, 3):
            exec_vector.select_engine(engine)
            try:
                emulator = Emulator(workload.program())
                emulator.run(tier=tier)
            finally:
                exec_vector.select_engine("numpy")
            prints.add(_state_fingerprint(emulator))
    assert len(prints) == 1


# -- engine selection & specialization ---------------------------------------

def test_select_engine_rejects_unknown():
    with pytest.raises(ValueError):
        exec_vector.select_engine("simd-9000")
    assert exec_vector.active_engine() == "numpy"


def test_select_engine_normalizes_and_round_trips():
    exec_vector.select_engine("  REF ")
    assert exec_vector.active_engine() == "ref"
    exec_vector.select_engine("")       # empty -> default
    assert exec_vector.active_engine() == "numpy"


def test_specialize_only_on_numpy_engine():
    assert callable(exec_vector.specialize("vadd.vv", 32, 1))
    assert exec_vector.specialize("not-an-op", 32, 1) is None
    exec_vector.select_engine("ref")
    assert exec_vector.specialize("vadd.vv", 32, 1) is None


def test_tier3_uses_specialized_handlers():
    emulator = Emulator(vec_mac16().program())
    emulator.run(tier=3)
    counters = emulator.state.vec_counters
    assert counters["specialized_ops"] > 0
    assert counters["fallback_ops"] == 0


def test_counters_and_metrics_namespace():
    emulator = Emulator(vec_mac16().program())
    emulator.run()
    merged = emulator.counters()
    assert merged["vector_batched_ops"] > 0
    assert merged["vector_elems_total"] >= merged["vector_elems_active"]

    registry = collect_run(run_on_core(vec_mac16().program(), "xt910"))
    assert registry["sim.vector.batched_ops"] > 0
    assert "sim.vector.elems_active" in registry.keys()
    assert not any(key.startswith("emu.vector_")
                   for key in registry.keys())


def test_masked_ops_counted():
    src = """
    .text
_start:
    li t0, 4
    vsetvli t3, t0, e32, m1
    li t2, 0b0101
    vmv.s.x v0, t2
    vmv.v.i v1, 7
    vmv.v.i v2, 9
    vadd.vv v3, v1, v2, v0.t
""" + EXIT
    emulator = _run_engine(src, "numpy")
    counters = emulator.state.vec_counters
    assert counters["masked_ops"] >= 1
    assert counters["elems_active"] < counters["elems_total"]
