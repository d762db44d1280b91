"""Differential tests: numpy-batched vector engine vs the per-element
reference engine.

The batched engine (``repro.sim.exec_vector``, the default) is only
allowed to exist because it is bit-identical to the per-element
reference interpreter.  These tests pin that down three ways:

1. a hypothesis differential — random SEW/LMUL/vl/mask/data integer
   programs run under both engines must leave identical architectural
   state (``Emulator.fingerprint``);
2. deterministic edge cases that force the batched engine's guarded
   fallback paths (cross-page accesses, non-positive strides,
   overlapping scatter indices, wrapped register groups, vl=0);
3. tier equivalence — two small kernels across tiers 1/2/3 under both
   engines, as cells of the equivalence lattice
   (``tests/integration/test_lattice.py``).

Plus the plumbing: engine selection, tier-3 SEW/LMUL specialization,
and the ``sim.vector.*`` metrics namespace.
"""

from __future__ import annotations

import json
import warnings
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
from repro.workloads import vec_mac16

from ..integration.test_lattice import PLAN, SMALL, assert_cells

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


def _run_engine(source: str, engine: str, max_steps: int = 500_000,
                tier: int = 1):
    """Assemble and run under *engine*; restore the numpy engine."""
    exec_vector.select_engine(engine)
    try:
        emulator = Emulator(assemble(source, compress=False))
        emulator.run(max_steps, tier=tier)
    finally:
        exec_vector.select_engine("numpy")
    return emulator


def _differential(source: str) -> None:
    """The numpy engine at tier 3 against the reference at tier 1, with
    the program run twice round from one block: the second pass runs
    the compiled block, whose vector handlers keep their bindings."""
    assert source.count("_start:") == 1 and source.endswith(EXIT)
    twice = source.replace(
        "_start:", "_start:\n    li s9, 2\n    j _pass\n_pass:").replace(
        EXIT, "\n    addi s9, s9, -1\n    bnez s9, _pass" + EXIT)
    assert (_run_engine(twice, "numpy", tier=3).fingerprint()
            == _run_engine(twice, "ref").fingerprint())


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


def test_integer_reductions_wrap_at_sew():
    """A reduction whose sum leaves SEW bits wraps, as the reference's
    masked write of its Python-integer sum does."""
    src = f"""
    .data
    .align 3
vals: .word 0x7fffffff, 0x7fffffff, 5, 9
    .text
_start:
    li t0, 4
    vsetvli t3, t0, e32, m1
    la t1, vals
    vle32.v v1, (t1)
    vmv.v.i v2, 3
    vredsum.vs v3, v1, v2
    vredmax.vs v4, v1, v2
    vredminu.vs v5, v1, v2
    vredxor.vs v6, v1, v2
{EXIT}"""
    _differential(src)
    emulator = _run_engine(src, "numpy", tier=3)
    assert emulator.state.vview_u[32][3 * 4] == 15


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

@pytest.mark.parametrize("factory", list(SMALL.values()))
def test_tiers_and_engines_one_fingerprint(factory):
    """tiers 1/2/3 x engines {ref, numpy} -> the precise answer."""
    (name,) = [name for name, each in SMALL.items() if each is factory]
    assert_cells(name, *PLAN[name])


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
    """``bind_handler`` gives each static instruction a handler of its
    own on the numpy engine, counted as specialized under a proven
    vtype; an op the engine does not batch, and every op on the
    reference engine, gets the table's shared handler."""
    program = assemble("""
_start:
    vadd.vv v1, v2, v3
    vdiv.vv v1, v2, v3
""" + EXIT, compress=False)
    emulator = Emulator(program)
    vadd = emulator._fetch(program.entry)
    vdiv = emulator._fetch(program.entry + 4)
    proven = exec_vector.bind_handler(vadd, (32, 1))
    plain = exec_vector.bind_handler(vadd)
    assert len({proven, plain, exec_vector.VECTOR_EXEC["vadd.vv"]}) == 3
    assert (exec_vector.bind_handler(vdiv, (32, 1))
            is exec_vector.VECTOR_EXEC["vdiv.vv"])
    state = emulator.state
    state.set_vtype(0b01000, 4)            # e32, m1
    proven(state, vadd)
    plain(state, vadd)
    assert state.vec_counters["specialized_ops"] == 1
    assert state.vec_counters["batched_ops"] == 2
    exec_vector.select_engine("ref")
    assert (exec_vector.bind_handler(vadd, (32, 1))
            is exec_vector.VECTOR_EXEC_REF["vadd.vv"])


def test_tier3_uses_specialized_handlers(monkeypatch):
    """Tier 3 binds each static vector instruction's operands once per
    vtype, not once per execution, and counts those its blocks prove
    static as specialized."""
    binds = []

    def counted(op):
        def bind(s, i, sew, lmul):
            binds.append(i)
            return op.bind(s, i, sew, lmul)
        return op._replace(bind=bind)

    for name, op in list(exec_vector._NP_OPS.items()):
        monkeypatch.setitem(exec_vector._NP_OPS, name, counted(op))
    emulator = Emulator(vec_mac16(unroll_passes=40).program())
    emulator.run(tier=3)
    counters = emulator.state.vec_counters
    assert counters["specialized_ops"] > 0
    assert counters["fallback_ops"] == 0
    # a handler per static instruction and block: the count of those
    # bounds the binds, however long the loop runs
    assert 0 < len(binds) < counters["batched_ops"] / 50


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


#: e32 products that overflow the float64 -> float32 rounding (3e38 *
#: 10) and one that is invalid (inf * 0): numpy warns on both outside
#: an ``np.errstate``.  Twice round from one block, so the second pass
#: runs the compiled block.
FP_FLAGS = """
    .data
    .align 3
big: .word 0x7f61b1e6, 0x7f61b1e6, 0x7f61b1e6, 0x7f61b1e6
ten: .word 0x41200000, 0x41200000, 0x41200000, 0x41200000
inf: .word 0x7f800000, 0x7f800000, 0x7f800000, 0x7f800000
    .text
_start:
    li s0, 2
    j again
again:
    li t0, 4
    vsetvli t1, t0, e32, m1
    la a0, big
    vle32.v v1, (a0)
    la a1, ten
    vle32.v v2, (a1)
    flw fa0, 0(a1)
    la a2, inf
    vle32.v v3, (a2)
    vmv.v.i v4, 0
    vfmul.vv v5, v1, v2
    vfmul.vv v6, v3, v4
    vmv.v.v v7, v1
    vfmacc.vf v7, fa0, v1
    addi s0, s0, -1
    bnez s0, again
""" + EXIT


@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("mode", ["run", "trace"])
def test_fp_flags_never_warn(mode, tier, tmp_path):
    """``Emulator.run`` holds one ``np.errstate`` for the whole run,
    which the compiled blocks' run variant relies on; every other path
    (tiers 1 and 2, and ``trace``, a generator that must not leave a
    scope open across its yields) opens one per FP op."""
    want = _run_engine(FP_FLAGS, "ref").fingerprint()
    emulator = Emulator(assemble(FP_FLAGS, compress=False),
                        code_cache_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if mode == "run":
            emulator.run(tier=tier)
        else:
            for _ in emulator.trace(tier=tier):
                pass
    assert emulator.tier == tier
    assert emulator.fingerprint() == want
    if tier == 3:
        assert emulator.counters()["codegen_executions"] > 0


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


@pytest.mark.parametrize("tier", [1, 2, 3])
def test_masked_op_counters_are_json(tier, tmp_path, monkeypatch):
    """A masked op's active lanes are counted as a Python ``int``: the
    counters reach ``CoreStats.extra``, which must ``json.dumps``."""
    monkeypatch.setenv("REPRO_CODE_CACHE_DIR", str(tmp_path))
    src = """
    .data
    .align 3
vals: .word 1, 2, 3, 4
    .text
_start:
    li t0, 4
    vsetvli t3, t0, e32, m1
    li t2, 0b0101
    vmv.s.x v0, t2
    la t1, vals
    vle32.v v1, (t1), v0.t
""" + EXIT
    result = run_on_core(assemble(src, compress=False), "xt910", tier=tier)
    extra = result.stats.extra
    assert extra["tier"] == tier
    assert extra["vector_masked_ops"] == 1
    assert extra["vector_elems_active"] == 2
    assert json.loads(json.dumps(extra)) == extra
