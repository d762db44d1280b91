"""Functional semantics for the 0.7.1-flavoured vector extension.

Vector state lives in :class:`~repro.sim.state.MachineState`: 32
VLEN-bit registers backed by ONE contiguous numpy buffer, with
``vl``/``vtype`` set by vsetvl(i).  Operations are tail-undisturbed and
honour the v0 mask when the instruction's ``vm`` bit (``inst.aux``) is
0, matching the paper's description of masked dual-issue vector
execution (section VII).

Two interchangeable engines implement the same architectural contract:

``numpy`` (default)
    Whole-register SIMD: every op reinterprets the register file
    through cached per-SEW views (``MachineState.vview_u/s/f``) and
    executes one batched numpy expression per instruction.  Each op is
    a *binder*, which slices the instruction's register groups and
    folds its constants for one vtype, and the *apply* it returns,
    which evaluates the expression over the first vl lanes.  Masking
    is a boolean index unpacked from v0, tails are left untouched by
    slice assignment.  An unmasked unit-stride load or store is one
    byte copy between a ``Memory`` page and ``vbuf``; tier 3 inlines
    that copy into its generated code (``codegen``'s ``vmem`` kind),
    and the handler here is its tier-1/2 form and its oracle, the
    template's fallback for every span the copy cannot serve.  The
    other memory ops go through ``np.frombuffer`` views onto the pages
    (guarded cross-page fallbacks stay batched via span copies).  Shapes numpy
    cannot express bit-identically (div/rem, 128-bit widenings, FP
    reductions, wrapped register groups, MMIO-mapped memory) delegate
    to the reference engine and are counted as fallbacks.

``ref``
    The original per-element pure-Python implementation, retained
    verbatim as the differential oracle.  Selected with
    ``REPRO_VECTOR_ENGINE=ref`` (or :func:`select_engine`).

``VECTOR_EXEC`` is the live dispatch table; :func:`select_engine`
mutates it in place.  Tier 1 looks handlers up in it per step, and
those bind and apply on every call.  Tier 2 links :func:`bind_handler`
per static instruction at translate time: a handler that keeps its
binding while vtype holds.  Tier 3 calls the ``apply`` of a batched
arithmetic op its block proves SEW/LMUL static for directly
(:func:`direct_op` says which, :func:`bind_apply` binds it once per
compiled unit; ``codegen``'s ``vapply`` kind inlines the handler's
counting), and links the handler, counted as specialized under a
static vtype, for every other vector op: the handler is the tier-1/2
form of the op.  Tiers 2 and 3 must therefore be rebuilt (a fresh
:class:`~repro.sim.emulator.Emulator`) after switching engines.

FP ops raise no numpy warnings: their handlers open an
``np.errstate(all="ignore")`` per op, and so does a direct call in the
recording variant of a compiled block; the non-recording variant,
which only ``Emulator.run`` runs, opens none, inside one scope for the
whole run.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Any, Callable, NamedTuple

import numpy as np

from ..isa.instructions import Instruction
from .memory import PAGE_SIZE
from .state import (
    MachineState,
    f16_bits_to_float,
    f32_bits_to_float,
    f64_bits_to_float,
    float_to_f16_bits,
    float_to_f32_bits,
    float_to_f64_bits,
)

VectorHandler = Callable[[MachineState, Instruction], None]

#: The live dispatch table (tier 1 looks it up per step; tiers 2/3 bind
#: handlers at translate time).  Populated by :func:`select_engine`.
VECTOR_EXEC: dict[str, VectorHandler] = {}
#: The per-element reference engine (the differential oracle).
VECTOR_EXEC_REF: dict[str, VectorHandler] = {}
#: The numpy-batched engine.
VECTOR_EXEC_NUMPY: dict[str, VectorHandler] = {}

_FP_UNPACK: dict[int, Callable[[int], float]] = {
    16: f16_bits_to_float, 32: f32_bits_to_float, 64: f64_bits_to_float}
_FP_PACK: dict[int, Callable[[float], int]] = {
    16: float_to_f16_bits, 32: float_to_f32_bits, 64: float_to_f64_bits}


def _vop(*names: str) -> Callable[[VectorHandler], VectorHandler]:
    def register(fn: VectorHandler) -> VectorHandler:
        for name in names:
            VECTOR_EXEC_REF[name] = fn
        return fn
    return register


# ===========================================================================
# The per-element REFERENCE engine (the differential oracle).
#
# This is the original implementation, kept semantically frozen: the
# numpy engine below must be bit-identical to it on every reachable
# input, and the hypothesis differential in tests/sim pins that down.
# ===========================================================================

# -- element access ----------------------------------------------------------

def _read_group(s: MachineState, start: int, sew: int, count: int,
                signed: bool = False, lmul: int | None = None) -> list[int]:
    lmul = lmul if lmul is not None else s.lmul
    width = sew // 8
    # lmul==1 hot path: read straight through the live memoryview —
    # no per-call bytes() copy of the register.
    data: memoryview | bytes = s.vregs[start] if lmul == 1 else bytes(
        b for r in range(lmul) for b in s.vregs[(start + r) % 32])
    out = []
    for idx in range(count):
        value = int.from_bytes(data[idx * width:(idx + 1) * width], "little")
        if signed and value >= 1 << (sew - 1):
            value -= 1 << sew
        out.append(value)
    return out


def _write_group(s: MachineState, start: int, sew: int,
                 values: dict[int, int], lmul: int | None = None) -> None:
    """Write {element-index: value}; untouched elements keep old bytes."""
    lmul = lmul if lmul is not None else s.lmul
    width = sew // 8
    per_reg = s.vlenb // width
    for idx, value in values.items():
        reg = s.vregs[(start + idx // per_reg) % 32]
        off = (idx % per_reg) * width
        reg[off:off + width] = (value & ((1 << sew) - 1)).to_bytes(
            width, "little")


def _active(s: MachineState, inst: Instruction) -> list[int]:
    """Element indices this op touches (vl and mask applied)."""
    if inst.aux:  # unmasked
        return list(range(s.vl))
    return [e for e in range(s.vl) if s.mask_bit(e)]


def _operand_rs1(s: MachineState, inst: Instruction, sew: int,
                 count: int, signed: bool) -> list[int]:
    """The vs1/rs1/imm operand broadcast appropriately."""
    spec = inst.spec
    if spec.rs1_file == "v":
        return _read_group(s, inst.rs1, sew, count, signed)
    if spec.rs1_file == "x":
        scalar = s.regs[inst.rs1] & ((1 << sew) - 1)
        if signed and scalar >= 1 << (sew - 1):
            scalar -= 1 << sew
        return [scalar] * count
    if spec.rs1_file == "f":
        return [s.fregs[inst.rs1]] * count  # raw bits; FP ops unpack
    value = inst.imm
    return [value] * count


# -- configuration -----------------------------------------------------------

@_vop("vsetvli")
def _vsetvli(s: MachineState, i: Instruction) -> None:
    avl = s.regs[i.rs1] if i.rs1 else (s.vlen * 8)  # rs1=x0: VLMAX request
    s.write_x(i.rd, s.set_vtype(i.imm, avl))


@_vop("vsetvl")
def _vsetvl(s: MachineState, i: Instruction) -> None:
    avl = s.regs[i.rs1] if i.rs1 else (s.vlen * 8)
    s.write_x(i.rd, s.set_vtype(s.regs[i.rs2], avl))


# -- integer ALU -------------------------------------------------------------

_IntOp = Callable[[int, int, int], int]


def _int_binop(fn: _IntOp, signed: bool = False) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        active = _active(s, i)
        a = _read_group(s, i.rs2, sew, s.vl, signed)   # vs2
        b = _operand_rs1(s, i, sew, s.vl, signed)      # vs1/rs1/imm
        _write_group(s, i.rd, sew, {e: fn(a[e], b[e], sew) for e in active})
    return handler


VECTOR_EXEC_REF.update({
    f"vadd.{sfx}": _int_binop(lambda x, y, w: x + y)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vsub.{sfx}": _int_binop(lambda x, y, w: x - y)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vrsub.{sfx}": _int_binop(lambda x, y, w: y - x)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vand.{sfx}": _int_binop(lambda x, y, w: x & y)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vor.{sfx}": _int_binop(lambda x, y, w: x | y)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vxor.{sfx}": _int_binop(lambda x, y, w: x ^ y)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vsll.{sfx}": _int_binop(lambda x, y, w: x << (y & (w - 1)))
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vsrl.{sfx}": _int_binop(
        lambda x, y, w: (x & ((1 << w) - 1)) >> (y & (w - 1)))
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vsra.{sfx}": _int_binop(lambda x, y, w: x >> (y & (w - 1)), signed=True)
    for sfx in ("vv", "vx", "vi")})
VECTOR_EXEC_REF.update({
    f"vmin.{sfx}": _int_binop(lambda x, y, w: min(x, y), signed=True)
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vmax.{sfx}": _int_binop(lambda x, y, w: max(x, y), signed=True)
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vminu.{sfx}": _int_binop(lambda x, y, w: min(x, y))
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vmaxu.{sfx}": _int_binop(lambda x, y, w: max(x, y))
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vmul.{sfx}": _int_binop(lambda x, y, w: x * y, signed=True)
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vmulh.{sfx}": _int_binop(lambda x, y, w: (x * y) >> w, signed=True)
    for sfx in ("vv", "vx")})
VECTOR_EXEC_REF.update({
    f"vmulhu.{sfx}": _int_binop(lambda x, y, w: (x * y) >> w)
    for sfx in ("vv", "vx")})


def _int_div(fn: _IntOp, signed: bool) -> VectorHandler:
    def div_op(x: int, y: int, w: int) -> int:
        if y == 0:
            return -1 if signed else (1 << w) - 1
        q = abs(x) // abs(y)
        if (x < 0) != (y < 0):
            q = -q
        return fn(x, y, q)
    return _int_binop(div_op, signed)


VECTOR_EXEC_REF.update({f"vdiv.{s}": _int_div(lambda x, y, q: q, True)
                        for s in ("vv", "vx")})
VECTOR_EXEC_REF.update({f"vdivu.{s}": _int_div(lambda x, y, q: q, False)
                        for s in ("vv", "vx")})
VECTOR_EXEC_REF.update({f"vrem.{s}": _int_div(lambda x, y, q: x - q * y, True)
                        for s in ("vv", "vx")})
VECTOR_EXEC_REF.update({f"vremu.{s}": _int_div(lambda x, y, q: x - q * y,
                                               False)
                        for s in ("vv", "vx")})


def _int_mac(sign: int, dest_is_addend: bool) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        active = _active(s, i)
        a = _read_group(s, i.rs2, sew, s.vl, True)
        b = _operand_rs1(s, i, sew, s.vl, True)
        d = _read_group(s, i.rd, sew, s.vl, True)
        if dest_is_addend:  # vmacc: vd += vs1*vs2
            out = {e: d[e] + sign * a[e] * b[e] for e in active}
        else:               # vmadd: vd = vd*vs1 + vs2
            out = {e: d[e] * b[e] + sign * a[e] for e in active}
        _write_group(s, i.rd, sew, out)
    return handler


for _sfx in ("vv", "vx"):
    VECTOR_EXEC_REF[f"vmacc.{_sfx}"] = _int_mac(1, True)
    VECTOR_EXEC_REF[f"vnmsac.{_sfx}"] = _int_mac(-1, True)
    VECTOR_EXEC_REF[f"vmadd.{_sfx}"] = _int_mac(1, False)


# Widening ops: destination EEW = 2*SEW, EMUL = 2*LMUL.
def _widening(fn: Callable[[int, int], int], mac: bool = False,
              signed: bool = True) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew, wide = s.sew, s.sew * 2
        active = _active(s, i)
        a = _read_group(s, i.rs2, sew, s.vl, signed)
        b = _operand_rs1(s, i, sew, s.vl, signed)
        wide_lmul = min(s.lmul * 2, 8)
        if mac:
            d = _read_group(s, i.rd, wide, s.vl, signed, lmul=wide_lmul)
            out = {e: d[e] + fn(a[e], b[e]) for e in active}
        else:
            out = {e: fn(a[e], b[e]) for e in active}
        _write_group(s, i.rd, wide, out, lmul=wide_lmul)
    return handler


for _sfx in ("vv", "vx"):
    VECTOR_EXEC_REF[f"vwmul.{_sfx}"] = _widening(lambda x, y: x * y)
    VECTOR_EXEC_REF[f"vwmulu.{_sfx}"] = _widening(lambda x, y: x * y,
                                                  signed=False)
    VECTOR_EXEC_REF[f"vwmacc.{_sfx}"] = _widening(lambda x, y: x * y,
                                                  mac=True)
    VECTOR_EXEC_REF[f"vwmaccu.{_sfx}"] = _widening(lambda x, y: x * y,
                                                   mac=True, signed=False)
    VECTOR_EXEC_REF[f"vwadd.{_sfx}"] = _widening(lambda x, y: x + y)
    VECTOR_EXEC_REF[f"vwaddu.{_sfx}"] = _widening(lambda x, y: x + y,
                                                  signed=False)


# Compares write mask bits into vd.
def _compare(fn: Callable[[int, int], bool], signed: bool) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        active = _active(s, i)
        a = _read_group(s, i.rs2, sew, s.vl, signed)
        b = _operand_rs1(s, i, sew, s.vl, signed)
        dest = s.vregs[i.rd]
        for e in active:
            if fn(a[e], b[e]):
                dest[e >> 3] |= 1 << (e & 7)
            else:
                dest[e >> 3] &= ~(1 << (e & 7)) & 0xFF
    return handler


for _sfx in ("vv", "vx"):
    VECTOR_EXEC_REF[f"vmseq.{_sfx}"] = _compare(lambda x, y: x == y, False)
    VECTOR_EXEC_REF[f"vmsne.{_sfx}"] = _compare(lambda x, y: x != y, False)
    VECTOR_EXEC_REF[f"vmsltu.{_sfx}"] = _compare(lambda x, y: x < y, False)
    VECTOR_EXEC_REF[f"vmslt.{_sfx}"] = _compare(lambda x, y: x < y, True)
    VECTOR_EXEC_REF[f"vmsleu.{_sfx}"] = _compare(lambda x, y: x <= y, False)
    VECTOR_EXEC_REF[f"vmsle.{_sfx}"] = _compare(lambda x, y: x <= y, True)


# Merge and moves.
def _merge(s: MachineState, i: Instruction) -> None:
    sew = s.sew
    a = _read_group(s, i.rs2, sew, s.vl)
    b = _operand_rs1(s, i, sew, s.vl, False)
    out = {e: b[e] if s.mask_bit(e) else a[e] for e in range(s.vl)}
    _write_group(s, i.rd, sew, out)


VECTOR_EXEC_REF["vmerge.vvm"] = _merge
VECTOR_EXEC_REF["vmerge.vxm"] = _merge


@_vop("vmv.v.v", "vmv.v.x", "vmv.v.i")
def _vmv_v(s: MachineState, i: Instruction) -> None:
    sew = s.sew
    b = _operand_rs1(s, i, sew, s.vl, False)
    _write_group(s, i.rd, sew, dict(enumerate(b[:s.vl])))


@_vop("vmv.x.s")
def _vmv_x_s(s: MachineState, i: Instruction) -> None:
    value = _read_group(s, i.rs2, s.sew, 1, signed=True)[0]
    s.write_x(i.rd, value)


@_vop("vmv.s.x")
def _vmv_s_x(s: MachineState, i: Instruction) -> None:
    _write_group(s, i.rd, s.sew, {0: s.regs[i.rs1]})


# Reductions: vd[0] = reduce(vs2[0..vl-1], init=vs1[0]).
def _reduce(fn: Callable[[Any, Any], Any], signed: bool,
            fp: bool = False) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        elems = _read_group(s, i.rs2, sew, s.vl, signed)
        init = _read_group(s, i.rs1, sew, 1, signed)[0]
        if fp:
            unpack, pack = _FP_UNPACK[sew], _FP_PACK[sew]
            acc = unpack(init)
            for e in _active(s, i):
                acc = fn(acc, unpack(elems[e]))
            _write_group(s, i.rd, sew, {0: pack(acc)})
            return
        acc = init
        for e in _active(s, i):
            acc = fn(acc, elems[e])
        _write_group(s, i.rd, sew, {0: acc})
    return handler


VECTOR_EXEC_REF["vredsum.vs"] = _reduce(lambda a, b: a + b, True)
VECTOR_EXEC_REF["vredmax.vs"] = _reduce(max, True)
VECTOR_EXEC_REF["vredmin.vs"] = _reduce(min, True)
VECTOR_EXEC_REF["vredmaxu.vs"] = _reduce(max, False)
VECTOR_EXEC_REF["vredminu.vs"] = _reduce(min, False)
VECTOR_EXEC_REF["vredand.vs"] = _reduce(lambda a, b: a & b, False)
VECTOR_EXEC_REF["vredor.vs"] = _reduce(lambda a, b: a | b, False)
VECTOR_EXEC_REF["vredxor.vs"] = _reduce(lambda a, b: a ^ b, False)
VECTOR_EXEC_REF["vfredsum.vs"] = _reduce(lambda a, b: a + b, False, fp=True)
VECTOR_EXEC_REF["vfredmax.vs"] = _reduce(max, False, fp=True)
VECTOR_EXEC_REF["vfredmin.vs"] = _reduce(min, False, fp=True)


# Mask-register logical operations: bitwise over the first vl bits.
def _mask_logical(fn: Callable[[int, int], int]) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        dest = s.vregs[i.rd]
        a = s.vregs[i.rs2]
        b = s.vregs[i.rs1]
        for e in range(s.vl):
            byte, bit = e >> 3, e & 7
            va = (a[byte] >> bit) & 1
            vb = (b[byte] >> bit) & 1
            if fn(va, vb):
                dest[byte] |= 1 << bit
            else:
                dest[byte] &= ~(1 << bit) & 0xFF
    return handler


VECTOR_EXEC_REF["vmand.mm"] = _mask_logical(lambda a, b: a & b)
VECTOR_EXEC_REF["vmor.mm"] = _mask_logical(lambda a, b: a | b)
VECTOR_EXEC_REF["vmxor.mm"] = _mask_logical(lambda a, b: a ^ b)
VECTOR_EXEC_REF["vmnand.mm"] = _mask_logical(lambda a, b: 1 - (a & b))
VECTOR_EXEC_REF["vmnor.mm"] = _mask_logical(lambda a, b: 1 - (a | b))
VECTOR_EXEC_REF["vmxnor.mm"] = _mask_logical(lambda a, b: 1 - (a ^ b))


@_vop("vid.v")
def _vid(s: MachineState, i: Instruction) -> None:
    out = {e: e for e in _active(s, i)}
    _write_group(s, i.rd, s.sew, out)


@_vop("vcpop.m")
def _vcpop(s: MachineState, i: Instruction) -> None:
    src = s.vregs[i.rs2]
    count = 0
    for e in range(s.vl):
        if not i.aux and not s.mask_bit(e):
            continue
        if (src[e >> 3] >> (e & 7)) & 1:
            count += 1
    s.write_x(i.rd, count)


# Permutations.
@_vop("vslideup.vx", "vslideup.vi")
def _vslideup(s: MachineState, i: Instruction) -> None:
    offset = s.regs[i.rs1] if i.spec.rs1_file == "x" else i.imm
    src = _read_group(s, i.rs2, s.sew, s.vl)
    out = {e: src[e - offset] for e in _active(s, i) if e >= offset}
    _write_group(s, i.rd, s.sew, out)


@_vop("vslidedown.vx", "vslidedown.vi")
def _vslidedown(s: MachineState, i: Instruction) -> None:
    offset = s.regs[i.rs1] if i.spec.rs1_file == "x" else i.imm
    src = _read_group(s, i.rs2, s.sew, s.vlmax)
    out = {e: (src[e + offset] if e + offset < s.vlmax else 0)
           for e in _active(s, i)}
    _write_group(s, i.rd, s.sew, out)


@_vop("vrgather.vv")
def _vrgather(s: MachineState, i: Instruction) -> None:
    indexes = _read_group(s, i.rs1, s.sew, s.vl)
    src = _read_group(s, i.rs2, s.sew, s.vlmax)
    out = {e: (src[indexes[e]] if indexes[e] < s.vlmax else 0)
           for e in _active(s, i)}
    _write_group(s, i.rd, s.sew, out)


# -- FP ----------------------------------------------------------------------

def _fp_operand(s: MachineState, i: Instruction, sew: int,
                count: int) -> list[float]:
    unpack = _FP_UNPACK[sew]
    if i.spec.rs1_file == "v":
        return [unpack(v) for v in _read_group(s, i.rs1, sew, count)]
    # scalar f register broadcast: take the raw low sew bits
    return [unpack(s.fregs[i.rs1])] * count


_FloatOp = Callable[[float, float], float]


def _fp_binop(fn: _FloatOp) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        unpack, pack = _FP_UNPACK[sew], _FP_PACK[sew]
        active = _active(s, i)
        a = [unpack(v) for v in _read_group(s, i.rs2, sew, s.vl)]
        b = _fp_operand(s, i, sew, s.vl)
        out = {}
        for e in active:
            try:
                out[e] = pack(fn(a[e], b[e]))
            except ZeroDivisionError:
                out[e] = pack(float("inf") if a[e] > 0 else float("-inf"))
        _write_group(s, i.rd, sew, out)
    return handler


for _sfx in ("vv", "vf"):
    VECTOR_EXEC_REF[f"vfadd.{_sfx}"] = _fp_binop(lambda x, y: x + y)
    VECTOR_EXEC_REF[f"vfsub.{_sfx}"] = _fp_binop(lambda x, y: x - y)
    VECTOR_EXEC_REF[f"vfmul.{_sfx}"] = _fp_binop(lambda x, y: x * y)
    VECTOR_EXEC_REF[f"vfdiv.{_sfx}"] = _fp_binop(lambda x, y: x / y)
    VECTOR_EXEC_REF[f"vfmin.{_sfx}"] = _fp_binop(min)
    VECTOR_EXEC_REF[f"vfmax.{_sfx}"] = _fp_binop(max)


def _fp_mac(sign_prod: int, dest_is_addend: bool) -> VectorHandler:
    def handler(s: MachineState, i: Instruction) -> None:
        sew = s.sew
        unpack, pack = _FP_UNPACK[sew], _FP_PACK[sew]
        active = _active(s, i)
        a = [unpack(v) for v in _read_group(s, i.rs2, sew, s.vl)]
        b = _fp_operand(s, i, sew, s.vl)
        d = [unpack(v) for v in _read_group(s, i.rd, sew, s.vl)]
        if dest_is_addend:
            out = {e: pack(sign_prod * a[e] * b[e] + d[e]) for e in active}
        else:
            out = {e: pack(sign_prod * d[e] * b[e] + a[e]) for e in active}
        _write_group(s, i.rd, sew, out)
    return handler


for _sfx in ("vv", "vf"):
    VECTOR_EXEC_REF[f"vfmacc.{_sfx}"] = _fp_mac(1, True)
    VECTOR_EXEC_REF[f"vfnmacc.{_sfx}"] = _fp_mac(-1, True)
    VECTOR_EXEC_REF[f"vfmadd.{_sfx}"] = _fp_mac(1, False)


@_vop("vfsqrt.v")
def _vfsqrt(s: MachineState, i: Instruction) -> None:
    sew = s.sew
    unpack, pack = _FP_UNPACK[sew], _FP_PACK[sew]
    a = [unpack(v) for v in _read_group(s, i.rs2, sew, s.vl)]
    out = {e: pack(math.sqrt(a[e]) if a[e] >= 0 else float("nan"))
           for e in _active(s, i)}
    _write_group(s, i.rd, sew, out)


# -- memory ------------------------------------------------------------------

def _mem_group_lmul(s: MachineState, width: int) -> int:
    """Effective destination-group LMUL for a vl*width-byte access."""
    return max(1, (s.vl * width + s.vlenb - 1) // s.vlenb)


def _vload(s: MachineState, i: Instruction) -> None:
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    stride = s.regs[i.rs2] if i.spec.fmt == "VLS" else width
    out = {}
    for e in _active(s, i):
        out[e] = s.memory.load_int(base + e * stride, width)
    _write_group(s, i.rd, width * 8, out, lmul=_mem_group_lmul(s, width))
    s.side.mem_addr = base
    s.side.mem_size = max(s.vl, 1) * (stride if stride > 0 else width)


def _vstore(s: MachineState, i: Instruction) -> None:
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    stride = s.regs[i.rs2] if i.spec.fmt == "VSS" else width
    values = _read_group(s, i.rs3, width * 8, s.vl,
                         lmul=_mem_group_lmul(s, width))
    for e in _active(s, i):
        s.memory.store_int(base + e * stride, values[e], width)
    s.side.mem_addr = base
    s.side.mem_size = max(s.vl, 1) * (stride if stride > 0 else width)


def _vload_indexed(s: MachineState, i: Instruction) -> None:
    """vlxei*: data EEW from the mnemonic, indices at SEW from vs2."""
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    idx = _read_group(s, i.rs2, s.sew, s.vl)
    out = {}
    for e in _active(s, i):
        out[e] = s.memory.load_int(base + idx[e], width)
    _write_group(s, i.rd, width * 8, out, lmul=_mem_group_lmul(s, width))
    s.side.mem_addr = base
    s.side.mem_size = max(s.vl, 1) * width


def _vstore_indexed(s: MachineState, i: Instruction) -> None:
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    idx = _read_group(s, i.rs2, s.sew, s.vl)
    values = _read_group(s, i.rs3, width * 8, s.vl,
                         lmul=_mem_group_lmul(s, width))
    for e in _active(s, i):
        s.memory.store_int(base + idx[e], values[e], width)
    s.side.mem_addr = base
    s.side.mem_size = max(s.vl, 1) * width


for _w in (8, 16, 32, 64):
    VECTOR_EXEC_REF[f"vle{_w}.v"] = _vload
    VECTOR_EXEC_REF[f"vlse{_w}.v"] = _vload
    VECTOR_EXEC_REF[f"vse{_w}.v"] = _vstore
    VECTOR_EXEC_REF[f"vsse{_w}.v"] = _vstore
    VECTOR_EXEC_REF[f"vlxei{_w}.v"] = _vload_indexed
    VECTOR_EXEC_REF[f"vsxei{_w}.v"] = _vstore_indexed


# ===========================================================================
# The numpy-batched engine.
#
# Every batched op is split in two.  Its *binder*, ``bind(s, i, sew,
# lmul)``, slices the instruction's register groups out of the per-SEW
# views and folds its constants; it returns the op's *apply*, a closure
# ``apply(vl, m)`` that evaluates the op's one numpy expression over
# lanes [0, vl) under the active-lane mask m (None = every lane); at
# vl = 0 it writes no lane (a reduction or vcpop still writes vd[0] or
# rd, as the reference does).  The
# binder returns None where the engine cannot run the op exactly at
# that vtype (a group wrapping past v31, a 128-bit intermediate, a
# clamped EMUL): the op then falls back to the reference engine.  A
# binding depends only on the static instruction and the vtype
# (``vbuf`` and its views are never reallocated), so :func:`bind_handler`
# gives tiers 2 and 3 one handler per static instruction that binds on
# first use and again only when vtype changes; the tier-1 handlers in
# ``VECTOR_EXEC_NUMPY`` bind on every call.  The hottest applies keep
# the lane views of the last vl they ran with and slice again only when
# vl changes: each slice is a numpy call, and one static instruction
# mostly runs at one vl.
# ===========================================================================

_DT_U: dict[int, Any] = {8: np.uint8, 16: np.uint16,
                         32: np.uint32, 64: np.uint64}
_DT_S: dict[int, Any] = {8: np.int8, 16: np.int16,
                         32: np.int32, 64: np.int64}
_DT_F: dict[int, Any] = {16: np.float16, 32: np.float32, 64: np.float64}

#: ``apply(vl, m)``: a bound op over lanes [0, vl) under mask m
Apply = Callable[[int, Any], None]
#: ``bind(s, i, sew, lmul)``: the instruction's Apply, or None to fall back
Binder = Callable[[MachineState, Instruction, int, int], "Apply | None"]


class _NpOp(NamedTuple):
    """A batched op: its binder, and how a handler drives its apply."""

    bind: Binder
    #: the handler counts the op and builds its mask before apply; else
    #: apply counts, after run-time fallback tests of its own
    counted: bool = True
    #: apply may raise FP flags, so it runs under ``np.errstate``
    fp: bool = False
    #: counts as ``specialized_ops`` when tier 3 links it under a vtype
    #: its block proves static
    specializable: bool = True


#: mnemonic -> batched op
_NP_OPS: dict[str, _NpOp] = {}
#: the formats of the vector loads and stores
_MEM_FMTS = frozenset({"VL", "VS", "VLS", "VSS", "VLX", "VSX"})


def _fb(s: MachineState, i: Instruction) -> None:
    """Delegate to the reference engine, counting the fallback."""
    s.vec_counters["fallback_ops"] += 1
    VECTOR_EXEC_REF[i.spec.mnemonic](s, i)


def _group(s: MachineState, start: int, sew: int, count: int,
           signed: bool = False) -> Any:
    """Typed lane view of *count* registers starting at v[start].

    Returns None when the group wraps past v31 (the reference engine
    handles that via modular register numbering; we fall back).
    """
    per = (s.vlenb * 8) // sew
    lo = start * per
    hi = lo + count * per
    view = s.vview_s[sew] if signed else s.vview_u[sew]
    if hi > 32 * per:
        return None
    return view[lo:hi]


def _group_f(s: MachineState, start: int, sew: int, count: int) -> Any:
    per = (s.vlenb * 8) // sew
    lo = start * per
    hi = lo + count * per
    if hi > 32 * per:
        return None
    return s.vview_f[sew][lo:hi]


def _mask_bools(s: MachineState, vl: int) -> Any:
    """First *vl* bits of v0 as a boolean lane mask."""
    nbytes = (vl + 7) >> 3
    return np.unpackbits(s.vbuf[:nbytes],
                         bitorder="little")[:vl].astype(bool)


def _begin(s: MachineState, i: Instruction, vl: int) -> Any:
    """Count the batched op; return the active-lane mask (None=all)."""
    c = s.vec_counters
    c["batched_ops"] += 1
    c["elems_total"] += vl
    if i.aux:
        c["elems_active"] += vl
        return None
    c["masked_ops"] += 1
    m = _mask_bools(s, vl)
    c["elems_active"] += int(np.count_nonzero(m))
    return m


def _masked_store(dst: Any, m: Any, res: Any) -> None:
    if m is None:
        dst[:] = res
    else:
        np.putmask(dst, m, res)


def _rs1_lanes(s: MachineState, i: Instruction, sew: int, lmul: int,
               signed: bool) -> Any:
    """vs1's lane view, or a zero-argument reader of the x-register or
    immediate operand as a dtype scalar; None when the vs1 group wraps.
    """
    spec = i.spec
    if spec.rs1_file == "v":
        return _group(s, i.rs1, sew, lmul, signed)
    dt = _DT_S[sew] if signed else _DT_U[sew]

    def scalar(value: int) -> Any:
        value &= (1 << sew) - 1
        if signed and value >= 1 << (sew - 1):
            value -= 1 << sew
        return dt(value)

    if spec.rs1_file == "x":
        regs, rs1 = s.regs, i.rs1
        return lambda: scalar(regs[rs1])
    imm = scalar(i.imm)
    return lambda: imm


def _handler(op: _NpOp, cache: bool,
             static: tuple[int, int] | None = None,
             scoped: bool = True) -> VectorHandler:
    """The one driver of a batched op.

    With *cache* it serves ONE static instruction: the binding is kept
    and redone only when ``state.vtype`` differs from the vtype it was
    made for.  Without, it serves every instruction of its mnemonic and
    binds on each call (tier 1).  A *static* (SEW, LMUL), proven for
    the instruction, is bound with and counts each call as a
    ``specialized_ops``; *scoped* opens an ``np.errstate`` around an FP
    apply (the caller holds none).
    """
    bind, counted = op.bind, op.counted
    specialized = static is not None and op.specializable
    guard = op.fp and scoped
    vtype = -1
    apply: Apply | None = None

    def handler(s: MachineState, i: Instruction) -> None:
        nonlocal vtype, apply
        if s.vtype != vtype:
            sew, lmul = static or (s.sew, s.lmul)
            apply = bind(s, i, sew, lmul)
            if cache:
                vtype = s.vtype
        run = apply
        if specialized:
            s.vec_counters["specialized_ops"] += 1
        if run is None:
            _fb(s, i)
            return
        vl = s.vl
        m = None
        if counted:
            if i.aux:
                c = s.vec_counters
                c["batched_ops"] += 1
                c["elems_total"] += vl
                c["elems_active"] += vl
            else:
                m = _begin(s, i, vl)
        if guard:
            with np.errstate(all="ignore"):
                run(vl, m)
        else:
            run(vl, m)
    return handler


def _np_op(names: tuple[str, ...], bind: Binder, **how: bool) -> None:
    """Register a batched op under *names* (its tier-1 handlers)."""
    op = _NpOp(bind, **how)
    for name in names:
        _NP_OPS[name] = op
        VECTOR_EXEC_NUMPY[name] = _handler(op, cache=False)


# -- integer binders ---------------------------------------------------------

def _int_binop(op_at: Callable[[int], Callable[[Any, Any], Any]],
               signed: bool) -> Binder:
    """*op_at(sew)* is the lane operation (a ufunc where one fits)."""
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        dst = _group(s, i.rd, sew, lmul, signed)
        a = _group(s, i.rs2, sew, lmul, signed)
        b = _rs1_lanes(s, i, sew, lmul, signed)
        if dst is None or a is None or b is None:
            return None
        vec = isinstance(b, np.ndarray)
        op = op_at(sew)
        last, av, bv, d = -1, a, b, dst   # the lanes of the last vl

        def apply(vl: int, m: Any) -> None:
            nonlocal last, av, bv, d
            if vl != last:
                last, av, d = vl, a[:vl], dst[:vl]
                if vec:
                    bv = b[:vl]
            res = op(av, bv if vec else b())
            if m is None:
                d[...] = res
            else:
                np.putmask(d, m, res)
        return apply
    return bind


def _mulh(signed: bool) -> Binder:
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        if sew == 64:  # needs a 128-bit intermediate: per-element math
            return None
        dst = _group(s, i.rd, sew, lmul, signed)
        a = _group(s, i.rs2, sew, lmul, signed)
        b = _rs1_lanes(s, i, sew, lmul, signed)
        if dst is None or a is None or b is None:
            return None
        vec = isinstance(b, np.ndarray)
        wd = _DT_S[sew * 2] if signed else _DT_U[sew * 2]
        shift = wd(sew)

        def apply(vl: int, m: Any) -> None:
            aw = a[:vl].astype(wd)
            bw = b[:vl].astype(wd) if vec else wd(int(b()))
            _masked_store(dst[:vl], m,
                          ((aw * bw) >> shift).astype(dst.dtype))
        return apply
    return bind


def _int_mac(sign: int, dest_is_addend: bool) -> Binder:
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        dst = _group(s, i.rd, sew, lmul, True)
        a = _group(s, i.rs2, sew, lmul, True)
        b = _rs1_lanes(s, i, sew, lmul, True)
        if dst is None or a is None or b is None:
            return None
        vec = isinstance(b, np.ndarray)
        sgn = dst.dtype.type(sign)

        def apply(vl: int, m: Any) -> None:
            d = dst[:vl]
            bb = b[:vl] if vec else b()
            if dest_is_addend:  # vmacc/vnmsac: vd += sign * vs1*vs2
                res = d + sgn * (a[:vl] * bb)
            else:               # vmadd: vd = vd*vs1 + vs2
                res = d * bb + sgn * a[:vl]
            _masked_store(d, m, res)
        return apply
    return bind


def _widening(mul: bool, mac: bool, signed: bool) -> Binder:
    """Destination EEW = 2*SEW, EMUL = 2*LMUL."""
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        if sew == 64 or lmul * 2 > 8:
            return None  # 128-bit lanes / clamped EMUL: per-element path
        wd = _DT_S[sew * 2] if signed else _DT_U[sew * 2]
        dst = _group(s, i.rd, sew * 2, lmul * 2, signed)
        a = _group(s, i.rs2, sew, lmul, signed)
        b = _rs1_lanes(s, i, sew, lmul, signed)
        if dst is None or a is None or b is None:
            return None
        vec = isinstance(b, np.ndarray)
        ufunc = np.multiply if mul else np.add
        last, av, bv, d = -1, a, b, dst   # the lanes of the last vl

        def apply(vl: int, m: Any) -> None:
            nonlocal last, av, bv, d
            if vl != last:
                last, av, d = vl, a[:vl], dst[:vl]
                if vec:
                    bv = b[:vl]
            # dtype=wd widens both operands before the op
            res = ufunc(av, bv if vec else wd(int(b())), dtype=wd)
            if m is not None:
                if mac:
                    res += d
                np.putmask(d, m, res)
            elif mac:
                d += res             # wraps as res + d does
            else:
                d[...] = res
        return apply
    return bind


def _compare(op: Any, signed: bool) -> Binder:
    """Mask-producing compares: one bit per lane of v[rd]."""
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        a = _group(s, i.rs2, sew, lmul, signed)
        b = _rs1_lanes(s, i, sew, lmul, signed)
        if a is None or b is None:
            return None
        vec = isinstance(b, np.ndarray)
        lo = i.rd * s.vlenb
        dest = s.vbuf[lo:lo + s.vlenb]
        last, av, bv = -1, a, b           # the lanes of the last vl

        def apply(vl: int, m: Any) -> None:
            nonlocal last, av, bv
            if vl != last:
                last, av = vl, a[:vl]
                if vec:
                    bv = b[:vl]
            res = op(av, bv if vec else b())
            if m is None and not vl & 7:
                # whole bytes: pack the lanes straight into v[rd]
                dest[:vl >> 3] = np.packbits(res, bitorder="little")
                return
            bits = np.unpackbits(dest, bitorder="little")
            _masked_store(bits[:vl], m, res)
            dest[:] = np.packbits(bits, bitorder="little")
        return apply
    return bind


def _bind_merge(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    a = _group(s, i.rs2, sew, lmul)
    b = _rs1_lanes(s, i, sew, lmul, False)
    if dst is None or a is None or b is None:
        return None
    vec = isinstance(b, np.ndarray)

    def apply(vl: int, m: Any) -> None:
        # v0 selects, so every lane is written: counted masked, all active
        c = s.vec_counters
        c["batched_ops"] += 1
        c["masked_ops"] += 1
        c["elems_total"] += vl
        c["elems_active"] += vl
        if vl:
            dst[:vl] = np.where(_mask_bools(s, vl),
                                b[:vl] if vec else b(), a[:vl])
    return apply


def _bind_vmv_v(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    b = _rs1_lanes(s, i, sew, lmul, False)
    if dst is None or b is None:
        return None
    vec = isinstance(b, np.ndarray)

    def apply(vl: int, m: Any) -> None:
        dst[:vl] = b[:vl] if vec else b()
    return apply


def _reduce(fold: Any, signed: bool) -> Binder:
    """vd[0] = fold(vs2[active lanes], init=vs1[0]), in the lane dtype:
    a sum wraps at SEW bits, as the reference's masked write does."""
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        elems = _group(s, i.rs2, sew, lmul, signed)
        init = _group(s, i.rs1, sew, 1, signed)
        dst = _group(s, i.rd, sew, 1, signed)
        if elems is None or init is None or dst is None:
            return None
        dt = elems.dtype

        def apply(vl: int, m: Any) -> None:
            sel = elems[:vl] if m is None else elems[:vl][m]
            dst[0] = fold.reduce(sel, dtype=dt, initial=init[0])
        return apply
    return bind


def _mask_logical(op: Callable[[Any, Any], Any]) -> Binder:
    """Mask-register logic: bitwise over the first vl bits."""
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        vlenb, buf = s.vlenb, s.vbuf
        a = buf[i.rs2 * vlenb:(i.rs2 + 1) * vlenb]
        b = buf[i.rs1 * vlenb:(i.rs1 + 1) * vlenb]
        d = buf[i.rd * vlenb:(i.rd + 1) * vlenb]

        def apply(vl: int, m: Any) -> None:
            c = s.vec_counters
            c["batched_ops"] += 1
            c["elems_total"] += vl
            c["elems_active"] += vl
            if not vl:
                return
            bits = np.unpackbits(d, bitorder="little")
            bits[:vl] = op(np.unpackbits(a, bitorder="little")[:vl],
                           np.unpackbits(b, bitorder="little")[:vl]) & 1
            d[:] = np.packbits(bits, bitorder="little")
        return apply
    return bind


def _bind_vid(s: MachineState, i: Instruction, sew: int,
              lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    if dst is None:
        return None

    def apply(vl: int, m: Any) -> None:
        _masked_store(dst[:vl], m, np.arange(vl).astype(dst.dtype))
    return apply


def _bind_vcpop(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> Apply | None:
    vlenb = s.vlenb
    src = s.vbuf.data[i.rs2 * vlenb:(i.rs2 + 1) * vlenb]
    v0 = s.vbuf.data[:vlenb]
    rd = i.rd

    def apply(vl: int, m: Any) -> None:
        bits = int.from_bytes(src, "little") & ((1 << vl) - 1)
        if m is not None:
            bits &= int.from_bytes(v0, "little")
        s.write_x(rd, bits.bit_count())
    return apply


def _offset(s: MachineState, i: Instruction) -> Callable[[], int] | None:
    """The slide amount's reader; None for a negative immediate."""
    if i.spec.rs1_file == "x":
        regs, rs1 = s.regs, i.rs1
        return lambda: regs[rs1]
    imm = i.imm
    return None if imm < 0 else (lambda: imm)


def _bind_slideup(s: MachineState, i: Instruction, sew: int,
                  lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    offset = _offset(s, i)
    if dst is None or src is None or offset is None:
        return None

    def apply(vl: int, m: Any) -> None:
        off = offset()
        if off >= vl:
            return
        res = src[:vl - off].copy()  # dst may alias src: snapshot first
        _masked_store(dst[off:vl], m if m is None else m[off:], res)
    return apply


def _bind_slidedown(s: MachineState, i: Instruction, sew: int,
                    lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    offset = _offset(s, i)
    if dst is None or src is None or offset is None:
        return None
    vlmax = (s.vlen * lmul) // sew

    def apply(vl: int, m: Any) -> None:
        off = offset()
        res = np.zeros(vl, dtype=dst.dtype)
        if off < vlmax:
            n = min(vl, vlmax - off)
            res[:n] = src[off:off + n]
        _masked_store(dst[:vl], m, res)
    return apply


def _bind_rgather(s: MachineState, i: Instruction, sew: int,
                  lmul: int) -> Apply | None:
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    idx = _group(s, i.rs1, sew, lmul)
    if dst is None or src is None or idx is None:
        return None
    vlmax = (s.vlen * lmul) // sew
    dt = _DT_U[sew]
    table = src[:vlmax]

    def apply(vl: int, m: Any) -> None:
        lanes = idx[:vl]
        valid = (lanes < dt(vlmax) if vlmax < (1 << sew)
                 else np.ones(vl, dtype=bool))
        safe = np.where(valid, lanes, dt(0)).astype(np.int64)
        res = table[safe]
        res[~valid] = 0
        _masked_store(dst[:vl], m, res)
    return apply


# -- FP binders --------------------------------------------------------------
#
# Lanes widen to float64, compute there and round once to the target
# format: the reference engine's Python-float arithmetic.  An
# expression's first operand is float64, so numpy widens the float16/32
# lanes it meets (exactly) instead of an astype per operand.

def _fp_groups(s: MachineState, i: Instruction, sew: int,
               lmul: int) -> tuple[Any, Any, Any] | None:
    """(vd bits, vd lanes, vs2 lanes) of an FP op, or None to fall back."""
    if sew not in _DT_F:
        return None
    dst = _group(s, i.rd, sew, lmul)
    df = _group_f(s, i.rd, sew, lmul)
    a = _group_f(s, i.rs2, sew, lmul)
    if dst is None or a is None:
        return None
    return dst, df, a


#: SEW -> the struct pair ``f*_bits_to_float`` packs and unpacks with
_FP_STRUCTS: dict[int, tuple[Callable[..., bytes], Callable[..., Any]]] = {
    sew: (struct.Struct(bits).pack, struct.Struct(lane).unpack)
    for sew, bits, lane in ((16, "<H", "<e"), (32, "<I", "<f"),
                            (64, "<Q", "<d"))}


def _fp_rs1(s: MachineState, i: Instruction, sew: int, lmul: int) -> Any:
    """vs1's float lanes, or a reader of the f-register operand (its raw
    low *sew* bits) as a float64; None when the vs1 group wraps.

    The scalar stays a ``np.float64``: under NEP 50 a Python float is a
    "weak" scalar, which would compute float16/32 lanes in their own
    precision instead of widening them."""
    if i.spec.rs1_file == "v":
        return _group_f(s, i.rs1, sew, lmul)
    fregs, rs1, f64 = s.fregs, i.rs1, np.float64
    pack, unpack = _FP_STRUCTS[sew]
    mask = (1 << sew) - 1
    return lambda: f64(unpack(pack(fregs[rs1] & mask))[0])


def _fp_store(dst: Any, df: Any, vl: int, m: Any, res64: Any) -> None:
    """Round float64 results to the target format and store them."""
    if m is None:
        df[:vl] = res64
    else:
        np.putmask(dst[:vl], m, res64.astype(df.dtype).view(dst.dtype))


def _fp_binop(op: Callable[[Any, Any], Any]) -> Binder:
    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        groups = _fp_groups(s, i, sew, lmul)
        b = _fp_rs1(s, i, sew, lmul)
        if groups is None or b is None:
            return None
        dst, df, a = groups
        vec = isinstance(b, np.ndarray)

        def apply(vl: int, m: Any) -> None:
            _fp_store(dst, df, vl, m, op(a[:vl].astype(np.float64),
                                         b[:vl] if vec else b()))
        return apply
    return bind


def _fdiv_op(a: Any, b: Any) -> Any:
    # The reference engine's try/except ZeroDivisionError shape: ANY
    # zero divisor (either sign) yields +/-inf by the sign test on a,
    # with non-positive/NaN dividends mapping to -inf.
    r = a / b
    return np.where(b == 0.0, np.where(a > 0.0, np.float64(np.inf),
                                       np.float64(-np.inf)), r)


def _fp_mac(sign_prod: int, dest_is_addend: bool) -> Binder:
    sp = np.float64(sign_prod)

    def bind(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> Apply | None:
        groups = _fp_groups(s, i, sew, lmul)
        b = _fp_rs1(s, i, sew, lmul)
        if groups is None or b is None:
            return None
        dst, df, a = groups
        vec = isinstance(b, np.ndarray)
        mul, f64 = np.multiply, np.float64
        last, av, bv, d = -1, a, b, df    # the lanes of the last vl

        def apply(vl: int, m: Any) -> None:
            nonlocal last, av, bv, d
            if vl != last:
                last, av, d = vl, a[:vl], df[:vl]
                if vec:
                    bv = b[:vl]
            bb = bv if vec else b()
            if m is None and sign_prod > 0:
                # the float64 product and sum of the expression below,
                # in place, rounded once by the store (a float32/16 .vv
                # product must widen: dtype=f64)
                if dest_is_addend:
                    x = mul(av, bb, dtype=f64) if vec else av * bb
                    x += d
                else:
                    x = mul(d, bb, dtype=f64) if vec else d * bb
                    x += av
                d[...] = x
                return
            # masked, or a -1 sign, which keeps the sp multiply:
            # np.negative would flip a NaN's sign bit
            if dest_is_addend:  # vd = sign * vs1*vs2 + vd
                res = sp * av * bb + d
            else:               # vd = sign * vd*vs1 + vs2
                res = sp * d * bb + av
            _fp_store(dst, df, vl, m, res)
        return apply
    return bind


def _bind_fsqrt(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> Apply | None:
    groups = _fp_groups(s, i, sew, lmul)
    if groups is None:
        return None
    dst, df, a = groups

    def apply(vl: int, m: Any) -> None:
        a64 = a[:vl].astype(np.float64)
        # negative inputs produce the reference's canonical float("nan");
        # -0.0 passes the >= 0 test and keeps sqrt(-0.0) == -0.0.
        _fp_store(dst, df, vl, m, np.where(a64 >= 0.0, np.sqrt(a64),
                                           np.float64(float("nan"))))
    return apply


# -- memory binders ----------------------------------------------------------
#
# A memory op's register group spans ceil(vl*width / VLENB) registers,
# which vl decides, not vtype: the binders keep the file's view from the
# group's first lane on, and each apply tests the group's end against
# the file (``_group``'s wrap test) and counts the op itself.

def _vload_any(s: MachineState, i: Instruction, vl: int) -> None:
    """A load no single page copy serves: strided, masked, or a span
    that is cross-page, unallocated or MMIO."""
    spec = i.spec
    width = spec.mem_bytes
    base = s.regs[i.rs1]
    mem = s.memory
    strided = spec.fmt == "VLS"
    stride = s.regs[i.rs2] if strided else width
    dst = _group(s, i.rd, width * 8, _mem_group_lmul(s, width))
    span = (vl - 1) * stride + width if vl else 0
    if (dst is None or mem.has_mmio or stride <= 0
            or span > 4 * PAGE_SIZE):
        _fb(s, i)  # wrapped group / MMIO / degenerate or huge stride
        return
    m = _begin(s, i, vl)
    if vl:
        dt = _DT_U[width * 8]
        view = mem.ram_view(base, span)
        buf = (np.frombuffer(view, dtype=np.uint8) if view is not None
               else np.frombuffer(mem.load_bytes(base, span),
                                  dtype=np.uint8))
        if stride == width:
            vals = buf.view(dt)
        else:
            rows = np.arange(vl, dtype=np.int64) * stride
            cols = np.arange(width, dtype=np.int64)
            vals = buf[rows[:, None] + cols[None, :]].view(dt).ravel()
        _masked_store(dst[:vl], m, vals)
    s.side.mem_addr = base
    s.side.mem_size = max(vl, 1) * (stride if stride > 0 else width)


def _vstore_any(s: MachineState, i: Instruction, vl: int) -> None:
    """A store no single byte copy serves: strided, masked or MMIO."""
    spec = i.spec
    width = spec.mem_bytes
    base = s.regs[i.rs1]
    mem = s.memory
    strided = spec.fmt == "VSS"
    stride = s.regs[i.rs2] if strided else width
    src = _group(s, i.rs3, width * 8, _mem_group_lmul(s, width))
    if src is None or mem.has_mmio or (strided and stride < width):
        _fb(s, i)  # wrapped group / MMIO / overlapping lanes (order!)
        return
    m = _begin(s, i, vl)
    if vl and (m is None or m.any()):
        vals = src[:vl]
        span = (vl - 1) * stride + width
        view = mem.ram_view(base, span, allocate=True)
        if view is not None:
            lanes = np.frombuffer(view, dtype=np.uint8)
            if stride == width:
                _masked_store(lanes.view(_DT_U[width * 8]), m, vals)
            else:
                rows = np.arange(vl, dtype=np.int64) * stride
                cols = np.arange(width, dtype=np.int64)
                byte_idx = rows[:, None] + cols[None, :]
                vb = vals.view(np.uint8).reshape(vl, width)
                if m is None:
                    lanes[byte_idx] = vb
                else:
                    lanes[byte_idx[m]] = vb[m]
        elif stride == width and m is None:
            # contiguous cross-page: every byte in the span is written,
            # so the bulk path allocates exactly the pages the
            # reference's per-element stores would.
            mem.store_bytes(base, vals.tobytes())
        else:
            # masked/strided cross-page: per-element keeps page
            # allocation identical (no page under an inactive lane).
            st = mem.store_int
            active = range(vl) if m is None else np.nonzero(m)[0]
            for e in active:
                st(base + int(e) * stride, int(vals[e]), width)
    s.side.mem_addr = base
    s.side.mem_size = max(vl, 1) * (stride if stride > 0 else width)


def _bind_vload(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> Apply | None:
    if not i.aux or i.spec.fmt == "VLS":
        return lambda vl, m: _vload_any(s, i, vl)
    # Unmasked unit-stride: the group's bytes are the span's bytes, so
    # one slice copy from the page is the whole load.  An untouched
    # page, a page-crossing span or MMIO gives no view.  Tier 3 emits
    # this copy inline (codegen's vmem kind) and calls here otherwise.
    width = i.spec.mem_bytes
    lo = i.rd * s.vlenb
    end = len(s.vbuf)
    data = s.vbuf.data
    regs, rs1, mem, side = s.regs, i.rs1, s.memory, s.side

    def apply(vl: int, m: Any) -> None:
        base = regs[rs1]
        size = vl * width
        if vl and lo + size <= end:
            view = mem.ram_view(base, size)
            if view is not None:
                data[lo:lo + size] = view
                c = s.vec_counters
                c["batched_ops"] += 1
                c["elems_total"] += vl
                c["elems_active"] += vl
                side.mem_addr = base
                side.mem_size = size
                return
        _vload_any(s, i, vl)
    return apply


def _bind_vstore(s: MachineState, i: Instruction, sew: int,
                 lmul: int) -> Apply | None:
    if not i.aux or i.spec.fmt == "VSS":
        return lambda vl, m: _vstore_any(s, i, vl)
    # Unmasked unit-stride: one store_bytes of the group's bytes.  Every
    # byte of the span is written, so it allocates exactly the pages the
    # reference's per-element stores would, and it is the entry point
    # SmpMachine wraps to break LR reservations.  Tier 3 copies into a
    # resident page inline (codegen's vmem kind) and calls here otherwise.
    width = i.spec.mem_bytes
    lo = i.rs3 * s.vlenb
    end = len(s.vbuf)
    data = s.vbuf.data
    regs, rs1, mem, side = s.regs, i.rs1, s.memory, s.side

    def apply(vl: int, m: Any) -> None:
        size = vl * width
        if vl and lo + size <= end and not mem.has_mmio:
            base = regs[rs1]
            mem.store_bytes(base, data[lo:lo + size])
            c = s.vec_counters
            c["batched_ops"] += 1
            c["elems_total"] += vl
            c["elems_active"] += vl
            side.mem_addr = base
            side.mem_size = size
            return
        _vstore_any(s, i, vl)
    return apply


def _bytewise(view: memoryview, dt: Any, width: int) -> Any:
    """*view* as dtype lanes starting at EVERY byte: lane k holds the
    *width* bytes from byte k on, so a byte offset indexes it directly.
    """
    return np.ndarray((len(view) - width + 1,), dt, view, 0, (1,))


def _bind_indexed(s: MachineState, i: Instruction, sew: int, lmul: int,
                  data_reg: int) -> tuple[Any, Any, int] | None:
    """(index lanes, data lanes from the group's first on, the group's
    first byte) of an indexed op; None when the index group wraps."""
    idx = _group(s, i.rs2, sew, lmul)
    if idx is None:
        return None
    width = i.spec.mem_bytes
    lo = data_reg * s.vlenb
    return idx, s.vview_u[width * 8][lo // width:], lo


def _bind_vload_indexed(s: MachineState, i: Instruction, sew: int,
                        lmul: int) -> Apply | None:
    bound = _bind_indexed(s, i, sew, lmul, i.rd)
    if bound is None:
        return None
    idx_g, dst, lo = bound
    width = i.spec.mem_bytes
    dt = _DT_U[width * 8]
    end = len(s.vbuf)
    regs, rs1, mem, side = s.regs, i.rs1, s.memory, s.side

    def apply(vl: int, m: Any) -> None:
        if lo + max(vl * width, 1) > end or mem.has_mmio:
            _fb(s, i)
            return
        m = _begin(s, i, vl)
        base = regs[rs1]
        if vl:
            idx = idx_g[:vl]
            order = np.sort(idx)
            low = int(order[0])
            span = int(order[-1]) + width - low
            view = (mem.ram_view(base + low, span) if span <= PAGE_SIZE
                    else None)
            if view is not None:
                vals = _bytewise(view, dt, width)[idx - idx.dtype.type(low)]
                _masked_store(dst[:vl], m, vals)
            else:  # spans pages / unallocated: exact per-element gather
                ld = mem.load_int
                active = range(vl) if m is None else np.nonzero(m)[0]
                for e in active:
                    dst[int(e)] = dt(ld(base + int(idx[e]), width))
        side.mem_addr = base
        side.mem_size = max(vl, 1) * width
    return apply


def _bind_vstore_indexed(s: MachineState, i: Instruction, sew: int,
                         lmul: int) -> Apply | None:
    bound = _bind_indexed(s, i, sew, lmul, i.rs3)
    if bound is None:
        return None
    idx_g, src, lo = bound
    width = i.spec.mem_bytes
    dt = _DT_U[width * 8]
    end = len(s.vbuf)
    regs, rs1, mem, side = s.regs, i.rs1, s.memory, s.side

    def apply(vl: int, m: Any) -> None:
        if lo + max(vl * width, 1) > end or mem.has_mmio:
            _fb(s, i)
            return
        m = _begin(s, i, vl)
        base = regs[rs1]
        if vl and (m is None or m.any()):
            idx = idx_g[:vl]
            vals = src[:vl]
            if m is not None:
                idx, vals = idx[m], vals[m]
            order = np.sort(idx)
            low = int(order[0])
            span = int(order[-1]) + width - low
            # Scatter order must match the sequential reference when
            # lanes overlap (duplicate indices, or elements closer than
            # width): only lanes at least width bytes apart scatter at
            # once.
            disjoint = (idx.size < 2
                        or int((order[1:] - order[:-1]).min()) >= width)
            view = (mem.ram_view(base + low, span, allocate=True)
                    if span <= PAGE_SIZE and disjoint else None)
            if view is not None:
                _bytewise(view, dt, width)[idx - idx.dtype.type(low)] = vals
            else:
                st = mem.store_int
                for e in range(idx.size):
                    st(base + int(idx[e]), int(vals[e]), width)
        side.mem_addr = base
        side.mem_size = max(vl, 1) * width
    return apply


# Element-0 moves touch one lane: index it directly instead of building
# the LMUL group the reference reads.  Uncounted, like the shared ops.
def _bind_vmv_x_s(s: MachineState, i: Instruction, sew: int,
                  lmul: int) -> Apply | None:
    lanes = s.vview_s[sew]
    at, rd = i.rs2 * (s.vlenb * 8 // sew), i.rd

    def apply(vl: int, m: Any) -> None:
        s.write_x(rd, int(lanes[at]))
    return apply


def _bind_vmv_s_x(s: MachineState, i: Instruction, sew: int,
                  lmul: int) -> Apply | None:
    lanes = s.vview_u[sew]
    at, regs, rs1 = i.rd * (s.vlenb * 8 // sew), s.regs, i.rs1
    mask = (1 << sew) - 1

    def apply(vl: int, m: Any) -> None:
        lanes[at] = regs[rs1] & mask
    return apply


# -- registration ------------------------------------------------------------

def _shift(op: Any) -> Callable[[int], Callable[[Any, Any], Any]]:
    """A shift by the low log2(SEW) bits of the amount."""
    return lambda w: lambda a, b: op(a, b & (w - 1))


def _ufunc(op: Any) -> Callable[[int], Callable[[Any, Any], Any]]:
    """The same lane operation at every SEW."""
    return lambda w: op


for _sfx in ("vv", "vx", "vi"):
    for _mn, _at, _signed in (
            ("vadd", _ufunc(np.add), False),
            ("vsub", _ufunc(np.subtract), False),
            ("vrsub", _ufunc(lambda a, b: b - a), False),
            ("vand", _ufunc(np.bitwise_and), False),
            ("vor", _ufunc(np.bitwise_or), False),
            ("vxor", _ufunc(np.bitwise_xor), False),
            ("vsll", _shift(np.left_shift), False),
            ("vsrl", _shift(np.right_shift), False),
            ("vsra", _shift(np.right_shift), True)):
        _np_op((f"{_mn}.{_sfx}",), _int_binop(_at, _signed))
for _sfx in ("vv", "vx"):
    for _mn, _at, _signed in (
            ("vmin", _ufunc(np.minimum), True),
            ("vmax", _ufunc(np.maximum), True),
            ("vminu", _ufunc(np.minimum), False),
            ("vmaxu", _ufunc(np.maximum), False),
            ("vmul", _ufunc(np.multiply), True)):
        _np_op((f"{_mn}.{_sfx}",), _int_binop(_at, _signed))
    _np_op((f"vmulh.{_sfx}",), _mulh(True))
    _np_op((f"vmulhu.{_sfx}",), _mulh(False))
    _np_op((f"vmacc.{_sfx}",), _int_mac(1, True))
    _np_op((f"vnmsac.{_sfx}",), _int_mac(-1, True))
    _np_op((f"vmadd.{_sfx}",), _int_mac(1, False))
    _np_op((f"vwmul.{_sfx}",), _widening(True, False, True))
    _np_op((f"vwmulu.{_sfx}",), _widening(True, False, False))
    _np_op((f"vwmacc.{_sfx}",), _widening(True, True, True))
    _np_op((f"vwmaccu.{_sfx}",), _widening(True, True, False))
    _np_op((f"vwadd.{_sfx}",), _widening(False, False, True))
    _np_op((f"vwaddu.{_sfx}",), _widening(False, False, False))
    for _mn, _cmp, _signed in (
            ("vmseq", np.equal, False), ("vmsne", np.not_equal, False),
            ("vmsltu", np.less, False), ("vmslt", np.less, True),
            ("vmsleu", np.less_equal, False),
            ("vmsle", np.less_equal, True)):
        _np_op((f"{_mn}.{_sfx}",), _compare(_cmp, _signed))

_np_op(("vmerge.vvm", "vmerge.vxm"), _bind_merge, counted=False)
_np_op(("vmv.v.v", "vmv.v.x", "vmv.v.i"), _bind_vmv_v)
for _mn, _fold, _signed in (
        ("vredsum", np.add, True), ("vredmax", np.maximum, True),
        ("vredmin", np.minimum, True), ("vredmaxu", np.maximum, False),
        ("vredminu", np.minimum, False), ("vredand", np.bitwise_and, False),
        ("vredor", np.bitwise_or, False), ("vredxor", np.bitwise_xor, False)):
    _np_op((f"{_mn}.vs",), _reduce(_fold, _signed))
_np_op(("vid.v",), _bind_vid)
_np_op(("vslideup.vx", "vslideup.vi"), _bind_slideup)
_np_op(("vslidedown.vx", "vslidedown.vi"), _bind_slidedown)
_np_op(("vrgather.vv",), _bind_rgather)

for _sfx in ("vv", "vf"):
    for _mn, _fop in (
            ("vfadd", lambda a, b: a + b), ("vfsub", lambda a, b: a - b),
            ("vfmul", lambda a, b: a * b), ("vfdiv", _fdiv_op),
            # min/max replicate the reference's Python min()/max() tie
            # and NaN behaviour: the SECOND operand wins only on a
            # strict compare.
            ("vfmin", lambda a, b: np.where(b < a, b, a)),
            ("vfmax", lambda a, b: np.where(b > a, b, a))):
        _np_op((f"{_mn}.{_sfx}",), _fp_binop(_fop), fp=True)
    _np_op((f"vfmacc.{_sfx}",), _fp_mac(1, True), fp=True)
    _np_op((f"vfnmacc.{_sfx}",), _fp_mac(-1, True), fp=True)
    _np_op((f"vfmadd.{_sfx}",), _fp_mac(1, False), fp=True)
_np_op(("vfsqrt.v",), _bind_fsqrt, fp=True)

for _w in (8, 16, 32, 64):
    _np_op((f"vle{_w}.v", f"vlse{_w}.v"), _bind_vload, counted=False,
           specializable=False)
    _np_op((f"vse{_w}.v", f"vsse{_w}.v"), _bind_vstore, counted=False,
           specializable=False)
    _np_op((f"vlxei{_w}.v",), _bind_vload_indexed, counted=False)
    _np_op((f"vsxei{_w}.v",), _bind_vstore_indexed, counted=False)

_np_op(("vcpop.m",), _bind_vcpop, specializable=False)
for _mn, _op in (("vmand.mm", lambda a, b: a & b),
                 ("vmor.mm", lambda a, b: a | b),
                 ("vmxor.mm", lambda a, b: a ^ b),
                 ("vmnand.mm", lambda a, b: 1 - (a & b)),
                 ("vmnor.mm", lambda a, b: 1 - (a | b)),
                 ("vmxnor.mm", lambda a, b: 1 - (a ^ b))):
    _np_op((_mn,), _mask_logical(_op), counted=False, specializable=False)
_np_op(("vmv.x.s",), _bind_vmv_x_s, counted=False, specializable=False)
_np_op(("vmv.s.x",), _bind_vmv_s_x, counted=False, specializable=False)

#: config ops shared verbatim with the reference engine (no lanes to
#: batch, no counters).
_SHARED = ("vsetvli", "vsetvl")
for _mn in _SHARED:
    VECTOR_EXEC_NUMPY[_mn] = VECTOR_EXEC_REF[_mn]


def _ref_fallback(name: str) -> VectorHandler:
    ref = VECTOR_EXEC_REF[name]

    def handler(s: MachineState, i: Instruction) -> None:
        s.vec_counters["fallback_ops"] += 1
        ref(s, i)
    return handler


# Everything the numpy engine does not batch bit-identically runs the
# reference per-element path, counted as a permanent fallback:
# div/rem (C-truncation semantics) and ordered FP reductions.
for _mn in VECTOR_EXEC_REF:
    if _mn not in VECTOR_EXEC_NUMPY:
        VECTOR_EXEC_NUMPY[_mn] = _ref_fallback(_mn)


# ===========================================================================
# Engine selection and per-instruction binding.
# ===========================================================================

_ENGINES: dict[str, dict[str, VectorHandler]] = {
    "ref": VECTOR_EXEC_REF, "numpy": VECTOR_EXEC_NUMPY}
_active_engine = "numpy"


def select_engine(name: str) -> str:
    """Swap the live ``VECTOR_EXEC`` table in place.

    Tier-1 picks the change up immediately; tier-2/3 engines bind
    handlers at translate time, so build a fresh Emulator after
    switching.
    """
    global _active_engine
    key = (name or "numpy").strip().lower()
    if key not in _ENGINES:
        raise ValueError(
            f"unknown vector engine {name!r} (expected one of "
            f"{sorted(_ENGINES)})")
    VECTOR_EXEC.clear()
    VECTOR_EXEC.update(_ENGINES[key])
    _active_engine = key
    return key


def active_engine() -> str:
    """Name of the engine currently wired into ``VECTOR_EXEC``."""
    return _active_engine


def bind_handler(inst: Instruction, static: tuple[int, int] | None = None,
                 scoped: bool = True) -> VectorHandler:
    """A handler for one static vector instruction (tiers 2 and 3).

    On the numpy engine a batched op gets a handler of its own that
    binds its operands on first use and rebinds only when vtype
    changes.  *static* is the (SEW, LMUL) tier 3 proved for it inside
    its block: the handler binds with it and counts
    ``specialized_ops``.  *scoped* False leaves FP ops without a per-op
    ``np.errstate``, for a caller that holds one (``Emulator.run``).
    Every other op, and every op on the reference engine, gets the
    shared ``VECTOR_EXEC`` handler.
    """
    mnemonic = inst.spec.mnemonic
    op = _NP_OPS.get(mnemonic) if _active_engine == "numpy" else None
    if op is None:
        return VECTOR_EXEC[mnemonic]
    return _handler(op, cache=True, static=static, scoped=scoped)


#: VLEN -> a scratch state that :func:`direct_op` binds against
_PROBES: dict[int, MachineState] = {}


def direct_op(inst: Instruction, static: tuple[int, int] | None,
              vlen: int) -> _NpOp | None:
    """The batched op tier 3 calls the ``apply`` of directly for *inst*,
    or None when *inst* keeps its handler.

    That takes the numpy engine, a static (SEW, LMUL) *static*, an op
    whose handler would pass its apply no mask (unmasked, or an op that
    counts and masks for itself), no memory access (a memory op's apply
    may raise through ``Memory``'s entry points), and a binding: whether
    the binder falls back depends only on the instruction and the vtype,
    so one bind against a scratch state of *vlen* decides it for every
    state.
    """
    if _active_engine != "numpy" or static is None:
        return None
    spec = inst.spec
    op = _NP_OPS.get(spec.mnemonic)
    if (op is None or spec.fmt in _MEM_FMTS
            or (op.counted and not inst.aux)):
        return None
    probe = _PROBES.get(vlen)
    if probe is None:
        probe = _PROBES[vlen] = MachineState(vlen=vlen)
    if op.bind(probe, inst, *static) is None:
        return None
    return op


def bind_apply(state: MachineState, inst: Instruction,
               static: tuple[int, int]) -> Apply:
    """The apply of *inst*'s :func:`direct_op` bound to *state* under
    *static*, once per linked unit: what its handler would bind."""
    apply = _NP_OPS[inst.spec.mnemonic].bind(state, inst, *static)
    assert apply is not None, "direct_op probed this binding"
    return apply


select_engine(os.environ.get("REPRO_VECTOR_ENGINE", "numpy"))

__all__ = ["VECTOR_EXEC", "VECTOR_EXEC_REF", "VECTOR_EXEC_NUMPY",
           "VectorHandler", "select_engine", "active_engine",
           "bind_handler", "direct_op", "bind_apply"]
