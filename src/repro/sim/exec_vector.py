"""Functional semantics for the 0.7.1-flavoured vector extension.

Vector state lives in :class:`~repro.sim.state.MachineState`: 32
VLEN-bit registers backed by ONE contiguous numpy buffer, with
``vl``/``vtype`` set by vsetvl(i).  Operations are tail-undisturbed and
honour the v0 mask when the instruction's ``vm`` bit (``inst.aux``) is
0, matching the paper's description of masked dual-issue vector
execution (section VII).

Two interchangeable engines implement the same architectural contract:

``numpy`` (default)
    Whole-register SIMD: every handler reinterprets the register file
    through cached per-SEW views (``MachineState.vview_u/s/f``) and
    executes one batched numpy expression per instruction.  Masking is
    a boolean index unpacked from v0, tails are left untouched by slice
    assignment.  An unmasked unit-stride load or store is one byte copy
    between a ``Memory`` page and ``vbuf``; the other memory ops go
    through ``np.frombuffer`` views onto the pages (guarded cross-page
    fallbacks stay batched via span copies).  Shapes numpy cannot
    express bit-identically (div/rem, 128-bit widenings, FP reductions,
    wrapped register groups, MMIO-mapped memory) delegate to the
    reference engine and are counted as fallbacks.

``ref``
    The original per-element pure-Python implementation, retained
    verbatim as the differential oracle.  Selected with
    ``REPRO_VECTOR_ENGINE=ref`` (or :func:`select_engine`).

``VECTOR_EXEC`` is the live dispatch table all three execution tiers
bind against; :func:`select_engine` mutates it in place, so tier-2/3
engines that resolved handlers at translate time must be rebuilt (a
fresh :class:`~repro.sim.emulator.Emulator`) after switching.  Tier-3
additionally calls :func:`specialize` to constant-fold SEW/LMUL into a
handler once vtype is provably static inside a block.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable

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
# ===========================================================================

_DT_U: dict[int, Any] = {8: np.uint8, 16: np.uint16,
                         32: np.uint32, 64: np.uint64}
_DT_S: dict[int, Any] = {8: np.int8, 16: np.int16,
                         32: np.int32, 64: np.int64}
_DT_F: dict[int, Any] = {16: np.float16, 32: np.float32, 64: np.float64}

#: specializable mnemonics: mnemonic -> (sew, lmul) -> handler
_SPECIALIZE: dict[str, Callable[[int, int], VectorHandler]] = {}


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
    c["elems_active"] += int(m.sum())
    return m


def _masked_store(dst: Any, m: Any, res: Any) -> None:
    if m is None:
        dst[:] = res
    else:
        np.putmask(dst, m, res)


def _np_operand(s: MachineState, i: Instruction, sew: int, count: int,
                signed: bool) -> Any:
    """vs1 lanes / x-scalar / immediate as a dtype array or scalar.

    Returns None when a vs1 register group wraps (fallback signal).
    """
    spec = i.spec
    if spec.rs1_file == "v":
        return _group(s, i.rs1, sew, count, signed)
    dt = _DT_S[sew] if signed else _DT_U[sew]
    if spec.rs1_file == "x":
        scalar = s.regs[i.rs1] & ((1 << sew) - 1)
    else:
        scalar = i.imm & ((1 << sew) - 1)
    if signed and scalar >= 1 << (sew - 1):
        scalar -= 1 << sew
    return dt(scalar)


# -- integer cores -----------------------------------------------------------

def _int_binop_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                    op: Callable[[Any, Any, int], Any],
                    signed: bool) -> None:
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul, signed)
    a = _group(s, i.rs2, sew, lmul, signed)
    b = _np_operand(s, i, sew, lmul, signed)
    if dst is None or a is None or b is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    if isinstance(b, np.ndarray):
        b = b[:vl]
    _masked_store(dst[:vl], m, op(a[:vl], b, sew))


def _mulh_core(s: MachineState, i: Instruction, sew: int, lmul: int,
               signed: bool) -> None:
    if sew == 64:  # needs a 128-bit intermediate: per-element exact math
        _fb(s, i)
        return
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul, signed)
    a = _group(s, i.rs2, sew, lmul, signed)
    b = _np_operand(s, i, sew, lmul, signed)
    if dst is None or a is None or b is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    wd = _DT_S[sew * 2] if signed else _DT_U[sew * 2]
    aw = a[:vl].astype(wd)
    bw = (b[:vl].astype(wd) if isinstance(b, np.ndarray) else wd(int(b)))
    _masked_store(dst[:vl], m, ((aw * bw) >> wd(sew)).astype(dst.dtype))


def _mac_core(s: MachineState, i: Instruction, sew: int, lmul: int,
              sign: int, dest_is_addend: bool) -> None:
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul, True)
    a = _group(s, i.rs2, sew, lmul, True)
    b = _np_operand(s, i, sew, lmul, True)
    if dst is None or a is None or b is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    if isinstance(b, np.ndarray):
        b = b[:vl]
    d = dst[:vl]
    dt = dst.dtype
    if dest_is_addend:  # vmacc/vnmsac: vd += sign * vs1*vs2
        res = d + dt.type(sign) * (a[:vl] * b)
    else:               # vmadd: vd = vd*vs1 + vs2
        res = d * b + dt.type(sign) * a[:vl]
    _masked_store(d, m, res)


def _widening_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                   mul: bool, mac: bool, signed: bool) -> None:
    if sew == 64 or lmul * 2 > 8:
        _fb(s, i)  # 128-bit lanes / clamped EMUL: exact per-element path
        return
    vl = s.vl
    wide, wlm = sew * 2, lmul * 2
    wd = _DT_S[wide] if signed else _DT_U[wide]
    dst = _group(s, i.rd, wide, wlm, signed)
    a = _group(s, i.rs2, sew, lmul, signed)
    b = _np_operand(s, i, sew, lmul, signed)
    if dst is None or a is None or b is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    aw = a[:vl].astype(wd)
    bw = (b[:vl].astype(wd) if isinstance(b, np.ndarray) else wd(int(b)))
    res = aw * bw if mul else aw + bw
    if mac:
        res = dst[:vl] + res
    _masked_store(dst[:vl], m, res)


def _compare_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                  op: Callable[[Any, Any], Any], signed: bool) -> None:
    vl = s.vl
    a = _group(s, i.rs2, sew, lmul, signed)
    b = _np_operand(s, i, sew, lmul, signed)
    if a is None or b is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    if isinstance(b, np.ndarray):
        b = b[:vl]
    lo = i.rd * s.vlenb
    bits = np.unpackbits(s.vbuf[lo:lo + s.vlenb], bitorder="little")
    _masked_store(bits[:vl], m, op(a[:vl], b))
    s.vbuf[lo:lo + s.vlenb] = np.packbits(bits, bitorder="little")


def _merge_core(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> None:
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul)
    a = _group(s, i.rs2, sew, lmul)
    b = _np_operand(s, i, sew, lmul, False)
    if dst is None or a is None or b is None:
        _fb(s, i)
        return
    c = s.vec_counters
    c["batched_ops"] += 1
    c["masked_ops"] += 1
    c["elems_total"] += vl
    c["elems_active"] += vl
    if not vl:
        return
    if isinstance(b, np.ndarray):
        b = b[:vl]
    dst[:vl] = np.where(_mask_bools(s, vl), b, a[:vl])


def _vmv_v_core(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> None:
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul)
    b = _np_operand(s, i, sew, lmul, False)
    if dst is None or b is None:
        _fb(s, i)
        return
    _begin(s, i, vl)
    if not vl:
        return
    dst[:vl] = b[:vl] if isinstance(b, np.ndarray) else b


def _reduce_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                 kind: str, signed: bool) -> None:
    vl = s.vl
    elems = _group(s, i.rs2, sew, lmul, signed)
    init_g = _group(s, i.rs1, sew, 1, signed)
    dst = _group(s, i.rd, sew, 1, signed)
    if elems is None or init_g is None or dst is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    init = init_g[0]
    sel = elems[:vl] if m is None else elems[:vl][m]
    if sel.size == 0:
        acc = init
    elif kind == "sum":
        acc = init + np.add.reduce(sel)       # dtype arithmetic: wraps
    elif kind == "max":
        acc = max(init, sel.max())
    elif kind == "min":
        acc = min(init, sel.min())
    elif kind == "and":
        acc = init & np.bitwise_and.reduce(sel)
    elif kind == "or":
        acc = init | np.bitwise_or.reduce(sel)
    else:
        acc = init ^ np.bitwise_xor.reduce(sel)
    dst[0] = acc


def _mask_logical_core(s: MachineState, i: Instruction,
                       op: Callable[[Any, Any], Any]) -> None:
    vl = s.vl
    c = s.vec_counters
    c["batched_ops"] += 1
    c["elems_total"] += vl
    c["elems_active"] += vl
    if not vl:
        return
    vlenb = s.vlenb
    buf = s.vbuf
    a = np.unpackbits(buf[i.rs2 * vlenb:(i.rs2 + 1) * vlenb],
                      bitorder="little")
    b = np.unpackbits(buf[i.rs1 * vlenb:(i.rs1 + 1) * vlenb],
                      bitorder="little")
    d = np.unpackbits(buf[i.rd * vlenb:(i.rd + 1) * vlenb],
                      bitorder="little")
    d[:vl] = op(a[:vl], b[:vl]) & 1
    buf[i.rd * vlenb:(i.rd + 1) * vlenb] = np.packbits(
        d, bitorder="little")


def _vid_core(s: MachineState, i: Instruction, sew: int,
              lmul: int) -> None:
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul)
    if dst is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    _masked_store(dst[:vl], m, np.arange(vl).astype(dst.dtype))


def _vcpop_np(s: MachineState, i: Instruction) -> None:
    vl = s.vl
    m = _begin(s, i, vl)
    lo = i.rs2 * s.vlenb
    bits = np.unpackbits(s.vbuf[lo:lo + s.vlenb],
                         bitorder="little")[:vl].astype(bool)
    if m is not None:
        bits = bits & m
    s.write_x(i.rd, int(np.count_nonzero(bits)))


def _slideup_core(s: MachineState, i: Instruction, sew: int,
                  lmul: int) -> None:
    offset = s.regs[i.rs1] if i.spec.rs1_file == "x" else i.imm
    vl = s.vl
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    if dst is None or src is None or offset < 0:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl or offset >= vl:
        return
    seg = dst[offset:vl]
    res = src[:vl - offset].copy()  # dst may alias src: snapshot first
    _masked_store(seg, m if m is None else m[offset:], res)


def _slidedown_core(s: MachineState, i: Instruction, sew: int,
                    lmul: int) -> None:
    offset = s.regs[i.rs1] if i.spec.rs1_file == "x" else i.imm
    vl = s.vl
    vlmax = (s.vlen * lmul) // sew
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    if dst is None or src is None or offset < 0:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    res = np.zeros(vl, dtype=dst.dtype)
    if offset < vlmax:
        n = min(vl, vlmax - offset)
        res[:n] = src[offset:offset + n]
    _masked_store(dst[:vl], m, res)


def _gather_core(s: MachineState, i: Instruction, sew: int,
                 lmul: int) -> None:
    vl = s.vl
    vlmax = (s.vlen * lmul) // sew
    dst = _group(s, i.rd, sew, lmul)
    src = _group(s, i.rs2, sew, lmul)
    idx = _group(s, i.rs1, sew, lmul)
    if dst is None or src is None or idx is None:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if not vl:
        return
    lanes = idx[:vl]
    valid = lanes < _DT_U[sew](vlmax) if vlmax < (1 << sew) else (
        np.ones(vl, dtype=bool))
    safe = np.where(valid, lanes, _DT_U[sew](0)).astype(np.int64)
    res = src[:vlmax][safe]
    res[~valid] = 0
    _masked_store(dst[:vl], m, res)


# -- FP cores ----------------------------------------------------------------

def _fp_prep(s: MachineState, i: Instruction, sew: int,
             lmul: int) -> tuple[Any, Any, Any] | None:
    """(dst_lanes, a64, b64) for an FP op, or None to fall back."""
    if sew not in _DT_F:
        return None
    dst = _group(s, i.rd, sew, lmul)
    a = _group_f(s, i.rs2, sew, lmul)
    if dst is None or a is None:
        return None
    if i.spec.rs1_file == "v":
        bg = _group_f(s, i.rs1, sew, lmul)
        if bg is None:
            return None
        b64 = bg[:s.vl].astype(np.float64)
    else:  # scalar f register broadcast: raw low sew bits
        b64 = np.float64(_FP_UNPACK[sew](s.fregs[i.rs1]))
    return dst, a[:s.vl].astype(np.float64), b64


def _fp_store(s: MachineState, dst: Any, m: Any, sew: int,
              res64: Any) -> None:
    """Round float64 results to the target format and store the bits."""
    bits = res64.astype(_DT_F[sew]).view(_DT_U[sew])
    _masked_store(dst[:s.vl], m, bits)


def _fp_binop_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                   op: Callable[[Any, Any], Any]) -> None:
    prep = _fp_prep(s, i, sew, lmul)
    if prep is None:
        _fb(s, i)
        return
    dst, a64, b64 = prep
    m = _begin(s, i, s.vl)
    if not s.vl:
        return
    with np.errstate(all="ignore"):
        _fp_store(s, dst, m, sew, op(a64, b64))


def _fdiv_op(a: Any, b: Any) -> Any:
    # The reference engine's try/except ZeroDivisionError shape: ANY
    # zero divisor (either sign) yields +/-inf by the sign test on a,
    # with non-positive/NaN dividends mapping to -inf.
    r = a / b
    return np.where(b == 0.0, np.where(a > 0.0, np.float64(np.inf),
                                       np.float64(-np.inf)), r)


def _fp_mac_core(s: MachineState, i: Instruction, sew: int, lmul: int,
                 sign_prod: int, dest_is_addend: bool) -> None:
    prep = _fp_prep(s, i, sew, lmul)
    if prep is None:
        _fb(s, i)
        return
    dst, a64, b64 = prep
    m = _begin(s, i, s.vl)
    if not s.vl:
        return
    dg = _group_f(s, i.rd, sew, lmul)
    d64 = dg[:s.vl].astype(np.float64)
    sp = np.float64(sign_prod)
    with np.errstate(all="ignore"):
        if dest_is_addend:
            res = sp * a64 * b64 + d64
        else:
            res = sp * d64 * b64 + a64
        _fp_store(s, dst, m, sew, res)


def _fsqrt_core(s: MachineState, i: Instruction, sew: int,
                lmul: int) -> None:
    if sew not in _DT_F:
        _fb(s, i)
        return
    dst = _group(s, i.rd, sew, lmul)
    a = _group_f(s, i.rs2, sew, lmul)
    if dst is None or a is None:
        _fb(s, i)
        return
    m = _begin(s, i, s.vl)
    if not s.vl:
        return
    a64 = a[:s.vl].astype(np.float64)
    with np.errstate(all="ignore"):
        res = np.sqrt(a64)
    # negative inputs produce the reference's canonical float("nan");
    # -0.0 passes the >= 0 test and keeps sqrt(-0.0) == -0.0.
    res = np.where(a64 >= 0.0, res, np.float64(float("nan")))
    _fp_store(s, dst, m, sew, res)


# -- memory cores ------------------------------------------------------------

def _np_vload(s: MachineState, i: Instruction) -> None:
    spec = i.spec
    width = spec.mem_bytes
    base = s.regs[i.rs1]
    vl = s.vl
    mem = s.memory
    if vl and i.aux and spec.fmt != "VLS":
        # Unmasked unit-stride: the group's bytes are the span's bytes,
        # so one slice copy from the page is the whole load.  The end
        # test is ``_group``'s wrap test; an untouched page, a
        # page-crossing span or MMIO gives no view and falls through.
        size = vl * width
        lo = i.rd * s.vlenb
        if lo + size <= len(s.vbuf):
            view = mem.ram_view(base, size)
            if view is not None:
                s.vbuf.data[lo:lo + size] = view
                _begin(s, i, vl)
                s.side.mem_addr = base
                s.side.mem_size = size
                return
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


def _np_vstore(s: MachineState, i: Instruction) -> None:
    spec = i.spec
    width = spec.mem_bytes
    base = s.regs[i.rs1]
    vl = s.vl
    mem = s.memory
    if vl and i.aux and spec.fmt != "VSS" and not mem.has_mmio:
        # Unmasked unit-stride: one store_bytes of the group's bytes.
        # Every byte of the span is written, so it allocates exactly the
        # pages the reference's per-element stores would, and it is the
        # entry point SmpMachine wraps to break LR reservations.
        size = vl * width
        lo = i.rs3 * s.vlenb
        if lo + size <= len(s.vbuf):
            mem.store_bytes(base, s.vbuf.data[lo:lo + size])
            _begin(s, i, vl)
            s.side.mem_addr = base
            s.side.mem_size = size
            return
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


def _load_indexed_core(s: MachineState, i: Instruction, sew: int,
                       lmul: int) -> None:
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    vl = s.vl
    mem = s.memory
    idx_g = _group(s, i.rs2, sew, lmul)
    dst = _group(s, i.rd, width * 8, _mem_group_lmul(s, width))
    if idx_g is None or dst is None or mem.has_mmio:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if vl:
        idx = idx_g[:vl]
        lo = base + int(idx.min())
        span = base + int(idx.max()) + width - lo
        view = mem.ram_view(lo, span) if span <= PAGE_SIZE else None
        if view is not None:
            buf = np.frombuffer(view, dtype=np.uint8)
            rel = (idx - idx.min()).astype(np.int64)
            cols = np.arange(width, dtype=np.int64)
            vals = buf[rel[:, None] + cols[None, :]].view(
                _DT_U[width * 8]).ravel()
            _masked_store(dst[:vl], m, vals)
        else:  # spans pages / unallocated: exact per-element gather
            ld = mem.load_int
            active = range(vl) if m is None else np.nonzero(m)[0]
            for e in active:
                dst[int(e)] = _DT_U[width * 8](ld(base + int(idx[e]),
                                                  width))
    s.side.mem_addr = base
    s.side.mem_size = max(vl, 1) * width


def _store_indexed_core(s: MachineState, i: Instruction, sew: int,
                        lmul: int) -> None:
    width = i.spec.mem_bytes
    base = s.regs[i.rs1]
    vl = s.vl
    mem = s.memory
    idx_g = _group(s, i.rs2, sew, lmul)
    src = _group(s, i.rs3, width * 8, _mem_group_lmul(s, width))
    if idx_g is None or src is None or mem.has_mmio:
        _fb(s, i)
        return
    m = _begin(s, i, vl)
    if vl and (m is None or m.any()):
        idx = idx_g[:vl]
        vals = src[:vl]
        if m is not None:
            idx, vals = idx[m], vals[m]
        lo = base + int(idx.min())
        span = base + int(idx.max()) + width - lo
        # Scatter order must match the sequential reference when lanes
        # overlap (duplicate indices, or elements closer than width).
        disjoint = (idx.size < 2
                    or int(np.min(np.diff(np.sort(idx.astype(
                        np.int64))))) >= width)
        view = (mem.ram_view(lo, span, allocate=True)
                if span <= PAGE_SIZE and disjoint else None)
        if view is not None:
            lanes = np.frombuffer(view, dtype=np.uint8)
            rel = (idx - idx.min()).astype(np.int64)
            cols = np.arange(width, dtype=np.int64)
            lanes[rel[:, None] + cols[None, :]] = vals.view(
                np.uint8).reshape(idx.size, width)
        else:
            st = mem.store_int
            for e in range(idx.size):
                st(base + int(idx[e]), int(vals[e]), width)
    s.side.mem_addr = base
    s.side.mem_size = max(vl, 1) * width


# -- registration ------------------------------------------------------------

def _np_register(name: str, core: Callable[..., None],
                 *args: Any) -> None:
    """Register a generic (runtime sew/lmul) handler plus its
    SEW/LMUL-specializing factory (the tier-3 constant-fold hook)."""
    def generic(s: MachineState, i: Instruction) -> None:
        core(s, i, s.sew, s.lmul, *args)

    def make_specialized(sew: int, lmul: int) -> VectorHandler:
        def specialized(s: MachineState, i: Instruction) -> None:
            s.vec_counters["specialized_ops"] += 1
            core(s, i, sew, lmul, *args)
        return specialized

    VECTOR_EXEC_NUMPY[name] = generic
    _SPECIALIZE[name] = make_specialized


for _sfx in ("vv", "vx", "vi"):
    _np_register(f"vadd.{_sfx}", _int_binop_core,
                 lambda a, b, w: a + b, False)
    _np_register(f"vsub.{_sfx}", _int_binop_core,
                 lambda a, b, w: a - b, False)
    _np_register(f"vrsub.{_sfx}", _int_binop_core,
                 lambda a, b, w: b - a, False)
    _np_register(f"vand.{_sfx}", _int_binop_core,
                 lambda a, b, w: a & b, False)
    _np_register(f"vor.{_sfx}", _int_binop_core,
                 lambda a, b, w: a | b, False)
    _np_register(f"vxor.{_sfx}", _int_binop_core,
                 lambda a, b, w: a ^ b, False)
    _np_register(f"vsll.{_sfx}", _int_binop_core,
                 lambda a, b, w: a << (b & (w - 1)), False)
    _np_register(f"vsrl.{_sfx}", _int_binop_core,
                 lambda a, b, w: a >> (b & (w - 1)), False)
    _np_register(f"vsra.{_sfx}", _int_binop_core,
                 lambda a, b, w: a >> (b & (w - 1)), True)
for _sfx in ("vv", "vx"):
    _np_register(f"vmin.{_sfx}", _int_binop_core,
                 lambda a, b, w: np.minimum(a, b), True)
    _np_register(f"vmax.{_sfx}", _int_binop_core,
                 lambda a, b, w: np.maximum(a, b), True)
    _np_register(f"vminu.{_sfx}", _int_binop_core,
                 lambda a, b, w: np.minimum(a, b), False)
    _np_register(f"vmaxu.{_sfx}", _int_binop_core,
                 lambda a, b, w: np.maximum(a, b), False)
    _np_register(f"vmul.{_sfx}", _int_binop_core,
                 lambda a, b, w: a * b, True)
    _np_register(f"vmulh.{_sfx}", _mulh_core, True)
    _np_register(f"vmulhu.{_sfx}", _mulh_core, False)
    _np_register(f"vmacc.{_sfx}", _mac_core, 1, True)
    _np_register(f"vnmsac.{_sfx}", _mac_core, -1, True)
    _np_register(f"vmadd.{_sfx}", _mac_core, 1, False)
    _np_register(f"vwmul.{_sfx}", _widening_core, True, False, True)
    _np_register(f"vwmulu.{_sfx}", _widening_core, True, False, False)
    _np_register(f"vwmacc.{_sfx}", _widening_core, True, True, True)
    _np_register(f"vwmaccu.{_sfx}", _widening_core, True, True, False)
    _np_register(f"vwadd.{_sfx}", _widening_core, False, False, True)
    _np_register(f"vwaddu.{_sfx}", _widening_core, False, False, False)
    _np_register(f"vmseq.{_sfx}", _compare_core,
                 lambda a, b: a == b, False)
    _np_register(f"vmsne.{_sfx}", _compare_core,
                 lambda a, b: a != b, False)
    _np_register(f"vmsltu.{_sfx}", _compare_core,
                 lambda a, b: a < b, False)
    _np_register(f"vmslt.{_sfx}", _compare_core,
                 lambda a, b: a < b, True)
    _np_register(f"vmsleu.{_sfx}", _compare_core,
                 lambda a, b: a <= b, False)
    _np_register(f"vmsle.{_sfx}", _compare_core,
                 lambda a, b: a <= b, True)

_np_register("vmerge.vvm", _merge_core)
_np_register("vmerge.vxm", _merge_core)
_np_register("vmv.v.v", _vmv_v_core)
_np_register("vmv.v.x", _vmv_v_core)
_np_register("vmv.v.i", _vmv_v_core)
_np_register("vredsum.vs", _reduce_core, "sum", True)
_np_register("vredmax.vs", _reduce_core, "max", True)
_np_register("vredmin.vs", _reduce_core, "min", True)
_np_register("vredmaxu.vs", _reduce_core, "max", False)
_np_register("vredminu.vs", _reduce_core, "min", False)
_np_register("vredand.vs", _reduce_core, "and", False)
_np_register("vredor.vs", _reduce_core, "or", False)
_np_register("vredxor.vs", _reduce_core, "xor", False)
_np_register("vid.v", _vid_core)
_np_register("vslideup.vx", _slideup_core)
_np_register("vslideup.vi", _slideup_core)
_np_register("vslidedown.vx", _slidedown_core)
_np_register("vslidedown.vi", _slidedown_core)
_np_register("vrgather.vv", _gather_core)

for _sfx in ("vv", "vf"):
    _np_register(f"vfadd.{_sfx}", _fp_binop_core, lambda a, b: a + b)
    _np_register(f"vfsub.{_sfx}", _fp_binop_core, lambda a, b: a - b)
    _np_register(f"vfmul.{_sfx}", _fp_binop_core, lambda a, b: a * b)
    _np_register(f"vfdiv.{_sfx}", _fp_binop_core, _fdiv_op)
    # min/max replicate the reference's Python min()/max() tie and NaN
    # behaviour: the SECOND operand wins only on a strict compare.
    _np_register(f"vfmin.{_sfx}", _fp_binop_core,
                 lambda a, b: np.where(b < a, b, a))
    _np_register(f"vfmax.{_sfx}", _fp_binop_core,
                 lambda a, b: np.where(b > a, b, a))
    _np_register(f"vfmacc.{_sfx}", _fp_mac_core, 1, True)
    _np_register(f"vfnmacc.{_sfx}", _fp_mac_core, -1, True)
    _np_register(f"vfmadd.{_sfx}", _fp_mac_core, 1, False)
_np_register("vfsqrt.v", _fsqrt_core)

for _w in (8, 16, 32, 64):
    VECTOR_EXEC_NUMPY[f"vle{_w}.v"] = _np_vload
    VECTOR_EXEC_NUMPY[f"vlse{_w}.v"] = _np_vload
    VECTOR_EXEC_NUMPY[f"vse{_w}.v"] = _np_vstore
    VECTOR_EXEC_NUMPY[f"vsse{_w}.v"] = _np_vstore
    _np_register(f"vlxei{_w}.v", _load_indexed_core)
    _np_register(f"vsxei{_w}.v", _store_indexed_core)

VECTOR_EXEC_NUMPY["vcpop.m"] = _vcpop_np
for _mn, _op in (("vmand.mm", lambda a, b: a & b),
                 ("vmor.mm", lambda a, b: a | b),
                 ("vmxor.mm", lambda a, b: a ^ b),
                 ("vmnand.mm", lambda a, b: 1 - (a & b)),
                 ("vmnor.mm", lambda a, b: 1 - (a | b)),
                 ("vmxnor.mm", lambda a, b: 1 - (a ^ b))):
    def _mk_mask(op: Callable[[Any, Any], Any]) -> VectorHandler:
        def handler(s: MachineState, i: Instruction) -> None:
            _mask_logical_core(s, i, op)
        return handler
    VECTOR_EXEC_NUMPY[_mn] = _mk_mask(_op)


# Element-0 moves touch one lane: index it directly instead of building
# the LMUL group the reference reads.  Uncounted, like the shared ops.
def _vmv_x_s_np(s: MachineState, i: Instruction) -> None:
    sew = s.sew
    s.write_x(i.rd, int(s.vview_s[sew][i.rs2 * (s.vlenb * 8 // sew)]))


def _vmv_s_x_np(s: MachineState, i: Instruction) -> None:
    sew = s.sew
    s.vview_u[sew][i.rd * (s.vlenb * 8 // sew)] = (
        s.regs[i.rs1] & ((1 << sew) - 1))


VECTOR_EXEC_NUMPY["vmv.x.s"] = _vmv_x_s_np
VECTOR_EXEC_NUMPY["vmv.s.x"] = _vmv_s_x_np

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
# Engine selection.
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


def specialize(mnemonic: str, sew: int, lmul: int) -> VectorHandler | None:
    """A handler with SEW/LMUL constant-folded, for tier-3 blocks where
    vtype is provably static; None when no specialization applies
    (reference engine active, or a non-specializable mnemonic)."""
    if _active_engine != "numpy":
        return None
    factory = _SPECIALIZE.get(mnemonic)
    return factory(sew, lmul) if factory is not None else None


select_engine(os.environ.get("REPRO_VECTOR_ENGINE", "numpy"))

__all__ = ["VECTOR_EXEC", "VECTOR_EXEC_REF", "VECTOR_EXEC_NUMPY",
           "VectorHandler", "select_engine", "active_engine",
           "specialize"]
