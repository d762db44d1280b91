"""Architectural machine state for the functional emulator."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..isa.csr import (
    CSR_CYCLE,
    CSR_INSTRET,
    CSR_TIME,
    CSR_VL,
    CSR_VLENB,
    CSR_VTYPE,
    CsrFile,
    PrivMode,
)
from .memory import Memory

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


def to_signed(value: int, bits: int = 64) -> int:
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >= 1 << (bits - 1) else value


def sext32(value: int) -> int:
    """Sign-extend the low 32 bits of *value* into a 64-bit value."""
    value &= MASK32
    return (value | ~MASK32) & MASK64 if value >= 1 << 31 else value


def f32_bits_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & MASK32))[0]


def float_to_f32_bits(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        sign = 0x8000_0000 if value < 0 else 0
        return sign | 0x7F80_0000  # +/- infinity

def f64_bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


def float_to_f64_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def f16_bits_to_float(bits: int) -> float:
    return struct.unpack("<e", struct.pack("<H", bits & 0xFFFF))[0]


def float_to_f16_bits(value: float) -> int:
    try:
        return struct.unpack("<H", struct.pack("<e", value))[0]
    except OverflowError:
        return 0xFC00 if value < 0 else 0x7C00  # +/- infinity


@dataclass(slots=True)
class SideEffects:
    """Per-instruction scratch the emulator turns into a DynInst."""

    mem_addr: int = 0
    mem_size: int = 0
    taken: bool = False
    target: int = 0
    div_bits: int = 0      # dividend magnitude for early-out dividers


class MachineState:
    """Registers, CSRs, vector state, and memory for one hart."""

    VLEN_DEFAULT = 128  # bits; two 64-bit slices (section VII)

    def __init__(self, memory: Memory | None = None, hart_id: int = 0,
                 vlen: int = VLEN_DEFAULT):
        self.memory = memory if memory is not None else Memory()
        self.pc = 0
        self.regs: list[int] = [0] * 32
        self.fregs: list[int] = [0] * 32
        self.vlen = vlen
        self.vlenb = vlen // 8
        # The 32 VLEN-bit vector registers live in ONE contiguous numpy
        # buffer so the batched engine (repro.sim.exec_vector) can
        # reinterpret whole register groups as typed lanes without
        # copying.  ``vregs`` keeps the historical per-register byte
        # interface as writable memoryview slices of that buffer — the
        # per-element reference engine mutates registers through them
        # and the numpy views observe every write (same storage).
        self.vbuf: np.ndarray = np.zeros(32 * self.vlenb, dtype=np.uint8)
        _mv = self.vbuf.data  # writable memoryview over the same storage
        self.vregs: list[memoryview] = [
            _mv[r * self.vlenb:(r + 1) * self.vlenb] for r in range(32)]
        # Cached per-SEW reinterpretations of the whole file (unsigned,
        # signed, and float lanes).  Views are free to create but the
        # batched handlers hit these dicts on every instruction.
        self.vview_u: dict[int, np.ndarray] = {
            8: self.vbuf, 16: self.vbuf.view(np.uint16),
            32: self.vbuf.view(np.uint32), 64: self.vbuf.view(np.uint64)}
        self.vview_s: dict[int, np.ndarray] = {
            8: self.vbuf.view(np.int8), 16: self.vbuf.view(np.int16),
            32: self.vbuf.view(np.int32), 64: self.vbuf.view(np.int64)}
        self.vview_f: dict[int, np.ndarray] = {
            16: self.vbuf.view(np.float16), 32: self.vbuf.view(np.float32),
            64: self.vbuf.view(np.float64)}
        #: sim.vector.* counters (batched ops, fallbacks, mask density);
        #: only the numpy engine bumps these, the reference engine and
        #: the scalar pipeline leave them at zero.
        self.vec_counters: dict[str, int] = {
            "batched_ops": 0, "specialized_ops": 0, "fallback_ops": 0,
            "masked_ops": 0, "elems_total": 0, "elems_active": 0}
        self.vl = 0
        self.vtype = 0
        self.sew = 64
        self.lmul = 1
        self.priv = PrivMode.MACHINE
        self.csrs = CsrFile(hart_id=hart_id)
        self.instret = 0
        self.reservation: int | None = None  # LR/SC reservation address
        self.side = SideEffects()
        self.csrs.bind_counter(CSR_INSTRET, lambda: self.instret)
        self.csrs.bind_counter(CSR_CYCLE, lambda: self.instret)
        self.csrs.bind_counter(CSR_TIME, lambda: self.instret)
        self.csrs.bind_counter(CSR_VL, lambda: self.vl)
        self.csrs.bind_counter(CSR_VTYPE, lambda: self.vtype)
        self.csrs.bind_counter(CSR_VLENB, lambda: self.vlenb)

    # -- integer registers ---------------------------------------------------

    def write_x(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & MASK64

    # -- vector helpers --------------------------------------------------------

    def set_vtype(self, vtype: int, avl: int) -> int:
        """Apply a vsetvl and return the granted vl (VLMAX-clamped)."""
        # Inline ``repro.asm.assembler.decode_vtype``: this runs on every
        # vsetvl(i), and a per-call import is most of its cost.
        self.vtype = vtype
        self.sew = sew = 8 << ((vtype >> 2) & 7)
        self.lmul = lmul = 1 << (vtype & 3)
        vlmax = self.vlen * lmul // sew
        self.vl = min(avl, vlmax)
        return self.vl

    @property
    def vlmax(self) -> int:
        return self.vlen * self.lmul // self.sew

    def mask_bit(self, element: int) -> bool:
        """Bit *element* of the mask register v0."""
        return bool(self.vregs[0][element >> 3] >> (element & 7) & 1)
