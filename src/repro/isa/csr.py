"""Control and status registers and privilege modes (paper Fig. 1).

XT-910 supports the standard U/S/M privilege modes.  The functional
model implements the CSRs the workloads and OS-flavoured tests touch:
machine trap handling, SV39 ``satp``, the counter set, and the vector
configuration registers from the 0.7.1 vector spec.
"""

from __future__ import annotations

import enum
from collections.abc import Callable


class PrivMode(enum.IntEnum):
    """RISC-V privilege modes (Fig. 1)."""

    USER = 0
    SUPERVISOR = 1
    MACHINE = 3


# CSR addresses (subset of the privileged spec).
CSR_FFLAGS = 0x001
CSR_FRM = 0x002
CSR_FCSR = 0x003
CSR_VSTART = 0x008
CSR_VL = 0xC20
CSR_VTYPE = 0xC21
CSR_VLENB = 0xC22
CSR_SSTATUS = 0x100
CSR_SIE = 0x104
CSR_STVEC = 0x105
CSR_SSCRATCH = 0x140
CSR_SEPC = 0x141
CSR_SCAUSE = 0x142
CSR_STVAL = 0x143
CSR_SIP = 0x144
CSR_SATP = 0x180
CSR_MSTATUS = 0x300
CSR_MISA = 0x301
CSR_MEDELEG = 0x302
CSR_MIDELEG = 0x303
CSR_MIE = 0x304
CSR_MTVEC = 0x305
CSR_MSCRATCH = 0x340
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_MIP = 0x344
CSR_CYCLE = 0xC00
CSR_TIME = 0xC01
CSR_INSTRET = 0xC02
CSR_MHARTID = 0xF14

# RAS error-banking CSRs (custom M-mode range, 0x7C0-0x7FF).  A machine
# check banks the failing address and a status word here before the trap
# is delivered, so guest handlers can log and recover (the XT-910 carries
# comparable T-Head extended error CSRs).
CSR_MCERR = 0x7C0       # status: valid | uncorrectable | source | info
CSR_MCERR_ADDR = 0x7C1  # failing physical/virtual address (or reg index)
CSR_MCECNT = 0x7C2      # running count of hardware-corrected errors

MCERR_VALID = 1 << 63
MCERR_UNCORRECTABLE = 1 << 62
MCERR_SOURCE_SHIFT = 8
MCERR_SOURCE_MASK = 0xFF

# Error-source identifiers reported in mcerr[15:8].
MCERR_SOURCES: dict[str, int] = {
    "L1I": 1, "L1D": 2, "L2": 3, "TLB": 4, "REGFILE": 5, "OTHER": 0,
}

CSR_NAMES: dict[str, int] = {
    "fflags": CSR_FFLAGS, "frm": CSR_FRM, "fcsr": CSR_FCSR,
    "vstart": CSR_VSTART, "vl": CSR_VL, "vtype": CSR_VTYPE,
    "vlenb": CSR_VLENB,
    "sstatus": CSR_SSTATUS, "sie": CSR_SIE, "stvec": CSR_STVEC,
    "sscratch": CSR_SSCRATCH, "sepc": CSR_SEPC, "scause": CSR_SCAUSE,
    "stval": CSR_STVAL, "sip": CSR_SIP, "satp": CSR_SATP,
    "mstatus": CSR_MSTATUS, "misa": CSR_MISA, "medeleg": CSR_MEDELEG,
    "mideleg": CSR_MIDELEG, "mie": CSR_MIE, "mtvec": CSR_MTVEC,
    "mscratch": CSR_MSCRATCH, "mepc": CSR_MEPC, "mcause": CSR_MCAUSE,
    "mtval": CSR_MTVAL, "mip": CSR_MIP,
    "cycle": CSR_CYCLE, "time": CSR_TIME, "instret": CSR_INSTRET,
    "mhartid": CSR_MHARTID,
    "mcerr": CSR_MCERR, "mcerraddr": CSR_MCERR_ADDR, "mcecnt": CSR_MCECNT,
}

MASK64 = (1 << 64) - 1

# misa: RV64 with I, M, A, F, D, C, V, U, S bits set.
_MISA_RV64GCV = (
    (2 << 62)
    | (1 << 0)   # A
    | (1 << 2)   # C
    | (1 << 3)   # D
    | (1 << 5)   # F
    | (1 << 8)   # I
    | (1 << 12)  # M
    | (1 << 18)  # S
    | (1 << 20)  # U
    | (1 << 21)  # V
) & MASK64


class TrapCause(enum.IntEnum):
    """Synchronous exception causes used by the model."""

    INSTRUCTION_MISALIGNED = 0
    ILLEGAL_INSTRUCTION = 2
    BREAKPOINT = 3
    LOAD_MISALIGNED = 4
    LOAD_ACCESS_FAULT = 5
    STORE_MISALIGNED = 6
    STORE_ACCESS_FAULT = 7
    ECALL_FROM_U = 8
    ECALL_FROM_S = 9
    ECALL_FROM_M = 11
    INSTRUCTION_PAGE_FAULT = 12
    LOAD_PAGE_FAULT = 13
    STORE_PAGE_FAULT = 15
    # Cause 19 is the privileged spec's "hardware error" exception; we
    # deliver uncorrectable ECC/parity errors (machine checks) on it.
    MACHINE_CHECK = 19


class CsrFile:
    """A flat CSR register file with a few read-side specials.

    Counter CSRs (cycle/time/instret) are backed by callables so the
    emulator can expose its live counters without copying them on every
    retire.
    """

    def __init__(self, hart_id: int = 0):
        self._regs: dict[int, int] = {CSR_MISA: _MISA_RV64GCV,
                                      CSR_MHARTID: hart_id}
        self._hooks: dict[int, Callable[[], int]] = {}

    def bind_counter(self, addr: int, fn: Callable[[], int]) -> None:
        """Back CSR *addr* with a zero-argument callable."""
        self._hooks[addr] = fn

    def read(self, addr: int) -> int:
        hook = self._hooks.get(addr)
        if hook is not None:
            return hook() & MASK64
        return self._regs.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        if addr == CSR_MISA or addr == CSR_MHARTID:
            return  # WARL: writes ignored in this model
        self._regs[addr] = value & MASK64
