"""Assembled-program container and the default memory layout.

The layout mirrors a tiny bare-metal embedded map:

* text at ``TEXT_BASE``,
* data/bss at ``DATA_BASE``,
* a descending stack whose top is ``STACK_TOP``,
* an MMIO "tohost" word at ``TOHOST_ADDR`` used by the syscall shim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TEXT_BASE = 0x0001_0000
DATA_BASE = 0x0010_0000
HEAP_BASE = 0x0080_0000
STACK_TOP = 0x0100_0000
TOHOST_ADDR = 0x4000_0000


@dataclass
class Program:
    """The output of the assembler: bytes plus a symbol table."""

    text: bytes
    data: bytes
    symbols: dict[str, int] = field(default_factory=dict)
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    entry: int = TEXT_BASE
    source: str = ""
    #: instruction address -> 1-based source line (assembler provenance)
    lines: dict[int, int] = field(default_factory=dict)

    def source_line(self, addr: int) -> str:
        """The source-text line an instruction address came from."""
        lineno = self.lines.get(addr, 0)
        if not lineno or not self.source:
            return ""
        all_lines = self.source.splitlines()
        if 1 <= lineno <= len(all_lines):
            return all_lines[lineno - 1].strip()
        return ""

    def symbol(self, name: str) -> int:
        """Address of a label; raises KeyError with context if absent."""
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(
                f"symbol {name!r} not defined (have: "
                f"{', '.join(sorted(self.symbols))})") from None

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text)
