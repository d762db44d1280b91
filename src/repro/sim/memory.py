"""Sparse flat physical memory for the functional model.

Backed by 4 KiB pages allocated on demand.  Unaligned accesses are
legal (the XT-910 LSU supports unaligned data access, section II), so
reads and writes transparently cross page boundaries.
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: the entry points a direct page access bypasses
_ENTRY_POINTS = frozenset({"load_int", "load_bytes", "store_int",
                           "store_bytes"})


class Memory:
    """Byte-addressable sparse memory with optional MMIO windows."""

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        self._mmio: list[tuple[int, int, object]] = []  # (base, size, device)
        #: True once any MMIO window is mapped: the vector batch paths
        #: then fall back to per-element accesses (a plain attribute,
        #: since they test it on every store)
        self.has_mmio = False
        self._direct()

    # -- direct page access ------------------------------------------------

    def _direct(self) -> None:
        """The one rule for slicing RAM pages directly rather than
        going through the entry points.

        ``load_pages`` (for loads) and ``store_pages`` (for loads and
        stores) are the page map, page number -> 4 KiB ``bytearray``,
        or None while MMIO is mapped or an entry point the access would
        bypass is wrapped on the instance (``SmpMachine`` wraps the
        stores to break LR reservations); the caller then takes its
        per-access path through them.  A direct caller still leaves a
        page-crossing access, and a load from a page missing from the
        map (it reads zeros without allocating), to the entry points.
        Plain attributes, read on every vector memory op and once per
        tier-3 dispatch.
        """
        wrapped = self.__dict__
        loads = not (self._mmio or "load_int" in wrapped
                     or "load_bytes" in wrapped)
        stores = loads and not ("store_int" in wrapped
                                or "store_bytes" in wrapped)
        self.load_pages = self._pages if loads else None
        self.store_pages = self._pages if stores else None

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _ENTRY_POINTS:
            self._direct()

    def __delattr__(self, name: str) -> None:
        object.__delattr__(self, name)
        if name in _ENTRY_POINTS:
            self._direct()

    def register_mmio(self, base: int, size: int, device) -> None:
        """Map *device* at [base, base+size).

        The device implements ``load(offset, size) -> int`` and
        ``store(offset, value, size)``; accesses must not straddle the
        window boundary.
        """
        self._mmio.append((base, size, device))
        self.has_mmio = True
        self._direct()

    def _mmio_at(self, addr: int):
        for base, size, device in self._mmio:
            if base <= addr < base + size:
                return base, device
        return None

    def _page(self, ppn: int) -> bytearray:
        page = self._pages.get(ppn)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[ppn] = page
        return page

    def load_bytes(self, addr: int, size: int) -> bytes:
        if self._mmio:
            hit = self._mmio_at(addr)
            if hit is not None:
                base, device = hit
                value = device.load(addr - base, size)
                return (value & ((1 << (size * 8)) - 1)).to_bytes(
                    size, "little")
        return self._load_bytes_ram(addr, size)

    def _load_bytes_ram(self, addr: int, size: int) -> bytes:
        ppn, offset = addr >> PAGE_SHIFT, addr & PAGE_MASK
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(ppn)
            if page is None:
                return bytes(size)
            return bytes(page[offset:offset + size])
        out = bytearray()
        while size:
            chunk = min(size, PAGE_SIZE - offset)
            page = self._pages.get(ppn)
            out += (page[offset:offset + chunk] if page is not None
                    else bytes(chunk))
            size -= chunk
            ppn += 1
            offset = 0
        return bytes(out)

    def store_bytes(self, addr: int, data: bytes | memoryview) -> None:
        if self._mmio:
            hit = self._mmio_at(addr)
            if hit is not None:
                base, device = hit
                device.store(addr - base,
                             int.from_bytes(data, "little"), len(data))
                return
        ppn, offset = addr >> PAGE_SHIFT, addr & PAGE_MASK
        size = len(data)
        if offset + size <= PAGE_SIZE:
            self._page(ppn)[offset:offset + size] = data
            return
        pos = 0
        while pos < size:
            chunk = min(size - pos, PAGE_SIZE - offset)
            self._page(ppn)[offset:offset + chunk] = data[pos:pos + chunk]
            pos += chunk
            ppn += 1
            offset = 0

    def load_int(self, addr: int, size: int, signed: bool = False) -> int:
        # Fast path: RAM-only, within one page (the overwhelmingly
        # common shape) — skips the load_bytes/_load_bytes_ram frames.
        offset = addr & PAGE_MASK
        if not self._mmio and offset + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            value = 0 if page is None else int.from_bytes(
                page[offset:offset + size], "little")
        else:
            value = int.from_bytes(self.load_bytes(addr, size), "little")
        if signed and value >= 1 << (size * 8 - 1):
            value -= 1 << (size * 8)
        return value

    def store_int(self, addr: int, value: int, size: int) -> None:
        data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
        offset = addr & PAGE_MASK
        if not self._mmio and offset + size <= PAGE_SIZE:
            page = self._pages.get(addr >> PAGE_SHIFT)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[addr >> PAGE_SHIFT] = page
            page[offset:offset + size] = data
            return
        self.store_bytes(addr, data)

    def load_program(self, program) -> None:
        """Copy a :class:`repro.asm.Program`'s segments into memory."""
        self.store_bytes(program.text_base, program.text)
        if program.data:
            self.store_bytes(program.data_base, program.data)

    def ram_view(self, addr: int, size: int,
                 allocate: bool = False) -> memoryview | None:
        """Writable view of [addr, addr+size) when it sits inside ONE
        RAM page; None otherwise (page-crossing span, direct access
        refused — see :meth:`_direct` — or, unless *allocate*, a page
        that was never touched).

        With ``allocate=True`` the backing page is materialised, which
        must only be done on store paths (loads from untouched memory
        read zeros without allocating); a store through the view needs
        direct stores allowed.
        """
        pages = self.store_pages if allocate else self.load_pages
        if pages is None or size <= 0:
            return None
        offset = addr & PAGE_MASK
        if offset + size > PAGE_SIZE:
            return None
        ppn = addr >> PAGE_SHIFT
        page = self._page(ppn) if allocate else pages.get(ppn)
        if page is None:
            return None
        return memoryview(page)[offset:offset + size]

    @property
    def allocated_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE
