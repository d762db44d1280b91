"""Memory model tests: sparse pages, cross-page access, MMIO windows."""

from hypothesis import given, settings, strategies as st

from repro.sim import Memory


class TestSparseMemory:
    def test_uninitialized_reads_zero(self):
        m = Memory()
        assert m.load_int(0x12345, 8) == 0

    def test_roundtrip_all_widths(self):
        m = Memory()
        for size in (1, 2, 4, 8):
            m.store_int(0x1000, 0xA5A5A5A5A5A5A5A5, size)
            assert m.load_int(0x1000, size) == \
                0xA5A5A5A5A5A5A5A5 & ((1 << (size * 8)) - 1)

    def test_signed_load(self):
        m = Memory()
        m.store_int(0x1000, 0xFF, 1)
        assert m.load_int(0x1000, 1, signed=True) == -1
        assert m.load_int(0x1000, 1) == 255

    def test_cross_page_store_load(self):
        m = Memory()
        addr = 0x1FFC  # straddles the 4K page boundary
        m.store_int(addr, 0x1122334455667788, 8)
        assert m.load_int(addr, 8) == 0x1122334455667788
        assert m.load_int(0x2000, 4) == 0x11223344

    def test_allocated_pages_tracked(self):
        m = Memory()
        m.store_int(0x0, 1, 1)
        m.store_int(0x100000, 1, 1)
        assert m.allocated_bytes == 2 * 4096

    def test_sparse_far_addresses(self):
        m = Memory()
        m.store_int(1 << 40, 42, 8)
        assert m.load_int(1 << 40, 8) == 42


class TestDirectPages:
    """The one rule for slicing pages directly (tier 3's loads and
    stores, the vector engine's ``ram_view``): refused while MMIO is
    mapped or an entry point is wrapped on the instance."""

    def test_direct_by_default(self):
        m = Memory()
        assert m.load_pages is m.store_pages is m._pages

    def test_wrapped_store_refuses_stores_until_unwrapped(self):
        m = Memory()
        m.store_int = lambda addr, value, size: None
        assert m.store_pages is None and m.load_pages is m._pages
        assert m.ram_view(0x1000, 8, allocate=True) is None
        del m.store_int
        assert m.store_pages is m._pages
        assert m.ram_view(0x1000, 8, allocate=True) is not None

    def test_wrapped_load_refuses_both(self):
        m = Memory()
        m.store_int(0x1000, 7, 8)
        m.load_int = lambda addr, size, signed=False: 0
        assert m.load_pages is m.store_pages is None
        assert m.ram_view(0x1000, 8) is None

    def test_mmio_refuses_both(self):
        m = Memory()
        m.register_mmio(0x1000_0000, 0x1000, _ScratchDevice())
        assert m.load_pages is m.store_pages is None


class _ScratchDevice:
    def __init__(self):
        self.regs = {}
        self.loads = 0

    def load(self, offset, size):
        self.loads += 1
        return self.regs.get(offset, 0)

    def store(self, offset, value, size):
        self.regs[offset] = value


class TestMmio:
    def test_window_dispatch(self):
        m = Memory()
        device = _ScratchDevice()
        m.register_mmio(0x1000_0000, 0x1000, device)
        m.store_int(0x1000_0008, 99, 8)
        assert device.regs[8] == 99
        assert m.load_int(0x1000_0008, 8) == 99
        assert device.loads == 1

    def test_ram_unaffected_outside_window(self):
        m = Memory()
        m.register_mmio(0x1000_0000, 0x1000, _ScratchDevice())
        m.store_int(0x2000, 7, 8)
        assert m.load_int(0x2000, 8) == 7

    def test_multiple_windows(self):
        m = Memory()
        a, b = _ScratchDevice(), _ScratchDevice()
        m.register_mmio(0x1000_0000, 0x100, a)
        m.register_mmio(0x2000_0000, 0x100, b)
        m.store_int(0x1000_0000, 1, 4)
        m.store_int(0x2000_0000, 2, 4)
        assert a.regs[0] == 1 and b.regs[0] == 2

    def test_program_drives_mmio(self):
        from repro.asm import assemble
        from repro.sim import Emulator

        device = _ScratchDevice()
        device.regs[0] = 1234
        memory = Memory()
        memory.register_mmio(0x1000_0000, 0x1000, device)
        program = assemble("""
        _start:
            li t0, 0x10000000
            ld a0, 0(t0)         # read the device register
            li t1, 55
            sd t1, 8(t0)         # write another
            li a7, 93
            ecall
        """)
        memory.load_program(program)
        emulator = Emulator(program, memory=memory, load=False)
        assert emulator.run() == 1234
        assert device.regs[8] == 55


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 20),
                          st.integers(0, (1 << 64) - 1),
                          st.sampled_from([1, 2, 4, 8])),
                min_size=1, max_size=50))
def test_store_load_property(ops):
    """The last store to an address wins, at any width."""
    m = Memory()
    shadow = {}
    for addr, value, size in ops:
        m.store_int(addr, value, size)
        for i in range(size):
            shadow[addr + i] = (value >> (8 * i)) & 0xFF
    for addr, byte in shadow.items():
        assert m.load_int(addr, 1) == byte
