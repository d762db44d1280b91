"""SV39 virtual memory tests: translation, permissions, page faults,
privilege transitions (section V.E)."""

from repro.asm import assemble
from repro.mem.ptw import PTE_R, PTE_W, PTE_X, PageTableBuilder
from repro.sim import Emulator, Memory


def boot_with_paging(user_body: str, handler_body: str = "",
                     extra_maps=None, user_flags=PTE_R | PTE_W | PTE_X
                     ) -> Emulator:
    """Assemble an M-mode boot stub that builds SV39 tables, drops to
    S-mode at a *virtual* address, and runs *user_body* there."""
    program = assemble(f"""
        .text
_start:
    la t0, mhandler
    csrw mtvec, t0
    # satp: mode=8 (SV39), root ppn set by the test harness below
    li t1, 8
    slli t1, t1, 60
    li t2, 0x80000      # root = 0x80000000 >> 12
    or t1, t1, t2
    csrw satp, t1
    # mstatus.MPP = supervisor (1)
    li t3, 0x800
    csrs mstatus, t3
    la t4, payload      # identity-mapped code
    csrw mepc, t4
    mret                # drop to S-mode with paging on
payload:
{user_body}
    li a0, 0
    li a7, 93
    ecall               # from S-mode: traps to mhandler
mhandler:
{handler_body if handler_body else '''
    csrr a0, mcause
    li a7, 93
    li t0, 9            # ECALL_FROM_S: clean exit
    bne a0, t0, bad
    li a0, 0
bad:
'''}
    # back in M-mode: paging off, the shim works
    li a7, 93
    ecall
    """)
    memory = Memory()
    memory.load_program(program)
    builder = PageTableBuilder(memory, table_base=0x8000_0000)
    # Identity-map text, data and stack as supervisor RWX.
    builder.identity_map(program.text_base, len(program.text) + 0x1000)
    builder.identity_map(program.data_base, 0x4000)
    builder.identity_map(0x0100_0000 - 0x8000, 0x8000)  # stack
    for vaddr, paddr, size, flags in (extra_maps or []):
        builder.map_page(vaddr, paddr, size, flags)
    emulator = Emulator(program, memory=memory, load=False, enable_mmu=True)
    return emulator


class TestTranslation:
    def test_identity_mapped_execution(self):
        emulator = boot_with_paging("""
    li t0, 21
    slli t0, t0, 1
""")
        assert emulator.run(100_000) == 0

    def test_remapped_data_page(self):
        # Map VA 0x40000000 -> PA 0x00900000 and store through it.
        emulator = boot_with_paging("""
    li t0, 0x40000000
    li t1, 777
    sd t1, 0(t0)
""", extra_maps=[(0x4000_0000, 0x0090_0000, 4096,
                  PTE_R | PTE_W)])
        assert emulator.run(100_000) == 0
        # The store landed at the *physical* page.
        physical = emulator.mmu.physical
        assert physical.load_int(0x0090_0000, 8) == 777
        assert physical.load_int(0x4000_0000, 8) == 0

    def test_huge_page_mapping(self):
        emulator = boot_with_paging("""
    li t0, 0x80200000   # inside a 2M page mapped at VA base 0x80200000
    li t1, 42
    sd t1, 0(t0)
    ld t2, 0(t0)
""", extra_maps=[(0x8020_0000, 0x0080_0000, 2 << 20, PTE_R | PTE_W)])
        assert emulator.run(100_000) == 0
        assert emulator.mmu.physical.load_int(0x0080_0000, 8) == 42


class TestPageFaults:
    def test_unmapped_load_faults(self):
        emulator = boot_with_paging("""
    li t0, 0x70000000
    ld t1, 0(t0)         # no mapping: LOAD_PAGE_FAULT (13)
""", handler_body="""
    csrr a0, mcause      # expose the cause as the exit code
""")
        assert emulator.run(100_000) == 13

    def test_write_to_readonly_faults(self):
        emulator = boot_with_paging("""
    li t0, 0x40000000
    sd t0, 0(t0)         # read-only page: STORE_PAGE_FAULT (15)
""", handler_body="""
    csrr a0, mcause
""", extra_maps=[(0x4000_0000, 0x0090_0000, 4096, PTE_R)])
        assert emulator.run(100_000) == 15

    def test_execute_from_nx_page_faults(self):
        emulator = boot_with_paging("""
    li t0, 0x40000000
    jr t0                # data page is not executable: fault (12)
""", handler_body="""
    csrr a0, mcause
""", extra_maps=[(0x4000_0000, 0x0090_0000, 4096, PTE_R | PTE_W)])
        assert emulator.run(100_000) == 12

    def test_fetch_fault_record_takes_the_next_seq(self):
        emulator = boot_with_paging("""
    li t0, 0x50000000
    jr t0                # unmapped: the fetch faults (12)
""", handler_body="""
    csrr a0, mcause
""")
        seqs = [record.seq for batch in emulator.trace(100_000)
                for record in batch]
        assert emulator.exit_code == 12
        assert seqs == list(range(len(seqs)))

    def test_mtval_holds_faulting_address(self):
        emulator = boot_with_paging("""
    li t0, 0x70000008
    ld t1, 0(t0)
""", handler_body="""
    csrr t5, mtval
    li t6, 0x70000008
    sub a0, t5, t6       # 0 if mtval == faulting VA
""")
        assert emulator.run(100_000) == 0


class TestPrivilege:
    def test_machine_mode_bypasses_paging(self):
        # M-mode runs with satp set but translation inactive.
        program = assemble("""
        _start:
            li t1, 8
            slli t1, t1, 60
            csrw satp, t1      # SV39 enabled... but we stay in M-mode
            li t0, 0x123456
            li a0, 0
            li a7, 93
            ecall
        """)
        emulator = Emulator(program, enable_mmu=True)
        assert emulator.run(10_000) == 0

    def test_ecall_from_smode_traps_with_cause9(self):
        emulator = boot_with_paging("nop", handler_body="""
    csrr a0, mcause
""")
        assert emulator.run(100_000) == 9

    def test_sfence_flushes_tlb(self):
        emulator = boot_with_paging("""
    li t0, 0x40000000
    ld t1, 0(t0)         # warm the TLB
    sfence.vma
    ld t2, 0(t0)         # re-walks, same mapping
""", extra_maps=[(0x4000_0000, 0x0090_0000, 4096, PTE_R)])
        assert emulator.run(100_000) == 0
