"""Vector stores break a sibling hart's LR reservation, on both engines.

``SmpMachine`` bridges LR/SC across harts by wrapping the shared
memory's ``store_int``/``store_bytes``.  The numpy vector engine used to
write batched stores straight into the page (``Memory.ram_view``), so a
``vse`` between another hart's ``lr.d`` and ``sc.d`` left the
reservation standing and the SC overwrote the vector store.  The
reference engine's per-element ``store_int`` calls are the contract: a
reservation breaks exactly when a written element covers it, never under
an inactive lane or in a stride gap.

Hart 0 takes a reservation, waits eight instructions, then exits with
its ``sc.d`` result (0 = success).  Hart 1 issues one vector store in
that window.  Both harts run the same prelude, so with round-robin
interleave 4 hart 1's store lands between hart 0's LR and SC.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.sim import exec_vector
from repro.smp import run_smp

#: word[0..3]: hart 1 stores 7s, hart 0's SC stores 5
GUEST = """
    .data
    .align 3
word: .dword 1, 1, 1, 1
    .text
_start:
    li t0, 2
    vsetvli t3, t0, e64, m1
    vmv.v.i v4, 7
    li t1, {mask}
    vmv.s.x v0, t1
    vid.v v5
    vsll.vi v5, v5, 4             # indices 0, 16
    li t5, 16                     # stride
    la t2, word
    addi t6, t2, {lr_offset}
    csrr t0, mhartid
    bnez t0, hart1
    lr.d t3, (t6)
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    li t1, 5
    sc.d a0, t1, (t6)
    li a7, 93
    ecall
hart1:
    {store}
    li a0, 0
    li a7, 93
    ecall
"""

#: name -> (store, v0 mask, reservation offset, hart 0's SC result)
CASES = {
    "unmasked": ("vse64.v v4, (t2)", 0, 0, 1),
    "masked-active": ("vse64.v v4, (t2), v0.t", 0b01, 0, 1),
    "masked-inactive": ("vse64.v v4, (t2), v0.t", 0b10, 0, 0),
    "strided": ("vsse64.v v4, (t2), t5", 0, 16, 1),
    "strided-gap": ("vsse64.v v4, (t2), t5", 0, 8, 0),
    "indexed": ("vsxei64.v v4, (t2), v5", 0, 16, 1),
    "indexed-gap": ("vsxei64.v v4, (t2), v5", 0, 8, 0),
}


def _run(case: str, engine: str) -> tuple[list[int], bytes]:
    store, mask, lr_offset, _ = CASES[case]
    program = assemble(GUEST.format(store=store, mask=mask,
                                    lr_offset=lr_offset))
    exec_vector.select_engine(engine)
    try:
        result = run_smp(program, cores=2, interleave=4)
    finally:
        exec_vector.select_engine("numpy")
    return result.exit_codes, result.memory.load_bytes(
        program.symbol("word"), 32)


@pytest.mark.parametrize("case", sorted(CASES))
def test_vector_store_breaks_reservation_like_reference(case):
    ref = _run(case, "ref")
    assert _run(case, "numpy") == ref
    sc_result = CASES[case][3]
    assert ref[0] == [sc_result, 0]
    words = [int.from_bytes(ref[1][k:k + 8], "little") for k in (0, 8, 16)]
    if sc_result == 0:                      # the SC's 5 is in memory
        assert words[CASES[case][2] // 8] == 5
    else:                                   # the vector store's 7 is
        assert words[CASES[case][2] // 8] == 7
