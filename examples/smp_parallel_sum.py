"""SMP on a 4-core cluster (section VI): atomics, locks, coherence.

Runs a real parallel-sum program on four harts sharing memory (with
LR/SC and AMO synchronization), then times it on the 4-core cluster to
show what the snoop filter saves: the probes sent to the cores that
held a stored line, against a broadcast to every other core per store.

    python examples/smp_parallel_sum.py
"""

from repro.asm import assemble
from repro.smp import run_smp, run_smp_timing

PARALLEL_SUM = """
    .equ N, 4096
    .data
    .align 3
arr:    .zero 32768
total:  .dword 0
done:   .dword 0
    .text
_start:
    csrr s0, mhartid
    la s1, arr
    bnez s0, wait_init
    li t0, 0
    li t1, N
init:
    slli t2, t0, 3
    add t3, s1, t2
    addi t4, t0, 1
    sd t4, 0(t3)
    addi t0, t0, 1
    blt t0, t1, init
    la t5, done
    li t6, 1
    amoswap.d x0, t6, (t5)
    j compute
wait_init:
    la t5, done
spin:
    ld t6, 0(t5)
    beqz t6, spin
compute:
    li t0, N
    srli t0, t0, 2
    mul t1, s0, t0
    add t2, t1, t0
    li t3, 0
sum_loop:
    slli t4, t1, 3
    add t5, s1, t4
    ld t6, 0(t5)
    add t3, t3, t6
    addi t1, t1, 1
    blt t1, t2, sum_loop
    la t5, total
    amoadd.d x0, t3, (t5)
    li a0, 0
    li a7, 93
    ecall
"""


def main() -> None:
    program = assemble(PARALLEL_SUM)
    result = run_smp(program, cores=4, interleave=4)
    total = result.memory.load_int(program.symbol("total"), 8)
    expected = 4096 * 4097 // 2
    print("4-hart parallel sum over shared memory")
    print(f"  result {total} (expected {expected}) "
          f"{'OK' if total == expected else 'MISMATCH'}")
    print(f"  per-hart instruction counts: {result.steps}\n")

    # Coherence cost of the sharing pattern, with and without the
    # snoop filter the paper credits for reducing inter-core traffic.
    timed = run_smp_timing(program, cores=4)
    print(f"  timed on the cluster: makespan {timed.makespan} cycles, "
          f"{timed.stores} stores")
    print(f"  {'with snoop filter':20s} snoops={timed.filtered_probes:5d}")
    print(f"  {'broadcast snooping':20s} snoops={timed.broadcast_probes:5d}")


if __name__ == "__main__":
    main()
