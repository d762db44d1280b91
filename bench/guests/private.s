# smp-cluster guest 1: every hart walks its own 64 KiB region.
# No line is shared, so coherence traffic must stay at zero and the
# makespan near-flat as harts are added.
    .text
_start:
    csrr s0, mhartid
    li t0, 0x100000
    slli t1, s0, 16          # 64 KiB private region per hart
    add s1, t0, t1
    li s2, 540
loop:
    andi t2, s2, 0x3FF
    slli t3, t2, 3
    add t3, s1, t3
    ld t4, 0(t3)
    addi t4, t4, 1
    sd t4, 0(t3)
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
