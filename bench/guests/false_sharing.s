# smp-cluster guest 2: every hart increments its own dword, but all
# the dwords sit in one 64-byte line, so each store invalidates the
# siblings' L1 copies (write-invalidate ping-pong without a data race).
    .data
    .align 6
slots: .dword 0, 0, 0, 0, 0, 0, 0, 0
    .text
_start:
    csrr s0, mhartid
    la s1, slots
    slli t1, s0, 3
    add s1, s1, t1           # &slots[hartid]
    li s2, 630
loop:
    ld t4, 0(s1)
    addi t4, t4, 1
    sd t4, 0(s1)
    addi s2, s2, -1
    bnez s2, loop
    li t5, 630
    sub a0, t4, t5           # exit 0 iff the slot saw every increment
    li a7, 93
    ecall
