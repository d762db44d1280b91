# smp-cluster guest 3: all harts bump one shared counter with an
# LR/SC retry loop; a sibling's store between LR and SC breaks the
# reservation and the loop goes round again.
    .data
    .align 3
counter: .dword 0
    .text
_start:
    la s1, counter
    li s2, 450
loop:
    lr.d t0, (s1)
    addi t0, t0, 1
    sc.d t1, t0, (s1)
    bnez t1, loop            # reservation lost: retry
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
