"""Property test: block-translated execution == precise interpretation.

Hypothesis generates random short programs exercising the paths where
the fast engine could plausibly diverge from ``step()`` — forward and
backward branches, RVC-compressed encodings, ``fence.i`` (block
invalidation mid-run), stores near code, and the ``ecall`` exit shim —
and asserts both execution modes retire the identical DynInst
sequence, register file and memory digest.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.sim import Emulator

SCRATCH = "scratch"

_TEMPLATES = [
    "add {d}, {a}, {b}",
    "sub {d}, {a}, {b}",
    "xor {d}, {a}, {b}",
    "addi {d}, {a}, {imm}",
    "slli {d}, {a}, {sh}",
    "mul {d}, {a}, {b}",
    "div {d}, {a}, {bnz}",
    "auipc {d}, {upper}",
    "sd {a}, {moff}(s1)",
    "ld {d}, {moff}(s1)",
    "sw {a}, {moff}(s1)",
    "lbu {d}, {moff}(s1)",
    "fence.i",
    "nop",
]

_REGS = ["t0", "t1", "t2", "t3", "s2", "s3"]

_FIELDS = ("seq", "pc", "next_pc", "taken", "target", "mem_addr",
           "mem_size", "vl", "sew", "div_bits")


@st.composite
def short_program(draw):
    body_len = draw(st.integers(3, 16))
    loop_count = draw(st.integers(1, 6))
    exit_code = draw(st.integers(0, 3))
    lines = [
        "    .data",
        "    .align 3",
        f"{SCRATCH}: .zero 256",
        "    .text",
        "_start:",
        f"    la s1, {SCRATCH}",
    ]
    for reg in _REGS:
        lines.append(f"    li {reg}, {draw(st.integers(-500, 500))}")
    lines.append(f"    li s0, {loop_count}")
    lines.append("loop:")
    for _ in range(body_len):
        template = draw(st.sampled_from(_TEMPLATES))
        lines.append("    " + template.format(
            d=draw(st.sampled_from(_REGS)),
            a=draw(st.sampled_from(_REGS)),
            b=draw(st.sampled_from(_REGS)),
            bnz="s0",
            imm=draw(st.integers(-512, 511)),
            sh=draw(st.integers(0, 31)),
            upper=draw(st.integers(0, 15)),
            moff=draw(st.integers(0, 31)) * 8,
        ))
    if draw(st.booleans()):
        reg = draw(st.sampled_from(_REGS))
        lines.append(f"    beqz {reg}, skip")
        lines.append(f"    addi {reg}, {reg}, 1")
        lines.append("skip:")
    lines.append("    addi s0, s0, -1")
    lines.append("    bnez s0, loop")
    lines.append(f"    li a0, {exit_code}")
    lines.append("    li a7, 93")
    lines.append("    ecall")
    return "\n".join(lines)


def _snap(dyn):
    return (dyn.inst.spec.mnemonic,) + tuple(
        getattr(dyn, f) for f in _FIELDS)


def _digest(emulator):
    mem = emulator.state.memory
    digest = hashlib.sha256()
    for base in sorted(mem._pages):
        digest.update(base.to_bytes(8, "little"))
        digest.update(bytes(mem._pages[base]))
    return digest.hexdigest()


@settings(max_examples=30, deadline=None)
@given(short_program(), st.booleans())
def test_fast_matches_precise(source, compress):
    program_bytes = assemble(source, compress=compress)
    precise = Emulator(program_bytes)
    precise_stream = [_snap(d) for (d,) in precise.trace(100_000)]

    fast = Emulator(assemble(source, compress=compress))
    fast_stream = []
    for batch in fast.trace(100_000, tier=2):
        fast_stream.extend(_snap(d) for d in batch)

    assert precise_stream == fast_stream
    assert list(precise.state.regs) == list(fast.state.regs)
    assert precise.state.pc == fast.state.pc
    assert precise.state.instret == fast.state.instret
    assert precise.exit_code == fast.exit_code
    assert _digest(precise) == _digest(fast)
