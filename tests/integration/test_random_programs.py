"""Differential/property testing over randomly generated programs.

Hypothesis builds random (but always-terminating) programs from a menu
of ALU, multiply/divide, memory and branch templates; each program runs
through the whole stack — assembler, RVC compressor, emulator, pipeline
— and the invariants below must hold for every core preset:

* the timing model retires exactly the instructions the emulator ran,
* cycle counts are deterministic and bounded,
* compressed and uncompressed builds compute identical results,
* every executed instruction disassembles and reassembles to itself.
"""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.sim import Emulator

SCRATCH = "scratch"

_ALU_TEMPLATES = [
    "add {d}, {a}, {b}",
    "sub {d}, {a}, {b}",
    "xor {d}, {a}, {b}",
    "or {d}, {a}, {b}",
    "and {d}, {a}, {b}",
    "sll {d}, {a}, {c5}",
    "srl {d}, {a}, {c5}",
    "addi {d}, {a}, {imm}",
    "andi {d}, {a}, {imm}",
    "slli {d}, {a}, {sh}",
    "srli {d}, {a}, {sh}",
    "addw {d}, {a}, {b}",
    "mul {d}, {a}, {b}",
    "mulw {d}, {a}, {b}",
    "div {d}, {a}, {bnz}",
    "rem {d}, {a}, {bnz}",
    "srri {d}, {a}, {sh}",
    "mula {d}, {a}, {b}",
    "addsl {d}, {a}, {b}, 2",
]

_MEM_TEMPLATES = [
    "sd {a}, {moff}(s1)",
    "ld {d}, {moff}(s1)",
    "sw {a}, {moff}(s1)",
    "lw {d}, {moff}(s1)",
    "lbu {d}, {moff}(s1)",
]

_REGS = ["t0", "t1", "t2", "t3", "t4", "t5", "s2", "s3", "s4"]


@st.composite
def random_program(draw):
    body_len = draw(st.integers(4, 24))
    loop_count = draw(st.integers(1, 12))
    lines = [
        "    .data",
        "    .align 3",
        f"{SCRATCH}: .zero 256",
        "    .text",
        "_start:",
        f"    la s1, {SCRATCH}",
    ]
    # Seed registers with draw-dependent values.
    for reg in _REGS:
        seed = draw(st.integers(-1000, 1000))
        lines.append(f"    li {reg}, {seed}")
    lines.append(f"    li s0, {loop_count}")
    lines.append("loop:")
    for _ in range(body_len):
        use_mem = draw(st.booleans())
        template = draw(st.sampled_from(
            _MEM_TEMPLATES if use_mem else _ALU_TEMPLATES))
        d = draw(st.sampled_from(_REGS))
        a = draw(st.sampled_from(_REGS))
        b = draw(st.sampled_from(_REGS))
        line = template.format(
            d=d, a=a, b=b,
            bnz="s0",                           # never zero inside the loop
            c5=draw(st.sampled_from(_REGS)),
            imm=draw(st.integers(-512, 511)),
            sh=draw(st.integers(0, 31)),
            moff=draw(st.integers(0, 31)) * 8,
        )
        if "sll " in line or "srl " in line:
            pass  # shift amount register: masked by hardware semantics
        lines.append(f"    {line}")
    # Optional data-dependent forward branch inside the loop.
    if draw(st.booleans()):
        reg = draw(st.sampled_from(_REGS))
        lines.insert(len(lines) - body_len // 2,
                     f"    beqz {reg}, skip\n    addi {reg}, {reg}, 1\nskip:")
    lines.append("    addi s0, s0, -1")
    lines.append("    bnez s0, loop")
    lines.append("    li a0, 0")
    lines.append("    li a7, 93")
    lines.append("    ecall")
    return "\n".join(lines)


def checksum_memory(emulator, base_symbol, program):
    base = program.symbol(base_symbol)
    return emulator.state.memory.load_bytes(base, 256)


@settings(max_examples=25, deadline=None)
@given(random_program())
def test_timing_invariants(source):
    program = assemble(source, compress=True)
    emulator = Emulator(program)
    emulator.run(200_000)
    executed = emulator.state.instret

    result = run_on_core(program, "xt910", max_steps=200_000)
    stats = result.stats
    assert stats.instructions == executed
    assert stats.cycles >= executed / 8          # issue-width bound
    assert stats.cycles <= executed * 400 + 2000  # no runaway clocks
    # Determinism.
    again = run_on_core(program, "xt910", max_steps=200_000)
    assert again.cycles == result.cycles


@settings(max_examples=15, deadline=None)
@given(random_program())
def test_compression_preserves_semantics(source):
    plain = assemble(source, compress=False)
    small = assemble(source, compress=True)
    emu_plain = Emulator(plain)
    emu_plain.run(200_000)
    emu_small = Emulator(small)
    emu_small.run(200_000)
    assert emu_plain.state.instret == emu_small.state.instret
    assert checksum_memory(emu_plain, SCRATCH, plain) \
        == checksum_memory(emu_small, SCRATCH, small)
    assert emu_plain.state.regs[5:30] == emu_small.state.regs[5:30]


@settings(max_examples=10, deadline=None)
@given(random_program())
def test_executed_instructions_roundtrip_disasm(source):
    from repro.isa.disasm import disassemble
    from repro.isa.encoding import encode

    program = assemble(source, compress=False)
    emulator = Emulator(program)
    seen = set()
    for (dyn,) in emulator.trace(50_000):
        if dyn.pc in seen:
            continue
        seen.add(dyn.pc)
        if dyn.inst.spec.fmt in ("B", "J", "U"):
            continue  # label-relative forms: covered by targeted tests
        text = disassemble(dyn.inst)
        reassembled = assemble(".text\n" + text + "\n")
        word = int.from_bytes(reassembled.text[:4], "little")
        assert word == encode(dyn.inst), text


@settings(max_examples=10, deadline=None)
@given(random_program(), st.sampled_from(["u74", "cortex-a73", "u54"]))
def test_all_presets_run_everything(source, core):
    program = assemble(source, compress=True)
    result = run_on_core(program, core, max_steps=200_000)
    assert result.cycles > 0
    assert result.stats.instructions > 0
