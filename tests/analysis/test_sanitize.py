"""Runtime sanitizer: shadow init state + shadow call stack on the
block-cache path, with zero effect on unsanitized runs."""

import pytest

from repro.analysis import Sanitizer, SanitizerViolation
from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.sim.emulator import Emulator
from repro.uarch.core import PipelineModel
from repro.uarch.presets import get_preset
from repro.workloads import dhrystone, vec_mac16

EXIT = "    li a0, 0\n    li a7, 93\n    ecall\n"


def sanitized_run(source, strict=True, **kwargs):
    program = assemble(source)
    emulator = Emulator(program, **kwargs)
    emulator.sanitizer = Sanitizer(program, strict=strict)
    code = emulator.run(tier=2)
    return emulator, code


class TestCleanRuns:
    def test_simple_program_clean(self):
        emulator, code = sanitized_run("""
_start:
    li t0, 5
    li t1, 7
    add t2, t0, t1
""" + EXIT)
        assert code == 0
        assert emulator.sanitizer.violations == []
        assert emulator.sanitizer.blocks_checked > 0

    @pytest.mark.parametrize("workload", [dhrystone, vec_mac16])
    def test_workloads_clean(self, workload):
        w = workload()
        program = w.program()
        emulator = Emulator(program)
        emulator.sanitizer = Sanitizer(program)
        assert emulator.run(tier=2) == 0
        assert emulator.sanitizer.violations == []

    def test_call_stack_tracked(self):
        emulator, code = sanitized_run("""
_start:
    li a0, 1
    jal ra, outer
""" + EXIT + """
outer:
    addi sp, sp, -16
    sd ra, 0(sp)
    jal ra, inner
    ld ra, 0(sp)
    addi sp, sp, 16
    jalr x0, 0(ra)
inner:
    addi a0, a0, 1
    jalr x0, 0(ra)
""")
        assert code == 0
        assert emulator.sanitizer.max_depth == 2
        assert emulator.sanitizer.call_stack == []


class TestSeededViolations:
    def test_runtime_uninit_read(self):
        with pytest.raises(SanitizerViolation) as exc:
            sanitized_run("""
_start:
    add t1, t0, t2
""" + EXIT)
        violation = exc.value.violation
        assert violation.kind == "uninit-read"
        assert violation.line == 3
        assert "add t1, t0, t2" in violation.source

    def test_runtime_vector_without_vsetvl(self):
        with pytest.raises(SanitizerViolation) as exc:
            sanitized_run("""
_start:
    vmv.v.i v1, 3
""" + EXIT)
        assert exc.value.violation.kind == "vector-no-vsetvl"

    def test_runtime_stack_imbalance(self):
        with pytest.raises(SanitizerViolation) as exc:
            sanitized_run("""
_start:
    jal ra, leaky
""" + EXIT + """
leaky:
    addi sp, sp, -16
    jalr x0, 0(ra)
""")
        violation = exc.value.violation
        assert violation.kind == "stack-imbalance"
        assert "-0x10" in violation.message

    def test_runtime_return_target_corruption(self):
        with pytest.raises(SanitizerViolation) as exc:
            sanitized_run("""
_start:
    jal ra, hijack
""" + EXIT + """
hijack:
    la ra, elsewhere
    jalr x0, 0(ra)
elsewhere:
""" + EXIT)
        assert exc.value.violation.kind == "return-target"

    def test_return_without_call(self):
        with pytest.raises(SanitizerViolation) as exc:
            sanitized_run("""
_start:
    la ra, out
    jalr x0, 0(ra)
out:
""" + EXIT)
        assert exc.value.violation.kind == "stack-underflow"

    def test_non_strict_collects(self):
        emulator, code = sanitized_run("""
_start:
    add t1, t0, t2
    add t3, t0, t2
""" + EXIT, strict=False)
        assert code == 0
        kinds = [v.kind for v in emulator.sanitizer.violations]
        assert kinds.count("uninit-read") >= 2

    def test_violation_dict_shape(self):
        emulator, _ = sanitized_run("""
_start:
    add t1, t0, t2
""" + EXIT, strict=False)
        payload = emulator.sanitizer.violations[0].to_dict()
        assert set(payload) == {"kind", "pc", "line", "message",
                                "detail", "source"}


class TestZeroPerturbation:
    """With and without a sanitizer attached, architectural results and
    timing statistics are identical; with it detached, the fast loops
    skip the hooks entirely."""

    def test_archstate_identical(self):
        program = dhrystone().program()
        plain = Emulator(program)
        plain.run(tier=2)
        checked = Emulator(program)
        checked.sanitizer = Sanitizer(program)
        checked.run(tier=2)
        assert plain.fingerprint() == checked.fingerprint()

    def test_corestats_bit_identical(self):
        program = dhrystone().program()
        baseline = run_on_core(program, "xt910").stats

        emulator = Emulator(program)
        emulator.sanitizer = Sanitizer(program)
        pipeline = PipelineModel(get_preset("xt910"))
        stats = pipeline.run(emulator.trace(tier=2))
        assert emulator.sanitizer.blocks_checked > 0
        assert stats.as_comparable() == baseline.as_comparable()
