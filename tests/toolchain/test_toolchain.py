"""Toolchain tests: both compiler personalities must be correct, and
the optimized one must do what section IX claims."""

import copy

import pytest

from repro.sim import Emulator
from repro.toolchain import (
    ArrayDecl,
    Bin,
    CodegenOptions,
    Const,
    For,
    Function,
    GlobalDecl,
    Interpreter,
    Let,
    Load,
    LoadGlobal,
    Store,
    StoreGlobal,
    U32,
    Var,
    build_program,
    compile_function,
    dead_store_elimination,
    fig20_kernels,
)

KERNELS = fig20_kernels()


def run_compiled(function, options):
    program = build_program(copy.deepcopy(function), options)
    emulator = Emulator(program)
    emulator.run()
    assert emulator.exit_code == 0
    return emulator.state.memory.load_int(program.symbol("result"), 8)


@pytest.mark.parametrize("kernel", KERNELS, ids=[k.name for k in KERNELS])
class TestCorrectness:
    def test_base_codegen_matches_interpreter(self, kernel):
        expected = Interpreter(copy.deepcopy(kernel)).run()
        assert run_compiled(kernel, CodegenOptions.base()) == expected

    def test_optimized_codegen_matches_interpreter(self, kernel):
        expected = Interpreter(copy.deepcopy(kernel)).run()
        assert run_compiled(kernel, CodegenOptions.optimized()) == expected


@pytest.mark.parametrize("kernel", KERNELS, ids=[k.name for k in KERNELS])
def test_optimized_code_executes_fewer_instructions(kernel):
    counts = {}
    for label, options in (("base", CodegenOptions.base()),
                           ("opt", CodegenOptions.optimized())):
        program = build_program(copy.deepcopy(kernel), options)
        emulator = Emulator(program)
        emulator.run()
        counts[label] = emulator.state.instret
    assert counts["opt"] < counts["base"]


class TestInterpreter:
    def test_simple_sum(self):
        fn = Function(name="t", body=[
            For("i", Const(10), (
                Let("acc", Bin("add", Var("acc"), Var("i"))),
            ))])
        assert Interpreter(fn).run() == 45

    def test_array_roundtrip(self):
        fn = Function(name="t", arrays=[ArrayDecl("a", 4, 8)], body=[
            Store("a", Const(2), Const(99)),
            Let("acc", Load("a", Const(2)))])
        assert Interpreter(fn).run() == 99

    def test_signed_narrow_load(self):
        fn = Function(name="t", arrays=[ArrayDecl("a", 2, 2, True)], body=[
            Store("a", Const(0), Const(-5)),
            Let("acc", Load("a", Const(0)))])
        assert Interpreter(fn).run() == (-5) & ((1 << 64) - 1)

    def test_unsigned_narrow_load(self):
        fn = Function(name="t", arrays=[ArrayDecl("a", 2, 2, False)], body=[
            Store("a", Const(0), Const(-5)),
            Let("acc", Load("a", Const(0)))])
        assert Interpreter(fn).run() == 0xFFFB

    def test_u32_truncation(self):
        fn = Function(name="t", body=[
            Let("x", Const(0x1_0000_0005)),
            Let("acc", U32(Var("x")))])
        assert Interpreter(fn).run() == 5

    def test_globals(self):
        fn = Function(name="t", globals_=[GlobalDecl("g", 7)], body=[
            StoreGlobal("g", Bin("add", LoadGlobal("g"), Const(3))),
            Let("acc", LoadGlobal("g"))])
        assert Interpreter(fn).run() == 10

    def test_rotr32(self):
        fn = Function(name="t", body=[
            Let("acc", Bin("rotr32", Const(0x80000001), Const(1)))])
        assert Interpreter(fn).run() == 0xC0000000


class TestDse:
    def _double_store(self):
        return Function(
            name="t", arrays=[ArrayDecl("a", 4, 8)],
            body=[Store("a", Const(0), Const(1)),
                  Store("a", Const(0), Const(2)),
                  Let("acc", Load("a", Const(0)))])

    def test_removes_overwritten_store(self):
        fn, removed = dead_store_elimination(self._double_store())
        assert removed == 1
        assert Interpreter(fn).run() == 2

    def test_keeps_store_with_intervening_read(self):
        fn = Function(
            name="t", arrays=[ArrayDecl("a", 4, 8)],
            body=[Store("a", Const(0), Const(1)),
                  Let("x", Load("a", Const(0))),
                  Store("a", Const(0), Const(2)),
                  Let("acc", Bin("add", Var("x"), Load("a", Const(0))))])
        fn2, removed = dead_store_elimination(copy.deepcopy(fn))
        assert removed == 0
        assert Interpreter(fn2).run() == 3

    def test_keeps_store_before_loop(self):
        fn = Function(
            name="t", arrays=[ArrayDecl("a", 4, 8)],
            body=[Store("a", Const(0), Const(1)),
                  For("i", Const(1), (
                      Let("acc", Load("a", Const(0))),
                  )),
                  Store("a", Const(0), Const(2))])
        _, removed = dead_store_elimination(copy.deepcopy(fn))
        assert removed == 0

    def test_global_dse(self):
        fn = Function(
            name="t", globals_=[GlobalDecl("g")],
            body=[StoreGlobal("g", Const(1)),
                  StoreGlobal("g", Const(2)),
                  Let("acc", LoadGlobal("g"))])
        fn2, removed = dead_store_elimination(copy.deepcopy(fn))
        assert removed == 1
        assert Interpreter(fn2).run() == 2


class TestGeneratedCodeShape:
    def test_base_emits_zero_extension_pairs(self):
        asm = compile_function(copy.deepcopy(KERNELS[0]),
                               CodegenOptions.base())
        assert "slli" in asm and "srli" in asm
        assert "lrw" not in asm

    def test_optimized_uses_indexed_loads_or_pointers(self):
        import copy as c

        asm = compile_function(c.deepcopy(KERNELS[5]),  # gather_u32
                               CodegenOptions.optimized())
        assert "lrw" in asm or ".u" in asm

    def test_optimized_uses_mac(self):
        asm = compile_function(copy.deepcopy(KERNELS[1]),  # dot_mac
                               CodegenOptions.optimized())
        assert "mula" in asm

    def test_anchor_single_la_for_globals(self):
        fn = copy.deepcopy(KERNELS[2])  # global_counters
        base_asm = compile_function(copy.deepcopy(fn), CodegenOptions.base())
        opt_asm = compile_function(fn, CodegenOptions.optimized())
        # base: one address materialization per global access;
        # anchor: a single la + register-offset accesses.
        assert base_asm.count("la ") > opt_asm.count("la ")

    def test_optimized_crypto_uses_rotates(self):
        asm = compile_function(copy.deepcopy(KERNELS[4]),
                               CodegenOptions.optimized())
        assert "srriw" in asm

