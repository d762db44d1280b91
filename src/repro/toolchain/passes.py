"""IR optimization passes (paper section IX).

The XT-910 compiler's three published optimizations over stock RISC-V
GCC are reproduced here at the IR/codegen level:

1. induction-variable optimization — implemented in the code generator
   (loop-bound hoisting + pointer strength reduction), enabled by
   ``CodegenOptions.induction_opt``;
2. the anchor scheme for global variables — also a codegen behaviour
   (``anchor_opt``);
3. dead-store elimination — :func:`dead_store_elimination` below, an
   IR-to-IR pass ("the existing RISC-V compilers do not support DSE
   optimization, XT-910 compiler tool does").

Constant folding is included as the baseline cleanup both compilers do.
"""

from __future__ import annotations

from .ir import Bin, Const, Expr, For, Function, Let, Load, Store, Stmt
from .ir import Interpreter, LoadGlobal, StoreGlobal, U32


def constant_fold(expr: Expr) -> Expr:
    """Fold Bin(Const, Const) subtrees."""
    if isinstance(expr, Bin):
        left = constant_fold(expr.left)
        right = constant_fold(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            value = Interpreter._bin(expr.op, left.value & ((1 << 64) - 1),
                                     right.value & ((1 << 64) - 1))
            return Const(value)
        return Bin(expr.op, left, right)
    if isinstance(expr, U32):
        inner = constant_fold(expr.operand)
        if isinstance(inner, Const):
            return Const(inner.value & 0xFFFFFFFF)
        return U32(inner)
    if isinstance(expr, Load):
        return Load(expr.array, constant_fold(expr.index))
    return expr


def fold_function(function: Function) -> Function:
    """Apply constant folding through all statements."""
    function.body = [_fold_stmt(s) for s in function.body]
    return function


def _fold_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, Let):
        return Let(stmt.name, constant_fold(stmt.expr))
    if isinstance(stmt, Store):
        return Store(stmt.array, constant_fold(stmt.index),
                     constant_fold(stmt.value))
    if isinstance(stmt, StoreGlobal):
        return StoreGlobal(stmt.name, constant_fold(stmt.value))
    if isinstance(stmt, For):
        return For(stmt.var, constant_fold(stmt.count),
                   tuple(_fold_stmt(s) for s in stmt.body))
    return stmt


# --------------------------------------------------------------------------
# Dead store elimination
# --------------------------------------------------------------------------

def _reads_array(expr: Expr, array: str) -> bool:
    if isinstance(expr, Load):
        return expr.array == array or _reads_array(expr.index, array)
    if isinstance(expr, Bin):
        return _reads_array(expr.left, array) or _reads_array(expr.right, array)
    if isinstance(expr, U32):
        return _reads_array(expr.operand, array)
    return False


def _reads_global(expr: Expr, name: str) -> bool:
    if isinstance(expr, LoadGlobal):
        return expr.name == name
    if isinstance(expr, Bin):
        return _reads_global(expr.left, name) or _reads_global(expr.right, name)
    if isinstance(expr, U32):
        return _reads_global(expr.operand, name)
    if isinstance(expr, Load):
        return _reads_global(expr.index, name)
    return False


def dead_store_elimination(function: Function) -> tuple[Function, int]:
    """Remove stores that are provably overwritten before any read.

    Conservative block-local analysis: a ``Store(a, i, v)`` is dead if a
    later statement in the same block stores to the syntactically
    identical ``(a, i)`` with no intervening read of array ``a`` and no
    intervening loop (whose body might read it).  Same for globals.
    Returns (function, number of removed stores).
    """
    removed = 0

    def process(block: tuple[Stmt, ...] | list[Stmt]) -> list[Stmt]:
        nonlocal removed
        out: list[Stmt] = []
        block = [For(s.var, s.count, tuple(process(s.body)))
                 if isinstance(s, For) else s for s in block]
        for pos, stmt in enumerate(block):
            if isinstance(stmt, Store):
                if _store_is_dead(block, pos):
                    removed += 1
                    continue
            if isinstance(stmt, StoreGlobal):
                if _global_store_is_dead(block, pos):
                    removed += 1
                    continue
            out.append(stmt)
        return out

    def _store_is_dead(block: list[Stmt], pos: int) -> bool:
        me = block[pos]
        assert isinstance(me, Store)
        for later in block[pos + 1:]:
            if isinstance(later, For):
                return False
            if isinstance(later, Let) and _reads_array(later.expr, me.array):
                return False
            if isinstance(later, Store):
                if _reads_array(later.value, me.array) \
                        or _reads_array(later.index, me.array):
                    return False
                if later.array == me.array and later.index == me.index:
                    return True
            if isinstance(later, StoreGlobal) \
                    and _reads_array(later.value, me.array):
                return False
        return False

    def _global_store_is_dead(block: list[Stmt], pos: int) -> bool:
        me = block[pos]
        assert isinstance(me, StoreGlobal)
        for later in block[pos + 1:]:
            if isinstance(later, For):
                return False
            if isinstance(later, Let) and _reads_global(later.expr, me.name):
                return False
            if isinstance(later, Store) \
                    and (_reads_global(later.value, me.name)
                         or _reads_global(later.index, me.name)):
                return False
            if isinstance(later, StoreGlobal):
                if _reads_global(later.value, me.name):
                    return False
                if later.name == me.name:
                    return True
        return False

    function.body = process(function.body)
    return function, removed

