"""JIT tier: lower kernel bodies to generated Python over whole-array numpy.

The vectorizing interpreter (:mod:`repro.gpusim.executor`) walks the IR
statement-by-statement on every launch.  This module removes the walk:
a kernel body is lowered *once* to generated Python source, compiled
with :func:`compile`, and cached in the shared content-addressed
:class:`~repro.models.cache.ArtifactStore` keyed by the kernel's IR
hash.  Every subsequent launch of any kernel with the same body (across
benchmarks, models, and variants — the store key composes with the
compile cache's ``(bench, model, variant, config_hash)`` keying
upstream) runs the compiled function directly.

Correctness contract
--------------------

The generated code *shares* the interpreter's semantics rather than
copying it: every load, store, cast, masked scalar promotion and
unbound-name check is a call into :mod:`repro.gpusim.semantics`, and
every operator is spelled from that module's tables.  What the codegen
owns is the control-flow lowering — the evaluation order and the
mask-combine expressions of the interpreter's walk.  Results are
therefore *bitwise* identical, not merely close; the differential
harness in ``tests/test_jit_differential.py`` and ``REPRO_JIT=verify``
check the lowering on every launch.

Dispatch (see :func:`repro.gpusim.executor.execute_kernel`):

* ``on``     — JIT when the body is lowerable, interpreter otherwise;
* ``off``    — always the interpreter;
* ``verify`` — run *both* engines on every launch and raise
  :class:`JitVerifyError` unless all output arrays agree byte-for-byte.

The mode comes from the ``REPRO_JIT`` environment variable (inherited by
sweep worker processes), overridden by :func:`set_mode` / the CLI's
``--jit`` flag / the :func:`jit_mode` context manager.

Fallback taxonomy
-----------------

Bodies the codegen declines are executed by the interpreter and counted
under the ``jit_fallback{kernel,reason}`` metric (surfaced as JIT001
notes by ``repro-harness selfprof``).  Reasons:

``pointer-arith``         device-side pointer swaps (host-only construct)
``return-in-function``    early ``return`` in a called function (calls
                          are inlined; an early return has no structured
                          Python equivalent)
``return-outside-function`` a top-level ``return`` in a kernel body
``recursive-call``        (mutually) recursive user functions
``unknown-function``      call target absent from the program
``call-arity``            argument/parameter count mismatch
``array-arg-not-name``    array argument that is not a plain name
``local-shadows-global``  a thread-local array shadowing a device array
``unsupported-*``         any IR node kind the codegen does not know
``code-size``             generated source over ``_MAX_LINES`` lines
``vector-scalar-arg``     a launch passed a vector where a scalar
                          parameter was expected (dynamic, per launch)
``codegen-error``         defensive catch-all: generated source failed
                          to compile (never expected; please report)
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, MutableMapping, Optional

import numpy as np

from repro.errors import ExecutionError, LaunchError
from repro.gpusim import semantics as sem
from repro.gpusim.kernel import Kernel
from repro.ir.expr import (ArrayRef, BinOp, Call, Cast, Const, Expr,
                           Ternary, UnOp, Var)
from repro.ir.program import Function
from repro.ir.serialize import stmt_to_dict
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)

__all__ = [
    "JIT_MODES", "JitUnsupported", "JitVerifyError", "JitProgram",
    "current_mode", "set_mode", "jit_mode", "kernel_ir_hash",
    "compile_kernel", "program_for", "run_verify", "fallback_log",
]

JIT_MODES = ("on", "off", "verify")


class JitUnsupported(Exception):
    """The codegen declined this body; carries the taxonomy ``reason``."""

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class JitVerifyError(ExecutionError):
    """``verify`` mode found a JIT/interpreter divergence (a bug)."""


# ---------------------------------------------------------------------------
# Mode knob
# ---------------------------------------------------------------------------

def _mode_from_env() -> str:
    mode = os.environ.get("REPRO_JIT", "on").strip().lower()
    return mode if mode in JIT_MODES else "on"


_MODE: str = _mode_from_env()
_MODE_LOCK = threading.Lock()


def current_mode() -> str:
    """The active JIT mode: ``on``, ``off``, or ``verify``."""
    return _MODE


def set_mode(mode: str) -> None:
    """Set the process-wide JIT mode (CLI ``--jit`` lands here)."""
    global _MODE
    if mode not in JIT_MODES:
        raise ValueError(f"unknown JIT mode {mode!r}; known: {JIT_MODES}")
    with _MODE_LOCK:
        _MODE = mode


@contextmanager
def jit_mode(mode: str) -> Iterator[None]:
    """Temporarily switch the JIT mode (tests, verify sweeps)."""
    previous = current_mode()
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(previous)


#: (kernel, reason) → launches that fell back; feeds the selfprof notes
_FALLBACKS: dict[tuple[str, str], int] = {}
_FALLBACK_LOCK = threading.Lock()


def record_fallback(kernel: str, reason: str) -> None:
    with _FALLBACK_LOCK:
        key = (kernel, reason)
        _FALLBACKS[key] = _FALLBACKS.get(key, 0) + 1


def fallback_log() -> dict[tuple[str, str], int]:
    """Snapshot of per-kernel fallback counts (selfprof notes)."""
    with _FALLBACK_LOCK:
        return dict(_FALLBACKS)


def clear_fallback_log() -> None:
    with _FALLBACK_LOCK:
        _FALLBACKS.clear()


# ---------------------------------------------------------------------------
# IR hashing (the artifact-store key)
# ---------------------------------------------------------------------------

def _reachable_functions(body: Stmt,
                         functions: Mapping[str, Function]) -> dict:
    """Serialized bodies of every function reachable from ``body``."""
    out: dict[str, dict] = {}
    pending = [body]
    while pending:
        node = pending.pop()
        for stmt in node.walk():
            if isinstance(stmt, CallStmt) and stmt.func in functions \
                    and stmt.func not in out:
                func = functions[stmt.func]
                out[stmt.func] = {
                    "params": [(p.name, p.is_array, p.dtype)
                               for p in func.params],
                    "body": stmt_to_dict(func.body),
                }
                pending.append(func.body)
    return out


def kernel_ir_hash(kernel: Kernel,
                   functions: Optional[Mapping[str, Function]] = None) -> str:
    """Content hash of everything that determines a kernel's *values*.

    The kernel name is deliberately excluded (it only decorates error
    messages, which the generated code takes as a runtime parameter), so
    identically-shaped kernels from different ports share one artifact.
    Memoized on the kernel object — bodies are immutable.
    """
    funcs = dict(functions or {})
    memo = getattr(kernel, "_jit_hash_memo", None)
    sig = tuple(sorted((name, id(fn)) for name, fn in funcs.items()))
    if memo is not None and memo[0] == sig:
        return memo[1]
    doc = {
        "v": 1,
        "body": stmt_to_dict(kernel.body),
        "thread_vars": list(kernel.thread_vars),
        "functions": {name: spec for name, spec in sorted(
            _reachable_functions(kernel.body, funcs).items())},
    }
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    kernel._jit_hash_memo = (sig, digest)  # type: ignore[attr-defined]
    return digest


# ---------------------------------------------------------------------------
# Call inlining (IR → IR)
# ---------------------------------------------------------------------------

def _rename_expr(expr: Expr, smap: Mapping[str, str],
                 amap: Mapping[str, str]) -> Expr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        if expr.name in smap:
            return Var(smap[expr.name])
        if expr.name in amap:
            return Var(amap[expr.name])
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rename_expr(expr.left, smap, amap),
                     _rename_expr(expr.right, smap, amap))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _rename_expr(expr.operand, smap, amap))
    if isinstance(expr, Call):
        return Call(expr.func,
                    [_rename_expr(a, smap, amap) for a in expr.args])
    if isinstance(expr, Ternary):
        return Ternary(_rename_expr(expr.cond, smap, amap),
                       _rename_expr(expr.if_true, smap, amap),
                       _rename_expr(expr.if_false, smap, amap))
    if isinstance(expr, Cast):
        return Cast(expr.dtype, _rename_expr(expr.operand, smap, amap))
    if isinstance(expr, ArrayRef):
        name = amap.get(expr.name, expr.name)
        return ArrayRef(name,
                        [_rename_expr(i, smap, amap) for i in expr.indices])
    raise JitUnsupported("unsupported-expr", repr(expr))


def _rename_stmt(stmt: Stmt, smap: Mapping[str, str],
                 amap: Mapping[str, str]) -> Stmt:
    if isinstance(stmt, Block):
        return Block([_rename_stmt(s, smap, amap) for s in stmt.stmts])
    if isinstance(stmt, Assign):
        target = _rename_expr(stmt.target, smap, amap)
        return Assign(target, _rename_expr(stmt.value, smap, amap),
                      op=stmt.op)
    if isinstance(stmt, LocalDecl):
        name = smap.get(stmt.name, stmt.name) if not stmt.shape else stmt.name
        return LocalDecl(name, shape=stmt.shape, dtype=stmt.dtype,
                         init=_rename_expr(stmt.init, smap, amap)
                         if stmt.init is not None else None)
    if isinstance(stmt, For):
        return For(smap.get(stmt.var, stmt.var),
                   _rename_expr(stmt.lower, smap, amap),
                   _rename_expr(stmt.upper, smap, amap),
                   _rename_stmt(stmt.body, smap, amap),
                   step=_rename_expr(stmt.step, smap, amap),
                   parallel=stmt.parallel, private=stmt.private,
                   reductions=stmt.reductions, collapse=stmt.collapse,
                   schedule=stmt.schedule)
    if isinstance(stmt, While):
        return While(_rename_expr(stmt.cond, smap, amap),
                     _rename_stmt(stmt.body, smap, amap))
    if isinstance(stmt, If):
        return If(_rename_expr(stmt.cond, smap, amap),
                  _rename_stmt(stmt.then_body, smap, amap),
                  _rename_stmt(stmt.else_body, smap, amap)
                  if stmt.else_body is not None else None)
    if isinstance(stmt, Critical):
        return Critical(_rename_stmt(stmt.body, smap, amap))
    if isinstance(stmt, (Barrier, Return, PointerArith)):
        return stmt
    if isinstance(stmt, CallStmt):
        return CallStmt(stmt.func,
                        [_rename_expr(a, smap, amap) for a in stmt.args])
    raise JitUnsupported("unsupported-stmt", repr(stmt))


class _Inliner:
    """Expands every :class:`CallStmt` in place, mirroring the
    interpreter's interleaved bind-then-evaluate argument discipline
    (a later argument sees earlier parameter bindings when names
    collide, exactly as the shared-``env`` interpreter does)."""

    def __init__(self, functions: Mapping[str, Function]) -> None:
        self.functions = dict(functions)
        self.counter = 0

    def inline(self, stmt: Stmt, stack: tuple[str, ...] = ()) -> Stmt:
        if isinstance(stmt, Block):
            return Block([self.inline(s, stack) for s in stmt.stmts])
        if isinstance(stmt, For):
            return For(stmt.var, stmt.lower, stmt.upper,
                       self.inline(stmt.body, stack), step=stmt.step,
                       parallel=stmt.parallel, private=stmt.private,
                       reductions=stmt.reductions, collapse=stmt.collapse,
                       schedule=stmt.schedule)
        if isinstance(stmt, While):
            return While(stmt.cond, self.inline(stmt.body, stack))
        if isinstance(stmt, If):
            return If(stmt.cond, self.inline(stmt.then_body, stack),
                      self.inline(stmt.else_body, stack)
                      if stmt.else_body is not None else None)
        if isinstance(stmt, Critical):
            return Critical(self.inline(stmt.body, stack))
        if isinstance(stmt, CallStmt):
            return self._inline_call(stmt, stack)
        if isinstance(stmt, Return):
            if not stack:
                raise JitUnsupported("return-outside-function")
            raise JitUnsupported("return-in-function")
        return stmt

    def _inline_call(self, stmt: CallStmt, stack: tuple[str, ...]) -> Stmt:
        func = self.functions.get(stmt.func)
        if func is None:
            raise JitUnsupported("unknown-function", stmt.func)
        if stmt.func in stack:
            raise JitUnsupported("recursive-call", stmt.func)
        if len(stmt.args) != len(func.params):
            raise JitUnsupported("call-arity", stmt.func)
        for node in func.body.walk():
            if isinstance(node, Return):
                raise JitUnsupported("return-in-function", stmt.func)
        site = self.counter
        self.counter += 1
        smap: dict[str, str] = {}
        amap: dict[str, str] = {}
        prelude: list[Stmt] = []
        for k, (param, arg) in enumerate(zip(func.params, stmt.args)):
            # arguments renamed with the maps built *so far*: the
            # interpreter binds param k before evaluating arg k+1
            arg = _rename_expr(arg, smap, amap)
            if param.is_array:
                if not isinstance(arg, Var):
                    raise JitUnsupported("array-arg-not-name", stmt.func)
                amap[param.name] = arg.name
            else:
                mangled = f"__arg{site}_{k}_{param.name}"
                prelude.append(Assign(Var(mangled), arg))
                smap[param.name] = mangled
        body = _rename_stmt(func.body, smap, amap)
        body = self.inline(body, stack + (stmt.func,))
        return Block(prelude + [body])


# ---------------------------------------------------------------------------
# Static vectorness analysis
# ---------------------------------------------------------------------------
# A conservative lattice over "is this value a (T,) lane vector?":
#   S (always scalar) < D (either) > V (always vector).
# Used only to *choose the emission strategy* for control flow — S and V
# conditions get straight-line fast paths, D gets the interpreter's full
# dynamic dual path — so imprecision costs speed, never correctness.

_S, _V, _D = "S", "V", "D"


def _grid_nest(body: Stmt, thread_vars: tuple[str, ...]) -> list[For]:
    """The outermost parallel nest of the *inlined* body — the same
    structure :meth:`Kernel.grid_loops` finds on the original (inlining
    rebuilds ``For`` nodes unchanged, so the nest survives)."""
    loops: list[For] = []

    def outer_parallel(b: Stmt) -> Optional[For]:
        if isinstance(b, Block):
            fors = [s for s in b.stmts if isinstance(s, For) and s.parallel]
            if len(fors) == 1:
                return fors[0]
            return None
        if isinstance(b, For) and b.parallel:
            return b
        return None

    current = outer_parallel(body)
    while current is not None and len(loops) < len(thread_vars):
        loops.append(current)
        current = outer_parallel(current.body)
    if tuple(l.var for l in loops) != tuple(thread_vars):
        raise JitUnsupported(
            "unsupported-stmt",
            "inlined body lost the outermost parallel nest")
    return loops


def _bink(*kinds: str) -> str:
    """Broadcasting combine: any vector operand makes a vector result."""
    if _V in kinds:
        return _V
    if _D in kinds:
        return _D
    return _S


def _joink(a: str, b: str) -> str:
    """Assignment join: disagreement means 'either at runtime'."""
    return a if a == b else _D


def _combine_ctx(ctx: str, cond: str) -> str:
    """Mask-activity combine for entering a guarded scope.

    ``ctx`` states: S = definitely unmasked, V = definitely masked,
    D = maybe.  A vector condition always pushes a mask.
    """
    if cond == _S:
        return ctx
    if cond == _V:
        return _V
    return _D if ctx != _V else _V


class _Kinds:
    """Flow-insensitive fixpoint of per-name vectorness."""

    def __init__(self, body: Stmt, thread_vars: tuple[str, ...],
                 local_arrays: frozenset[str]) -> None:
        self.kinds: dict[str, str] = {tv: _V for tv in thread_vars}
        self.local_arrays = local_arrays
        self.thread_vars = set(thread_vars)
        for _ in range(10):
            before = dict(self.kinds)
            self._scan(body, _S)
            if self.kinds == before:
                break

    def of_name(self, name: str) -> str:
        # unseen names are env scalars (the dispatcher rejects vector
        # scalar args before the JIT path runs)
        return self.kinds.get(name, _S)

    def of_expr(self, expr: Expr) -> str:
        if isinstance(expr, Const):
            return _S
        if isinstance(expr, Var):
            return self.of_name(expr.name)
        if isinstance(expr, BinOp):
            return _bink(self.of_expr(expr.left), self.of_expr(expr.right))
        if isinstance(expr, UnOp):
            return self.of_expr(expr.operand)
        if isinstance(expr, Call):
            return _bink(*[self.of_expr(a) for a in expr.args]) \
                if expr.args else _S
        if isinstance(expr, Ternary):
            ck = self.of_expr(expr.cond)
            tk = self.of_expr(expr.if_true)
            fk = self.of_expr(expr.if_false)
            if ck == _V:
                return _V          # np.where result
            if ck == _S:
                return tk if tk == fk else _D
            return _V if tk == fk == _V else _D
        if isinstance(expr, Cast):
            return self.of_expr(expr.operand)
        if isinstance(expr, ArrayRef):
            if expr.name in self.local_arrays:
                return _V          # lane-indexed: always (T,)
            if not expr.indices:
                return _D
            return _bink(*[self.of_expr(i) for i in expr.indices])
        return _D

    def _assign(self, name: str, value_kind: str, ctx: str) -> None:
        if ctx == _S:
            new = value_kind
        elif ctx == _V:
            new = _V               # np.where promotion under a live mask
        else:
            new = _V if value_kind == _V else _D
        old = self.kinds.get(name)
        self.kinds[name] = new if old is None else _joink(old, new)

    def _scan(self, stmt: Stmt, ctx: str) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self._scan(s, ctx)
        elif isinstance(stmt, Assign):
            if isinstance(stmt.target, Var):
                vk = self.of_expr(stmt.value)
                if stmt.op is not None:
                    vk = _bink(vk, self.of_name(stmt.target.name))
                self._assign(stmt.target.name, vk, ctx)
        elif isinstance(stmt, LocalDecl):
            if not stmt.shape:
                # scalar decls always materialize a (T,) vector
                self.kinds[stmt.name] = _V
        elif isinstance(stmt, For):
            bk = _bink(self.of_expr(stmt.lower), self.of_expr(stmt.upper),
                       self.of_expr(stmt.step))
            old = self.kinds.get(stmt.var)
            self.kinds[stmt.var] = _S if old is None else _joink(old, _S)
            self._scan(stmt.body, ctx if bk == _S else _combine_ctx(ctx, bk))
        elif isinstance(stmt, While):
            self._scan(stmt.body, _combine_ctx(ctx, self.of_expr(stmt.cond)))
        elif isinstance(stmt, If):
            inner = _combine_ctx(ctx, self.of_expr(stmt.cond))
            self._scan(stmt.then_body, inner)
            if stmt.else_body is not None:
                self._scan(stmt.else_body, inner)
        elif isinstance(stmt, Critical):
            self._scan(stmt.body, ctx)


# ---------------------------------------------------------------------------
# Runtime: the semantics core, plus operator spellings derived from its tables
# ---------------------------------------------------------------------------

#: globals injected into every generated module; each core function is
#: bound under its name with a leading underscore
_RUNTIME_GLOBALS = {
    "np": np, "math": math,
    "ExecutionError": ExecutionError, "LaunchError": LaunchError,
    "_UB": sem.UNBOUND, "_intr": sem.INTRINSIC_FUNCS,
    **{f"_{name}": getattr(sem, name) for name in (
        "check_bound", "aug_old", "scalar_int", "is_vector", "cast",
        "declare", "local_array", "masked_scalar", "load", "load_local",
        "store", "store_local", "load1v", "store1v", "store1v_red")},
}

#: the core's Python operators keep their infix spelling; every other
#: table entry is the numpy function of the same name
_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*",
          operator.neg: "-"}

_BINOP_FMT = {op: f"({{l}} {_INFIX[fn]} {{r}})" if fn in _INFIX
              else f"np.{fn.__name__}({{l}}, {{r}})"
              for op, fn in sem.BINOPS.items()}
_AUG_FMT = {op: _BINOP_FMT[op] for op in sem.AUG_OPS}
_UNOP_FMT = {op: f"({_INFIX[fn]}{{x}})" if fn in _INFIX
             else f"np.{fn.__name__}({{x}})"
             for op, fn in sem.UNOPS.items()}

#: generated sources beyond this many lines fall back (deep dynamic-loop
#: nests duplicate bodies; unbounded growth would be a compile-time DoS)
_MAX_LINES = 20_000


def _const_repr(value) -> str:
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value in (float("inf"), float("-inf")):
            return f"float('{value}')"
    return repr(value)


class _Codegen:
    """Lowers one (inlined) kernel body to Python source."""

    def __init__(self, kernel: Kernel,
                 functions: Optional[Mapping[str, Function]]) -> None:
        self.kernel = kernel
        body = _Inliner(functions or {}).inline(kernel.body)
        for node in body.walk():
            if isinstance(node, PointerArith):
                raise JitUnsupported("pointer-arith", repr(node))
        self.body = body
        self.local_arrays = frozenset(
            d.name for d in body.walk()
            if isinstance(d, LocalDecl) and d.shape)
        shadow = self.local_arrays & set(kernel.arrays)
        if shadow:
            raise JitUnsupported("local-shadows-global",
                                 ", ".join(sorted(shadow)))
        self.grid = _grid_nest(body, kernel.thread_vars)
        # vectorness is analyzed over the *thread body* only — the grid
        # loops themselves become the flattened coordinate prologue, so
        # scanning them would wrongly demote thread vars to DYNAMIC
        self.kinds = _Kinds(self.grid[-1].body, kernel.thread_vars,
                            self.local_arrays)
        self.lines: list[str] = []
        self.depth = 2
        self.tmp = 0
        self.env_names: set[str] = set()
        #: stack of sets of names definitely bound on every path here
        #: (thread vars join only after the grid prologue assigns them,
        #: mirroring the interpreter's env — grid bounds may legally read
        #: a like-named launch scalar before the coordinate overwrites it)
        self.bound: list[set[str]] = [set()]

    # -- infrastructure -------------------------------------------------
    def emit(self, line: str) -> None:
        if len(self.lines) > _MAX_LINES:
            raise JitUnsupported("code-size",
                                 f"over {_MAX_LINES} generated lines")
        self.lines.append("    " * self.depth + line)

    def fresh(self, prefix: str = "_t") -> str:
        self.tmp += 1
        return f"{prefix}{self.tmp}"

    def is_bound(self, name: str) -> bool:
        return any(name in scope for scope in self.bound)

    def bind(self, name: str) -> None:
        self.bound[-1].add(name)

    @contextmanager
    def scope(self) -> Iterator[None]:
        """A conditionally-executed suite: bindings made inside are not
        definite afterwards (the suite may not run).  Suites that emit
        nothing (e.g. a barrier-only branch) get an explicit ``pass``."""
        self.bound.append(set())
        self.depth += 1
        start = len(self.lines)
        try:
            yield
            if len(self.lines) == start:
                self.emit("pass")
        finally:
            self.depth -= 1
            self.bound.pop()

    def ref(self, name: str) -> str:
        """A read of scalar name ``name`` (env or locally assigned)."""
        self.env_names.add(name)
        if self.is_bound(name):
            return f"v_{name}"
        return f"_check_bound(v_{name}, {name!r}, kname)"

    def combine_mask(self, mask: str, cond: str) -> str:
        """``_push_mask`` mirror: combine a (bool) condition with the
        current mask expression (``mask`` may be the literal 'None')."""
        if mask == "None":
            return cond
        return f"({cond} if {mask} is None else ({mask} & {cond}))"

    # -- expressions ----------------------------------------------------
    def expr(self, e: Expr, mask: str) -> str:
        if isinstance(e, Const):
            return _const_repr(e.value)
        if isinstance(e, Var):
            return self.ref(e.name)
        if isinstance(e, BinOp):
            left = self.expr(e.left, mask)
            right = self.expr(e.right, mask)
            return _BINOP_FMT[e.op].format(l=left, r=right)
        if isinstance(e, UnOp):
            return _UNOP_FMT[e.op].format(x=self.expr(e.operand, mask))
        if isinstance(e, Call):
            args = ", ".join(self.expr(a, mask) for a in e.args)
            return f"_intr[{e.func!r}]({args})"
        if isinstance(e, Ternary):
            return self._ternary(e, mask)
        if isinstance(e, Cast):
            return f"_cast({self.expr(e.operand, mask)}, {e.dtype!r})"
        if isinstance(e, ArrayRef):
            if e.name in self.local_arrays:
                idx = ", ".join(self.expr(i, mask) for i in e.indices)
                return (f"_load_local(la_{e.name}, ({idx},), {mask}, T, "
                        f"{e.name!r}, kname)")
            if len(e.indices) == 1 \
                    and self.kinds.of_expr(e.indices[0]) == _V:
                i0 = self.expr(e.indices[0], mask)
                return f"_load1v(arrays, {e.name!r}, {i0}, {mask}, kname)"
            idx = ", ".join(self.expr(i, mask) for i in e.indices)
            return f"_load(arrays, {e.name!r}, ({idx},), {mask}, T, kname)"
        raise JitUnsupported("unsupported-expr", repr(e))

    def _ternary(self, e: Ternary, mask: str) -> str:
        kind = self.kinds.of_expr(e.cond)
        out = self.fresh()
        cond = self.fresh("_c")
        self.emit(f"{cond} = {self.expr(e.cond, mask)}")
        if kind == _S:
            self.emit(f"if {cond}:")
            with self.scope():
                self.emit(f"{out} = {self.expr(e.if_true, mask)}")
            self.emit("else:")
            with self.scope():
                self.emit(f"{out} = {self.expr(e.if_false, mask)}")
            self.bind(out)
            return out
        if kind == _V:
            self._ternary_vector(e, mask, cond, out)
            self.bind(out)
            return out
        # dynamic: the interpreter's runtime dispatch, both paths emitted
        self.emit(f"if _is_vector({cond}):")
        with self.scope():
            self._ternary_vector(e, mask, cond, out)
        self.emit("else:")
        with self.scope():
            self.emit(f"if {cond}:")
            with self.scope():
                self.emit(f"{out} = {self.expr(e.if_true, mask)}")
            self.emit("else:")
            with self.scope():
                self.emit(f"{out} = {self.expr(e.if_false, mask)}")
        self.bind(out)
        return out

    def _ternary_vector(self, e: Ternary, mask: str, cond: str,
                        out: str) -> None:
        cb = self.fresh("_cb")
        self.emit(f"{cb} = {cond}.astype(bool)")
        mt = self.fresh("_m")
        self.emit(f"{mt} = {self.combine_mask(mask, cb)}")
        true_v = self.fresh()
        self.emit(f"{true_v} = {self.expr(e.if_true, mt)}")
        mf = self.fresh("_m")
        self.emit(f"{mf} = {self.combine_mask(mask, f'(~{cb})')}")
        false_v = self.fresh()
        self.emit(f"{false_v} = {self.expr(e.if_false, mf)}")
        self.emit(f"{out} = np.where({cb}, {true_v}, {false_v})")

    # -- statements -----------------------------------------------------
    def stmt(self, s: Stmt, mask: str) -> None:
        if isinstance(s, Block):
            for child in s.stmts:
                self.stmt(child, mask)
        elif isinstance(s, Assign):
            self._assign(s, mask)
        elif isinstance(s, LocalDecl):
            self._decl(s, mask)
        elif isinstance(s, For):
            self._for(s, mask)
        elif isinstance(s, While):
            self._while(s, mask)
        elif isinstance(s, If):
            self._if(s, mask)
        elif isinstance(s, Critical):
            self.stmt(s.body, mask)
        elif isinstance(s, Barrier):
            pass
        else:
            # CallStmt / Return / PointerArith were handled by the
            # inliner; anything else is a new node kind
            raise JitUnsupported("unsupported-stmt", repr(s))

    def _assign(self, s: Assign, mask: str) -> None:
        value = self.fresh()
        self.emit(f"{value} = {self.expr(s.value, mask)}")
        if isinstance(s.target, ArrayRef):
            ref = s.target
            if ref.name in self.local_arrays:
                idx = ", ".join(self.expr(i, mask) for i in ref.indices)
                self.emit(f"_store_local(la_{ref.name}, ({idx},), {value}, "
                          f"{s.op!r}, {mask}, T, {ref.name!r}, kname)")
            elif len(ref.indices) == 1 \
                    and self.kinds.of_expr(ref.indices[0]) == _V:
                i0 = self.expr(ref.indices[0], mask)
                if s.op is None:
                    self.emit(f"_store1v(arrays, {ref.name!r}, {i0}, "
                              f"{value}, {mask}, T, kname)")
                else:
                    self.emit(f"_store1v_red(arrays, {ref.name!r}, {i0}, "
                              f"{value}, {s.op!r}, {mask}, T, kname)")
            else:
                idx = ", ".join(self.expr(i, mask) for i in ref.indices)
                self.emit(f"_store(arrays, {ref.name!r}, ({idx},), {value}, "
                          f"{s.op!r}, {mask}, T, kname)")
            return
        name = s.target.name
        self.env_names.add(name)
        target = f"v_{name}"
        if s.op is not None:
            old = target if self.is_bound(name) \
                else f"_aug_old(v_{name}, {name!r})"
            combined = self.fresh()
            self.emit(f"{combined} = "
                      + _AUG_FMT[s.op].format(l=old, r=value))
        else:
            combined = value
        if mask == "None":
            self.emit(f"{target} = {combined}")
        else:
            # masks handed to statements are either the literal None
            # (folded at codegen) or a live lane-mask array, never a
            # runtime None — emit the masked promotion unconditionally
            old = target if self.is_bound(name) else f"v_{name}"
            self.emit(f"{target} = _masked_scalar({mask}, {combined}, "
                      f"{old}, T)")
        self.bind(name)

    def _decl(self, s: LocalDecl, mask: str) -> None:
        if s.shape:
            self.emit(f"la_{s.name} = _local_array({s.shape!r}, "
                      f"{s.dtype!r}, T)")
            return
        self.env_names.add(s.name)
        init = "None"
        if s.init is not None:
            init = self.fresh()
            self.emit(f"{init} = {self.expr(s.init, mask)}")
        self.emit(f"v_{s.name} = _declare({init}, {s.dtype!r}, T)")
        self.bind(s.name)

    def _for(self, s: For, mask: str) -> None:
        lo = self.fresh()
        hi = self.fresh()
        st = self.fresh()
        self.emit(f"{lo} = {self.expr(s.lower, mask)}")
        self.emit(f"{hi} = {self.expr(s.upper, mask)}")
        self.emit(f"{st} = {self.expr(s.step, mask)}")
        self.env_names.add(s.var)
        bk = _bink(self.kinds.of_expr(s.lower), self.kinds.of_expr(s.upper),
                   self.kinds.of_expr(s.step))
        step = self.fresh("_s")
        if bk != _S:
            self.emit(f"if _is_vector({st}):")
            with self.scope():
                self.emit("raise ExecutionError("
                          "'loop step must be thread-independent')")
        self.emit(f"{step} = int({st})")
        self.emit(f"if {step} <= 0:")
        with self.scope():
            self.emit("raise ExecutionError('loop step must be positive')")
        if bk == _S:
            self.emit(f"for v_{s.var} in range(int({lo}), int({hi}), "
                      f"{step}):")
            with self.scope():
                self.bind(s.var)
                self.stmt(s.body, mask)
            return
        # dynamic bounds: the interpreter's masked-iteration dual path
        self.emit(f"if not _is_vector({lo}) and not _is_vector({hi}):")
        with self.scope():
            self.emit(f"for v_{s.var} in range(int({lo}), int({hi}), "
                      f"{step}):")
            with self.scope():
                self.bind(s.var)
                self.stmt(s.body, mask)
        self.emit("else:")
        with self.scope():
            lov, hiv = self.fresh("_lo"), self.fresh("_hi")
            self.emit(f"{lov} = np.broadcast_to(np.asarray({lo}), (T,))")
            self.emit(f"{hiv} = np.broadcast_to(np.asarray({hi}), (T,))")
            k = self.fresh("_k")
            self.emit(f"for {k} in range(int({lov}.min(initial=0)), "
                      f"int({hiv}.max(initial=0)), {step}):")
            with self.scope():
                act = self.fresh("_a")
                self.emit(f"{act} = ({k} >= {lov}) & ({k} < {hiv})")
                mb = self.fresh("_m")
                self.emit(f"{mb} = {self.combine_mask(mask, act)}")
                self.emit(f"if not {mb}.any():")
                with self.scope():
                    self.emit("continue")
                self.emit(f"v_{s.var} = {k}")
                self.bind(s.var)
                self.stmt(s.body, mb)

    def _while(self, s: While, mask: str) -> None:
        guard = self.fresh("_g")
        self.emit(f"{guard} = 0")
        self.emit("while True:")
        with self.scope():
            cond = self.fresh("_c")
            self.emit(f"{cond} = {self.expr(s.cond, mask)}")
            self.emit(f"if not _is_vector({cond}):")
            with self.scope():
                self.emit(f"if not {cond}:")
                with self.scope():
                    self.emit("break")
                self.stmt(s.body, mask)
            self.emit("else:")
            with self.scope():
                alive = self.fresh("_a")
                self.emit(f"{alive} = {self.combine_mask(mask, cond)}")
                self.emit(f"if not {alive}.any():")
                with self.scope():
                    self.emit("break")
                mw = self.fresh("_m")
                self.emit(f"{mw} = "
                          f"{self.combine_mask(mask, f'{cond}.astype(bool)')}")
                self.stmt(s.body, mw)
            self.emit(f"{guard} += 1")
            self.emit(f"if {guard} > 10000000:")
            with self.scope():
                self.emit("raise ExecutionError("
                          "'while loop exceeded iteration guard')")

    def _if(self, s: If, mask: str) -> None:
        kind = self.kinds.of_expr(s.cond)
        cond = self.fresh("_c")
        self.emit(f"{cond} = {self.expr(s.cond, mask)}")
        if kind == _S:
            self.emit(f"if {cond}:")
            with self.scope():
                self.stmt(s.then_body, mask)
            if s.else_body is not None:
                self.emit("else:")
                with self.scope():
                    self.stmt(s.else_body, mask)
            return
        if kind == _V:
            self._if_vector(s, mask, cond)
            return
        self.emit(f"if _is_vector({cond}):")
        with self.scope():
            self._if_vector(s, mask, cond)
        self.emit("else:")
        with self.scope():
            self.emit(f"if {cond}:")
            with self.scope():
                self.stmt(s.then_body, mask)
            if s.else_body is not None:
                self.emit("else:")
                with self.scope():
                    self.stmt(s.else_body, mask)

    def _if_vector(self, s: If, mask: str, cond: str) -> None:
        cb = self.fresh("_cb")
        self.emit(f"{cb} = {cond}.astype(bool)")
        mt = self.fresh("_m")
        self.emit(f"{mt} = {self.combine_mask(mask, cb)}")
        self.emit(f"if {mt}.any():")
        with self.scope():
            self.stmt(s.then_body, mt)
        if s.else_body is not None:
            nb = self.fresh("_n")
            self.emit(f"{nb} = ~{cb}")
            me = self.fresh("_m")
            self.emit(f"{me} = {self.combine_mask(mask, nb)}")
            self.emit(f"if {me}.any():")
            with self.scope():
                self.stmt(s.else_body, me)

    # -- top level ------------------------------------------------------
    def generate(self) -> str:
        """The full module source for one kernel."""
        # grid prologue mirrors KernelExecutor.run(): resolve extents,
        # then materialize the flattened thread coordinates
        loops = self.grid
        grid: list[tuple[str, str, str, str]] = []
        for loop in loops:
            lo, hi, st = (self.fresh("_g") for _ in range(3))
            self.emit("try:")
            with self.scope():
                self.emit(f"{lo} = _scalar_int({self.expr(loop.lower, 'None')}, "
                          f"'grid lower bound of {loop.var}')")
                self.emit(f"{hi} = _scalar_int({self.expr(loop.upper, 'None')}, "
                          f"'grid upper bound of {loop.var}')")
                self.emit(f"{st} = _scalar_int({self.expr(loop.step, 'None')}, "
                          f"'grid step of {loop.var}')")
            self.emit("except ExecutionError as exc:")
            with self.scope():
                self.emit(f"raise LaunchError(f\"kernel {{kname!r}}: grid "
                          f"bounds of '{loop.var}' are not launch-resolvable "
                          f"({{exc}})\") from exc")
            self.emit(f"if {st} <= 0:")
            with self.scope():
                self.emit(f"raise LaunchError('grid loop {loop.var}: "
                          f"step must be positive')")
            ext = self.fresh("_e")
            self.emit(f"{ext} = max(0, math.ceil(({hi} - {lo}) / {st}))")
            grid.append((loop.var, lo, st, ext))
        total = " * ".join(ext for _, _, _, ext in grid) or "1"
        self.emit(f"T = {total}")
        self.emit("if T == 0:")
        with self.scope():
            self.emit("return")
        self.emit("_flat = np.arange(T, dtype=np.int64)")
        for d, (var, lo, st, ext) in enumerate(grid):
            inner = " * ".join(e for _, _, _, e in grid[d + 1:]) or "1"
            self.emit(f"v_{var} = {lo} + ((_flat // ({inner})) % {ext}) "
                      f"* {st}")
            self.env_names.add(var)
            self.bind(var)
        self.stmt(loops[-1].body, "None")

        header = [
            "def __jit_kernel(kname, arrays, env):",
            "    with np.errstate(invalid='ignore', divide='ignore', "
            "over='ignore'):",
        ]
        binds = [f"        v_{name} = env.get({name!r}, _UB)"
                 for name in sorted(self.env_names)]
        return "\n".join(header + binds + self.lines) + "\n"


# ---------------------------------------------------------------------------
# Compiled artifacts + dispatch support
# ---------------------------------------------------------------------------

@dataclass
class JitProgram:
    """One compiled kernel body: the callable plus its provenance."""

    ir_hash: str
    source: str
    fn: Callable

    def launch(self, kernel_name: str,
               arrays: MutableMapping[str, np.ndarray],
               scalars: Mapping) -> None:
        try:
            self.fn(kernel_name, arrays, scalars)
        except (NameError, UnboundLocalError) as exc:
            raise ExecutionError(
                f"kernel {kernel_name!r}: {exc}") from None


@dataclass(frozen=True)
class JitFallback:
    """A cached 'do not try again' decision for one body."""

    ir_hash: str
    reason: str


def compile_kernel(kernel: Kernel,
                   functions: Optional[Mapping[str, Function]] = None,
                   ) -> JitProgram:
    """Lower one kernel to a :class:`JitProgram` (no cache involved).

    Raises :class:`JitUnsupported` for bodies outside the supported
    subset — the caller falls back to the interpreter.
    """
    source = _Codegen(kernel, functions).generate()
    namespace = dict(_RUNTIME_GLOBALS)
    try:
        code = compile(source, f"<jit:{kernel.name}>", "exec")
        exec(code, namespace)  # noqa: S102 - our own generated source
    except SyntaxError as exc:  # pragma: no cover - defensive
        raise JitUnsupported("codegen-error", str(exc)) from exc
    return JitProgram(ir_hash=kernel_ir_hash(kernel, functions),
                      source=source, fn=namespace["__jit_kernel"])


def program_for(kernel: Kernel, scalars: Mapping,
                functions: Optional[Mapping[str, Function]] = None,
                ) -> Optional[JitProgram]:
    """The cached compile-or-fallback decision for one launch.

    Returns ``None`` when the launch must be interpreted; the fallback
    reason is recorded (metrics + selfprof log) either way.  Compiled
    programs live in the shared :data:`~repro.models.cache.STORE` keyed
    by IR hash, so every worker process compiles a body at most once.
    """
    from repro.models.cache import STORE
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracer as obs

    if any(sem.is_vector(v) for v in scalars.values()):
        _count_fallback(kernel.name, "vector-scalar-arg")
        return None
    ir_hash = kernel_ir_hash(kernel, functions)
    entry = STORE.jit_get(ir_hash)
    if entry is not None:
        if isinstance(entry, JitFallback):
            _count_fallback(kernel.name, entry.reason)
            return None
        return entry
    registry = obs_metrics.current_registry()
    try:
        with obs.span(f"jit.compile {kernel.name}", "jit.compile",
                      kernel=kernel.name):
            t0 = time.perf_counter()
            program = compile_kernel(kernel, functions)
            elapsed = time.perf_counter() - t0
    except JitUnsupported as exc:
        STORE.jit_put(ir_hash, JitFallback(ir_hash, exc.reason))
        _count_fallback(kernel.name, exc.reason)
        return None
    STORE.jit_put(ir_hash, program)
    if registry is not None:
        # compile counts depend on how work shards across processes, so
        # they are excluded from the deterministic metric families
        registry.inc("jit_compiles", labels={"kernel": kernel.name},
                     help="kernel bodies lowered by the JIT tier")
        registry.observe("jit_compile_seconds", elapsed,
                         labels={"kernel": kernel.name},
                         help="JIT lowering wall-clock per kernel body")
    return program


def _count_fallback(kernel_name: str, reason: str) -> None:
    from repro.obs import metrics as obs_metrics

    record_fallback(kernel_name, reason)
    registry = obs_metrics.current_registry()
    if registry is not None:
        registry.inc("jit_fallback",
                     labels={"kernel": kernel_name, "reason": reason},
                     help="launches interpreted because the JIT declined "
                          "the kernel body",
                     deterministic=True)


def run_verify(program: JitProgram, kernel: Kernel,
               arrays: MutableMapping[str, np.ndarray], scalars: Mapping,
               interpret: Callable) -> None:
    """``verify`` mode: interpreter result is canonical; the JIT must
    reproduce it byte-for-byte on a pre-state copy of every array."""
    pre = {name: np.array(arr, copy=True) for name, arr in arrays.items()}
    interpret()
    try:
        program.launch(kernel.name, pre, scalars)
    except Exception as exc:
        raise JitVerifyError(
            f"kernel {kernel.name!r}: JIT raised {exc!r} where the "
            f"interpreter succeeded") from exc
    for name in arrays:
        want, got = arrays[name], pre[name]
        if want.shape != got.shape or want.dtype != got.dtype \
                or want.tobytes() != got.tobytes():
            with np.errstate(invalid="ignore"):
                delta = float(np.max(np.abs(
                    np.asarray(got, dtype=np.float64)
                    - np.asarray(want, dtype=np.float64)))) \
                    if want.shape == got.shape else float("inf")
            raise JitVerifyError(
                f"kernel {kernel.name!r}: JIT diverged from the "
                f"interpreter on array {name!r} "
                f"(max |delta| = {delta:.3e})")
