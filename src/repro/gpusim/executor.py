"""Vectorizing kernel interpreter.

Executes a :class:`repro.gpusim.kernel.Kernel` *functionally*: the grid's
flattened thread index space becomes a NumPy axis, expressions evaluate to
either scalars or ``(T,)`` vectors, and control flow is handled with an
active-lane mask stack (the same trick real SIMT hardware uses).  This
keeps full-size benchmark runs fast (per the hpc-parallel guides: the
inner dimension is vectorized, Python loops only over short sequential
dimensions) while remaining an *interpreter* of the IR — every model
compiler's output is executed by the same machinery and validated against
the NumPy reference implementations.

Array accesses and value rules (index clipping and bounds checks,
duplicate-safe reductions, masked scalar promotion, casts, the operator
tables) live in :mod:`repro.gpusim.semantics`, shared with the JIT: this
module evaluates operands and walks control flow.  **Sequential loops
with thread-dependent bounds** (CSR row loops) iterate to the maximum
bound with a per-lane validity mask.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Mapping, MutableMapping, Optional

import numpy as np

from repro.errors import ExecutionError, LaunchError
from repro.gpusim import semantics as sem
from repro.gpusim.kernel import Kernel
from repro.gpusim.semantics import Value, is_vector
from repro.ir.expr import (ArrayRef, BinOp, Call, Cast, Const, Expr,
                           Ternary, UnOp, Var)
from repro.ir.program import Function
from repro.ir.stmt import (Assign, Barrier, Block, CallStmt, Critical, For,
                           If, LocalDecl, PointerArith, Return, Stmt, While)

if TYPE_CHECKING:
    from repro.gpusim.trace import MemoryTrace


class _ReturnSignal(Exception):
    """Unwinds a user-function body on ``return``."""


class KernelExecutor:
    """Interprets one kernel launch over its flattened thread space."""

    def __init__(self, kernel: Kernel,
                 arrays: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, Value],
                 functions: Optional[Mapping[str, Function]] = None,
                 trace: Optional[MemoryTrace] = None) -> None:
        self.kernel = kernel
        self.arrays = arrays
        self.env: dict[str, Value] = dict(scalars)
        self.local_arrays: dict[str, np.ndarray] = {}
        self.functions = dict(functions or {})
        self.mask_stack: list[Optional[np.ndarray]] = [None]
        self.T = 0
        #: observer of every global-memory access, if any
        self.trace = trace

    # -- mask helpers ---------------------------------------------------
    @property
    def mask(self) -> Optional[np.ndarray]:
        return self.mask_stack[-1]

    def _push_mask(self, cond: np.ndarray) -> None:
        current = self.mask
        combined = cond if current is None else (current & cond)
        self.mask_stack.append(combined)

    def _pop_mask(self) -> None:
        self.mask_stack.pop()

    def _data_dependent(self) -> None:
        """A loop with thread-dependent bounds runs (CSR-style masked
        iteration): accesses traced from here on undercount the real
        per-warp issue width (see :mod:`repro.gpusim.trace`)."""
        if self.trace is not None:
            self.trace.data_dependent = True

    # -- launch ---------------------------------------------------------
    def run(self) -> None:
        """Execute the kernel body over the full grid."""
        loops = self.kernel.grid_loops()
        extents: list[int] = []
        lowers: list[int] = []
        steps: list[int] = []
        for loop in loops:
            try:
                lo = sem.scalar_int(self._eval(loop.lower),
                                    f"grid lower bound of {loop.var}")
                hi = sem.scalar_int(self._eval(loop.upper),
                                    f"grid upper bound of {loop.var}")
                st = sem.scalar_int(self._eval(loop.step),
                                    f"grid step of {loop.var}")
            except ExecutionError as exc:
                raise LaunchError(
                    f"kernel {self.kernel.name!r}: grid bounds of "
                    f"{loop.var!r} are not launch-resolvable ({exc})"
                ) from exc
            if st <= 0:
                raise LaunchError(f"grid loop {loop.var}: step must be positive")
            extents.append(max(0, math.ceil((hi - lo) / st)))
            lowers.append(lo)
            steps.append(st)
        total = 1
        for e in extents:
            total *= e
        self.T = total
        if total == 0:
            return
        flat = np.arange(total, dtype=np.int64)
        remainder = flat
        for d, (loop, extent) in enumerate(zip(loops, extents)):
            inner = 1
            for e in extents[d + 1:]:
                inner *= e
            coord = (remainder // inner) % extent if inner > 0 else remainder
            self.env[loop.var] = lowers[d] + coord * steps[d]
        innermost_body = loops[-1].body
        self._exec(innermost_body)

    # -- expression evaluation ------------------------------------------
    def _eval(self, expr: Expr) -> Value:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            return sem.check_bound(self.env.get(expr.name, sem.UNBOUND),
                                   expr.name, self.kernel.name)
        if isinstance(expr, BinOp):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                return sem.BINOPS[expr.op](left, right)
        if isinstance(expr, UnOp):
            return sem.UNOPS[expr.op](self._eval(expr.operand))
        if isinstance(expr, Call):
            func = sem.INTRINSIC_FUNCS[expr.func]
            args = [self._eval(a) for a in expr.args]
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                return func(*args)
        if isinstance(expr, Ternary):
            cond = self._eval(expr.cond)
            if not is_vector(cond):
                # short-circuit: only the taken branch is evaluated
                return (self._eval(expr.if_true) if cond
                        else self._eval(expr.if_false))
            cond_b = cond.astype(bool)
            self._push_mask(cond_b)
            try:
                t = self._eval(expr.if_true)
            finally:
                self._pop_mask()
            self._push_mask(~cond_b)
            try:
                f = self._eval(expr.if_false)
            finally:
                self._pop_mask()
            return np.where(cond_b, t, f)
        if isinstance(expr, Cast):
            return sem.cast(self._eval(expr.operand), expr.dtype)
        if isinstance(expr, ArrayRef):
            idx = [self._eval(i) for i in expr.indices]
            local = self.local_arrays.get(expr.name)
            if local is not None:
                return sem.load_local(local, idx, self.mask, self.T,
                                      expr.name, self.kernel.name)
            return sem.load(self.arrays, expr.name, idx, self.mask, self.T,
                            self.kernel.name, self.trace)
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    # -- statements -------------------------------------------------------
    def _exec(self, stmt: Stmt) -> None:
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                self._exec(s)
        elif isinstance(stmt, Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, LocalDecl):
            self._exec_decl(stmt)
        elif isinstance(stmt, For):
            self._exec_for(stmt)
        elif isinstance(stmt, While):
            self._exec_while(stmt)
        elif isinstance(stmt, If):
            self._exec_if(stmt)
        elif isinstance(stmt, Critical):
            self._exec(stmt.body)
        elif isinstance(stmt, Barrier):
            pass
        elif isinstance(stmt, CallStmt):
            self._exec_call(stmt)
        elif isinstance(stmt, Return):
            raise _ReturnSignal()
        elif isinstance(stmt, PointerArith):
            if stmt.kind == "swap" and len(stmt.operands) == 2:
                a, b = stmt.operands
                self.arrays[a], self.arrays[b] = self.arrays[b], self.arrays[a]
            else:
                raise ExecutionError(f"unsupported pointer op {stmt!r}")
        else:
            raise ExecutionError(f"cannot execute statement {stmt!r}")

    def _exec_decl(self, stmt: LocalDecl) -> None:
        if stmt.shape:
            self.local_arrays[stmt.name] = sem.local_array(
                stmt.shape, stmt.dtype, self.T)
            return
        init = self._eval(stmt.init) if stmt.init is not None else None
        self.env[stmt.name] = sem.declare(init, stmt.dtype, self.T)

    def _exec_assign(self, stmt: Assign) -> None:
        value = self._eval(stmt.value)
        target = stmt.target
        if isinstance(target, ArrayRef):
            idx = [self._eval(i) for i in target.indices]
            local = self.local_arrays.get(target.name)
            if local is not None:
                sem.store_local(local, idx, value, stmt.op, self.mask, self.T,
                                target.name, self.kernel.name)
            else:
                sem.store(self.arrays, target.name, idx, value, stmt.op,
                          self.mask, self.T, self.kernel.name, self.trace)
            return
        old = self.env.get(target.name, sem.UNBOUND)
        if stmt.op is not None:
            value = sem.AUG_OPS[stmt.op](sem.aug_old(old, target.name), value)
        mask = self.mask
        self.env[target.name] = (value if mask is None else
                                 sem.masked_scalar(mask, value, old, self.T))

    def _exec_for(self, stmt: For) -> None:
        lo = self._eval(stmt.lower)
        hi = self._eval(stmt.upper)
        step = self._eval(stmt.step)
        if is_vector(step):
            raise ExecutionError("loop step must be thread-independent")
        step_i = int(step)
        if step_i <= 0:
            raise ExecutionError("loop step must be positive")
        if not is_vector(lo) and not is_vector(hi):
            for k in range(int(lo), int(hi), step_i):
                self.env[stmt.var] = k
                self._exec(stmt.body)
            return
        self._data_dependent()
        lo_v = np.broadcast_to(np.asarray(lo), (self.T,))
        hi_v = np.broadcast_to(np.asarray(hi), (self.T,))
        start = int(lo_v.min(initial=0))
        stop = int(hi_v.max(initial=0))
        for k in range(start, stop, step_i):
            active = (k >= lo_v) & (k < hi_v)
            base = self.mask
            combined = active if base is None else (active & base)
            if not combined.any():
                continue
            self._push_mask(active)
            self.env[stmt.var] = k
            try:
                self._exec(stmt.body)
            finally:
                self._pop_mask()

    def _exec_while(self, stmt: While) -> None:
        guard = 0
        limit = 10_000_000
        while True:
            cond = self._eval(stmt.cond)
            if not is_vector(cond):
                if not cond:
                    return
                self._exec(stmt.body)
            else:
                base = self.mask
                alive = cond if base is None else (cond & base)
                if not alive.any():
                    return
                self._data_dependent()
                self._push_mask(cond.astype(bool))
                try:
                    self._exec(stmt.body)
                finally:
                    self._pop_mask()
            guard += 1
            if guard > limit:
                raise ExecutionError("while loop exceeded iteration guard")

    def _exec_if(self, stmt: If) -> None:
        cond = self._eval(stmt.cond)
        if not is_vector(cond):
            if cond:
                self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body)
            return
        cond_b = cond.astype(bool)
        base = self.mask
        then_active = cond_b if base is None else (cond_b & base)
        if then_active.any():
            self._push_mask(cond_b)
            try:
                self._exec(stmt.then_body)
            finally:
                self._pop_mask()
        if stmt.else_body is not None:
            not_cond = ~cond_b
            else_active = not_cond if base is None else (not_cond & base)
            if else_active.any():
                self._push_mask(not_cond)
                try:
                    self._exec(stmt.else_body)
                finally:
                    self._pop_mask()

    def _exec_call(self, stmt: CallStmt) -> None:
        func = self.functions.get(stmt.func)
        if func is None:
            raise ExecutionError(
                f"kernel {self.kernel.name!r} calls unknown function "
                f"{stmt.func!r}")
        if len(stmt.args) != len(func.params):
            raise ExecutionError(
                f"call to {func.name!r}: expected {len(func.params)} args, "
                f"got {len(stmt.args)}")
        saved_env: dict[str, tuple[bool, Value]] = {}
        saved_arrays: dict[str, tuple[bool, Optional[np.ndarray]]] = {}
        for param, arg in zip(func.params, stmt.args):
            if param.is_array:
                if not isinstance(arg, Var):
                    raise ExecutionError(
                        f"array argument to {func.name!r} must be a name")
                saved_arrays[param.name] = (param.name in self.arrays,
                                            self.arrays.get(param.name))
                self.arrays[param.name] = self.arrays[arg.name]
            else:
                saved_env[param.name] = (param.name in self.env,
                                         self.env.get(param.name))
                self.env[param.name] = self._eval(arg)
        try:
            self._exec(func.body)
        except _ReturnSignal:
            pass
        finally:
            for name, (existed, value) in saved_env.items():
                if existed:
                    self.env[name] = value  # type: ignore[assignment]
                else:
                    self.env.pop(name, None)
            for name, (existed, arr) in saved_arrays.items():
                if existed and arr is not None:
                    self.arrays[name] = arr
                else:
                    self.arrays.pop(name, None)


def _interpreted_launch(kernel: Kernel,
                        arrays: MutableMapping[str, np.ndarray],
                        scalars: Mapping[str, Value],
                        functions: Optional[Mapping[str, Function]]) -> None:
    """One launch through the interpreter, timed when observed."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracer as obs

    registry = obs_metrics.current_registry()
    if obs.current_tracer() is None and registry is None:
        KernelExecutor(kernel, arrays, scalars, functions).run()
        return
    with obs.span(f"interpret {kernel.name}", "executor",
                  kernel=kernel.name):
        t0 = time.perf_counter()
        KernelExecutor(kernel, arrays, scalars, functions).run()
        elapsed = time.perf_counter() - t0
    if registry is not None:
        registry.inc("executor_interpret_launches",
                     labels={"kernel": kernel.name},
                     help="kernels run through the interpreting executor",
                     deterministic=True)
        registry.observe("executor_interpret_seconds", elapsed,
                         labels={"kernel": kernel.name},
                         help="interpreter wall-clock per kernel launch")


def _jit_launch(program, kernel: Kernel,
                arrays: MutableMapping[str, np.ndarray],
                scalars: Mapping[str, Value]) -> None:
    """One launch through a compiled JIT program, timed when observed."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracer as obs

    registry = obs_metrics.current_registry()
    if obs.current_tracer() is None and registry is None:
        program.launch(kernel.name, arrays, scalars)
        return
    with obs.span(f"jit {kernel.name}", "jit", kernel=kernel.name):
        t0 = time.perf_counter()
        program.launch(kernel.name, arrays, scalars)
        elapsed = time.perf_counter() - t0
    if registry is not None:
        registry.inc("jit_launch_hits",
                     labels={"kernel": kernel.name},
                     help="kernels run through the JIT tier",
                     deterministic=True)
        registry.observe("jit_launch_seconds", elapsed,
                         labels={"kernel": kernel.name},
                         help="JIT wall-clock per kernel launch")


def execute_kernel(kernel: Kernel, arrays: MutableMapping[str, np.ndarray],
                   scalars: Mapping[str, Value],
                   functions: Optional[Mapping[str, Function]] = None) -> None:
    """Run ``kernel`` in place over ``arrays`` — the engine dispatch point.

    Three-way dispatch controlled by :func:`repro.gpusim.jit.current_mode`
    (the ``REPRO_JIT`` / ``--jit`` knob):

    * ``on``     — the JIT tier when the body is lowerable, the
      interpreter otherwise (fallbacks are counted, never silent);
    * ``off``    — always the interpreting executor;
    * ``verify`` — run *both* engines on every launch and raise
      :class:`repro.gpusim.jit.JitVerifyError` unless every output array
      is byte-identical.  The interpreter's result is canonical.

    The scalar reference implementations (``benchmarks/reference.py``)
    sit below both engines as the always-available oracle — see
    ``docs/architecture.md`` for the full hierarchy.
    """
    from repro.gpusim import jit as _jit

    mode = _jit.current_mode()
    if mode != "off":
        program = _jit.program_for(kernel, scalars, functions)
        if program is not None:
            if mode == "verify":
                _jit.run_verify(
                    program, kernel, arrays, scalars,
                    lambda: _interpreted_launch(kernel, arrays, scalars,
                                                functions))
                return
            _jit_launch(program, kernel, arrays, scalars)
            return
    _interpreted_launch(kernel, arrays, scalars, functions)
