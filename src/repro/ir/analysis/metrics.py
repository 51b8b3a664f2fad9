"""Operation-count metrics: flops and intrinsic costs per iteration.

Feeds the compute side of the kernel timing model.  Counting is static:
per-thread flop counts are the expression-tree op counts weighted by the
same sequential-trip/divergence factors the access summary uses, so the
two sides of the ``max(compute, memory)`` roofline are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.ir.analysis.access import DEFAULT_SEQ_TRIPS, WeightFrames
from repro.ir.expr import (INTRINSIC_FLOP_COST, ArrayRef, BinOp, Call, Cast,
                           Const, Expr, Ternary, UnOp, Var)
from repro.ir.stmt import (Assign, Block, Critical, For, If, LocalDecl,
                           Stmt, While)

#: Relative cost of each scalar binary operation (double precision).
BINOP_FLOP_COST: Mapping[str, float] = {
    "+": 1, "-": 1, "*": 1, "/": 4, "//": 4, "%": 4,
    "min": 1, "max": 1,
    "<": 0.5, "<=": 0.5, ">": 0.5, ">=": 0.5, "==": 0.5, "!=": 0.5,
    "&&": 0.5, "||": 0.5, "&": 0.5, "|": 0.5, "^": 0.5, "<<": 0.5, ">>": 0.5,
}


def expr_flops(expr: Expr) -> float:
    """Weighted floating-point-operation count of one expression tree.

    Address arithmetic inside array subscripts is charged at a quarter
    rate (integer units overlap with memory latency on Fermi).
    """
    return _expr_flops_clean(expr)


def _expr_flops_clean(expr: Expr, in_subscript: bool = False) -> float:
    scale = 0.25 if in_subscript else 1.0
    if isinstance(expr, (Const, Var)):
        return 0.0
    if isinstance(expr, BinOp):
        own = BINOP_FLOP_COST.get(expr.op, 1.0) * scale
        return (own + _expr_flops_clean(expr.left, in_subscript)
                + _expr_flops_clean(expr.right, in_subscript))
    if isinstance(expr, UnOp):
        return 0.5 * scale + _expr_flops_clean(expr.operand, in_subscript)
    if isinstance(expr, Call):
        own = INTRINSIC_FLOP_COST.get(expr.func, 8) * scale
        return own + sum(_expr_flops_clean(a, in_subscript) for a in expr.args)
    if isinstance(expr, Ternary):
        return (1.0 * scale
                + _expr_flops_clean(expr.cond, in_subscript)
                + _expr_flops_clean(expr.if_true, in_subscript)
                + _expr_flops_clean(expr.if_false, in_subscript))
    if isinstance(expr, Cast):
        return _expr_flops_clean(expr.operand, in_subscript)
    if isinstance(expr, ArrayRef):
        return sum(_expr_flops_clean(i, True) for i in expr.indices)
    return 0.0


@dataclass
class WorkEstimate:
    """Per-thread work of a kernel body."""

    flops: float = 0.0
    #: worst-case fraction of warp-divergent work, in [0, 1].
    divergence: float = 0.0
    #: number of distinct conditionals encountered.
    branches: int = 0


def body_work(body: Stmt, thread_vars: Sequence[str],
              bindings: Optional[Mapping[str, float]] = None) -> WorkEstimate:
    """Estimate per-thread flops and divergence for a kernel body.

    Plans with :func:`plan_work`, then evaluates under ``bindings``.
    """
    return plan_work(body, thread_vars).evaluate(bindings)


@dataclass
class WorkPlan:
    """The binding-independent half of :func:`body_work`.

    ``ops`` lists, in walk order, every contribution to the estimate:

    * ``("flops", n, frame)`` — ``n`` flops weighted by ``frame``;
    * ``("while_cond", n, frame)`` — a ``While`` condition's flops,
      weighted by ``frame`` and then by ``DEFAULT_SEQ_TRIPS``;
    * ``("diverge", d, 0)`` — add ``d`` to the divergence (capped at 1);
    * ``("loop", loop, frame)`` — a sequential loop's bookkeeping: its
      trips weighted by ``frame``, plus 0.25 divergence when the trip
      count is data-dependent (not exact under the bindings).

    :meth:`evaluate` replays them in order, so the flops and divergence
    sums are bit-identical to the recursive walk's.
    """

    frames: WeightFrames
    ops: list[tuple[str, float, int]]
    branches: int

    def evaluate(self, bindings: Optional[Mapping[str, float]] = None
                 ) -> WorkEstimate:
        trips = self.frames.trips(bindings or {})
        weights = self.frames.weights(trips)
        flops = divergence = 0.0
        for kind, value, frame in self.ops:
            if kind == "flops":
                flops += value * weights[frame]
            elif kind == "diverge":
                divergence = min(1.0, divergence + value)
            elif kind == "loop":
                count, exact = trips[value]
                if not exact:
                    # data-dependent trip counts diverge across the warp
                    divergence = min(1.0, divergence + 0.25)
                flops += count * weights[frame]  # loop bookkeeping
            else:
                flops += value * weights[frame] * DEFAULT_SEQ_TRIPS
        return WorkEstimate(flops, divergence, self.branches)


def plan_work(body: Stmt, thread_vars: Sequence[str]) -> WorkPlan:
    """Count every statement's flops once, for any bindings."""
    frames = WeightFrames()
    ops: list[tuple[str, float, int]] = []
    branches = 0
    nest: list[For] = []

    def scan(stmt: Stmt, frame: int, divergent: bool) -> None:
        nonlocal branches
        if isinstance(stmt, Block):
            for s in stmt.stmts:
                scan(s, frame, divergent)
        elif isinstance(stmt, Assign):
            flops = _expr_flops_clean(stmt.value)
            if isinstance(stmt.target, ArrayRef):
                flops += sum(_expr_flops_clean(i, True)
                             for i in stmt.target.indices)
            if stmt.op is not None:
                flops += BINOP_FLOP_COST.get(stmt.op, 1.0)
            ops.append(("flops", flops, frame))
            if divergent:
                ops.append(("diverge", 0.05, 0))
        elif isinstance(stmt, LocalDecl):
            if stmt.init is not None:
                ops.append(("flops", _expr_flops_clean(stmt.init), frame))
        elif isinstance(stmt, For):
            ops.append(("flops", _expr_flops_clean(stmt.lower)
                        + _expr_flops_clean(stmt.upper), frame))
            nest.append(stmt)
            try:
                if stmt.var in thread_vars:
                    scan(stmt.body, frame, divergent)
                else:
                    inner = frames.loop(frame, stmt, nest)
                    ops.append(("loop", len(frames.loops) - 1, frame))
                    scan(stmt.body, inner, divergent)
            finally:
                nest.pop()
        elif isinstance(stmt, While):
            ops.append(("diverge", 0.3, 0))
            ops.append(("while_cond", _expr_flops_clean(stmt.cond), frame))
            scan(stmt.body, frames.child(frame, DEFAULT_SEQ_TRIPS), True)
        elif isinstance(stmt, If):
            branches += 1
            ops.append(("flops", _expr_flops_clean(stmt.cond), frame))
            cond_thread_dep = bool(stmt.cond.free_vars() & set(thread_vars)
                                   or stmt.cond.array_names())
            if cond_thread_dep:
                ops.append(("diverge", 0.15, 0))
            scan(stmt.then_body, frames.child(frame, 0.5),
                 divergent or cond_thread_dep)
            if stmt.else_body is not None:
                scan(stmt.else_body, frames.child(frame, 0.5),
                     divergent or cond_thread_dep)
        elif isinstance(stmt, Critical):
            # serialized updates: charge heavily
            ops.append(("diverge", 0.5, 0))
            scan(stmt.body, frame, True)
        else:
            for expr in stmt.exprs():
                ops.append(("flops", _expr_flops_clean(expr), frame))

    scan(body, 0, False)
    return WorkPlan(frames, ops, branches)
