"""The shared semantics core (:mod:`repro.gpusim.semantics`): its operator
tables are pinned to the IR's vocabularies, and the memory trace it
feeds records each access once, after its subscripts."""

import numpy as np

from repro.gpusim import jit
from repro.gpusim import reference
from repro.gpusim import semantics as sem
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.kernel import Kernel
from repro.gpusim.trace import MemoryTrace
from repro.ir import expr as ir_expr
from repro.ir.builder import aref, assign, pfor, v


class TestOpTables:
    def test_binary_ops_match_the_ir(self):
        assert set(sem.BINOPS) == ir_expr.BINARY_OPS

    def test_unary_ops_match_the_ir(self):
        assert set(sem.UNOPS) == ir_expr.UNARY_OPS

    def test_intrinsics_match_the_ir(self):
        assert set(sem.INTRINSIC_FUNCS) == ir_expr.INTRINSICS

    def test_scalar_reference_intrinsics_match_the_ir(self):
        assert set(reference._INTRINSICS) == ir_expr.INTRINSICS

    def test_jit_spellings_name_the_core_functions(self):
        left, right = np.array([6, -7, 3]), np.array([4, 2, 1])
        for op, fn in sem.BINOPS.items():
            spelled = eval(jit._BINOP_FMT[op].format(l="left", r="right"))
            np.testing.assert_array_equal(spelled, fn(left, right))
        for op, fn in sem.UNOPS.items():
            spelled = eval(jit._UNOP_FMT[op].format(x="left"))
            np.testing.assert_array_equal(spelled, fn(left))
        assert set(jit._AUG_FMT) == set(sem.AUG_OPS)


def _traced(body, arrays):
    kern = Kernel("k", body, ["i"], arrays=sorted(arrays),
                  block_threads=128)
    trace = MemoryTrace()
    KernelExecutor(kern, arrays, {}, trace=trace).run()
    return [(e.array, e.is_store) for e in trace.events]


class TestTraceOrder:
    def test_gather_records_its_subscript_load_once(self):
        events = _traced(
            pfor("i", 0, 8, assign(aref("y", v("i")),
                                   aref("x", aref("idx", v("i"))))),
            {"idx": np.arange(8)[::-1].copy(), "x": np.arange(8.0),
             "y": np.zeros(8)})
        assert events == [("idx", False), ("x", False), ("y", True)]

    def test_scatter_records_its_subscript_before_the_store(self):
        events = _traced(
            pfor("i", 0, 8, assign(aref("y", aref("idx", v("i"))), 1.0)),
            {"idx": np.arange(8)[::-1].copy(), "y": np.zeros(8)})
        assert events == [("idx", False), ("y", True)]
