"""Tests for the dynamic memory-trace auditor — and through it, an
end-to-end validation of the static coalescing classification."""

import numpy as np
import pytest

from repro.benchmarks.registry import get_benchmark
from repro.gpusim.kernel import Kernel
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.trace import MemoryTrace, audit_kernel, render_audit
from repro.ir.builder import accum, aref, assign, pfor, sfor, v


def _kernel(body, tvars, arrays, scalars=()):
    return Kernel("k", body, tvars, arrays=arrays, scalars=scalars,
                  block_threads=128)


class TestTracing:
    def test_trace_records_loads_and_stores(self):
        kern = _kernel(pfor("i", 0, 64,
                            assign(aref("b", v("i")), aref("a", v("i")))),
                       ["i"], ["a", "b"])
        data = {"a": np.arange(64.0), "b": np.zeros(64)}
        ex = KernelExecutor(kern, data, {}, trace=MemoryTrace())
        ex.run()
        assert ex.trace.arrays() == {"a", "b"}
        loads = [e for e in ex.trace.events if not e.is_store]
        stores = [e for e in ex.trace.events if e.is_store]
        assert len(loads) == 1 and len(stores) == 1
        np.testing.assert_array_equal(loads[0].lanes, np.arange(64))
        # functional results unchanged by tracing
        np.testing.assert_allclose(data["b"], np.arange(64.0))

    def test_coalesced_measures_two_txns_for_doubles(self):
        kern = _kernel(pfor("i", 0, 256,
                            assign(aref("b", v("i")), 1.0)), ["i"], ["b"])
        ex = KernelExecutor(kern, {"b": np.zeros(256)}, {},
                            trace=MemoryTrace())
        ex.run()
        assert ex.trace.transactions("b", 8) == pytest.approx(2.0)

    def test_strided_measures_full_transactions(self):
        # stride 32 doubles: every lane its own 128B segment
        kern = _kernel(pfor("i", 0, 128,
                            assign(aref("b", v("i") * 32), 1.0)),
                       ["i"], ["b"])
        ex = KernelExecutor(kern, {"b": np.zeros(128 * 32)}, {},
                            trace=MemoryTrace())
        ex.run()
        assert ex.trace.transactions("b", 8) == pytest.approx(32.0)

    def test_uniform_measures_one(self):
        kern = _kernel(pfor("i", 0, 64, accum(aref("s", 0), 1.0)),
                       ["i"], ["s"])
        ex = KernelExecutor(kern, {"s": np.zeros(1)}, {}, trace=MemoryTrace())
        ex.run()
        assert ex.trace.transactions("s", 8) == pytest.approx(1.0)

    def test_masked_lanes_excluded(self):
        from repro.ir.builder import iff

        kern = _kernel(pfor("i", 0, 64,
                            iff(v("i").lt(2),
                                assign(aref("b", v("i")), 1.0))),
                       ["i"], ["b"])
        ex = KernelExecutor(kern, {"b": np.zeros(64)}, {}, trace=MemoryTrace())
        ex.run()
        stores = [e for e in ex.trace.events if e.is_store]
        assert stores[0].lanes.size == 2


class TestAudit:
    def test_static_matches_dynamic_on_coalesced(self):
        kern = _kernel(pfor("i", 0, 1024,
                            assign(aref("b", v("i")),
                                   aref("a", v("i")) * 2.0)),
                       ["i"], ["a", "b"])
        rows = audit_kernel(kern, {"a": np.ones(1024),
                                   "b": np.zeros(1024)}, {})
        for row in rows.values():
            assert row.static_txns == pytest.approx(row.dynamic_txns,
                                                    rel=0.01)

    def test_static_matches_dynamic_on_strided(self):
        body = pfor("i", 0, v("n"),
                    sfor("j", 0, 16,
                         assign(aref("b", v("i"), v("j")), 1.0)))
        kern = _kernel(body, ["i"], ["b"], ["n"])
        rows = audit_kernel(kern, {"b": np.zeros((256, 16))}, {"n": 256})
        row = rows["b"]
        # thread i strides over rows of 16 doubles = 128 B: one segment
        # per lane both statically and dynamically
        assert row.dynamic_txns == pytest.approx(32.0, rel=0.05)
        assert row.static_txns == pytest.approx(row.dynamic_txns,
                                                rel=0.25)

    def test_render(self):
        kern = _kernel(pfor("i", 0, 64, assign(aref("b", v("i")), 1.0)),
                       ["i"], ["b"])
        rows = audit_kernel(kern, {"b": np.zeros(64)}, {})
        text = render_audit(rows)
        assert "static txn/warp" in text and "b" in text


class TestAuditOnBenchmarks:
    """The static model should track reality on the real kernels."""

    @pytest.mark.parametrize("name,model,region", [
        ("JACOBI", "OpenMPC", "stencil"),
        ("JACOBI", "Hand-Written CUDA", "stencil"),
        ("HOTSPOT", "OpenMPC", "step_ab"),
    ])
    def test_static_within_2x_of_traced(self, name, model, region):
        bench = get_benchmark(name)
        compiled = bench.compile(model, "best")
        kernel = compiled.results[region].kernels[0]
        wl = bench.workload("test")
        arrays = bench.arrays_for(model, "best", wl)
        scalars = dict(wl.scalars)
        rows = audit_kernel(kernel, arrays, scalars)
        for row in rows.values():
            if row.dynamic_txns == 0:
                continue
            assert 0.4 < row.ratio < 2.5, (row.array, row.static_txns,
                                           row.dynamic_txns)

    def test_naive_jacobi_uncoalesced_in_trace(self):
        bench = get_benchmark("JACOBI")
        compiled = bench.compile("PGI Accelerator", "naive")
        kernel = compiled.results["stencil"].kernels[0]
        wl = bench.workload("test")
        rows = audit_kernel(kernel, wl.arrays, dict(wl.scalars))
        # the traced traffic confirms the static "uncoalesced" verdict
        assert rows["a"].dynamic_txns > 10
