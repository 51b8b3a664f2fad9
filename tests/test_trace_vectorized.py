"""MemoryTrace.transactions: grouped counting vs the per-warp loop.

The vectorized implementation counts distinct (warp, segment) pairs with
one ``np.unique`` per event; this file pins its equivalence to the
original per-warp Python loop — exactly, since both are ratios of
integer counts — on synthetic traces and on a benchmark-sized kernel
execution.
"""

import numpy as np
import pytest

from repro.gpusim.device import TESLA_M2090
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.trace import MemoryTrace


def reference_transactions(trace, array, elem_bytes, spec=TESLA_M2090,
                           stores=None):
    """The original implementation: Python loop over warps."""
    per_warp = []
    seg = spec.transaction_bytes
    w = spec.warp_size
    for ev in trace.events:
        if ev.array != array:
            continue
        if stores is not None and ev.is_store != stores:
            continue
        if ev.lanes.size == 0:
            continue
        warps = ev.lane_ids // w
        segments = (ev.lanes * elem_bytes) // seg
        for wid in np.unique(warps):
            per_warp.append(float(np.unique(segments[warps == wid]).size))
    if not per_warp:
        return 0.0
    return float(np.mean(per_warp))


def synthetic_trace(rng, events=50, lanes=4096, space=1 << 20):
    trace = MemoryTrace()
    for i in range(events):
        n = int(rng.integers(1, lanes))
        lane_ids = np.sort(rng.choice(lanes, size=n, replace=False))
        kind = i % 3
        if kind == 0:        # coalesced
            idx = lane_ids.copy()
        elif kind == 1:      # strided
            idx = lane_ids * int(rng.integers(2, 33))
        else:                # indirect
            idx = rng.integers(0, space, size=n)
        trace.record("a", is_store=bool(i % 2), lanes=idx,
                     lane_ids=lane_ids)
    return trace


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("elem_bytes", [4, 8])
    def test_synthetic_traces(self, seed, elem_bytes):
        trace = synthetic_trace(np.random.default_rng(seed))
        for stores in (None, True, False):
            got = trace.transactions("a", elem_bytes, stores=stores)
            want = reference_transactions(trace, "a", elem_bytes,
                                          stores=stores)
            assert got == want

    def test_empty_and_unknown_array(self):
        trace = MemoryTrace()
        assert trace.transactions("a", 8) == 0.0
        trace.record("a", False, np.arange(4), np.arange(4))
        assert trace.transactions("b", 8) == 0.0
        assert trace.transactions("a", 8) == \
            reference_transactions(trace, "a", 8)

    def test_single_partial_warp(self):
        trace = MemoryTrace()
        # 3 lanes of warp 0 touching 2 segments
        trace.record("a", False, np.array([0, 1, 16]),
                     np.array([0, 1, 2]))
        assert trace.transactions("a", 8) == 2.0

    def test_benchmark_sized_execution(self):
        """Trace a real kernel at benchmark size; compare implementations."""
        from repro.benchmarks import get_benchmark

        bench = get_benchmark("JACOBI")
        wl = bench.workload(scale="test")
        port = bench.port("Hand-Written CUDA", "best")
        from repro.models import get_compiler
        compiled = get_compiler("Hand-Written CUDA").compile_program(port)
        result = next(r for r in compiled.results.values() if r.translated)
        kernel = result.kernels[0]
        arrays = {k: np.array(v, copy=True) for k, v in wl.arrays.items()}
        ex = KernelExecutor(kernel, arrays, dict(wl.scalars),
                            trace=MemoryTrace())
        ex.run()
        trace = ex.trace
        assert trace.events, "tracing produced no events"
        elem = kernel.elem_bytes()
        for array in sorted(trace.arrays()):
            for stores in (None, True, False):
                got = trace.transactions(array, elem, stores=stores)
                want = reference_transactions(trace, array, elem,
                                              stores=stores)
                assert got == want, (array, stores)
