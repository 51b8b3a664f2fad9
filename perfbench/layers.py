"""Call counters and per-layer self-time wrappers, installed from outside.

The program carries no tracing of its own, so the benchmark patches the
public functions of each ``repro`` module at run time:

* :func:`install_counters` hooks the simulated profiler's record calls.
  It only counts (no clock reads), so it is installed in every pass,
  traced or not, and yields the launch count behind ``launches_per_s``
  and the simulated-statistics digest.
* :func:`install_layers` wraps every layer boundary in a timer that
  keeps a stack, so each layer's time is *self* time: a wrapped call's
  duration minus the part spent in wrapped calls it made.  Only traced
  passes install it.

Functions that other modules bind by name at import time are patched in
those modules' namespaces as well (``price_kernel`` and
``execute_kernel`` are called through ``repro.gpusim.runtime``;
``price_region_serial`` through ``repro.benchmarks.base`` and
``repro.models.base``).  ``Benchmark.workload`` and ``reference`` are
abstract, so every subclass's override is wrapped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

#: every layer whose self time a traced pass reports, as ``<layer>_s``
LAYERS = (
    "benchmarks.workload", "benchmarks.arrays_copy", "benchmarks.reference",
    "cpu.price",
    "gpusim.describe", "gpusim.price_kernel", "gpusim.transfer",
    "gpusim.execute",
    "models.compile",
    "metrics.table2", "tv.suite", "lint.suite", "dataflow.suite",
    "translate.suite",
    "locality.trace", "locality.replay", "locality.static",
    "harness.run_region",
)

#: deterministic call counts a traced pass reports
CALL_COUNTERS = (
    "benchmarks.workload_calls", "cpu.price_calls", "cpu.region_price_calls",
    "gpusim.describe_calls", "gpusim.launches", "gpusim.transfers",
    "gpusim.execute_calls", "models.compile_calls",
)


class SimCounters:
    """Counts of simulated events, fed by hooks on the profiler."""

    FIELDS = ("launches", "traced_launches", "sim_kernel_s", "transfers",
              "transfer_bytes")

    def __init__(self) -> None:
        self.drain()

    def drain(self) -> tuple:
        """The counts since the last drain, which restarts them at zero
        (so a float sum does not depend on what came before)."""
        counts = tuple(getattr(self, name, 0) for name in self.FIELDS)
        for name in self.FIELDS:
            setattr(self, name, 0)
        return counts


def install_counters() -> SimCounters:
    """Count every priced launch, traced launch and transfer."""
    from repro.gpusim.profiler import Profiler
    from repro.gpusim.trace import TracingExecutor

    sim = SimCounters()
    record_launch = Profiler.record_launch
    record_transfer = Profiler.record_transfer
    trace_run = TracingExecutor.run

    def counted_launch(self, record):
        sim.launches += 1
        sim.sim_kernel_s += record.timing.time_s
        return record_launch(self, record)

    def counted_transfer(self, record):
        sim.transfers += 1
        sim.transfer_bytes += record.nbytes
        return record_transfer(self, record)

    def counted_trace(self):
        sim.traced_launches += 1
        return trace_run(self)

    Profiler.record_launch = counted_launch
    Profiler.record_transfer = counted_transfer
    TracingExecutor.run = counted_trace
    return sim


class LayerClock:
    """Self time and calls per layer, and call counts per counter."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.layer_calls: Counter = Counter()
        self.transfer_bytes = 0
        self.describe_keys: set = set()
        # one [child seconds] cell per wrapped call in flight
        self._stack: list[list[float]] = []

    def wrap(self, fn: Callable, layer: str, counter: Optional[str] = None,
             on_call: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        layer_calls = self.layer_calls
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            if counter is not None:
                calls[counter] += 1
            layer_calls[layer] += 1
            cell = [0.0]
            stack.append(cell)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[layer] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def patch(self, owner, name: str, layer: str,
              counter: Optional[str] = None,
              on_call: Optional[Callable] = None) -> None:
        setattr(owner, name,
                self.wrap(getattr(owner, name), layer, counter, on_call))


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install_layers() -> LayerClock:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.benchmarks  # defines every registry subclass
    import repro.benchmarks.base as bench_base
    import repro.cpu.host as cpu_host
    import repro.dataflow.suite as dataflow_suite
    import repro.gpusim.locality as locality
    import repro.gpusim.runtime as runtime
    import repro.harness.runner as runner
    import repro.lint.suite as lint_suite
    import repro.models.base as models_base
    import repro.translate.suite as translate_suite
    import repro.tv.suite as tv_suite
    from repro.gpusim.kernel import Kernel
    from repro.gpusim.trace import TracingExecutor
    from repro.models.cache import ArtifactStore

    clock = LayerClock()

    # -- benchmarks: every concrete override
    for cls in [bench_base.Benchmark] + _subclasses(bench_base.Benchmark):
        if "workload" in vars(cls) and cls is not bench_base.Benchmark:
            clock.patch(cls, "workload", "benchmarks.workload",
                        "benchmarks.workload_calls")
        if "reference" in vars(cls) and cls is not bench_base.Benchmark:
            clock.patch(cls, "reference", "benchmarks.reference")
        if "arrays_for" in vars(cls):
            clock.patch(cls, "arrays_for", "benchmarks.arrays_copy")

    # -- cpu: serial-baseline pricing, bound by name in two modules
    clock.patch(bench_base.Benchmark, "cpu_time", "cpu.price",
                "cpu.price_calls")
    for module in (bench_base, models_base, cpu_host):
        clock.patch(module, "price_region_serial", "cpu.price",
                    "cpu.region_price_calls")

    # -- gpusim.kernel: static access summary + work estimate per launch
    # the key holds the kernel itself: an id() could be reused once a
    # compiled program is freed, merging two kernels' keys
    def describe_key(kernel, bindings, array_extents):
        clock.describe_keys.add((
            kernel, tuple(sorted(bindings.items())),
            tuple(sorted((k, tuple(v)) for k, v in array_extents.items()))))

    clock.patch(Kernel, "describe", "gpusim.describe",
                "gpusim.describe_calls", on_call=describe_key)

    # -- gpusim.timing and transfers
    clock.patch(runtime, "price_kernel", "gpusim.price_kernel",
                "gpusim.launches")

    def transfer_bytes(rt, name):
        buf = rt.buffers.get(name)
        if buf is not None:
            clock.transfer_bytes += buf.nbytes

    for direction in ("htod", "dtoh"):
        clock.patch(runtime.CudaRuntime, direction, "gpusim.transfer",
                    "gpusim.transfers", on_call=transfer_bytes)

    # -- gpusim.executor (the JIT dispatch happens inside execute_kernel)
    clock.patch(runtime, "execute_kernel", "gpusim.execute",
                "gpusim.execute_calls")

    # -- models: lowering plus the artifact store's keying
    clock.patch(models_base.DirectiveCompiler, "compile_program",
                "models.compile", "models.compile_calls")
    for name in ("registry_artifact", "instance_artifact"):
        clock.patch(ArtifactStore, name, "models.compile")

    # -- analysis suites, per analysed port
    clock.patch(runner, "run_coverage_and_codesize", "metrics.table2")
    clock.patch(tv_suite, "validate_port", "tv.suite")
    clock.patch(lint_suite, "lint_port", "lint.suite")
    clock.patch(dataflow_suite, "xfer_port", "dataflow.suite")
    clock.patch(translate_suite, "translate_pair", "translate.suite")
    clock.patch(TracingExecutor, "run", "locality.trace")
    clock.patch(locality, "simulate_cache", "locality.replay")
    clock.patch(locality, "analyze_kernel_reuse", "locality.static")

    # -- harness: the host-driver loop
    clock.patch(models_base.ExecutableProgram, "run_region",
                "harness.run_region")
    return clock
