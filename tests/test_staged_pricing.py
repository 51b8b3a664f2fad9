"""Staged pricing: static plans are built once and evaluated per launch,
and timing-only runs neither execute kernels nor copy host arrays."""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import Workload
from repro.benchmarks.registry import get_benchmark
from repro.ir.analysis.access import (AccessPattern, plan_accesses,
                                      summarize_accesses)
from repro.ir.analysis.metrics import body_work, plan_work
from repro.ir.builder import (accum, aref, assign, block, iff, local, pfor,
                              sfor, v)
from repro.ir.stmt import While
from repro.obs.metrics import MetricsRegistry, collecting


def _count(registry: MetricsRegistry, name: str, scope: str) -> int:
    series = registry.get(name, {"scope": scope})
    return 0 if series is None else int(series.value)


def _body():
    """Triangular, clamped and data-dependent loops, a While, branches and
    a column-expanded private array: every weighting path."""
    i, j, k = v("i"), v("j"), v("k")
    return pfor("i", 0, v("n"), block(
        local("q", shape=(4,)),
        sfor("j", 0, i, accum(aref("a", i, j), aref("b", j, i) * 2.0)),
        sfor("k", aref("row", i), aref("row", i + 1),
             iff(aref("val", k).gt(0.0),
                 accum(aref("q", 0), aref("val", k)),
                 assign(aref("y", i), aref("q", 1)))),
        sfor("j", v("lo"), v("m"), accum(aref("y", i), aref("b", i, j))),
        While(aref("y", i).gt(1.0), assign(aref("y", i), aref("y", i) / 2.0)),
    ))


class TestPlanEvaluate:
    BINDINGS = ({"n": 64, "m": 48, "lo": 3}, {"n": 7, "m": 5},
                {"n": 1000, "m": 0, "lo": 9})

    def test_one_plan_matches_a_fresh_walk_under_every_binding(self):
        body = _body()
        extents = {"a": [64, 64], "b": [64, None], "y": [64],
                   "val": [None], "row": [None]}
        kwargs = dict(local_patterns={"q": AccessPattern.COALESCED})
        plan = plan_accesses(body, ["i"], extents, **kwargs)
        for bindings in self.BINDINGS:
            fresh = summarize_accesses(body, ["i"], extents, bindings,
                                       **kwargs)
            assert repr(plan.evaluate(bindings).refs) == repr(fresh.refs)

    def test_work_plan_matches_a_fresh_walk_under_every_binding(self):
        body = _body()
        for thread_vars in (["i"], ()):
            plan = plan_work(body, thread_vars)
            for bindings in self.BINDINGS:
                assert (repr(plan.evaluate(bindings))
                        == repr(body_work(body, thread_vars, bindings)))


class TestPlanCache:
    def test_nw_builds_one_plan_per_kernel_and_per_cpu_region(self):
        """A timing-only NW run: one plan per (kernel, extents) and per
        CPU region; every other launch and CPU step is a hit."""
        bench = get_benchmark("NW")
        registry = MetricsRegistry()
        with collecting(registry):
            # compiles a fresh program: no kernel carries a plan yet
            outcome = bench.run("OpenACC", scale="test", execute=False,
                                validate=False)
        launches = outcome.executable.rt.profiler.launches
        kernels = {record.kernel for record in launches}
        assert len(launches) > 20 * len(kernels)
        assert _count(registry, "access_plan_builds", "kernel") == len(kernels)
        assert (_count(registry, "access_plan_hits", "kernel")
                == len(launches) - len(kernels))
        schedule = bench.workload("test").schedule
        regions = {step.region for step in schedule}
        assert _count(registry, "access_plan_builds", "host") == len(regions)
        assert (_count(registry, "access_plan_hits", "host")
                == len(schedule) - len(regions))

    def test_plan_families_are_deterministic(self):
        registry = MetricsRegistry()
        with collecting(registry):
            get_benchmark("JACOBI").run("OpenACC", scale="test",
                                        execute=False, validate=False)
        doc = registry.to_dict(deterministic_only=True)
        assert {"access_plan_builds", "access_plan_hits"} <= set(
            doc["metrics"])


class TestTimingOnlyRuns:
    def test_sweep_executes_no_kernel_and_copies_no_array(self, monkeypatch):
        """The Figure-1 sweep prices without running anything: no
        interpreter, no JIT program, no private copy of a host array."""
        from repro.gpusim import executor, jit, runtime
        from repro.harness.runner import run_full_evaluation

        def forbidden(*args, **kwargs):
            raise AssertionError("a timing-only run executed a kernel")

        def no_copy(self):
            raise AssertionError("a timing-only run copied host arrays")

        monkeypatch.setattr(executor.KernelExecutor, "__init__", forbidden)
        monkeypatch.setattr(jit, "compile_kernel", forbidden)
        monkeypatch.setattr(runtime, "execute_kernel", forbidden)
        monkeypatch.setattr(Workload, "copy_arrays", no_copy)
        results = run_full_evaluation(scale="test")
        assert len(results.speedups) == 13

    def test_relaid_arrays_are_views_of_the_workload(self, monkeypatch):
        """BACKPROP's transposed weights keep their re-laid shapes."""
        bench = get_benchmark("BACKPROP")
        wl = bench.workload("test")
        monkeypatch.setattr(bench, "workload",
                            lambda scale="test", seed=0: wl)
        outcome = bench.run("OpenACC", "best", scale="test", execute=False,
                            validate=False)
        for name, array in outcome.arrays.items():
            assert np.shares_memory(array, wl.arrays[name]), name
        assert outcome.arrays["w1"].shape == wl.arrays["w1"].T.shape
        copied = bench.arrays_for("OpenACC", "best", wl)
        assert copied["w1"].flags.c_contiguous
        assert not any(np.shares_memory(copied[name], wl.arrays[name])
                       for name in copied)
