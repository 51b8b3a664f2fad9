"""The benchmark's three workloads, as lists of checked work units.

A unit is one call into the program's public API plus the check of its
output: ``run()`` returns ``(ok, material, error)``, where ``material``
is a JSON-able summary of the simulated or analysed output that feeds
the run's digest.  Units call through module attributes
(``tv_suite.validate_port``, not a from-import) so that the layer
wrappers of :mod:`layers` see them.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

#: committed Figure-1 reference, relative to the checkout root
BASELINE_PATH = os.path.join("benchmarks", "baselines", "figure1-paper.json")

#: one Figure-1 model per benchmark, rotating through the five models in
#: Figure-1 order.  Pricing all 65 entries takes about 80 s on a 2-core
#: host, longer than one run may last; this diagonal keeps every
#: benchmark and every model, and keeps BFS, NW, LUD and CFD, which hold
#: about 80 % of the full sweep's time (and about 80 % of this subset's).
FIGURE1_SUBSET = (
    ("JACOBI", "PGI Accelerator"), ("EP", "OpenACC"), ("SPMUL", "HMPP"),
    ("CG", "OpenMPC"), ("FT", "Hand-Written CUDA"),
    ("SRAD", "PGI Accelerator"), ("CFD", "OpenACC"), ("BFS", "HMPP"),
    ("HOTSPOT", "OpenMPC"), ("BACKPROP", "Hand-Written CUDA"),
    ("KMEANS", "PGI Accelerator"), ("NW", "OpenACC"), ("LUD", "HMPP"),
)

#: workload name -> the benchmark scale its inputs use
SCALES = {"figure1-paper": "paper", "validate-test": "test",
          "analyses-test": "test"}


@dataclass(frozen=True)
class Unit:
    label: str
    run: Callable[[], tuple[bool, object, str]]


# -- figure1-paper ----------------------------------------------------------

def _price_entry(bench_name: str, model: str, seed: int) -> dict:
    """One timing-only paper-scale run, in the baseline's entry format.

    Mirrors ``repro.obs.profile.profile_run`` (which the baseline gate
    calls) with the workload seed passed through.
    """
    from repro.benchmarks import get_benchmark
    from repro.models.cache import compile_port
    from repro.obs.baseline import _entry_from_profile
    from repro.obs.profile import RunProfile, profile_from_profiler

    bench = get_benchmark(bench_name)
    _, compiled, chosen = compile_port(bench_name, model)
    outcome = bench.run(model, chosen, scale="paper", seed=seed,
                        execute=False, validate=False, compiled=compiled)
    profiler = outcome.executable.rt.profiler
    profile = RunProfile(
        benchmark=bench.name, model=model, variant=chosen, scale="paper",
        kernels=profile_from_profiler(profiler),
        kernel_time_s=profiler.kernel_time_s,
        transfer_time_s=profiler.transfer_time_s,
        bytes_htod=profiler.bytes_htod, bytes_dtoh=profiler.bytes_dtoh,
        speedup=outcome.speedup.speedup,
        host_fallback_s=outcome.executable.host_time_s)
    # a JSON round trip gives the committed file's exact types
    return json.loads(json.dumps(_entry_from_profile(profile)))


def _entry_problem(entry: dict) -> str:
    times = [entry["speedup"], entry["kernel_time_s"],
             entry["transfer_time_s"], entry["host_fallback_s"]]
    times += [k["time_s"] for k in entry["kernels"].values()]
    if not all(math.isfinite(t) and t >= 0 for t in times):
        return "non-finite or negative simulated time"
    if not entry["speedup"] > 0:
        return f"speedup {entry['speedup']!r} is not positive"
    return ""


def figure1_units(seed: int, root: str) -> list[Unit]:
    reference = None
    if seed == 0:
        with open(os.path.join(root, BASELINE_PATH)) as handle:
            reference = json.load(handle)["entries"]

    def unit(bench_name: str, model: str) -> Unit:
        def run():
            entry = _price_entry(bench_name, model, seed)
            if reference is not None:
                ok = entry == reference[bench_name][model]
                error = "" if ok else "differs from the committed baseline"
            else:
                error = _entry_problem(entry)
                ok = not error
            return ok, entry, error
        return Unit(f"{bench_name}/{model}", run)

    return [unit(b, m) for b, m in FIGURE1_SUBSET]


# -- validate-test ------------------------------------------------------------

def validate_units(seed: int) -> list[Unit]:
    from repro.benchmarks import BENCHMARK_ORDER, get_benchmark
    from repro.benchmarks.base import ALL_MODELS
    import repro.harness.validate as validate

    def unit(bench_name: str, model: str) -> Unit:
        def run():
            matrix = validate.validate_suite(benchmarks=[bench_name],
                                             models=[model], seed=seed)
            errors = "; ".join(f"{c.variant}: {e}" for c in matrix.failures()
                               for e in c.errors)
            return (matrix.passed,
                    [(c.variant, c.passed) for c in matrix.cells], errors)
        return Unit(f"{bench_name}/{model}", run)

    return [unit(b, m) for b in BENCHMARK_ORDER for m in ALL_MODELS
            if get_benchmark(b).variants(m)]


# -- analyses-test ------------------------------------------------------------

def analyses_units() -> list[Unit]:
    """Table II, tv, lint, xfer, translate and locality over every port.

    The suites run interleaved per benchmark: each benchmark goes through
    all six before the next starts.  Run one after another, a suite's
    units would all fall in one window of a second or so, and the host's
    speed swings by a quarter from one such window to the next; spread
    over the pass, the pooled percentiles average those swings out.  The
    artifact store sees the same requests either way (91 misses, then
    351 hits).  The suites take no seed, so neither does this workload.
    """
    import repro.dataflow.suite as dataflow_suite
    import repro.gpusim.locality as locality
    import repro.harness.runner as runner
    import repro.lint.suite as lint_suite
    import repro.translate.suite as translate_suite
    import repro.tv.suite as tv_suite
    from repro.benchmarks import BENCHMARK_ORDER, get_benchmark
    from repro.benchmarks.base import ALL_MODELS
    from repro.ir.analysis.reuse import STATIC_AGREEMENT_TOLERANCE
    from repro.models import DIRECTIVE_MODELS
    from repro.tv import CertStatus

    def table2(b):
        res = runner.run_coverage_and_codesize([get_benchmark(b)])
        return True, [(m, res.coverage[m].percent,
                       res.codesize[m].average_percent)
                      for m in runner.TABLE2_MODELS], ""

    def tv(b, m):
        rec = tv_suite.validate_port(b, m)
        refuted = rec.count(CertStatus.REFUTED)
        return (refuted == 0, sorted(c.status.name for c in rec.certificates),
                f"{refuted} REFUTED" if refuted else "")

    def lint(b, m):
        report = lint_suite.lint_port(b, m)
        return (report.errors == 0, sorted(f.rule for f in report.findings),
                f"{report.errors} error findings" if report.errors else "")

    def xfer(b, m):
        rec = dataflow_suite.xfer_port(b, m)
        coh = len(rec.analysis.coh_errors)
        return coh == 0, rec.to_dict(), f"{coh} COH errors" if coh else ""

    def translate(b, pair):
        rec = translate_suite.translate_pair(b, *pair)
        refuted = rec.count(CertStatus.REFUTED)
        ok = refuted == 0 and rec.dropped == 0
        return ok, rec.to_dict(), "" if ok else (
            f"{refuted} REFUTED, {rec.dropped} dropped clauses")

    def loc(b, m):
        rec = locality.locality_port(b, m)
        worst = max((_locality_deviation(kl) for kl in rec.kernels),
                    default=0.0)
        ok = worst <= STATIC_AGREEMENT_TOLERANCE
        return ok, rec.to_dict(), "" if ok else (
            f"static/simulated deviation {worst:.3f}")

    tv_models = tuple(DIRECTIVE_MODELS) + ("Hand-Written CUDA",)
    suites = (
        ("tv", tv, tv_models),
        ("lint", lint, lint_suite.LINT_MODELS),
        ("xfer", xfer, DIRECTIVE_MODELS),
        ("translate", translate, translate_suite.TRANSLATION_PAIRS),
        ("locality", loc, ALL_MODELS),
    )
    units: list[Unit] = []
    for b in BENCHMARK_ORDER:
        units.append(Unit(f"table2/{b}", functools.partial(table2, b)))
        bench = get_benchmark(b)
        for suite, check, targets in suites:
            for target in targets:
                if suite == "tv" and not bench.variants(target):
                    continue
                label = "->".join(target) if suite == "translate" else target
                units.append(Unit(f"{suite}/{b}/{label}",
                                  functools.partial(check, b, target)))
    return units


#: below this many simulated L1 accesses one or two cold lines swing the
#: miss ratio by tens of points, so the agreement gate skips the kernel
#: (the same floor the locality agreement test applies)
MIN_GATED_ACCESSES = 64


def _locality_deviation(kl) -> float:
    """Largest static-vs-replayed disagreement of one gated kernel."""
    sim, stat = kl.simulated, kl.static
    if not (sim.exact and stat.exact) or sim.l1.accesses < MIN_GATED_ACCESSES:
        return 0.0
    l1_dev = abs(stat.l1_miss_ratio - sim.l1.miss_ratio)
    sim_dram = sim.l2.misses / sim.l1.accesses
    acc = sum(p.accesses for p in stat.arrays.values())
    stat_dram = (sum(p.l2_misses for p in stat.arrays.values()) / acc
                 if acc else 0.0)
    return max(l1_dev, abs(stat_dram - sim_dram))


def make_units(workload: str, seed: int, root: str) -> list[Unit]:
    if workload == "figure1-paper":
        return figure1_units(seed, root)
    if workload == "validate-test":
        return validate_units(seed)
    if workload == "analyses-test":
        return analyses_units()
    raise KeyError(f"unknown workload {workload!r}; known: {sorted(SCALES)}")
