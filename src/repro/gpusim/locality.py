"""Cache-locality suite: replay + static analysis over benchmark ports.

:func:`locality_port` compiles one (benchmark, model, variant) triple,
executes every translated region's kernels once under the tracing
executor, replays the recorded address streams through the vectorized
L1/L2 model (:mod:`repro.gpusim.cache`), and runs the static reuse
analyzer (:mod:`repro.ir.analysis.reuse`) on the same launches — so
every kernel carries the *measured* and the *predicted* locality side
by side.  :data:`LOCALITY` is the :class:`~repro.analysis.Analysis`
spec that sweeps benchmarks × models, producing the records the
``repro-harness locality`` rollup (:mod:`repro.metrics.cachestats`)
aggregates and gating the static-vs-replayed agreement.

Regions are traced at their first occurrence in the port's schedule
(repeat invocations re-run the same launches on evolved data; the line
streams are structurally identical), with array state threaded through
in schedule order so later regions see realistic inputs.  Compilation
is memoized in :func:`repro.models.cache.compile_port` — the shared
artifact store the lint/xfer/tv suites hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis import Analysis, Row
from repro.benchmarks.base import ALL_MODELS
from repro.gpusim.cache import CacheReport, simulate_cache
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.trace import TracingExecutor
from repro.ir.analysis.reuse import (STATIC_AGREEMENT_TOLERANCE,
                                     KernelReuse, analyze_kernel_reuse)
from repro.models.cache import compile_port

__all__ = ["LOCALITY", "MIN_GATED_ACCESSES", "KernelLocality",
           "LocalityRecord", "locality_port"]

#: a kernel enters the static-vs-replayed agreement check only when its
#: replay saw at least this many L1 accesses — below that, one or two
#: cold lines swing the ratio by tens of points and the comparison is
#: noise, not signal
MIN_GATED_ACCESSES = 64


@dataclass(frozen=True)
class KernelLocality:
    """Measured and predicted locality of one kernel launch."""

    region: str
    kernel: str
    simulated: CacheReport
    static: KernelReuse

    @property
    def gated(self) -> bool:
        """Exact on both sides with a non-trivial replayed stream."""
        sim = self.simulated
        return (sim.exact and self.static.exact
                and sim.l1.accesses >= MIN_GATED_ACCESSES)

    def deviation(self) -> tuple[float, float]:
        """``|static - replayed|`` of the L1 miss ratio and of the DRAM
        traffic ratio (L2 misses per L1 access)."""
        sim, stat = self.simulated, self.static
        l1 = abs(stat.l1_miss_ratio - sim.l1.miss_ratio)
        sim_dram = (sim.l2.misses / sim.l1.accesses
                    if sim.l1.accesses else 0.0)
        acc = sum(p.accesses for p in stat.arrays.values())
        stat_dram = (sum(p.l2_misses for p in stat.arrays.values()) / acc
                     if acc else 0.0)
        return l1, abs(stat_dram - sim_dram)

    def to_dict(self) -> dict:
        return {"region": self.region, "kernel": self.kernel,
                "simulated": self.simulated.to_dict(),
                "static": self.static.to_dict()}


@dataclass(frozen=True)
class LocalityRecord:
    """One (benchmark, model) locality-suite outcome."""

    benchmark: str
    model: str
    variant: str
    scale: str
    kernels: tuple[KernelLocality, ...]

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "scale": self.scale,
                "kernels": [k.to_dict() for k in self.kernels]}


def locality_port(benchmark: str, model: str, variant: Optional[str] = None,
                  scale: str = "test",
                  spec: DeviceSpec = TESLA_M2090) -> LocalityRecord:
    """Trace, replay, and statically analyze one port's kernels."""
    from repro.benchmarks import get_benchmark

    port, compiled, chosen = compile_port(benchmark, model, variant)
    bench = get_benchmark(benchmark)
    wl = bench.workload(scale=scale)
    arrays = bench.arrays_for(model, chosen, wl)
    extents = {name: list(a.shape) for name, a in arrays.items()}
    functions = compiled.program.functions

    kernels: list[KernelLocality] = []
    seen: set[str] = set()
    for step in bench.schedule_for(model, chosen, wl):
        if step.region in seen:
            continue
        seen.add(step.region)
        result = compiled.results.get(step.region)
        if result is None or not result.translated:
            continue
        scalars = dict(wl.scalars)
        scalars.update(step.scalars)
        bindings = {k: float(v) for k, v in scalars.items()
                    if isinstance(v, (int, float))}
        for kern in result.kernels:
            executor = TracingExecutor(kern, arrays, scalars, functions)
            executor.run()
            simulated = simulate_cache(executor.trace, kern.elem_bytes(),
                                       spec, kernel=kern.name)
            static = analyze_kernel_reuse(kern, bindings, extents, spec,
                                          functions=functions)
            kernels.append(KernelLocality(region=step.region,
                                          kernel=kern.name,
                                          simulated=simulated,
                                          static=static))
    return LocalityRecord(benchmark=bench.name, model=compiled.model,
                          variant=chosen, scale=scale,
                          kernels=tuple(kernels))


def _render_port(rec: LocalityRecord) -> str:
    header = f"{rec.benchmark} / {rec.model} ({rec.variant})"
    lines = [header, "-" * len(header)]
    for kl in rec.kernels:
        sim, stat = kl.simulated, kl.static
        approx = "" if sim.exact else "  (approximate: indirect)"
        lines += [f"{kl.region}:{kl.kernel}{approx}",
                  f"  simulated  L1 {sim.l1.miss_ratio:6.3f}  "
                  f"L2 {sim.l2.miss_ratio:6.3f}  "
                  f"spatial {sim.spatial_locality:.3f}  "
                  f"temporal {sim.temporal_locality:.3f}  "
                  f"shortMRI {sim.short_mri_fraction:.3f}",
                  f"  static     L1 {stat.l1_miss_ratio:6.3f}  "
                  f"L2 {stat.l2_miss_ratio:6.3f}  "
                  f"({len(stat.pairs)} reuse pairs, "
                  f"{len(stat.working_sets)} loop working sets)"]
    return "\n".join(lines)


def _rollup(records: Sequence[LocalityRecord]) -> str:
    from repro.metrics.cachestats import cache_rollup, render_cache_rollup
    return render_cache_rollup(cache_rollup(records))


def _findings(rec: LocalityRecord) -> list[Row]:
    """The CACHE lint family over the same (memoized) compilation, plus
    an error for every gated kernel whose static prediction strays from
    the replay by more than :data:`STATIC_AGREEMENT_TOLERANCE`."""
    from repro.lint.engine import run_lint

    where = f"{rec.benchmark}/{rec.model}"
    port, compiled, _ = compile_port(rec.benchmark, rec.model, rec.variant)
    rows = [(where, f.rule, str(f.severity), f.message)
            for f in run_lint(port.program, compiled,
                              families=("CACHE",)).findings]
    for kl in rec.kernels:
        l1, dram = kl.deviation()
        if kl.gated and max(l1, dram) > STATIC_AGREEMENT_TOLERANCE:
            rows.append((f"{where}:{kl.region}:{kl.kernel}", "LOC-AGREE",
                         "error",
                         f"static vs replayed deviation L1 {l1:.3f}, "
                         f"DRAM {dram:.3f} exceeds "
                         f"{STATIC_AGREEMENT_TOLERANCE}"))
    return rows


# all six models: the five directive compilers *and* the hand-written
# CUDA baseline, whose locality is the reference point Figure 1
# normalizes against
LOCALITY = Analysis(
    name="locality",
    help="cache-locality suite: replayed L1/L2 metrics side by side with "
         "the static reuse analyzer's predictions for one port, or the "
         "per-model rollup with --all",
    targets=ALL_MODELS,
    port=locality_port,
    scaled=True,
    rollup=_rollup,
    render_port=_render_port,
    findings=_findings,
)
