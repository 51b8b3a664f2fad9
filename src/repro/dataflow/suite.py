"""Run the transfer analyses over benchmark ports — the batch entry points.

:func:`xfer_port` analyzes one (benchmark, model, variant) triple
against its concrete workload schedule; :data:`XFER` is the
:class:`~repro.analysis.Analysis` spec that sweeps the paper's 13
benchmarks × all six models, producing the records the
``repro-harness xfer`` rollup (:mod:`repro.metrics.xferstats`)
aggregates alongside Table II.

Compilation is memoized in :func:`repro.models.cache.compile_port` —
the same artifact store the lint/tv suites and the harness sweeps hit,
so a ``xfer --all`` sweep after a lint sweep compiles nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis import Analysis, Row
from repro.benchmarks.base import ALL_MODELS
from repro.dataflow.report import XferAnalysis, analyze_compiled
from repro.models.cache import compile_port

__all__ = ["XFER", "XferRecord", "xfer_port"]


@dataclass(frozen=True)
class XferRecord:
    """One (benchmark, model) transfer-analysis outcome."""

    benchmark: str
    model: str
    variant: str
    scale: str
    analysis: XferAnalysis

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "scale": self.scale,
                **self.analysis.to_dict()}


def _array_nbytes(compiled, wl) -> dict[str, int]:
    """Per-transfer byte size of every declared array at this workload."""
    sizes: dict[str, int] = {}
    for name, decl in compiled.program.arrays.items():
        try:
            sizes[name] = decl.nbytes(wl.sizes)
        except Exception:
            # a dim the workload doesn't bind — count its transfers as 0B
            sizes[name] = 0
    return sizes


def xfer_port(benchmark: str, model: str, variant: Optional[str] = None,
              scale: str = "test") -> XferRecord:
    """Compile the named port and analyze its whole-program transfers.

    The CFG is built from the benchmark's *concrete* schedule at
    ``scale`` (host driver loops recovered by run-length compression),
    the final node reads the benchmark's declared output arrays, and
    byte accounting uses the workload's array sizes.
    """
    from repro.benchmarks import get_benchmark

    port, compiled, chosen = compile_port(benchmark, model, variant)
    bench = get_benchmark(benchmark)
    wl = bench.workload(scale=scale)
    schedule = bench.schedule_for(model, chosen, wl)
    analysis = analyze_compiled(
        compiled, schedule=schedule, outputs=bench.output_arrays(),
        nbytes=_array_nbytes(compiled, wl))
    return XferRecord(benchmark=bench.name, model=compiled.model,
                      variant=chosen, scale=scale, analysis=analysis)


def _render_port(rec: XferRecord) -> str:
    analysis = rec.analysis
    header = (f"{rec.benchmark} / {rec.model} ({rec.variant}) — "
              f"{analysis.node_count} CFG nodes, "
              f"{analysis.iterations} solver iterations")
    lines = [header, "-" * len(header)]
    for v in analysis.verdicts:
        trips = f" x{v.trips}" if v.trips > 1 else ""
        lines.append(f"{v.verdict:<10} {v.direction} {v.array!r} "
                     f"@ {v.node}{trips} [{v.origin}]")
        lines.append(f"           {v.witness}")
    lines.extend(f"{p.rule} [{p.severity}] {p.message}"
                 for p in analysis.problems)
    lines.append(f"bytes moved: {analysis.bytes_total()}  "
                 f"statically elidable: {analysis.bytes_elidable()}")
    return "\n".join(lines)


def _rollup(records: Sequence[XferRecord]) -> str:
    from repro.metrics.xferstats import render_xfer_rollup, xfer_rollup
    return render_xfer_rollup(xfer_rollup(records))


def _rows(rec: XferRecord, problems) -> list[Row]:
    return [(f"{rec.benchmark}/{rec.model}", p.rule, p.severity, p.message)
            for p in problems]


XFER = Analysis(
    name="xfer",
    help="whole-program transfer coherence analysis: a verdict per "
         "transfer for one port, or the per-model rollup with --all",
    targets=ALL_MODELS,
    port=xfer_port,
    scaled=True,
    rollup=_rollup,
    render_port=_render_port,
    findings=lambda rec: _rows(rec, rec.analysis.problems),
    # a COH error means the port's transfer discipline itself is
    # unsound — stale reads the state machine proves possible
    unsound=lambda rec: _rows(rec, rec.analysis.coh_errors),
)
