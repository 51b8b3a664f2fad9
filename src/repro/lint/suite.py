"""Run the verifier over benchmark ports — the batch entry points.

:func:`lint_port` lints one (benchmark, model, variant) triple;
:data:`LINT` is the :class:`~repro.analysis.Analysis` spec that sweeps
the paper's 13 benchmarks × the lintable models (:data:`LINT_MODELS` —
the 5 directive models plus the OpenMP-Target compiler), producing the
records the per-model lint-density table (:mod:`repro.metrics.lintstats`)
aggregates alongside Table II.

Compilation is memoized in :func:`repro.models.cache.compile_port` —
shared with the harness sweeps and the translation validator, and
re-exported here for backward compatibility.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis import Analysis, Row
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.lint.engine import run_lint
from repro.lint.findings import LintReport, github_annotations
from repro.lint.sarif import reports_to_sarif
from repro.models import DIRECTIVE_MODELS
from repro.models.cache import clear_compile_cache, compile_port

__all__ = ["LINT", "LINT_MODELS", "SuiteRecord", "compile_port",
           "clear_compile_cache", "lint_port", "lint_record"]

#: the models the suite lints by default: every paper directive model
#: plus the OpenMP-Target compiler (not a 2012 Table-II column, but its
#: ports run the same directive pipeline and carry the same lint rules)
LINT_MODELS: tuple[str, ...] = tuple(DIRECTIVE_MODELS) + ("OpenMP-Target",)


@dataclass
class SuiteRecord:
    """One (benchmark, model) lint outcome with sizing context."""

    benchmark: str
    model: str
    variant: str
    regions: int
    report: LintReport

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant, "regions": self.regions,
                "findings": [f.to_dict() for f in self.report.sorted()]}


def lint_record(benchmark: str, model: str, variant: Optional[str] = None,
                device: DeviceSpec = TESLA_M2090) -> SuiteRecord:
    """Compile the named port and lint program + compilation together."""
    from repro.benchmarks import get_benchmark

    port, compiled, chosen = compile_port(benchmark, model, variant)
    return SuiteRecord(benchmark=get_benchmark(benchmark).name,
                       model=compiled.model, variant=chosen,
                       regions=compiled.regions_total,
                       report=run_lint(port.program, compiled,
                                       device=device))


def lint_port(benchmark: str, model: str, variant: Optional[str] = None,
              device: DeviceSpec = TESLA_M2090) -> LintReport:
    """The :class:`LintReport` of one port."""
    return lint_record(benchmark, model, variant, device).report


#: findings that are soundness errors rather than gateable ones: a
#: REFUTED certificate and the COH stale-read errors
UNSOUND_RULES = ("TV001", "COH001", "COH002")


def _rows(rec: SuiteRecord) -> list[Row]:
    return [(f.location(), f.rule, str(f.severity), f.message)
            for f in rec.report.sorted()]


def _render_port(rec: SuiteRecord) -> str:
    report = rec.report
    header = f"{report.program} / {report.model}"
    lines = [header, "-" * len(header)]
    if not report.findings:
        lines.append("no findings")
    lines.extend(f"{f.rule} {f.severity} {f.location()}: {f.message}"
                 for f in report.sorted())
    return "\n".join(lines)


def _rollup(records: Sequence[SuiteRecord]) -> str:
    from repro.metrics.lintstats import lint_density, render_lint_density
    return render_lint_density(lint_density(records))


LINT = Analysis(
    name="lint",
    help="run the directive verifier over one port or --all",
    targets=LINT_MODELS,
    port=lint_record,
    rollup=_rollup,
    render_port=_render_port,
    findings=_rows,
    unsound=lambda rec: [row for row in _rows(rec)
                         if row[1] in UNSOUND_RULES],
    port_json=lambda rec: rec.report.to_json(),
    formats={
        # one SARIF run per (benchmark, model) pair, single log
        "sarif": lambda records: json.dumps(
            reports_to_sarif(rec.report for rec in records), indent=2),
        # ::error/::warning workflow annotations
        "github": lambda records: github_annotations(
            *(rec.report for rec in records)),
    },
)
