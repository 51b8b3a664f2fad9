"""Translation validation over the whole benchmark suite.

:func:`validate_port` certifies every region of one (benchmark, model,
variant) port; :data:`TV` is the :class:`~repro.analysis.Analysis` spec
that sweeps 13 benchmarks × all six models (the five directive models
plus the hand-written CUDA baseline), reusing the memoized compilations
of :func:`repro.models.cache.compile_port`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis import Analysis, Row
from repro.benchmarks.base import ALL_MODELS
from repro.tv.certify import Certificate, CertStatus, validate_compiled


@dataclass
class TvRecord:
    """All certificates of one (benchmark, model) port."""

    benchmark: str
    model: str
    variant: str
    certificates: list[Certificate] = field(default_factory=list)

    def count(self, status: CertStatus) -> int:
        return sum(1 for c in self.certificates if c.status is status)

    def to_dict(self) -> dict:
        return {"benchmark": self.benchmark, "model": self.model,
                "variant": self.variant,
                "certificates": [c.to_dict() for c in self.certificates]}


def validate_port(benchmark: str, model: str,
                  variant: Optional[str] = None,
                  elide: bool = False) -> TvRecord:
    """Certify every region of one compiled port.

    ``elide`` certifies the elide-transfers flavour — the transfer
    plan changes but the lowered kernels must not, so the certificate
    set (and its PROVED count) must match the default compile exactly.
    """
    from repro.benchmarks import get_benchmark
    from repro.models.cache import compile_port

    port, compiled, chosen = compile_port(benchmark, model, variant,
                                          elide=elide)
    return TvRecord(benchmark=get_benchmark(benchmark).name,
                    model=compiled.model, variant=chosen,
                    certificates=validate_compiled(port.program, compiled))


def _rows(rec: TvRecord, status: CertStatus, rule: str,
          severity: str) -> list[Row]:
    return [(f"{rec.benchmark}/{rec.model}:{c.region}", rule, severity,
             c.detail)
            for c in rec.certificates if c.status is status]


def _render_port(rec: TvRecord) -> str:
    header = f"{rec.benchmark} / {rec.model} ({rec.variant})"
    lines = [header, "-" * len(header)]
    for c in rec.certificates:
        lines.append(f"{c.status.value:8s} {c.region}: {c.detail}")
        if c.blocking:
            lines.append(f"         blocked by: {c.blocking}")
    return "\n".join(lines)


def _rollup(records: Sequence[TvRecord]) -> str:
    from repro.metrics.tvstats import render_tv_matrix, tv_matrix
    return render_tv_matrix(tv_matrix(records))


# the hand-written baseline is certified too — its "lowering" is the
# manually restructured CUDA, the hardest case for the validator
TV = Analysis(
    name="tv",
    help="translation validator: equivalence certificates for every "
         "lowered region",
    targets=ALL_MODELS,
    port=validate_port,
    rollup=_rollup,
    render_port=_render_port,
    findings=lambda rec: _rows(rec, CertStatus.UNKNOWN, "TV-UNKNOWN",
                               "warning"),
    unsound=lambda rec: _rows(rec, CertStatus.REFUTED, "TV-REFUTED",
                              "error"),
    port_json=lambda rec: json.dumps(rec.to_dict(), indent=2),
)
