"""One declarative spec per static analysis, and the driver behind them.

The five static analyses — the directive verifier (``lint``), the
transfer coherence analysis (``xfer``), the cache-locality suite
(``locality``), the translation validator (``tv``) and the cross-model
translator (``translate``) — share the shape of the paper's Table II:
run a per-port function over every benchmark × target, keep one record
per port, roll the records up into one row per model (or translation
pair), and gate CI on what they found.  An :class:`Analysis` states
only the parts that differ; everything else is derived from it once:

* :meth:`Analysis.run` — one port, inside the ``analysis.<name>`` span
  with the ``analysis_runs``/``analysis_seconds`` metrics;
* :func:`run_suite` — every benchmark × target in table order, serial
  or sharded across worker processes (:mod:`repro.harness.parallel`),
  with the same records either way;
* the ``repro-harness <name>`` subcommand (:mod:`repro.harness.cli`):
  one flag set, one output contract, one exit-code contract.

Each analysis defines its spec next to its per-port function;
:func:`analyses` is the registry.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.obs import metrics
from repro.obs import tracer as obs

#: one gateable result: ``(where, rule, severity, message)`` with
#: severity one of ``info``/``warning``/``error``
Row = tuple[str, str, str, str]


def _no_rows(record: Any) -> Iterable[Row]:
    return ()


def _json_list(record: Any) -> str:
    return json.dumps([record.to_dict()], indent=2)


@dataclass(frozen=True)
class Analysis:
    """Everything that distinguishes one static analysis from another."""

    name: str
    #: one-line description for ``repro-harness --help``
    help: str
    #: the default targets: model names, or (source, target) model pairs
    targets: tuple
    #: ``port(benchmark, *target, variant=None[, scale=...])`` → one
    #: record with ``to_dict()``
    port: Callable[..., Any]
    #: the per-model (or per-pair) rollup table of a record list
    rollup: Callable[[Sequence[Any]], str]
    #: the human-readable report of one record
    render_port: Callable[[Any], str]
    #: rows the ``--fail-on`` gate weighs (exit 1)
    findings: Callable[[Any], Iterable[Row]] = _no_rows
    #: soundness violations — REFUTED certificates, COH errors (exit 2)
    unsound: Callable[[Any], Iterable[Row]] = _no_rows
    #: the single-port ``--json`` document
    port_json: Callable[[Any], str] = _json_list
    #: output formats beyond text and json: name → records → document
    formats: Mapping[str, Callable[[Sequence[Any]], str]] = \
        field(default_factory=dict)
    #: the target arguments that follow BENCH on the command line
    target_args: tuple[str, ...] = ("model",)
    #: whether ``port`` takes a workload ``scale``
    scaled: bool = False

    def run(self, benchmark: str, *target: str,
            variant: Optional[str] = None, scale: str = "test") -> Any:
        """Analyze one port (``KeyError`` on unknown names)."""
        kwargs: dict[str, Any] = {"variant": variant}
        if self.scaled:
            kwargs["scale"] = scale
        t0 = time.perf_counter()
        with obs.span(f"analysis.{self.name}", "analysis", kind=self.name,
                      benchmark=benchmark, target="/".join(target)):
            record = self.port(benchmark, *target, **kwargs)
        metrics.inc("analysis_runs", labels={"kind": self.name},
                    help="analysis passes executed", deterministic=True)
        metrics.observe("analysis_seconds", time.perf_counter() - t0,
                        labels={"kind": self.name},
                        help="wall-clock per analysis run")
        return record

    def work(self, targets: Optional[Sequence] = None,
             benchmarks: Optional[Sequence[str]] = None,
             ) -> list[tuple[str, ...]]:
        """``(benchmark, *target)`` tuples in table order.

        Benchmark-major over models, skipping models without a port of
        the benchmark; pair-major over translation pairs.
        """
        from repro.benchmarks import BENCHMARK_ORDER, get_benchmark
        from repro.models import resolve_model

        benches = list(BENCHMARK_ORDER if benchmarks is None
                       else benchmarks)
        targets = self.targets if targets is None else targets
        if len(self.target_args) > 1:     # (source, target) pairs
            pairs = [tuple(resolve_model(m) for m in pair)
                     for pair in targets]
            return [(b, *pair) for pair in pairs for b in benches]
        models = [resolve_model(m) for m in targets]
        return [(b, m) for b in benches for m in models
                if get_benchmark(b).variants(m)]


def run_suite(spec: Analysis, targets: Optional[Sequence] = None,
              benchmarks: Optional[Sequence[str]] = None, *,
              scale: str = "test", jobs: int = 1) -> list[Any]:
    """Run ``spec`` over every benchmark × target, in table order.

    ``jobs > 1`` shards the ports across worker processes, one work
    unit each; the records come back merged in the order the serial
    loop produces them.
    """
    work = spec.work(targets, benchmarks)
    if jobs <= 1:
        return [spec.run(*args, scale=scale) for args in work]
    from repro.harness.parallel import SweepContext, WorkUnit, run_sweep

    units = [WorkUnit(kind=spec.name, bench=bench, model=target[0],
                      flags=tuple(target[1:]), seq=seq)
             for seq, (bench, *target) in enumerate(work)]
    sweep = run_sweep(units, jobs=jobs,
                      context=SweepContext(scale=scale, trace=False))
    return sweep.results()


@functools.cache
def analyses() -> dict[str, Analysis]:
    """The registry, in ``repro-harness --help`` order."""
    from repro.dataflow.suite import XFER
    from repro.gpusim.locality import LOCALITY
    from repro.lint.suite import LINT
    from repro.translate.suite import TRANSLATE
    from repro.tv.suite import TV

    return {spec.name: spec for spec in (LINT, XFER, LOCALITY, TV,
                                         TRANSLATE)}
