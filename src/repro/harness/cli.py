"""Command-line entry point: ``repro-harness`` / ``python -m repro.harness``.

Subcommands regenerate the paper's evaluation artifacts:

* ``table1`` — the feature matrix;
* ``table2`` — coverage + code-size increase over the 13-benchmark suite;
* ``figure1`` — per-benchmark speedups for every model (text bars/CSV);
* ``run BENCH MODEL`` — one functional run with validation and a trace;
* ``lint``, ``xfer``, ``locality``, ``tv``, ``translate`` — the five
  static analyses (:mod:`repro.analysis`): the directive verifier, the
  transfer coherence analysis, the cache-locality suite, the
  translation validator, and the cross-model translator.  Each is
  generated from its :class:`~repro.analysis.Analysis` spec with one
  flag set: ``BENCH`` plus the spec's targets (``MODEL``, or ``SRC DST``
  for ``translate``) for one port, or ``--all`` for the per-model
  (per-pair) rollup; ``--variant``; ``--scale`` where the analysis
  reads a workload (``xfer``, ``locality``); ``--json`` or ``--format``
  (``lint`` adds ``sarif`` and ``github``); ``--fail-on``; ``--jobs``;
* ``profile [BENCH MODEL]`` — per-kernel simulated counters with
  bottleneck attribution (``--all`` sweeps the Figure-1 matrix;
  ``--jsonl``/``--chrome`` write the trace artifacts);
* ``passes [BENCH MODEL]`` — the pass-pipeline report: per-pass state
  diffs and, for untranslated regions, which pass rejected them
  (``--all`` for the one-line-per-region suite smoke);
* ``baseline record|check`` — the perf-regression gate over the
  committed baseline (``check`` exits 2 on regression/drift);
* ``selfprof [BENCH MODEL]`` — the harness *self*-profile: wall-clock
  attribution per phase (compile/analyze/execute/simulate/merge) over
  the span tree, worker utilization, ``--flamegraph`` collapsed-stack
  export, ``--metrics``/``--openmetrics`` registry export
  (``--deterministic`` restricts to the jobs-invariant families);
* ``loadgen`` — replay a seeded synthetic compile/run/exec request
  stream against a cold then warm ArtifactStore, reporting throughput,
  exact p50/p99 latency, and store hit rates (``--smoke`` gates CI on
  a nonzero warm hit rate);
* ``all`` — everything (the EXPERIMENTS.md payload); ``--json`` emits
  the machine-readable rollup, ``--journal`` checkpoints the sharded
  sweep for resume.

Every sweep subcommand takes ``--jobs N`` (default 1 = the serial
path).  ``N > 1`` shards the (benchmark, model) work-unit graph across
worker processes (:mod:`repro.harness.parallel`) and merges results in
registry order — output is independent of the worker count.

Executing subcommands (``run``/``validate``/``profile``/``selfprof``/
``all``) take ``--jit {on,off,verify}`` selecting the kernel execution
engine (:mod:`repro.gpusim.jit`): the JIT tier when the body is
lowerable, interpreter-only, or both-with-byte-identity-checks.
Results are engine-independent by construction — ``verify`` proves it
per launch.

Exit-code contract, the same for every subcommand it applies to
(pinned by ``tests/test_cli_errors.py``):

* **0** — clean;
* **1** — a gate tripped: ``--fail-on`` found a finding at or above
  the threshold, ``run``/``validate`` failed validation,
  ``selfprof --min-coverage`` or ``loadgen --smoke`` fell short;
* **2** — a usage error (unknown benchmark / model / variant, missing
  positionals, ``--jobs`` below 1, contradictory flags) or a soundness
  error, whatever ``--fail-on`` says: a REFUTED certificate (``tv``,
  ``translate``, lint's ``TV001``) or a COH stale-read error (``xfer``,
  lint's ``COH001``/``COH002``).
  ``baseline check`` also exits 2 on a regression.

Usage errors are raised as :class:`UsageError` anywhere in a
subcommand and mapped to a stderr message plus exit 2 in exactly one
place (:func:`main`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from repro.analysis import Analysis, analyses, run_suite
from repro.benchmarks.base import ALL_MODELS
from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
from repro.harness.compare import compare_models
from repro.harness.report import (render_figure1, render_figure1_csv,
                                  render_table2)
from repro.harness.runner import (run_coverage_and_codesize, run_speedups)
from repro.harness.validate import validate_suite
from repro.models.features import render_table1


class UsageError(Exception):
    """A CLI usage error: message goes to stderr, process exits 2."""


#: models `run`/`compare` accept: the Figure-1 set plus the post-paper
#: OpenMP-Target compiler (runnable and validated, outside Figure 1)
RUNNABLE_MODELS: tuple[str, ...] = ALL_MODELS + ("OpenMP-Target",)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1 = "
                             "the serial path; results are identical for "
                             "any value)")


def _add_jit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jit", default=None, dest="jit",
                        choices=("on", "off", "verify"),
                        help="kernel execution engine: 'on' JIT-compiles "
                             "lowerable bodies to vectorized numpy "
                             "(the default), 'off' always interprets, "
                             "'verify' runs both and fails unless every "
                             "launch agrees byte-for-byte (also settable "
                             "via REPRO_JIT)")


def _apply_jit(args: argparse.Namespace) -> str:
    """Install the requested JIT mode process-wide and return it.

    Both the module knob and ``REPRO_JIT`` are set so worker processes
    (fork *or* spawn) inherit the mode; :class:`SweepContext` carries it
    explicitly as well for journal replays.
    """
    import os

    from repro.gpusim import jit as jit_mod

    mode = getattr(args, "jit", None)
    if mode is not None:
        jit_mod.set_mode(mode)
        os.environ["REPRO_JIT"] = mode
    return jit_mod.current_mode()


def _jit_fallback_notes(registry) -> list[str]:
    """One lint-style line per (kernel, reason) the JIT declined."""
    notes = []
    for labels, series in registry.series_of("jit_fallback"):
        lab = dict(labels)
        notes.append(f"note: jit-fallback: kernel "
                     f"{lab.get('kernel', '?')!r} interpreted "
                     f"{int(series.value)} launch(es) "
                     f"[{lab.get('reason', 'unknown')}]")
    return notes


def _require_port_args(cmd: str, args: argparse.Namespace,
                       targets: tuple[str, ...] = ("model",)) -> None:
    """BENCH and the targets are mandatory for port subcommands without
    --all."""
    if getattr(args, "all_ports", False):
        return
    names = ("benchmark", *targets)
    if not all(getattr(args, name) for name in names):
        metavars = " ".join("BENCH" if name == "benchmark" else name.upper()
                            for name in names)
        raise UsageError(
            f"{cmd}: {metavars} are required unless --all is given")


def _resolve_port(cmd: str, fn, *fn_args, **fn_kwargs):
    """Run a port-resolving callable, mapping the KeyErrors the model /
    benchmark / variant lookups raise (argparse cannot pre-validate
    aliases or per-benchmark variants) to :class:`UsageError`."""
    try:
        return fn(*fn_args, **fn_kwargs)
    except KeyError as exc:
        raise UsageError(f"{cmd}: {exc.args[0]}") from exc


#: help for the positionals an analysis subcommand takes
_TARGET_HELP = {"benchmark": "benchmark name (e.g. jacobi)",
                "model": "model name or alias (e.g. openacc)",
                "src": "source model name or alias (e.g. openacc)",
                "dst": "target model name or alias (e.g. omp-target)"}


class _FormatFlag(argparse.Action):
    """``--format X`` and its ``--json`` spelling set one option; giving
    it twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.format is not None:
            raise UsageError(f"{parser.prog}: --format and --json are "
                             "mutually exclusive")
        namespace.format = self.const or values


def _add_analysis(sub, spec: Analysis) -> None:
    """The subcommand of one analysis, generated from its spec."""
    p = sub.add_parser(spec.name, help=spec.help)
    for name in ("benchmark", *spec.target_args):
        p.add_argument(name, nargs="?", default=None,
                       help=_TARGET_HELP[name])
    p.add_argument("--variant", default=None,
                   help="port variant (default: the model's best)")
    if spec.scaled:
        p.add_argument("--scale", default="test", choices=("test", "paper"),
                       help="workload scale the analysis reads")
    p.add_argument("--all", action="store_true", dest="all_ports",
                   help="analyze every benchmark x target and print the "
                        "rollup table")
    p.add_argument("--json", action=_FormatFlag, nargs=0, const="json",
                   dest="format", help="same as --format json")
    p.add_argument("--format", action=_FormatFlag, default=None,
                   choices=("text", "json", *spec.formats),
                   help="output format (default text)")
    p.add_argument("--fail-on", dest="fail_on", default=None,
                   choices=("error", "warning", "info"),
                   help="exit 1 if any finding is at/above this severity")
    _add_jobs(p)
    p.set_defaults(func=functools.partial(_cmd_analysis, spec))


def _print_rows(title: str, rows, stream) -> None:
    print(f"\n{title}:", file=stream)
    for where, rule, severity, message in rows:
        print(f"  {where}: {rule} {severity} {message}", file=stream)


def _cmd_analysis(spec: Analysis, args: argparse.Namespace) -> int:
    """Every analysis subcommand: render, then the soundness check
    (exit 2), then the ``--fail-on`` gate (exit 1)."""
    fmt = args.format or "text"
    scale = getattr(args, "scale", "test")
    if args.all_ports:
        records = run_suite(spec, scale=scale, jobs=args.jobs)
    else:
        _require_port_args(spec.name, args, spec.target_args)
        target = [getattr(args, name) for name in spec.target_args]
        records = [_resolve_port(spec.name, spec.run, args.benchmark,
                                 *target, variant=args.variant,
                                 scale=scale)]
    if fmt in spec.formats:
        out = spec.formats[fmt](records)
    elif fmt == "json":
        out = (json.dumps([rec.to_dict() for rec in records], indent=2)
               if args.all_ports else spec.port_json(records[0]))
    else:
        out = (spec.rollup(records) if args.all_ports
               else spec.render_port(records[0]))
    if out:
        print(out)
    # machine-readable stdout stays parseable: details go to stderr
    stream = sys.stdout if fmt == "text" else sys.stderr
    unsound = [row for rec in records for row in spec.unsound(rec)]
    if unsound:
        _print_rows("Soundness errors", unsound, stream)
        return 2
    if args.fail_on is None:
        return 0
    order = {"info": 0, "warning": 1, "error": 2}
    over = [row for rec in records for row in spec.findings(rec)
            if order[row[2]] >= order[args.fail_on]]
    if over:
        _print_rows(f"Findings at or above {args.fail_on}", over, stream)
    return 1 if over else 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def _parallel_evaluation(jobs: int, *, scale: str = "paper",
                         coverage: bool = False, speedups: bool = False,
                         profiles: bool = False,
                         journal: str | None = None,
                         jit: str | None = None):
    """One sharded sweep covering whatever the subcommand needs.

    Returns ``(EvaluationResults, run_profiles, SweepResult)``; a
    fused unit graph means each port is lowered exactly once even when
    coverage, speedups, and profiles are all requested.
    """
    from repro.harness.parallel import (SweepContext, evaluation_units,
                                        merge_evaluation, run_sweep)

    units = evaluation_units(coverage=coverage, speedups=speedups,
                             profiles=profiles)
    sweep = run_sweep(units, jobs=jobs, journal=journal,
                      context=SweepContext(scale=scale, jit=jit))
    results, run_profiles = merge_evaluation(sweep.outcomes)
    return results, run_profiles, sweep


def _render_table2_text(results) -> None:
    print(render_table2(results))
    failures = []
    for model, cov in results.coverage.items():
        for prog, region, feature in cov.failures:
            failures.append(f"  {model}: {prog}/{region}: {feature}")
    if failures:
        print("\nUntranslated regions:")
        print("\n".join(failures))


def _cmd_table2(args: argparse.Namespace) -> int:
    if args.jobs > 1:
        results, _, _ = _parallel_evaluation(args.jobs, coverage=True)
    else:
        results = run_coverage_and_codesize()
    _render_table2_text(results)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    if args.jobs > 1:
        results, _, _ = _parallel_evaluation(args.jobs, scale=args.scale,
                                             speedups=True)
        speedups = results.speedups
    else:
        speedups = run_speedups(scale=args.scale)
    if args.csv:
        print(render_figure1_csv(speedups))
    else:
        print(render_figure1(speedups))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry, collecting

    mode = _apply_jit(args)
    bench = _resolve_port("run", get_benchmark, args.benchmark)
    known = _resolve_port("run", bench.variants, args.model)
    if args.variant != "best" and args.variant not in known:
        raise UsageError(f"run: unknown variant {args.variant!r} for "
                         f"{bench.name}/{args.model}; known: {list(known)}")
    registry = MetricsRegistry()
    with collecting(registry):
        outcome = _resolve_port("run", bench.run, args.model, args.variant,
                                scale=args.scale, execute=True)
    print(outcome.speedup.summary())
    jits = sum(int(s.value) for _, s
               in registry.series_of("jit_launch_hits"))
    interp = sum(int(s.value) for _, s
                 in registry.series_of("executor_interpret_launches"))
    if mode == "verify":
        print(f"engine: jit verify — {interp} launch(es), each checked "
              f"byte-for-byte against the JIT")
    else:
        print(f"engine: jit {mode} — {jits} jit launch(es), "
              f"{interp} interpreted")
    for note in _jit_fallback_notes(registry):
        print(f"  {note}")
    if outcome.validated is not None:
        print(f"validation: {'PASS' if outcome.validated else 'FAIL'}")
        for err in outcome.validation_errors:
            print(f"  {err}")
    print()
    print(outcome.executable.rt.profiler.report())
    for name, result in outcome.compiled.results.items():
        status = "ok" if result.translated else "HOST FALLBACK"
        extras = "; ".join(result.applied)
        print(f"  region {name}: {status}"
              + (f" ({extras})" if extras else ""))
    return 0 if outcome.validated is not False else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    _apply_jit(args)
    names = args.benchmarks or None
    for name in names or ():
        _resolve_port("validate", get_benchmark, name)
    matrix = validate_suite(benchmarks=names,
                            elide_transfers=args.elide_transfers)
    print(matrix.render())
    return 0 if matrix.passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.benchmark)
    print(compare_models(bench, args.model_a, args.model_b,
                         variant=args.variant, scale=args.scale))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.gpusim.profiler import chrome_trace_document
    from repro.obs.profile import (profile_run, profile_suite,
                                   render_run_profile,
                                   render_suite_profiles)
    from repro.obs.tracer import Tracer, make_manifest, tracing
    from repro.gpusim.device import TESLA_M2090
    from repro.gpusim.timing import TimingConfig

    _require_port_args("profile", args)
    _apply_jit(args)
    if args.all_ports:
        profiles, tracer = profile_suite(scale=args.scale,
                                         jobs=args.jobs)
    else:
        tracer = Tracer(manifest=make_manifest(
            TESLA_M2090, TimingConfig(), args.scale))
        with tracing(tracer):
            profiles = [_resolve_port("profile", profile_run,
                                      args.benchmark, args.model,
                                      variant=args.variant,
                                      scale=args.scale)]
    if args.json:
        print(json.dumps([p.to_dict() for p in profiles], indent=2))
    elif args.all_ports:
        print(render_suite_profiles(profiles))
    else:
        print(render_run_profile(profiles[0]))
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        print(f"wrote {len(tracer.spans)} spans to {args.jsonl}",
              file=sys.stderr)
    if args.chrome:
        with open(args.chrome, "w") as handle:
            json.dump(chrome_trace_document(
                [], extra_events=tracer.chrome_events(pid=1000)), handle)
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.obs.baseline import (DEFAULT_BASELINE_PATH, check_baseline,
                                    record_baseline)

    path = args.baseline or DEFAULT_BASELINE_PATH
    benchmarks = args.benchmarks or None
    jobs = args.jobs
    try:
        if args.action == "record":
            from repro.obs.baseline import DEFAULT_TOLERANCE
            doc = record_baseline(path, benchmarks=benchmarks,
                                  scale=args.scale,
                                  tolerance=args.tolerance
                                  if args.tolerance is not None
                                  else DEFAULT_TOLERANCE,
                                  jobs=jobs)
            n = sum(len(m) for m in doc["entries"].values())
            print(f"recorded {n} entries to {path} "
                  f"(config {doc['manifest']['config_hash']})")
            return 0
        diff = check_baseline(path, tolerance=args.tolerance, jobs=jobs)
        print(diff.render())
        return 2 if diff.failed else 0
    except FileNotFoundError:
        raise UsageError(f"baseline: no baseline at {path!r} — run "
                         f"'repro-harness baseline record' first") from None
    except KeyError as exc:
        raise UsageError(f"baseline: {exc.args[0]}") from exc


def _cmd_passes(args: argparse.Namespace) -> int:
    from repro.models import DIRECTIVE_MODELS
    from repro.models.cache import compile_port
    from repro.pipeline import render_pass_report, render_pass_summary

    if args.all_ports:
        # the suite smoke: one line per region, every Table-II port
        rejected = 0
        for bench_name in BENCHMARK_ORDER:
            for model in DIRECTIVE_MODELS:
                _, compiled, variant = compile_port(bench_name, model)
                print(f"{compiled.program.name} / {model} ({variant}): "
                      f"{compiled.regions_translated}/"
                      f"{compiled.regions_total} regions")
                print(render_pass_summary(compiled))
                rejected += (compiled.regions_total
                             - compiled.regions_translated)
        print(f"\n{rejected} region(s) rejected across the suite "
              "(expected: Table II's uncovered regions)")
        return 0
    _require_port_args("passes", args)
    _, compiled, _ = _resolve_port("passes", compile_port, args.benchmark,
                                   args.model, args.variant)
    print(render_pass_report(compiled))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    import time

    from repro.benchmarks.registry import iter_suite
    from repro.harness.report import render_bottleneck_section
    from repro.harness.rollup import build_rollup, render_rollup, timing_meta
    from repro.models.cache import cache_stats
    from repro.obs.merge import absorb_payloads
    from repro.obs.profile import profile_suite
    from repro.obs.selfprof import attribute_spans
    from repro.obs.tracer import Tracer, tracing

    jobs = args.jobs
    jit_mode = _apply_jit(args)
    sweep = None
    tracer = Tracer()
    t_wall = time.perf_counter()
    if jobs > 1:
        with tracing(tracer):   # captures the parent-side sweep.merge span
            results, profiles, sweep = _parallel_evaluation(
                jobs, scale=args.scale, coverage=True, speedups=True,
                profiles=True, journal=args.journal,
                jit=getattr(args, "jit", None))
            absorb_payloads(tracer, sweep.span_payloads(),
                            lanes=[o.worker for o in sweep.outcomes])
    else:
        if args.journal:
            raise UsageError("all: --journal requires --jobs > 1 "
                             "(the serial path does not checkpoint)")
        benches = list(iter_suite())
        with tracing(tracer):
            results = run_coverage_and_codesize(benches)
            results.speedups = run_speedups(benches, scale=args.scale)
            profiles, prof_tracer = profile_suite(scale=args.scale)
        # profile_suite traces into its own tracer; pull its spans in so
        # the attribution covers the profile phase too
        tracer.absorb_spans([sp.to_dict() for sp in prof_tracer.spans])
    attribution = attribute_spans(tracer.spans,
                                  wall_s=time.perf_counter() - t_wall)

    if args.json:
        meta = {"jobs": jobs, "scale": args.scale, "jit": jit_mode,
                "generated_unix": time.time(),
                "timing": timing_meta(
                    attribution,
                    sweep.stats if sweep is not None else None)}
        if sweep is not None:
            meta["sweep"] = sweep.stats.to_dict()
        else:
            meta["store"] = cache_stats()
        print(render_rollup(build_rollup(results, profiles, meta)))
        return 0

    print("Table I")
    print(render_table1())
    print()
    _render_table2_text(results)
    print()
    print(render_figure1(results.speedups))
    print()
    print(render_bottleneck_section(profiles))
    print()
    if sweep is not None:
        print(sweep.stats.store_summary())
        print(sweep.stats.shard_summary())
    else:
        stats = cache_stats()
        print(f"artifact store: {stats['entries']} compilations for "
              f"{stats['hits'] + stats['misses']} requests "
              f"({stats['hits']} hits, {stats['misses']} misses)")
    phases = attribution.phase_seconds()
    breakdown = ", ".join(f"{name} {seconds * 1e3:.0f} ms"
                          for name, seconds in sorted(
                              phases.items(), key=lambda kv: -kv[1])
                          if seconds > 0)
    print(f"self-profile: wall {attribution.wall_s * 1e3:.0f} ms — "
          f"{breakdown} (details: repro-harness selfprof --all)")
    return 0


def _selfprof_pair_units(benchmark: str, model: str):
    """The single-pair selfprof workload: every applicable unit kind.

    (This mixes kinds over one pair, so it exercises every phase; the
    jobs-invariant metrics guarantee applies to ``--all``, whose
    stratified workload keeps the compile-once partition.)
    """
    from repro.harness.parallel import WorkUnit
    from repro.harness.runner import FIGURE1_MODELS, TABLE2_MODELS
    from repro.models import resolve_model

    model = _resolve_port("selfprof", resolve_model, model)
    _resolve_port("selfprof", get_benchmark, benchmark)
    directive = model in TABLE2_MODELS
    fig1 = model in FIGURE1_MODELS
    flags = (("coverage",) if directive else ()) + \
        (("speedups", "profile") if fig1 else ())
    units = [WorkUnit(kind="eval", bench=benchmark, model=model,
                      flags=flags, seq=0)]
    kinds = ["tv", "locality"] + (["lint", "xfer"] if directive else []) \
        + (["exec"] if fig1 else [])
    for kind in kinds:
        units.append(WorkUnit(kind=kind, bench=benchmark, model=model,
                              seq=len(units)))
    return units


def _cmd_selfprof(args: argparse.Namespace) -> int:
    from repro.harness.parallel import (SweepContext, run_sweep,
                                        selfprof_units)
    from repro.obs.flamegraph import write_collapsed
    from repro.obs.merge import absorb_payloads
    from repro.obs.metrics import (MetricsRegistry, collecting,
                                   render_metrics_json)
    from repro.obs.selfprof import attribute_spans, render_attribution
    from repro.obs.tracer import Tracer, tracing

    jobs = args.jobs
    _apply_jit(args)
    _require_port_args("selfprof", args)
    if args.all_ports:
        units = selfprof_units()
    else:
        units = _selfprof_pair_units(args.benchmark, args.model)

    registry = MetricsRegistry()
    tracer = Tracer()
    with tracing(tracer), collecting(registry):
        with tracer.span("selfprof.suite", "harness", scale=args.scale,
                         jobs=jobs):
            sweep = run_sweep(units, jobs=jobs,
                              context=SweepContext(
                                  scale=args.scale,
                                  jit=getattr(args, "jit", None)))
            absorb_payloads(tracer, sweep.span_payloads(),
                            parent_id=tracer.spans[0].span_id,
                            lanes=[o.worker for o in sweep.outcomes])

    attribution = attribute_spans(tracer.spans)
    stats = sweep.stats
    if args.flamegraph:
        rows = write_collapsed(args.flamegraph, tracer.spans)
        print(f"wrote {rows} collapsed stacks to {args.flamegraph}",
              file=sys.stderr)
    if args.metrics:
        doc = registry.to_dict(deterministic_only=args.deterministic)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(render_metrics_json(doc) + "\n")
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_openmetrics())

    fallback_notes = _jit_fallback_notes(registry)
    if args.json:
        print(json.dumps({"selfprof": attribution.to_dict(),
                          "sweep": stats.to_dict(),
                          "jit_fallbacks": [
                              {"kernel": dict(labels).get("kernel"),
                               "reason": dict(labels).get("reason"),
                               "launches": int(series.value)}
                              for labels, series
                              in registry.series_of("jit_fallback")]},
                         indent=2, sort_keys=True))
    else:
        worker_stats = {
            "workers": stats.jobs,
            "units": f"{stats.units_total} "
                     f"({stats.units_executed} executed)",
            "utilization": f"{stats.utilization():.1%}",
            "busy / wait": f"{stats.busy_s * 1e3:.0f} ms / "
                           f"{stats.wait_s * 1e3:.0f} ms",
        }
        print(render_attribution(attribution, top=args.top,
                                 worker_stats=worker_stats))
        for note in fallback_notes:
            print(note)
    if args.min_coverage is not None \
            and attribution.coverage < args.min_coverage:
        print(f"selfprof: named-phase coverage "
              f"{attribution.coverage:.1%} is below the required "
              f"{args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.harness.loadgen import (DEFAULT_MIX, MixError, parse_mix,
                                       run_loadgen)
    from repro.obs.metrics import MetricsRegistry, collecting

    if args.requests < 1:
        raise UsageError(f"loadgen: --requests must be >= 1 "
                         f"(got {args.requests})")
    mix = args.mix or DEFAULT_MIX
    try:
        parse_mix(mix)
    except MixError as exc:
        raise UsageError(f"loadgen: {exc}") from exc

    registry = MetricsRegistry()
    with collecting(registry):
        report = run_loadgen(requests=args.requests, seed=args.seed,
                             mix=mix, scale=args.scale)
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(registry.to_openmetrics())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.smoke:
        problems = report.smoke_failures()
        if problems:
            for problem in problems:
                print(f"loadgen smoke: {problem}", file=sys.stderr)
            return 1
        print("loadgen smoke: ok (warm hit rate "
              f"{report.warm.hit_rate:.1%})", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figure of Lee & Vetter, "
                    "SC'12 (directive-based GPU model evaluation).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="feature matrix").set_defaults(
        func=_cmd_table1)
    p_t2 = sub.add_parser("table2", help="coverage and code-size")
    _add_jobs(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_fig = sub.add_parser("figure1", help="speedup sweep")
    p_fig.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_fig.add_argument("--csv", action="store_true")
    _add_jobs(p_fig)
    p_fig.set_defaults(func=_cmd_figure1)

    p_run = sub.add_parser("run", help="run one benchmark functionally")
    p_run.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_run.add_argument("model", choices=RUNNABLE_MODELS)
    p_run.add_argument("--variant", default="best")
    p_run.add_argument("--scale", default="test",
                       choices=("test", "paper"))
    # a single run is one work unit; --jobs is accepted (and validated)
    # for interface uniformity with the sweep subcommands
    _add_jobs(p_run)
    _add_jit(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser(
        "validate", help="functional validation sweep (test scale)")
    p_val.add_argument("benchmarks", nargs="*", metavar="BENCH")
    p_val.add_argument("--elide-transfers", action="store_true",
                       dest="elide_transfers",
                       help="validate the analysis-guided transfer-elision "
                            "flavour of every port")
    _add_jit(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_cmp = sub.add_parser("compare",
                           help="explain one model-vs-model gap")
    p_cmp.add_argument("benchmark", choices=BENCHMARK_ORDER)
    p_cmp.add_argument("model_a", choices=RUNNABLE_MODELS)
    p_cmp.add_argument("model_b", choices=RUNNABLE_MODELS)
    p_cmp.add_argument("--variant", default="best")
    p_cmp.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_cmp.set_defaults(func=_cmd_compare)

    for spec in analyses().values():
        _add_analysis(sub, spec)

    p_prof = sub.add_parser(
        "profile", help="per-kernel simulated counters and bottleneck "
                        "attribution for one port or --all")
    p_prof.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark name (e.g. jacobi)")
    p_prof.add_argument("model", nargs="?", default=None,
                        help="model name or alias (e.g. openacc)")
    p_prof.add_argument("--variant", default=None,
                        help="port variant (default: the model's best)")
    p_prof.add_argument("--scale", default="paper",
                        choices=("test", "paper"))
    p_prof.add_argument("--all", action="store_true", dest="all_ports",
                        help="profile every benchmark x Figure-1 model pair")
    p_prof.add_argument("--json", action="store_true",
                        help="machine-readable profiles")
    p_prof.add_argument("--jsonl", default=None, metavar="PATH",
                        help="write the span trace as JSONL")
    p_prof.add_argument("--chrome", default=None, metavar="PATH",
                        help="write a chrome://tracing document")
    _add_jobs(p_prof)
    _add_jit(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_sp = sub.add_parser(
        "selfprof", help="harness self-profile: wall-clock attribution "
                         "per phase, flamegraph + metrics export")
    p_sp.add_argument("benchmark", nargs="?", default=None,
                      help="benchmark name (e.g. jacobi)")
    p_sp.add_argument("model", nargs="?", default=None,
                      help="model name or alias (e.g. openacc)")
    p_sp.add_argument("--all", action="store_true", dest="all_ports",
                      help="profile the stratified full-suite workload")
    p_sp.add_argument("--scale", default="test",
                      choices=("test", "paper"))
    p_sp.add_argument("--json", action="store_true",
                      help="machine-readable attribution + sweep stats")
    p_sp.add_argument("--top", type=int, default=8, metavar="N",
                      help="detail rows per phase in the text report")
    p_sp.add_argument("--flamegraph", default=None, metavar="PATH",
                      help="write collapsed stacks (flamegraph.pl / "
                           "speedscope folded format)")
    p_sp.add_argument("--metrics", default=None, metavar="PATH",
                      help="write the metrics registry as canonical JSON")
    p_sp.add_argument("--deterministic", action="store_true",
                      help="restrict --metrics to deterministic families "
                           "(byte-identical for any --jobs)")
    p_sp.add_argument("--openmetrics", default=None, metavar="PATH",
                      help="write OpenMetrics/Prometheus text exposition")
    p_sp.add_argument("--min-coverage", type=float, default=None,
                      metavar="FRAC",
                      help="exit 1 if named-phase coverage falls below "
                           "FRAC (e.g. 0.95)")
    _add_jobs(p_sp)
    _add_jit(p_sp)
    p_sp.set_defaults(func=_cmd_selfprof)

    p_lg = sub.add_parser(
        "loadgen", help="replay a seeded synthetic request stream cold "
                        "vs warm; report p50/p99 latency + throughput")
    p_lg.add_argument("--requests", type=int, default=40, metavar="N",
                      help="requests per phase (default 40)")
    p_lg.add_argument("--seed", type=int, default=0,
                      help="stream seed (the stream is a pure function "
                           "of it)")
    p_lg.add_argument("--mix", default=None,
                      help="request mix, e.g. compile=6,run=3,exec=1")
    p_lg.add_argument("--scale", default="test",
                      choices=("test", "paper"))
    p_lg.add_argument("--json", action="store_true",
                      help="machine-readable report")
    p_lg.add_argument("--openmetrics", default=None, metavar="PATH",
                      help="write OpenMetrics/Prometheus text exposition")
    p_lg.add_argument("--smoke", action="store_true",
                      help="CI gate: exit 1 unless the warm phase hit "
                           "the artifact store")
    _add_jobs(p_lg)
    p_lg.set_defaults(func=_cmd_loadgen)

    p_pass = sub.add_parser(
        "passes", help="pass-pipeline report: per-pass state diffs and "
                       "rejection attribution for one port or --all")
    p_pass.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark name (e.g. jacobi)")
    p_pass.add_argument("model", nargs="?", default=None,
                        help="model name or alias (e.g. openacc)")
    p_pass.add_argument("--variant", default=None,
                        help="port variant (default: the model's best)")
    p_pass.add_argument("--all", action="store_true", dest="all_ports",
                        help="one summary line per region for every "
                             "benchmark x model pair")
    p_pass.set_defaults(func=_cmd_passes)

    p_base = sub.add_parser(
        "baseline", help="record or check the perf-regression baseline")
    p_base.add_argument("action", choices=("record", "check"))
    p_base.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file (default: "
                             "benchmarks/baselines/figure1-paper.json)")
    p_base.add_argument("--scale", default="paper",
                        choices=("test", "paper"),
                        help="workload scale for 'record'")
    p_base.add_argument("--benchmarks", nargs="*", default=None,
                        metavar="BENCH",
                        help="restrict 'record' to these benchmarks")
    p_base.add_argument("--tolerance", type=float, default=None,
                        help="relative tolerance (default: the baseline's "
                             "own, 2%%)")
    _add_jobs(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_all = sub.add_parser("all", help="everything")
    p_all.add_argument("--scale", default="paper",
                       choices=("test", "paper"))
    p_all.add_argument("--json", action="store_true",
                       help="emit the machine-readable rollup (the "
                            "'results' section is byte-identical for "
                            "any --jobs value)")
    p_all.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint/resume journal for the sharded "
                            "sweep (requires --jobs > 1); an interrupted "
                            "sweep restarts only the missing work units")
    _add_jobs(p_all)
    _add_jit(p_all)
    p_all.set_defaults(func=_cmd_all)

    try:
        args = parser.parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be >= 1 (got {args.jobs})")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
