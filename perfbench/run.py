"""The repository benchmark: Figure-1 pricing, validation and analyses.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every timed pass runs in a fresh
worker process (``perfbench/worker.py``) with a cold artifact store and
JIT cache, as a CLI invocation does; passes repeat until ``--seconds``
have gone by (at least two).  Unit latencies are scaled to a fixed
reference host speed, sampled between and during units (see
``_scaled_latencies``).  With ``--trace 0`` the last line of
stdout is a JSON object holding the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the line holds
the per-layer metrics.  Lines before it give host facts, the
simulated-output digest and the deterministic counts.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from layers import CALL_COUNTERS, LAYERS
from workloads import SCALES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: dedicated set-up-only processes per run; every pass process adds one
#: more set-up sample
SETUP_SAMPLES = 5
#: a run must end within 180 s; workers still running at this point
#: after the start are killed (a whole pass takes about 20 s)
DEADLINE_S = 170

#: the host speed every reported time is scaled to: a host on which one
#: host-speed sample (``worker.host_speed_sample``) takes this long
REFERENCE_S = 1e-3

#: counts that every pass reports and that must repeat exactly
SHARED_COUNTS = ("units", "launches", "traced_launches", "sim_transfers",
                 "sim_transfer_bytes", "store_hits", "store_misses",
                 "jit_hits", "jit_misses", "jit_fallbacks")


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta((n+1)q, (n+1)(1-q))-weighted average of every order
    statistic.  A single order statistic can sit on the edge between
    two groups of units: on ``validate-test`` the 8 slowest of 78 pairs
    (SPMUL and CG under the four directive compilers) start right at
    p90, and the nearest-rank p90 swung by a quarter from seed to seed.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 8  # midpoint rule per rank interval [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        weights.append(sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
                     - log_beta)
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps))))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _scaled_latencies(p: dict) -> list[float]:
    """The pass's unit latencies at the reference host speed.

    A shared host's speed swings by a third within seconds and drifts
    over minutes, so raw times of one pass spread by a quarter from run
    to run.  Each unit is scaled by the mean of the host-speed samples
    taken just before it, while it ran and just after it.
    """
    refs, during = p["reference_s"], p["reference_during_s"]
    scaled = []
    for i, t in enumerate(p["latencies_s"]):
        samples = [refs[i], refs[i + 1], *during[i]]
        scaled.append(t * REFERENCE_S * len(samples) / sum(samples))
    return scaled


def _scaled_setup(result: dict) -> float:
    """A worker's set-up time at the reference host speed.

    Set-up runs before ``numpy`` is imported, so the only sample is the
    one taken just after it.
    """
    return result["setup_s"] * REFERENCE_S / result["setup_reference_s"]


def _host_facts(workload: str, seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "commit": commit,
            "seed": seed, "scale": SCALES[workload]}


def _consistency(passes: list[dict]) -> list[str]:
    """Digest and deterministic counts must repeat across passes."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        if p["digest"] != first["digest"]:
            problems.append("simulated-output digest differs between passes"
                            f" ({first['digest'][:12]} vs "
                            f"{p['digest'][:12]})")
        for key in SHARED_COUNTS:
            if p["counts"][key] != first["counts"][key]:
                problems.append(f"count {key} differs between passes: "
                                f"{first['counts'][key]} vs "
                                f"{p['counts'][key]}")
    traced = [p for p in passes if "self_s" in p]
    for p in traced[1:]:
        if p["counts"] != traced[0]["counts"]:
            problems.append("traced call counts differ between passes")
    return problems


def _end_to_end(untraced: list[dict], setups: list[float],
                attempted: int, failed: int) -> dict:
    scaled = [_scaled_latencies(p) for p in untraced]
    walls = [sum(s) for s in scaled]
    latencies = [t for s in scaled for t in s]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "units_per_s": (statistics.median(
            p["counts"]["units"] / w for p, w in zip(untraced, walls)),
            "1/s"),
        "unit_p50_ms": (_quantile(latencies, 0.5) * 1e3, "ms"),
        "unit_p90_ms": (_quantile(latencies, 0.9) * 1e3, "ms"),
        "launches_per_s": (statistics.median(
            (p["counts"]["launches"] + p["counts"]["traced_launches"])
            / w for p, w in zip(untraced, walls)), "1/s"),
        "peak_rss_mb": (statistics.median(
            p["peak_rss_mb"] for p in untraced), "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    med = statistics.median
    counts = traced[0]["counts"]
    out = {f"{layer}_s": (med(p["self_s"].get(layer, 0.0) for p in traced),
                          "s")
           for layer in LAYERS}
    for name in CALL_COUNTERS:
        out[name] = (counts.get(name, 0), "count")
    describes = counts.get("gpusim.describe_calls", 0)
    distinct = counts["gpusim.describe_distinct"]
    hits, misses = counts["store_hits"], counts["store_misses"]
    named = [sum(p["self_s"].values()) for p in traced]
    out.update({
        "gpusim.describe_distinct": (distinct, "count"),
        # no describe call wastes nothing
        "gpusim.describe_useful_ratio": (
            distinct / describes if describes else 1.0, "ratio"),
        "gpusim.transfer_bytes": (counts["gpusim.transfer_bytes"], "B"),
        "gpusim.jit_hits": (counts["jit_hits"], "count"),
        "gpusim.jit_misses": (counts["jit_misses"], "count"),
        "gpusim.jit_fallbacks": (counts["jit_fallbacks"], "count"),
        "models.store_hits": (hits, "count"),
        "models.store_misses": (misses, "count"),
        "models.store_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "harness.other_s": (med(p["wall_s"] - n
                                for p, n in zip(traced, named)), "s"),
        "trace.named_share": (med(n / p["wall_s"]
                                  for p, n in zip(traced, named)), "ratio"),
        "trace.overhead_s": (
            med(sum(_scaled_latencies(p)) for p in traced)
            - med(sum(_scaled_latencies(p)) for p in untraced), "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time one benchmark workload and check its outputs.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    facts = _host_facts(args.workload, args.seed)
    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_scaled_setup(_worker(["--setup-only"], env, deadline))
                  for _ in range(SETUP_SAMPLES)]
        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        while True:
            enough = (len(untraced) >= 1 and len(traced) >= 1 if args.trace
                      else len(untraced) >= 2)
            if enough and time.monotonic() - start >= args.seconds:
                break
            trace_next = bool(args.trace) and len(traced) < len(untraced)
            result = _worker(pass_args + (["--trace"] if trace_next else []),
                             env, deadline)
            (traced if trace_next else untraced).append(result)
            if not trace_next:
                setups.append(_scaled_setup(result))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["counts"]["units"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = _consistency(passes)
    correct = not failures and not problems

    print("host: " + json.dumps(facts, sort_keys=True))
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for p in group:
            print(f"pass {kind}: wall {p['wall_s']:.3f} s, "
                  f"{sum(_scaled_latencies(p)):.3f} s at reference speed "
                  f"(host-speed sample median "
                  f"{statistics.median(p['reference_s']) * 1e3:.3f} ms), "
                  f"{p['counts']['units']} units, "
                  f"{len(p['failures'])} failed, "
                  f"peak RSS {p['peak_rss_mb']:.0f} MB")
    print(f"digest: {passes[0]['digest']}")
    print("counts: " + json.dumps(
        {k: passes[0]['counts'][k] for k in SHARED_COUNTS}, sort_keys=True))
    print(f"unit latency samples: "
          f"{sum(len(p['latencies_s']) for p in untraced)} (untraced)")
    print(f"error_rate: {len(failures)}/{attempted}")
    for line in failures[:20] + problems:
        print(f"FAIL {line}")

    if args.trace:
        metrics = _per_layer(untraced, traced)
    else:
        metrics = _end_to_end(untraced, setups, attempted, len(failures))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
