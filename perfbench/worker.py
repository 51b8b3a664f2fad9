"""One timed pass of one workload, in a fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object on stdout.  Nothing from ``repro`` is imported before the set-up
clock starts, so ``setup_s`` is the time a CLI invocation pays to import
``repro`` and materialise the benchmark registry, with a cold artifact
store and JIT cache.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import signal
import sys
import time

#: runs of the reference work per host-speed sample; the median drops a
#: run that an interrupt lengthened
REFERENCE_REPS = 3
#: while an untraced unit runs, a timer signal takes a host-speed sample
#: this often (about 1 % of the unit's time, which its latency leaves out);
#: the host's speed changes within a second, so samples at a long unit's
#: ends alone mis-scale it
SAMPLE_EVERY_S = 0.25


def _setup() -> float:
    start = time.perf_counter()
    from repro.benchmarks import BENCHMARK_ORDER, get_benchmark
    for name in BENCHMARK_ORDER:
        get_benchmark(name)
    return time.perf_counter() - start


@functools.cache
def _reference_operands():
    import numpy as np

    # 4 MiB each, more than a core's L2 cache holds
    return np.arange(1 << 19, dtype=np.float64), np.empty(1 << 19)


def reference_work() -> int:
    """A fixed piece of pure-Python and numpy work that calls no ``repro``.

    Its time tracks the host's speed: on a shared 2-vCPU host the
    program ran up to 30 % slower in a slow phase, and the speed changed
    within seconds.  ``run.py`` scales each unit's latency by the time
    of this work around and during the unit.  Pure-Python work
    alone slowed by 50 % in those phases and memory-bound numpy work by
    10 %; about half of each comes closest to the program.
    """
    import numpy as np

    table: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    a, out = _reference_operands()
    np.multiply(a, 1.0001, out=out)
    return acc + int(out[1])


def host_speed_sample() -> float:
    """Median time of ``REFERENCE_REPS`` runs of :func:`reference_work`."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class HostSpeed:
    """Host-speed samples taken on demand or by a one-shot timer signal.

    The handler re-arms the timer only after its sample, so samples
    never nest.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.armed = False

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(host_speed_sample())
        self.busy_s += time.perf_counter() - start

    def on_alarm(self, signum, frame) -> None:
        self.sample()
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> tuple[list[float], float]:
        """The samples and the sampling time since the last call."""
        taken = self.samples, self.busy_s
        self.samples, self.busy_s = [], 0.0
        return taken


def run_units(units, sim, clock=None) -> dict:
    """Time and check each unit; digest their outputs.

    ``sim`` is the :class:`layers.SimCounters` the counters feed and
    ``clock`` the :class:`layers.LayerClock` of a traced pass.  A traced
    pass takes no samples during its units, so that no layer's clock
    counts sampling time.
    """
    from repro.gpusim.jit import fallback_log
    from repro.models.cache import STORE

    latencies, failures, during = [], [], []
    speed = HostSpeed()
    # one host-speed sample before the first unit and one after each
    speed.sample()
    references = speed.take()[0]
    totals = [0] * len(sim.FIELDS)
    digest = hashlib.sha256()
    perf = time.perf_counter
    sim.drain()
    previous = signal.signal(signal.SIGALRM, speed.on_alarm)
    try:
        for unit in units:
            if clock is None:
                speed.arm()
            start = perf()
            try:
                ok, material, error = unit.run()
            except Exception as exc:  # a failing unit fails, the pass goes on
                ok, material, error = (False, None,
                                       f"{type(exc).__name__}: {exc}")
            speed.disarm()
            elapsed = perf() - start
            samples, busy = speed.take()
            latencies.append(elapsed - busy)
            during.append(samples)
            if not ok:
                failures.append(f"{unit.label}: {error}")
            sim_counts = sim.drain()
            speed.sample()
            references += speed.take()[0]
            totals = [t + c for t, c in zip(totals, sim_counts)]
            digest.update(unit.label.encode())
            digest.update(json.dumps([material, sim_counts], sort_keys=True,
                                     default=repr).encode())
    finally:
        speed.disarm()
        signal.signal(signal.SIGALRM, previous)
    # the pass's time is its units' time; digesting is left out
    wall = sum(latencies)

    store = STORE.stats()
    sim_totals = dict(zip(sim.FIELDS, totals))
    counts = {
        "units": len(units),
        "launches": sim_totals["launches"],
        "traced_launches": sim_totals["traced_launches"],
        "sim_transfers": sim_totals["transfers"],
        "sim_transfer_bytes": sim_totals["transfer_bytes"],
        "store_hits": store["hits"],
        "store_misses": store["misses"],
        "jit_hits": store["jit_hits"],
        "jit_misses": store["jit_misses"],
        "jit_fallbacks": sum(fallback_log().values()),
    }
    result = {
        "wall_s": wall,
        "latencies_s": latencies,
        "reference_s": references,
        "reference_during_s": during,
        "failures": failures,
        "digest": digest.hexdigest(),
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if clock is not None:
        counts.update(clock.calls)
        counts["gpusim.describe_distinct"] = len(clock.describe_keys)
        counts["gpusim.transfer_bytes"] = clock.transfer_bytes
        result["self_s"] = dict(clock.self_s)
    return result


def _pass(workload: str, seed: int, trace: bool, root: str) -> dict:
    from layers import install_counters, install_layers
    from workloads import make_units

    units = make_units(workload, seed, root)
    sim = install_counters()
    clock = install_layers() if trace else None
    return run_units(units, sim, clock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    out = {"setup_s": _setup()}
    out["setup_reference_s"] = host_speed_sample()
    if not args.setup_only:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out.update(_pass(args.workload, args.seed, args.trace, root))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
