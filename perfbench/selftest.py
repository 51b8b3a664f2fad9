"""Fast self-test of the benchmark's tracing wrappers (a few seconds).

    python3 perfbench/selftest.py

Runs one small slice of each workload untraced, then again with every
layer wrapped, in one process.  It fails when the traced slice's
simulated-output digest differs from the untraced one, when a unit's
output check fails, or when a wrapped layer sees no calls on the
workload it belongs to.  The last case catches wrappers patched where
the program never looks, e.g. the abstract ``Benchmark.workload``
instead of each subclass's override, or ``repro.gpusim.timing`` instead
of ``repro.gpusim.runtime``, which binds ``price_kernel`` and
``execute_kernel`` by name.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: (workload, unit-label filter, layers that must see calls on it)
SLICES = (
    ("figure1-paper", lambda label: label == "JACOBI/PGI Accelerator",
     ("benchmarks.workload", "benchmarks.arrays_copy", "cpu.price",
      "gpusim.describe", "gpusim.price_kernel", "gpusim.transfer",
      "models.compile", "harness.run_region")),
    ("validate-test", lambda label: label == "JACOBI/OpenACC",
     ("benchmarks.workload", "benchmarks.reference", "gpusim.execute",
      "gpusim.describe", "models.compile", "harness.run_region")),
    ("analyses-test", lambda label: "/JACOBI" in label,
     ("metrics.table2", "tv.suite", "lint.suite", "dataflow.suite",
      "translate.suite", "locality.trace", "locality.replay",
      "locality.static", "models.compile")),
)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import LAYERS, install_counters, install_layers
    from worker import run_units
    from workloads import make_units

    def units(workload, keep):
        return [u for u in make_units(workload, 0, ROOT) if keep(u.label)]

    problems = []
    covered = set()
    sim = install_counters()
    untraced = {w: run_units(units(w, keep), sim) for w, keep, _ in SLICES}
    clock = install_layers()
    for workload, keep, layers in SLICES:
        before = dict(clock.layer_calls)
        traced = run_units(units(workload, keep), sim, clock)
        for result in (untraced[workload], traced):
            problems += [f"{workload}: {f}" for f in result["failures"]]
        if traced["digest"] != untraced[workload]["digest"]:
            problems.append(f"{workload}: tracing changed the digest")
        for layer in layers:
            if clock.layer_calls[layer] == before.get(layer, 0):
                problems.append(f"{workload}: layer {layer} saw no calls")
        covered.update(layers)
    problems += [f"layer {layer} is checked on no workload"
                 for layer in LAYERS if layer not in covered]

    for line in problems:
        print(f"FAIL {line}")
    print("selftest: " + ("FAILED" if problems else
                          f"ok ({len(covered)} layers on {len(SLICES)} "
                          "workloads)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
