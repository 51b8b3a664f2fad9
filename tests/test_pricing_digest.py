"""Zero-tolerance pin of the static pricing walkers.

``summarize_accesses`` and ``body_work`` (and the plans behind them)
feed every simulated time in the repository.  This pins their outputs
bit for bit on the whole suite:

* every :class:`~repro.gpusim.kernel.KernelDescriptor` priced by a
  timing-only, test-scale run of every (benchmark, model) best variant:
  its references with ``repr`` of their weights, flops, divergence and
  total threads, hashed per (benchmark, model);
* every benchmark's serial-CPU time at test and paper scale.

The committed ``tests/data/pricing_digest.json`` is the reference.  It
changes only with an intended change to the pricing model; regenerate
it from the repository root with::

    PYTHONPATH=src python tests/test_pricing_digest.py > tests/data/pricing_digest.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

DIGEST_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "pricing_digest.json")


def _descriptor_row(desc) -> list:
    return [desc.name, desc.total_threads, repr(desc.flops_per_thread),
            repr(desc.divergence),
            [[ref.array, ref.pattern.value, ref.stride, ref.is_store,
              ref.read_only_uniform, repr(weight)]
             for ref, weight in desc.access.refs]]


def pricing_digest() -> dict:
    """The digest of the suite's descriptors and CPU times."""
    from repro.benchmarks.base import ALL_MODELS
    from repro.benchmarks.registry import BENCHMARK_ORDER, get_benchmark
    from repro.gpusim.kernel import Kernel
    from repro.models.cache import compile_port

    rows: list[list] = []
    describe = Kernel.describe

    def recording(kernel, bindings, array_extents):
        desc = describe(kernel, bindings, array_extents)
        rows.append(_descriptor_row(desc))
        return desc

    descriptors: dict[str, dict] = {}
    cpu_time: dict[str, dict] = {}
    Kernel.describe = recording
    try:
        for name in BENCHMARK_ORDER:
            bench = get_benchmark(name)
            for model in ALL_MODELS + ("OpenMP-Target",):
                rows.clear()
                _, compiled, _ = compile_port(name, model, "best")
                bench.run(model, "best", scale="test", execute=False,
                          validate=False, compiled=compiled)
                blob = json.dumps(rows, separators=(",", ":")).encode()
                descriptors[f"{name}/{model}"] = {
                    "launches": len(rows),
                    "sha256": hashlib.sha256(blob).hexdigest()}
    finally:
        Kernel.describe = describe
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        cpu_time[name] = {scale: repr(bench.cpu_time(bench.workload(scale)))
                          for scale in ("test", "paper")}
    return {"descriptors": descriptors, "cpu_time": cpu_time}


def test_pricing_digest_is_bit_identical():
    with open(DIGEST_PATH) as fh:
        expected = json.load(fh)
    got = pricing_digest()
    for section in ("descriptors", "cpu_time"):
        drift = sorted(key for key in expected[section].keys()
                       | got[section].keys()
                       if expected[section].get(key) != got[section].get(key))
        assert not drift, f"{section} drifted for {drift}"


if __name__ == "__main__":
    json.dump(pricing_digest(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
