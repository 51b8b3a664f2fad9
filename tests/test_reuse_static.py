"""Golden locality behaviour + static-vs-simulated cross-validation.

Three layers:

* golden tests pin the qualitative locality signatures the paper's
  narrative predicts — JACOBI's stencil is spatially local with a
  per-row working set that fits L1, SPMUL's CSR gather is irregular
  with long reuse intervals and an inexact static bound, HOTSPOT's
  stencil reuse falls through L1 but is captured by L2;
* the agreement gate cross-validates the static analyzer
  (:mod:`repro.ir.analysis.reuse`) against the replay
  (:mod:`repro.gpusim.cache`) on every *exact* suite kernel with a
  non-trivial access stream, within
  :data:`~repro.ir.analysis.reuse.STATIC_AGREEMENT_TOLERANCE`;
* the sharded locality sweep must be byte-identical to the serial one,
  and the ``model_cache_hierarchy`` timing knob must stay outside
  ``config_hash`` at its default so the committed Figure-1 baseline
  remains valid.
"""

import json
import pathlib

import pytest

from repro.analysis import run_suite
from repro.gpusim.locality import LOCALITY, locality_port
from repro.ir.analysis.reuse import STATIC_AGREEMENT_TOLERANCE


@pytest.fixture(scope="module")
def suite_records():
    return run_suite(LOCALITY, jobs=2)


class TestGoldenJacobi:
    @pytest.fixture(scope="class")
    def record(self):
        return locality_port("jacobi", "openacc")

    def test_stencil_is_spatially_local(self, record):
        stencil = next(k for k in record.kernels
                       if "stencil" in k.kernel)
        assert stencil.simulated.exact
        assert stencil.simulated.spatial_locality >= 0.6
        assert stencil.simulated.l1.cache_utilization > 0.9

    def test_row_working_set_fits_l1(self, record):
        stencil = next(k for k in record.kernels
                       if "stencil" in k.kernel)
        ws = {w.loop: w for w in stencil.static.working_sets}
        assert ws and all(w.fits_l1 and w.fits_l2 for w in ws.values())

    def test_static_tracks_simulated(self, record):
        for kl in record.kernels:
            dev = abs(kl.static.l1_miss_ratio - kl.simulated.l1.miss_ratio)
            assert dev <= STATIC_AGREEMENT_TOLERANCE


class TestGoldenSpmul:
    @pytest.fixture(scope="class")
    def record(self):
        return locality_port("spmul", "openacc")

    def test_csr_gather_is_inexact_both_sides(self, record):
        spmv = next(k for k in record.kernels if "spmv" in k.kernel)
        assert not spmv.simulated.exact   # trace is a lower bound
        assert not spmv.static.exact      # prediction is a heuristic

    def test_gather_locality_is_irregular(self, record):
        spmv = next(k for k in record.kernels if "spmv" in k.kernel)
        # scattered lines: low spatial locality, long median reuse
        # interval (the x-gather re-touches lines thousands of
        # accesses apart)
        assert spmv.simulated.spatial_locality < 0.5
        assert spmv.simulated.mri_p50 > 1000
        # the static model deliberately assumes L1-hostile gathers, so
        # it bounds the replayed miss ratio from above
        assert (spmv.static.l1_miss_ratio
                >= spmv.simulated.l1.miss_ratio)

    def test_regular_kernels_agree(self, record):
        for kl in record.kernels:
            if not (kl.simulated.exact and kl.static.exact):
                continue
            dev = abs(kl.static.l1_miss_ratio - kl.simulated.l1.miss_ratio)
            assert dev <= STATIC_AGREEMENT_TOLERANCE


class TestGoldenHotspot:
    def test_stencil_reuse_caught_by_l2_not_l1(self):
        record = locality_port("hotspot", "cuda")
        for kl in record.kernels:
            sim = kl.simulated
            assert sim.exact
            # neighbours sit on the same line (spatial ~1) but the
            # row-to-row re-touch distance overflows the 16 KiB L1 …
            assert sim.spatial_locality >= 0.9
            assert sim.l1.miss_ratio > 0.8
            # … and is captured by the 768 KiB L2
            assert sim.l2.miss_ratio < 0.5
            dev = abs(kl.static.l1_miss_ratio - sim.l1.miss_ratio)
            assert dev <= STATIC_AGREEMENT_TOLERANCE


class TestAgreementGate:
    """The documented cross-validation over the whole 13x6 suite."""

    def test_every_gated_kernel_within_tolerance(self, suite_records):
        checked = 0
        failures = []
        for rec in suite_records:
            for kl in rec.kernels:
                if not kl.gated:
                    continue
                checked += 1
                l1_dev, dram_dev = kl.deviation()
                if (l1_dev > STATIC_AGREEMENT_TOLERANCE
                        or dram_dev > STATIC_AGREEMENT_TOLERANCE):
                    failures.append((rec.benchmark, rec.model, kl.kernel,
                                     round(l1_dev, 3), round(dram_dev, 3)))
        # the gate is only meaningful if it actually sees the suite
        assert checked >= 100
        assert failures == []

    def test_suite_covers_all_models(self, suite_records):
        models = {rec.model for rec in suite_records}
        assert "Hand-Written CUDA" in models
        assert len(models) == 6
        assert len(suite_records) == 13 * 6


class TestDeterminism:
    def test_sharded_suite_is_byte_identical(self, suite_records):
        serial = json.dumps([r.to_dict() for r in suite_records],
                            sort_keys=True)
        sharded = json.dumps(
            [r.to_dict() for r in run_suite(LOCALITY, jobs=4)],
            sort_keys=True)
        assert serial == sharded


class TestCacheBottleneck:
    """The 'cache' limiter only exists when metrics were attached."""

    @staticmethod
    def _memory_bound_timing():
        from repro.gpusim.timing import KernelTiming
        return KernelTiming(name="k", time_s=1.0, compute_s=0.1,
                            memory_s=0.9, launch_s=0.0, occupancy=1.0,
                            dram_bytes=1e6, flops=1e6, bound="memory")

    @staticmethod
    def _counters(**cache):
        from repro.obs.counters import KernelCounters
        return KernelCounters(
            gld_transactions=100.0, gst_transactions=10.0,
            gld_efficiency=1.0, gst_efficiency=1.0,
            cached_special_transactions=0.0, branch_divergence=0.0,
            shared_bank_conflicts=0.0, achieved_occupancy=1.0,
            occupancy_limiter="threads", latency_hiding=1.0,
            warps=32, flops=1e6, dram_bytes=1e6, **cache)

    def test_untraced_profile_is_unchanged(self):
        from repro.obs.bottleneck import classify_kernel
        b = classify_kernel(self._memory_bound_timing(), self._counters())
        assert b.kind == "memory"

    def test_thrashing_kernel_is_cache_bound(self):
        from repro.obs.bottleneck import classify_kernel
        counters = self._counters(l1_miss_ratio=0.95, l2_miss_ratio=0.3,
                                  spatial_locality=0.99,
                                  temporal_locality=0.05)
        b = classify_kernel(self._memory_bound_timing(), counters)
        assert b.kind == "cache"
        assert b.dominant_counter == "l1_miss_ratio"

    def test_streaming_kernel_stays_memory_bound(self):
        from repro.obs.bottleneck import classify_kernel
        # no reuse: a high miss ratio is volume, not thrashing
        counters = self._counters(l1_miss_ratio=0.95, l2_miss_ratio=0.9,
                                  spatial_locality=0.2,
                                  temporal_locality=0.1)
        b = classify_kernel(self._memory_bound_timing(), counters)
        assert b.kind == "memory"

    def test_with_cache_metrics_round_trip(self):
        from repro.gpusim.locality import locality_port
        from repro.obs.counters import with_cache_metrics
        rec = locality_port("hotspot", "cuda")
        report = rec.kernels[0].simulated
        attached = with_cache_metrics(self._counters(), report)
        assert attached.l1_miss_ratio == report.l1.miss_ratio
        assert attached.cache_utilization == report.l1.cache_utilization
        d = attached.to_dict()
        assert "l1_miss_ratio" in d and "aliasing_density" in d
        # and None-valued metrics stay out of the payload
        assert "l1_miss_ratio" not in self._counters().to_dict()


class TestCli:
    def test_locality_requires_names_without_all(self):
        from repro.harness.cli import main as cli_main
        assert cli_main(["locality"]) == 2

    def test_locality_fail_on_warning_trips_on_spmul(self, capsys):
        from repro.harness.cli import main as cli_main
        rc = cli_main(["locality", "spmul", "openmpc",
                       "--fail-on=warning"])
        assert rc == 1
        assert "CACHE001" in capsys.readouterr().out

    def test_locality_json_single_port(self, capsys):
        from repro.harness.cli import main as cli_main
        rc = cli_main(["locality", "jacobi", "openacc", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["benchmark"] == "JACOBI"
        kernels = payload[0]["kernels"]
        assert kernels and {"simulated", "static"} <= set(kernels[0])

    def test_xfer_fail_on_warning(self, capsys):
        from repro.harness.cli import main as cli_main
        # BFS carries a COH003 warning (non-error) in every model
        rc = cli_main(["xfer", "bfs", "openacc", "--fail-on=warning"])
        assert rc == 1
        assert "COH003" in capsys.readouterr().out


class TestTimingAblation:
    def test_cache_knob_is_config_hash_exempt_at_default(self):
        from repro.gpusim.device import TESLA_M2090
        from repro.gpusim.timing import TimingConfig
        from repro.obs.tracer import config_hash

        baseline = json.loads(pathlib.Path(
            "benchmarks/baselines/figure1-paper.json").read_text())
        recorded = baseline["manifest"]["config_hash"]
        # the committed baseline predates the knob; it must still match
        assert config_hash(TESLA_M2090, TimingConfig()) == recorded
        # turning the knob on is a config change and must not match
        assert (config_hash(TESLA_M2090,
                            TimingConfig(model_cache_hierarchy=True))
                != recorded)

    def test_knob_prices_l2_hits_cheaper(self):
        from repro.benchmarks import get_benchmark
        from repro.gpusim.device import TESLA_M2090
        from repro.gpusim.timing import TimingConfig, price_kernel
        from repro.models.cache import compile_port

        _port, compiled, chosen = compile_port("hotspot", "cuda", None)
        bench = get_benchmark("hotspot")
        wl = bench.workload(scale="test")
        arrays = bench.arrays_for("cuda", chosen, wl)
        extents = {name: list(a.shape) for name, a in arrays.items()}
        bindings = {k: float(v) for k, v in wl.scalars.items()
                    if isinstance(v, (int, float))}
        result = next(r for r in compiled.results.values()
                      if r.translated and r.kernels)
        desc = result.kernels[0].describe(bindings, extents)
        off = price_kernel(desc, TESLA_M2090, config=TimingConfig())
        on = price_kernel(desc, TESLA_M2090,
                          config=TimingConfig(model_cache_hierarchy=True))
        assert off.l2_hit_rate == 0.0
        assert on.l2_hit_rate > 0.0
        assert on.memory_s < off.memory_s
        assert on.time_s <= off.time_s
