"""Cross-model directive translation: rewrite, certify, gate.

Pins the translator's soundness story end to end: the shipped pairs
certify 0 REFUTED; a *seeded* wrong translation — a dropped
``map(from:)`` clause, invisible to the compute-level validator —
comes back REFUTED with a concrete :class:`MotionWitness`; the
OpenACC → OpenMP-Target → OpenACC round trip is idempotent at the
directive-IR level; the sharded suite is byte-identical for any
``--jobs``; and the CLI honours the exit-code contract.
"""

import dataclasses
import json

import pytest

from repro.benchmarks import BENCHMARK_ORDER, get_benchmark
from repro.directives import normalize_port
from repro.harness.cli import main as cli_main
from repro.models import get_compiler
from repro.models.cache import compile_port
from repro.analysis import run_suite
from repro.translate import (TRANSLATE, TRANSLATION_PAIRS, MotionWitness,
                             motion_certificates, translate_pair,
                             translate_port)
from repro.tv.certify import CertStatus


@pytest.fixture(scope="module")
def suite_records():
    return run_suite(TRANSLATE)


class TestShippedPairs:
    def test_every_pair_certifies_zero_refuted(self, suite_records):
        refuted = [(r.benchmark, r.src, r.dst, c.region, c.detail)
                   for r in suite_records for c in r.certificates
                   if c.status is CertStatus.REFUTED]
        assert refuted == []

    def test_every_pair_covers_all_benchmarks(self, suite_records):
        seen = {(r.src, r.dst): [] for r in suite_records}
        for r in suite_records:
            seen[(r.src, r.dst)].append(r.benchmark)
        assert set(seen) == set(TRANSLATION_PAIRS)
        for pair, benches in seen.items():
            assert len(benches) == len(BENCHMARK_ORDER), pair

    def test_no_clauses_dropped_in_shipped_pairs(self, suite_records):
        assert sum(r.dropped for r in suite_records) == 0

    def test_openacc_to_omp_target_matches_native_coverage(
            self, suite_records):
        # the forward migration path: everything the native OpenMP-Target
        # ports accept, the mechanically translated OpenACC ports accept too
        recs = [r for r in suite_records
                if (r.src, r.dst) == ("OpenACC", "OpenMP-Target")]
        assert sum(r.via_translated for r in recs) == \
            sum(r.native_translated for r in recs)

    def test_openmpc_transfer_plan_synthesized_as_clauses(
            self, suite_records):
        # OpenMPC ports carry no explicit data directives; the HMPP
        # translation must re-express the interprocedural plan as groups
        rec = next(r for r in suite_records
                   if (r.src, r.dst) == ("OpenMPC", "HMPP")
                   and r.benchmark == "JACOBI")
        assert any("synthesized data scope" in n for n in rec.notes)

    def test_jobs_rollup_byte_identical(self, suite_records):
        serial = json.dumps([r.to_dict() for r in suite_records])
        sharded = json.dumps([r.to_dict()
                              for r in run_suite(TRANSLATE, jobs=4)])
        assert serial == sharded


class TestSeededWrongTranslation:
    def test_dropped_map_from_clause_is_refuted_with_witness(self):
        # the motion check's raison d'être: drop the map(from: a) clause
        # from the translated port — every kernel still matches the
        # source, but the final host value of 'a' goes stale
        src_port, src_compiled, _ = compile_port("jacobi", "OpenACC")
        good = translate_port(src_port, "OpenMP-Target")
        tampered = dataclasses.replace(good, data_regions=tuple(
            dataclasses.replace(dr, copyout=tuple(
                a for a in dr.copyout if a != "a"))
            for dr in good.data_regions))
        compiled = get_compiler("OpenMP-Target").compile_program(tampered)
        certs = motion_certificates(src_port.program, compiled, src_compiled)
        refuted = [c for c in certs if c.status is CertStatus.REFUTED]
        assert refuted, "dropped copy-back must refute the translation"
        witness = refuted[0].witness
        assert isinstance(witness, MotionWitness)
        assert witness.array == "a"
        assert witness.scope == "jacobi_data"
        assert witness.missing_clause == "map(from: a)"
        assert witness.missing_clause in refuted[0].detail
        assert witness.to_dict()["kind"] == "data-motion"

    def test_intact_translation_is_proved(self):
        src_port, src_compiled, _ = compile_port("jacobi", "OpenACC")
        good = translate_port(src_port, "OpenMP-Target")
        compiled = get_compiler("OpenMP-Target").compile_program(good)
        certs = motion_certificates(src_port.program, compiled, src_compiled)
        assert certs and all(c.status is CertStatus.PROVED for c in certs)


class TestRoundTrip:
    @pytest.mark.parametrize("bench", BENCHMARK_ORDER)
    def test_acc_omp_acc_idempotent_at_the_ir_level(self, bench):
        src = get_benchmark(bench).port("OpenACC")
        mid = translate_port(src, "OpenMP-Target")
        back = translate_port(mid, "OpenACC")
        assert normalize_port(back).regions == normalize_port(src).regions
        assert normalize_port(back).data == normalize_port(src).data


class TestCli:
    def test_translate_single_pair(self, capsys):
        rc = cli_main(["translate", "jacobi", "openacc", "omp-target"])
        assert rc == 0
        assert "OpenACC -> OpenMP-Target" in capsys.readouterr().out

    def test_translate_json_records(self, capsys):
        rc = cli_main(["translate", "jacobi", "openmpc", "hmpp", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["src"] == "OpenMPC"
        assert payload[0]["dst"] == "HMPP"
        assert all(c["status"] != "REFUTED"
                   for c in payload[0]["certificates"])

    def test_translate_requires_three_names_without_all(self, capsys):
        assert cli_main(["translate"]) == 2
        assert cli_main(["translate", "jacobi"]) == 2
        assert cli_main(["translate", "jacobi", "openacc"]) == 2

    def test_translate_rejects_identity_pair(self, capsys):
        assert cli_main(["translate", "jacobi", "openacc", "acc"]) == 2

    def test_translate_rejects_unknown_names(self, capsys):
        assert cli_main(["translate", "nope", "openacc", "hmpp"]) == 2
        assert cli_main(["translate", "jacobi", "openacc", "nope"]) == 2
