"""CLI error paths, exit codes, SARIF output, and compile memoization.

The harness is the CI entry point, so its contract is pinned: exit 0
clean, exit 1 when a ``--fail-on`` gate trips, exit 2 on usage errors
(unknown benchmark / model / variant, contradictory flags) and on
soundness errors (REFUTED certificates, COH stale reads) — never a
traceback.  :class:`TestAnalysisExitContract` pins it for every
analysis in the spec registry.
"""

import dataclasses
import json

import pytest

from repro.analysis import analyses
from repro.dataflow.report import CoherenceProblem
from repro.harness.cli import main as cli_main
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION
from repro.lint.suite import clear_compile_cache, compile_port
from repro.models import MODEL_ALIASES, resolve_model
from repro.tv.certify import Certificate, CertStatus


class TestModelAliases:
    @pytest.mark.parametrize("alias,canonical", sorted(MODEL_ALIASES.items()))
    def test_alias_resolves(self, alias, canonical):
        assert resolve_model(alias) == canonical

    def test_canonical_names_case_insensitive(self):
        assert resolve_model("OpenACC") == "OpenACC"
        assert resolve_model("openACC") == "OpenACC"
        assert resolve_model("HAND-WRITTEN CUDA") == "Hand-Written CUDA"

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            resolve_model("nonesuch")

    def test_lint_accepts_alias(self, capsys):
        assert cli_main(["lint", "jacobi", "pgi"]) == 0
        assert "PGI Accelerator" in capsys.readouterr().out


class TestUsageErrors:
    def test_lint_unknown_benchmark(self, capsys):
        assert cli_main(["lint", "nonesuch", "openacc"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_lint_unknown_model(self, capsys):
        assert cli_main(["lint", "jacobi", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_lint_unknown_variant(self, capsys):
        assert cli_main(["lint", "jacobi", "openacc",
                         "--variant", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_lint_missing_positional(self, capsys):
        assert cli_main(["lint", "jacobi"]) == 2
        assert "required" in capsys.readouterr().err

    def test_tv_unknown_variant(self, capsys):
        assert cli_main(["tv", "jacobi", "openacc",
                         "--variant", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_run_unknown_variant(self, capsys):
        assert cli_main(["run", "JACOBI", "OpenACC",
                         "--variant", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "known" in err

    def test_validate_unknown_benchmark(self, capsys):
        assert cli_main(["validate", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_run_unknown_benchmark_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "nonesuch", "OpenACC"])
        assert exc.value.code == 2

    def test_sarif_and_json_conflict(self, capsys):
        assert cli_main(["lint", "jacobi", "openacc",
                         "--format", "sarif", "--json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


#: one clean port per analysis: the target arguments after BENCH
CLEAN_TARGETS = {"lint": ["openacc"], "xfer": ["openacc"],
                 "locality": ["openacc"], "tv": ["openacc"],
                 "translate": ["openmpc", "hmpp"]}


def _replay_misses_everything(rec):
    """The first gated kernel's replay misses every L1 access: static
    and replayed locality no longer agree."""
    kernels = list(rec.kernels)
    i = next(i for i, kl in enumerate(kernels) if kl.gated)
    sim = kernels[i].simulated
    kernels[i] = dataclasses.replace(kernels[i], simulated=(
        dataclasses.replace(sim, l1=dataclasses.replace(
            sim.l1, misses=sim.l1.accesses))))
    return dataclasses.replace(rec, kernels=tuple(kernels))


#: per analysis: a ``--fail-on`` threshold the clean port passes, the
#: rule of a seeded finding that trips it, and the seeding
SEED_FINDING = {
    "lint": ("error", "SEED001", lambda rec: _with_lint_finding(
        rec, "SEED001", Severity.ERROR)),
    "xfer": ("warning", "COH003", lambda rec: _with_coh(rec, "COH003")),
    "locality": ("error", "LOC-AGREE", _replay_misses_everything),
    "tv": ("warning", "TV-UNKNOWN",
           lambda rec: _with_cert(rec, CertStatus.UNKNOWN)),
    "translate": ("warning", "XLAT-UNKNOWN",
                  lambda rec: _with_cert(rec, CertStatus.UNKNOWN)),
}


#: how each analysis that can be unsound is made so; every analysis
#: left out must not report soundness errors at all
SEED_UNSOUND = {
    "lint": lambda rec: _with_lint_finding(rec, "COH001", Severity.ERROR),
    "xfer": lambda rec: _with_coh(rec, "COH001"),
    "tv": lambda rec: _with_cert(rec, CertStatus.REFUTED),
    "translate": lambda rec: _with_cert(rec, CertStatus.REFUTED),
}


def _with_lint_finding(rec, rule, severity):
    report = LintReport(rec.report.program, rec.report.model,
                        [*rec.report.findings,
                         Finding(rule, severity, "seeded")])
    return dataclasses.replace(rec, report=report)


def _with_coh(rec, rule):
    problem = CoherenceProblem(rule=rule, node="seeded", region="seeded",
                               array="a", message="seeded stale access")
    analysis = dataclasses.replace(
        rec.analysis, problems=(*rec.analysis.problems, problem))
    return dataclasses.replace(rec, analysis=analysis)


def _with_cert(rec, status):
    cert = Certificate(program=rec.benchmark, model="seeded",
                       region="seeded", status=status, detail="seeded")
    return dataclasses.replace(rec,
                               certificates=[*rec.certificates, cert])


@pytest.fixture
def seed_port(monkeypatch):
    """Swap an analysis's per-port function for one whose record is
    rewritten by ``seed``."""
    def install(name, seed):
        spec = analyses()[name]
        monkeypatch.setitem(analyses(), name, dataclasses.replace(
            spec, port=lambda *a, **kw: seed(spec.port(*a, **kw))))
    return install


@pytest.mark.parametrize("name", list(analyses()))
class TestAnalysisExitContract:
    """0 clean, 1 gated, 2 usage or soundness — for every analysis."""

    def _port(self, name, *extra):
        return [name, "jacobi", *CLEAN_TARGETS[name], *extra]

    def test_clean_port_exits_0(self, name, capsys):
        assert cli_main(self._port(name)) == 0
        capsys.readouterr()

    def test_missing_positional_exits_2(self, name, capsys):
        assert cli_main(self._port(name)[:-1]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_benchmark_exits_2(self, name, capsys):
        argv = self._port(name)
        argv[1] = "nonesuch"
        assert cli_main(argv) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, name, capsys):
        argv = self._port(name)
        argv[2] = "nonesuch"
        assert cli_main(argv) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, name, capsys):
        assert cli_main(self._port(name, "--variant", "bogus")) == 2
        assert "bogus" in capsys.readouterr().err

    def test_jobs_zero_exits_2(self, name, capsys):
        assert cli_main(self._port(name, "--jobs", "0")) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_soundness_error_exits_2(self, name, seed_port, capsys):
        if name not in SEED_UNSOUND:
            # records of this analysis carry no certificates or
            # coherence verdicts, so nothing in them can be unsound
            assert analyses()[name].unsound("any record") == ()
            return
        seed_port(name, SEED_UNSOUND[name])
        assert cli_main(self._port(name)) == 2
        assert "Soundness errors" in capsys.readouterr().out
        # soundness is not a --fail-on finding: no threshold lowers it
        assert cli_main(self._port(name, "--fail-on", "error")) == 2
        capsys.readouterr()

    def test_tripped_fail_on_exits_1(self, name, seed_port, capsys):
        threshold, rule, seed = SEED_FINDING[name]
        assert cli_main(self._port(name, "--fail-on", threshold)) == 0
        seed_port(name, seed)
        assert cli_main(self._port(name)) == 0
        capsys.readouterr()
        assert cli_main(self._port(name, "--fail-on", threshold)) == 1
        out = capsys.readouterr().out
        assert f"Findings at or above {threshold}" in out and rule in out


class TestFailOnOrdering:
    def test_clean_port_passes_every_threshold(self, capsys):
        # JACOBI/OpenACC is clean at error severity in the pinned suite
        assert cli_main(["lint", "jacobi", "openacc",
                         "--fail-on", "error"]) == 0
        capsys.readouterr()

    def test_info_threshold_is_strictest(self, capsys):
        # every port emits at least the PERF/DATA info-level findings
        # somewhere in the suite; use a port known to carry a finding
        rc_info = cli_main(["lint", "bfs", "openmpc", "--fail-on", "info"])
        rc_warn = cli_main(["lint", "bfs", "openmpc",
                            "--fail-on", "warning"])
        rc_err = cli_main(["lint", "bfs", "openmpc", "--fail-on", "error"])
        capsys.readouterr()
        # monotone: tightening the threshold can only add failures
        assert rc_info >= rc_warn >= rc_err

    def test_bad_threshold_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", "jacobi", "openacc", "--fail-on", "bogus"])
        assert exc.value.code == 2


class TestSarifOutput:
    def test_single_port_sarif_shape(self, capsys):
        assert cli_main(["lint", "srad", "openmpc", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["rules"] is not None
        rule_ids = {r["id"] for r in driver["rules"]}
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in ("error", "warning", "note")
            locs = result["locations"][0]["logicalLocations"]
            assert locs[0]["fullyQualifiedName"]

    def test_suite_sarif_merges_runs(self, capsys):
        assert cli_main(["lint", "--all", "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        # 13 benchmarks x 6 lintable models (5 directive + OpenMP-Target)
        assert len(log["runs"]) == 78


class TestCompileMemoization:
    def test_same_objects_returned(self):
        clear_compile_cache()
        p1, c1, v1 = compile_port("JACOBI", "OpenACC")
        p2, c2, v2 = compile_port("jacobi", "openacc")
        assert p1 is p2 and c1 is c2 and v1 == v2

    def test_clear_resets_cache(self):
        p1, c1, _ = compile_port("JACOBI", "OpenACC")
        clear_compile_cache()
        p2, c2, _ = compile_port("JACOBI", "OpenACC")
        assert c1 is not c2

    def test_variant_is_part_of_key(self):
        _, best, _ = compile_port("JACOBI", "OpenACC")
        _, naive, _ = compile_port("JACOBI", "OpenACC", "naive")
        assert best is not naive

    def test_unknown_variant_raises_keyerror(self):
        with pytest.raises(KeyError):
            compile_port("JACOBI", "OpenACC", "bogus")
