"""Suite-level snapshot of verifier findings: 13 benchmarks x LINT_MODELS
(the 5 directive models plus the OpenMP-Target compiler).

The snapshot pins the per-(benchmark, model) rule counts so any change
to the dependence tester, the transfer-plan analysis, or a compiler's
lowering that shifts findings shows up as an explicit diff here.  The
suite must also stay free of error-severity findings — the CI gate runs
``repro-harness lint --all --fail-on=error``.
"""

import json

import pytest

from repro.harness.cli import main as cli_main
from repro.analysis import run_suite
from repro.lint import LINT, Severity
from repro.metrics.lintstats import lint_density, render_lint_density

SNAPSHOT = {
    ("JACOBI", "PGI Accelerator"): {"CACHE001": 3, "PERF005": 1, "XFER002": 1},
    ("JACOBI", "OpenACC"): {"CACHE001": 3, "PERF005": 1, "XFER002": 1},
    ("JACOBI", "HMPP"): {"CACHE001": 3, "PERF005": 1, "XFER002": 1},
    ("JACOBI", "OpenMPC"): {"CACHE001": 3, "PERF005": 1, "XFER002": 1},
    ("JACOBI", "R-Stream"): {"CACHE001": 1, "XFER002": 1},
    ("JACOBI", "OpenMP-Target"): {"CACHE001": 4, "CACHE002": 2, "CACHE003": 4,
     "CACHE004": 4, "PERF001": 4, "PERF005": 1, "XFER001": 3},
    ("EP", "PGI Accelerator"): {"PERF001": 2, "PERF004": 3, "PERF005": 1,
     "RACE002": 3, "XFER004": 3},
    ("EP", "OpenACC"): {"PERF001": 2, "PERF004": 3, "PERF005": 1, "RACE002": 3,
     "XFER004": 3},
    ("EP", "HMPP"): {"PERF001": 2, "PERF004": 3, "PERF005": 1, "RACE002": 3,
     "XFER004": 3},
    ("EP", "OpenMPC"): {"PERF004": 3, "RACE002": 3},
    ("EP", "R-Stream"): {"COV-NON-AFFINE": 1, "RACE002": 3},
    ("EP", "OpenMP-Target"): {"PERF001": 2, "PERF004": 3, "RACE002": 3,
     "XFER004": 3},
    ("SPMUL", "PGI Accelerator"): {"CACHE001": 3, "PERF002": 3, "PERF004": 2,
     "RACE002": 1, "XFER002": 1},
    ("SPMUL", "OpenACC"): {"CACHE001": 3, "PERF002": 3, "PERF004": 2,
     "XFER002": 1},
    ("SPMUL", "HMPP"): {"CACHE001": 3, "PERF002": 3, "PERF004": 2,
     "XFER002": 1},
    ("SPMUL", "OpenMPC"): {"CACHE001": 3, "DATA003": 1, "PERF002": 1,
     "PERF004": 2, "XFER002": 1, "XFER003": 1},
    ("SPMUL", "R-Stream"): {"COV-NON-AFFINE": 1, "PERF004": 2, "XFER001": 5},
    ("SPMUL", "OpenMP-Target"): {"CACHE001": 3, "PERF002": 3, "PERF004": 2,
     "XFER001": 12, "XFER003": 1},
    ("CG", "PGI Accelerator"): {"CACHE001": 6, "PERF002": 6, "PERF004": 9,
     "RACE002": 5, "XFER002": 1},
    ("CG", "OpenACC"): {"CACHE001": 6, "PERF002": 6, "PERF004": 9,
     "XFER002": 1},
    ("CG", "HMPP"): {"CACHE001": 6, "PERF002": 6, "PERF004": 9, "XFER002": 1},
    ("CG", "OpenMPC"): {"CACHE001": 6, "DATA003": 1, "PERF002": 2, "PERF004": 9,
     "XFER002": 1, "XFER003": 1},
    ("CG", "R-Stream"): {"COV-NON-AFFINE": 2, "PERF004": 9, "XFER001": 31,
     "XFER002": 2, "XFER004": 1},
    ("CG", "OpenMP-Target"): {"CACHE001": 6, "PERF002": 6, "PERF004": 9,
     "XFER001": 45, "XFER002": 1, "XFER003": 1, "XFER004": 1},
    ("FT", "PGI Accelerator"): {"CACHE001": 2, "CACHE003": 2, "PERF001": 8,
     "PERF004": 5, "RACE002": 1, "XFER002": 2},
    ("FT", "OpenACC"): {"CACHE001": 2, "CACHE003": 2, "PERF001": 8,
     "PERF004": 5, "XFER002": 2},
    ("FT", "HMPP"): {"CACHE001": 2, "CACHE003": 2, "PERF001": 8, "PERF004": 5,
     "XFER002": 2},
    ("FT", "OpenMPC"): {"CACHE001": 2, "CACHE003": 2, "PERF001": 8,
     "PERF004": 1, "XFER002": 2},
    ("FT", "R-Stream"): {"COV-NON-AFFINE": 6},
    ("FT", "OpenMP-Target"): {"CACHE001": 2, "CACHE003": 2, "PERF001": 8,
     "PERF004": 1, "XFER001": 27, "XFER004": 1},
    ("SRAD", "PGI Accelerator"): {"CACHE001": 5, "CACHE002": 1, "CACHE003": 1,
     "CACHE004": 1, "PERF001": 1, "PERF004": 5, "PERF005": 2, "RACE002": 1},
    ("SRAD", "OpenACC"): {"CACHE001": 5, "CACHE002": 1, "CACHE003": 1,
     "CACHE004": 1, "PERF001": 1, "PERF004": 5, "PERF005": 2},
    ("SRAD", "HMPP"): {"CACHE001": 5, "CACHE002": 1, "CACHE003": 1,
     "CACHE004": 1, "PERF001": 1, "PERF004": 5, "PERF005": 2},
    ("SRAD", "OpenMPC"): {"CACHE001": 2, "CACHE002": 1, "PERF004": 5,
     "PERF005": 2},
    ("SRAD", "R-Stream"): {"CACHE001": 4, "CACHE002": 2, "CACHE003": 3,
     "CACHE004": 3, "COV-NON-AFFINE": 2, "PERF001": 3, "PERF004": 1,
     "XFER001": 2},
    ("SRAD", "OpenMP-Target"): {"CACHE001": 20, "CACHE002": 4, "CACHE003": 15,
     "CACHE004": 15, "PERF001": 16, "PERF004": 5, "PERF005": 2, "XFER001": 27},
    ("CFD", "PGI Accelerator"): {"CACHE001": 5, "CACHE002": 3, "PERF001": 2,
     "PERF002": 2, "PERF004": 3, "PERF005": 1, "RACE002": 1, "RACE003": 1,
     "XFER002": 1},
    ("CFD", "OpenACC"): {"CACHE001": 5, "CACHE002": 3, "PERF001": 2,
     "PERF002": 2, "PERF004": 3, "PERF005": 1, "RACE003": 1, "XFER002": 1},
    ("CFD", "HMPP"): {"CACHE001": 5, "CACHE002": 3, "PERF001": 2, "PERF002": 2,
     "PERF004": 3, "PERF005": 1, "RACE003": 1, "XFER002": 1},
    ("CFD", "OpenMPC"): {"CACHE001": 5, "CACHE002": 3, "DATA003": 2,
     "PERF001": 2, "PERF002": 2, "PERF004": 2, "PERF005": 1, "RACE003": 1,
     "XFER002": 1, "XFER003": 1},
    ("CFD", "R-Stream"): {"COV-NON-AFFINE": 4, "PERF004": 1, "RACE003": 1,
     "XFER001": 5, "XFER002": 1, "XFER004": 1},
    ("CFD", "OpenMP-Target"): {"CACHE001": 5, "CACHE002": 3, "PERF001": 2,
     "PERF002": 2, "PERF004": 3, "PERF005": 1, "RACE003": 1, "XFER001": 18,
     "XFER002": 4, "XFER003": 1, "XFER004": 1},
    ("BFS", "PGI Accelerator"): {"CACHE001": 4, "COH003": 1,
     "COV-CRITICAL-SECTION": 1, "DATA002": 2, "DATA005": 1, "PERF002": 4,
     "RACE002": 1, "RACE003": 2, "XFER002": 1},
    ("BFS", "OpenACC"): {"CACHE001": 4, "COH003": 1, "COV-CRITICAL-SECTION": 1,
     "DATA002": 2, "DATA005": 1, "PERF002": 4, "RACE002": 1, "RACE003": 2,
     "XFER002": 1},
    ("BFS", "HMPP"): {"CACHE001": 4, "COH003": 1, "COV-CRITICAL-SECTION": 1,
     "DATA002": 2, "DATA005": 1, "PERF002": 4, "RACE002": 1, "RACE003": 2,
     "XFER002": 1},
    ("BFS", "OpenMPC"): {"CACHE001": 5, "PERF002": 4, "RACE002": 1,
     "RACE003": 2, "XFER002": 3},
    ("BFS", "R-Stream"): {"COV-NON-AFFINE": 3, "RACE002": 1, "RACE003": 2},
    ("BFS", "OpenMP-Target"): {"CACHE001": 5, "PERF002": 5, "RACE002": 1,
     "RACE003": 2, "XFER001": 2, "XFER002": 4, "XFER004": 1},
    ("HOTSPOT", "PGI Accelerator"): {"CACHE001": 6, "PERF005": 2,
     "XFER002": 1},
    ("HOTSPOT", "OpenACC"): {"CACHE001": 6, "PERF005": 2, "XFER002": 1},
    ("HOTSPOT", "HMPP"): {"CACHE001": 6, "PERF005": 2, "XFER002": 1},
    ("HOTSPOT", "OpenMPC"): {"CACHE001": 2, "PERF005": 2, "XFER002": 1},
    ("HOTSPOT", "R-Stream"): {"COV-NON-AFFINE": 2},
    ("HOTSPOT", "OpenMP-Target"): {"CACHE001": 2, "PERF005": 2, "XFER001": 6},
    ("BACKPROP", "PGI Accelerator"): {"CACHE001": 6, "CACHE002": 2,
     "CACHE003": 3, "CACHE004": 3, "DATA002": 2, "PERF001": 5, "PERF004": 7,
     "RACE002": 2, "XFER002": 2},
    ("BACKPROP", "OpenACC"): {"CACHE001": 6, "CACHE002": 2, "CACHE003": 3,
     "CACHE004": 3, "DATA002": 2, "PERF001": 5, "PERF004": 7, "XFER002": 2},
    ("BACKPROP", "HMPP"): {"CACHE001": 6, "CACHE002": 2, "CACHE003": 3,
     "CACHE004": 3, "DATA002": 2, "PERF001": 5, "PERF004": 7, "XFER002": 2},
    ("BACKPROP", "OpenMPC"): {"CACHE001": 3, "CACHE002": 1, "CACHE003": 1,
     "CACHE004": 1, "DATA003": 2, "PERF001": 1, "PERF004": 7, "XFER002": 4,
     "XFER003": 2},
    ("BACKPROP", "R-Stream"): {"COV-POINTER-BASED-ALLOCATION": 5, "PERF004": 1,
     "XFER003": 1},
    ("BACKPROP", "OpenMP-Target"): {"CACHE001": 6, "CACHE002": 2, "CACHE003":
     3, "CACHE004": 3, "PERF001": 5, "PERF004": 7, "XFER001": 12, "XFER002": 4,
     "XFER003": 2, "XFER004": 1},
    ("KMEANS", "PGI Accelerator"): {"CACHE001": 10, "CACHE002": 6,
     "CACHE003": 5, "CACHE004": 5, "PERF001": 6, "PERF002": 1, "PERF004": 5,
     "RACE002": 2, "XFER002": 2},
    ("KMEANS", "OpenACC"): {"CACHE001": 10, "CACHE002": 6, "CACHE003": 5,
     "CACHE004": 5, "PERF001": 6, "PERF002": 1, "PERF004": 5, "RACE002": 2,
     "XFER002": 2},
    ("KMEANS", "HMPP"): {"CACHE001": 10, "CACHE002": 6, "CACHE003": 5,
     "CACHE004": 5, "PERF001": 6, "PERF002": 1, "PERF004": 5, "RACE002": 2,
     "XFER002": 2},
    ("KMEANS", "OpenMPC"): {"CACHE001": 10, "CACHE002": 4, "CACHE003": 3,
     "CACHE004": 3, "DATA003": 2, "PERF001": 3, "PERF002": 3, "PERF004": 4,
     "RACE002": 4, "XFER002": 2, "XFER003": 1},
    ("KMEANS", "R-Stream"): {"COV-NON-AFFINE": 3, "RACE002": 2},
    ("KMEANS", "OpenMP-Target"): {"CACHE001": 11, "CACHE002": 5, "CACHE003": 5,
     "CACHE004": 5, "PERF001": 5, "PERF002": 3, "PERF004": 3, "RACE002": 4,
     "XFER001": 13, "XFER003": 1, "XFER004": 1},
    ("NW", "PGI Accelerator"): {"CACHE001": 3, "CACHE002": 1, "CACHE003": 2,
     "CACHE004": 2, "PERF001": 8, "PERF002": 1, "PERF004": 1, "PERF005": 2},
    ("NW", "OpenACC"): {"CACHE001": 3, "CACHE002": 1, "CACHE003": 2,
     "CACHE004": 2, "PERF001": 8, "PERF002": 1, "PERF004": 1, "PERF005": 2},
    ("NW", "HMPP"): {"CACHE001": 3, "CACHE002": 1, "CACHE003": 2, "CACHE004": 2,
     "PERF001": 8, "PERF002": 1, "PERF004": 1, "PERF005": 2},
    ("NW", "OpenMPC"): {"CACHE001": 1, "CACHE003": 1, "CACHE004": 1,
     "PERF001": 7, "PERF002": 1, "PERF004": 1, "PERF005": 2},
    ("NW", "R-Stream"): {"COV-NO-PROVABLE-PARALLELISM": 2,
     "COV-NON-AFFINE": 1},
    ("NW", "OpenMP-Target"): {"CACHE001": 3, "CACHE002": 1, "CACHE003": 2,
     "CACHE004": 2, "PERF001": 8, "PERF002": 1, "PERF004": 1, "PERF005": 2,
     "XFER001": 4, "XFER004": 1},
    ("LUD", "PGI Accelerator"): {"PERF001": 5, "PERF004": 3, "PERF005": 1,
     "RACE002": 1, "RACE003": 3},
    ("LUD", "OpenACC"): {"PERF001": 5, "PERF004": 3, "PERF005": 1,
     "RACE003": 3},
    ("LUD", "HMPP"): {"PERF001": 5, "PERF004": 3, "PERF005": 1, "RACE003": 3},
    ("LUD", "OpenMPC"): {"PERF001": 2, "PERF004": 3, "PERF005": 1,
     "RACE003": 2},
    ("LUD", "R-Stream"): {"COV-NON-AFFINE": 4, "RACE003": 2},
    ("LUD", "OpenMP-Target"): {"PERF001": 7, "PERF004": 3, "PERF005": 1,
     "RACE003": 2, "XFER001": 3, "XFER004": 1},
}


@pytest.fixture(scope="module")
def suite_records():
    return run_suite(LINT)


class TestSuiteSnapshot:
    def test_every_pair_matches_snapshot(self, suite_records):
        actual = {(rec.benchmark, rec.model): rec.report.by_rule()
                  for rec in suite_records}
        assert set(actual) == set(SNAPSHOT)
        mismatches = {pair: (SNAPSHOT[pair], actual[pair])
                      for pair in SNAPSHOT if SNAPSHOT[pair] != actual[pair]}
        assert not mismatches

    def test_suite_has_no_errors(self, suite_records):
        # the CI gate: lint --all --fail-on=error must pass
        offenders = [(rec.benchmark, rec.model, f)
                     for rec in suite_records
                     for f in rec.report.at_or_above(Severity.ERROR)]
        assert offenders == []

    def test_openmpc_flags_spmul_dead_copyin(self, suite_records):
        # the paper's Section III-D2 example: OpenMPC's conservative
        # array-name analysis transfers y although spmv overwrites it
        rec = next(r for r in suite_records
                   if (r.benchmark, r.model) == ("SPMUL", "OpenMPC"))
        assert any(f.rule == "DATA003" and f.array == "y"
                   for f in rec.report.findings)

    def test_density_rows_cover_all_models(self, suite_records):
        rows = lint_density(suite_records)
        assert [row.model for row in rows] == [
            "PGI Accelerator", "OpenACC", "HMPP", "OpenMPC", "R-Stream",
            "OpenMP-Target"]
        assert all(row.ports == 13 and row.errors == 0 for row in rows)
        table = render_lint_density(rows)
        assert "Per-region" in table and "OpenMPC" in table

    def test_rstream_density_lowest(self, suite_records):
        # R-Stream translates the least (Table II), so it also accrues
        # the fewest per-kernel findings
        rows = {row.model: row for row in lint_density(suite_records)}
        assert rows["R-Stream"].density == min(
            row.density for row in rows.values())


class TestCli:
    def test_lint_json_single_port(self, capsys):
        rc = cli_main(["lint", "jacobi", "openacc", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "jacobi"
        assert payload["model"] == "OpenACC"
        assert payload["counts"]["error"] == 0
        assert all({"rule", "severity", "location"} <= set(f)
                   for f in payload["findings"])

    def test_lint_fail_on_warning_exits_nonzero(self, capsys):
        rc = cli_main(["lint", "spmul", "openmpc", "--fail-on=warning"])
        assert rc == 1  # the DATA003 warning trips the gate
        assert "DATA003" in capsys.readouterr().out

    def test_lint_requires_names_without_all(self, capsys):
        assert cli_main(["lint"]) == 2
