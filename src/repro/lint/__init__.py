"""repro.lint — the directive verifier (static analysis over ports).

Rule families:

* ``RACE``: loop-carried write conflicts (:mod:`repro.lint.race`);
* ``DATA``: transfer-plan defects (:mod:`repro.lint.data`);
* ``PERF``: memory/occupancy smells (:mod:`repro.lint.perf`);
* ``BNDS``: value-range violations — out-of-bounds subscripts, dead
  loops (:mod:`repro.lint.bounds`);
* ``TV``: translation-validation verdicts from :mod:`repro.tv`
  (:mod:`repro.lint.tv`);
* ``XFER``/``COH``: whole-program transfer verdicts and coherence
  problems from the :mod:`repro.dataflow` fixpoint analyses
  (:mod:`repro.lint.xfer`);
* ``COV-*``: model coverage limitations, folded in from the compilers'
  :class:`~repro.models.base.Diagnostic` records.

See ``docs/lint.md`` for the full rule catalog.
"""

from repro.lint import bounds, data, perf, race, tv, xfer  # noqa: F401
from repro.lint.engine import (CHECKERS, RULES, Checker, LintContext, Rule,
                               checker, declare, run_lint)
from repro.lint.findings import Finding, LintReport, Severity
from repro.lint.sarif import report_to_sarif
from repro.lint.suite import (LINT, LINT_MODELS, SuiteRecord,
                              clear_compile_cache, compile_port, lint_port,
                              lint_record)

__all__ = [
    "Severity", "Finding", "LintReport",
    "Rule", "Checker", "RULES", "CHECKERS", "declare", "checker",
    "LintContext", "run_lint", "report_to_sarif",
    "LINT", "LINT_MODELS", "SuiteRecord", "lint_port", "lint_record",
    "compile_port", "clear_compile_cache",
]
