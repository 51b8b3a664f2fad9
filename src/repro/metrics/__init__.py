"""Evaluation metrics: coverage, code-size increase, speedups.

The static analyses' rollups (``lintstats``, ``tvstats``, ``xferstats``,
``cachestats``, ``translatestats``) are imported from their modules:
they read analysis records, and the benchmarks import this package.
"""

from repro.metrics.codesize import (CodeSizeEntry, CodeSizeReport,
                                    codesize_for)
from repro.metrics.coverage import CoverageReport, coverage_for
from repro.metrics.profstats import (ProfStatsRow, profile_stats,
                                     render_profile_stats)
from repro.metrics.speedup import BenchmarkSpeedups, SpeedupResult

__all__ = [
    "CoverageReport", "coverage_for",
    "CodeSizeEntry", "CodeSizeReport", "codesize_for",
    "SpeedupResult", "BenchmarkSpeedups",
    "ProfStatsRow", "profile_stats", "render_profile_stats",
]
