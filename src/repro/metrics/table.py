"""The two pieces every per-model rollup table shares.

The analysis rollups (:mod:`~repro.metrics.lintstats`,
:mod:`~repro.metrics.tvstats`, :mod:`~repro.metrics.xferstats`,
:mod:`~repro.metrics.cachestats`, :mod:`~repro.metrics.translatestats`)
keep only their row math; bucketing records and laying out the text
table live here.
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence, TypeVar

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)


def group_by(records: Sequence[T], key: Callable[[T], K],
             ) -> list[tuple[K, list[T]]]:
    """Records bucketed by ``key``, buckets in first-seen order."""
    buckets: dict[K, list[T]] = {}
    for rec in records:
        buckets.setdefault(key(rec), []).append(rec)
    return list(buckets.items())


def render_table(headers: Sequence[str],
                 body: Sequence[Sequence[str]]) -> str:
    """Aligned text table: the first column left-aligned, the rest
    right-aligned, a dashed rule under the header."""
    widths = [max(len(headers[i]), *(len(r[i]) for r in body))
              if body else len(headers[i]) for i in range(len(headers))]

    def fmt(cells: Sequence[str]) -> str:
        first = cells[0].ljust(widths[0])
        rest = "  ".join(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
        return f"{first}  {rest}"

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in body)
    return "\n".join(lines)
