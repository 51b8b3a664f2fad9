"""Per-model rollup of the cache-locality suite.

Aggregates :class:`~repro.gpusim.locality.LocalityRecord` rows (one
per benchmark x model port) into a per-model table: how many kernels
were traced, how many of those carry *exact* line streams (no
data-dependent subscripts), the suite-mean simulated L1/L2 miss
ratios, the MAP-style locality degrees (spatial/temporal), the
short-reuse-interval fraction, and — the cross-validation column —
the worst absolute deviation between the static analyzer's predicted
L1 miss ratio and the replayed one over the gated kernels
(:attr:`~repro.gpusim.locality.KernelLocality.gated`: exact on both
sides, at least
:data:`~repro.gpusim.locality.MIN_GATED_ACCESSES` simulated accesses —
the kernels ``tests/test_reuse_static.py`` and ``locality --fail-on``
hold to the agreement tolerance).
Means are weighted by simulated accesses so tiny cleanup kernels do
not drown the launches that move the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.gpusim.locality import LocalityRecord
from repro.metrics.table import group_by, render_table


@dataclass(frozen=True)
class CacheRollupRow:
    """Aggregated cache-locality metrics for one model across the suite."""

    model: str
    ports: int
    kernels: int
    exact_kernels: int
    l1_miss_ratio: float       #: access-weighted mean, simulated
    l2_miss_ratio: float       #: access-weighted mean, simulated
    spatial_locality: float    #: access-weighted mean spatial degree
    temporal_locality: float   #: access-weighted mean temporal degree
    short_mri_fraction: float  #: access-weighted mean short-MRI share
    gated_kernels: int         #: kernels in the static-vs-sim gate
    worst_static_dev: float    #: max |static - simulated| L1 miss ratio


def cache_rollup(records: Sequence[LocalityRecord]) -> list[CacheRollupRow]:
    """Aggregate suite records into one row per model, in input order."""
    rows = []
    for model, recs in group_by(records, lambda rec: rec.model):
        kernels = exact = gated = 0
        weight = 0.0
        l1 = l2 = spatial = temporal = short_mri = 0.0
        worst_dev = 0.0
        for rec in recs:
            for kl in rec.kernels:
                sim = kl.simulated
                kernels += 1
                if sim.exact:
                    exact += 1
                w = float(sim.accesses)
                weight += w
                l1 += w * sim.l1.miss_ratio
                l2 += w * sim.l2.miss_ratio
                spatial += w * sim.spatial_locality
                temporal += w * sim.temporal_locality
                short_mri += w * sim.short_mri_fraction
                if kl.gated:
                    gated += 1
                    worst_dev = max(worst_dev, kl.deviation()[0])
        scale = 1.0 / weight if weight else 0.0
        rows.append(CacheRollupRow(
            model=model, ports=len(recs), kernels=kernels,
            exact_kernels=exact,
            l1_miss_ratio=l1 * scale, l2_miss_ratio=l2 * scale,
            spatial_locality=spatial * scale,
            temporal_locality=temporal * scale,
            short_mri_fraction=short_mri * scale,
            gated_kernels=gated, worst_static_dev=worst_dev))
    return rows


def render_cache_rollup(rows: Sequence[CacheRollupRow]) -> str:
    """Aligned text table of per-model cache-locality metrics."""
    headers = ["Model", "Ports", "Kernels", "Exact", "L1miss", "L2miss",
               "Spatial", "Temporal", "ShortMRI", "Gated", "WorstDev"]
    body = [[row.model, str(row.ports), str(row.kernels),
             str(row.exact_kernels),
             f"{row.l1_miss_ratio:.3f}", f"{row.l2_miss_ratio:.3f}",
             f"{row.spatial_locality:.3f}", f"{row.temporal_locality:.3f}",
             f"{row.short_mri_fraction:.3f}", str(row.gated_kernels),
             f"{row.worst_static_dev:.3f}"]
            for row in rows]
    return render_table(headers, body)
