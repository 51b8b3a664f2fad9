"""Dynamic memory tracing: auditing the static coalescing model.

The timing model prices accesses from a *static* classification
(:mod:`repro.ir.analysis.access`).  This module checks that
classification against ground truth: it executes a kernel functionally
while recording every lane's actual addresses, groups lanes into warps,
counts the real 128-byte transactions each warp access generates, and
compares them with the static prediction.

Recording is an observer of the shared semantics core: a
:class:`KernelExecutor` constructed with ``trace=MemoryTrace()`` hands
the trace the normalised indices of every global load and store, once
per access and after its subscripts were evaluated (so the loads of an
array-valued subscript come first).

This is how we keep the analytical model honest — see
``tests/test_trace_audit.py``, which audits the model on the benchmark
kernels themselves, and ``examples/coalescing_audit.py``.

Caveat: the audit is exact for *regular* kernels.  For data-dependent
inner loops (CSR row traversals), the vectorizing executor iterates the
union of the lanes' ranges with a validity mask, so any single recorded
event carries only the lanes whose local iteration happens to coincide
— far fewer than a real warp issues together.  Dynamic transaction
counts for such kernels are therefore a *lower bound*; the static model
intentionally charges the locality-blended expectation instead.  Every
trace/audit result carries that caveat machine-readably as ``exact:
bool`` — ``False`` as soon as any thread-dependent loop executed — so
downstream consumers (the cache replay in :mod:`repro.gpusim.cache`,
the CACHE lint rules) report such kernels as approximate/lower-bound
instead of silently exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, MutableMapping, Optional

import numpy as np

from repro.gpusim.coalescing import transactions_per_warp
from repro.gpusim.device import TESLA_M2090, DeviceSpec
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.kernel import Kernel
from repro.ir.program import Function


@dataclass
class AccessEvent:
    """One executed array access across all lanes."""

    array: str
    is_store: bool
    #: flat element indices, one per active lane
    lanes: np.ndarray
    #: lane ids (flat thread ids) the indices belong to
    lane_ids: np.ndarray


class MemoryTrace:
    """Collects access events during one kernel execution."""

    def __init__(self) -> None:
        self.events: list[AccessEvent] = []
        #: set by the executor once a data-dependent (thread-dependent
        #: bounds) loop has run
        self.data_dependent = False
        #: ``False`` once any event was recorded after that: per-warp
        #: groupings in this trace are then lower bounds, not exact
        self.exact = True

    def record(self, array: str, is_store: bool, lanes: np.ndarray,
               lane_ids: np.ndarray) -> None:
        self.events.append(AccessEvent(array, is_store,
                                       np.asarray(lanes, dtype=np.int64),
                                       np.asarray(lane_ids,
                                                  dtype=np.int64)))

    def access(self, array: str, is_store: bool, idx: tuple,
               shape: tuple[int, ...], mask: Optional[np.ndarray],
               T: int) -> None:
        """Record one global access from its normalised indices (the
        observer hook of :func:`repro.gpusim.semantics.load`/``store``):
        the flat element index of every active lane."""
        parts = [np.broadcast_to(np.asarray(i), (T,)) for i in idx]
        flat = np.ravel_multi_index(tuple(parts), shape).astype(np.int64)
        lane_ids = np.arange(T, dtype=np.int64)
        if mask is not None:
            flat, lane_ids = flat[mask], lane_ids[mask]
        self.record(array, is_store, flat, lane_ids)
        if self.data_dependent:
            self.exact = False

    # -- analysis -----------------------------------------------------------
    def transactions(self, array: str, elem_bytes: int,
                     spec: DeviceSpec = TESLA_M2090,
                     stores: Optional[bool] = None) -> float:
        """Average real transactions per warp access for ``array``.

        One warp access costs as many transactions as the number of
        distinct 128-byte segments its lanes touch; the average is over
        every (event, warp) pair.  Counted with one grouped
        ``np.unique`` per event — distinct ``(warp, segment)`` pairs
        over distinct warps — instead of a Python loop over warps,
        which is what makes auditing paper-scale kernels affordable
        (see ``tests/test_trace_vectorized.py`` for the equivalence).
        """
        seg = spec.transaction_bytes
        w = spec.warp_size
        total_txns = 0
        total_warps = 0
        for ev in self.events:
            if ev.array != array:
                continue
            if stores is not None and ev.is_store != stores:
                continue
            if ev.lanes.size == 0:
                continue
            warps = ev.lane_ids // w
            segments = (ev.lanes * elem_bytes) // seg
            # distinct (warp, segment) pairs via a combined key: segment
            # ids are dense enough that warp * (max_seg + 1) + segment
            # cannot collide across warps
            span = int(segments.max()) - int(segments.min()) + 1
            key = (warps - warps.min()) * span + (segments - segments.min())
            total_txns += int(np.unique(key).size)
            total_warps += int(np.unique(warps).size)
        if total_warps == 0:
            return 0.0
        return total_txns / total_warps

    def arrays(self) -> set[str]:
        return {ev.array for ev in self.events}


class TracingExecutor(KernelExecutor):
    """A :class:`KernelExecutor` recording into a fresh :class:`MemoryTrace`.

    It adds no behaviour: it names the traced launches of the locality
    suite, which ``perfbench`` counts by hooking ``TracingExecutor.run``.
    """

    def __init__(self, kernel: Kernel,
                 arrays: MutableMapping[str, np.ndarray],
                 scalars: Mapping[str, object],
                 functions: Optional[Mapping[str, Function]] = None) -> None:
        super().__init__(kernel, arrays, scalars, functions,
                         trace=MemoryTrace())


@dataclass
class AuditRow:
    """Static vs dynamic transactions for one array."""

    array: str
    static_txns: float
    dynamic_txns: float
    #: ``False`` when the kernel ran data-dependent loops — the dynamic
    #: count is then a lower bound, not ground truth
    exact: bool = True

    @property
    def ratio(self) -> float:
        if self.dynamic_txns == 0:
            return float("inf") if self.static_txns else 1.0
        return self.static_txns / self.dynamic_txns


def audit_kernel(kernel: Kernel, arrays: Mapping[str, np.ndarray],
                 scalars: Mapping[str, object],
                 functions: Optional[Mapping[str, Function]] = None,
                 spec: DeviceSpec = TESLA_M2090) -> dict[str, AuditRow]:
    """Compare static access classification with traced reality.

    Returns one row per global array: the *static* transactions-per-warp
    the timing model charges (averaged over the kernel's references,
    weighted by their counts) and the *dynamic* value measured from the
    executed addresses.
    """
    data = {k: np.array(v, copy=True) for k, v in arrays.items()}
    trace = MemoryTrace()
    KernelExecutor(kernel, data, dict(scalars), functions, trace=trace).run()

    bindings = {k: float(v) for k, v in scalars.items()
                if isinstance(v, (int, float))}
    extents = {name: list(a.shape) for name, a in arrays.items()}
    desc = kernel.describe(bindings, extents)
    elem = kernel.elem_bytes()

    static: dict[str, list[tuple[float, float]]] = {}
    for ref, count in desc.access.refs:
        txns = transactions_per_warp(ref, elem, spec)
        static.setdefault(ref.array, []).append((txns, count))

    rows: dict[str, AuditRow] = {}
    for array in sorted(trace.arrays()):
        dyn = trace.transactions(array, elem, spec)
        weighted = static.get(array, [])
        if weighted:
            total = sum(c for _, c in weighted)
            stat = sum(t * c for t, c in weighted) / total
        else:
            stat = 0.0
        rows[array] = AuditRow(array=array, static_txns=stat,
                               dynamic_txns=dyn, exact=trace.exact)
    return rows


def render_audit(rows: Mapping[str, AuditRow]) -> str:
    lines = [f"{'array':<12}{'static txn/warp':>16}{'traced':>10}"
             f"{'static/traced':>15}",
             "-" * 53]
    for row in rows.values():
        lines.append(f"{row.array:<12}{row.static_txns:>16.2f}"
                     f"{row.dynamic_txns:>10.2f}{row.ratio:>15.2f}")
    if any(not row.exact for row in rows.values()):
        lines.append("(data-dependent kernel: traced counts are lower "
                     "bounds, not exact)")
    return "\n".join(lines)
