"""PERF rules: static performance smells in compiled kernels.

Section IV-B of the paper traces every disappointing port to one of a
small set of memory-system mistakes: uncoalesced global access (JACOBI
column-major, EP row-expanded privates, CFD AoS), block shapes that
starve the SMs (HOTSPOT outer-loop parallelization), and unexploited
special memories (the constant/texture/shared variants of Figure 4).
These rules grade each emitted kernel with the same device model the
simulator prices, but as pure queries — no launch, no state:

* ``PERF001`` (warning): a strided global reference replays ≥ 8
  transactions per warp access (a quarter of full serialization).
* ``PERF002`` (info): data-dependent (indirect) gather/scatter — the
  CSR and graph traffic of SPMUL/CG/BFS; expected for sparse codes,
  worth knowing everywhere else.
* ``PERF003`` (warning): the block shape cannot launch, leaves
  occupancy under 50%, or is not a multiple of the warp size.
* ``PERF004`` (info): a warp-uniform read-only reference not placed in
  constant/texture memory (the KMEANS/HOTSPOT cached-memory story).
* ``PERF005`` (info): three or more distinct reads of one global array
  without shared-memory tiling — a stencil reuse candidate.
"""

from __future__ import annotations

from typing import Iterator

from repro.gpusim.coalescing import is_poorly_coalesced, transactions_per_warp
from repro.gpusim.kernel import Kernel
from repro.gpusim.memory import MemorySpace
from repro.gpusim.occupancy import block_shape_occupancy
from repro.ir.analysis.access import AccessPattern
from repro.ir.expr import ArrayRef
from repro.lint.engine import LintContext, checker, declare
from repro.lint.findings import Finding, Severity

declare("PERF001", Severity.WARNING,
        "strided global access replays >= 8 memory transactions per warp")
declare("PERF002", Severity.INFO,
        "data-dependent (indirect) gather/scatter traffic")
declare("PERF003", Severity.WARNING,
        "block shape starves the SMs (unlaunchable, occupancy < 50%, "
        "or not warp-aligned)")
declare("PERF004", Severity.INFO,
        "warp-uniform read-only array not placed in constant/texture "
        "memory")
declare("PERF005", Severity.INFO,
        "repeated reads of one global array without shared-memory tiling")

#: transactions-per-warp threshold for PERF001
POOR_COALESCING_TXNS = 8.0
#: occupancy floor for PERF003
MIN_OCCUPANCY = 0.5
#: distinct-read threshold for PERF005
REUSE_READS = 3


def _kernel_summary(kernel: Kernel, ctx: LintContext):
    """Access summary with symbolic extents — classification only."""
    extents = {name: [None] * max(1, len(decl.shape))
               for name, decl in ctx.program.arrays.items()}
    access_plan, _ = kernel.plans(extents)
    return access_plan.evaluate({})


def _distinct_reads(kernel: Kernel) -> dict[str, int]:
    """Structurally distinct ArrayRef *reads* per array in the body."""
    from repro.ir.stmt import Assign

    keys: dict[str, set] = {}

    def note(expr) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                keys.setdefault(node.name, set()).add(node.key())

    for stmt in kernel.body.walk():
        if isinstance(stmt, Assign):
            note(stmt.value)
            for index in (stmt.target.indices
                          if isinstance(stmt.target, ArrayRef) else ()):
                note(index)
            if stmt.op is not None and isinstance(stmt.target, ArrayRef):
                note(stmt.target)
        else:
            for expr in stmt.exprs():
                note(expr)
    return {name: len(ks) for name, ks in keys.items()}


@checker("PERF001", "PERF002", "PERF003", "PERF004", "PERF005",
         scope="compiled")
def check_kernels(ctx: LintContext) -> Iterator[Finding]:
    compiled = ctx.compiled
    assert compiled is not None
    device = ctx.device
    for region in ctx.program.regions:
        result = compiled.results.get(region.name)
        if result is None or not result.translated:
            continue
        for kernel in result.kernels:
            elem = kernel.elem_bytes()
            summary = _kernel_summary(kernel, ctx)
            tiled = {a for t in kernel.tiling for a in t.arrays}
            seen: set[tuple[str, str]] = set()

            for ref, _weight in summary.refs:
                key = ("coal", ref.array + ("/st" if ref.is_store else ""))
                if (ref.pattern is AccessPattern.STRIDED
                        and is_poorly_coalesced(ref, elem, device,
                                                POOR_COALESCING_TXNS)
                        and key not in seen):
                    seen.add(key)
                    txns = transactions_per_warp(ref, elem, device)
                    kind = "stores to" if ref.is_store else "loads from"
                    yield ctx.finding(
                        "PERF001",
                        f"kernel {kernel.name!r} {kind} {ref.array!r} with "
                        f"stride {ref.stride}: {txns:.0f} transactions per "
                        "warp access (1-2 when coalesced)",
                        region=region.name, kernel=kernel.name,
                        array=ref.array)
                key = ("ind", ref.array)
                if (ref.pattern is AccessPattern.INDIRECT
                        and key not in seen):
                    seen.add(key)
                    yield ctx.finding(
                        "PERF002",
                        f"kernel {kernel.name!r} accesses {ref.array!r} "
                        "through data-dependent subscripts; locality is "
                        "input-dependent",
                        region=region.name, kernel=kernel.name,
                        array=ref.array)
                key = ("uni", ref.array)
                if (ref.pattern is AccessPattern.UNIFORM
                        and not ref.is_store
                        and ref.array in ctx.program.arrays
                        and kernel.placements.get(ref.array) is None
                        and key not in seen):
                    seen.add(key)
                    yield ctx.finding(
                        "PERF004",
                        f"kernel {kernel.name!r} reads {ref.array!r} "
                        "warp-uniformly from global memory; constant or "
                        "texture placement would broadcast it from cache",
                        region=region.name, kernel=kernel.name,
                        array=ref.array)

            smem = sum(t.smem_bytes_per_block for t in kernel.tiling)
            occ = block_shape_occupancy(device, kernel.block_threads,
                                        smem_per_block=smem,
                                        regs_per_thread=kernel.regs_per_thread)
            if occ is None:
                yield ctx.finding(
                    "PERF003",
                    f"kernel {kernel.name!r}: block of "
                    f"{kernel.block_threads} threads (+{smem} B smem) "
                    "cannot launch on this device",
                    region=region.name, kernel=kernel.name)
            elif occ.occupancy < MIN_OCCUPANCY:
                yield ctx.finding(
                    "PERF003",
                    f"kernel {kernel.name!r}: block shape "
                    f"{kernel.block_threads} caps occupancy at "
                    f"{occ.occupancy:.0%} (limited by {occ.limited_by}); "
                    "too few warps to hide memory latency",
                    region=region.name, kernel=kernel.name)
            elif kernel.block_threads % device.warp_size != 0:
                yield ctx.finding(
                    "PERF003",
                    f"kernel {kernel.name!r}: block of "
                    f"{kernel.block_threads} threads is not a multiple of "
                    f"the warp size ({device.warp_size}); partial warps "
                    "waste lanes",
                    region=region.name, kernel=kernel.name)

            for name, n_reads in sorted(_distinct_reads(kernel).items()):
                if (n_reads >= REUSE_READS
                        and name in ctx.program.arrays
                        and name not in tiled
                        and kernel.placements.get(name) not in
                        (MemorySpace.CONSTANT, MemorySpace.TEXTURE)):
                    yield ctx.finding(
                        "PERF005",
                        f"kernel {kernel.name!r} reads {name!r} at "
                        f"{n_reads} distinct subscripts with no "
                        "shared-memory tiling; a stencil tile would "
                        "capture the reuse",
                        region=region.name, kernel=kernel.name, array=name)
