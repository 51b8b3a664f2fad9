"""Translation validation: equivalence certificates for lowered ports.

The subsystem certifies each :class:`~repro.models.base.CompiledProgram`
against its source IR region by symbolic store-summary comparison,
backed by the value-range analysis in :mod:`repro.ir.analysis.ranges`.
See :mod:`repro.tv.certify` for the verdict semantics.
"""

from repro.tv.certify import (Certificate, CertStatus, validate_compiled,
                              validate_region)
from repro.tv.normalize import normalize, rename_expr
from repro.tv.suite import TV, TvRecord, validate_port
from repro.tv.summary import (CanonFact, LoopDom, RegionSummary, StoreFact,
                              canonicalize, summarize_stores)
from repro.tv.witness import Witness, find_divergence, oracle, scalar_bindings

__all__ = [
    "Certificate", "CertStatus", "validate_compiled", "validate_region",
    "normalize", "rename_expr",
    "TV", "TvRecord", "validate_port",
    "CanonFact", "LoopDom", "RegionSummary", "StoreFact",
    "canonicalize", "summarize_stores",
    "Witness", "find_divergence", "oracle", "scalar_bindings",
]
