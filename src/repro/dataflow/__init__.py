"""repro.dataflow — whole-program host/device coherence analysis.

The per-region verifier (``repro.lint``) sees one transfer plan at a
time; this package sees the *sequence*: it builds a region-sequence CFG
from a compiled port's transfer discipline (including the host driver
loops that re-enter offload regions — the Jacobi/CG sweep pattern) and
runs three lattice analyses over it using the generic solver in
:mod:`repro.ir.analysis.dataflow`:

* **coherence** — a per-array host/device validity state machine
  (coherent / stale-host / stale-device), a *must* analysis;
* **reaching transfers** — which transfer/kernel event established the
  current device copy (a *may* analysis; supplies the witnesses);
* **live device/host data** — backward liveness of the device and host
  copies (dead/deferrable transfer detection).

Consumers: the ``XFER``/``COH`` lint family (:mod:`repro.lint.xfer`),
the opt-in ``elide-transfers`` pipeline pass
(:func:`repro.dataflow.report.plan_elisions`), and the
``repro-harness xfer`` rollup (:mod:`repro.dataflow.suite`).
"""

from repro.dataflow.cfg import Event, XferCfg, XferNode, build_xfer_cfg
from repro.dataflow.coherence import (COHERENT, STALE_DEV, STALE_HOST,
                                      coherence_analysis, state_name)
from repro.dataflow.live import live_device_analysis, live_host_analysis
from repro.dataflow.reaching import reaching_analysis
from repro.dataflow.report import (CoherenceProblem, TransferVerdict,
                                   XferAnalysis, analyze_compiled,
                                   plan_elisions)
from repro.dataflow.suite import XFER, XferRecord, xfer_port

__all__ = [
    "Event", "XferNode", "XferCfg", "build_xfer_cfg",
    "coherence_analysis", "state_name",
    "COHERENT", "STALE_HOST", "STALE_DEV",
    "reaching_analysis", "live_device_analysis", "live_host_analysis",
    "TransferVerdict", "CoherenceProblem", "XferAnalysis",
    "analyze_compiled", "plan_elisions",
    "XFER", "XferRecord", "xfer_port",
]
