"""Synthesis substrate: a deterministic logic-synthesis + P&R simulator.

Stands in for the Altera/Maxeler toolchain of the paper's evaluation; see
DESIGN.md for the substitution rationale. The estimator is validated
against this module's post-place-and-route reports.
"""

from .. import lazy_exports

# Each exported name and the module that defines it, imported on first use.
_EXPORTS = {
    "Netlist": "netlist",
    "expand": "netlist",
    "SynthReport": "report",
    "design_fingerprint": "synthesis",
    "synthesize": "synthesis",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
