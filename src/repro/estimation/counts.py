"""Resource count container used by the area estimator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counts:
    """Estimated resource requirements (estimator-side mirror of an atom)."""

    luts_packable: float = 0.0
    luts_unpackable: float = 0.0
    regs: float = 0.0
    dsps: float = 0.0
    brams: float = 0.0

    @property
    def luts(self) -> float:
        return self.luts_packable + self.luts_unpackable
