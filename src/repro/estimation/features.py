"""Design-level feature vector for the neural-network correction models.

Eleven inputs per network (paper Section IV-B2): the raw resource counts
from the template-model pass plus structural properties of the design that
correlate with routing pressure and placement fragmentation. Features are
computed from the *estimator's* raw counts — the same information available
at design-space-exploration time — never from ground-truth synthesis.
"""

from __future__ import annotations

import math
from typing import List

from ..ir.graph import Design
from .counts import Counts

N_FEATURES = 11


def design_features(design: Design, raw: Counts, wire_bits: float) -> List[float]:
    """The 11-element feature vector for one design instance."""
    from .walk import Numbers, features  # the walk imports feature_vector

    return features(Numbers(), design, raw, wire_bits)


def feature_vector(
    raw: Counts,
    wire_bits: float,
    n_controllers: int,
    n_metapipes: int,
    n_transfers: int,
    depth: int,
    total_banks: int,
) -> List[float]:
    """The features from the raw counts and the numbers the walk reads off
    a design (:func:`repro.estimation.walk.features`)."""
    return [
        math.log10(1.0 + raw.luts_packable),
        math.log10(1.0 + raw.luts_unpackable),
        math.log10(1.0 + raw.regs),
        math.log10(1.0 + raw.dsps),
        math.log10(1.0 + raw.brams),
        math.log10(1.0 + wire_bits),
        float(n_controllers),
        float(n_metapipes),
        float(n_transfers),
        float(depth),
        math.log2(1.0 + total_banks),
    ]
