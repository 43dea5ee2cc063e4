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

from ..ir.controllers import MetaPipe
from ..ir.graph import Design, max_depth
from ..ir.memops import TileTransfer
from .counts import Counts

N_FEATURES = 11


def design_features(design: Design, raw: Counts, wire_bits: float) -> List[float]:
    """The 11-element feature vector for one design instance."""
    controllers = list(design.controllers())
    return feature_vector(
        raw,
        wire_bits,
        n_controllers=len(controllers),
        n_metapipes=sum(1 for c in controllers if isinstance(c, MetaPipe)),
        n_transfers=sum(1 for c in controllers if isinstance(c, TileTransfer)),
        depth=max_depth(design),
        # A design without on-chip memories counts as one bank.
        total_banks=sum(m.banks for m in design.onchip_mems()) or 1,
    )


def feature_vector(
    raw: Counts,
    wire_bits: float,
    n_controllers: int,
    n_metapipes: int,
    n_transfers: int,
    depth: int,
    total_banks: int,
) -> List[float]:
    """:func:`design_features` from the numbers it reads off the design."""
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
