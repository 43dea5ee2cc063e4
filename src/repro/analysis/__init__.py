"""Design analysis: bottleneck attribution and roofline placement."""

from .bottleneck import Bottleneck, diagnose
from .roofline import RooflinePoint, analyze

__all__ = [
    "Bottleneck",
    "RooflinePoint",
    "analyze",
    "diagnose",
]
