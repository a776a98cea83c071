"""archlab: linear and deep archetypal analysis with synthetic benchmarks."""

from . import autodiff, datasets, deep_aa, linear_aa, model_selection, nn, numerics
from .errors import ArchlabError

__all__ = [
    "ArchlabError",
    "autodiff",
    "datasets",
    "deep_aa",
    "linear_aa",
    "model_selection",
    "nn",
    "numerics",
]

__version__ = "0.1.0"
