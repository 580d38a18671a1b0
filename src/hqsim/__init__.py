"""Desk-scale simulator of a hybrid machine: small quantum nodes driven by
a classical orchestrator, with exact operation-count accounting.

Two pipelines are provided.  The transform pipeline evaluates a real
signal's discrete Fourier transform by decimating it onto quantum-node
leaves (amplitude encoding, ancilla-controlled transform circuit, a
projection/measurement schedule, classical sign rebuilding) and combining
the leaf spectra through classical butterfly levels.  The search pipeline
partitions the index domain into sublists and amplifies each sublist's
solutions on a node with classical verification.  Every operation charges
fixed integer costs to a ledger that can be compared, exactly, with
closed-form forecasts.
"""

from . import core, costs, hybrid_fft, readout, search
from .core import *
from .costs import *
from .hybrid_fft import *
from .readout import *
from .search import *

__version__ = "0.1.0"

# The public names are the submodules' own lists; nothing is listed twice.
__all__ = [
    *core.__all__,
    *costs.__all__,
    *hybrid_fft.__all__,
    *readout.__all__,
    *search.__all__,
]
