"""Dead-end depth and geodesic structure over marked groups.

Exact breadth-first oracles (search) feed the per-family modules:
integer Heisenberg witnesses (heis), weighted lattices and Euclidean
quotients (abelian), Sol lattices with Laurent-support norms (sol), and
regular geodesic languages with the pumping depth bound (geolang).  The
cli module ties them into reproducible command-line experiments.
"""

from .core import (
    DeadendError,
    GenAlphabet,
    Letter,
    MarkedGroup,
    OutOfBox,
    UnknownLetter,
    Word,
)
from .search import (
    BallIndex,
    BoundViolated,
    ClaimViolation,
    DepthReport,
    InsufficientRadius,
    ResourceCap,
    ball,
    deadend_scan,
    depth,
)

__version__ = "0.1.0"

__all__ = [
    "BallIndex",
    "BoundViolated",
    "ClaimViolation",
    "DeadendError",
    "DepthReport",
    "GenAlphabet",
    "InsufficientRadius",
    "Letter",
    "MarkedGroup",
    "OutOfBox",
    "ResourceCap",
    "UnknownLetter",
    "Word",
    "ball",
    "deadend_scan",
    "depth",
    "__version__",
]
