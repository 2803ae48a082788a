"""Split-half parallel test construction, reliability, and battery scoring.

The pipeline: load or simulate a binary score matrix, dichotomise it
into two near-parallel halves, estimate the test's error variance and
reliability from the halves' disagreement, regress per-examinee true
scores, and aggregate several tests into a battery with chosen weights.

Each module's ``__all__`` is the one declaration of its public names;
the package re-exports them all.
"""

from . import battery, data_model, errors, reliability, simulate, splitter, truescore
from ._version import __version__
from .battery import *
from .data_model import *
from .errors import *
from .reliability import *
from .simulate import *
from .splitter import *
from .truescore import *

__all__ = [
    "__version__",
    *errors.__all__,
    *data_model.__all__,
    *splitter.__all__,
    *reliability.__all__,
    *truescore.__all__,
    *battery.__all__,
    *simulate.__all__,
]
