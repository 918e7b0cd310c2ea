"""Accuracy limits for covariant phase estimation.

Numerical library computing the optimal accuracy of phase estimates
(minimal Holevo variance and root-average-mean-square error at fixed mean
generator value), cross-validated against exact Bessel/Airy solutions and
asymptotic series, together with entropic bounds, measurement-reduction
lemmas, and biased Cramer-Rao estimator analysis.

The package re-exports the public names of its modules, each listed in that
module's ``__all__``.
"""

from . import asympt, canonical, eigensolve, estimators, povm, specfun, variational
from .asympt import *
from .canonical import *
from .eigensolve import *
from .estimators import *
from .povm import *
from .specfun import *
from .variational import *

__version__ = "0.1.0"

__all__ = [
    *specfun.__all__,
    *eigensolve.__all__,
    *canonical.__all__,
    *variational.__all__,
    *asympt.__all__,
    *povm.__all__,
    *estimators.__all__,
    "__version__",
]
