"""Tyler's M-estimator for scatter and the spectral laws of its eigenvalues.

The package samples generalized spherical populations X = R * U (heavy tails,
negative radii, radius-direction dependence allowed), fits the sample
covariance matrix and Tyler's M-estimator, standardizes scatter matrices to
sqrt(n/d) * (A - I), and compares the resulting empirical spectral
distributions to the semicircle and Marchenko-Pastur reference laws.  A
seeded Monte Carlo harness (plus the ``tylerlaw`` CLI) runs reproducible
sweeps over (d, n) schedules.
"""

from . import estimators, harness, laws, metrics, sampling, spectral
from .estimators import *  # noqa: F403
from .harness import *  # noqa: F403
from .laws import *  # noqa: F403
from .metrics import *  # noqa: F403
from .sampling import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *sampling.__all__,
    *estimators.__all__,
    *spectral.__all__,
    *laws.__all__,
    *metrics.__all__,
    *harness.__all__,
]
