"""Confidence sets for the ranks of multinomial category probabilities.

Given counts ``X ~ Multinomial(n, theta)``, this package builds sets of
ranks for each category of interest that contain the true ranks — all
of them, under ties — with guaranteed or asymptotic probability.  It
offers finite-sample procedures driven by exact pairwise binomial
tests (with Bonferroni or Holm multiplicity control), a
Clopper-Pearson interval-overlap procedure, multinomial bootstrap
procedures (studentized or not), and a naive rank-resampling baseline,
plus projections of the rank sets onto top-tau / bottom-tau category
selections and a Monte Carlo study harness.  The count-table workflow
and command line live in :mod:`ranksets.cli` (``python -m ranksets``).

Each module's ``__all__`` is the one list of its public names; the
package re-exports all of them.
"""

from . import _dispatch, boot, core, cp, exact, projections, sim
from ._dispatch import *  # noqa: F401,F403
from .boot import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .cp import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .projections import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (_dispatch, boot, core, cp, exact, projections, sim)
    for name in module.__all__
]
