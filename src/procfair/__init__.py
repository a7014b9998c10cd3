"""Group-fairness auditing of binary decision procedures against a moral ground truth.

The package models populations with an objective binary merit label, applies
deterministic or randomized decision procedures to them, audits the results
for group fairness (equal conviction probability within each merit class),
classifies procedures in conviction-rate space, and constructively
demonstrates that every imperfect deterministic procedure admits morally
arbitrary groups witnessing unfairness.
"""

from . import errors, fairness, population, procedure, roc, theorem
from .errors import *
from .fairness import *
from .population import *
from .procedure import *
from .roc import *
from .theorem import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *fairness.__all__,
    *population.__all__,
    *procedure.__all__,
    *roc.__all__,
    *theorem.__all__,
]
