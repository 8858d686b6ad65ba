"""platelab: a verification lab for the damped plate equation.

Symbol-level Lopatinskii-Shapiro checks for the bi-Laplacian under general
boundary operators, Carleman-weight sub-ellipticity verification, finite-
difference plate operators with the catalog boundary families, and the
damped plate semigroup with its resolvent and energy-decay experiments.
"""

__version__ = "0.1.0"


class SizeLimitError(ValueError):
    """A problem size above what a dense path accepts."""
