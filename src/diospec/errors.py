"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """Base class for numerical failures."""


class NonConvergence(NumericalError):
    """A computation did not meet its tolerance: an iteration ran out of
    steps, or a result missed its acceptance bound."""


class SingularConfiguration(ValueError):
    """Exactly coincident zeros or coefficients make a construction singular."""


class NearCollision(NumericalError):
    """Two state components approached within the collision floor."""


class CollisionAbort(NumericalError):
    """Integration aborted: step halving under collision pressure hit the floor."""


class StepFloorReached(NumericalError):
    """Adaptive step control shrank the step below the hard floor."""


class DegenerateSpectrum(NumericalError):
    """Eigenvalues too close together, or without a frequency, for modal
    reconstruction."""


class DimensionMismatch(ValueError):
    """Inputs whose lengths do not agree."""
